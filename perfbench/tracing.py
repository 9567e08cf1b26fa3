"""Per-layer span recorder that wraps the library's entry points from outside.

The traced run patches the public entry points listed in :data:`LAYERS` with
timing wrappers for the duration of one phase and restores them afterwards.
Nothing in ``src/`` knows about it: a function imported by name into other
modules (``from repro.xmldb.parser import parse_fragment``) is replaced in
every loaded ``repro`` module that holds it, and a method is replaced on the
class that defines it.  An entry point that no longer exists is reported as
missing rather than crashing the run.

Spans nest per thread.  A span opened while an operation root is active on
its thread belongs to that operation; the layer's *self* time is its
duration minus the time its child spans cover, so the self times of every
span under the roots plus the roots' own self time (the unattributed part)
make up the operations' wall time.  That wall time is checked against the
driver's own timed intervals.  The thread that installs the recorder opens
the operation roots; a wrapped call on it outside any operation (the answer
check, say) is not recorded.  Work on any other thread, such as the serving
front door's, has no operation root: it is recorded as detached spans,
counted in the layer totals but kept out of the ledger.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


def _arg_len(index: int) -> Callable:
    return lambda args, result: len(args[index])


def _result_len(args, result) -> int:
    if isinstance(result, (list, tuple)):
        return sum(len(part) for part in result)
    return len(result)


@dataclass(frozen=True)
class Layer:
    """One layer boundary: the span name, its entry points and its metrics."""

    span: str
    targets: tuple[str, ...]
    time_metric: str
    calls_metric: str | None = None
    bytes_metric: str | None = None
    size: Callable | None = None


#: Every wrapped entry point, grouped by the layer its span is named after.
#: Targets read ``module:qualname``; methods are patched on their class.
LAYERS: tuple[Layer, ...] = (
    Layer("xmldb.parse", ("repro.xmldb.parser:parse_fragment",),
          "xmldb.parse_s", "xmldb.parse_calls", "xmldb.parse_bytes",
          _arg_len(0)),
    Layer("crypto.iv_derive", ("repro.crypto.keyring:ClientKeyring.block_iv",),
          "crypto.iv_derive_s", "crypto.iv_derive_calls"),
    Layer("crypto.aes", ("repro.crypto.modes:cbc_decrypt",),
          "crypto.aes_s", None, "crypto.aes_bytes", _arg_len(2)),
    Layer("crypto.block_mac", ("repro.crypto.keyring:ClientKeyring.block_tag",),
          "crypto.block_mac_s", "crypto.block_mac_calls"),
    Layer("crypto.ope",
          ("repro.crypto.ope:OrderPreservingEncryption.encrypt_int",
           "repro.crypto.ope:OrderPreservingEncryption.encrypt_float"),
          "crypto.ope_s", "crypto.ope_calls"),
    Layer("translate", ("repro.core.client:Client.translate",), "translate.s"),
    Layer("server.answer", ("repro.core.server:Server.answer_wire",),
          "server.answer_s"),
    Layer("server.join",
          ("repro.core.structural_join:match_pattern",
           "repro.core.columnar:match_pattern_columnar"),
          "server.join_s"),
    Layer("integrity.seal", ("repro.core.integrity:seal_fresh",),
          "integrity.seal_s"),
    Layer("integrity.verify",
          ("repro.core.client:Client.open_response",
           "repro.core.client:Client.open_chunk"),
          "integrity.verify_s"),
    Layer("codec.encode",
          ("repro.netsim.message:encode_query",
           "repro.netsim.message:encode_response",
           "repro.netsim.message:encode_response_chunks"),
          "codec.encode_s", None, "codec.bytes", _result_len),
    Layer("codec.decode",
          ("repro.netsim.message:decode_query",
           "repro.netsim.message:decode_response",
           "repro.netsim.message:decode_chunk"),
          "codec.decode_s"),
    Layer("client.decrypt", ("repro.core.client:Client.decrypt_fragments",),
          "client.decrypt_s"),
    Layer("client.assemble", ("repro.core.client:Client.assemble",),
          "client.assemble_s"),
    Layer("client.postprocess", ("repro.core.client:Client.post_process",),
          "client.postprocess_s"),
    Layer("xpath.evaluate", ("repro.xpath.evaluator:evaluate",),
          "xpath.evaluate_s", "xpath.evaluate_calls"),
    Layer("updates.resolve",
          ("repro.core.updates:UpdateEngine.resolve_single",),
          "updates.resolve_s"),
    Layer("updates.apply",
          ("repro.core.updates:UpdateEngine.insert_element",
           "repro.core.updates:UpdateEngine.delete_element",
           "repro.core.updates:UpdateEngine.update_value"),
          "updates.apply_s"),
    Layer("opess.plan", ("repro.core.opess:build_field_plan",), "opess.plan_s"),
    Layer("opess.value_index", ("repro.core.opess:build_value_index",),
          "opess.value_index_s"),
    Layer("hosting.scheme", ("repro.core.scheme:build_scheme",),
          "hosting.scheme_s"),
    Layer("hosting.encrypt", ("repro.core.encryptor:host_database",),
          "hosting.encrypt_s"),
    Layer("hosting.dsi",
          ("repro.core.dsi:assign_intervals",
           "repro.core.dsi:build_structural_index"),
          "hosting.dsi_s"),
    Layer("cluster.scatter",
          ("repro.cluster.coordinator:ClusterCoordinator.scatter_gather",
           "repro.serving.gateway:ClusterGateway.answer_wire"),
          "cluster.scatter_s"),
    Layer("cluster.shard_answer",
          ("repro.cluster.replication:ReplicaSet.exchange",),
          "cluster.shard_answer_s"),
    Layer("serving.request", ("repro.serving.client:ServingConnection.call",),
          "serving.request_s"),
    Layer("serving.handler",
          ("repro.serving.server:TenantSession.query",
           "repro.serving.server:TenantSession.update"),
          "serving.handler_s"),
)

#: Modules whose import must precede patching, so that every by-name
#: import of a wrapped function already exists when the scan runs.
_PRELOAD = (
    "repro.core.system",
    "repro.core.updates",
    "repro.cluster.coordinator",
    "repro.serving",
)


class _Frame:
    __slots__ = ("span", "op", "start", "child", "ident")

    def __init__(self, span: str, op: "int | None", ident: int) -> None:
        self.span = span
        self.op = op
        self.ident = ident
        self.start = 0.0
        self.child = 0.0


class Recorder:
    """In-memory span store plus the patch/unpatch machinery."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: (id, name, start, end, self_s, parent_id, op_id, bytes, thread)
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._op_threads: set[int] = set()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`; record the missing ones."""
        for name in _PRELOAD:
            importlib.import_module(name)
        self._op_threads.add(threading.get_ident())
        self.missing = []
        for layer in LAYERS:
            for target in layer.targets:
                if not self._patch(layer, target):
                    self.missing.append(target)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore = []

    def _patch(self, layer: Layer, target: str) -> bool:
        module_name, _, qualname = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, attribute = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = None if owner is None else owner.__dict__.get(attribute)
            if not inspect.isfunction(original):
                return False
            self._set(owner, attribute, self._wrap(layer, original))
            return True
        original = getattr(module, attribute, None)
        if not inspect.isfunction(original):
            return False
        wrapper = self._wrap(layer, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapper)
        return True

    def _set(self, owner: object, attribute: str, value: object) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder._call(layer, fn, args, kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, layer: Layer, fn: Callable, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
            if parent.span == layer.span:
                return fn(*args, **kwargs)  # re-entry into the same layer
        elif threading.get_ident() in self._op_threads:
            return fn(*args, **kwargs)  # outside any operation
        else:
            parent = None  # detached: a thread that opens no operations
        frame = _Frame(layer.span, parent.op if parent else None,
                       next(self._ids))
        stack.append(frame)
        result = None
        frame.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame.start
            if parent is not None:
                parent.child += duration
            size = 0
            if layer.size is not None and result is not None:
                size = layer.size(args, result)
            self.spans.append((
                frame.ident, layer.span, frame.start, end,
                duration - frame.child,
                parent.ident if parent else None, frame.op, size,
                threading.get_ident(),
            ))

    def begin_op(self, kind: str) -> _Frame:
        """Open an operation root on the calling thread; its span id is the
        operation id every span under it carries."""
        ident = next(self._ids)
        frame = _Frame(f"op.{kind}", ident, ident)
        self._stack().append(frame)
        frame.start = time.perf_counter()
        return frame

    def end_op(self, frame: _Frame) -> float:
        end = time.perf_counter()
        stack = self._stack()
        assert stack and stack[-1] is frame, "unbalanced operation spans"
        stack.pop()
        duration = end - frame.start
        self.spans.append((
            frame.ident, frame.span, frame.start, end,
            duration - frame.child, None, frame.op, 0,
            threading.get_ident(),
        ))
        return duration

    def clear(self) -> None:
        self.spans = []

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def totals(self) -> dict:
        """Self seconds, calls, bytes and inclusive seconds per span name,
        plus the ledger.

        ``ops_wall_s`` is the summed duration of the operation roots;
        ``attributed_s`` the self time of every span under them and
        ``unattributed_s`` the roots' own self time, so the two make up the
        wall.  ``detached_s`` is self time on threads with no root.
        """
        per_span: dict[str, list] = {}
        wall = unattributed = attributed = detached = 0.0
        for _ident, name, start, end, self_s, parent, op, size, _t in (
            self.spans
        ):
            if name.startswith("op."):
                wall += end - start
                unattributed += self_s
                continue
            entry = per_span.setdefault(name, [0.0, 0, 0, 0.0])
            entry[0] += self_s
            entry[1] += 1
            entry[2] += size
            entry[3] += end - start
            if op is None:
                detached += self_s
            else:
                attributed += self_s
        return {
            "per_span": per_span,
            "ops_wall_s": wall,
            "attributed_s": attributed,
            "unattributed_s": unattributed,
            "detached_s": detached,
        }

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent, op)."""
        keys = ("id", "name", "start", "end", "self_s", "parent", "op",
                "bytes", "thread")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))))
                handle.write("\n")


#: Hosting metrics: self time of these spans during the traced hosting.
HOSTING_METRICS = {
    "hosting.scheme_s": "hosting.scheme",
    "hosting.encrypt_s": "hosting.encrypt",
    "hosting.dsi_s": "hosting.dsi",
    "hosting.value_index_s": "opess.value_index",
    "hosting.opess_plan_s": "opess.plan",
    "hosting.ope_s": "crypto.ope",
}


#: Share of the timed operations by which the ledger's wall may differ.
RECONCILE_TOLERANCE = 0.01
#: Upper bound on what opening and closing one operation root costs.
ROOT_COST_S = 20e-6


def _hit_rate(delta: dict, cache: str) -> float:
    hits = delta.get(f"{cache}_cache_hits", 0)
    total = hits + delta.get(f"{cache}_cache_misses", 0)
    return hits / total if total else 0.0


def per_layer_metrics(
    recorder: Recorder,
    hosting: dict,
    replay,
    ops: int,
    timed_s: float,
    counter_delta: dict,
    epoch_bumps: int,
    baseline_per_op: float,
    join_redundancy: float,
) -> dict:
    """The per-layer ledger of one traced replay.

    Layer times are self seconds per operation, so over every layer they
    add up, with ``trace.unattributed_frac``, to the traced wall time per
    operation (``trace.detached_frac`` is the server-thread time on top).
    That wall time must match ``timed_s``, the driver's own measure of the
    same operations, to within :data:`RECONCILE_TOLERANCE` plus a few
    microseconds per operation for opening and closing the root; the run
    fails otherwise.  ``replay`` carries the per-read counts the driver
    took from each query's trace and channel records.
    """
    totals = recorder.totals()
    wall = totals["ops_wall_s"]
    drift = wall - timed_s
    if abs(drift) > RECONCILE_TOLERANCE * timed_s + ROOT_COST_S * ops:
        raise RuntimeError(
            f"traced wall {wall:.6f}s misses the timed {timed_s:.6f}s"
        )
    per_span = totals["per_span"]
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        if layer.span.startswith("hosting."):
            continue
        self_s, calls, size, _ = per_span.get(layer.span, (0.0, 0, 0, 0.0))
        put(layer.time_metric, self_s / ops, "s/op")
        if layer.calls_metric:
            put(layer.calls_metric, calls / ops, "calls/op")
        if layer.bytes_metric:
            put(layer.bytes_metric, size / ops, "B/op")
    for name, span in HOSTING_METRICS.items():
        put(name, hosting["per_span"].get(span, (0.0,))[0], "s")
    put("hosting.unattributed_s", hosting["unattributed_s"], "s")

    reads = max(1, len(replay.read_s))
    put("translate.plan_cache_hit_rate", _hit_rate(counter_delta, "plan"),
        "ratio")
    put("client.tree_cache_hit_rate", _hit_rate(counter_delta, "tree"),
        "ratio")
    put("client.block_cache_hit_rate", _hit_rate(counter_delta, "block"),
        "ratio")
    put("server.blocks_shipped_per_query", replay.blocks / reads, "count")
    put("server.fragments_per_answer",
        replay.fragments / max(1, replay.answers), "ratio")
    put("netsim.modelled_transfer_s", replay.modelled_transfer_s / reads,
        "s/query")
    put("cluster.join_redundancy", join_redundancy, "ratio")
    request = per_span.get("serving.request", (0, 0, 0, 0.0))[3]
    handler = per_span.get("serving.handler", (0, 0, 0, 0.0))[3]
    put("serving.queue_wait_s", max(0.0, request - handler) / ops, "s/op")
    put("serving.backpressure_rejections",
        counter_delta.get("backpressure_rejections", 0), "count")
    put("serving.retries", counter_delta.get("query_retries", 0), "count")
    put("updates.epoch_bumps", epoch_bumps / ops, "count/op")
    put("trace.unattributed_frac", totals["unattributed_s"] / wall, "frac")
    put("trace.detached_frac", totals["detached_s"] / wall, "frac")
    put("trace.overhead_frac", (wall / ops) / baseline_per_op - 1.0, "frac")
    put("trace.missing_entry_points", len(recorder.missing), "count")
    return metrics
