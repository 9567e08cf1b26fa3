"""The three workloads: inputs generated from the seed, and their op streams.

Every input is a pure function of ``(workload, seed)``.  The seed drives the
XMark document's values, the §7.1 predicate constants drawn from it, the
write targets and values, and the order operations are issued in.  Query
*shapes* come from the library's generators run at the fixed
:data:`GEN_SEED`, so every seed issues the same mix of query classes: the
latency distribution of a mixed workload is multi-modal, and a mix that
changed with the seed would move the median between modes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.client import canonical_node
from repro.workloads.axes import AxisWorkload
from repro.workloads.queries import QueryWorkload
from repro.workloads.xmark import build_xmark_database
from repro.xmldb.node import Document, Element, Text
from repro.xpath.evaluator import evaluate

#: Seed of the query-shape generators (the library's own default).
GEN_SEED = 7

#: The optimal cover of the XMark constraint graph (Figure 8(a)): the
#: fields the ``opt`` scheme encrypts.  A cold-mix query qualifies when its
#: plaintext answer holds one of them, i.e. when it must be decrypted.
ENCRYPTED_FIELDS = frozenset({"name", "creditcard"})

#: Shapes every warm pool starts with, as Zipf ranks 1..4.  Rank 1 is
#: the large answer ``/site/people/person``; with the skew below it draws
#: 62% of reads, so the median sits inside its band, whatever the rest of
#: the mix costs.  Rank 4 is an axis query whose client-side re-evaluation
#: is the costliest of the set, so its 4% of reads hold the p99.
LARGE_SHAPES = (
    "/site/people/person",
    "//person/name",
    "//creditcard",
    "//creditcard/preceding::address",
)

#: Zipf skew (exponent 2): rank r appears ``round(ZIPF_TOP / r**2)`` times
#: per pass, so even rank 25 appears once.
ZIPF_TOP = 625

#: Write kinds in rotation.  ``name`` (the costliest: it re-plans the
#: field's OPESS) comes twice, so the median write sits inside the insert
#: band and the tail inside the name band.  Each delete removes the node
#: inserted two writes before it.
WRITE_CYCLE = ("name", "age", "insert", "name", "delete")

_FIRST = ("Ada", "Boris", "Chloe", "Dmitri", "Esme", "Farid", "Greta", "Hugo")
_LAST = ("Abe", "Brandt", "Costa", "Dahl", "Eze", "Ford", "Gill", "Holm")


@dataclass(frozen=True)
class Spec:
    """One workload's fixed shape; only the seed varies between runs."""

    name: str
    persons: int
    #: flush every cache before each read (the paper's independent runs)
    cold: bool
    #: issue one write after every ``write_every - 1`` reads (0: none)
    write_every: int = 0
    #: serve a 2-shard cluster tenant through the socket front door
    served: bool = False
    #: declared tail percentiles: the highest that a 30-second run leaves
    #: at least ten read (write) samples beyond, with room to spare on a
    #: machine running at half speed
    query_tail: int = 99
    write_tail: int = 90


#: Why each workload exists, and what it stresses, is in README.md.
SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "cold-mix",
            persons=100,
            cold=True,
            query_tail=75,
        ),
        Spec(
            "read-write",
            persons=40,
            cold=False,
            write_every=20,
        ),
        Spec(
            "served",
            persons=40,
            cold=False,
            write_every=20,
            served=True,
        ),
    )
}


def build_document(spec: Spec, seed: int) -> Document:
    return build_xmark_database(spec.persons, seed=seed)


def _touches_encrypted(document: Document, xpath: str) -> bool:
    for node in evaluate(document, xpath):
        if isinstance(node, Element) and any(
            isinstance(inner, Element) and inner.tag in ENCRYPTED_FIELDS
            for inner in node.iter()
        ):
            return True
    return False


def read_pool(spec: Spec, document: Document) -> list[str]:
    """The workload's queries; duplicates are kept as the generators emit."""
    classes = QueryWorkload(
        document, seed=GEN_SEED, per_class=10 if spec.cold else 4
    ).by_class()
    generated = [query for batch in classes.values() for query in batch]
    axes = AxisWorkload(
        document, seed=GEN_SEED, per_axis=3 if spec.cold else 1
    ).queries()
    if spec.cold:
        return [
            query
            for query in generated + axes
            if _touches_encrypted(document, query)
        ]
    return list(dict.fromkeys(LARGE_SHAPES + tuple(generated) + tuple(axes)))


def read_schedule(spec: Spec, pool: list[str]) -> list[str]:
    """One pass of reads: the pool, or its Zipf expansion by rank."""
    if spec.cold:
        return list(pool)
    return [
        query
        for rank, query in enumerate(pool, start=1)
        for _ in range(max(1, round(ZIPF_TOP / rank**2)))
    ]


def _person(rng: random.Random, persons: int) -> str:
    return f"//person[@id='person{rng.randrange(persons)}']"


class OpStream:
    """Operation ``i`` of one client's stream, a pure function of ``i``.

    Reads cycle through passes of the schedule, each pass shuffled by the
    seed, so every completed pass issues the exact Zipf proportions.  Writes
    follow :data:`WRITE_CYCLE` on uniformly drawn persons: updates of
    ``name`` (an encrypted field) and ``age`` (plaintext), an insert under
    ``profile`` and the delete of that inserted node.  ``salt`` keeps
    inserted values unique when a stream is replayed on a system that
    already ran it.
    """

    def __init__(
        self,
        spec: Spec,
        seed: int,
        schedule: list[str],
        salt: str = "a",
    ) -> None:
        self._spec = spec
        self._seed = seed
        self._schedule = schedule
        self.salt = salt
        self._pass = -1
        self._order: list[str] = []

    def _is_write(self, index: int) -> bool:
        every = self._spec.write_every
        return bool(every) and index % every == every - 1

    def _reads_before(self, index: int) -> int:
        every = self._spec.write_every
        return index - (index // every if every else 0)

    def starts_pass(self, index: int) -> bool:
        """Whether operation ``index`` is the first read of a pass."""
        return (not self._is_write(index)
                and self._reads_before(index) % len(self._schedule) == 0)

    def op(self, index: int) -> tuple:
        if self._is_write(index):
            return self.write(index // self._spec.write_every)
        number, position = divmod(
            self._reads_before(index), len(self._schedule)
        )
        if number != self._pass:
            self._order = list(self._schedule)
            random.Random(
                f"{self._seed}:pass{number}"
            ).shuffle(self._order)
            self._pass = number
        return ("query", self._order[position])

    def _rng(self, number: int) -> random.Random:
        return random.Random(f"{self._seed}:write{number}")

    def write(self, number: int) -> tuple:
        persons = self._spec.persons
        rng = self._rng(number)
        kind = WRITE_CYCLE[number % len(WRITE_CYCLE)]
        if kind == "name":
            name = f"{rng.choice(_FIRST)} {rng.choice(_LAST)}"
            return ("update_value", f"{_person(rng, persons)}/name", name)
        if kind == "age":
            age = str(18 + rng.randrange(61))
            return ("update_value", f"{_person(rng, persons)}/profile/age", age)
        if kind == "insert":
            return (
                "insert_element",
                f"{_person(rng, persons)}/profile",
                "watch",
                f"w{self.salt}-{number}",
            )
        inserted = number - 2  # the insert two writes back
        parent = _person(self._rng(inserted), persons)
        return (
            "delete_element",
            f"{parent}/profile/watch[.='w{self.salt}-{inserted}']",
        )


class Mirror:
    """The plaintext document every answer is checked against.

    Writes are applied here after the timed call returns; expected answers
    are memoized per query string until the next write.
    """

    def __init__(self, document: Document) -> None:
        self.document = document
        self._expected: dict[str, list[str]] = {}

    def expected(self, xpath: str) -> list[str]:
        answer = self._expected.get(xpath)
        if answer is None:
            answer = sorted(
                canonical_node(node) for node in evaluate(self.document, xpath)
            )
            self._expected[xpath] = answer
        return answer

    def _unique(self, xpath: str):
        nodes = evaluate(self.document, xpath)
        if len(nodes) != 1:
            raise ValueError(f"write target {xpath!r} matched {len(nodes)}")
        return nodes[0]

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "update_value":
            self._unique(op[1]).children[0].value = op[2]
        elif kind == "insert_element":
            element = Element(op[2])
            element.append(Text(op[3]))
            self._unique(op[1]).append(element)
            self.document.renumber()
        elif kind == "delete_element":
            self._unique(op[1]).detach()
            self.document.renumber()
        else:
            raise ValueError(f"unknown write kind {kind!r}")
        self._expected.clear()
