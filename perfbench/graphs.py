"""Seeded data graphs for the graph-scale workload.

Every graph is a set of people: each person is typed `ex:Person`, has one
literal `ex:name` and knows other people.  The `knows` edges are built
from permutations of the people, so every person is known by exactly
`KNOWN_BY` others unless a violation is planted.  Violations are planted
at chosen focus nodes; the expected validation report is the set of
(shape, focus node) pairs planted, and nothing else can violate.

Terms are kept as strings: `ex:local` for IRIs and `"lexical"` for plain
literals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from evaluator import PREFIXES, data_ttl

EX = "http://example.org/"

KNOWN_BY = 2

PERSON_SHAPE = """\
ex:PersonShape a sh:NodeShape ; sh:targetClass ex:Person ;
  sh:property [ sh:path ex:name ; sh:minCount 1 ; sh:maxCount 1 ;
                sh:nodeKind sh:Literal ] ;
  sh:property [ sh:path ex:knows ; sh:nodeKind sh:IRI ] .
"""

# only the smaller graphs get this shape: the oracle walks every constant
# for each inverse step, which is too slow on the larger ones
KNOWN_SHAPE = f"""\
ex:KnownShape a sh:NodeShape ; sh:targetClass ex:Person ;
  sh:property [ sh:path [ sh:inversePath ex:knows ] ;
                sh:maxCount {KNOWN_BY} ] .
"""

# violations a focus node can carry, with the shape each one breaks
PERSON_FAULTS = ("no_name", "two_names", "iri_name", "literal_friend")
KNOWN_FAULT = "known_by_many"


@dataclass(frozen=True)
class ScaleGraph:
    people: int
    with_inverse: bool
    triples: tuple[tuple[str, str, str], ...]
    planted: frozenset[tuple[str, str]]  # (shape IRI, focus IRI)

    def shapes_ttl(self) -> str:
        return PREFIXES + PERSON_SHAPE + (KNOWN_SHAPE if self.with_inverse else "")

    def data_ttl(self) -> str:
        return data_ttl(self.triples)


def _person(i: int) -> str:
    return f"ex:p{i}"


def make_graph(people: int, violating: bool, with_inverse: bool,
               rng: random.Random) -> ScaleGraph:
    """A graph of `people` persons, 3 + KNOWN_BY triples per person."""
    triples: set[tuple[str, str, str]] = set()
    for i in range(people):
        triples.add((_person(i), "a", "ex:Person"))
        triples.add((_person(i), "ex:name", f'"n{i}"'))
    for _ in range(KNOWN_BY):
        order = list(range(people))
        while True:
            rng.shuffle(order)
            edges = {(i, order[i]) for i in range(people)}
            if all(a != b for a, b in edges) and not any(
                (_person(a), "ex:knows", _person(b)) in triples for a, b in edges
            ):
                break
        for a, b in edges:
            triples.add((_person(a), "ex:knows", _person(b)))
    planted: set[tuple[str, str]] = set()
    if violating:
        faults = list(PERSON_FAULTS) + ([KNOWN_FAULT] if with_inverse else [])
        count = max(len(faults), people // 25)
        focus = rng.sample(range(people), count)
        for k, i in enumerate(focus):
            fault = faults[k % len(faults)]
            p = _person(i)
            if fault == "no_name":
                triples.discard((p, "ex:name", f'"n{i}"'))
            elif fault == "two_names":
                triples.add((p, "ex:name", f'"m{i}"'))
            elif fault == "iri_name":
                triples.discard((p, "ex:name", f'"n{i}"'))
                triples.add((p, "ex:name", f"ex:n{i}"))
            elif fault == "literal_friend":
                triples.add((p, "ex:knows", f'"f{i}"'))
            else:
                # a newcomer, outside ex:Person, knows the focus node once more
                triples.add((f"ex:x{i}", "ex:knows", p))
            shape = "KnownShape" if fault == KNOWN_FAULT else "PersonShape"
            planted.add((EX + shape, EX + p[len("ex:"):]))
    return ScaleGraph(people, with_inverse, tuple(sorted(triples)),
                      frozenset(planted))


def expected_graph_atoms(g: ScaleGraph) -> set[tuple[str, str, str]]:
    """One positive ground atom per triple: (role, subject, object) symbols.

    The role is the predicate IRI, or `isA` for rdf:type.  An IRI's symbol
    is the IRI itself and a plain literal's symbol is its N-Triples form,
    `"lexical"`.
    """
    def symbol(term: str) -> str:
        if term.startswith('"'):
            return term
        assert term.startswith("ex:")
        return EX + term[len("ex:"):]

    out = set()
    for s, p, o in g.triples:
        role = "isA" if p == "a" else symbol(p)
        out.add((role, symbol(s), symbol(o)))
    return out
