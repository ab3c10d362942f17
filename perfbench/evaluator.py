"""A small SHACL evaluator for the shape patterns the benchmark generates.

It shares no code with the package under test: it reads neither Turtle
nor the constraint AST, and works on a `Pattern` and a list of triples.
A pattern is one node shape `ex:S` with one target and a conjunction of
constraints:

* `("min", path, n)` / `("max", path, n)`: at least / at most n distinct
  values along the predicate `path`;
* `("kind", kind)`: the focus node is an `IRI`, a `Literal` or a
  `BlankNode`;
* `("valuekind", path, kind)`: every value along `path` has that kind;
* `("disjoint", path, other)`: no value along `path` is also a value
  along `other`.

Terms are strings: `ex:local` for IRIs, `_:label` for blank nodes and
`"lexical"` for plain literals.  The predicate `a` is rdf:type.
"""

from __future__ import annotations

from dataclasses import dataclass

PREFIXES = """\
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
"""

_TARGET_PREDICATE = {
    "node": "sh:targetNode",
    "class": "sh:targetClass",
    "subjectsOf": "sh:targetSubjectsOf",
    "objectsOf": "sh:targetObjectsOf",
}


@dataclass(frozen=True)
class Pattern:
    target: tuple[str, str]  # (kind, term), e.g. ("class", "ex:C")
    constraints: tuple[tuple, ...]

    def shapes_ttl(self) -> str:
        kind, term = self.target
        parts = [f"ex:S a sh:NodeShape ; {_TARGET_PREDICATE[kind]} {term}"]
        for c in self.constraints:
            if c[0] == "min":
                parts.append(f"sh:property [ sh:path {c[1]} ; sh:minCount {c[2]} ]")
            elif c[0] == "max":
                parts.append(f"sh:property [ sh:path {c[1]} ; sh:maxCount {c[2]} ]")
            elif c[0] == "kind":
                parts.append(f"sh:nodeKind sh:{c[1]}")
            elif c[0] == "valuekind":
                parts.append(f"sh:property [ sh:path {c[1]} ; sh:nodeKind sh:{c[2]} ]")
            elif c[0] == "disjoint":
                parts.append(f"sh:property [ sh:path {c[1]} ; sh:disjoint {c[2]} ]")
            else:
                raise ValueError(f"unknown constraint {c!r}")
        return PREFIXES + " ;\n  ".join(parts) + " .\n"


def data_ttl(triples) -> str:
    return PREFIXES + "".join(f"{s} {p} {o} .\n" for s, p, o in triples)


def term_kind(term: str) -> str:
    if term.startswith('"'):
        return "Literal"
    if term.startswith("_:"):
        return "BlankNode"
    return "IRI"


def _values(triples, node: str, path: str) -> set[str]:
    return {o for s, p, o in triples if s == node and p == path}


def focus_nodes(pattern: Pattern, triples) -> set[str]:
    kind, term = pattern.target
    if kind == "node":
        return {term}
    if kind == "class":
        return {s for s, p, o in triples if p == "a" and o == term}
    if kind == "subjectsOf":
        return {s for s, p, o in triples if p == term}
    return {o for s, p, o in triples if p == term}


def holds(pattern: Pattern, triples, node: str) -> bool:
    for c in pattern.constraints:
        if c[0] == "min" and len(_values(triples, node, c[1])) < c[2]:
            return False
        if c[0] == "max" and len(_values(triples, node, c[1])) > c[2]:
            return False
        if c[0] == "kind" and term_kind(node) != c[1]:
            return False
        if c[0] == "valuekind" and any(
            term_kind(v) != c[2] for v in _values(triples, node, c[1])
        ):
            return False
        if c[0] == "disjoint" and (
            _values(triples, node, c[1]) & _values(triples, node, c[2])
        ):
            return False
    return True


def conforms(pattern: Pattern, triples) -> bool:
    """True iff every focus node of the target satisfies every constraint."""
    return all(holds(pattern, triples, n) for n in focus_nodes(pattern, triples))
