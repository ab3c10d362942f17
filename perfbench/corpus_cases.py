"""Validation cases for the corpus-validate workload.

The benchmark keeps its own copy of the hand-written validation corpus of
the test suite, each case with the verdict derived by hand from the
SHACL semantics.  Cases whose shape fits one of the evaluator's patterns
are written as a `Pattern` and triples, so the benchmark's own tests can
check the evaluator against the hand-derived verdict; the rest are
Turtle text.  The two `sh:lessThan` cases are left out: the logic side
leaves the order relation uninterpreted, so the prover cannot decide
them.

Seeded random cases complete the corpus.  They use a few fixed patterns
over tiny random graphs; their expected verdicts come from the
evaluator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from evaluator import PREFIXES, Pattern, conforms, data_ttl


@dataclass(frozen=True)
class Case:
    name: str
    shapes_ttl: str
    data_ttl: str
    conforms: bool
    star_ground: bool = False
    pattern: Optional[Pattern] = None
    triples: tuple = ()


def _patterned(name, target, constraints, triples, verdict) -> Case:
    pattern = Pattern(target, tuple(constraints))
    return Case(name, pattern.shapes_ttl(), data_ttl(triples), verdict,
                pattern=pattern, triples=tuple(triples))


def _text(name, shapes, data, verdict, star_ground=False) -> Case:
    return Case(name, PREFIXES + shapes, PREFIXES + data, verdict,
                star_ground=star_ground)


NAME1 = [("min", "ex:name", 1)]

HAND_WRITTEN = [
    # --- targets ---
    _patterned("target_node_conforms", ("node", "ex:a"), NAME1,
               [("ex:a", "ex:name", '"x"')], True),
    _patterned("target_node_violates", ("node", "ex:a"), NAME1,
               [("ex:a", "ex:other", '"x"')], False),
    _patterned("target_class_conforms", ("class", "ex:C"), NAME1,
               [("ex:a", "a", "ex:C"), ("ex:a", "ex:name", '"x"')], True),
    _patterned("target_class_violates", ("class", "ex:C"), NAME1,
               [("ex:a", "a", "ex:C")], False),
    _patterned("target_subjects_of_conforms", ("subjectsOf", "ex:p"),
               [("kind", "IRI")], [("ex:a", "ex:p", "ex:b")], True),
    _patterned("target_subjects_of_violates", ("subjectsOf", "ex:p"),
               [("kind", "BlankNode")], [("ex:a", "ex:p", "ex:b")], False),
    _patterned("target_objects_of_conforms", ("objectsOf", "ex:p"),
               [("kind", "Literal")], [("ex:a", "ex:p", '"lit"')], True),
    _patterned("target_objects_of_violates", ("objectsOf", "ex:p"),
               [("kind", "Literal")], [("ex:a", "ex:p", "ex:b")], False),
    # --- cardinalities ---
    _patterned("min_two_conforms", ("node", "ex:a"), [("min", "ex:name", 2)],
               [("ex:a", "ex:name", '"x"'), ("ex:a", "ex:name", '"y"')], True),
    _patterned("min_two_violates", ("node", "ex:a"), [("min", "ex:name", 2)],
               [("ex:a", "ex:name", '"x"')], False),
    _patterned("max_one_conforms", ("node", "ex:a"), [("max", "ex:name", 1)],
               [("ex:a", "ex:name", '"x"')], True),
    _patterned("max_one_violates", ("node", "ex:a"), [("max", "ex:name", 1)],
               [("ex:a", "ex:name", '"x"'), ("ex:a", "ex:name", '"y"')], False),
    _patterned("max_zero_violates", ("node", "ex:a"), [("max", "ex:name", 0)],
               [("ex:a", "ex:name", '"x"')], False),
    _patterned("exactly_one_conforms", ("node", "ex:a"),
               [("min", "ex:name", 1), ("max", "ex:name", 1)],
               [("ex:a", "ex:name", '"x"')], True),
    _text(
        "qualified_min_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:val ;\n"
        "    sh:qualifiedValueShape [ sh:nodeKind sh:Literal ] ;\n"
        "    sh:qualifiedMinCount 1 ] .",
        'ex:a ex:val "x" ; ex:val ex:b .',
        True,
    ),
    _text(
        "qualified_min_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:val ;\n"
        "    sh:qualifiedValueShape [ sh:nodeKind sh:Literal ] ;\n"
        "    sh:qualifiedMinCount 1 ] .",
        "ex:a ex:val ex:b .",
        False,
    ),
    # --- node kind on values ---
    _patterned("value_kind_literal_conforms", ("node", "ex:a"),
               [("valuekind", "ex:name", "Literal")],
               [("ex:a", "ex:name", '"x"')], True),
    _patterned("value_kind_literal_violates", ("node", "ex:a"),
               [("valuekind", "ex:name", "Literal")],
               [("ex:a", "ex:name", "ex:b")], False),
    _patterned("value_kind_blank_conforms", ("node", "ex:a"),
               [("valuekind", "ex:name", "BlankNode")],
               [("ex:a", "ex:name", "_:b0")], True),
    _text(
        "value_kind_combined_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:nodeKind sh:IRIOrLiteral ] .",
        'ex:a ex:name ex:b, "x" .',
        True,
    ),
    # --- value constraints ---
    _text(
        "has_value_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        '  sh:property [ sh:path ex:name ; sh:hasValue "x" ] .',
        'ex:a ex:name "x", "y" .',
        True,
    ),
    _text(
        "has_value_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        '  sh:property [ sh:path ex:name ; sh:hasValue "x" ] .',
        'ex:a ex:name "y" .',
        False,
    ),
    _text(
        "in_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        '  sh:property [ sh:path ex:name ; sh:in ("x" "y") ] .',
        'ex:a ex:name "y" .',
        True,
    ),
    _text(
        "in_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        '  sh:property [ sh:path ex:name ; sh:in ("x" "y") ] .',
        'ex:a ex:name "z" .',
        False,
    ),
    _text(
        "class_constraint_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:friend ; sh:class ex:C ] .",
        "ex:a ex:friend ex:b . ex:b a ex:C .",
        True,
    ),
    _text(
        "class_constraint_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:friend ; sh:class ex:C ] .",
        "ex:a ex:friend ex:b .",
        False,
    ),
    # --- logical combinators ---
    _text(
        "not_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:not [ sh:property [ sh:path ex:name ; sh:minCount 1 ] ] .",
        'ex:a ex:other "x" .',
        True,
    ),
    _text(
        "not_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:not [ sh:property [ sh:path ex:name ; sh:minCount 1 ] ] .",
        'ex:a ex:name "x" .',
        False,
    ),
    _text(
        "and_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:and (\n"
        "  [ sh:property [ sh:path ex:name ; sh:minCount 1 ] ]\n"
        "  [ sh:property [ sh:path ex:age ; sh:minCount 1 ] ] ) .",
        'ex:a ex:name "x" ; ex:age 3 .',
        True,
    ),
    _text(
        "and_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:and (\n"
        "  [ sh:property [ sh:path ex:name ; sh:minCount 1 ] ]\n"
        "  [ sh:property [ sh:path ex:age ; sh:minCount 1 ] ] ) .",
        'ex:a ex:name "x" .',
        False,
    ),
    _text(
        "or_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:or (\n"
        "  [ sh:property [ sh:path ex:name ; sh:minCount 1 ] ]\n"
        "  [ sh:property [ sh:path ex:age ; sh:minCount 1 ] ] ) .",
        "ex:a ex:age 3 .",
        True,
    ),
    _text(
        "or_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:or (\n"
        "  [ sh:property [ sh:path ex:name ; sh:minCount 1 ] ]\n"
        "  [ sh:property [ sh:path ex:age ; sh:minCount 1 ] ] ) .",
        'ex:a ex:other "x" .',
        False,
    ),
    _text(
        "shape_reference_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:node ex:T .\n"
        "ex:T a sh:NodeShape ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 1 ] .",
        'ex:a ex:name "x" .',
        True,
    ),
    # --- property pairs ---
    _text(
        "equals_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:equals ex:alias ] .",
        'ex:a ex:name "x" ; ex:alias "x" .',
        True,
    ),
    _text(
        "equals_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:equals ex:alias ] .",
        'ex:a ex:name "x" ; ex:alias "y" .',
        False,
    ),
    _patterned("disjoint_conforms", ("node", "ex:a"),
               [("disjoint", "ex:name", "ex:alias")],
               [("ex:a", "ex:name", '"x"'), ("ex:a", "ex:alias", '"y"')], True),
    _patterned("disjoint_violates", ("node", "ex:a"),
               [("disjoint", "ex:name", "ex:alias")],
               [("ex:a", "ex:name", '"x"'), ("ex:a", "ex:alias", '"x"')], False),
    # --- closedness ---
    _text(
        "closed_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:closed true ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 1 ] .",
        'ex:a ex:name "x" ; a ex:C .',
        True,
    ),
    _text(
        "closed_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:closed true ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 1 ] .",
        'ex:a ex:name "x" ; ex:other "y" .',
        False,
    ),
    _text(
        "closed_ignored_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:closed true ;\n"
        "  sh:ignoredProperties ( ex:other ) ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 1 ] .",
        'ex:a ex:name "x" ; ex:other "y" .',
        True,
    ),
    # --- property paths ---
    _text(
        "inverse_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:b ;\n"
        "  sh:property [ sh:path [ sh:inversePath ex:p ] ; sh:minCount 1 ] .",
        "ex:a ex:p ex:b .",
        True,
    ),
    _text(
        "inverse_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:b ;\n"
        "  sh:property [ sh:path [ sh:inversePath ex:p ] ; sh:minCount 1 ] .",
        "ex:b ex:p ex:a .",
        False,
    ),
    _text(
        "sequence_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ( ex:p ex:q ) ; sh:minCount 1 ] .",
        "ex:a ex:p ex:b . ex:b ex:q ex:c .",
        True,
    ),
    _text(
        "sequence_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ( ex:p ex:q ) ; sh:minCount 1 ] .",
        "ex:a ex:p ex:b .",
        False,
    ),
    _text(
        "alternative_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:alternativePath ( ex:p ex:q ) ] ;\n"
        "    sh:minCount 1 ] .",
        "ex:a ex:q ex:c .",
        True,
    ),
    _text(
        "alternative_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:alternativePath ( ex:p ex:q ) ] ;\n"
        "    sh:minCount 1 ] .",
        "ex:a ex:r ex:c .",
        False,
    ),
    _text(
        "zero_or_one_min_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:zeroOrOnePath ex:p ] ; sh:minCount 1 ] .",
        "ex:b ex:q ex:c .",
        True,  # the focus node itself is always a zero-step value
    ),
    _text(
        "zero_or_one_max_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:zeroOrOnePath ex:p ] ; sh:maxCount 1 ] .",
        "ex:a ex:p ex:b .",
        False,  # values are {a, b}
    ),
    _text(
        "star_has_value_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:zeroOrMorePath ex:p ] ; sh:hasValue ex:c ] .",
        "ex:a ex:p ex:b . ex:b ex:p ex:c .",
        True,
        star_ground=True,
    ),
    _text(
        "star_has_value_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:zeroOrMorePath ex:p ] ; sh:hasValue ex:c ] .",
        "ex:a ex:p ex:b . ex:c ex:p ex:b .",
        False,
        star_ground=True,
    ),
    _text(
        "star_reflexive_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:zeroOrMorePath ex:p ] ; sh:hasValue ex:a ] .",
        "ex:b ex:p ex:c .",
        True,  # zero steps reach the focus node itself
        star_ground=True,
    ),
    _text(
        "one_or_more_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:oneOrMorePath ex:p ] ; sh:minCount 1 ] .",
        "ex:a ex:p ex:b .",
        True,
        star_ground=True,
    ),
    _text(
        "one_or_more_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:oneOrMorePath ex:p ] ; sh:minCount 1 ] .",
        "ex:b ex:p ex:a .",
        False,
        star_ground=True,
    ),
]

RANDOM_PATTERNS = [
    ("rand_min1", Pattern(("subjectsOf", "ex:p"), (("min", "ex:q", 1),))),
    ("rand_max1", Pattern(("subjectsOf", "ex:p"), (("max", "ex:p", 1),))),
    ("rand_kind", Pattern(("objectsOf", "ex:q"), (("kind", "IRI"),))),
    ("rand_class", Pattern(("class", "ex:C"), (("min", "ex:p", 1),))),
    ("rand_disjoint", Pattern(("subjectsOf", "ex:p"), (("disjoint", "ex:p", "ex:q"),))),
]
_NODES = ("ex:n0", "ex:n1", "ex:n2")
_TERMS = _NODES + ('"v"',)
# Refuting a random minCount violation takes 0.1-1.5 s depending on the
# graph's shape, which would move op_s.p90 from seed to seed, so these two
# patterns draw two conforming graphs; the hand-written cases keep their
# minCount violations.
_VERDICTS = {"rand_min1": (True, True), "rand_class": (True, True)}


def _random_graph(rng: random.Random) -> list[tuple[str, str, str]]:
    """Three distinct triples that mention all three nodes and the literal."""
    while True:
        triples = set()
        while len(triples) < 3:
            p = rng.choice(["ex:p", "ex:q", "a"])
            o = "ex:C" if p == "a" else rng.choice(_TERMS)
            triples.add((rng.choice(_NODES), p, o))
        if {t for s, _, o in triples for t in (s, o)} >= set(_TERMS):
            return sorted(triples)


def random_cases(seed: int, part: int = 0) -> list[Case]:
    """Two random graphs per pattern, one conforming and one violating
    where `_VERDICTS` does not say otherwise; `part` draws another set for
    the same seed."""
    rng = random.Random(f"corpus-validate/{seed}/{part}")
    out = []
    for label, pattern in RANDOM_PATTERNS:
        for k, verdict in enumerate(_VERDICTS.get(label, (True, False))):
            triples = _random_graph(rng)
            while conforms(pattern, triples) != verdict:
                triples = _random_graph(rng)
            name = f"{label}_{k}_{'conforms' if verdict else 'violates'}"
            out.append(Case(name, pattern.shapes_ttl(), data_ttl(triples), verdict,
                            pattern=pattern, triples=tuple(triples)))
    return out


def corpus(seed: int, part: int = 0) -> list[Case]:
    return HAND_WRITTEN + random_cases(seed, part)
