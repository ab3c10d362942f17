"""Shared corpus of (shape graph, data graph) validation cases.

Each hand-written case carries a frozen expected verdict derived by hand
from the constraint semantics.  Randomized cases carry no expectation and
are used purely for agreement checks between the prover pipeline and the
direct evaluator.  Cases flagged `order=True` use sh:lessThan, whose
order relation the logic side leaves uninterpreted; they are excluded
from agreement runs.  Cases flagged `star=True` contain zero-or-more (or
one-or-more) paths, which validation grounds exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

PREFIXES = """\
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
"""


@dataclass(frozen=True)
class Case:
    name: str
    shapes_ttl: str
    data_ttl: str
    conforms: Optional[bool]  # None for agreement-only randomized cases
    star: bool = False
    order: bool = False


def _case(name, shapes, data, conforms, **kw) -> Case:
    return Case(name, PREFIXES + shapes, PREFIXES + data, conforms, **kw)


HAND_WRITTEN = [
    # --- targets ---
    _case(
        "target_node_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 1 ] .",
        'ex:a ex:name "x" .',
        True,
    ),
    _case(
        "target_node_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 1 ] .",
        'ex:a ex:other "x" .',
        False,
    ),
    _case(
        "target_class_conforms",
        "ex:S a sh:NodeShape ; sh:targetClass ex:C ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 1 ] .",
        'ex:a a ex:C ; ex:name "x" .',
        True,
    ),
    _case(
        "target_class_violates",
        "ex:S a sh:NodeShape ; sh:targetClass ex:C ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 1 ] .",
        "ex:a a ex:C .",
        False,
    ),
    _case(
        "target_subjects_of_conforms",
        "ex:S a sh:NodeShape ; sh:targetSubjectsOf ex:p ; sh:nodeKind sh:IRI .",
        "ex:a ex:p ex:b .",
        True,
    ),
    _case(
        "target_subjects_of_violates",
        "ex:S a sh:NodeShape ; sh:targetSubjectsOf ex:p ; sh:nodeKind sh:BlankNode .",
        "ex:a ex:p ex:b .",
        False,
    ),
    _case(
        "target_objects_of_conforms",
        "ex:S a sh:NodeShape ; sh:targetObjectsOf ex:p ; sh:nodeKind sh:Literal .",
        'ex:a ex:p "lit" .',
        True,
    ),
    _case(
        "target_objects_of_violates",
        "ex:S a sh:NodeShape ; sh:targetObjectsOf ex:p ; sh:nodeKind sh:Literal .",
        "ex:a ex:p ex:b .",
        False,
    ),
    # --- cardinalities ---
    _case(
        "min_two_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 2 ] .",
        'ex:a ex:name "x", "y" .',
        True,
    ),
    _case(
        "min_two_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 2 ] .",
        'ex:a ex:name "x" .',
        False,
    ),
    _case(
        "max_one_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:maxCount 1 ] .",
        'ex:a ex:name "x" .',
        True,
    ),
    _case(
        "max_one_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:maxCount 1 ] .",
        'ex:a ex:name "x", "y" .',
        False,
    ),
    _case(
        "max_zero_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:maxCount 0 ] .",
        'ex:a ex:name "x" .',
        False,
    ),
    _case(
        "exactly_one_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 1 ; sh:maxCount 1 ] .",
        'ex:a ex:name "x" .',
        True,
    ),
    _case(
        "qualified_min_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:val ;\n"
        "    sh:qualifiedValueShape [ sh:nodeKind sh:Literal ] ;\n"
        "    sh:qualifiedMinCount 1 ] .",
        'ex:a ex:val "x" ; ex:val ex:b .',
        True,
    ),
    _case(
        "qualified_min_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:val ;\n"
        "    sh:qualifiedValueShape [ sh:nodeKind sh:Literal ] ;\n"
        "    sh:qualifiedMinCount 1 ] .",
        "ex:a ex:val ex:b .",
        False,
    ),
    # --- node kind on values ---
    _case(
        "value_kind_literal_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:nodeKind sh:Literal ] .",
        'ex:a ex:name "x" .',
        True,
    ),
    _case(
        "value_kind_literal_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:nodeKind sh:Literal ] .",
        "ex:a ex:name ex:b .",
        False,
    ),
    _case(
        "value_kind_blank_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:nodeKind sh:BlankNode ] .",
        "ex:a ex:name [] .",
        True,
    ),
    _case(
        "value_kind_combined_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:nodeKind sh:IRIOrLiteral ] .",
        'ex:a ex:name ex:b, "x" .',
        True,
    ),
    # --- value constraints ---
    _case(
        "has_value_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        '  sh:property [ sh:path ex:name ; sh:hasValue "x" ] .',
        'ex:a ex:name "x", "y" .',
        True,
    ),
    _case(
        "has_value_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        '  sh:property [ sh:path ex:name ; sh:hasValue "x" ] .',
        'ex:a ex:name "y" .',
        False,
    ),
    _case(
        "in_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        '  sh:property [ sh:path ex:name ; sh:in ("x" "y") ] .',
        'ex:a ex:name "y" .',
        True,
    ),
    _case(
        "in_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        '  sh:property [ sh:path ex:name ; sh:in ("x" "y") ] .',
        'ex:a ex:name "z" .',
        False,
    ),
    _case(
        "class_constraint_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:friend ; sh:class ex:C ] .",
        "ex:a ex:friend ex:b . ex:b a ex:C .",
        True,
    ),
    _case(
        "class_constraint_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:friend ; sh:class ex:C ] .",
        "ex:a ex:friend ex:b .",
        False,
    ),
    # --- logical combinators ---
    _case(
        "not_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:not [ sh:property [ sh:path ex:name ; sh:minCount 1 ] ] .",
        'ex:a ex:other "x" .',
        True,
    ),
    _case(
        "not_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:not [ sh:property [ sh:path ex:name ; sh:minCount 1 ] ] .",
        'ex:a ex:name "x" .',
        False,
    ),
    _case(
        "and_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:and (\n"
        "  [ sh:property [ sh:path ex:name ; sh:minCount 1 ] ]\n"
        "  [ sh:property [ sh:path ex:age ; sh:minCount 1 ] ] ) .",
        'ex:a ex:name "x" ; ex:age 3 .',
        True,
    ),
    _case(
        "and_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:and (\n"
        "  [ sh:property [ sh:path ex:name ; sh:minCount 1 ] ]\n"
        "  [ sh:property [ sh:path ex:age ; sh:minCount 1 ] ] ) .",
        'ex:a ex:name "x" .',
        False,
    ),
    _case(
        "or_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:or (\n"
        "  [ sh:property [ sh:path ex:name ; sh:minCount 1 ] ]\n"
        "  [ sh:property [ sh:path ex:age ; sh:minCount 1 ] ] ) .",
        "ex:a ex:age 3 .",
        True,
    ),
    _case(
        "or_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:or (\n"
        "  [ sh:property [ sh:path ex:name ; sh:minCount 1 ] ]\n"
        "  [ sh:property [ sh:path ex:age ; sh:minCount 1 ] ] ) .",
        'ex:a ex:other "x" .',
        False,
    ),
    _case(
        "shape_reference_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:node ex:T .\n"
        "ex:T a sh:NodeShape ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 1 ] .",
        'ex:a ex:name "x" .',
        True,
    ),
    # --- property pairs ---
    _case(
        "equals_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:equals ex:alias ] .",
        'ex:a ex:name "x" ; ex:alias "x" .',
        True,
    ),
    _case(
        "equals_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:equals ex:alias ] .",
        'ex:a ex:name "x" ; ex:alias "y" .',
        False,
    ),
    _case(
        "disjoint_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:disjoint ex:alias ] .",
        'ex:a ex:name "x" ; ex:alias "y" .',
        True,
    ),
    _case(
        "disjoint_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:name ; sh:disjoint ex:alias ] .",
        'ex:a ex:name "x" ; ex:alias "x" .',
        False,
    ),
    # --- ordering (oracle-only; the logic side leaves < uninterpreted) ---
    _case(
        "less_than_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:small ; sh:lessThan ex:big ] .",
        "ex:a ex:small 1 ; ex:big 2 .",
        True,
        order=True,
    ),
    _case(
        "less_than_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ex:small ; sh:lessThan ex:big ] .",
        "ex:a ex:small 3 ; ex:big 2 .",
        False,
        order=True,
    ),
    # --- closedness ---
    _case(
        "closed_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:closed true ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 1 ] .",
        'ex:a ex:name "x" ; a ex:C .',
        True,
    ),
    _case(
        "closed_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:closed true ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 1 ] .",
        'ex:a ex:name "x" ; ex:other "y" .',
        False,
    ),
    _case(
        "closed_ignored_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:closed true ;\n"
        "  sh:ignoredProperties ( ex:other ) ;\n"
        "  sh:property [ sh:path ex:name ; sh:minCount 1 ] .",
        'ex:a ex:name "x" ; ex:other "y" .',
        True,
    ),
    # --- property paths ---
    _case(
        "inverse_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:b ;\n"
        "  sh:property [ sh:path [ sh:inversePath ex:p ] ; sh:minCount 1 ] .",
        "ex:a ex:p ex:b .",
        True,
    ),
    _case(
        "inverse_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:b ;\n"
        "  sh:property [ sh:path [ sh:inversePath ex:p ] ; sh:minCount 1 ] .",
        "ex:b ex:p ex:a .",
        False,
    ),
    _case(
        "sequence_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ( ex:p ex:q ) ; sh:minCount 1 ] .",
        "ex:a ex:p ex:b . ex:b ex:q ex:c .",
        True,
    ),
    _case(
        "sequence_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path ( ex:p ex:q ) ; sh:minCount 1 ] .",
        "ex:a ex:p ex:b .",
        False,
    ),
    _case(
        "alternative_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:alternativePath ( ex:p ex:q ) ] ;\n"
        "    sh:minCount 1 ] .",
        "ex:a ex:q ex:c .",
        True,
    ),
    _case(
        "alternative_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:alternativePath ( ex:p ex:q ) ] ;\n"
        "    sh:minCount 1 ] .",
        "ex:a ex:r ex:c .",
        False,
    ),
    _case(
        "zero_or_one_min_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:zeroOrOnePath ex:p ] ; sh:minCount 1 ] .",
        "ex:b ex:q ex:c .",
        True,  # the focus node itself is always a zero-step value
    ),
    _case(
        "zero_or_one_max_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:zeroOrOnePath ex:p ] ; sh:maxCount 1 ] .",
        "ex:a ex:p ex:b .",
        False,  # values are {a, b}
    ),
    _case(
        "star_has_value_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:zeroOrMorePath ex:p ] ; sh:hasValue ex:c ] .",
        "ex:a ex:p ex:b . ex:b ex:p ex:c .",
        True,
        star=True,
    ),
    _case(
        "star_has_value_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:zeroOrMorePath ex:p ] ; sh:hasValue ex:c ] .",
        "ex:a ex:p ex:b . ex:c ex:p ex:b .",
        False,
        star=True,
    ),
    _case(
        "star_reflexive_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:zeroOrMorePath ex:p ] ; sh:hasValue ex:a ] .",
        "ex:b ex:p ex:c .",
        True,  # zero steps reach the focus node itself
        star=True,
    ),
    _case(
        "one_or_more_conforms",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:oneOrMorePath ex:p ] ; sh:minCount 1 ] .",
        "ex:a ex:p ex:b .",
        True,
        star=True,
    ),
    _case(
        "one_or_more_violates",
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:oneOrMorePath ex:p ] ; sh:minCount 1 ] .",
        "ex:b ex:p ex:a .",
        False,
        star=True,
    ),
]


# The pools the randomized cases draw from: a few fixed shapes, and graphs
# over three nodes, two predicates, rdf:type and one class.
SHAPE_POOL = [
    ("rand_min1",
     "ex:S a sh:NodeShape ; sh:targetSubjectsOf ex:p ;\n"
     "  sh:property [ sh:path ex:q ; sh:minCount 1 ] ."),
    ("rand_max1",
     "ex:S a sh:NodeShape ; sh:targetSubjectsOf ex:p ;\n"
     "  sh:property [ sh:path ex:p ; sh:maxCount 1 ] ."),
    ("rand_kind",
     "ex:S a sh:NodeShape ; sh:targetObjectsOf ex:q ; sh:nodeKind sh:IRI ."),
    ("rand_class",
     "ex:S a sh:NodeShape ; sh:targetClass ex:C ;\n"
     "  sh:property [ sh:path ex:p ; sh:minCount 1 ] ."),
    ("rand_disjoint",
     "ex:S a sh:NodeShape ; sh:targetSubjectsOf ex:p ;\n"
     "  sh:property [ sh:path ex:p ; sh:disjoint ex:q ] ."),
]
NODES = ["ex:n0", "ex:n1", "ex:n2"]
PREDICATES = ["ex:p", "ex:q"]


def _random_cases(count: int = 10, seed: int = 20240817) -> list[Case]:
    """Agreement-only cases: random tiny graphs against a few fixed shapes."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        label, shape = SHAPE_POOL[i % len(SHAPE_POOL)]
        triples = []
        for _ in range(rng.randint(1, 5)):
            s = rng.choice(NODES)
            p = rng.choice(PREDICATES + ["a"])
            o = "ex:C" if p == "a" else rng.choice(NODES)
            triples.append(f"{s} {p} {o} .")
        out.append(_case(f"{label}_{i}", shape, "\n".join(sorted(set(triples))), None))
    return out


CASES: list[Case] = HAND_WRITTEN + _random_cases()
