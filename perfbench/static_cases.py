"""Satisfiability and containment problems for the static-analysis workload.

Every expected answer follows from the SHACL semantics (Pareti et al.,
*SHACL Satisfiability and Containment*, ISWC 2020) by construction:

* a shape graph is contained in itself; dropping a target or a
  constraint weakens it; `minCount n` implies `minCount m` for m <= n;
* a targeted shape that is contradictory is unsatisfiable, and so is an
  untargeted one under strong satisfiability;
* a shape graph without targets is satisfiable (the empty graph conforms),
  and the empty shape graph is not contained in one whose target can be
  instantiated;
* the problems of the test suite's acceptance criteria 5 and 6 keep
  their known answers.

Four problems fail every time because of known faults of the program and
are counted as failed operations (see the README, F1-F4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from evaluator import PREFIXES


@dataclass(frozen=True)
class Problem:
    name: str
    command: str  # sat | contains
    shapes: tuple[str, ...]  # one Turtle text per input file
    expected: str  # the verdict the SHACL semantics gives
    strong_sat: bool = False
    fault: Optional[str] = None  # F1..F4 when the program gets it wrong
    all_hash_seeds: bool = True  # False: run under one hash seed per round


# --- the acceptance problems, verbatim --------------------------------------

TWO_TARGETS = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:targetClass ex:C ;
  sh:property [ sh:path ex:p ; sh:minCount 1 ] .
ex:T a sh:NodeShape ; sh:targetSubjectsOf ex:q ; sh:nodeKind sh:IRI .
"""

ONE_TARGET = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetNode ex:a ;
  sh:property [ sh:path ex:p ; sh:minCount 1 ] .
ex:T a sh:NodeShape ; sh:targetSubjectsOf ex:q ; sh:nodeKind sh:IRI .
"""

EMPTY = PREFIXES

CONTRADICTION = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:nodeKind sh:IRI .
ex:T a sh:NodeShape ; sh:targetNode ex:a ; sh:nodeKind sh:Literal .
"""

UNTARGETED_CONTRADICTION = PREFIXES + """
ex:S a sh:NodeShape ;
  sh:and ( [ sh:nodeKind sh:IRI ] [ sh:nodeKind sh:Literal ] ) .
"""

# --- the known faults, verbatim ---------------------------------------------

F1_A = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetObjectsOf ex:p ;
  sh:property [ sh:path ex:q ; sh:minCount 1 ] .
"""
F1_B = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetObjectsOf ex:p ; sh:nodeKind sh:BlankNodeOrIRI .
"""
F2_A = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetObjectsOf ex:p ;
  sh:not [ sh:nodeKind sh:IRI ] ; sh:not [ sh:nodeKind sh:Literal ] .
"""
F2_B = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetObjectsOf ex:p ; sh:nodeKind sh:BlankNode .
"""
F3_A = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetSubjectsOf ex:q ;
  sh:property [ sh:path ex:p ; sh:maxCount 1 ] .
"""
F3_B = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetSubjectsOf ex:q ;
  sh:property [ sh:path ex:p ; sh:maxCount 2 ] .
"""
F4 = PREFIXES + """
ex:A a sh:NodeShape ; sh:targetClass ex:CA ;
  sh:property [ sh:path ex:p ; sh:minCount 1 ; sh:maxCount 1 ; sh:class ex:CB ] .
ex:B a sh:NodeShape ; sh:targetClass ex:CB ;
  sh:property [ sh:path ex:q ; sh:minCount 1 ; sh:maxCount 1 ; sh:class ex:CC ] .
ex:C a sh:NodeShape ; sh:targetClass ex:CC ;
  sh:property [ sh:path ex:r ; sh:minCount 1 ; sh:maxCount 2 ; sh:class ex:CA ] .
"""

FIXED = [
    Problem("accept_self_one_target", "contains", (ONE_TARGET, ONE_TARGET),
            "Contained", all_hash_seeds=False),
    Problem("accept_self_empty", "contains", (EMPTY, EMPTY), "Contained"),
    Problem("accept_drop_target", "contains", (TWO_TARGETS, ONE_TARGET),
            "Contained", all_hash_seeds=False),
    Problem("accept_empty_in_constrained", "contains", (EMPTY, ONE_TARGET),
            "NotContained"),
    Problem("accept_sat_empty", "sat", (EMPTY,), "Satisfiable"),
    Problem("accept_sat_contradiction", "sat", (CONTRADICTION,), "Unsatisfiable"),
    Problem("accept_sat_untargeted", "sat", (UNTARGETED_CONTRADICTION,),
            "Satisfiable"),
    Problem("accept_strong_sat_untargeted", "sat", (UNTARGETED_CONTRADICTION,),
            "Unsatisfiable", strong_sat=True),
    Problem("F1_literal_subjects", "contains", (F1_A, F1_B), "Contained",
            fault="F1"),
    Problem("F2_node_kinds_not_exhaustive", "contains", (F2_A, F2_B),
            "Contained", fault="F2"),
    Problem("F3_max_count_containment", "contains", (F3_A, F3_B), "Contained",
            fault="F3"),
    Problem("F4_class_targeted_sat", "sat", (F4,), "Satisfiable", fault="F4",
            all_hash_seeds=False),
]

# --- seeded families ---------------------------------------------------------
# Each template names its focus node {a}/{b}, properties {p}/{q}/{r} and
# class {C}; the seed picks the local names, never the structure.

T_MIN = "ex:S a sh:NodeShape ; sh:targetNode {a} ;\n  sh:property [ sh:path {p} ; sh:minCount %d ] .\n"
T_MIN_TWO_NODES = "ex:S a sh:NodeShape ; sh:targetNode {a}, {b} ;\n  sh:property [ sh:path {p} ; sh:minCount 1 ] .\n"
T_KIND = "ex:S a sh:NodeShape ; sh:targetSubjectsOf {q} ; sh:nodeKind sh:IRI .\n"
T_KIND_TWO_TARGETS = "ex:S a sh:NodeShape ; sh:targetSubjectsOf {q}, {r} ; sh:nodeKind sh:IRI .\n"
T_OBJECTS_LITERAL = "ex:S a sh:NodeShape ; sh:targetObjectsOf {q} ; sh:nodeKind sh:Literal .\n"
T_CLASS = "ex:S a sh:NodeShape ; sh:targetClass {C} ;\n  sh:property [ sh:path {p} ; sh:minCount 1 ] .\n"
T_HAS_VALUE = "ex:S a sh:NodeShape ; sh:targetNode {a} ;\n  sh:property [ sh:path {p} ; sh:hasValue {b} ] .\n"
T_MIN_MAX_CLASH = "ex:S a sh:NodeShape ; sh:targetNode {a} ;\n  sh:property [ sh:path {p} ; sh:minCount 2 ; sh:maxCount 1 ] .\n"
T_KIND_CLASH = "ex:S a sh:NodeShape ; sh:targetNode {a} ; sh:nodeKind sh:IRI ;\n  sh:not [ sh:nodeKind sh:IRI ] .\n"
T_CLASS_CLASH = "ex:S a sh:NodeShape ; sh:targetNode {a} ; sh:class {C} ;\n  sh:not [ sh:class {C} ] .\n"
T_UNTARGETED_MIN_MAX_CLASH = "ex:S a sh:NodeShape ;\n  sh:property [ sh:path {p} ; sh:minCount 2 ; sh:maxCount 1 ] .\n"
T_UNTARGETED_KIND_CLASH = "ex:S a sh:NodeShape ;\n  sh:and ( [ sh:nodeKind sh:BlankNode ] [ sh:nodeKind sh:Literal ] ) .\n"

FAMILIES = [
    # reflexive containment
    ("self_min1", "contains", (T_MIN % 1, T_MIN % 1), "Contained"),
    ("self_min2", "contains", (T_MIN % 2, T_MIN % 2), "Contained"),
    ("self_kind", "contains", (T_KIND, T_KIND), "Contained"),
    ("self_objects_literal", "contains", (T_OBJECTS_LITERAL, T_OBJECTS_LITERAL), "Contained"),
    ("self_class", "contains", (T_CLASS, T_CLASS), "Contained"),
    ("self_has_value", "contains", (T_HAS_VALUE, T_HAS_VALUE), "Contained"),
    # target weakening
    ("drop_target_node", "contains", (T_MIN_TWO_NODES, T_MIN % 1), "Contained"),
    ("drop_target_subjects", "contains", (T_KIND_TWO_TARGETS, T_KIND), "Contained"),
    ("drop_all_shapes", "contains", (T_MIN % 1, ""), "Contained"),
    # cardinality strengthening
    ("min2_in_min1", "contains", (T_MIN % 2, T_MIN % 1), "Contained"),
    ("min3_in_min1", "contains", (T_MIN % 3, T_MIN % 1), "Contained"),
    ("min3_in_min2", "contains", (T_MIN % 3, T_MIN % 2), "Contained"),
    # contradictory targeted shapes
    ("clash_min_max", "sat", (T_MIN_MAX_CLASH,), "Unsatisfiable"),
    ("clash_kind", "sat", (T_KIND_CLASH,), "Unsatisfiable"),
    ("clash_class", "sat", (T_CLASS_CLASH,), "Unsatisfiable"),
    # strong satisfiability of contradictions
    ("strong_clash_min_max", "sat+strong", (T_UNTARGETED_MIN_MAX_CLASH,), "Unsatisfiable"),
    ("strong_clash_kind", "sat+strong", (T_UNTARGETED_KIND_CLASH,), "Unsatisfiable"),
    # satisfiable: untargeted, or instantiable
    ("sat_untargeted_clash", "sat", (T_UNTARGETED_MIN_MAX_CLASH,), "Satisfiable"),
    ("sat_min3", "sat", (T_MIN % 3,), "Satisfiable"),
    ("sat_class", "sat", (T_CLASS,), "Satisfiable"),
    # the empty shape graph is not contained in a constrained one
    ("empty_in_min1", "contains", ("", T_MIN % 1), "NotContained"),
    ("empty_in_kind", "contains", ("", T_KIND), "NotContained"),
    ("empty_in_class", "contains", ("", T_CLASS), "NotContained"),
]


def _names(rng: random.Random) -> dict[str, str]:
    nodes = rng.sample(range(100), 2)
    props = rng.sample(range(100), 3)
    return {
        "a": f"ex:n{nodes[0]}", "b": f"ex:n{nodes[1]}",
        "p": f"ex:p{props[0]}", "q": f"ex:p{props[1]}", "r": f"ex:p{props[2]}",
        "C": f"ex:C{rng.randrange(100)}",
    }


def problems(seed: int) -> list[Problem]:
    """The fixed problems plus the seeded families, in a fixed order."""
    rng = random.Random(f"static-analysis/{seed}")
    out = list(FIXED)
    for name, command, texts, expected in FAMILIES:
        names = _names(rng)
        strong = command == "sat+strong"
        out.append(Problem(
            name, "sat" if strong else command,
            tuple(PREFIXES + t.format(**names) for t in texts), expected,
            strong_sat=strong,
        ))
    return out
