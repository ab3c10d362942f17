"""End-to-end acceptance checks.

Each test exercises one numbered criterion and records a pass/fail line
that the terminal summary prints after the run.
"""

import functools
import random
import time

import pytest

import conftest
from conftest import load_graph, load_shapes
from corpus import CASES, PREFIXES
from shacl2fol import oracle
from shacl2fol.decide import (
    DecisionTask, ProverConfig, TaskKind, Verdict, run_task,
)
from shacl2fol.fol import formula_text
from shacl2fol.rdf import RDF_TYPE, iri
from shacl2fol.shapes import MinCount, Predicate, TargetDecl, TargetKind, TrueC
from shacl2fol.tptp import (
    Dialect, Emitter, EmitOptions, emit_una, render,
)
from shacl2fol.tptp_parse import parse_tptp

from test_emit import _destructure_neg_axiom, _eval, _random_graph

EX = "http://example.org/"
S = iri(EX + "S")

BUILTIN = ProverConfig("builtin", timeout_s=10)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            try:
                fn(*args, **kw)
            except BaseException:
                conftest.ACCEPTANCE_RESULTS.append((number, title, "FAIL"))
                raise
            conftest.ACCEPTANCE_RESULTS.append((number, title, "pass"))
        return wrapper
    return deco


def validation_task(case, options):
    return DecisionTask(
        TaskKind.VALIDATION,
        load_shapes(case.shapes_ttl),
        data_graph=load_graph(case.data_ttl),
        options=options,
        prover=BUILTIN,
    )


AGREEMENT_CASES = [c for c in CASES if not c.order]


@criterion(1, "target axiom goldens")
def test_criterion_1_target_axioms():
    cases = [
        (TargetDecl(TargetKind.NODE, iri(EX + "a")),
         "hasShape('http://example.org/a', 'http://example.org/S')"),
        (TargetDecl(TargetKind.CLASS, iri(EX + "C")),
         "(![X]: (isA(X, 'http://example.org/C')"
         " => hasShape(X, 'http://example.org/S')))"),
        (TargetDecl(TargetKind.SUBJECTS_OF, iri(EX + "p")),
         "(![X, Y]: ('http://example.org/p'(X, Y)"
         " => hasShape(X, 'http://example.org/S')))"),
        (TargetDecl(TargetKind.OBJECTS_OF, iri(EX + "p")),
         "(![X, Y]: ('http://example.org/p'(Y, X)"
         " => hasShape(X, 'http://example.org/S')))"),
    ]
    for decl, want in cases:
        assert formula_text(Emitter(EmitOptions()).target_formula(decl, S)) == want


@criterion(2, "graph axioms vs independent re-implementation")
def test_criterion_2_graph_axioms():
    from shacl2fol.tptp import emit_graph_axioms, term_symbol

    rng = random.Random(424242)
    for _ in range(50):
        g = _random_graph(rng)  # up to 10 triples over up to 3 predicates
        signature = {
            "isA" if p == RDF_TYPE else p for p in g.predicate_names()
        }
        axioms = emit_graph_axioms(g, signature)
        want_atoms = {
            ("isA" if t.predicate.lexical == RDF_TYPE else t.predicate.lexical,
             term_symbol(t.subject), term_symbol(t.object))
            for t in g.triples
        }
        got_atoms = {
            (a.body.pred, a.body.args[0].name, a.body.args[1].name)
            for a in axioms if a.name.startswith("graph_pos")
        }
        assert got_atoms == want_atoms
        seen = set()
        for a in axioms:
            if not a.name.startswith("graph_neg"):
                continue
            role, pairs = _destructure_neg_axiom(a.body)
            seen.add(role)
            want = {
                (term_symbol(t.subject), term_symbol(t.object))
                for t in g.triples
                if ("isA" if t.predicate.lexical == RDF_TYPE
                    else t.predicate.lexical) == role
            }
            assert pairs == (want or None)
        assert seen == signature


@criterion(3, "prover/oracle validation agreement")
def test_criterion_3_validation_agreement():
    assert len(AGREEMENT_CASES) >= 40
    disagreements = []
    for case in AGREEMENT_CASES:
        report = oracle.evaluate(
            load_shapes(case.shapes_ttl), load_graph(case.data_ttl),
        )
        if case.conforms is not None:
            assert report.conforms == case.conforms, case.name
        start = time.monotonic()
        result = run_task(validation_task(case, EmitOptions()))
        assert time.monotonic() - start <= 10, case.name
        want = Verdict.CONFORMS if report.conforms else Verdict.DOES_NOT_CONFORM
        if result.verdict != want:
            disagreements.append((case.name, result.verdict, want))
    assert disagreements == []


@criterion(4, "fof/pairwise and tff/distinct verdicts agree")
def test_criterion_4_encoding_agreement():
    for case in AGREEMENT_CASES:
        tff = run_task(validation_task(
            case, EmitOptions(dialect=Dialect.TFF),
        ))
        fof = run_task(validation_task(
            case, EmitOptions(dialect=Dialect.FOF),
        ))
        assert tff.verdict == fof.verdict, case.name


SHAPES_TWO_TARGETS = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:targetClass ex:C ;
  sh:property [ sh:path ex:p ; sh:minCount 1 ] .
ex:T a sh:NodeShape ; sh:targetSubjectsOf ex:q ; sh:nodeKind sh:IRI .
"""

SHAPES_ONE_TARGET = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetNode ex:a ;
  sh:property [ sh:path ex:p ; sh:minCount 1 ] .
ex:T a sh:NodeShape ; sh:targetSubjectsOf ex:q ; sh:nodeKind sh:IRI .
"""

SHAPES_EMPTY = PREFIXES

SEPARATING_GRAPH = PREFIXES + "ex:a ex:other ex:b ."


def containment(a_ttl, b_ttl):
    return run_task(DecisionTask(
        TaskKind.CONTAINMENT,
        load_shapes(a_ttl),
        shape_graph_b=load_shapes(b_ttl),
        prover=BUILTIN,
    ))


@criterion(5, "containment sanity")
def test_criterion_5_containment():
    # every shape graph is contained in itself
    for ttl in (SHAPES_TWO_TARGETS, SHAPES_ONE_TARGET, SHAPES_EMPTY):
        assert containment(ttl, ttl).verdict == Verdict.CONTAINED
    # dropping a target weakens the obligations
    assert containment(
        SHAPES_TWO_TARGETS, SHAPES_ONE_TARGET,
    ).verdict == Verdict.CONTAINED
    # the empty shape graph does not imply a constrained one ...
    got = containment(SHAPES_EMPTY, SHAPES_ONE_TARGET)
    assert got.verdict == Verdict.NOT_CONTAINED
    # ... and the oracle confirms a concrete separating graph
    g = load_graph(SEPARATING_GRAPH)
    assert oracle.evaluate(load_shapes(SHAPES_EMPTY), g).conforms
    assert not oracle.evaluate(load_shapes(SHAPES_ONE_TARGET), g).conforms


CONTRADICTION = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:nodeKind sh:IRI .
ex:T a sh:NodeShape ; sh:targetNode ex:a ; sh:nodeKind sh:Literal .
"""

UNTARGETED_CONTRADICTION = PREFIXES + """
ex:S a sh:NodeShape ;
  sh:and ( [ sh:nodeKind sh:IRI ] [ sh:nodeKind sh:Literal ] ) .
"""


def satisfiability(ttl, strong=None):
    return run_task(DecisionTask(
        TaskKind.SATISFIABILITY, load_shapes(ttl),
        strong_sat_shapes=strong, prover=BUILTIN,
    ))


@criterion(6, "satisfiability sanity")
def test_criterion_6_satisfiability():
    assert satisfiability(SHAPES_EMPTY).verdict == Verdict.SATISFIABLE
    assert satisfiability(CONTRADICTION).verdict == Verdict.UNSATISFIABLE
    # without a target the contradictory shape is vacuously satisfiable,
    # until strong satisfiability demands an instance
    assert satisfiability(UNTARGETED_CONTRADICTION).verdict == Verdict.SATISFIABLE
    assert satisfiability(
        UNTARGETED_CONTRADICTION, strong=[],
    ).verdict == Verdict.UNSATISFIABLE


@criterion(7, "emitted problems accepted by the prover parser")
def test_criterion_7_problems_parse():
    from shacl2fol.decide import build_problem

    count = 0
    for case in CASES:
        for dialect in (Dialect.TFF, Dialect.FOF):
            task = DecisionTask(
                TaskKind.VALIDATION,
                load_shapes(case.shapes_ttl),
                data_graph=load_graph(case.data_ttl),
                options=EmitOptions(dialect=dialect),
            )
            units = parse_tptp(render(build_problem(task)))
            assert units
            count += 1
    assert count == 2 * len(CASES)


@criterion(8, "unique names and cardinality semantics")
def test_criterion_8_encodings():
    # pairwise inequalities: one per unordered constant pair
    for n in range(1, 7):
        consts = [iri(EX + f"c{i}") for i in range(n)]
        axioms = emit_una(consts, EmitOptions(dialect=Dialect.FOF))
        assert len(axioms) == n * (n - 1) // 2

    # counting quantifiers expand to formulas with exact threshold meaning
    from shacl2fol.fol import Var

    domain = [0, 1, 2, 3]
    for n in (1, 2, 3):
        body = Emitter(EmitOptions()).node_formula(
            MinCount(n, Predicate(EX + "p"), TrueC()), Var("X"),
        )
        for mask in range(16):
            edges = {(0, d) for d in domain if mask & (1 << d)}
            relations = {"__domain__": domain, EX + "p": edges}
            assert _eval(body, {"X": 0}, relations) == (len(edges) >= n)
