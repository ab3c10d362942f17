"""Definitions whose bodies contradict themselves are found empty, and a
unit that asserts one refutes, before any clause is built.

A targeted shape whose constraints clash, or any shape under
`--strong-sat`, is decided there; a shape that is only sometimes empty,
or an empty one that no unit asserts, is left to the check and the clausal
procedures, and never answers Unsatisfiable."""

import time

import pytest

from conftest import load_shapes, shape_family, within
from corpus import SHAPE_POOL
from shacl2fol import closed_structure, emptiness, entailment, miniprover
from shacl2fol.closed_structure import ClosedStructure
from shacl2fol.decide import DecisionTask, ProverConfig, TaskKind, build_problem, run_task
from shacl2fol.errors import Clock
from shacl2fol.tptp_parse import parse_tptp
from test_closed_structure import NODE_CHAIN, named, static_problems
from test_merge import _raw, searched

EX = "http://example.org/"
PREFIXES = "@prefix sh: <http://www.w3.org/ns/shacl#> .\n@prefix ex: <http://example.org/> .\n"
CLASH = "sh:property [ sh:path ex:p ; sh:minCount 2 ; sh:maxCount 1 ]"
TARGETED = PREFIXES + "ex:S a sh:NodeShape ; sh:targetNode ex:a ; {} .\n"
UNTARGETED = PREFIXES + "ex:S a sh:NodeShape ; {} .\n"


def _sat(shapes: str, strong: bool = False, timeout: float = 10) -> DecisionTask:
    return DecisionTask(TaskKind.SATISFIABILITY, load_shapes(shapes),
                        strong_sat_shapes=[] if strong else None,
                        prover=ProverConfig("builtin", timeout_s=timeout))


def _empty(task: DecisionTask) -> set[str]:
    """The shapes whose definitions the step records empty."""
    units = named(build_problem(task).formulas)
    structure = ClosedStructure(units)
    structure.merge(units)
    found = emptiness._Emptiness(structure, Clock())
    found.walk()
    return {key[0] for _, key in found.empty}


@pytest.fixture
def no_clauses(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("clausified")
    monkeypatch.setattr(miniprover, "clausify", refused)


@pytest.mark.parametrize("shapes, strong, unit", [
    (TARGETED.format(CLASH), False, "target"),
    (UNTARGETED.format(CLASH), True, "strong_sat"),
    (TARGETED.format("sh:class ex:C ; sh:not [ sh:class ex:C ]"), False, "target"),
    (UNTARGETED.format("sh:and ( [ sh:nodeKind sh:BlankNode ] [ sh:nodeKind sh:Literal ] )"),
     True, "strong_sat"),
    (UNTARGETED.format("sh:and ( [ sh:nodeKind sh:IRI ] [ sh:nodeKind sh:Literal ] )"),
     True, "strong_sat"),
], ids=["clash_min_max", "strong_clash_min_max", "clash_class", "strong_clash_kind",
        "strong_sat_untargeted"])
def test_a_shape_that_contradicts_itself_is_refuted_without_clauses(shapes, strong, unit,
                                                                    no_clauses):
    got = run_task(_sat(shapes, strong))
    assert (got.verdict.value, got.prover_detail) \
        == ("Unsatisfiable", f"1 empty; {unit} asserts an empty definition")
    assert _empty(_sat(shapes, strong)) == {f"{EX}S"}


E = "ex:E " + CLASH + " .\n"


@pytest.mark.parametrize("shapes", [
    TARGETED.format("sh:node ex:E") + E,
    TARGETED.format("sh:property [ sh:path ex:q ; sh:minCount 1 ; sh:node ex:E ]") + E,
    TARGETED.format("sh:property [ sh:path ex:q ; sh:qualifiedValueShape ex:E ;"
                    " sh:qualifiedMinCount 1 ]") + E,
], ids=["node", "min_count_1", "qualified_min_count_1"])
def test_emptiness_is_carried_to_the_shapes_that_need_an_empty_one(shapes, no_clauses):
    got = run_task(_sat(shapes))
    assert (got.verdict.value, got.prover_detail) \
        == ("Unsatisfiable", "2 empty; target asserts an empty definition")
    assert _empty(_sat(shapes)) == {f"{EX}S", f"{EX}E"}


@pytest.mark.parametrize("shapes", [
    # every value of ex:q must be in ex:E, but there need be none
    TARGETED.format("sh:property [ sh:path ex:q ; sh:node ex:E ]") + E,
    TARGETED.format("sh:not ex:E") + E,
    TARGETED.format("sh:or ( ex:E [ sh:nodeKind sh:IRI ] )") + E,
], ids=["no_min_count", "not", "or"])
def test_a_shape_that_only_refers_to_an_empty_one_is_not_empty(shapes):
    assert _empty(_sat(shapes)) == {f"{EX}E"}
    assert run_task(_sat(shapes)).verdict.value == "Satisfiable"


@pytest.mark.parametrize("shapes, strong", [
    (TARGETED.format("sh:not [ sh:path ex:p ; sh:minCount 2 ; sh:maxCount 1 ]"), False),
    (TARGETED.format(f"sh:or ( [ {CLASH} ] [ sh:nodeKind sh:IRI ] )"), False),
    (PREFIXES + f"ex:S a sh:NodeShape ; sh:targetClass ex:C ; {CLASH} .\n", False),
    (TARGETED.format("sh:property [ sh:path ex:p ; sh:minCount 2 ; sh:maxCount 2 ]"), False),
    (TARGETED.format("sh:property [ sh:path ex:p ; sh:minCount 1 ; sh:maxCount 1 ]"), False),
    (TARGETED.format("sh:property [ sh:path ex:p ; sh:minCount 2 ; sh:maxCount 2 ]"), True),
    (TARGETED.format("sh:nodeKind sh:IRI ; sh:not [ sh:nodeKind sh:Literal ]"), True),
    (UNTARGETED.format(CLASH), False),  # static-analysis's sat_untargeted_clash
], ids=["not_clash", "or_one_clash", "class_targeted", "min2_max2", "min1_max1",
        "min2_max2_strong", "kind_not_other_kind", "untargeted"])
def test_a_shape_that_may_have_an_instance_is_never_unsatisfiable(shapes, strong):
    got = run_task(_sat(shapes, strong, timeout=3))
    assert got.verdict.value == "Satisfiable", got.prover_detail
    assert "empty" not in got.prover_detail


def _contradicted(text: str, i: int) -> str:
    """`text` with one more property shape on `ex:S<i>`, whose counts clash."""
    lines = text.splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines) if line.startswith(f"ex:S{i} "))
    lines[k] = lines[k].rstrip().removesuffix(".") \
        + "; sh:property [ sh:path ex:q ; sh:minCount 2 ; sh:maxCount 1 ] .\n"
    return "".join(lines)


@pytest.mark.parametrize("n, i", [(4, 0), (4, 3), (30, 0), (30, 29), (100, 50)])
def test_a_shape_family_with_one_contradictory_shape_is_not_strongly_satisfiable(n, i):
    # the default timeout; before the step, 30 shapes ended Timeout
    task = DecisionTask(TaskKind.SATISFIABILITY, load_shapes(_contradicted(shape_family(n), i)),
                        strong_sat_shapes=[], prover=ProverConfig("builtin"))
    start = time.monotonic()
    got = run_task(task)
    assert time.monotonic() - start < 10
    assert got.verdict.value == "Unsatisfiable"
    assert got.prover_detail.endswith(" asserts an empty definition"), got.prover_detail
    # the family's shapes stay satisfiable: only those that need ex:S<i> are empty
    assert f"{EX}S{i}" in _empty(task)
    assert run_task(DecisionTask(TaskKind.SATISFIABILITY, load_shapes(shape_family(n)),
                                 prover=ProverConfig("builtin"))).verdict.value == "Satisfiable"


def test_a_ten_thousand_deep_chain_to_a_contradictory_shape_is_unsatisfiable(no_clauses):
    # 10,001 definitions, each empty through the next, walked in
    # dependency order with a summary each, not a copy of what it refers to
    chain = NODE_CHAIN.replace("ex:S10000 sh:nodeKind sh:IRI .", f"ex:S10000 {CLASH} .")
    assert chain != NODE_CHAIN
    got = run_task(_sat(chain, timeout=30))
    assert (got.verdict.value, got.prover_detail) \
        == ("Unsatisfiable", "10001 empty; target asserts an empty definition")


@pytest.mark.parametrize("text", [
    "fof(d, axiom, ![X]: (p(X, a) <=> (q(X) & ~q(X)))).\nfof(u, axiom, ~p(b, a)).\n",
    "fof(d, axiom, ![X]: (p(X, a) <=> (q(X) & ~q(X)))).\nfof(u, axiom, p(b, a) | r(b)).\n",
    "fof(d, axiom, ![X]: (p(X, a) <=> (q(X) & ~q(X)))).\nfof(u, axiom, p(b, a) => r(b)).\n",
], ids=["negated", "disjunct", "premise"])
def test_an_empty_atom_under_a_negation_a_disjunction_or_a_premise_asserts_nothing(text):
    got = miniprover.decide_tptp_text(text, timeout_s=5)
    assert got.status == "Satisfiable", got.detail


def test_clash_tests_past_the_budget_record_no_empty_definition(monkeypatch):
    # c entails the last d, so the body contradicts itself, but c is first
    # tested against three d that it does not entail, each search well
    # within `_STEPS`: the four share the definition's one budget, which
    # runs out before the last map is found, so e is not recorded empty and
    # the problem is left to the clausal procedures
    failing = " & ".join([f"~{searched('Z', 1, 4, n=4, t='u')}"] * 3)
    text = (f"fof(d, axiom, ![X]: (e(X, a) <=> ({searched('Y', 4, 1, n=4)} & {failing}"
            f" & ~{searched('W', 1, 4, n=4)}))).\nfof(u, axiom, e(b, a)).\n")

    def walked() -> emptiness._Emptiness:
        units = named(parse_tptp(text))
        structure = ClosedStructure(units)
        structure.merge(units)
        found = emptiness._Emptiness(structure, Clock())
        found.walk()
        return found

    found = walked()
    assert found.empty == set() and found.test.steps > entailment._STEPS
    got = miniprover.decide_tptp_text(text, timeout_s=0.5)
    assert got.status != "Satisfiable" and "empty" not in got.detail, got.detail
    monkeypatch.setattr(entailment, "_STEPS", 10**6)
    assert walked().empty == {("e", ("a",))}
    got = miniprover.decide_tptp_text(text, timeout_s=10)
    assert (got.status, got.detail) == ("Unsatisfiable", "1 empty; u asserts an empty definition")


THREE_STEPS_A = PREFIXES + f"""
ex:S a sh:NodeShape ; sh:targetNode ex:a ; {CLASH} .
ex:T a sh:NodeShape ; sh:targetNode ex:b ; sh:property [ sh:path ex:q ; sh:minCount 2 ] .
"""
THREE_STEPS_B = PREFIXES + f"""
ex:S a sh:NodeShape ; sh:targetNode ex:a ; {CLASH} .
ex:T a sh:NodeShape ; sh:targetNode ex:b, ex:c ; sh:property [ sh:path ex:q ; sh:minCount 1 ] .
"""


def test_merge_entailment_and_emptiness_answer_one_problem(no_clauses, monkeypatch):
    # B repeats A's ex:S, which merges; B's ex:T weakens A's, which entails
    # it, though B's target on ex:c leaves no denial; and ex:S contradicts
    # itself, so A's target on ex:a refutes, the entailments handed on
    handed = []
    refuted = emptiness.refuted

    def watched(structure, named, clock, found=None):
        handed.append(found.stronger)
        return refuted(structure, named, clock, found)

    monkeypatch.setattr(emptiness, "refuted", watched)
    got = run_task(DecisionTask(TaskKind.CONTAINMENT, load_shapes(THREE_STEPS_A),
                                shape_graph_b=load_shapes(THREE_STEPS_B),
                                prover=ProverConfig("builtin", timeout_s=10)))
    assert (got.verdict.value, got.prover_detail) == ("Contained", "1 of 4 definitions merged; "
                                                      "1 entailed; 1 empty; target_a asserts "
                                                      "an empty definition")
    assert handed == [{("hasShapeB", (f"{EX}T",)): ["hasShape"]}]


def test_emptiness_reads_the_entailments_recorded_before_it(no_clauses):
    # p(·, a) entails w(·, a), so inside the ∃ blocks of e's body, where
    # no atom is read as its definition's body, c entails d only through
    # the recorded entailment
    text = """fof(d_p, axiom, ![X]: (p(X, a) <=> (q(X) & r(X)))).
fof(d_w, axiom, ![X]: (w(X, a) <=> q(X))).
fof(d_e, axiom, ![X]: (e(X) <=> (?[Y]: (s(X, Y) & p(Y, a)) & ~?[Y]: (s(X, Y) & w(Y, a))))).
fof(u, axiom, e(c)).
"""
    got = miniprover.decide_tptp_text(text, timeout_s=5)
    assert (got.status, got.detail) \
        == ("Unsatisfiable", "1 entailed; 1 empty; u asserts an empty definition")


def test_an_asserted_empty_atom_inside_an_existential_refutes():
    text = ("fof(d, axiom, ![X]: (p(X, a) <=> (q(X) & ~q(X)))).\n"
            "fof(u, axiom, ?[Y]: (r(Y) & p(Y, a))).\n")
    got = miniprover.decide_tptp_text(text, timeout_s=5)
    assert (got.status, got.detail) == ("Unsatisfiable", "1 empty; u asserts an empty definition")


def test_the_step_answers_as_the_raw_clauses_do():
    # sat and strong sat on the randomized cases' shapes, and the
    # static-analysis sat problems: where the step refutes and the raw
    # clauses decide, they agree, and so does the whole prover
    tasks = [_sat(PREFIXES + shape, strong) for _, shape in SHAPE_POOL for strong in (False, True)]
    tasks += [_sat(p.shapes[0], p.strong_sat) for seed in (1, 2) for p in static_problems(seed)
              if p.command == "sat"]
    decided = {"Satisfiable", "Unsatisfiable"}
    refuted = both = 0
    for task in tasks:
        units = build_problem(task).formulas
        structure = ClosedStructure(named(units))
        structure.merge(named(units))
        step = emptiness.refuted(structure, named(units), Clock())
        raw = _raw(units)
        if step is not None:
            refuted += 1
            assert step.endswith(" asserts an empty definition"), step
            if raw in decided:
                both += 1
                assert raw == "Unsatisfiable", task
        whole = closed_structure.decide_units(units, within(0.5)).status
        if raw in decided and whole in decided:
            assert whole == raw, task
    # per seed, the five problems the step decides, and clash_kind, which
    # the facts-only structure decides before it
    assert refuted == both == 2 * 6
