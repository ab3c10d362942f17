"""Definitions that say the same thing are merged, definitions that entail
others are found, and a unit that denies asserted units refutes, before
the check and the clauses.

Containment of a shape graph in itself, in one that drops targets, or in
one that weakens a shape is decided there; every other problem goes on
to the check and the clausal procedures, which get its units as read,
and is answered as the unmerged problem is."""

import itertools
import re
import time
from collections import Counter

import pytest

from conftest import load_graph, load_shapes, not_chain, shape_family, within
from corpus import CASES
from shacl2fol import closed_structure, entailment, miniprover
from shacl2fol.closed_structure import ClosedStructure
from shacl2fol.decide import DecisionTask, ProverConfig, TaskKind, build_problem, run_task
from shacl2fol.errors import Clock
from shacl2fol.fol import AndN, Atom, Const, Exists, Forall, Func, Iff, Var
from shacl2fol.tptp_parse import parse_tptp
from test_closed_structure import NODE_CHAIN, WIDE_AND, named

EX = "http://example.org/"
DENIES = "neg_targets_b denies asserted units"
PREFIXES = "@prefix sh: <http://www.w3.org/ns/shacl#> .\n@prefix ex: <http://example.org/> .\n"


def _merge(units):
    """The units without the merged definitions, and the detail of the
    merge, as `decide_units` reads them: units with no one candidate
    structure merge nothing."""
    try:
        structure = ClosedStructure(units)
    except closed_structure._Inapplicable:
        return units, ""
    return structure.merge(units)


def _task(a: str, b: str, timeout: float = 10) -> DecisionTask:
    return DecisionTask(TaskKind.CONTAINMENT, load_shapes(a), shape_graph_b=load_shapes(b),
                        prover=ProverConfig("builtin", timeout_s=timeout))


def _edited(text: str, i: int, change) -> str:
    """`text` with the first `sh:minCount` of `ex:S<i>` set to `change` of it."""
    lines = text.splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines) if line.startswith(f"ex:S{i} "))
    lines[k] = re.sub(r"sh:minCount (\d)", lambda m: f"sh:minCount {change(int(m[1]))}",
                      lines[k], count=1)
    return "".join(lines)


def _raised(text: str, i: int) -> str:
    return _edited(text, i, lambda n: 3)


def _lowered(text: str, i: int) -> str:
    return _edited(text, i, lambda n: n - 1)


@pytest.mark.parametrize("n", [2, 4, 30, 100])
def test_a_shape_family_is_contained_in_itself(n):
    # every definition of B is merged into A's, and B's negated targets
    # then deny A's targets
    family = shape_family(n)
    start = time.monotonic()
    got = run_task(_task(family, family))
    assert time.monotonic() - start < 10
    assert (got.verdict.value, got.prover_detail) \
        == ("Contained", f"{n} of {2 * n} definitions merged; {DENIES}")


@pytest.mark.parametrize("shapes", [NODE_CHAIN, WIDE_AND, not_chain(10_000)],
                         ids=["node_chain", "wide_and", "not_chain"])
def test_ten_thousand_deep_shape_graphs_are_contained_in_themselves(shapes):
    # 10,000 definitions each referring to the next, and a conjunction
    # nested 10,000 deep: the merge walks them on its own stacks
    got = run_task(_task(shapes, shapes, timeout=30))
    assert got.verdict.value == "Contained"
    assert got.prover_detail.endswith(DENIES)


# (n, the edited shape): raising a minCount in B or lowering one in A makes
# the containment fail, and the other two edits make it hold
ONE_EDIT = [(2, 0), (2, 1), (4, 0), (4, 3), (30, 29)]


@pytest.mark.parametrize("n, i", ONE_EDIT)
def test_one_edit_never_gives_the_wrong_direction(n, i):
    family = shape_family(n)
    for a, b, wrong in [(family, _raised(family, i), "Contained"),
                        (_lowered(family, i), family, "Contained"),
                        (_raised(family, i), family, "NotContained"),
                        (family, _lowered(family, i), "NotContained")]:
        got = run_task(_task(a, b, timeout=0.3))
        assert got.verdict.value != wrong, (a, b, got.prover_detail)


@pytest.mark.parametrize("n, i", [(2, 1), (4, 3), (30, 0), (30, 29), (100, 50)])
def test_a_weakened_shape_is_contained_through_entailment(n, i):
    # raising a minCount in A, or lowering it in B, weakens B: A's edited
    # definition, and those that reach it by sh:node, entail B's
    family = shape_family(n)
    for a, b in [(_raised(family, i), family), (family, _lowered(family, i))]:
        start = time.monotonic()
        got = run_task(_task(a, b))
        assert time.monotonic() - start < 10
        assert got.verdict.value == "Contained"
        assert re.fullmatch(rf"\d+ of {2 * n} definitions merged; [1-9]\d* entailed; {DENIES}",
                            got.prover_detail), got.prover_detail


COUNT = PREFIXES + "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n" \
    "  sh:property [ sh:path ex:p ; sh:{} {} ] .\n"


@pytest.mark.parametrize("component, holds", [
    ("minCount", lambda a, b: a >= b), ("maxCount", lambda a, b: a <= b)])
@pytest.mark.parametrize("a, b", list(itertools.product((1, 2, 3), repeat=2)))
def test_a_count_in_a_against_a_count_in_b(component, holds, a, b):
    # Contained exactly where the count in A implies the count in B
    got = run_task(_task(COUNT.format(component, a), COUNT.format(component, b), timeout=2))
    if holds(a, b):
        assert got.verdict.value == "Contained"
        assert got.prover_detail.endswith(DENIES)
    else:
        assert got.verdict.value != "Contained"


NOT = PREFIXES + """ex:T a sh:NodeShape ; sh:targetNode ex:a ; sh:not ex:S .
ex:S a sh:NodeShape ; sh:property [ sh:path ex:p ; sh:{} {} ] .
"""


@pytest.mark.parametrize("a, b", [
    (NOT.format("minCount", 2), NOT.format("minCount", 1)),
    (NOT.format("maxCount", 1), NOT.format("maxCount", 2)),
    (COUNT.format("maxCount", 2), COUNT.format("maxCount", 1)),
], ids=["min_under_not", "max_under_not", "max_the_wrong_way"])
def test_an_entailment_at_a_negative_position_never_gives_contained(a, b):
    # A's ex:S entails B's, so B's `sh:not ex:S` is the stronger shape; and
    # a maxCount raised in A weakens A
    assert run_task(_task(a, b, timeout=2)).verdict.value != "Contained"


def test_a_ten_thousand_deep_chain_weakened_at_its_end_is_contained():
    # 10,001 definitions, each entailed through the next, walked in
    # dependency order on no Python stack of that depth
    weakened = NODE_CHAIN.replace("ex:S10000 sh:nodeKind sh:IRI .",
                                  "ex:S10000 sh:nodeKind sh:BlankNodeOrIRI .")
    assert weakened != NODE_CHAIN
    got = run_task(_task(NODE_CHAIN, weakened, timeout=30))
    assert (got.verdict.value, got.prover_detail) == ("Contained", f"10001 entailed; {DENIES}")


def test_entailment_is_recorded_in_its_one_direction():
    units = named(build_problem(_task(COUNT.format("maxCount", 1),
                                      COUNT.format("maxCount", 2))).formulas)
    structure = ClosedStructure(units)
    assert structure.merge(units) == (units, "")
    assert structure.pairs == [("hasShape", "hasShapeB", (f"{EX}S",))]
    found = entailment.entailed(structure, Clock())
    assert found.stronger == {("hasShapeB", (f"{EX}S",)): ["hasShape"]}


def searched(v: str, first: int, last: int, n: int = 5, t: str = "t") -> str:
    """`∃V₁…Vₙ (r(X, V₁) ∧ … ∧ r(X, Vₙ) ∧ s(V_first) ∧ t(V_last))`.  Two of
    these with `first` and `last` swapped entail each other, but the
    search maps the variables in order, so it tries every image of the
    others for each wrong image of the first: about nⁿ steps before the map."""
    vs = ", ".join(f"{v}{i}" for i in range(1, n + 1))
    rs = " & ".join(f"r(X, {v}{i})" for i in range(1, n + 1))
    return f"?[{vs}]: ({rs} & s({v}{first}) & {t}({v}{last}))"


def test_a_search_past_the_budget_records_no_entailment(monkeypatch):
    # p(·, a) and w(·, a) entail each other, so n denies an asserted unit
    # through either; within `_STEPS` the search finds neither map, and the
    # clausal procedures refute the problem instead
    text = (f"fof(d_p, axiom, ![X]: (p(X, a) <=> {searched('Y', 5, 1)})).\n"
            f"fof(d_w, axiom, ![X]: (w(X, a) <=> {searched('Z', 1, 5)})).\n"
            "fof(u, axiom, p(b, a)).\nfof(n, axiom, ~w(b, a)).\n")
    units = named(parse_tptp(text))
    structure = ClosedStructure(units)
    assert structure.merge(units) == (units, "") and structure.pairs == [("p", "w", ("a",))]
    assert entailment.entailed(structure, Clock()).stronger == {}
    got = miniprover.decide_tptp_text(text, timeout_s=10)
    assert (got.status, got.detail) == ("Unsatisfiable", "ground refutation (skolem depth 1)")
    monkeypatch.setattr(entailment, "_STEPS", 10**6)
    assert entailment.entailed(structure, Clock()).stronger \
        == {("w", ("a",)): ["p"], ("p", ("a",)): ["w"]}
    got = miniprover.decide_tptp_text(text, timeout_s=10)
    assert (got.status, got.detail) == ("Unsatisfiable", "2 entailed; n denies asserted units")


WEAKER = """
fof(d_p, axiom, ![X]: (p(X, a) <=> (q(X) & r(X)))).
fof(d_w, axiom, ![X]: (w(X, a) <=> q(X))).
"""


@pytest.mark.parametrize("asserted, denied, status", [
    ("![X]: (p(X, a) => s(X))", "![X]: (w(X, a) => s(X))", "Satisfiable"),
    ("![X]: (s(X) => p(X, a))", "![X]: (s(X) => w(X, a))", "Unsatisfiable"),
], ids=["negative", "positive"])
def test_a_denied_unit_is_strengthened_at_positive_positions_only(asserted, denied, status):
    # p(·, a) entails w(·, a): read as p, w strengthens ∀X (s(X) → w(X, a))
    # but weakens ∀X (w(X, a) → s(X)), which no unit then entails
    text = WEAKER + f"fof(u, axiom, {asserted}).\nfof(n, axiom, ~({denied})).\n"
    got = miniprover.decide_tptp_text(text, timeout_s=10)
    assert got.status == status
    assert (got.detail == "1 entailed; n denies asserted units") == (status == "Unsatisfiable")


def _referencing(text: str, i: int) -> set[int]:
    """`i` and the node shapes of the family that reach `ex:S<i>` through
    `sh:node` references; a shape refers only to earlier ones."""
    found = {i}
    for k, line in enumerate(line for line in text.splitlines() if line.startswith("ex:S")):
        if {int(j) for j in re.findall(r"sh:node ex:S(\d+)", line)} & found:
            found.add(k)
    return found


@pytest.mark.parametrize("n, i", [(30, 0), (30, 3), (30, 29), (100, 50)])
def test_one_edit_merges_every_shape_but_it_and_those_that_reference_it(n, i):
    family = shape_family(n)
    units = named(build_problem(_task(family, _raised(family, i))).formulas)
    merged_units, merged = _merge(units)
    left = {f.body.left.args[1].name for _, f in merged_units
            if type(f) is Forall and type(f.body) is Iff and f.body.left.pred == "hasShapeB"}
    unmerged = {f"{EX}S{k}" for k in _referencing(family, i)}
    assert 1 < len(unmerged) < n or i == n - 1
    assert left == unmerged
    assert merged == f"{n - len(unmerged)} of {2 * n} definitions merged"


@pytest.mark.parametrize("edited", [False, True], ids=["self", "one_edit"])
def test_each_unit_is_read_once(edited, monkeypatch):
    # the structure reads each unit's definition head once, and the merge
    # works on the tables that reading built
    family = shape_family(30)
    units = build_problem(_task(family, _raised(family, 29) if edited else family)).formulas
    reads = Counter()
    head = closed_structure._definition_head

    def counted(f):
        reads[id(f)] += 1
        return head(f)

    monkeypatch.setattr(closed_structure, "_definition_head", counted)
    got = closed_structure.decide_units(units, within(0.3))
    assert got.detail.startswith("29 of 60 definitions merged" if edited else "30 of 60")
    assert reads and max(reads.values()) == 1


def _atoms(f):
    """The atoms of a formula."""
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is Atom:
            yield g
        else:
            stack.extend(closed_structure._parts(g))


def test_the_clauses_get_every_unit_as_read(monkeypatch):
    # the merge serves the refuting steps only: the clausal procedures get
    # B's definitions of every shape, and its atoms, as the problem has them
    family = shape_family(4)
    units = build_problem(_task(family, _raised(family, 1))).formulas
    clausify, received = miniprover.clausify, []

    def watched(formulas, clock):
        received.extend(formulas)
        return clausify(formulas, clock)

    monkeypatch.setattr(miniprover, "clausify", watched)
    got = closed_structure.decide_units(units, within(0.3))
    assert got.detail.startswith("1 of 8 definitions merged")
    assert received == [u.body for u in units]
    shapes_b = {atom.args[1].name for f in received for atom in _atoms(f)
                if atom.pred == "hasShapeB"}
    defined_b = {f.body.left.args[1].name for f in received
                 if type(f) is Forall and type(f.body) is Iff and f.body.left.pred == "hasShapeB"}
    assert shapes_b == defined_b == {f"{EX}S{k}" for k in range(4)}


DEFINITIONS = """
fof(d_p, axiom, ![X]: (p(X, a) <=> q(X))).
fof(d_r, axiom, ![X]: (r(X, b) <=> q(X))).
fof(q_c, axiom, q(c)).
"""


@pytest.mark.parametrize("use", ["![Y]: ~r(c, Y)", "![Y]: ~p(c, Y)", "~r(c, b) | r(c)"],
                         ids=["variable_key", "variable_key_of_the_first", "other_arity"])
def test_a_predicate_with_a_variable_at_its_key_is_never_merged(use):
    # merging r(·, b) into p(·, a) would leave `r(c, Y)` free at b, and the
    # problem is unsatisfiable, as r(c, b) holds
    units = named(parse_tptp(DEFINITIONS + f"fof(u, axiom, {use}).\n"))
    assert _merge(units) == (units, "")
    if "Y" in use:
        assert miniprover.decide_tptp_text(DEFINITIONS + f"fof(u, axiom, {use}).\n",
                                           timeout_s=10).status == "Unsatisfiable"


COINCIDING = """
fof(d_p, axiom, ![X]: (p(X, a) <=> r(X))).
fof(d_q, axiom, ![X]: (q(X, b) <=> r(X))).
fof(d_q2, axiom, ![X]: (q(X, c) <=> ~r(X))).
"""


@pytest.mark.parametrize("text, status, merged", [
    (COINCIDING + "fof(u, axiom, b = c).", "Unsatisfiable", "1 of 3 definitions merged"),
    (COINCIDING + "fof(u, axiom, p(a, a)).", "Satisfiable", "1 of 3 definitions merged"),
    # a key that only an atom holds
    (COINCIDING.replace("fof(d_q2, axiom, ![X]: (q(X, c) <=> ~r(X))).",
                        "fof(r_k, axiom, r(k)).\nfof(n, axiom, ~q(k, c)).")
     + "fof(u, axiom, b = c).", "Unsatisfiable", "1 of 2 definitions merged"),
], ids=["equal", "unknown", "atom_key"])
def test_keys_that_may_name_one_element_merge(text, status, merged):
    # with b = c, q(·, b) and q(·, c) are one relation, r and its negation:
    # the units without q(·, b)'s definition have a model, so they serve
    # only the refuting steps, and the clausal procedures get all the units
    units = named(parse_tptp(text))
    assert _merge(units)[1] == merged
    got = miniprover.decide_tptp_text(text, timeout_s=10)
    assert got.status == status and got.detail.startswith(merged + "; ")


def test_a_merge_needs_no_unique_names():
    # no unit keeps b and c apart, yet q(·, b) and p(·, a) are one relation
    # in every model, so q(d, b) read as p(d, a) is denied by n
    text = COINCIDING.replace("~r(X)", "s(X)") \
        + "fof(u, axiom, q(d, b)).\nfof(n, axiom, ~p(d, a)).\n"
    got = miniprover.decide_tptp_text(text, timeout_s=10)
    assert (got.status, got.detail) \
        == ("Unsatisfiable", "1 of 3 definitions merged; n denies asserted units")


@pytest.mark.parametrize("apart", ["fof(u, axiom, ~(b = c)).", "tff(u, axiom, $distinct(c, b))."],
                         ids=["unequal", "distinct"])
def test_keys_kept_apart_merge(apart):
    text = COINCIDING + apart + "\n"
    merged_units, merged = _merge(named(parse_tptp(text)))
    assert merged == "1 of 3 definitions merged"
    assert [name for name, _ in merged_units] == ["d_p", "d_q2", "u"]
    assert miniprover.decide_tptp_text(text, timeout_s=10).status == "Satisfiable"


def test_constants_at_every_key_merge():
    text = DEFINITIONS + "fof(u, axiom, ~r(c, b)).\n"
    units = named(parse_tptp(text))
    merged_units, merged = _merge(units)
    assert merged == "1 of 2 definitions merged"
    assert [name for name, _ in merged_units] == ["d_p", "q_c", "u"]
    got = miniprover.decide_tptp_text(text, timeout_s=10)
    assert got.status == "Unsatisfiable" and got.detail.startswith("1 of 2 definitions merged; ")


@pytest.mark.parametrize("text, detail", [
    ("fof(f, axiom, p(a)).\nfof(g, axiom, ~q(b)).\nfof(n, axiom, ~(p(a) & ~q(b))).\n",
     "n denies asserted units"),
    ("fof(f, axiom, ![X]: (q(X) => ?[Y]: r(X, Y))).\n"
     "fof(n, axiom, ~![Z]: (q(Z) => ?[W]: r(Z, W))).\n", "n denies asserted units"),
    ("fof(f, axiom, p(a)).\nfof(g, axiom, q(b)).\nfof(h, axiom, r(c)).\n"
     "fof(n, axiom, ~(p(a) & (q(b) & r(c)))).\n", "n denies asserted units"),
    ("fof(f, axiom, p(a)).\nfof(n, axiom, $false).\n", "n is $false"),
    ("fof(f, axiom, p(a)).\nfof(c, conjecture, p(a)).\n", "c denies asserted units"),
], ids=["conjunction", "renamed_variables", "nested_conjunction", "false", "conjecture"])
def test_a_unit_that_denies_asserted_units_refutes(text, detail):
    got = miniprover.decide_tptp_text(text, timeout_s=10)
    assert got.status in ("Unsatisfiable", "Theorem") and got.detail == detail


@pytest.mark.parametrize("text", [
    # a conjunct no unit asserts
    "fof(f, axiom, p(a)).\nfof(n, axiom, ~(p(a) & p(b))).\n",
    # one variable twice is not two variables
    "fof(f, axiom, ![X]: p(X, X)).\nfof(n, axiom, ~![X, Y]: p(X, Y)).\n",
], ids=["unasserted_conjunct", "other_binding"])
def test_a_unit_that_denies_no_asserted_unit_refutes_nothing(text):
    assert closed_structure._denial(named(parse_tptp(text)), Clock()) is None
    assert miniprover.decide_tptp_text(text, timeout_s=10).status == "Satisfiable"


def test_definitions_in_a_cycle_merge_nothing():
    text = ("fof(d_p, axiom, ![X]: (p(X, a) <=> r(X, b))).\n"
            "fof(d_r, axiom, ![X]: (r(X, b) <=> p(X, a))).\n")
    units = named(parse_tptp(text))
    assert _merge(units) == (units, "")


X, Y, Z, W = Var("X"), Var("Y"), Var("Z"), Var("W")


@pytest.mark.parametrize("f, g", [
    # the variable after an inner binding of its name is the outer one:
    # ∀X ∃Y ∀W (∃X p(X) ∧ r(X, W)) says r of every X, the other of one Y
    (Forall(("X",), Exists(("Y",), Forall(("W",), AndN((
        Exists(("X",), Atom("p", (X,))), Atom("r", (X, W))))))),
     Forall(("X",), Exists(("Y",), Forall(("W",), AndN((
         Exists(("Y",), Atom("p", (Y,))), Atom("r", (Y, W)))))))),
    (Atom("p", (Func("f", (Const("a"), Const("b"))),)),
     Atom("p", (Func("f", (Const("a"),)), Const("b")))),
    (Atom("p", (Const("a"), Const("b"))), Atom("p", (Const("b"), Const("a")))),
    (Forall(("X", "Y"), Atom("p", (X, Y))), Forall(("Y", "X"), Atom("p", (X, Y)))),
], ids=["shadowed", "function_arguments", "argument_order", "binding_order"])
def test_formulas_that_differ_beyond_bound_names_have_other_tokens(f, g):
    assert closed_structure._canonical(f, Clock()) != closed_structure._canonical(g, Clock())


def test_a_renamed_formula_has_the_same_tokens():
    f = Forall(("X",), Exists(("Y",), AndN((Atom("r", (X, Y)), Exists(("X",), Atom("p", (X,)))))))
    g = Forall(("Z",), Exists(("X",), AndN((Atom("r", (Z, X)), Exists(("Y",), Atom("p", (Y,)))))))
    assert closed_structure._canonical(f, Clock()) == closed_structure._canonical(g, Clock())


def _raw(units) -> str:
    """The status of the unmerged problem's clauses, in a short budget."""
    formulas = [u.body for u in units if u.role != "conjecture"]
    return miniprover.decide_clauses(miniprover.clausify(formulas), within(0.5)).status


DECIDED = {"Satisfiable", "Unsatisfiable"}


def test_merged_and_unmerged_problems_answer_alike():
    # on the families and on every corpus case, validated and contained in
    # itself: where both decide, the merged units and the raw clauses agree
    tasks = []
    for n, i in ONE_EDIT[:2]:
        family = shape_family(n)
        tasks += [_task(a, b) for a, b in [(family, _raised(family, i)),
                                           (_raised(family, i), family), (family, family),
                                           (family, _lowered(family, i))]]
    for case in CASES:
        shapes = load_shapes(case.shapes_ttl)
        tasks.append(DecisionTask(TaskKind.VALIDATION, shapes,
                                  data_graph=load_graph(case.data_ttl)))
        tasks.append(DecisionTask(TaskKind.CONTAINMENT, shapes,
                                  shape_graph_b=load_shapes(case.shapes_ttl)))
    both = 0
    for task in tasks:
        units = build_problem(task).formulas
        merged = closed_structure.decide_units(units, within(0.5)).status
        raw = _raw(units)
        if merged in DECIDED and raw in DECIDED:
            both += 1
            assert merged == raw, task
    assert both >= 2 * len(CASES)
