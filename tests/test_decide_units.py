"""The built-in prover decides the emitted units as it decides their text.

`decide.run_prover` hands the built-in prover the document's units and
renders them only for a file.  That is the same problem because parsing
the rendered text gives back the same units, and because deciding the
units does not depend on how their nodes are shared.
"""

import time

import pytest

from conftest import load_graph, load_shapes, path_list, within
from corpus import CASES
from shacl2fol import closed_structure, miniprover, sat, tptp_parse
from shacl2fol.decide import DecisionTask, TaskKind, build_problem
from shacl2fol.fol import (
    AndN, Atom, Const, Distinct, Eq, Exists, Forall, Implies, NotN, OrN,
    TptpFormula, Var, disj,
)
from shacl2fol.tptp import Dialect, EmitOptions, TptpDocument, render
from shacl2fol.tptp_parse import parse_tptp
from test_acceptance import (
    CONTRADICTION, SHAPES_EMPTY, SHAPES_ONE_TARGET, SHAPES_TWO_TARGETS,
    UNTARGETED_CONTRADICTION,
)

TIMEOUT = 10


def _validations(case):
    for dialect in Dialect:
        yield dialect.value, DecisionTask(
            TaskKind.VALIDATION, load_shapes(case.shapes_ttl),
            data_graph=load_graph(case.data_ttl), options=EmitOptions(dialect=dialect),
        )


def _sat(ttl, strong=None):
    return DecisionTask(TaskKind.SATISFIABILITY, load_shapes(ttl), strong_sat_shapes=strong)


def _contains(a_ttl, b_ttl):
    return DecisionTask(TaskKind.CONTAINMENT, load_shapes(a_ttl),
                        shape_graph_b=load_shapes(b_ttl))


# the satisfiability and containment problems of acceptance criteria 5 and 6
ACCEPTANCE = {
    "sat_empty": lambda: _sat(SHAPES_EMPTY),
    "sat_contradiction": lambda: _sat(CONTRADICTION),
    "sat_untargeted_contradiction": lambda: _sat(UNTARGETED_CONTRADICTION),
    "strong_sat_untargeted_contradiction": lambda: _sat(UNTARGETED_CONTRADICTION, []),
    "two_targets_in_itself": lambda: _contains(SHAPES_TWO_TARGETS, SHAPES_TWO_TARGETS),
    "one_target_in_itself": lambda: _contains(SHAPES_ONE_TARGET, SHAPES_ONE_TARGET),
    "empty_in_itself": lambda: _contains(SHAPES_EMPTY, SHAPES_EMPTY),
    "two_targets_in_one_target": lambda: _contains(SHAPES_TWO_TARGETS, SHAPES_ONE_TARGET),
    "empty_in_one_target": lambda: _contains(SHAPES_EMPTY, SHAPES_ONE_TARGET),
}


def _decided_alike(doc):
    """The rendered text parses to the document's units, and the units
    are decided as the text is."""
    text = render(doc)
    assert parse_tptp(text) == doc.formulas
    units = closed_structure.decide_units(doc.formulas, within(TIMEOUT))
    read = miniprover.decide_tptp_text(text, timeout_s=TIMEOUT)
    assert (units.status, units.detail) == (read.status, read.detail)
    return units


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_validation_units_read_back_and_decide_as_their_text(case):
    for mode, task in _validations(case):
        got = _decided_alike(build_problem(task))
        assert got.status in ("Satisfiable", "Unsatisfiable"), (mode, got)


@pytest.mark.parametrize("name", sorted(ACCEPTANCE))
def test_acceptance_units_read_back_and_decide_as_their_text(name):
    got = _decided_alike(build_problem(ACCEPTANCE[name]()))
    assert got.status in ("Satisfiable", "Unsatisfiable"), got


# --- one node in several positions -------------------------------------------

X, Y = Var("X"), Var("Y")
A, B = Const("a"), Const("b")


def _p(t):
    return Atom("p", (t,))


def _q(t):
    return Atom("q", (t,))


@pytest.mark.parametrize("p_holds_at_b, status, failure", [
    (True, "Satisfiable", ""),
    (False, "Unsatisfiable", "; fails shared_prefix at X = b"),
], ids=["holds", "fails"])
def test_a_node_shared_between_units_is_decided_as_its_text(p_holds_at_b, status, failure):
    """The closed-structure check keys its quantifier plans and operand
    indexes by node identity.  A parsed problem never shares a node
    between positions, but a built document may: here one `Forall`
    object is a unit of its own, an operand of a second unit, and nested
    under an `∃` in a third."""
    shared = Forall(("X",), Implies(_q(X), _p(X)))
    p_tuples = (A, B) if p_holds_at_b else (A,)
    units = [
        TptpFormula("closure_p", "axiom",
                    Forall(("X",), Implies(_p(X), disj([Eq(X, c) for c in p_tuples])))),
        TptpFormula("closure_q", "axiom",
                    Forall(("X",), Implies(_q(X), OrN((Eq(X, A), Eq(X, B)))))),
        *(TptpFormula(f"p_{c.name}", "axiom", _p(c)) for c in p_tuples),
        TptpFormula("q_a", "axiom", _q(A)),
        TptpFormula("q_b", "axiom", _q(B)),
        TptpFormula("una", "axiom", Distinct((A, B))),
        TptpFormula("shared_prefix", "axiom", shared),
        TptpFormula("shared_operand", "axiom", AndN((_q(A), shared))),
        TptpFormula("shared_nested", "axiom",
                    NotN(Exists(("Y",), AndN((_q(Y), NotN(shared)))))),
    ]
    doc = TptpDocument(Dialect.TFF, units)
    got = _decided_alike(doc)
    assert (got.status, got.detail) == (status, "closed structure of 2 elements" + failure)


def test_the_clock_of_a_text_starts_before_its_parse(monkeypatch):
    """`decide_tptp_text` gives `decide_units` only the time its parse
    leaves: a parse that outlasts the timeout leaves none."""
    text = render(build_problem(ACCEPTANCE["sat_empty"]()))
    assert miniprover.decide_tptp_text(text, timeout_s=TIMEOUT).status == "Satisfiable"
    parse = tptp_parse.parse_tptp

    def slow_parse(text, clock=None):
        time.sleep(0.4)
        return parse(text, clock)

    monkeypatch.setattr(tptp_parse, "parse_tptp", slow_parse)
    assert miniprover.decide_tptp_text(text, timeout_s=0.3).status == "Timeout"


def test_the_parse_and_the_units_share_one_clock(monkeypatch):
    """`decide_tptp_text` makes one clock of its timeout, parses on it,
    and hands `decide_units` that same clock."""
    clocks = []
    parse, decide = tptp_parse.parse_tptp, closed_structure.decide_units

    def parsing(text, clock=None):
        clocks.append(clock)
        return parse(text, clock)

    def deciding(units, clock, candidates=()):
        clocks.append(clock)
        return decide(units, clock, candidates)

    monkeypatch.setattr(tptp_parse, "parse_tptp", parsing)
    monkeypatch.setattr(closed_structure, "decide_units", deciding)
    text = render(build_problem(ACCEPTANCE["sat_empty"]()))
    before = time.monotonic()
    assert miniprover.decide_tptp_text(text, timeout_s=TIMEOUT).status == "Satisfiable"
    assert len(clocks) == 2 and clocks[0] is clocks[1]
    assert before + TIMEOUT <= clocks[0].deadline <= time.monotonic() + TIMEOUT


def test_a_parse_the_clock_cuts_answers_timeout(monkeypatch):
    """The parse of a text reports to the deadline's clock: past it, the
    answer is Timeout and no unit is decided."""
    text = "fof(wide, axiom, " + " & ".join(f"p(c{i})" for i in range(1200)) + ")."
    monkeypatch.setattr(closed_structure, "decide_units", None)  # not to be called
    assert miniprover.decide_tptp_text(text, timeout_s=-1).status == "Timeout"


@pytest.fixture(scope="module")
def sequence_40000():
    """The units of the `sat` problem of a 40,000-member sequence path,
    whose clausal form has one clause of 40,000 literals."""
    return build_problem(_sat(path_list(40_000, False))).formulas


def test_a_short_budget_ends_near_its_deadline(sequence_40000):
    """Each pass before the SAT search reports its work to the one clock,
    so a 0.1 s budget answers Timeout within a second."""
    start = time.monotonic()
    got = closed_structure.decide_units(sequence_40000, within(0.1))
    assert time.monotonic() - start < 1
    assert got.status == "Timeout"


def test_a_budget_under_the_tokenization_ends_near_its_deadline(sequence_40000, monkeypatch):
    """The tokenizer reads the clock between slices of the text: a budget
    spent before the 4.9 MB text is read answers Timeout after one slice
    of it."""
    text = render(TptpDocument(Dialect.TFF, sequence_40000))
    spans = []
    token = tptp_parse._TOKEN

    class Watched:
        def findall(self, text, *span):
            spans.append(span)
            return token.findall(text, *span)

    monkeypatch.setattr(tptp_parse, "_TOKEN", Watched())
    assert miniprover.decide_tptp_text(text, timeout_s=0).status == "Timeout"
    assert len(spans) == 1 and spans[0][1] - spans[0][0] < 2 * tptp_parse._SLICE < len(text) / 10


def test_a_40000_member_validation_is_decided_within_its_budget():
    """The check plans a quantifier's variables against the one growing
    set of those bound, and reports each to the clock: the sequence
    path's 40,000 variables are planned in linear time, and `ex:a`,
    with an `ex:p0` value but no `ex:p1` one, fails its target."""
    units = build_problem(DecisionTask(
        TaskKind.VALIDATION, load_shapes(path_list(40_000, False)),
        data_graph=load_graph("@prefix ex: <http://example.org/> .\nex:a ex:p0 ex:b .\n"),
    )).formulas
    start = time.monotonic()
    got = closed_structure.decide_units(units, within(1))
    assert time.monotonic() - start < 2
    assert (got.status, got.detail) == ("Unsatisfiable", "closed structure of 3 elements; fails target")


def test_a_budget_spent_in_clausify_answers_timeout(monkeypatch, sequence_40000):
    """A deadline that passes while the units are clausified answers
    Timeout: the exception stops there, and no procedure runs.  The
    candidate structure is stubbed to be inapplicable, so that nothing is
    read, merged or evaluated before clausify, the pass the clock cuts."""
    cut = []
    clausify = miniprover.clausify

    def watched(formulas, clock):
        try:
            return clausify(formulas, clock)
        except sat.TimeBudgetExceeded:
            cut.append(clock)
            raise

    def inapplicable(units, clock=None):
        raise closed_structure._Inapplicable()

    monkeypatch.setattr(closed_structure, "ClosedStructure", inapplicable)
    monkeypatch.setattr(miniprover, "clausify", watched)
    monkeypatch.setattr(miniprover, "decide_clauses", None)  # not to be called
    assert closed_structure.decide_units(sequence_40000, within(0)).status == "Timeout"
    assert len(cut) == 1
