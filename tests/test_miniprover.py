import gc
import itertools
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIZES, clause_sets, load_graph, load_shapes, path_list, within
from corpus import CASES, PREFIXES
from shacl2fol import cli, closed_structure, miniprover, oracle, sat
from shacl2fol.clausify import DISTINCT, EQ, Literal, clausify, term_vars
from shacl2fol.decide import (
    DecisionTask, ProverConfig, TaskKind, build_problem, run_task,
)
from shacl2fol.fol import (
    ASSERTED_ROLES, Atom, Const, Distinct, Eq, Exists, Forall, Func, Implies, NotN, OrN, Var,
)
from shacl2fol.tptp import render
from shacl2fol.tptp_parse import parse_tptp
from test_acceptance import SHAPES_EMPTY, SHAPES_ONE_TARGET, SHAPES_TWO_TARGETS

A, B, C = Const("a"), Const("b"), Const("c")
X, Y = Var("X"), Var("Y")


def decide(formulas):
    return miniprover.decide_clauses(clausify(formulas), within(10))


def apart_of(clauses):
    """The unique-name index that the procedures build of `clauses`."""
    return closed_structure.Apart(map(miniprover._kept_apart, clauses), sat.Clock())


@pytest.fixture(scope="module")
def sequence_10000():
    """The clauses of the `emit sat` problem of a 10,000-member sequence
    path: one clause of 10,000 guards among 10,008 small ones."""
    doc = build_problem(DecisionTask(
        TaskKind.SATISFIABILITY, load_shapes(path_list(10_000, False))))
    return clausify([u.body for u in parse_tptp(render(doc))])


class TestDecideClauses:
    def test_empty_theory_satisfiable(self):
        assert decide([]).status == "Satisfiable"

    def test_single_fact_satisfiable(self):
        assert decide([Atom("p", (A,))]).status == "Satisfiable"

    def test_direct_contradiction(self):
        got = decide([Atom("p", (A,)), NotN(Atom("p", (A,)))])
        assert got.status == "Unsatisfiable"

    def test_universal_contradiction(self):
        got = decide([
            Forall(("X",), Implies(Atom("p", (X,)), Atom("q", (X,)))),
            Atom("p", (A,)),
            NotN(Atom("q", (A,))),
        ])
        assert got.status == "Unsatisfiable"

    def test_existential_witness_satisfiable(self):
        got = decide([
            Exists(("X",), Atom("p", (X,))),
            NotN(Atom("p", (A,))),
        ])
        assert got.status == "Satisfiable"

    def test_equality_chain_refuted(self):
        got = decide([Eq(A, B), Eq(B, C), NotN(Eq(A, C))])
        assert got.status == "Unsatisfiable"

    def test_predicate_congruence(self):
        got = decide([Eq(A, B), Atom("p", (A,)), NotN(Atom("p", (B,)))])
        assert got.status == "Unsatisfiable"

    def test_skolem_congruence(self):
        # ![X]: ?[Y]: r(X, Y) gives a skolem f; a = b forces f(a) = f(b)
        got = decide([
            Forall(("X",), Exists(("Y",), Atom("r", (X, Y)))),
            Eq(A, B),
            Forall(("X",), Implies(Atom("r", (A, X)), Atom("g", (X,)))),
            Forall(("X",), Implies(Atom("r", (B, X)), NotN(Atom("g", (X,))))),
        ])
        assert got.status == "Unsatisfiable"

    def test_distinct_constants_still_satisfiable(self):
        got = decide([NotN(Eq(A, B)), NotN(Eq(B, C)), NotN(Eq(A, C))])
        assert got.status == "Satisfiable"

    def test_disjunction_case_split(self):
        got = decide([
            OrN((Atom("p", (A,)), Atom("q", (A,)))),
            NotN(Atom("p", (A,))),
            NotN(Atom("q", (A,))),
        ])
        assert got.status == "Unsatisfiable"


def plan_reference(lits, guards=(), first=0):
    """`miniprover._plan` with its guard order written out directly: each
    next guard is a `max` over the guards left, scored by their arguments
    already ground, the first in `guards` on a tie.  Quadratic in the
    guards, so only small clauses go through it."""
    arg_vars = [[{v.name for v in term_vars(a)} for a in lit.args] for lit in lits]
    lit_vars = [set().union(*names) for names in arg_vars]
    bound, levels, depth = set(), [], {}

    def bind(names):
        bound.update(names)
        depth.update(dict.fromkeys(names, len(levels)))

    todo = list(guards)
    while todo:
        g = guards[first] if not levels else \
            max(todo, key=lambda i: sum(names <= bound for names in arg_vars[i]))
        todo.remove(g)
        args = lits[g].args
        for name in sorted(lit_vars[g] - bound - {a.name for a in args if isinstance(a, Var)}):
            levels.append(name)
            bind((name,))
        keyed = tuple(p for p, names in enumerate(arg_vars[g]) if names <= bound)
        names = {}
        for p, t in enumerate(args):
            if p not in keyed and isinstance(t, Var) and t.name not in names.values():
                names[p] = t.name
        checks = tuple((p, t) for p, t in enumerate(args) if p not in keyed and p not in names)
        order = -1 if g == guards[first] else int(guards.index(g) > first)
        levels.append(miniprover._Guard(g, tuple(names.get(p) for p in range(len(args))),
                                        keyed, checks, order))
        bind(names.values())
    for name in sorted(set().union(*lit_vars) - bound):
        levels.append(name)
        bind((name,))
    ready = [[] for _ in range(len(levels) + 1)]
    for i, names in enumerate(lit_vars):
        ready[max((depth[n] for n in names if n in depth), default=0)].append(i)
    return levels, ready


class TestPlan:
    @settings(max_examples=200, deadline=None)
    @given(clause_sets(functions=True))
    def test_same_plans_as_the_max_over_the_guards_left(self, clauses):
        # each clause, and one wide clause of every literal, planned from
        # each of its guards and without guards
        for cl in [*clauses, frozenset().union(*clauses)]:
            lits = miniprover._ordered(cl, sat.Clock())
            guards = tuple(i for i, lit in enumerate(lits) if not lit.positive)
            for first in range(len(guards)):
                assert miniprover._plan(lits, guards, first, sat.Clock()) \
                    == plan_reference(lits, guards, first)
            assert miniprover._plan(lits, (), 0, sat.Clock()) == plan_reference(lits)

    def test_ordering_and_planning_stop_at_a_spent_deadline(self, sequence_10000, monkeypatch):
        # each literal of the 10,000-guard clause is one tick of the clock
        # as it is keyed and as it is planned, so a spent budget stops both
        # at the clock's first read, after fewer than 4,096 literals
        wide = max(sequence_10000, key=len)
        lits = miniprover._ordered(wide, sat.Clock())
        guards = tuple(i for i, lit in enumerate(lits) if not lit.positive)
        assert len(guards) > 4096 and all(len(lit.args) <= 2 for lit in lits)
        calls = {"_args_key": 0, "term_vars": 0}
        for name in calls:
            def counted(*args, f=getattr(miniprover, name), name=name):
                calls[name] += 1
                return f(*args)
            monkeypatch.setattr(miniprover, name, counted)
        with pytest.raises(sat.TimeBudgetExceeded):
            miniprover._ordered(wide, sat.Clock(time.monotonic() - 1))
        assert 0 < calls["_args_key"] < 4096
        with pytest.raises(sat.TimeBudgetExceeded):
            miniprover._plan(lits, guards, 0, sat.Clock(time.monotonic() - 1))
        assert 0 < calls["term_vars"] < 2 * 4096

    def test_the_unique_name_tables_stop_at_a_spent_deadline(self, sequence_10000):
        # each of the 10,009 clauses is one tick of the clock as it is read
        # for the constants it keeps apart, so a spent budget stops the
        # index at the clock's first read, at the 4,096th clause
        assert len(sequence_10000) > 2 * 4096
        calls = 0

        def counted(cl):
            nonlocal calls
            calls += 1
            return miniprover._kept_apart(cl)

        with pytest.raises(sat.TimeBudgetExceeded):
            closed_structure.Apart(map(counted, sequence_10000), within(-1))
        assert calls == 4096

    def test_the_order_keys_are_the_arguments_reprs(self):
        args = (Var("X"), Const("it's"), Func("f", (Const('"q"'), Func("g", ()))), Var("\\"))
        for k in range(len(args) + 1):
            assert miniprover._args_key(args[:k]) == repr(args[:k])

    def test_a_chain_of_3000_guards_is_planned_quickly(self):
        chain = [Literal(False, "r", (Var(f"X{i}"), Var(f"X{i + 1}"))) for i in range(3000)]
        start = time.monotonic()
        levels, ready = miniprover._plan(chain, tuple(range(3000)), 1500, sat.Clock())
        assert time.monotonic() - start < 0.5
        # each next guard has one argument ground; on a tie the first wins
        assert [level.lit for level in levels] \
            == [1500, *range(1499, -1, -1), *range(1501, 3000)]

    def test_a_10000_member_sequence_path_keeps_the_timeout(self, sequence_10000):
        # 10,000 guards in one clause: every plan counts against the clock,
        # which cuts the attempts, so the status is Timeout
        start = time.monotonic()
        got = miniprover.decide_clauses(sequence_10000, within(2))
        assert time.monotonic() - start < 4
        assert got.status == "Timeout"


class TestGround:
    def test_drops_true_instances_false_literals_and_outside_terms(self):
        # universe {a, f(a)}, the elements 0 and 1; p is fixed (p(a) true,
        # p(f(a)) false), q(t) is a SAT variable, and f(f(a)) lies outside
        pool = miniprover._VarPool()
        relevant = miniprover._Relevant({"a": 0, ("f", (0,)): 1}, 2, pool)

        def encode(lit, env):
            arg = relevant.value(lit.args[0], env)
            if arg is None:
                return None
            if lit.pred == "p":
                return None if arg == 0 else 0
            return pool.get(("p", "q", (arg,)))

        p_or_q = [Literal(True, "p", (X,)), Literal(True, "q", (X,))]
        q_of_f = [Literal(True, "q", (Func("f", (X,)),))]
        got = miniprover._ground([p_or_q, q_of_f], relevant, encode, sat.Clock())
        # p_or_q: X=a is true and dropped, X=f(a) keeps only q(f(a));
        # q_of_f: X=a gives q(f(a)) again, kept once, and X=f(a) names
        # f(f(a)) and is dropped
        assert got == [(1,)]
        assert pool.keys == [("p", "q", (1,))]

    def test_grounding_leaves_no_garbage_per_clause(self):
        # with the cyclic collector off, what one refutation and one model
        # search leave unreachable must not grow with the clause count
        def garbage(n):
            clauses = [frozenset({Literal(True, f"p{i}", (X,)),
                                  Literal(False, f"q{i}", (X, A))}) for i in range(n)]
            gc.collect()
            gc.disable()
            try:
                miniprover.refute(clauses)
                miniprover.find_model(clauses, 2)
                return gc.collect()
            finally:
                gc.enable()

        assert garbage(100) == garbage(10)

    def test_a_guard_binds_only_from_the_atoms_that_can_be_true(self):
        # over twenty constants, q(c3, c4) and q(c7, c8) are the only q
        # atoms that can be true: the guard ~q(X, Y) binds X and Y from
        # them, and the other 398 bindings are never made
        pool = miniprover._VarPool()
        relevant = miniprover._Relevant({f"c{i}": i for i in range(20)}, 20, pool)
        seen = []

        def encode(lit, env):
            seen.append((lit.pred, dict(env)))
            v = pool.get(("p", lit.pred, tuple(relevant.value(a, env) for a in lit.args)))
            return v if lit.positive else -v

        facts = [[Literal(True, "q", (Const(f"c{i}"), Const(f"c{i + 1}")))] for i in (3, 7)]
        guarded = [Literal(False, "q", (X, Y)), Literal(True, "p", (Y,))]
        got = miniprover._ground(facts + [guarded], relevant, encode, sat.Clock())
        assert got == [(1,), (2,), (-1, 3), (-2, 4)]
        assert seen[2:] == [("q", {"X": 3, "Y": 4}), ("p", {"X": 3, "Y": 4}),
                            ("q", {"X": 7, "Y": 8}), ("p", {"X": 7, "Y": 8})]


# a random clause set over the universe {a, b, f(a)}, with an encoding of
# its ground literals drawn as a table: no side effects, so any order of
# encoding gives the same codes
GROUND_UNIVERSE = [A, B, Func("f", (A,))]
GROUND_VARS = [X, Y, Var("Z")]
GROUND_TERMS = GROUND_VARS + [A, Func("f", (X,)), Func("f", (Y,))]


def _ground_term(t, env):
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return t
    gt = Func(t.name, tuple(_ground_term(a, env) for a in t.args))
    return gt if gt in GROUND_UNIVERSE else None


@st.composite
def ground_problems(draw):
    literal = st.builds(
        lambda positive, pred, args: Literal(positive, pred, tuple(args)),
        st.booleans(), st.sampled_from(["p", "q"]),
        st.lists(st.sampled_from(GROUND_TERMS), min_size=1, max_size=2))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=4), max_size=4))
    table = draw(st.dictionaries(
        st.tuples(st.sampled_from(["p", "q"]), st.booleans(),
                  st.lists(st.sampled_from(GROUND_UNIVERSE), min_size=1, max_size=2)
                  .map(tuple)),
        st.sampled_from([None, 0, 1, -2, 3])))

    def encode(lit, env):
        args = tuple(_ground_term(a, env) for a in lit.args)
        if None in args:
            return None
        return table.get((lit.pred, lit.positive, args), 7)

    return clauses, encode


def ground_reference(clauses, values, encode):
    """Every instance over `itertools.product`, each literal encoded."""
    prop = []
    for lits in clauses:
        names = sorted({v.name for lit in lits for a in lit.args for v in term_vars(a)})
        for inst in itertools.product(values, repeat=len(names)):
            env = dict(zip(names, inst))
            codes = [encode(lit, env) for lit in lits]
            if None not in codes:
                prop.append(tuple(c for c in codes if c))
    return prop


class TestGroundPruning:
    @settings(max_examples=200, deadline=None)
    @given(ground_problems())
    def test_without_guards_the_same_instances_as_the_product(self, problem):
        # with every literal positive no clause has a guard, so the
        # grounding keeps each instance of the product, once, as a set of
        # its literals; the pool's seven keys are table entries, which
        # make no atom possibly true
        clauses, encode = problem
        clauses = [[Literal(True, lit.pred, lit.args) for lit in lits] for lits in clauses]
        pool = miniprover._VarPool()
        for i in range(7):
            pool.get(("a", f"c{i}", 0))
        ids = {"a": 0, "b": 1, ("f", (0,)): 2}  # GROUND_UNIVERSE's elements
        relevant = miniprover._Relevant(ids, len(GROUND_UNIVERSE), pool)

        def encode_elements(lit, env):
            return encode(lit, {name: GROUND_UNIVERSE[e] for name, e in env.items()})

        got = miniprover._ground(clauses, relevant, encode_elements, sat.Clock())
        assert len(got) == len(set(got))
        assert set(got) == {tuple(sorted(set(codes)))
                            for codes in ground_reference(clauses, GROUND_UNIVERSE, encode)}

    def test_a_true_literal_prunes_the_later_variables(self):
        # p(X) is bound first and true for X = a: no binding of Y or Z
        # below X = a is ever made
        seen = []
        pool = miniprover._VarPool()
        relevant = miniprover._Relevant({"a": 0, "b": 1}, 2, pool)

        def encode(lit, env):
            seen.append((lit.pred, dict(env)))
            if lit.pred == "p" and env["X"] == 0:
                return None
            return pool.get(("p", lit.pred, tuple(env[a.name] for a in lit.args)))

        clause = [Literal(True, "p", (X,)), Literal(True, "q", (X, Y, Var("Z")))]
        got = miniprover._ground([clause], relevant, encode, sat.Clock())
        assert got == [(1, 2), (1, 3), (1, 4), (1, 5)]
        assert seen[0] == ("p", {"X": 0})
        assert all(env["X"] == 1 for _, env in seen[1:])
        assert len(seen) == 1 + 1 + 4  # p(a), p(b), then q under X = b


class TestCongruenceLemmas:
    """`refute` adds the ground equality theory (transitivity, function and
    predicate congruence) only as rows a model violates."""

    def test_lemma_through_a_skolem_term(self, monkeypatch):
        # p(c), f(c) = c, ~p(f(c)): p(f(c)) cannot be true before the
        # congruence lemma arrives, so the first solve gets the two facts;
        # its model makes p(f(c)) false and violates one row, p(c) and
        # c = f(c) -> p(f(c)); that row's conclusion lets the guard
        # ~p(f(c)) match, and the second solve gets the two facts, the row
        # and ~p(f(c)), and refutes
        fc = Func("f", (C,))
        clauses = clausify([Atom("p", (C,)), Eq(fc, C), NotN(Atom("p", (fc,)))])
        calls = counting_solve(monkeypatch)
        assert miniprover.refute(clauses) is True
        assert [len(prop) for prop in calls] == [2, 4]
        assert decide([Atom("p", (C,)), Eq(fc, C), NotN(Atom("p", (fc,)))]).status \
            == "Unsatisfiable"

    def test_two_rounds(self, monkeypatch):
        # r(a, a), a = b, ~r(b, b): the first round gives r(b, a) and
        # r(a, b), and only the second reaches r(b, b)
        clauses = clausify([Atom("r", (A, A)), Eq(A, B), NotN(Atom("r", (B, B)))])
        calls = counting_solve(monkeypatch)
        assert miniprover.refute(clauses) is True
        assert len(calls) == 3

    def test_no_lemma_for_a_model_that_keeps_congruence(self, monkeypatch):
        clauses = clausify([Atom("r", (A, A)), Eq(A, B), Atom("r", (B, B))])
        calls = counting_solve(monkeypatch)
        assert miniprover.refute(clauses) is None
        # the model still needs r(a, b) and r(b, a); once they hold, no
        # row is violated
        assert len(calls) == 2

    def test_function_rows_come_from_the_equal_arguments(self):
        # f(c0), ..., f(c2999) and one true equality, c0 = c1: the one row
        # the model violates, c0 = c1 -> f(c0) = f(c1), is looked up from
        # the arguments' equal terms, not found among 4.5 million pairs
        n = 3000
        pool = miniprover._VarPool()
        e = pool.get(("e", 0, 1))
        app_ids = {("f", (i,)): n + i for i in range(n)}
        start = time.monotonic()
        rows = miniprover._equality_lemmas(pool, {e: True}, app_ids,
                                           lambda pair: pool.get(("e", *pair)))
        assert rows == [(-e, pool.ids[("e", n, n + 1)])]
        assert time.monotonic() - start < 1

    def test_transitivity_over_more_than_sixteen_constants(self):
        # c0 = c1, c1 = c2 and ~(c0 = c2) among 17 constants: the one
        # transitivity row the first model violates refutes
        consts = [Const(f"c{i}") for i in range(17)]
        formulas = [Atom("p", (c,)) for c in consts] + [
            Eq(consts[0], consts[1]), Eq(consts[1], consts[2]),
            NotN(Eq(consts[0], consts[2]))]
        assert miniprover.refute(clausify(formulas)) is True
        assert decide(formulas).status == "Unsatisfiable"

    def test_function_congruence_lemma(self, monkeypatch):
        # a = b and ~(f(a) = f(b)), with f(a) and f(b) in the universe:
        # f(a) = f(b) cannot be true before the function congruence row
        # arrives, so the first solve gets a = b alone; its model violates
        # the row a = b -> f(a) = f(b), whose conclusion lets the guard
        # ~(f(a) = f(b)) match, and the second solve gets a = b, the row
        # and ~(f(a) = f(b)), and refutes
        fa, fb = Func("f", (A,)), Func("f", (B,))
        clauses = clausify([Eq(A, B), NotN(Eq(fa, fb))])
        calls = counting_solve(monkeypatch)
        assert miniprover.refute(clauses) is True
        assert [len(prop) for prop in calls] == [1, 3]

    @pytest.mark.parametrize("name, refuted, bound",
                             [("max_one_violates", True, 100),
                              ("less_than_conforms", None, 2_000)])
    def test_atoms_grow_only_from_kept_rows(self, name, refuted, bound, monkeypatch):
        # the atoms that can be true come from the instances kept and the
        # lemma rows alone, so no term is joined with a constant that the
        # unique-name units keep apart from it: the depth-1 refutations
        # give the solver 54 and 1,340 clauses in all, where joining such
        # constants through the Skolem terms makes it 1,092 and 3,641
        case = next(c for c in CASES if c.name == name)
        doc = build_problem(DecisionTask(
            TaskKind.VALIDATION, load_shapes(case.shapes_ttl),
            data_graph=load_graph(case.data_ttl)))
        clauses = clausify([u.body for u in parse_tptp(render(doc))])
        solved = counting_solve(monkeypatch)
        assert miniprover.refute(clauses) is refuted
        assert sum(len(prop) for prop in solved) < bound


def recording_pools(monkeypatch):
    """Record every `_VarPool` that the prover makes."""
    pools = []

    class RecordingPool(miniprover._VarPool):
        def __init__(self):
            super().__init__()
            pools.append(self)

    monkeypatch.setattr(miniprover, "_VarPool", RecordingPool)
    return pools


def counting_solve(monkeypatch):
    """Record a copy of every clause list that `sat.solve` is given."""
    calls = []
    solve = sat.solve

    def recording(prop, clock=sat.Clock()):
        calls.append(list(prop))
        return solve(prop, clock)

    monkeypatch.setattr(sat, "solve", recording)
    return calls


class TestFlatten:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_literal_is_over_values_but_for_one_shallow_term(self, data):
        clauses = data.draw(clause_sets(functions=True))
        consts, _ = miniprover._collect_signature(clauses, sat.Clock())
        size = data.draw(st.sampled_from(SIZES))
        pinned = miniprover._pin(consts, apart_of(clauses), size)

        def is_value(t):
            return isinstance(t, Var) or isinstance(t, Const) and t.name in pinned

        fresh = map("FL{}".format, itertools.count(1))
        for cl in clauses:
            for lit in miniprover._flatten_clause(cl, fresh, pinned, sat.Clock()):
                if lit.pred != EQ:
                    assert all(map(is_value, lit.args)), lit
                    continue
                left, right = lit.args
                assert is_value(left), lit
                assert isinstance(right, (Var, Const)) \
                    or isinstance(right, Func) and all(map(is_value, right.args)), lit


class TestFindModel:
    def test_model_size_matters(self):
        # p(a) and ~p(b) force a and b apart: size 1 fails, size 2 works
        clauses = clausify([Atom("p", (A,)), NotN(Atom("p", (B,)))])
        assert miniprover.find_model(clauses, 1) is None
        assert miniprover.find_model(clauses, 2) is not None

    def test_collapsing_model(self):
        # without disagreement a single element suffices even for two names
        clauses = clausify([Atom("p", (A,)), Atom("p", (B,))])
        assert miniprover.find_model(clauses, 1) is not None

    def test_no_instance_on_an_atom_that_cannot_be_true(self, monkeypatch):
        # no positive literal makes a q atom true, so the guard ~q(X) of
        # ~q(X) | p(X) matches nothing: at size 3 the solver gets the unit
        # p(a) alone, not the three instances of the product
        clauses = clausify([Atom("p", (A,)),
                            Forall(("X",), Implies(Atom("q", (X,)), Atom("p", (X,))))])
        calls = counting_solve(monkeypatch)
        assert miniprover.find_model(clauses, 3) is not None
        assert calls == [[(1,)]]


SAT_PROBLEM = """
fof(one, axiom, p(a)).
fof(two, axiom, ~q(a)).
"""

UNSAT_PROBLEM = """
fof(one, axiom, ![X]: (p(X) => q(X))).
fof(two, axiom, p(a)).
fof(three, axiom, ~q(a)).
"""

CONJECTURE_PROBLEM = """
fof(one, axiom, ![X]: (p(X) => q(X))).
fof(two, axiom, p(a)).
fof(goal, conjecture, q(a)).
"""

BAD_CONJECTURE_PROBLEM = """
fof(one, axiom, p(a)).
fof(goal, conjecture, q(a)).
"""


class TestTptpEntry:
    def test_axioms_only(self):
        assert miniprover.decide_tptp_text(SAT_PROBLEM).status == "Satisfiable"
        assert miniprover.decide_tptp_text(UNSAT_PROBLEM).status == "Unsatisfiable"

    def test_conjecture_statuses(self):
        assert miniprover.decide_tptp_text(CONJECTURE_PROBLEM).status == "Theorem"
        assert (
            miniprover.decide_tptp_text(BAD_CONJECTURE_PROBLEM).status
            == "CounterSatisfiable"
        )


class TestMain:
    def test_szs_line(self, tmp_path, capsys):
        f = tmp_path / "problem.p"
        f.write_text(UNSAT_PROBLEM)
        assert miniprover.main([str(f)]) == 0
        out = capsys.readouterr().out
        assert f"% SZS status Unsatisfiable for {f}" in out

    def test_parse_only(self, tmp_path, capsys):
        good = tmp_path / "good.p"
        good.write_text(SAT_PROBLEM)
        assert miniprover.main([str(good), "--parse-only"]) == 0
        assert "SZS status Success" in capsys.readouterr().out

        bad = tmp_path / "bad.p"
        bad.write_text("fof(broken, axiom, p(a).")
        assert miniprover.main([str(bad), "--parse-only"]) == 1
        assert "SZS status SyntaxError" in capsys.readouterr().out

    def test_run_as_a_module_it_is_imported_once(self, tmp_path):
        # the closed structure leaves minCount 2 in minCount 1 to the
        # clausal procedures, which `decide_units` imports: as the module
        # already running, not as a second copy
        for n in (1, 2):
            (tmp_path / f"min{n}.ttl").write_text(PREFIXES + (
                "ex:S a sh:NodeShape ; sh:targetClass ex:C ;\n"
                f"  sh:property [ sh:path ex:p ; sh:minCount {n} ] .\n"))
        problem = tmp_path / "problem.p"
        assert cli.main(["emit", "contains", str(tmp_path / "min2.ttl"),
                         str(tmp_path / "min1.ttl"), "--out", str(problem)]) == 0
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "shacl2fol.miniprover", str(problem)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "% SZS status Unsatisfiable" in proc.stdout
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "shacl2fol.clausify" in imported
        assert "shacl2fol.miniprover" not in imported

    @pytest.mark.parametrize("parse_only", [[], ["--parse-only"]], ids=["decide", "parse_only"])
    @pytest.mark.parametrize("text", [
        "fof(a, axiom, p(a).", "tff(a, conjecture, $distinct(a, b)).",
    ], ids=["unclosed", "distinct_conjecture"])
    def test_syntax_error_is_reported(self, text, parse_only, tmp_path, capsys):
        f = tmp_path / "problem.p"
        f.write_text(text)
        assert miniprover.main([str(f), *parse_only]) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert out.startswith(f"% SZS status SyntaxError for {f} : ")

    @pytest.mark.parametrize("dialect", ["fof", "tff"])
    @pytest.mark.parametrize("role", sorted(ASSERTED_ROLES))
    def test_each_asserted_role_is_asserted(self, role, dialect, tmp_path, capsys):
        # `$false`, and a fact, which is one coarse token, with its denial
        f = tmp_path / "problem.p"
        for text in (f"{dialect}(a, {role}, $false).\n",
                     f"{dialect}(f, {role}, p(c)).\n{dialect}(n, {role}, ~p(c)).\n"):
            f.write_text(text)
            assert miniprover.main([str(f)]) == 0
            assert capsys.readouterr().out.startswith(f"% SZS status Unsatisfiable for {f}\n")

    @pytest.mark.parametrize("dialect", ["fof", "tff"])
    @pytest.mark.parametrize("unit, message", [
        ("(a, axion, $false).", "unknown role 'axion'"),
        ("(a, axion, p(c)).", "unknown role 'axion'"),
        ("((, axiom, p).", "bad unit name '('"),
        ("(A, axiom, p(c)).", "bad unit name 'A'"),
    ], ids=["misspelt_role", "misspelt_role_of_a_fact", "parenthesis_as_name",
            "variable_as_name"])
    def test_a_bad_role_or_name_is_a_syntax_error(self, unit, message, dialect, tmp_path,
                                                    capsys):
        f = tmp_path / "problem.p"
        f.write_text(dialect + unit + "\n")
        assert miniprover.main([str(f)]) == 1
        assert capsys.readouterr().out == f"% SZS status SyntaxError for {f} : {message}\n"

    @pytest.mark.parametrize("parse_only", [[], ["--parse-only"]], ids=["decide", "parse_only"])
    @pytest.mark.parametrize("content", [b"\xff\xfe", None], ids=["not_utf8", "missing"])
    def test_unreadable_problem_is_an_input_error(self, content, parse_only, tmp_path, capsys):
        f = tmp_path / "problem.p"
        if content is not None:
            f.write_bytes(content)
        assert miniprover.main([str(f), *parse_only]) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert out.startswith(f"% SZS status InputError for {f} : ")

    @pytest.mark.parametrize("timeout", ["nan", "inf", "-inf", "abc"])
    def test_a_timeout_that_is_not_a_finite_number_is_a_usage_error(
            self, timeout, tmp_path, capsys):
        # at NaN the check and clausify would run without a limit and the
        # procedures with no time, so a decided problem would answer Timeout
        f = tmp_path / "problem.p"
        f.write_text(UNSAT_PROBLEM)
        with pytest.raises(SystemExit) as exc:
            miniprover.main([str(f), f"--timeout={timeout}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: shacl2fol-miniprover")
        assert f"--timeout: not a finite number of seconds: {timeout!r}" in captured.err


def counting(monkeypatch, name):
    """Replace miniprover.<name> by a wrapper that counts its calls."""
    calls = []
    inner = getattr(miniprover, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(miniprover, name, wrapper)
    return calls


def validate(case):
    return run_task(DecisionTask(
        TaskKind.VALIDATION, load_shapes(case.shapes_ttl),
        data_graph=load_graph(case.data_ttl),
        prover=ProverConfig("builtin", timeout_s=10),
    ))


def emitted_clauses(shapes_ttl, data_ttl):
    """The clauses of the emitted validation problem.  `decide_clauses` on
    them runs the refutation and the model search, which the validate path
    reaches only when the closed-structure check gives no answer."""
    doc = build_problem(DecisionTask(
        TaskKind.VALIDATION, load_shapes(shapes_ttl), data_graph=load_graph(data_ttl)))
    return clausify([u.body for u in parse_tptp(render(doc))])


MAX_ONE, MAX_TWO = (PREFIXES + """
ex:S a sh:NodeShape ; sh:targetSubjectsOf ex:q ;
  sh:property [ sh:path ex:p ; sh:maxCount %d ] .
""" % n for n in (1, 2))


F4_SHAPES = PREFIXES + """
ex:A a sh:NodeShape ; sh:targetClass ex:CA ;
  sh:property [ sh:path ex:p ; sh:minCount 1 ; sh:maxCount 1 ; sh:class ex:CB ] .
ex:B a sh:NodeShape ; sh:targetClass ex:CB ;
  sh:property [ sh:path ex:q ; sh:minCount 1 ; sh:maxCount 1 ; sh:class ex:CC ] .
ex:C a sh:NodeShape ; sh:targetClass ex:CC ;
  sh:property [ sh:path ex:r ; sh:minCount 1 ; sh:maxCount 2 ; sh:class ex:CA ] .
"""


class TestSchedule:
    def test_each_attempt_gets_a_slice_of_the_callers_clock(self, monkeypatch):
        # the schedule starts with 10 s left on its clock, so each attempt's
        # clock ends 0.4 * 10 s after the attempt starts, or with the
        # caller's, whichever is first; here each attempt takes 3 s (the
        # schedule's own time, which the real clock never reaches)
        start = time.monotonic() + 1000
        now = [start]
        monkeypatch.setattr(miniprover, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
        given = []

        def attempt(*args):
            given.append(args[-1])
            now[0] += 3
            return None

        monkeypatch.setattr(miniprover, "refute", attempt)
        monkeypatch.setattr(miniprover, "find_model", attempt)
        clock = sat.Clock(start + 10)
        got = miniprover.decide_clauses(clausify([Atom("p", (A,))]), clock)
        assert got.status == "GaveUp"
        # the refutation, then the sizes 1 to 4
        assert [c.deadline - start for c in given] == pytest.approx([4, 7, 10, 10, 10])
        assert all(type(c) is sat.Clock and c is not clock for c in given)

    def test_the_clausal_procedures_decide_on_a_clock_without_a_deadline(self):
        # the check gives no answer, as q is not closed, and neither does the
        # denial: the schedule runs each attempt on an unbounded clock
        units = parse_tptp("fof(a, axiom, p(a) | q(a)).\nfof(b, axiom, ~p(a)).\n"
                           "fof(c, axiom, ![X]: (q(X) => r(X))).\n")
        got = closed_structure.decide_units(units, sat.Clock())
        assert (got.status, got.detail) == ("Satisfiable", "finite model of size 1")

    @pytest.mark.parametrize("name", ["or_violates", "and_violates", "qualified_min_violates"])
    def test_violation_decided_by_refutation_before_the_model_search_grows(
            self, name, monkeypatch):
        models = counting(monkeypatch, "find_model")
        case = next(c for c in CASES if c.name == name)
        got = miniprover.decide_clauses(emitted_clauses(case.shapes_ttl, case.data_ttl), within(10))
        assert got.status == "Unsatisfiable"
        assert got.detail == "ground refutation (skolem depth 1)"
        # the refutation runs first, so no model search runs at all
        assert models == []

    @pytest.mark.parametrize("name, size", [("or_violates", 5), ("and_violates", 5),
                                            ("qualified_min_violates", 4)])
    def test_violation_decided_on_the_closed_structure(self, name, size, monkeypatch):
        # the check answers before the problem is clausified: neither the
        # refutation nor the model search runs
        refutations = counting(monkeypatch, "refute")
        models = counting(monkeypatch, "find_model")
        got = validate(next(c for c in CASES if c.name == name))
        assert got.szs_status == "Unsatisfiable"
        assert got.prover_detail == f"closed structure of {size} elements; fails target"
        assert (refutations, models) == ([], [])

    def test_function_free_clauses_run_one_refutation(self, monkeypatch):
        # satisfiable only in a one-element domain, which the search starting
        # at one element per constant never tries; one refutation runs, as
        # with function symbols (below)
        refutations = counting(monkeypatch, "refute")
        got = decide([
            Atom("p", (A,)), Atom("p", (B,)),
            Forall(("X", "Y"), Eq(X, Y)),
        ])
        assert got.status != "Unsatisfiable"
        assert len(refutations) == 1

    def test_one_refutation_with_function_symbols(self, monkeypatch):
        # p(a) and ~p(f(a)) have no model of one element, only of two: the
        # one refutation, over a and f(a), finds no contradiction, and the
        # model search goes on to the second size without refuting again
        refutations = counting(monkeypatch, "refute")
        got = decide([Atom("p", (A,)), NotN(Atom("p", (Func("f", (A,)),)))])
        assert (got.status, got.detail) == ("Satisfiable", "finite model of size 2")
        assert len(refutations) == 1

    @pytest.mark.parametrize("a_ttl, b_ttl, code, verdict",
                             [(MAX_ONE, MAX_TWO, 0, "Contained"),
                              (MAX_TWO, MAX_ONE, 1, "NotContained")],
                             ids=["one_in_two", "two_in_one"])
    def test_max_count_one_in_two(self, a_ttl, b_ttl, code, verdict, tmp_path, capsys):
        # the maxCount 2 clause has four variables over a depth-1 universe
        # of 24 terms, but the refutation keeps only the instances on the
        # p-values that can be true, a few dozen clauses; the reverse has a
        # model of three elements, a subject with two p-values
        a, b = tmp_path / "a.ttl", tmp_path / "b.ttl"
        a.write_text(a_ttl)
        b.write_text(b_ttl)
        got = cli.main(["contains", str(a), str(b),
                        "--prover", "builtin", "--timeout", "3", "--json"])
        assert (got, json.loads(capsys.readouterr().out)["verdict"]) == (code, verdict)

    def test_min_count_three_in_two_grounds_only_the_relevant_instances(self, monkeypatch):
        # the full depth-1 grounding is 17,482 clauses; the relevant ones are
        # those on the three p-values of the target node
        solved = counting_solve(monkeypatch)
        shape = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetNode ex:a ;
  sh:property [ sh:path ex:p ; sh:minCount %d ] .
"""
        assert containment(shape % 3, shape % 2).verdict.value == "Contained"
        assert sum(len(prop) for prop in solved) <= 1_000

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_max_count_two_violation_decided_at_skolem_depth_1(self, n):
        # one person with three names: the maxCount clause has four
        # variables, and the depth-1 universe is full at 24 terms, but the
        # refutation builds only the instances whose guards fall on atoms
        # that can be true, a few per name, so the one refutation over the
        # constants and the Skolem terms decides the violation
        got = miniprover.decide_clauses(emitted_clauses(*max_two_people(n)), within(10))
        assert (got.status, got.detail) == ("Unsatisfiable", "ground refutation (skolem depth 1)")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_max_count_two_violation_decided_on_the_closed_structure(self, n, tmp_path,
                                                                     capsys):
        # the person with three names is the first failing target, among
        # 2n + 4 constants
        shapes, data = tmp_path / "shapes.ttl", tmp_path / "data.ttl"
        for path, text in zip((shapes, data), max_two_people(n)):
            path.write_text(text)
        got = cli.main(["validate", str(shapes), str(data),
                        "--prover", "builtin", "--timeout", "10", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert (got, out["verdict"], out["proverDetail"]) \
            == (1, "DoesNotConform", f"closed structure of {2 * n + 4} elements; "
                "fails target at X = http://example.org/p0")

    def test_f4_has_a_model_of_size_6(self, tmp_path, capsys, monkeypatch):
        # three classes whose shapes chain p, q and r values round a cycle:
        # the size-6 search grounds only the instances whose guards fall on
        # atoms that can be true, about 1,250 clauses where the product
        # gave 33,690, so a 3 s budget leaves a wide margin
        doc = build_problem(DecisionTask(TaskKind.SATISFIABILITY, load_shapes(F4_SHAPES)))
        solved = counting_solve(monkeypatch)
        got = miniprover.decide_clauses(clausify([u.body for u in doc.formulas]), within(3))
        assert (got.status, got.detail) == ("Satisfiable", "finite model of size 6")
        assert len(solved[-1]) < 2_000
        # the command answers on the structure of the problem's facts: no
        # class has an instance, so every target holds
        shapes = tmp_path / "f4.ttl"
        shapes.write_text(F4_SHAPES)
        got = cli.main(["sat", str(shapes), "--prover", "builtin", "--timeout", "3", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert (got, out["verdict"], out["proverDetail"]) \
            == (0, "Satisfiable", "facts-only structure of 6 elements")

    def test_containment_decided_well_inside_the_timeout(self):
        start = time.monotonic()
        got = run_task(DecisionTask(
            TaskKind.CONTAINMENT, load_shapes(SHAPES_TWO_TARGETS),
            shape_graph_b=load_shapes(SHAPES_ONE_TARGET),
            prover=ProverConfig("builtin", timeout_s=10),
        ))
        assert got.verdict.value == "Contained"
        assert time.monotonic() - start < 3


def max_two_people(n):
    """`sh:maxCount 2` names per person, and n people, the first with three
    names: the shapes and the data."""
    return (PREFIXES + """
ex:S a sh:NodeShape ; sh:targetClass ex:Person ;
  sh:property [ sh:path ex:name ; sh:maxCount 2 ] .
""", PREFIXES + 'ex:p0 a ex:Person ; ex:name "n0", "n1", "n2" .\n'
        + "".join(f'ex:p{i} a ex:Person ; ex:name "m{i}" .\n' for i in range(1, n)))


def containment(a_ttl, b_ttl):
    return run_task(DecisionTask(
        TaskKind.CONTAINMENT, load_shapes(a_ttl), shape_graph_b=load_shapes(b_ttl),
        prover=ProverConfig("builtin", timeout_s=10),
    ))


PEOPLE_SHAPES = PREFIXES + """
ex:S a sh:NodeShape ; sh:targetClass ex:Person ;
  sh:property [ sh:path ex:name ; sh:minCount 1 ; sh:maxCount 1 ] .
"""


def people(n, unnamed=None):
    return PREFIXES + "".join(
        f"ex:p{i} a ex:Person" + ("" if i == unnamed else f' ; ex:name "n{i}"') + " .\n"
        for i in range(n))


class TestUniqueNames:
    """Constants that the unique-name axioms keep apart are pinned in the
    model search, and their equalities folded out of the refutation."""

    def test_refutation_builds_no_variable_for_a_false_equality(self, monkeypatch):
        # a = b is false by the unit ~(a = b): the clause a = b | b = c keeps
        # b = c (1) and a = c is (2); the model makes both true, and the
        # violated transitivity row a = c & b = c -> a = b loses its
        # conclusion, which refutes
        solved = counting_solve(monkeypatch)
        pools = recording_pools(monkeypatch)
        clauses = clausify([NotN(Eq(A, B)), OrN((Eq(A, B), Eq(B, C))), Eq(A, C)])
        assert miniprover.refute(clauses) is True
        assert solved == [[(1,), (2,)], [(1,), (2,), (-1, -2)]]
        assert pools[0].ids == {("e", 1, 2): 1, ("e", 0, 2): 2}

    def test_self_containment_of_two_targets_is_decided_quickly(self, monkeypatch):
        searches = []
        search = miniprover.find_model

        def recording(clauses, domain_size, clock):
            try:
                got = search(clauses, domain_size, clock)
            except sat.TimeBudgetExceeded:
                searches.append((domain_size, "cut"))
                raise
            searches.append((domain_size, got))
            return got

        monkeypatch.setattr(miniprover, "find_model", recording)
        start = time.monotonic()
        got = containment(SHAPES_TWO_TARGETS, SHAPES_TWO_TARGETS)
        assert got.verdict.value == "Contained"
        # the one refutation, which runs first, decides it: no model search
        assert searches == []
        assert time.monotonic() - start < 1.5

    @pytest.mark.parametrize("a_ttl", [SHAPES_ONE_TARGET, SHAPES_EMPTY],
                             ids=["one_target", "empty"])
    def test_two_targets_separated_by_a_typed_node_without_p(self, a_ttl):
        assert containment(a_ttl, SHAPES_TWO_TARGETS).verdict.value == "NotContained"
        g = load_graph(PREFIXES + "ex:a ex:p ex:b . ex:x a ex:C .")
        assert oracle.evaluate(load_shapes(a_ttl), g).conforms
        assert not oracle.evaluate(load_shapes(SHAPES_TWO_TARGETS), g).conforms

    @pytest.mark.parametrize("unnamed, code, verdict",
                             [(None, 0, "Conforms"), (2, 1, "DoesNotConform")])
    def test_five_people_validate(self, unnamed, code, verdict, tmp_path, capsys,
                                  monkeypatch):
        shapes, data = tmp_path / "shapes.ttl", tmp_path / "data.ttl"
        shapes.write_text(PEOPLE_SHAPES)
        data.write_text(people(5, unnamed))
        got = cli.main(["validate", str(shapes), str(data),
                        "--prover", "builtin", "--timeout", "10", "--json"])
        assert (got, json.loads(capsys.readouterr().out)["verdict"]) == (code, verdict)
        # the procedures of `decide_clauses`, which the closed-structure
        # check leaves out of the validate path
        clauses = emitted_clauses(PEOPLE_SHAPES, people(5, unnamed))
        solved = counting_solve(monkeypatch)
        refuted = []
        refute = miniprover.refute

        def recording(*args, **kwargs):
            start = len(solved)
            try:
                return refute(*args, **kwargs)
            finally:
                refuted.extend(solved[start:])

        monkeypatch.setattr(miniprover, "refute", recording)
        start = time.monotonic()
        status = miniprover.decide_clauses(clauses, within(10)).status
        elapsed = time.monotonic() - start
        assert status == ("Satisfiable" if code == 0 else "Unsatisfiable")
        if unnamed is None:
            assert elapsed < 2
        else:
            # the refutation grounds only the relevant instances and gets no
            # congruence rows it does not use
            assert elapsed < 1.5
            assert max(len(prop) for prop in solved) <= 40_000
            assert refuted and max(len(prop) for prop in refuted) <= 2_000

    def test_units_read_once_are_not_ground(self, monkeypatch):
        # 500 constants kept pairwise apart: the model search pins them all
        # and the refutation folds every unit, so neither grounds one of the
        # 124,750 units, and the model comes well inside its deadline
        consts = [Const(f"c{i}") for i in range(500)]
        clauses = [frozenset({Literal(False, EQ, pair)})
                   for pair in itertools.combinations(consts, 2)]
        clauses.append(frozenset({Literal(True, "p", (consts[0],))}))
        grounded = counting(monkeypatch, "_ground")
        model = miniprover.find_model(clauses, 500, within(2))
        assert len({key[2] for key, true in model["table"].items() if key[0] == "a" and true}) \
            == 500
        assert [[lit.pred for lit in lits] for args in grounded for lits in args[0]] == [["p"]]
        grounded.clear()
        assert miniprover.refute(clauses, within(2)) is None
        assert [[lit.pred for lit in lits] for args in grounded for lits in args[0]] == [["p"]]

    def test_a_distinct_unit_is_read_whole(self, monkeypatch):
        # $distinct(a, b, c) and p(a): one literal, which pins all three
        # constants at size 3, so neither procedure grounds it
        clauses = clausify([Distinct((A, B, C)), Atom("p", (A,))])
        assert frozenset({Literal(True, DISTINCT, (A, B, C))}) in clauses
        grounded = counting(monkeypatch, "_ground")
        model = miniprover.find_model(clauses, 3)
        assert {key[1]: key[2] for key, true in model["table"].items()
                if key[0] == "a" and true} == {"a": 0, "b": 1, "c": 2}
        assert [[lit.pred for lit in lits] for args in grounded for lits in args[0]] == [["p"]]
        grounded.clear()
        assert miniprover.refute(clauses) is None
        assert [[lit.pred for lit in lits] for args in grounded for lits in args[0]] == [["p"]]
        assert miniprover.find_model(clauses, 2) is None

    def test_a_repeated_constant_in_distinct_is_unsatisfiable(self):
        got = miniprover.decide_tptp_text("tff(u, axiom, $distinct(a, a)).")
        assert got.status == "Unsatisfiable"

    def test_clauses_grow_linearly_with_the_people(self):
        # one $distinct literal over every constant, not n(n-1)/2 units:
        # 8n + 9 clauses, where the pairwise expansion gave 20,909 at 100
        def clauses(n):
            doc = build_problem(DecisionTask(
                TaskKind.VALIDATION, load_shapes(PEOPLE_SHAPES),
                data_graph=load_graph(people(n, unnamed=n // 2))))
            return len(clausify([u.body for u in parse_tptp(render(doc))]))

        assert clauses(200) <= 2 * clauses(100) + 10

    @pytest.mark.parametrize("n, timeout", [(10, ["--timeout", "10"]),
                                            (20, ["--timeout", "10"]), (100, [])])
    def test_planted_violation_is_refuted(self, n, timeout):
        # the unnamed person's Skolem witness is in the refutation's
        # universe, which holds every depth-1 Skolem term; the timeouts
        # are those of the command line, whose default is 60 s
        got = miniprover.decide_clauses(emitted_clauses(PEOPLE_SHAPES, people(n, unnamed=n // 2)),
                                        within(float(timeout[1]) if timeout else 60.0))
        assert (got.status, got.detail) == ("Unsatisfiable", "ground refutation (skolem depth 1)")

    @pytest.mark.parametrize("n", [10, 20, 100, 200, 1000])
    def test_planted_violation_fails_on_the_closed_structure(self, n, tmp_path, capsys):
        # 2n constants, the unnamed person the first failing target
        shapes, data = tmp_path / "shapes.ttl", tmp_path / "data.ttl"
        shapes.write_text(PEOPLE_SHAPES)
        data.write_text(people(n, unnamed=n // 2))
        got = cli.main(["validate", str(shapes), str(data), "--prover", "builtin", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert (got, out["verdict"], out["proverDetail"]) \
            == (1, "DoesNotConform", f"closed structure of {2 * n + 1} elements; "
                f"fails target at X = http://example.org/p{n // 2}")

    def test_twenty_conforming_people_have_a_model(self):
        # 42 constants, all pinned: the size-42 search grounds only the
        # relevant instances, about 250,000 clauses with the totality rows,
        # under the size limit, where the product passed it (GaveUp)
        got = miniprover.decide_clauses(emitted_clauses(PEOPLE_SHAPES, people(20)), within(10))
        assert (got.status, got.detail) == ("Satisfiable", "finite model of size 42")

    @pytest.mark.parametrize("n", [20, 40, 100, 200, 1000])
    def test_conforming_people_are_the_closed_structure(self, n, tmp_path, capsys):
        # 2n + 2 constants: the people, their names, the class and the shape
        shapes, data = tmp_path / "shapes.ttl", tmp_path / "data.ttl"
        shapes.write_text(PEOPLE_SHAPES)
        data.write_text(people(n))
        got = cli.main(["validate", str(shapes), str(data), "--prover", "builtin", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert (got, out["verdict"], out["proverDetail"]) \
            == (0, "Conforms", f"closed structure of {2 * n + 2} elements")

    def test_a_wide_distinct_is_pinned_in_linear_time(self, monkeypatch):
        # 2,000 constants in one $distinct: each is pinned on its literal's
        # count of pinned members, with no test against each pinned one
        consts = [Const(f"c{i:04}") for i in range(2000)]
        clauses = [frozenset({Literal(True, DISTINCT, tuple(consts))}),
                   frozenset({Literal(True, "p", (consts[0],))})]
        tests = []
        apart = closed_structure.Apart.__call__
        monkeypatch.setattr(closed_structure.Apart, "__call__",
                            lambda self, a, b: tests.append((a, b)) or apart(self, a, b))
        pinned = miniprover._pin([c.name for c in consts], apart_of(clauses), 2000)
        assert pinned == {c.name: i for i, c in enumerate(consts)}
        assert len(tests) <= len(consts)
        # nor does the model search ground a unit of a literal it pinned
        clauses = [frozenset({Literal(True, DISTINCT, tuple(consts[:300]))}), clauses[1]]
        grounded = counting(monkeypatch, "_ground")
        assert miniprover.find_model(clauses, 300, within(5)) is not None
        assert [[lit.pred for lit in lits] for args in grounded for lits in args[0]] == [["p"]]


WIDE = tuple(Var(f"X{i}") for i in range(6))


class TestSizeLimit:
    """`_MAX_GROUND` is the one size limit of both procedures, counted on
    what they build."""

    def test_find_model_counts_instances_not_the_worst_case(self):
        # ~(X1 = c) | r(X1, X2, X3, X4) at size 30: 30 ** 4 instances in the
        # worst case, but c is pinned, so only X1 = c's element is ground
        clause = frozenset({Literal(False, EQ, (WIDE[1], C)), Literal(True, "r", WIDE[1:5])})
        assert miniprover.find_model([clause], 30, within(10)) is not None

    def test_refute_gives_up_on_a_universe_past_the_limit(self, monkeypatch):
        # a binary function over 40 constants: 40 + 40 ** 2 terms
        monkeypatch.setattr(miniprover, "_MAX_GROUND", 1_000)
        solved = counting_solve(monkeypatch)
        facts = [frozenset({Literal(True, "r", (Const(f"c{i}"),))}) for i in range(40)]
        clause = frozenset({Literal(False, "r", (X,)),
                            Literal(True, "s", (Func("f", (X, Y)),))})
        assert miniprover.refute([clause] + facts) is None
        assert solved == []

    def test_find_model_gives_up_on_rows_past_the_limit(self, monkeypatch):
        # p(f(X)) at size 20: 20 functionality rows of 1 + 190 clauses each
        monkeypatch.setattr(miniprover, "_MAX_GROUND", 1_000)
        solved = counting_solve(monkeypatch)
        grounded = counting(monkeypatch, "_ground")
        clause = frozenset({Literal(True, "p", (Func("f", (X,)),))})
        assert miniprover.find_model([clause], 5) is not None
        solved.clear()
        grounded.clear()
        with pytest.raises(miniprover._TooLarge):
            miniprover.find_model([clause], 20)
        assert (solved, grounded) == ([], [])

    def test_the_size_limit_gives_up_without_a_timeout(self, monkeypatch):
        # no procedure may build anything: both stop at their bounds, and
        # the clock cut nothing
        monkeypatch.setattr(miniprover, "_MAX_GROUND", 0)
        assert decide([Atom("p", (A,))]).status == "GaveUp"


class TestDeadline:
    def test_find_model_stops_inside_a_large_grounding(self):
        # 8 ** 6 instances of one clause: seconds of grounding
        clause = frozenset({Literal(True, "p", WIDE), Literal(False, "q", WIDE)})
        start = time.monotonic()
        with pytest.raises(sat.TimeBudgetExceeded):
            miniprover.find_model([clause], 8, within(-1))
        assert time.monotonic() - start < 0.2

    def test_find_model_stops_inside_one_wide_clause(self):
        # p0(X) | ... | p1999(X) at size 2,000: few bindings, but 4M
        # literals to encode, so the clock is read per literal encoded
        clause = frozenset({Literal(True, f"p{i}", (X,)) for i in range(2000)})
        start = time.monotonic()
        with pytest.raises(sat.TimeBudgetExceeded):
            miniprover.find_model([clause], 2000, within(0.05))
        assert time.monotonic() - start < 1

    def test_find_model_reads_the_clock_while_flattening(self, sequence_10000):
        # flattening the 10,000-member path's clauses takes about 0.4 s
        start = time.monotonic()
        with pytest.raises(sat.TimeBudgetExceeded):
            miniprover.find_model(sequence_10000, 1, within(0.05))
        assert time.monotonic() - start < 0.3

    def test_refute_stops_inside_a_large_grounding(self):
        # 20 ** 4 instances of one clause over twenty constants: r(X0) can
        # be true for each of them
        facts = [frozenset({Literal(True, "r", (Const(f"c{i}"),))}) for i in range(20)]
        clause = frozenset({Literal(True, "p", WIDE[:4]), Literal(False, "r", WIDE[:1])})
        start = time.monotonic()
        with pytest.raises(sat.TimeBudgetExceeded):
            miniprover.refute([clause] + facts, within(-1))
        assert time.monotonic() - start < 0.2

    def test_refute_gives_up_once_it_keeps_too_many_clauses(self, monkeypatch):
        # the clause of the test above, without a deadline: its 20 ** 4
        # relevant instances pass the cap of 1,000 kept clauses, so the
        # refutation stops grounding and never solves
        monkeypatch.setattr(miniprover, "_MAX_GROUND", 1_000)
        solved = counting_solve(monkeypatch)
        facts = [frozenset({Literal(True, "r", (Const(f"c{i}"),))}) for i in range(20)]
        clause = frozenset({Literal(True, "p", WIDE[:4]), Literal(False, "r", WIDE[:1])})
        start = time.monotonic()
        assert miniprover.refute([clause] + facts) is None
        assert solved == []
        assert time.monotonic() - start < 0.5

    def test_refute_counts_the_clauses_it_keeps_not_the_worst_case(self, monkeypatch):
        # ~r(X0) | ... | ~r(X3) | s(X0) over twenty constants: 20 ** 4
        # instances in the worst case, but r holds only for c0 and c1, so
        # 2 ** 4 are kept, and with r(c0) and ~s(c0) they refute
        monkeypatch.setattr(miniprover, "_MAX_GROUND", 1_000)
        facts = [frozenset({Literal(True, "q", (Const(f"c{i}"),))}) for i in range(20)]
        facts += [frozenset({Literal(True, "r", (Const(f"c{i}"),))}) for i in range(2)]
        facts.append(frozenset({Literal(False, "s", (Const("c0"),))}))
        clause = frozenset({Literal(False, "r", (v,)) for v in WIDE[:4]}
                           | {Literal(True, "s", WIDE[:1])})
        assert miniprover.refute([clause] + facts) is True

    def test_decide_keeps_a_short_timeout(self):
        # a conforming graph of ten people, which the prover does not decide
        # in two seconds
        shapes = load_shapes(PREFIXES + """
ex:S a sh:NodeShape ; sh:targetClass ex:Person ;
  sh:property [ sh:path ex:name ; sh:minCount 1 ; sh:maxCount 1 ] .
""")
        data = load_graph(PREFIXES + "".join(
            f'ex:p{i} a ex:Person ; ex:name "n{i}" .\n' for i in range(10)))
        doc = build_problem(DecisionTask(TaskKind.VALIDATION, shapes, data_graph=data))
        clauses = clausify([u.body for u in parse_tptp(render(doc))])
        start = time.monotonic()
        got = miniprover.decide_clauses(clauses, within(2))
        assert time.monotonic() - start < 2.5
        assert got.status in ("Satisfiable", "Timeout", "GaveUp")


RECORD_SOLVE = """
import json
from conftest import within
from corpus import CASES
from shacl2fol import miniprover, sat
from test_miniprover import emitted_clauses

calls = []
solve = sat.solve

def recording(clauses, clock):
    calls.append(list(clauses))
    return solve(calls[-1], clock)

sat.solve = recording
case = next(c for c in CASES if c.name == "or_violates")
miniprover.decide_clauses(emitted_clauses(case.shapes_ttl, case.data_ttl), within(10))
print(json.dumps(calls))
"""


def test_prover_work_does_not_depend_on_the_hash_seed():
    tests = Path(__file__).parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-c", RECORD_SOLVE], env=env,
                             capture_output=True, text=True, check=True).stdout
        runs.append(json.loads(out))
    assert runs[0] and runs[0] == runs[1]
