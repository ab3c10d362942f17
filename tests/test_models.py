"""The models the model search returns, checked by an evaluator of its own.

Nothing here comes from `miniprover` but the procedures under test: the
evaluator reads a model's table as a first-order structure and checks
every clause under every binding of its variables over the domain,
equality included.  A brute-force search over all small interpretations
checks that pinning the constants kept apart loses no model.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import HealthCheck, example, given, settings

from conftest import (
    NAMES, SIZES, VARIABLES, clause_sets, load_graph, load_shapes, within,
)
from corpus import CASES
from shacl2fol import miniprover, sat
from shacl2fol.clausify import DISTINCT, EQ, Literal, clausify
from shacl2fol.decide import DecisionTask, ProverConfig, TaskKind, build_problem
from shacl2fol.fol import Const, Func, Var
from shacl2fol.tptp import render
from shacl2fol.tptp_parse import parse_tptp
from test_miniprover import ground_reference
from test_acceptance import (
    SHAPES_EMPTY, SHAPES_ONE_TARGET, SHAPES_TWO_TARGETS, UNTARGETED_CONTRADICTION,
)


@dataclass
class Structure:
    size: int
    consts: dict  # constant name -> element
    funcs: dict  # (function name, argument elements) -> element
    preds: set  # (predicate name, argument elements) that hold


def _symbols(clauses):
    consts, funcs = set(), set()

    def scan(t):
        if isinstance(t, Const):
            consts.add(t.name)
        elif isinstance(t, Func):
            funcs.add((t.name, len(t.args)))
            for a in t.args:
                scan(a)

    for cl in clauses:
        for lit in cl:
            for a in lit.args:
                scan(a)
    return consts, funcs


def _variables(t):
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Func):
        return set().union(*(_variables(a) for a in t.args))
    return set()


def _value(t, env, m: Structure):
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return m.consts[t.name]
    return m.funcs[(t.name, tuple(_value(a, env, m) for a in t.args))]


def _true(lit: Literal, env, m: Structure) -> bool:
    args = tuple(_value(a, env, m) for a in lit.args)
    if lit.pred == EQ:
        return (args[0] == args[1]) == lit.positive
    if lit.pred == DISTINCT:
        return (len(set(args)) == len(args)) == lit.positive
    return ((lit.pred, args) in m.preds) == lit.positive


def satisfies(m: Structure, clauses) -> bool:
    """Every clause holds under every binding of its variables."""
    for cl in clauses:
        names = sorted(set().union(*(_variables(a) for lit in cl for a in lit.args)))
        for values in itertools.product(range(m.size), repeat=len(names)):
            env = dict(zip(names, values))
            if not any(_true(lit, env, m) for lit in cl):
                return False
    return True


def read_model(model: dict, clauses) -> Structure:
    """The structure a model's table describes; it must interpret every
    constant and every function application by exactly one element.  An
    absent entry is false."""
    size, table = model["size"], model["table"]
    consts, funcs, preds = {}, {}, set()
    for key, holds in table.items():
        if not holds:
            continue
        if key[0] == "a":
            _, name, element = key
            assert name not in consts, f"{name} has two values"
            consts[name] = element
        elif key[0] == "f":
            _, name, args, element = key
            assert (name, args) not in funcs, f"{name}{args} has two values"
            funcs[(name, args)] = element
        else:
            preds.add((key[1], key[2]))
    const_names, func_symbols = _symbols(clauses)
    for name in const_names:
        assert name in consts, f"{name} has no value"
    for name, arity in func_symbols:
        for args in itertools.product(range(size), repeat=arity):
            assert (name, args) in funcs, f"{name}{args} has no value"
    return Structure(size, consts, funcs, preds)


# --- every returned model of the pipeline -----------------------------------

def _returned_models(monkeypatch, task: DecisionTask):
    models = []
    search = miniprover.find_model

    def recording(clauses, domain_size, clock):
        got = search(clauses, domain_size, clock)
        if got is not None:
            models.append((clauses, got))
        return got

    monkeypatch.setattr(miniprover, "find_model", recording)
    # the task's clauses go to the procedures themselves: the validate path
    # decides a validation problem on its closed structure first
    clauses = clausify([u.body for u in parse_tptp(render(build_problem(task)))])
    miniprover.decide_clauses(clauses, within(task.prover.timeout_s))
    return models


BUILTIN = ProverConfig("builtin", timeout_s=10)
CONFORMING = [c for c in CASES if c.conforms]


@pytest.mark.parametrize("case", CONFORMING, ids=lambda c: c.name)
def test_models_of_conforming_validations_satisfy_every_clause(case, monkeypatch):
    models = _returned_models(monkeypatch, DecisionTask(
        TaskKind.VALIDATION, load_shapes(case.shapes_ttl),
        data_graph=load_graph(case.data_ttl), prover=BUILTIN,
    ))
    assert models
    for clauses, model in models:
        assert satisfies(read_model(model, clauses), clauses)


ACCEPTANCE_MODELS = {
    "sat_empty": DecisionTask(
        TaskKind.SATISFIABILITY, load_shapes(SHAPES_EMPTY), prover=BUILTIN),
    "sat_untargeted_contradiction": DecisionTask(
        TaskKind.SATISFIABILITY, load_shapes(UNTARGETED_CONTRADICTION), prover=BUILTIN),
    "empty_in_one_target": DecisionTask(
        TaskKind.CONTAINMENT, load_shapes(SHAPES_EMPTY),
        shape_graph_b=load_shapes(SHAPES_ONE_TARGET), prover=BUILTIN),
    "one_target_in_two_targets": DecisionTask(
        TaskKind.CONTAINMENT, load_shapes(SHAPES_ONE_TARGET),
        shape_graph_b=load_shapes(SHAPES_TWO_TARGETS), prover=BUILTIN),
}


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_MODELS))
def test_models_of_acceptance_problems_satisfy_every_clause(name, monkeypatch):
    models = _returned_models(monkeypatch, ACCEPTANCE_MODELS[name])
    assert models
    for clauses, model in models:
        assert satisfies(read_model(model, clauses), clauses)


def test_pinned_constants_keep_their_table_entries():
    a, b = Const("a"), Const("b")
    clauses = [
        frozenset({Literal(False, EQ, (a, b))}),
        frozenset({Literal(True, "p", (a,))}),
    ]
    model = miniprover.find_model(clauses, 3)
    table = model["table"]
    for name in ("a", "b"):
        assert [table.get(("a", name, d), False) for d in range(3)].count(True) == 1
    assert satisfies(read_model(model, clauses), clauses)


# --- pinning keeps every model ----------------------------------------------

def _instance_rows(clauses, m: Structure):
    """Each clause instance of `m`'s constants and functions as a row of
    (predicate atom, sign), equalities and `$distinct` evaluated; None if
    an instance is false whatever the predicates are."""
    rows = []
    for cl in clauses:
        names = sorted(set().union(*(_variables(a) for lit in cl for a in lit.args)))
        for values in itertools.product(range(m.size), repeat=len(names)):
            env = dict(zip(names, values))
            row = []
            for lit in cl:
                if lit.pred not in (EQ, DISTINCT):
                    row.append(((lit.pred, tuple(_value(a, env, m) for a in lit.args)),
                                lit.positive))
                elif _true(lit, env, m):
                    break
            else:
                if not row:
                    return None
                rows.append(row)
    return rows


def _predicates(rows) -> Optional[set]:
    """The atoms to make true so every row holds, by exhaustive search."""
    atoms = sorted({atom for row in rows for atom, _ in row})
    truth = {}

    def search(k: int) -> bool:
        if any(all(atom in truth and truth[atom] != positive for atom, positive in row)
               for row in rows):
            return False
        if k == len(atoms):
            return True
        for value in (False, True):
            truth[atoms[k]] = value
            if search(k + 1):
                return True
        del truth[atoms[k]]
        return False

    return {atom for atom in atoms if truth[atom]} if search(0) else None


def brute_force_model(clauses, size: int):
    """Some structure of the size that satisfies the clauses, or None: every
    value of the constants and every table of the functions, each with an
    exhaustive search of the predicates."""
    consts, funcs = (sorted(symbols) for symbols in _symbols(clauses))
    applications = [(name, args) for name, arity in funcs
                    for args in itertools.product(range(size), repeat=arity)]
    for values in itertools.product(range(size), repeat=len(consts)):
        for table in itertools.product(range(size), repeat=len(applications)):
            m = Structure(size, dict(zip(consts, values)),
                          dict(zip(applications, table)), set())
            rows = _instance_rows(clauses, m)
            preds = None if rows is None else _predicates(rows)
            if preds is not None:
                m.preds = preds
                assert satisfies(m, clauses)
                return m
    return None


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(clause_sets())
def test_pinning_keeps_every_model(clauses):
    exists = {}
    for size in SIZES:
        exists[size] = brute_force_model(clauses, size) is not None
        got = miniprover.find_model(clauses, size)
        assert (got is not None) == exists[size]
        if got is not None:
            assert satisfies(read_model(got, clauses), clauses)
    if miniprover.refute(clauses) is True:
        assert not any(exists.values())


# --- relevance: the full grounding refutes no more ---------------------------

def refutation_universe(clauses):
    """The refutation's universe: the constants, then the Skolem terms of
    depth 1."""
    consts, funcs = _symbols(clauses)
    base = [Const(c) for c in sorted(consts)] or [Const("herbrand_c0")]
    universe = base + [Func(name, args) for name, arity in sorted(funcs)
                       for args in itertools.product(base, repeat=arity)]
    assert len(universe) <= miniprover._MAX_GROUND
    return universe


def apart_pairs(clauses, term_ids):
    """The sorted index pairs of the constants that the unique-name axioms
    keep apart: every pair of a `$distinct` literal, and each ground unit
    `¬(a = b)` of two different constants."""
    pairs = set()
    for cl in clauses:
        if len(cl) != 1:
            continue
        (lit,) = cl
        if lit.pred == DISTINCT or not lit.positive and lit.pred == EQ \
                and all(isinstance(t, Const) for t in lit.args):
            pairs.update(tuple(sorted((term_ids[a], term_ids[b])))
                         for a, b in itertools.combinations(lit.args, 2) if a != b)
    return pairs


def eager_equality_rows(pool, clauses):
    """Every row of the ground equality theory over the refutation's
    universe, of any size: transitivity, function congruence and predicate
    congruence.  A row with a premise that a unique-name axiom makes false
    is left out, and such a conclusion is dropped; `pool` numbers the
    atoms."""
    preds = {lit.pred: len(lit.args) for cl in clauses for lit in cl
             if lit.pred not in (EQ, DISTINCT)}
    universe = refutation_universe(clauses)
    term_ids = {t: i for i, t in enumerate(universe)}
    apart = apart_pairs(clauses, term_ids)
    ids = range(len(universe))

    def row(premises, conclusion=None):
        """The row, or None when a premise is false."""
        pairs = [tuple(sorted(pair)) for pair in premises if pair[0] != pair[1]]
        if any(pair in apart for pair in pairs):
            return None
        got = tuple(-pool.get(("e", *pair)) for pair in pairs)
        if conclusion is not None and tuple(sorted(conclusion)) not in apart:
            got += (pool.get(("e", *sorted(conclusion))),)
        return got

    rows = []
    for a, b, c in itertools.permutations(ids, 3):
        rows.append(row([(a, b), (b, c)], (a, c)))
    for s, t in itertools.permutations(universe, 2):
        if isinstance(s, Func) and isinstance(t, Func) and s.name == t.name:
            arg_pairs = [(term_ids[x], term_ids[y]) for x, y in zip(s.args, t.args)]
            rows.append(row(arg_pairs, (term_ids[s], term_ids[t])))
    for pname, arity in preds.items():
        for args in itertools.product(ids, repeat=arity):
            pa = pool.get(("p", pname, args))
            for pos in range(arity):
                for other in ids:
                    if other == args[pos]:
                        continue
                    new_args = args[:pos] + (other,) + args[pos + 1:]
                    pb = pool.get(("p", pname, new_args))
                    premise = row([(args[pos], other)])
                    if premise is not None:
                        rows.append((-pa,) + premise + (pb,))
    return [r for r in rows if r is not None]


def full_refute(clauses):
    """`refute` by a reference that never calls `_ground`: every instance
    over the universe (`ground_reference`, by `itertools.product`), every
    row of the equality theory, and one `sat.solve`."""
    universe = refutation_universe(clauses)
    term_ids = {t: i for i, t in enumerate(universe)}
    apart = apart_pairs(clauses, term_ids)
    pool = miniprover._VarPool()

    def index(t, env):
        if isinstance(t, Var):
            return env[t.name]
        if isinstance(t, Const):
            return term_ids[t]
        args = [index(a, env) for a in t.args]
        return None if None in args else \
            term_ids.get(Func(t.name, tuple(universe[i] for i in args)))

    def encode(lit, env):
        args = tuple(index(a, env) for a in lit.args)
        if None in args:
            return None
        sign = 1 if lit.positive else -1
        if lit.pred == DISTINCT:
            return None  # true: `apart` holds each of its pairs
        if lit.pred != EQ:
            return sign * pool.get(("p", lit.pred, args))
        a, b = sorted(args)
        if a == b:
            return None if lit.positive else 0
        if (a, b) in apart:
            return 0 if lit.positive else None
        return sign * pool.get(("e", a, b))

    prop = ground_reference([sorted(cl, key=repr) for cl in clauses],
                            range(len(universe)), encode)
    rows = eager_equality_rows(pool, clauses)
    return True if sat.solve(prop + rows) is None else None


C0, C1, C2 = NAMES
X, Y = VARIABLES


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(clause_sets(functions=True))
# a closed role: r(c0, c2), and r holds only where its subject is c1
@example([frozenset({Literal(False, EQ, (C0, C1))}),
          frozenset({Literal(True, "r", (C0, C2))}),
          frozenset({Literal(True, EQ, (X, C1)), Literal(False, "r", (X, Y))})])
# a negative-equality guard, which only c0 = c1 lets match X = c1
@example([frozenset({Literal(False, EQ, (X, C0)), Literal(True, "p", (X,))}),
          frozenset({Literal(False, "p", (C1,))}),
          frozenset({Literal(True, EQ, (C0, C1))})])
# c0 = c1, p(f(c0)), ~p(f(c1)): the guard on p(f(c1)) can match only
# through the function congruence f(c0) = f(c1)
@example([frozenset({Literal(True, EQ, (C0, C1))}),
          frozenset({Literal(True, "p", (Func("f", (C0,)),))}),
          frozenset({Literal(False, "p", (Func("f", (C1,)),))})])
def test_relevant_instances_refute_as_the_full_grounding_does(clauses):
    # one universe now, the constants and the depth-1 Skolem terms: the
    # universe of the constants alone is no longer refuted over
    got = miniprover.refute(clauses)
    assert got == full_refute(clauses)
    if got is True:
        assert all(brute_force_model(clauses, size) is None for size in SIZES)
