import pytest

from conftest import within
from shacl2fol import clausify as clausify_module
from shacl2fol.clausify import DISTINCT, Literal, clausify
from shacl2fol.fol import (
    AndN, Atom, Const, Distinct, Eq, Exists, Forall, Func, Iff, Implies,
    NotN, OrN, TrueF, FalseF, Var,
)

A, B, C = Const("a"), Const("b"), Const("c")


def lits(clauses):
    return {frozenset((l.positive, l.pred, l.args) for l in cl) for cl in clauses}


def all_symbols(clauses):
    out = set()

    def scan(t):
        if isinstance(t, Func):
            out.add(t.name)
            for a in t.args:
                scan(a)
        elif isinstance(t, Const):
            out.add(t.name)

    for cl in clauses:
        for lit in cl:
            for a in lit.args:
                scan(a)
    return out


class TestBasics:
    def test_ground_atom(self):
        got = clausify([Atom("p", (A,))])
        assert lits(got) == {frozenset({(True, "p", (A,))})}

    def test_implication_becomes_disjunction(self):
        f = Forall(("X",), Implies(Atom("p", (Var("X"),)), Atom("q", (Var("X"),))))
        (cl,) = clausify([f])
        assert {(l.positive, l.pred) for l in cl} == {(False, "p"), (True, "q")}
        # both literals share the renamed variable
        assert len({l.args for l in cl}) == 1

    def test_iff_gives_two_clauses(self):
        f = Iff(Atom("p", (A,)), Atom("q", (A,)))
        assert len(clausify([f])) == 2

    def test_true_false_constants(self):
        assert clausify([TrueF()]) == []
        assert frozenset() in clausify([FalseF()])

    def test_tautology_removed(self):
        f = OrN((Atom("p", (A,)), NotN(Atom("p", (A,)))))
        assert clausify([f]) == []

    def test_distinct_is_one_literal(self):
        # not its n(n-1)/2 inequalities: a repeated constant makes it false,
        # and fewer than two constants say nothing
        assert clausify([Distinct((A, B, C))]) == [frozenset({Literal(True, DISTINCT, (A, B, C))})]
        assert clausify([Distinct((A, B, A))]) == [frozenset()]
        assert clausify([Distinct((A,))]) == clausify([Distinct(())]) == []


class TestSkolemization:
    def test_top_level_exists_becomes_constant(self):
        got = clausify([Exists(("X",), Atom("p", (Var("X"),)))])
        (cl,) = got
        (lit,) = cl
        assert isinstance(lit.args[0], Const)

    def test_nested_exists_becomes_function_of_universals(self):
        f = Forall(("X",), Exists(("Y",), Atom("r", (Var("X"), Var("Y")))))
        (cl,) = clausify([f])
        (lit,) = cl
        x, y = lit.args
        assert isinstance(x, Var)
        assert isinstance(y, Func) and y.args == (x,)

    def test_negated_forall_is_existential(self):
        f = NotN(Forall(("X",), Atom("p", (Var("X"),))))
        (cl,) = clausify([f])
        (lit,) = cl
        assert not lit.positive and isinstance(lit.args[0], Const)

    def test_one_point_rule_avoids_skolem_functions(self):
        # ![X]: ?[Y]: (r(X, Y) & Y = c)  --  Y is pinned to c, no skolem
        f = Forall(
            ("X",),
            Exists(("Y",), AndN((Atom("r", (Var("X"), Var("Y"))), Eq(Var("Y"), C)))),
        )
        got = clausify([f])
        assert all_symbols(got) == {"c"}
        (cl,) = got
        (lit,) = cl
        assert lit == Literal(True, "r", (lit.args[0], C))

    def test_one_point_rule_symmetric_equation(self):
        f = Exists(("Y",), AndN((Eq(C, Var("Y")), Atom("p", (Var("Y"),)))))
        got = clausify([f])
        assert all_symbols(got) == {"c"}

    def test_one_point_skips_same_block_variables(self):
        # ?[X, Y]: (X = Y & p(X)) must not pin X to the still-unbound Y
        f = Exists(("X", "Y"), AndN((Eq(Var("X"), Var("Y")), Atom("p", (Var("X"),)))))
        got = clausify([f])
        # all arguments are skolem constants, never variables
        for cl in got:
            for lit in cl:
                assert all(isinstance(a, Const) for a in lit.args)


class TestDeepNesting:
    """One walk with its own stack: no recursion per nesting level."""

    N = 10_000

    def test_left_nested_conjunction(self):
        f = Atom("p0", ())
        for i in range(1, self.N):
            f = AndN((f, Atom(f"p{i}", ())))
        got = clausify([f])
        assert [next(iter(cl)).pred for cl in got] == [f"p{i}" for i in range(self.N)]

    def test_left_nested_disjunction(self):
        f = Atom("p0", ())
        for i in range(1, self.N):
            f = OrN((f, Atom(f"p{i}", ())))
        (cl,) = clausify([f])
        assert len(cl) == self.N

    def test_negation_and_quantifier_chain(self):
        # ![X]: ~?[X]: ~![X]: ~?[X]: ... ~p(X): every quantifier is universal
        f = Atom("p", (Var("X"),))
        for i in range(self.N):
            f = (Forall if i % 2 else Exists)(("X",), NotN(f))
        (cl,) = clausify([f])
        assert cl == frozenset({Literal(True, "p", (Var(f"V{self.N}"),))})

    def test_wide_existential_block_is_linear(self, monkeypatch):
        # ?[Z1, ..., Zn]: (p(Z1, Z2) & ... & p(Zn-1, Zn) & Zn = b): the
        # one-point rule reads the n conjuncts once, not once per variable
        n = 5_000
        zs = [Var(f"Z{i}") for i in range(1, n + 1)]
        body = [Atom("p", pair) for pair in zip(zs, zs[1:])] + [Eq(zs[-1], B)]
        calls = 0
        strip = clausify_module._strip

        def counting(f, positive):
            nonlocal calls
            calls += 1
            return strip(f, positive)

        monkeypatch.setattr(clausify_module, "_strip", counting)
        got = clausify([Exists(tuple(z.name for z in zs), AndN(tuple(body)))])
        assert calls <= 4 * n
        assert len(got) == n - 1
        assert frozenset({Literal(True, "p", (Const(f"sk{n - 1}_c"), B))}) in got


class TestDefinitionalCnf:
    def _big_dnf(self, n):
        # (a1 & b1) | (a2 & b2) | ... distributes to 2^n clauses naively
        return OrN(tuple(
            AndN((Atom(f"a{i}", ()), Atom(f"b{i}", ()))) for i in range(n)
        ))

    def test_small_formula_distributes_directly(self):
        got = clausify([self._big_dnf(2)])
        preds = {l.pred for cl in got for l in cl}
        assert not any(p.startswith("df") for p in preds)
        assert len(got) == 4

    def test_large_formula_uses_definitions(self):
        got = clausify([self._big_dnf(8)])
        preds = {l.pred for cl in got for l in cl}
        assert any(p.startswith("df") for p in preds)
        # far fewer than the 2^8 = 256 distributed clauses
        assert len(got) < 50

    def test_definitions_preserve_satisfiability(self):
        from shacl2fol import miniprover

        f = self._big_dnf(8)
        sat_res = miniprover.decide_clauses(clausify([f]), within(10))
        assert sat_res.status == "Satisfiable"
        unsat = [f] + [
            OrN((NotN(Atom(f"a{i}", ())), NotN(Atom(f"b{i}", ()))))
            for i in range(8)
        ]
        unsat_res = miniprover.decide_clauses(clausify(unsat), within(10))
        assert unsat_res.status == "Unsatisfiable"
