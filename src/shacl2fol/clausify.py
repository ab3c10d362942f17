"""Transformation of first-order formulas into clausal form.

NNF, standardize-apart, skolemization, then CNF with a definitional
fallback: when naive distribution would blow up, a subformula is renamed
by a fresh predicate over its free variables (single polarity, which
preserves satisfiability).  A whole formula `$distinct` is one literal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fol import (
    AndN, Atom, Const, Distinct, Eq, Exists, FalseF, Forall, Formula, Func,
    Iff, Implies, NotN, OrN, Term, TrueF, Var,
)

EQ = "="  # reserved predicate name for equality literals
DISTINCT = "$distinct"  # reserved predicate name: its arguments are pairwise unequal


@dataclass(frozen=True)
class Literal:
    positive: bool
    pred: str
    args: tuple[Term, ...]

    def negate(self) -> "Literal":
        return Literal(not self.positive, self.pred, self.args)


Clause = frozenset[Literal]


class _Clausifier:
    def __init__(self, distribution_limit: int = 16):
        self.var_counter = 0
        self.skolem_counter = 0
        self.defpred_counter = 0
        self.distribution_limit = distribution_limit

    def fresh_var(self) -> str:
        self.var_counter += 1
        return f"V{self.var_counter}"

    def fresh_skolem(self) -> str:
        self.skolem_counter += 1
        return f"sk{self.skolem_counter}"

    def fresh_defpred(self) -> str:
        self.defpred_counter += 1
        return f"df{self.defpred_counter}"

    # --- NNF with negation pushed inward, Iff/Implies expanded ---

    def nnf(self, f: Formula, positive: bool) -> Formula:
        if isinstance(f, TrueF):
            return TrueF() if positive else FalseF()
        if isinstance(f, FalseF):
            return FalseF() if positive else TrueF()
        if isinstance(f, (Atom, Eq)):
            return f if positive else NotN(f)
        if isinstance(f, NotN):
            return self.nnf(f.operand, not positive)
        if isinstance(f, AndN):
            parts = tuple(self.nnf(x, positive) for x in f.operands)
            return AndN(parts) if positive else OrN(parts)
        if isinstance(f, OrN):
            parts = tuple(self.nnf(x, positive) for x in f.operands)
            return OrN(parts) if positive else AndN(parts)
        if isinstance(f, Implies):
            return self.nnf(OrN((NotN(f.left), f.right)), positive)
        if isinstance(f, Iff):
            expanded = AndN((
                OrN((NotN(f.left), f.right)),
                OrN((NotN(f.right), f.left)),
            ))
            return self.nnf(expanded, positive)
        if isinstance(f, Forall):
            body = self.nnf(f.body, positive)
            return Forall(f.variables, body) if positive else Exists(f.variables, body)
        if isinstance(f, Exists):
            body = self.nnf(f.body, positive)
            return Exists(f.variables, body) if positive else Forall(f.variables, body)
        raise TypeError(f"not a formula: {f!r}")

    # --- standardize apart + skolemize, dropping quantifiers ---

    def skolemize(self, f: Formula, subst: dict[str, Term], universal: tuple[Term, ...]) -> Formula:
        if isinstance(f, (TrueF, FalseF)):
            return f
        if isinstance(f, Atom):
            return Atom(f.pred, tuple(self.apply(t, subst) for t in f.args))
        if isinstance(f, Eq):
            return Eq(self.apply(f.left, subst), self.apply(f.right, subst))
        if isinstance(f, NotN):
            return NotN(self.skolemize(f.operand, subst, universal))
        if isinstance(f, AndN):
            return AndN(tuple(self.skolemize(x, subst, universal) for x in f.operands))
        if isinstance(f, OrN):
            return OrN(tuple(self.skolemize(x, subst, universal) for x in f.operands))
        if isinstance(f, Forall):
            new = dict(subst)
            fresh: list[Term] = []
            for v in f.variables:
                nv = Var(self.fresh_var())
                new[v] = nv
                fresh.append(nv)
            return self.skolemize(f.body, new, universal + tuple(fresh))
        if isinstance(f, Exists):
            new = dict(subst)
            for v in f.variables:
                pinned = _one_point(f.body, v, set(f.variables))
                if pinned is not None:
                    # one-point rule: ?[V]: (... & V = t & ...) binds V to t
                    new[v] = self.apply(pinned, new)
                elif universal:
                    new[v] = Func(self.fresh_skolem(), universal)
                else:
                    new[v] = Const(f"{self.fresh_skolem()}_c")
            return self.skolemize(f.body, new, universal)
        raise TypeError(f"unexpected node after NNF: {f!r}")

    def apply(self, t: Term, subst: dict[str, Term]) -> Term:
        if isinstance(t, Var):
            return subst.get(t.name, t)
        if isinstance(t, Func):
            return Func(t.name, tuple(self.apply(a, subst) for a in t.args))
        return t

    # --- CNF with definitional fallback ---

    def cnf(self, f: Formula) -> Optional[list[list[Literal]]]:
        """Clause list, or None for an unsatisfiable $false constant."""
        if isinstance(f, TrueF):
            return []
        if isinstance(f, FalseF):
            return [[]]
        if isinstance(f, Atom):
            return [[Literal(True, f.pred, f.args)]]
        if isinstance(f, Eq):
            return [[Literal(True, EQ, (f.left, f.right))]]
        if isinstance(f, NotN):
            inner = f.operand
            if isinstance(inner, Atom):
                return [[Literal(False, inner.pred, inner.args)]]
            if isinstance(inner, Eq):
                return [[Literal(False, EQ, (inner.left, inner.right))]]
            raise TypeError(f"negation not atomic after NNF: {f!r}")
        if isinstance(f, AndN):
            out: list[list[Literal]] = []
            for x in f.operands:
                out.extend(self.cnf(x))
            return out
        if isinstance(f, OrN):
            parts = [self.cnf(x) for x in f.operands]
            size = 1
            for p in parts:
                size *= max(len(p), 1)
            if size > self.distribution_limit:
                parts = [
                    p if len(p) <= 1 else self.define(p) for p in parts
                ]
            out = [[]]
            for p in parts:
                if not p:
                    continue  # a $true disjunct makes the whole clause true
                out = [a + b for a in out for b in p]
            # any disjunct that was [] (true) makes the disjunction true
            if any(len(p) == 0 for p in parts):
                return []
            return out
        raise TypeError(f"unexpected node in CNF: {f!r}")

    def define(self, clauses: list[list[Literal]]) -> list[list[Literal]]:
        """Single-polarity renaming: d(vars) => subformula."""
        vars_used = sorted({
            t.name
            for cl in clauses
            for lit in cl
            for arg in lit.args
            for t in term_vars(arg)
        })
        d = Literal(True, self.fresh_defpred(), tuple(Var(v) for v in vars_used))
        for cl in clauses:
            self.extra.append([d.negate()] + cl)
        return [[d]]

    def clausify(self, formulas: list[Formula]) -> list[Clause]:
        self.extra: list[list[Literal]] = []
        raw: list[list[Literal]] = []
        for f in formulas:
            if isinstance(f, Distinct):
                # a repeated constant makes it false; fewer than two, true
                if len(f.constants) > 1:
                    unique = len(set(f.constants)) == len(f.constants)
                    raw.append([Literal(True, DISTINCT, f.constants)] if unique else [])
                continue
            nnf = self.nnf(f, True)
            sk = self.skolemize(nnf, {}, ())
            raw.extend(self.cnf(sk))
        raw.extend(self.extra)
        out = []
        for cl in raw:
            clause = frozenset(cl)
            if _is_tautology(clause):
                continue
            out.append(clause)
        return out


def _one_point(body: Formula, var: str, bound: set[str]) -> Optional[Term]:
    """A term t with ... & var = t & ... at the top of the body, if any.

    The term must not mention any variable of the same quantifier block.
    """
    conjuncts = body.operands if isinstance(body, AndN) else (body,)
    for c in conjuncts:
        if not isinstance(c, Eq):
            continue
        for this, other in ((c.left, c.right), (c.right, c.left)):
            if isinstance(this, Var) and this.name == var \
                    and not any(v.name in bound for v in term_vars(other)):
                return other
    return None


def term_vars(t: Term):
    if isinstance(t, Var):
        yield t
    elif isinstance(t, Func):
        for a in t.args:
            yield from term_vars(a)


def _is_tautology(cl: Clause) -> bool:
    for lit in cl:
        if lit.negate() in cl:
            return True
        if lit.pred == EQ and lit.positive and lit.args[0] == lit.args[1]:
            return True
    return False


def clausify(formulas: list[Formula], distribution_limit: int = 16) -> list[Clause]:
    return _Clausifier(distribution_limit).clausify(formulas)
