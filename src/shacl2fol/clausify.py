"""Transformation of first-order formulas into clausal form.

One walk over each formula, on an explicit stack, carries each
subformula's polarity (negation is pushed inward, `=>` and `<=>`
expanded), its substitution and the universal variables around it.  A
universal quantifier renames its variables apart, an existential one
Skolemizes them or binds one by the one-point rule, an atom becomes a
literal, and a conjunction or disjunction joins its operands' clauses
once they are done.  When naive distribution would blow up, a disjunct is
renamed by a fresh predicate over its free variables: the definitional
CNF of Nonnengart and Weidenbach, "Computing Small Clause Normal Forms"
(2001), in single polarity, which preserves satisfiability.  A whole
formula `$distinct` is one literal.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .fol import (
    AndN, Atom, Const, Distinct, Eq, Exists, FalseF, Forall, Formula, Func,
    Iff, Implies, NotN, OrN, Term, TrueF, Var,
)
from .record import Record
from .errors import Clock

EQ = "="  # reserved predicate name for equality literals
DISTINCT = "$distinct"  # reserved predicate name: its arguments are pairwise unequal
# the clauses a disjunction may distribute to before its disjuncts are renamed
DISTRIBUTION_LIMIT = 16


class Literal(Record):
    __slots__ = ("positive", "pred", "args")

    def __init__(self, positive: bool, pred: str, args: tuple[Term, ...]):
        self.positive = positive
        self.pred = pred
        self.args = args

    def negate(self) -> "Literal":
        return Literal(not self.positive, self.pred, self.args)


Clause = frozenset[Literal]


class _Join(NamedTuple):
    """A stack entry: join the clause lists of the last `count` operands."""
    conjunction: bool
    count: int


class _Clausifier:
    def __init__(self, clock: Clock):
        self.clock = clock  # its work: the entries walked and the literals tested
        # the last number given each kind of fresh name: variables, Skolem
        # symbols and definition predicates
        self.counts = {"V": 0, "sk": 0, "df": 0}
        self.extra: list[list[Literal]] = []  # the definitions' clauses

    def fresh(self, kind: str) -> str:
        self.counts[kind] += 1
        return f"{kind}{self.counts[kind]}"

    def walk(self, formula: Formula) -> list[list[Literal]]:
        """The clauses of `formula`.  A stack entry is a subformula with its
        polarity, substitution and universal variables, or a `_Join`; the
        operands are visited left to right, so names are allocated in the
        order of a recursive walk."""
        done: list[list[list[Literal]]] = []  # the clause lists of the operands done
        stack: list = [(formula, True, {}, ())]
        while stack:
            item = stack.pop()
            self.clock.tick()
            if isinstance(item, _Join):
                parts = done[len(done) - item.count:]
                del done[len(done) - item.count:]
                done.append(_conjoin(parts) if item.conjunction else self.disjoin(parts))
                continue
            f, positive, subst, universal = item
            f, positive = _strip(f, positive)
            if isinstance(f, (TrueF, FalseF)):
                done.append([] if isinstance(f, TrueF) == positive else [[]])
            elif isinstance(f, Atom):
                args = tuple(_substitute(t, subst) for t in f.args)
                done.append([[Literal(positive, f.pred, args)]])
            elif isinstance(f, Eq):
                args = (_substitute(f.left, subst), _substitute(f.right, subst))
                done.append([[Literal(positive, EQ, args)]])
            elif isinstance(f, (AndN, OrN)):
                stack.append(_Join(isinstance(f, AndN) == positive, len(f.operands)))
                stack.extend((x, positive, subst, universal) for x in reversed(f.operands))
            elif isinstance(f, (Forall, Exists)):
                subst = dict(subst)
                if isinstance(f, Forall) == positive:
                    fresh = tuple(Var(self.fresh("V")) for _ in f.variables)
                    subst.update(zip(f.variables, fresh))
                    universal += fresh
                else:
                    points = _one_point(_conjuncts(f.body, positive), set(f.variables))
                    for v in f.variables:
                        pinned = points.get(v)
                        if pinned is not None:
                            # one-point rule: ?[V]: (... & V = t & ...) binds V to t
                            subst[v] = _substitute(pinned, subst)
                        elif universal:
                            subst[v] = Func(self.fresh("sk"), universal)
                        else:
                            subst[v] = Const(self.fresh("sk") + "_c")
                stack.append((f.body, positive, subst, universal))
            else:
                raise TypeError(f"not a formula: {f!r}")
        return done[0]

    def disjoin(self, parts: list[list[list[Literal]]]) -> list[list[Literal]]:
        """Distribute, renaming the disjuncts of more than one clause first
        if the product would pass `DISTRIBUTION_LIMIT`."""
        if math.prod(max(len(p), 1) for p in parts) > DISTRIBUTION_LIMIT:
            parts = [p if len(p) <= 1 else self.define(p) for p in parts]
        # a $true disjunct makes the disjunction true
        if any(not p for p in parts):
            return []
        # no two clause lists of the walk are the same list, so a lone
        # clause can grow in place
        out = parts[0] if parts else [[]]
        for p in parts[1:]:
            if len(out) == len(p) == 1:
                out[0].extend(p[0])
            else:
                out = [a + b for a in out for b in p]
        return out

    def define(self, clauses: list[list[Literal]]) -> list[list[Literal]]:
        """Single-polarity renaming: d(vars) => subformula."""
        vars_used = sorted({t.name for cl in clauses for lit in cl
                            for arg in lit.args for t in term_vars(arg)})
        d = Literal(True, self.fresh("df"), tuple(Var(v) for v in vars_used))
        for cl in clauses:
            self.extra.append([d.negate()] + cl)
        return [[d]]

    def clausify(self, formulas: list[Formula]) -> list[Clause]:
        raw: list[list[Literal]] = []
        for f in formulas:
            if isinstance(f, Distinct):
                # a repeated constant makes it false; fewer than two, true
                if len(f.constants) > 1:
                    unique = len(set(f.constants)) == len(f.constants)
                    raw.append([Literal(True, DISTINCT, f.constants)] if unique else [])
                continue
            raw.extend(self.walk(f))
        raw.extend(self.extra)
        return [clause for clause in map(frozenset, raw) if not _is_tautology(clause, self.clock)]


def _conjoin(parts: list[list[list[Literal]]]) -> list[list[Literal]]:
    """The clauses of every operand, in order; the lists are the walk's own."""
    out = parts[0] if parts else []
    for p in parts[1:]:
        out.extend(p)
    return out


def _strip(f: Formula, positive: bool) -> tuple[Formula, bool]:
    """`f` below its negations, with its polarity there, `=>` and `<=>`
    expanded into a disjunction and a conjunction of disjunctions."""
    while isinstance(f, NotN):
        f, positive = f.operand, not positive
    if isinstance(f, Implies):
        return OrN((NotN(f.left), f.right)), positive
    if isinstance(f, Iff):
        return AndN((OrN((NotN(f.left), f.right)), OrN((NotN(f.right), f.left)))), positive
    return f, positive


def _conjuncts(body: Formula, positive: bool) -> list[tuple[Formula, bool]]:
    """The top-level conjuncts of `body`'s negation normal form at this
    polarity, each with its polarity."""
    body, positive = _strip(body, positive)
    if isinstance(body, AndN if positive else OrN):
        return [(x, positive) for x in body.operands]
    return [(body, positive)]


def _one_point(conjuncts: list[tuple[Formula, bool]], bound: set[str]) -> dict[str, Term]:
    """Each variable of `bound` that a conjunct `var = t` pins, mapped to the
    first such t.  The term must not mention any variable of `bound`."""
    points: dict[str, Term] = {}
    for c, positive in conjuncts:
        c, positive = _strip(c, positive)
        if not positive or not isinstance(c, Eq):
            continue
        for this, other in ((c.left, c.right), (c.right, c.left)):
            if isinstance(this, Var) and this.name in bound and this.name not in points \
                    and not any(v.name in bound for v in term_vars(other)):
                points[this.name] = other
    return points


def _substitute(t: Term, subst: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return subst.get(t.name, t)
    if isinstance(t, Func):
        return Func(t.name, tuple(_substitute(a, subst) for a in t.args))
    return t


def term_vars(t: Term):
    if isinstance(t, Var):
        yield t
    elif isinstance(t, Func):
        for a in t.args:
            yield from term_vars(a)


def _is_tautology(cl: Clause, clock: Clock) -> bool:
    clock.tick(len(cl))
    for lit in cl:
        if lit.negate() in cl:
            return True
        if lit.pred == EQ and lit.positive and lit.args[0] == lit.args[1]:
            return True
    return False


def clausify(formulas: list[Formula], clock: Clock = Clock()) -> list[Clause]:
    """Raises `sat.TimeBudgetExceeded` once `clock` passes its deadline;
    the default clock has none."""
    return _Clausifier(clock).clausify(formulas)
