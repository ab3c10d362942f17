"""Built-in desk-scale prover for the emitted TPTP problems: the clausal
procedures.

`closed_structure.decide_units` decides a problem's units as the emitter
builds them (the integrated prover), and `decide_tptp_text` its text,
parsed first (the command line).  The units' one candidate structure
(`closed_structure.ClosedStructure`) is checked first: a validation
problem, whose closures, kinds, unique names and definitions fix every
predicate, is decided there, before anything is clausified, and this
module is not loaded; so is a `sat` or `contains` problem whose answer
the structure of its own facts gives.  When the check gives no answer,
`decide_clauses` runs two sound, incomplete procedures over the clausal
form:

* finite model search: MACE-style flattening, then propositional grounding
  over increasing domain sizes; any model found is a genuine first-order
  model, so the answer Satisfiable is sound.
* ground refutation: clause instantiation over a bounded Herbrand universe
  plus the ground equality axioms, each added as a lemma once a candidate
  model violates it; a propositionally unsatisfiable grounding witnesses
  first-order unsatisfiability, so Unsatisfiable is sound.  The universe
  is the constants and every depth-1 Skolem term.

Both ground only the relevant instances, through one routine, `_ground`,
each with its own encoding of a ground literal: a clause's guards are
joined against the atoms that can be true, which grow semi-naively from
the positive literals kept.  Making every other atom false extends a
model of those instances to one of the full grounding.

Both read the unique-name axioms, the literals `$distinct(c1, …, cn)` and
ground units `¬(a = b)`, through the one unique-name index,
`closed_structure.Apart`, built from the constants each clause keeps apart
(`_kept_apart`): the model search pins constants kept apart to their own
domain elements, which the flattening leaves in place as it leaves
variables, and the refutation folds the false equalities out of its
equality axioms; neither grounds an axiom it has read.  Both give up on a
problem larger than one limit, `_MAX_GROUND`, counted on what they build.

`decide_clauses` runs the refutation once, then the model search, each
attempt on a slice of its caller's clock.  Every pass, from the parse of
a text and `clausify` to the SAT search, reports its work to that one
clock (`sat.Clock`), made where the seconds become a deadline:
`decide_tptp_text` here, `decide.run_prover` for the integrated prover.
If neither procedure concludes within its bounds the status is Timeout
when the clock cut an attempt, and GaveUp otherwise.  The command-line
entry point prints a standard `% SZS status <Status>` line.
"""

from __future__ import annotations

import argparse
import functools
import heapq
import itertools
import math
import operator
import sys
import time
from bisect import bisect_left
from typing import Iterator, NamedTuple, Optional

from . import closed_structure, sat
# `closed_structure.decide_units` calls `clausify` through this module
from .clausify import DISTINCT, EQ, Clause, Literal, clausify, term_vars
from .closed_structure import ProverResult
from .fol import Const, Func, Term, Var


# --- MACE-style flattening --------------------------------------------------

def _flatten_clause(cl: Clause, fresh: Iterator[str], pinned: dict[str, int],
                    clock: sat.Clock) -> list[Literal]:
    """Rewrite so every literal is over values but for one shallow term.

    A value is a variable or a pinned constant.  Allowed literal shapes
    afterwards: P(values...), value=value, value=const, value=f(values...),
    and their negations.  One pass: every other term in a value's place
    becomes a fresh variable z, defined by a literal ¬(z = t) that is
    appended and walked in its turn.
    """
    lits = _ordered(cl, clock)

    def is_value(t: Term) -> bool:
        return isinstance(t, Var) or isinstance(t, Const) and t.name in pinned

    def value(t: Term) -> Term:
        if is_value(t):
            return t
        z = Var(next(fresh))
        lits.append(Literal(False, EQ, (z, t)))
        return z

    for i, lit in enumerate(lits):
        if lit.pred != EQ:
            lits[i] = Literal(lit.positive, lit.pred, tuple(map(value, lit.args)))
            continue
        left, right = lit.args
        if is_value(right) and not is_value(left):
            left, right = right, left
        left = value(left)
        if isinstance(right, Func):
            right = Func(right.name, tuple(map(value, right.args)))
        lits[i] = Literal(lit.positive, EQ, (left, right))
    return lits


def _term_key(t: Term) -> str:
    """`repr(t)`, written without `Record.__repr__`'s walk over fields."""
    if type(t) is Func:
        return f"Func(name={t.name!r}, args={_args_key(t.args)})"
    return f"{type(t).__name__}(name={t.name!r})"


def _args_key(args: tuple) -> str:
    """`repr(args)` of a tuple of terms."""
    if len(args) == 1:
        return f"({_term_key(args[0])},)"
    return f"({', '.join(map(_term_key, args))})"


def _ordered(cl: Clause, clock: sat.Clock) -> list[Literal]:
    """The clause's literals in a fixed order, by predicate, sign and the
    `repr` of their arguments: a frozenset's iteration order follows the
    string hash seed, and the grounding and the SAT search would follow it
    too.  Each literal's key is work on `clock`."""
    keyed = []
    for lit in cl:
        clock.tick()
        keyed.append(((lit.pred, lit.positive, _args_key(lit.args)), lit))
    keyed.sort(key=_FIRST)
    return [lit for _, lit in keyed]


# The one size limit of both procedures, counted on what they build: the
# propositional clauses of `find_model`, its totality and functionality rows
# included, and the refutation's universe and the clauses it keeps.
_MAX_GROUND = 400_000
# Model sizes searched above the smallest (one element per constant).
_LARGER_SIZES = 3
_END = object()  # an exhausted iterator's `next` default
_FIRST = operator.itemgetter(0)
_SECOND = operator.itemgetter(1)
_EQ_REL = (EQ, 2)  # the relation `=` of `_Relevant`


class _TooLarge(Exception):
    """`find_model` gives up: its problem passes `_MAX_GROUND`."""


class _Guard(NamedTuple):
    """A level of `_ground` that matches the negative literal `lits[lit]`
    against the atoms that can be true, and binds each variable that
    stands alone as an argument to the atom's argument there."""
    lit: int
    # per argument position, the variable it binds, or None: `_ground`
    # binds the names to an atom's arguments, and the key None takes the rest
    names: tuple[Optional[str], ...]
    keyed: tuple[int, ...]  # the argument positions ground before this level
    checks: tuple[tuple[int, Term], ...]  # the others, ground once `names` are bound
    # which atoms: -1, those of the last round; 0, those before it; 1, both
    order: int


def _guard_order(arg_vars: list[list[set[str]]], guards: tuple[int, ...], first: int):
    """The positions in `guards` in the order `_plan` matches them: `first`,
    then each time the guard with the most arguments whose variables the
    guards before it hold, the first in `guards` on a tie.

    A guard's count of such arguments grows through an index from each
    variable to the (guard, argument) positions holding it, and a heap
    keyed by (-count, position) gives the next guard, so the order takes
    time near linear in the guards' arguments."""
    if len(guards) < 3:  # no choice: `first`, then the other guard, if any
        return sorted(range(len(guards)), key=lambda k: k != first)
    unbound = [[len(names) for names in arg_vars[g]] for g in guards]
    ground = [counts.count(0) for counts in unbound]  # None once in the order
    holders: dict[str, list[tuple[int, int]]] = {}
    for k, g in enumerate(guards):
        for p, names in enumerate(arg_vars[g]):
            for name in names:
                holders.setdefault(name, []).append((k, p))
    heap = [(-n, k) for k, n in enumerate(ground) if k != first]
    heapq.heapify(heap)
    order: list[int] = []
    bound: set[str] = set()
    k = first
    while True:
        order.append(k)
        ground[k] = None
        for name in set().union(*arg_vars[guards[k]]) - bound:
            bound.add(name)
            for j, p in holders[name]:
                unbound[j][p] -= 1
                if not unbound[j][p] and ground[j] is not None:
                    ground[j] += 1
                    heapq.heappush(heap, (-ground[j], j))
        # skip the entries of guards in the order, and counts since raised
        while heap and -heap[0][0] != ground[heap[0][1]]:
            heapq.heappop(heap)
        if not heap:
            return order
        k = heapq.heappop(heap)[1]


def _plan(lits: list[Literal], guards: tuple[int, ...], first: int, clock: sat.Clock):
    """How to bind a clause's variables: `levels`, and `ready[k]`, the
    literals whose last variable level k binds (level 0 binds nothing).

    The guards come first, in `_guard_order`: `guards[first]`, matched
    against the atoms of the last round, then the others, each time the one
    with the most arguments already ground; a variable that occurs in a
    guard only inside its compound arguments is bound just before it, over
    the universe.  Then, one at a time in sorted order, the variables no
    guard binds; without `guards`, that is every variable.  Each literal
    and each guard placed is work on `clock`."""
    arg_vars = []
    for lit in lits:
        clock.tick()
        arg_vars.append([{v.name for v in term_vars(a)} for a in lit.args])
    lit_vars = [set().union(*names) for names in arg_vars]
    bound: set[str] = set()
    levels: list = []
    depth: dict[str, int] = {}

    def bind(names) -> None:
        bound.update(names)
        depth.update(dict.fromkeys(names, len(levels)))

    for k in _guard_order(arg_vars, guards, first):
        clock.tick()
        g = guards[k]
        args = lits[g].args
        for name in sorted(lit_vars[g] - bound - {a.name for a in args if isinstance(a, Var)}):
            levels.append(name)
            bind((name,))
        keyed = tuple(p for p, names in enumerate(arg_vars[g]) if names <= bound)
        names: dict[int, str] = {}
        for p, t in enumerate(args):
            if p not in keyed and isinstance(t, Var) and t.name not in names.values():
                names[p] = t.name
        checks = tuple((p, t) for p, t in enumerate(args) if p not in keyed and p not in names)
        order = -1 if k == first else int(k > first)
        levels.append(_Guard(g, tuple(names.get(p) for p in range(len(args))), keyed, checks,
                             order))
        bind(names.values())
    for name in sorted(set().union(*lit_vars) - bound):
        levels.append(name)
        bind((name,))
    ready: list[list[int]] = [[] for _ in range(len(levels) + 1)]
    for i, names in enumerate(lit_vars):
        ready[max((depth[n] for n in names if n in depth), default=0)].append(i)
    return levels, ready


def _ground(clauses: list[list[Literal]], relevant: "_Relevant", encode, clock: sat.Clock):
    """Onto `relevant.prop`, the propositional relevant instances of `clauses`.

    `encode(lit, env)` gives the code of one literal under the binding `env`
    of the clause's variables: None drops the instance (the literal is true,
    or it names a term outside the universe), 0 drops the literal (it is
    false), and any other value is a SAT literal.

    A clause's guards (`_Relevant.guards`) are joined against the atoms
    that can be true, each instance built in the round its last guard atom
    arrives; its other variables are bound one at a time in sorted order,
    depth-first on a stack, over the universe.  A literal is encoded once
    its last variable is bound, and a None drops every instance below that
    partial binding.  Each ground clause is kept once, as a sorted tuple of
    its literals, and a later call with the same `clauses` resumes from the
    atoms that the rows added to `prop` since make possible.

    Each job's literals, once for its plan, and each binding and literal
    encoded are work on `clock`.  Each time it reads the clock, the
    grounding stops if `prop` holds more than `_MAX_GROUND` clauses, and
    the caller gives up.
    """
    prop, kept = relevant.prop, relevant.kept
    universe = range(relevant.size)
    for lits, levels, ready, rounds in relevant.jobs(clauses, clock):
        if clock.tick(len(lits)) and len(prop) > _MAX_GROUND:  # its plan's share
            return prop
        env: dict[str, int] = {}
        codes = [0] * len(lits)
        # levels[k - 1] binds at depth k; depth 0 binds nothing
        stack = [iter((None,))]
        while stack:
            k = len(stack) - 1
            value = next(stack[-1], _END)
            if value is _END:
                stack.pop()
                continue
            if clock.tick(1 + len(ready[k])) and len(prop) > _MAX_GROUND:
                return prop  # too large: the caller gives up
            if k:
                level = levels[k - 1]
                if isinstance(level, str):
                    env[level] = value
                else:
                    env.update(zip(level.names, value))
            for i in ready[k]:
                code = encode(lits[i], env)
                if code is None:
                    break
                codes[i] = code
            else:
                if k < len(levels):
                    level = levels[k]
                    stack.append(iter(universe if isinstance(level, str)
                                      else relevant.matches(lits[level.lit], level, env, rounds)))
                    continue
                # a set of literals, as a sorted tuple
                instance = tuple(sorted(set(filter(None, codes))))
                if instance not in kept:
                    kept.add(instance)
                    prop.append(instance)
    return prop


def _collect_signature(clauses: list[Clause], clock: sat.Clock):
    """The constants and the function arities, sorted by name; a literal is a unit of work."""
    consts: set[str] = set()
    funcs: dict[str, int] = {}

    def scan(t: Term):
        if isinstance(t, Const):
            consts.add(t.name)
        elif isinstance(t, Func):
            funcs[t.name] = len(t.args)
            for a in t.args:
                scan(a)

    for cl in clauses:
        for lit in cl:
            clock.tick()
            for a in lit.args:
                scan(a)
    return sorted(consts), dict(sorted(funcs.items()))


def _kept_apart(cl: Clause) -> Optional[tuple[str, ...]]:
    """The constants `cl` keeps pairwise apart if it is a unique-name axiom,
    `$distinct(c1, …, cn)` or a ground `¬(a = b)` with a ≠ b; else None."""
    if len(cl) != 1:
        return None
    (lit,) = cl
    if lit.pred == DISTINCT or not lit.positive and lit.pred == EQ \
            and lit.args[0] != lit.args[1] and all(isinstance(t, Const) for t in lit.args):
        return tuple(c.name for c in lit.args)
    return None


# --- finite model search ----------------------------------------------------

class _VarPool:
    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.keys: list[tuple] = []  # variable v is keys[v - 1]

    def get(self, key: tuple) -> int:
        v = self.ids.get(key)
        if v is None:
            self.keys.append(key)
            v = self.ids[key] = len(self.keys)
        return v


def _pin(consts: list[str], apart: closed_structure.Apart, domain_size: int) -> dict[str, int]:
    """Constants pinned to the elements 0, 1, ...: each constant, in order,
    that is kept apart from every one pinned before it, while elements last.
    Each `$distinct` literal counts its pinned members: a constant in a
    literal that holds every pinned constant is apart from them all, with
    no test against each.

    Every model gives the pinned constants pairwise different elements, so
    a permutation of the domain maps them to 0, 1, ...: pinning keeps at
    least one model of each isomorphism class.
    """
    pinned: dict[str, int] = {}
    counts: dict[int, int] = {}  # clause index -> its literal's members pinned
    for c in consts:
        if len(pinned) == domain_size:
            break
        groups = apart.groups.get(c, ())
        if any(counts.get(n, 0) == len(pinned) for n in groups) \
                or all(apart(c, p) for p in pinned):
            pinned[c] = len(pinned)
            for n in groups:
                counts[n] = counts.get(n, 0) + 1
    return pinned


def find_model(
    clauses: list[Clause],
    domain_size: int,
    clock: sat.Clock = sat.Clock(),
) -> Optional[dict]:
    """Search for a model over a fixed domain size; None if none exists.

    `_ground` builds only the relevant instances.  With every relation atom
    that cannot be true made false, a model of those and of the totality
    and functionality rows satisfies each instance left out, which has a
    guard on such an atom: a model exists iff the full grounding has one.

    Raises `_TooLarge` when the problem passes `_MAX_GROUND`, and
    `sat.TimeBudgetExceeded` when `clock` passes its deadline: the
    signature's scan, the flattening, the grounding and the SAT search each
    report their work to it."""
    consts, funcs = _collect_signature(clauses, clock)
    pinned = _pin(consts, closed_structure.Apart(map(_kept_apart, clauses), clock), domain_size)
    domain = range(domain_size)
    # the totality and functionality rows of the unpinned constants and the
    # Skolem terms, 1 + d(d-1)/2 clauses each, counted before any is built
    rows = (len(consts) - len(pinned) + sum(domain_size ** a for a in funcs.values())) \
        * (1 + domain_size * (domain_size - 1) // 2)
    if rows > _MAX_GROUND:
        raise _TooLarge()
    fresh = map("FL{}".format, itertools.count(1))
    flat = []
    for cl, members in zip(clauses, map(_kept_apart, clauses)):
        if members is not None and pinned.keys() >= set(members):
            continue  # its constants are pinned apart
        # a unique-name axiom is ground as its units ¬(a = b) on an unpinned constant
        units = [cl] if members is None else (
            frozenset({Literal(False, EQ, (Const(a), Const(b)))})
            for a, b in itertools.combinations(members, 2) if a not in pinned or b not in pinned)
        for unit in units:
            flat.append(_flatten_clause(unit, fresh, pinned, clock))
            clock.tick(len(flat[-1]))
    pool = _VarPool()
    relevant = _Relevant(pinned, domain_size, pool)
    value = relevant.value

    def lit_code(lit: Literal, env: dict[str, int]) -> Optional[int]:
        """Propositional literal; None = literal true, 0 = literal false.
        A value's element is its variable's in `env` or its pin's; that of
        an unpinned constant or a Skolem term is a table entry."""
        sign = 1 if lit.positive else -1
        if lit.pred != EQ:
            return sign * pool.get(("p", lit.pred, tuple([value(a, env) for a in lit.args])))
        left, right = lit.args
        lv = value(left, env)
        if isinstance(right, Func):
            args = tuple([value(a, env) for a in right.args])
            return sign * pool.get(("f", right.name, args, lv))
        rv = value(right, env)
        if rv is None:  # an unpinned constant
            return sign * pool.get(("a", right.name, lv))
        return None if (lv == rv) == lit.positive else 0

    prop = _ground(flat, relevant, lit_code, clock)
    if len(prop) + rows > _MAX_GROUND:
        raise _TooLarge()
    for term in itertools.chain(
            (("a", c) for c in consts if c not in pinned),
            (("f", fname, args) for fname, arity in funcs.items()
             for args in itertools.product(domain, repeat=arity))):
        row = [pool.get((*term, d)) for d in domain]
        prop.append(tuple(row))
        prop.extend((-x, -y) for x, y in itertools.combinations(row, 2))

    model = sat.solve(prop, clock)
    if model is None:
        return None
    table = {key: model.get(vid, False) for key, vid in pool.ids.items()}
    # a pinned constant's one true entry; an absent entry is false
    table.update((("a", c, e), True) for c, e in pinned.items())
    return {"size": domain_size, "table": table}


# --- ground refutation ------------------------------------------------------

class _Relevant:
    """A procedure's universe, the ground atoms that can be true, and
    `_ground`'s semi-naive state, which each later call resumes.

    The universe is `range(size)`; `ids` gives the element a term names,
    a constant by name and a Skolem term by its symbol and argument
    elements, and a term it gives none lies outside.  The atoms that can
    be true are each element equal to itself and the relation atoms (keys
    "e" and "p") of the positive literals in `prop`, of the instances kept
    and the lemma rows; an equality is the two atoms `(i, j)` and `(j, i)`
    of the relation `=`.  A relation is a predicate name and an arity:
    `p(a)` and `p(a, b)` are atoms of two relations.
    """

    def __init__(self, ids: dict, size: int, pool: _VarPool):
        self.pool = pool
        self.ids = ids
        self.funcs = {key[0] for key in ids if isinstance(key, tuple)}  # with elements
        self.size = size
        self.prop: list[tuple[int, ...]] = []  # the instances kept and the lemma rows
        self.kept: set[tuple[int, ...]] = set()  # the instances kept
        # relation -> the (clause, guards, first) of its guards; None before
        # the first `jobs`
        self.triggers: Optional[dict[tuple[str, int], list]] = None
        self.plans: dict[tuple[int, int], tuple] = {}  # (clause, first) -> its plan
        self.read = 0  # how far into `prop` `_learn` has read
        self.done = 0  # how many atoms the rounds so far have matched
        # relation -> {argument positions: {their values: (arrival, arguments)}}
        self.indexes: dict[tuple[str, int], dict] = {}
        # relation -> the (arrival, arguments) of its atoms, in arrival order;
        # the first to arrive are each term equal to itself
        self.atoms: dict[tuple[str, int], list] = {
            _EQ_REL: [(i, (i, i)) for i in range(self.size)]}
        # the atoms that have arrived; `atoms` numbers each by how many came before it
        self.arrival: set[tuple[tuple[str, int], tuple[int, ...]]] = {
            (_EQ_REL, args) for _, args in self.atoms[_EQ_REL]}
        self.fresh = {_EQ_REL}  # the relations with atoms since the last round

    def value(self, t: Term, env: dict[str, int]) -> Optional[int]:
        """The universe index of `t` under `env`; None outside the universe."""
        if isinstance(t, Var):
            return env[t.name]
        if isinstance(t, Const):
            return self.ids.get(t.name)
        args = tuple(self.value(a, env) for a in t.args)
        return None if None in args else self.ids.get((t.name, args))

    def guards(self, lits: list[Literal]) -> tuple[int, ...]:
        """The positions of the guards: the negative literals whose terms
        are all universe elements once their variables are bound.  In the
        model search, an equality with an unpinned constant or a Skolem
        term reads a table entry, which the totality rows can always make
        true, so it is no guard: it is enumerated, not joined."""
        return tuple(i for i, lit in enumerate(lits) if not lit.positive and all(
            isinstance(t, Var) or t.name in (self.funcs if isinstance(t, Func) else self.ids)
            for t in lit.args))

    def jobs(self, clauses: list[list[Literal]], clock: sat.Clock):
        """`_ground`'s work, in rounds of semi-naive evaluation.

        On the first call, each clause without guards, over the universe.
        Then, while atoms arrive, each clause with a guard on the relation
        of an atom that arrived in the last round, that guard matched
        against those atoms; its plan is made the first time.  Before each
        round the rows added to `prop` since the last one, instances and
        lemma rows alike, are learned."""
        if self.triggers is None:
            self.triggers = {}
            for n, lits in enumerate(clauses):
                guards = self.guards(lits)
                if not guards:
                    yield (lits, *_plan(lits, (), 0, clock), None)
                for first, g in enumerate(guards):
                    self.triggers.setdefault((lits[g].pred, len(lits[g].args)), []) \
                        .append((n, guards, first))
        while True:
            self._learn(self.prop[self.read:])
            self.read = len(self.prop)
            if self.done == len(self.arrival):
                return
            rounds = (self.done, len(self.arrival))
            fresh, self.fresh = self.fresh, set()
            for rel, entries in self.triggers.items():
                if rel in fresh:
                    for n, guards, first in entries:
                        plan = self.plans.get((n, first))
                        if plan is None:
                            plan = self.plans[n, first] = _plan(clauses[n], guards, first, clock)
                        yield (clauses[n], *plan, rounds)
            self.done = rounds[1]

    def matches(self, lit: Literal, level: _Guard, env: dict[str, int], rounds):
        """The atoms that can be true on which `lit` falls under `env` and
        the binding of `level.names`, of those that arrived before the last
        round ends (`rounds`); in the last round itself if `level.order` is
        -1, or before it if 0.  An atom is looked up by the positions
        already ground, all of them for a ground atom, and must agree with
        the other compound arguments and repeated variables (`level.checks`)
        once bound."""
        args = lit.args
        key = tuple([env[args[p].name] if isinstance(args[p], Var) else self.value(args[p], env)
                     for p in level.keyed])
        if None in key:
            return ()
        since, until = rounds
        entries = self._lookup((lit.pred, len(args)), level.keyed, key)
        # the entries come in arrival order
        atoms = map(_SECOND, itertools.islice(
            entries, bisect_left(entries, (since,)) if level.order < 0 else 0,
            bisect_left(entries, (until if level.order else since,))))
        if not level.checks:
            return atoms
        return (atom for atom in atoms if self._agrees(level, env, atom))

    def _agrees(self, level: _Guard, env: dict[str, int], atom: tuple[int, ...]) -> bool:
        local = dict(env)
        local.update(zip(level.names, atom))
        return all(self.value(t, local) == atom[p] for p, t in level.checks)

    def _lookup(self, rel: tuple[str, int], keyed: tuple[int, ...], key: tuple[int, ...]):
        if not keyed:
            return self.atoms.get(rel, ())
        tables = self.indexes.setdefault(rel, {})
        table = tables.get(keyed)
        if table is None:
            table = tables[keyed] = {}
            for entry in self.atoms.get(rel, ()):
                table.setdefault(tuple(entry[1][p] for p in keyed), []).append(entry)
        return table.get(key, ())

    def _learn(self, rows) -> None:
        """Make the relation atoms (keys "e" and "p", not the model search's
        table entries) of the rows' positive literals possibly true, in the
        order of their codes; `_add` skips an atom that has arrived."""
        for code in sorted(set(itertools.chain.from_iterable(rows))):
            if code > 0:
                key = self.pool.keys[code - 1]
                if key[0] == "e":
                    _, i, j = key
                    self._add(_EQ_REL, (i, j))
                    self._add(_EQ_REL, (j, i))
                elif key[0] == "p":
                    self._add((key[1], len(key[2])), key[2])

    def _add(self, rel: tuple[str, int], args: tuple[int, ...]) -> None:
        if (rel, args) in self.arrival:
            return
        entry = (len(self.arrival), args)
        self.arrival.add((rel, args))
        self.fresh.add(rel)
        self.atoms.setdefault(rel, []).append(entry)
        for keyed, table in self.indexes.get(rel, {}).items():
            table.setdefault(tuple(args[p] for p in keyed), []).append(entry)


def refute(clauses: list[Clause], clock: sat.Clock = sat.Clock()) -> Optional[bool]:
    """True if a bounded grounding is propositionally unsatisfiable.

    The universe is the constants (one fresh constant if there are none)
    and every depth-1 Skolem term over them.  Returns None when the
    grounding was satisfiable or too large (both inconclusive for the
    first-order question).  Both the universe and the clauses kept count
    against `_MAX_GROUND`: the universe's size is known before it is
    built, and it is too large when it passes the limit; the grounding is
    too large once it keeps more than `_MAX_GROUND` clauses, counted as
    `_ground` builds them.

    One loop: ground to a fixpoint, solve, add the equality rows the model
    violates, and resume the grounding from the atoms their conclusions
    make possible.  Only the relevant instances are ground (see `_ground`
    and `_Relevant`): an instance with a negative literal on an atom that
    cannot be true is left out.  The answer is that of the full grounding:

    1. every SAT variable in `prop` is an atom that can be true: the
       positive literals, of instances and lemma rows alike, are learned;
       every negative literal of an instance is a guard, and guards match
       only such atoms; a lemma's premises are variables already in `prop`;
    2. None comes only from a model that violates no equality row;
    3. with every other atom false, that model satisfies every left-out
       instance, as each has a guard on such an atom, and the whole ground
       equality theory over the universe;
    4. the lemma rows are ground equality axioms, so True is sound.
    """
    consts, funcs = _collect_signature(clauses, clock)
    consts = consts or ["herbrand_c0"]
    if len(consts) + sum(len(consts) ** arity for arity in funcs.values()) > _MAX_GROUND:
        return None  # the universe alone passes the limit
    pool = _VarPool()
    apps = ((fname, args) for fname, arity in funcs.items()
            for args in itertools.product(range(len(consts)), repeat=arity))
    app_ids = dict(zip(apps, itertools.count(len(consts))))
    relevant = _Relevant({**dict(zip(consts, itertools.count())), **app_ids},
                         len(consts) + len(app_ids), pool)
    # the unique-name axioms make the equalities of the constants they keep
    # apart false: none gets a SAT variable, nor are its rows built
    apart = closed_structure.Apart(map(_kept_apart, clauses), clock)

    def eq_var(pair: tuple[int, int]) -> Optional[int]:
        """The SAT variable of a sorted pair's equality; None if it is false."""
        i, j = pair
        return None if j < len(consts) and apart(consts[i], consts[j]) else pool.get(("e", i, j))

    def eq_code(a: int, b: int, positive: bool) -> Optional[int]:
        if a == b:
            return None if positive else 0  # None = literal true, 0 = literal false
        v = eq_var((a, b) if a < b else (b, a))
        if v is None:
            return 0 if positive else None
        return v if positive else -v

    value = relevant.value

    def lit_code(lit: Literal, env: dict[str, int]) -> Optional[int]:
        args = tuple([env[a.name] if isinstance(a, Var) else value(a, env) for a in lit.args])
        if None in args:
            return None  # the instance names a term outside the universe
        if lit.pred == EQ:
            return eq_code(*args, lit.positive)
        v = pool.get(("p", lit.pred, args))
        return v if lit.positive else -v

    ordered = []
    for cl in clauses:
        if _kept_apart(cl) is None:  # `eq_code` makes a unique-name axiom true
            ordered.append(_ordered(cl, clock))
        clock.tick(len(cl))
    # the ground equality theory but symmetry and reflexivity (eq_code
    # folds them in) comes as lemma rows, until the model violates none or
    # the rows refute
    while True:
        prop = _ground(ordered, relevant, lit_code, clock)
        if len(prop) > _MAX_GROUND:
            return None
        model = sat.solve(prop, clock)
        if model is None:
            return True
        lemmas = _equality_lemmas(pool, model, app_ids, eq_var)
        if not lemmas:
            return None
        prop.extend(lemmas)


def _equality_lemmas(pool: _VarPool, model: dict[int, bool], app_ids: dict,
                     eq_var) -> list[tuple[int, ...]]:
    """The rows the model violates of transitivity `¬(a = b) ∨ ¬(b = c) ∨
    a = c`, function congruence `¬(ā = b̄) ∨ f(ā) = f(b̄)` and predicate
    congruence `¬p(ā) ∨ ¬(a_i = u) ∨ p(ā[i:=u])`.

    A variable the model does not assign counts as false.  A conclusion
    that `eq_var` makes false is dropped; a premise it makes false is never
    true, so its rows are never violated."""
    equal: dict[int, dict[int, int]] = {}  # term -> {equal term: its variable}
    atoms = []
    for key, v in pool.ids.items():
        if not model.get(v, False):
            continue
        if key[0] == "e":
            _, i, j = key
            equal.setdefault(i, {})[j] = v
            equal.setdefault(j, {})[i] = v
        else:
            atoms.append((key, v))

    def same(i: int, j: int) -> bool:
        return i == j or j in equal.get(i, {})

    def row(premises, i: int, j: int) -> tuple[int, ...]:
        conclusion = eq_var((i, j) if i < j else (j, i))
        return tuple(-e for e in premises) + (() if conclusion is None else (conclusion,))

    lemmas = []
    for others in equal.values():
        for (a, e1), (c, e2) in itertools.combinations(others.items(), 2):
            if not same(a, c):
                lemmas.append(row((e1, e2), a, c))
    for (fname, args), i in app_ids.items():
        # the later terms f(b̄) whose arguments the model makes equal to ā,
        # looked up from the equal terms of each argument, so the work
        # follows the equalities, not the square of the universe
        later = sorted((j, other) for other in itertools.product(
            *([a, *equal.get(a, ())] for a in args))
            if (j := app_ids.get((fname, other), i)) > i and not same(i, j))
        for j, other in later:
            lemmas.append(row([equal[a][b] for a, b in zip(args, other) if a != b], i, j))
    for (_, pname, args), pa in atoms:
        for pos, a in enumerate(args):
            for other, e in equal.get(a, {}).items():
                pb = pool.get(("p", pname, args[:pos] + (other,) + args[pos + 1:]))
                if not model.get(pb, False):
                    lemmas.append((-pa, -e, pb))
    return lemmas


# --- orchestration ----------------------------------------------------------

_STOP = object()  # an attempt's result when the clock cut it or it was too large


def decide_clauses(clauses: list[Clause], clock: sat.Clock) -> ProverResult:
    """Run the procedures in turn, each attempt on a slice of `clock`: a
    clock of its own that ends 0.4 of the time `clock` has left at the
    start after the attempt begins, or at `clock`'s deadline if that comes
    first; an unbounded clock of its own when `clock` has no deadline.

    1. ground refutation over the constants and the depth-1 Skolem terms,
       which decides the violating graphs and the containments;
    2. finite model search from the smallest size, one element per
       constant, up to `_LARGER_SIZES` more; it stops at the first size
       the clock cuts or `_MAX_GROUND` stops, as larger sizes only cost
       more.

    When neither concludes, the status is Timeout if the clock cut the
    signature's scan or an attempt, and GaveUp if each stopped at its bounds.
    """
    share = None if clock.deadline is None else (clock.deadline - time.monotonic()) * 0.4
    try:
        consts, funcs = _collect_signature(clauses, clock)
    except sat.TimeBudgetExceeded:
        return ProverResult("Timeout")
    cut = False  # whether the clock cut an attempt

    def attempt(procedure, *args):
        nonlocal cut
        deadline = None if share is None else min(clock.deadline, time.monotonic() + share)
        try:
            return procedure(*args, sat.Clock(deadline))
        except sat.TimeBudgetExceeded:
            cut = True
        except _TooLarge:
            pass
        return _STOP

    if attempt(refute, clauses) is True:
        depth = "skolem depth 1" if funcs else "constants"
        return ProverResult("Unsatisfiable", f"ground refutation ({depth})")
    lower = max(1, len(consts))
    for size in range(lower, lower + _LARGER_SIZES + 1):
        got = attempt(find_model, clauses, size)
        if got is _STOP:
            break
        if got is not None:
            return ProverResult("Satisfiable", f"finite model of size {size}")
    return ProverResult("Timeout" if cut else "GaveUp")


def decide_tptp_text(text: str, timeout_s: float = 10.0) -> ProverResult:
    """Decide a TPTP problem given as text on one clock of `timeout_s`
    seconds: its units, parsed on it, by `closed_structure.decide_units` on
    the same clock.  A parse that the clock cuts answers Timeout."""
    from . import tptp_parse

    clock = sat.Clock(time.monotonic() + timeout_s)
    try:
        units = tptp_parse.parse_tptp(text, clock)
    except sat.TimeBudgetExceeded:
        return ProverResult("Timeout")
    return closed_structure.decide_units(units, clock)


def _seconds(text: str) -> float:
    """A `--timeout` value: a finite number.  At NaN the check and
    `clausify` would run without a limit and the procedures with no time."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not math.isfinite(seconds):
        raise argparse.ArgumentTypeError(f"not a finite number of seconds: {text!r}")
    return seconds


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="shacl2fol-miniprover",
        description="Desk-scale TPTP prover: sound Satisfiable/Unsatisfiable answers "
        "on small problems, GaveUp otherwise.",
    )
    ap.add_argument("problem", help="TPTP problem file")
    ap.add_argument("--timeout", type=_seconds, default=10.0,
                    help="seconds of wall clock, a finite number")
    ap.add_argument("--parse-only", action="store_true", help="only check TPTP syntax")
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    from . import tptp_parse

    args = _parser().parse_args(argv)
    try:
        with open(args.problem, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"% SZS status InputError for {args.problem} : {exc}")
        return 1
    try:
        if args.parse_only:
            tptp_parse.parse_tptp(text)
        else:
            result = decide_tptp_text(text, timeout_s=args.timeout)
    except tptp_parse.TptpParseError as exc:
        print(f"% SZS status SyntaxError for {args.problem} : {exc}")
        return 1
    if args.parse_only:
        print(f"% SZS status Success for {args.problem}")
        return 0
    print(f"% SZS status {result.status} for {args.problem}")
    if result.detail:
        print(f"% {result.detail}")
    return 0


if __name__ == "__main__":
    # run by `python -m`: `decide_units` imports this module, not a copy
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
