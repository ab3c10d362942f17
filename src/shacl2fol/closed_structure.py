"""The one candidate structure of a problem, checked on its units.

A validation problem fixes everything but its shape predicate.  Each data
role is closed by a unit of the form `∀X̄ p(X̄) → ∨(∧ Xi = ci)`, or
`¬∃X̄ p(X̄)` when it has no tuple; each constant's kind is a ground fact,
and the kinds are pairwise disjoint; the unique-name axioms keep the
constants apart; and each shape is defined by `∀X (hasShape(X, c) ↔ φ)`.
These are Reiter's completion and unique-name axioms (*Towards a Logical
Reconstruction of Relational Database Theory*, 1984).  A `sat` or
`contains` problem has no closure: its closed-world reading is the
structure of its own facts, for a static problem of Pareti et al.
(*SHACL Satisfiability and Containment*, ISWC 2020) the empty data graph.

`ClosedStructure` builds the candidate structure of a problem, and its
`evaluate` evaluates every unit in it, by one rule:

* its domain is the problem's constants, each its own element, or one
  fresh element when the problem names no constant;
* a predicate with definitions `∀X̄ (P(ā) ↔ φ)`, where ā holds the
  variables X̄ and constants, holds where its definition does, evaluated
  on demand and memoised per tuple; an atom of P with a bound variable
  where ā holds a constant is resolved as it is evaluated;
* any other predicate holds exactly on its tuples: its closure's when it
  has one (it is closed), read into one set, so a closure is answered by
  a set lookup, not a walk over its disjunction; its ground facts
  otherwise.

A predicate's first closure and its definitions hold by construction;
every other unit, a second closure included, is evaluated.  A quantifier
enumerates the values its guard allows, from an index of a predicate's
tuples by the positions already bound (a closed guard first), or the
whole domain; it is planned when evaluation first reaches it, and the
rest only when a failure's exactness is asked.  A connective reads the
operands it can look up at once first.  The evaluation keeps its own
stack, so neither a 10,000-deep conjunction nor a 10,000-deep chain of
definitions deepens the Python stack, and reports each step to the
clock, `errors.Clock`.

The answers:

* every unit holds: the candidate is a model, so the problem is
  satisfiable;
* a unit fails, not at the fresh element: the problem is unsatisfiable
  when every model agrees with the candidate on that unit, which holds
  when every constant is kept apart (the one question the unique-name
  index, `Apart`, is built for), every predicate but the defined
  ones is closed with each tuple asserted or is a kind fixed at every
  element, every atom of a defined predicate has a definition, and every
  quantifier but a unit's universal prefix takes its values from a
  closed predicate (facts alone guard nothing: a model may add facts) or
  from an equality with a bound term: such a quantifier ranges only over
  the constants' elements in any model (the guarded fragment: Andréka,
  van Benthem & Németi, *Modal Languages and Bounded Fragments of
  Predicate Logic*, J. Phil. Logic 1998);
* otherwise, or with definitions that refer to each other in a cycle,
  or with a predicate at two arities, there is no answer (`None`).

The module evaluates first-order formulas; it knows nothing of shapes or
RDF, so the oracle stays an independent cross-check.

`decide_units` is the built-in prover's one entry point, on its caller's
clock.  It reads the units once into their candidate structure, which
merges the definitions that say the same thing for the steps that refute
(`ClosedStructure.merge`); when the merge leaves two apart at one key,
`entailment`, loaded only then, records which entail which.  A unit that
is `$false`, or `¬ψ` with each conjunct of ψ, or a strengthening of it
through those entailments, a unit up to bound-variable names, refutes
the problem at once (`_denial`): so `contains A A`, B with dropped
targets and B weakening A are decided before any quantifier is planned.
Otherwise the structure is evaluated; when that gives no answer, a unit
that asserts a definition whose body contradicts itself refutes
(`emptiness.refuted`).  Then each of the caller's lazy candidates, the
problem's units with more (for a static problem, a candidate RDF graph's
closures, kinds and unique names), is read into its own structure, and
the first on which every unit holds is a model of the problem too
(`_candidate`); one that fails a unit proves nothing.  Only then are the
clausal procedures (`miniprover`, `clausify`, `sat`) loaded and run on
the units as read.
The emitted text is unchanged: these steps are the prover's own
preprocessing.
"""

from __future__ import annotations

import functools
import gc
import itertools
from collections import Counter
from typing import AbstractSet, Iterable, Iterator, NamedTuple, Optional

from .errors import Clock, TimeBudgetExceeded
from .fol import (
    ASSERTED_ROLES, AndN, Atom, Const, Distinct, Eq, Exists, FalseF, Forall, Formula, Func,
    Iff, Implies, NotN, OrN, TptpFormula, TrueF, Var, components, conjuncts,
)
from .record import Record

_GUARD_DEPTH = 32  # how deep below a quantifier its guard is looked for
_END = object()  # an exhausted iterator's `next` default
_FRESH = "_fresh"  # the one element of a structure without constants


class _Inapplicable(Exception):
    """The problem has no one candidate structure: no answer."""


class _Lookup(NamedTuple):
    """A guard atom: the values at `position` of its predicate's tuples
    whose `keyed` positions hold the values of the atom's `args` there."""
    pred: str
    keyed: tuple[int, ...]
    position: int
    args: tuple
    closed: bool  # the tuples are a closure's, so every model's


class _Definition(NamedTuple):
    variables: tuple[tuple[int, str], ...]  # (argument position, variable)
    body: Formula
    memo: dict  # the truth per tuple of the variables' values
    unit: Formula  # the definition `∀X̄ (P(ā) ↔ body)` itself

    def numbered(self) -> tuple[dict[str, int], Iterator[int]]:
        """Head variables numbered -1 - position, and a counter below them."""
        return {v: -1 - i for i, v in self.variables}, \
            itertools.count(-2 - max((i for i, _ in self.variables), default=-1), -1)


def _value(t, env: dict[str, str]) -> str:
    return env[t.name] if type(t) is Var else t.name


def _closure(f: Formula) -> Optional[tuple[str, int, list[tuple[str, ...]]]]:
    """The predicate, arity and tuples of a closure unit, `∀X̄ p(X̄) →
    ∨(∧ Xi = ci)` or `¬∃X̄ p(X̄)`, with X̄ distinct; None for any other unit."""
    if type(f) is NotN and type(f.operand) is Exists:
        variables, atom, cases = f.operand.variables, f.operand.body, None
    elif type(f) is Forall and type(f.body) is Implies:
        variables, atom, cases = f.variables, f.body.left, f.body.right
    else:
        return None
    if type(atom) is not Atom:
        return None
    # each argument a variable of X̄, and each variable of X̄ one argument
    position = {a.name: i for i, a in enumerate(atom.args) if type(a) is Var}
    if len(position) != len(atom.args) or len(variables) != len(position) \
            or position.keys() != set(variables):
        return None
    disjuncts = () if cases is None or type(cases) is FalseF else \
        cases.operands if type(cases) is OrN else (cases,)
    tuples = []
    for d in disjuncts:
        eqs = d.operands if type(d) is AndN else (d,)
        row: list = [None] * len(variables)
        for eq in eqs:
            if type(eq) is not Eq:
                return None
            v, c = (eq.left, eq.right) if type(eq.left) is Var else (eq.right, eq.left)
            if type(v) is not Var or type(c) is not Const or v.name not in position \
                    or row[position[v.name]] is not None:
                return None
            row[position[v.name]] = c.name
        if None in row:
            return None
        tuples.append(tuple(row))
    return atom.pred, len(variables), tuples


def _apart(f: Formula) -> tuple[str, ...]:
    """The constants that a `$distinct` unit or a unit `¬(s = t)` keeps
    apart: the unit's, or the equality's constants."""
    if type(f) is Distinct:
        return tuple(c.name for c in f.constants)
    return tuple(t.name for t in (f.operand.left, f.operand.right) if type(t) is Const)


class Apart:
    """The one index of the unique-name axioms, from the constants each
    unit or clause keeps pairwise apart (None if it keeps none): a constant
    maps to the constants of its pairs and to the numbers of the larger
    groups that hold it.  Each group read is work on `clock`."""

    def __init__(self, groups: Iterable[Optional[tuple[str, ...]]], clock: Clock):
        self.partners: dict[str, set[str]] = {}
        self.groups: dict[str, set[int]] = {}
        for n, members in enumerate(groups):
            clock.tick()
            for c in members or ():
                if len(members) == 2:
                    self.partners.setdefault(c, set()).update(members)
                else:
                    self.groups.setdefault(c, set()).add(n)

    def __call__(self, a: str, b: str) -> bool:  # two different constants, in O(1)
        return b in self.partners.get(a, ()) \
            or not self.groups.get(a, set()).isdisjoint(self.groups.get(b, ()))

    def pairwise(self, names: AbstractSet[str]) -> bool:
        """Whether every two of `names` are kept apart: linear if one group holds all."""
        held = Counter(n for c in names for n in self.groups.get(c, ()))
        return len(names) < 2 or len(names) in held.values() \
            or all(itertools.starmap(self, itertools.combinations(names, 2)))


def _definition_head(f: Formula):
    """The atom and body of a definition `∀X̄ (P(ā) ↔ φ)`, where ā holds
    each of X̄ once and constants; else None."""
    if type(f) is not Forall or type(f.body) is not Iff or type(f.body.left) is not Atom:
        return None
    atom = f.body.left
    names = [a.name for a in atom.args if type(a) is Var]
    if sorted(names) != sorted(set(f.variables)) or len(set(names)) != len(names) \
            or any(type(a) not in (Var, Const) for a in atom.args):
        return None
    return atom, f.body.right


class ClosedStructure:
    """The candidate structure of a list of named units, by the one rule:
    each predicate without a definition holds on its `tuples`, its
    closure's when it is `closed`, else its ground facts.

    Raises `_Inapplicable` when the units have no one candidate, and
    `TimeBudgetExceeded` once `clock` passes its deadline.
    """

    def __init__(self, units: list[tuple[str, Formula]], clock: Optional[Clock] = None):
        self.clock = clock or Clock()
        self.clock.check()  # a budget spent before the check answers Timeout
        # each predicate's tuples, in order
        self.tuples: dict[str, dict[tuple[str, ...], None]] = {}
        self.closed: set[str] = set()
        self.arity: dict[str, int] = {}  # each predicate's one arity
        rest = []
        for name, f in units:
            got = _closure(f)
            if got is None or got[0] in self.closed:
                rest.append((name, f))  # a second closure is checked as a unit
                continue
            pred, arity, tuples = got
            self.arity[pred] = arity
            self.tuples[pred] = dict.fromkeys(tuples)
            self.closed.add(pred)
        # each defined predicate's argument positions that hold constants,
        # and its definitions by the constants there
        self.patterns: dict[str, tuple[int, ...]] = {}
        self.definitions: dict[str, dict[tuple[str, ...], _Definition]] = {}
        self.checked: list[tuple[str, Formula]] = []  # the units to evaluate
        # the predicates no merge may touch: with a second pattern, or with
        # an atom that holds a variable at a pattern position
        self.unmerged: set[str] = set()
        for name, f in rest:
            head = _definition_head(f)
            if head is not None and head[0].pred not in self.closed:
                atom, body = head
                pattern = tuple(i for i, a in enumerate(atom.args) if type(a) is Const)
                key = tuple(atom.args[i].name for i in pattern)
                defs = self.definitions.setdefault(atom.pred, {})
                if self.patterns.setdefault(atom.pred, pattern) != pattern:
                    self.unmerged.add(atom.pred)
                elif key not in defs:
                    if self.arity.setdefault(atom.pred, len(atom.args)) != len(atom.args):
                        raise _Inapplicable()  # a predicate at two arities
                    variables = tuple((i, a.name) for i, a in enumerate(atom.args)
                                      if type(a) is Var)
                    defs[key] = _Definition(variables, body, {}, f)
                    continue
            self.checked.append((name, f))
        self.elements: dict[str, None] = {}  # the constants, in order of appearance
        for ts in self.tuples.values():
            for t in ts:
                self.elements.update(dict.fromkeys(t))
        self.facts: dict[str, dict[tuple[str, ...], None]] = {}  # in order
        self.used: set[str] = set()  # the predicates of the atoms
        self.open_reference = False  # an atom of a defined predicate without definition
        # the quantifiers outside a universal prefix, each with the
        # variables bound outside it: each must take its values from a
        # closed predicate or a bound equality for a failure to refute
        self.quantifiers: list[tuple[Formula, frozenset]] = []
        # the constants that each $distinct unit or ground ¬(a = b) keeps apart
        self.apart: list[tuple[str, ...]] = []
        self.disjoint: set[tuple[str, str]] = set()  # kinds no element has both of
        # id of a quantifier -> one source per variable; a plan depends on
        # the node alone (each variable free in it is bound wherever it
        # occurs), so a node shared between positions has one plan
        self.plans: dict[int, tuple] = {}
        edges: dict[tuple[str, tuple], list[tuple[str, tuple]]] = {}
        for _, f in self.checked:
            self._read_axiom(f)
        for pred, facts in self.facts.items():
            if pred not in self.closed and pred not in self.patterns:
                self.tuples[pred] = facts
        self.guards = _Guards(self.closed, self.patterns.keys())
        for pred, defs in self.definitions.items():
            for key, definition in defs.items():
                edges[pred, key] = self._scan(definition.unit, True)
        for _, f in self.checked:
            self._scan(f, False)
        if not self.elements:
            self.elements[_FRESH] = None
        self._check_acyclic(edges)
        self.index: dict[tuple, dict] = {}
        # the predicates whose definitions may merge -> (arity, pattern)
        self.merging: dict[str, tuple] = {}
        self.into: dict[tuple, tuple] = {}  # a merged definition -> its target
        self.pairs: list[tuple[str, str, tuple]] = []  # (P, Q, ā) `merge` left apart

    @functools.cached_property
    def unique(self) -> Apart:  # the index of `apart`, built when `exact` first asks
        return Apart(self.apart, self.clock)

    # --- reading the units ---

    def _read_axiom(self, f: Formula) -> None:
        """Record a ground fact, unique-name unit or kind disjointness."""
        t = type(f)
        if t is Atom and all(type(a) is Const for a in f.args):
            self.facts.setdefault(f.pred, {})[tuple(a.name for a in f.args)] = None
        elif t is Distinct or t is NotN and type(f.operand) is Eq:
            self.apart.append(_apart(f))
        elif t is Forall and len(f.variables) == 1 and type(f.body) is NotN \
                and type(f.body.operand) is AndN and len(f.body.operand.operands) == 2:
            x = Var(f.variables[0])
            kinds = [a.pred for a in f.body.operand.operands
                     if type(a) is Atom and a.args == (x,)]
            if len(kinds) == 2:
                self.disjoint.update((tuple(kinds), tuple(kinds[::-1])))

    def _scan(self, f: Formula, definition: bool) -> list:
        """Walk a unit (a definition's body when `definition`): record its
        constants, predicates and the quantifiers that need a guard, and
        return the definitions its atoms refer to.  The universal prefix
        is the run of `∀` at the root, whose variables need no guard."""
        refs = []
        stack = [(f, frozenset(), True)]
        while stack:
            g, bound, prefix = stack.pop()
            self.clock.tick()
            t = type(g)
            if t is Atom:
                if self.arity.setdefault(g.pred, len(g.args)) != len(g.args):
                    raise _Inapplicable()  # a predicate at two arities
                self.used.add(g.pred)
                self._terms(g.args, bound)
                pattern = self.patterns.get(g.pred)
                if pattern is not None:
                    node = self.node(g)
                    if node is not None:
                        refs.append(node)
                    elif any(type(g.args[i]) is Var for i in pattern):
                        # resolved when evaluated: it may refer to any definition
                        self.unmerged.add(g.pred)
                        refs.extend((g.pred, k) for k in self.definitions[g.pred])
                    else:
                        self.open_reference = True
            elif t is Eq:
                self._terms((g.left, g.right), bound)
            elif t is Distinct:
                self._terms(g.constants, bound)
            elif t is NotN:
                stack.append((g.operand, bound, False))
            elif t is AndN or t is OrN:
                stack.extend([(h, bound, False) for h in g.operands])
            elif t is Implies or t is Iff:
                stack.extend(((g.left, bound, False), (g.right, bound, False)))
            elif t is Forall or t is Exists:
                universal = prefix and t is Forall
                inner = bound.union(g.variables)
                if definition and universal:
                    head = g.body.left
                    self.used.add(head.pred)
                    self._terms(head.args, inner)
                    stack.append((g.body.right, inner, False))
                    continue
                if not universal:
                    self.quantifiers.append((g, bound))
                stack.append((g.body, inner, universal))
            elif t is not TrueF and t is not FalseF:
                raise _Inapplicable()
        return refs

    def _terms(self, terms, bound) -> None:
        for a in terms:
            if type(a) is Const:
                self.elements[a.name] = None
            elif type(a) is not Var or a.name not in bound:
                raise _Inapplicable()  # a free variable or a function term

    def _check_acyclic(self, edges: dict) -> None:
        """No definition reaches itself through its references, an atom
        resolved as it is evaluated referring to every definition of its
        predicate: the candidate is well defined.  The definitions are
        kept in `order`, each after those it refers to."""
        self.order = components(edges, edges.__getitem__)
        for component in self.order:
            if len(component) > 1 or component[0] in edges[component[0]]:
                raise _Inapplicable()

    # --- definitions that say the same thing ---

    def merge(self, units: list[tuple[str, Formula]]) -> tuple[list, str]:
        """Merge each definition `∀X̄ (Q(b̄) ↔ ψ)` whose body says what an
        earlier one's, `∀X̄ (P(ā) ↔ φ)`, does into it: its entry becomes
        the earlier one's, so both read one memo, and `rename` turns every
        atom of Q with b̄'s constants at their positions into one of P with
        ā's.  Returns `units` without the merged definitions, and "N of M
        definitions merged", or `units` and "" when none is.  `pairs` gets two
        left apart at one key, of predicates sharing an arity and a pattern.

        Two definitions merge when their predicates share an arity and a
        pattern (the positions of ā's constants), as `hasShape` and
        `hasShapeB` do in `contains`, and their bodies are equal up to the
        names of bound variables, the head variables numbered by position
        and the atoms of definitions already merged renamed, compared in
        dependency order.  A predicate with two patterns, or with an atom
        that holds a variable at a pattern position, is left as it is: an
        atom is renamed by the constants at its predicate's one pattern.

        The merged units serve refutation only, the denial (`_denial`) and
        `emptiness.refuted`.  By induction on the dependency order, Q(·, b̄)
        and P(·, ā) are the same relation in every model of the original
        units, so each such model satisfies every renamed unit; a
        refutation of the merged units, some originals left out, is then
        one of the original units (predicate elimination: Khasidashvili &
        Korovin, *Predicate Elimination for Preprocessing in First-Order
        Theorem Proving*, SAT 2016).  No constant need be kept apart for
        this.  A model of the merged units need not be one of the original
        units, so the clausal procedures, whose model search answers
        Satisfiable, get the units as read.  The candidate itself is
        unchanged, as the merged entries hold where their own definitions
        do."""
        shapes = {pred: (self.arity[pred], pattern) for pred, pattern in self.patterns.items()
                  if pred not in self.unmerged}
        shared = Counter(shapes.values())
        self.merging = {pred: shape for pred, shape in shapes.items() if shared[shape] > 1}
        first: dict[tuple, tuple] = {}  # (arity, pattern, canonical body) -> definition
        at: dict[tuple, list[str]] = {}  # (arity, pattern, ā) -> the predicates left there
        dropped = set()  # the ids of the merged definitions' units
        for (node,) in self.order:
            pred, key = node
            shape = self.merging.get(pred)
            if shape is None:
                continue
            definition = self.definitions[pred][key]
            canonical = (shape, _canonical(
                definition.body, self.clock, definition.numbered()[0], self.rename))
            target = first.setdefault(canonical, node)
            if target is not node:
                self.into[node] = target
                dropped.add(id(definition.unit))
                self.definitions[pred][key] = self.definitions[target[0]][target[1]]
                continue
            others = at.setdefault((shape, key), [])
            self.pairs.extend((other, pred, key) for other in others)
            others.append(pred)
        if not self.into:
            return units, ""
        return [(name, f) for name, f in units if id(f) not in dropped], \
            f"{len(self.into)} of {sum(map(len, self.definitions.values()))} definitions merged"

    def node(self, atom: Atom) -> Optional[tuple[str, tuple]]:
        """The definition (P, ā) that an atom of P is one of, by the constants
        at P's pattern positions; None for an atom of no definition."""
        pattern = self.patterns.get(atom.pred)
        if pattern is None or any(type(atom.args[i]) is not Const for i in pattern):
            return None
        key = tuple([atom.args[i].name for i in pattern])
        return (atom.pred, key) if key in self.definitions[atom.pred] else None

    def rename(self, atom: Atom) -> Atom:
        """The atom of the definition that the atom's definition was merged
        into, or the atom itself."""
        target = self.into.get(self.node(atom)) if atom.pred in self.merging else None
        if target is None:
            return atom
        head = self.definitions[target[0]][target[1]].unit.body.left
        args = list(atom.args)
        for i in self.patterns[atom.pred]:
            args[i] = head.args[i]
        return Atom(target[0], tuple(args))

    # --- the soundness conditions of a failure ---

    def exact(self) -> bool:
        """Whether every model agrees with the candidate on every unit,
        so that a failing unit refutes the problem."""
        return not self.open_reference \
            and self.unique.pairwise(self.elements.keys()) \
            and all(map(self._fixed, self.used)) and not self.unguarded()

    def unguarded(self) -> bool:
        """Whether a quantifier outside a unit's universal prefix takes its
        values neither from a closed predicate nor from an equality with a
        bound term; those evaluation has not reached are planned here."""
        return any(source is None or _cost(source) >= _UNCLOSED
                   for g, bound in self.quantifiers for source in self._plan(g, bound))

    def _fixed(self, pred: str) -> bool:
        """Whether every model interprets the predicate as the candidate
        does on the constants."""
        if pred in self.closed:
            return self.tuples[pred].keys() <= self.facts.get(pred, {}).keys()
        if pred in self.definitions:
            return True
        if self.arity[pred] != 1:
            return False
        kinds = self.facts.get(pred, {})
        others = [(k, facts) for k, facts in self.facts.items()
                  if (pred, k) in self.disjoint]
        return all((c,) in kinds or any((c,) in facts for _, facts in others)
                   for c in self.elements)

    # --- evaluation ---

    def evaluate(self) -> Optional[ProverResult]:
        """Satisfiable when the candidate satisfies every unit,
        Unsatisfiable when it fails one on which every model agrees with
        it, and None otherwise."""
        kind = "closed" if self.closed else "facts-only"
        procedure = f"{kind} structure of {len(self.elements)} elements"
        for name, f in self.checked:
            for env in self.failures(f):
                if not self.exact() or _FRESH in env.values():
                    return None
                at = " at " + ", ".join(f"{v} = {c}" for v, c in env.items()) if env else ""
                return ProverResult("Unsatisfiable", f"{procedure}; fails {name}{at}")
        return ProverResult("Satisfiable", procedure)

    def failures(self, f: Formula) -> Iterator[dict[str, str]]:
        """The bindings of the unit's outermost `∀` at which it fails, or
        one empty binding if a unit without one fails."""
        if type(f) is Forall:
            for env in self._bindings(f, {}):
                if not self._run(f.body, env):
                    yield dict(env)
        elif not self._run(f, {}):
            yield {}

    def _run(self, f: Formula, env: dict[str, str]) -> bool:
        """The truth of `f` under `env`.  The evaluations of the
        subformulas in progress are generators on one stack: each yields
        the subformula it needs and is sent back its truth."""
        value = self._leaf(f, env)
        if value is not None:
            return value
        stack = [self._eval(f, env)]
        value = None
        while True:
            try:
                g, genv = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                value = done.value
                continue
            self.clock.tick()
            stack.append(self._eval(g, genv))
            value = None

    def _leaf(self, f: Formula, env: dict[str, str]) -> Optional[bool]:
        """The truth of a formula read off the candidate at once; None
        for one that needs its own evaluation."""
        t = type(f)
        if t is Atom:
            args = tuple([env[a.name] if type(a) is Var else a.name for a in f.args])
            tuples = self.tuples.get(f.pred)
            if tuples is not None:
                return args in tuples
            pattern = self.patterns.get(f.pred)
            if pattern is None:
                return False  # no tuple and no definition
            definition = self.definitions[f.pred].get(tuple(args[i] for i in pattern))
            if definition is None:
                self.open_reference = True
                return False
            return definition.memo.get(tuple(args[i] for i, _ in definition.variables))
        if t is Eq:
            return _value(f.left, env) == _value(f.right, env)
        if t is NotN and type(f.operand) in (Atom, Eq):
            value = self._leaf(f.operand, env)
            return None if value is None else not value
        if t is TrueF:
            return True
        if t is FalseF:
            return False
        if t is Distinct:
            return len({c.name for c in f.constants}) == len(f.constants)
        return None

    def _sub(self, f: Formula, env: dict[str, str]):
        """The truth of a subformula: at once, or by yielding it."""
        value = self._leaf(f, env)
        if value is None:
            value = yield f, env
        return value

    def _eval(self, f: Formula, env: dict[str, str]):
        """The evaluation of a compound formula, or of an atom of a
        defined predicate not yet in its memo, for `_run` to drive."""
        t = type(f)
        if t is AndN or t is OrN:
            stop = t is OrN  # the value that decides the connective
            values = [self._leaf(g, env) for g in f.operands]  # read off at once
            if stop in values:
                return stop
            for g, value in zip(f.operands, values):
                if value is None and (yield from self._sub(g, env)) is stop:
                    return stop
            return not stop
        if t is NotN:
            return not (yield from self._sub(f.operand, env))
        if t is Implies:
            return not (yield from self._sub(f.left, env)) \
                or (yield from self._sub(f.right, env))
        if t is Iff:
            return (yield from self._sub(f.left, env)) == (yield from self._sub(f.right, env))
        if t is Forall or t is Exists:
            stop = t is Exists
            for binding in self._bindings(f, env):
                if (yield from self._sub(f.body, binding)) is stop:
                    return stop
            return not stop
        args = [_value(a, env) for a in f.args]
        definition = self.definitions[f.pred][tuple(args[i] for i in self.patterns[f.pred])]
        key = tuple(args[i] for i, _ in definition.variables)
        value = yield from self._sub(definition.body, {v: args[i] for i, v in definition.variables})
        definition.memo[key] = value
        return value

    def _bindings(self, f, env: dict[str, str]) -> Iterator[dict[str, str]]:
        """The bindings of the quantifier's variables that its plan
        allows, each variable's values looked up once the variables
        before it are bound.  One dict is yielded each time, changed in
        place: read it before asking for the next."""
        names, plan = f.variables, self.plans.get(id(f)) or self._plan(f, env.keys())
        env = dict(env)
        last = len(names) - 1
        iters = [self._values(plan[0], env)]
        while iters:
            value = next(iters[-1], _END)
            if value is _END:
                iters.pop()
                continue
            k = len(iters) - 1
            env[names[k]] = value
            self.clock.tick()
            if k == last:
                yield env
            else:
                iters.append(self._values(plan[k + 1], env))

    def _plan(self, f, bound: AbstractSet[str]) -> tuple:
        """The quantifier's plan, made the first time it is asked: each
        variable's guard, given the variables `bound` outside it and the
        quantifier's variables before it."""
        plan = self.plans.get(id(f))
        if plan is None:
            inner = set(bound).difference(f.variables)
            plan = []
            for v in f.variables:
                self.clock.tick()
                plan.append(self.guards.source(f.body, v, inner, type(f) is Exists))
                inner.add(v)
            plan = self.plans[id(f)] = tuple(plan)
        return plan

    def _values(self, source, env: dict[str, str]):
        if source is None:
            return iter(self.elements)
        if len(source) == 1:
            return iter(self._alternative(source[0], env))
        return iter(dict.fromkeys(itertools.chain.from_iterable(
            self._alternative(alt, env) for alt in source)))

    def _alternative(self, alt, env: dict[str, str]):
        if type(alt) is not _Lookup:
            return (_value(alt, env),)  # the bound term of an equality
        pred, keyed, position, args, _ = alt
        index = self.index.get(alt[:3])
        if index is None:
            index = self.index[alt[:3]] = {}
            for t in self.tuples.get(pred, ()):
                index.setdefault(tuple([t[i] for i in keyed]), {})[t[position]] = None
        return index.get(tuple([_value(args[i], env) for i in keyed]), ())


# --- guards -----------------------------------------------------------------

_UNCLOSED = 3  # the cost a lookup among facts adds, above every closed source


def _cost(source) -> int:
    """0 for the bound terms of equalities, 1 for keyed lookups, 2 for any
    source with a lookup by no position; `_UNCLOSED` more for any source
    with a lookup of an unclosed predicate, so a closed guard always wins."""
    cost = extra = 0
    for a in source:
        if type(a) is _Lookup:
            cost = max(cost, 1 if a.keyed else 2)
            if not a.closed:
                extra = _UNCLOSED
    return cost + extra


def _best(sources):
    """The first of the cheapest sources; None when there is none."""
    best, least = None, _UNCLOSED + 3
    for s in sources:
        if s is not None:
            cost = _cost(s)
            if cost < least:
                best, least = s, cost
    return best


def _union(*sources):
    return None if any(s is None for s in sources) else tuple(itertools.chain(*sources))


class _Guards:
    """The guards of quantified variables among the atoms of the
    predicates without definition, closed or not.

    The operands of each conjunction and disjunction are indexed once by
    the variables of those that are atoms or equalities, negated or not,
    so a conjunction of many atoms, such as a long sequence path, is not
    searched whole for each of its variables."""

    def __init__(self, closed: AbstractSet[str], defined: AbstractSet[str]):
        self.closed = closed
        self.defined = defined
        self.operands: dict[int, tuple[tuple[dict[str, list], dict[str, list]], list]] = {}

    def source(self, f: Formula, v: str, bound: AbstractSet[str], true: bool,
               depth: int = 0) -> Optional[tuple]:
        """The guard of the variable `v` in `f`: alternatives whose values
        hold every value of `v` at which `f` is `true`, given values for
        the variables `bound`; each is a lookup among the tuples of an
        atom or the bound term of an equality.  None when there is none."""
        if depth > _GUARD_DEPTH:
            return None
        depth += 1
        t = type(f)
        if t is Atom or t is Eq:
            return self._leaf_source(f, v, bound) if true else None
        if t is TrueF or t is FalseF:
            return () if (t is FalseF) == true else None
        if t is NotN:
            return self.source(f.operand, v, bound, not true, depth)
        if t is AndN or t is OrN:
            if (t is AndN) != true:  # every operand must guard v
                return _union(*[self.source(g, v, bound, true, depth) for g in f.operands])
            leaves, compound = self._can_guard(f)
            return _best([self._leaf_source(leaf, v, bound) for leaf in leaves[true].get(v, ())]
                         + [self.source(g, v, bound, true, depth) for g in compound])
        if t is Implies:  # ¬left ∨ right
            left = self.source(f.left, v, bound, not true, depth)
            right = self.source(f.right, v, bound, true, depth)
            return _union(left, right) if true else _best((left, right))
        if t is Iff:  # both true or both false; false: one of each
            def side(a, b):
                return _best((self.source(f.left, v, bound, a, depth),
                              self.source(f.right, v, bound, b, depth)))
            return _union(side(True, true), side(False, not true))
        if (t is Exists) == true and v not in f.variables:
            # true (or, for ∀, false) at some value of its variables
            return self.source(f.body, v, bound - set(f.variables), true, depth)
        return None

    def _leaf_source(self, f, v: str, bound: AbstractSet[str]) -> Optional[tuple]:
        """The guard of `v` in an atom or equality that holds."""
        if type(f) is Eq:
            for x, y in ((f.left, f.right), (f.right, f.left)):
                if type(x) is Var and x.name == v and (type(y) is Const or y.name in bound):
                    return (y,)
            return None
        if f.pred in self.defined:
            return None
        position, keyed = None, []
        for i, a in enumerate(f.args):
            if type(a) is Var and a.name == v:
                if position is None:
                    position = i
            elif type(a) is Const or a.name in bound:
                keyed.append(i)
        if position is None:
            return None
        return (_Lookup(f.pred, tuple(keyed), position, f.args, f.pred in self.closed),)

    def _can_guard(self, f) -> tuple[tuple[dict[str, list], dict[str, list]], list]:
        """The operands of `f` that may guard a variable: by variable, the
        atoms and equalities of it that hold where the operand is false
        (negated ones) and where it is true (the others); and the compound
        operands, which may guard any."""
        got = self.operands.get(id(f))
        if got is None:
            leaves: tuple[dict[str, list], dict[str, list]] = ({}, {})
            compound = []
            for g in f.operands:
                by_var = leaves[type(g) is not NotN]
                leaf = g if type(g) is not NotN else g.operand
                if type(leaf) is Atom:
                    args = leaf.args
                elif type(leaf) is Eq:
                    args = (leaf.left, leaf.right)
                else:
                    compound.append(g)
                    continue
                for name in dict.fromkeys([a.name for a in args if type(a) is Var]):
                    by_var.setdefault(name, []).append(leaf)
            got = self.operands[id(f)] = (leaves, compound)
        return got


class ProverResult(Record):
    __slots__ = ("status", "detail", "candidate")
    __hash__ = None

    def __init__(self, status: str, detail: str = "", candidate=None):
        self.status = status  # Satisfiable | Unsatisfiable | GaveUp | Timeout
        self.detail = detail
        self.candidate = candidate  # the witness of the candidate that is a model


# --- definitions that say the same thing, and units that deny others --------

def _parts(f: Formula) -> tuple:
    """The immediate subformulas of a formula."""
    t = type(f)
    if t is AndN or t is OrN:
        return f.operands
    if t is NotN:
        return (f.operand,)
    if t is Implies or t is Iff:
        return (f.left, f.right)
    if t is Forall or t is Exists:
        return (f.body,)
    return ()


def _canonical(f: Formula, clock: Clock, numbers: Optional[dict] = None,
               rename=None) -> tuple:
    """The tokens of `f` in prefix order, each kind of node with its number
    of operands, so that two formulas have the same tokens exactly when
    they are equal up to the names of their bound variables: a variable
    is written as the number of its binding, in binding order, or as its
    entry in `numbers` when bound outside `f`.  `rename` maps each atom
    first."""
    out: list = []
    scope = dict(numbers or ())
    bindings = 0
    stack: list = [f]
    while stack:
        g = stack.pop()
        clock.tick()
        t = type(g)
        if t is tuple:  # a quantifier's scope ends: the shadowed numbers return
            for name, number in g:
                if number is None:
                    del scope[name]
                else:
                    scope[name] = number
            continue
        if t is Var:
            out.append(scope.get(g.name, g))  # a free variable stands for itself
            continue
        out.append(t)
        if t is Const:
            out.append(g.name)
        elif t is Func or t is Atom:
            if t is Atom and rename is not None:
                g = rename(g)
            out.append(g.name if t is Func else g.pred)
            out.append(len(g.args))
            stack.extend(reversed(g.args))
        elif t is Eq:
            stack.extend((g.right, g.left))
        elif t is Distinct:
            out.append(len(g.constants))
            stack.extend(reversed(g.constants))
        elif t is Forall or t is Exists:
            out.append(len(g.variables))
            stack.append(tuple((v, scope.get(v)) for v in g.variables))
            for v in g.variables:
                scope[v] = bindings
                bindings += 1
            stack.append(g.body)
        else:
            parts = _parts(g)
            out.append(len(parts))
            stack.extend(reversed(parts))
    return tuple(out)


def _denial(named: list[tuple[str, Formula]], clock: Clock, rename=None,
            strengthened=None) -> Optional[str]:
    """How the units contradict each other at once, or None: one is
    `$false`, or one is `¬ψ` and each conjunct of ψ (`fol.conjuncts`, ψ
    itself when it is no conjunction) is a unit, up to bound-variable
    names, once each atom is renamed by `rename` or by one of the renamings
    `strengthened` gives it.  A unit whose conjuncts are of no kind a unit
    is costs a type check."""
    present = set()  # the kinds of the units
    for name, f in named:
        if type(f) is FalseF:
            return f"{name} is $false"
        present.add(type(f))
    if NotN not in present:
        return None
    denials = []
    for name, f in named:
        if type(f) is NotN:
            g = f.operand
            cs = conjuncts(g) if type(g) is AndN else (g,)
            if all(type(c) in present for c in cs):
                denials.append((name, cs))
    if not denials:
        return None
    wanted = {type(c) for _, cs in denials for c in cs}
    asserted = {_canonical(f, clock, rename=rename) for _, f in named if type(f) in wanted}
    for name, cs in denials:
        if all(any(_canonical(c, clock, rename=r) in asserted
                   for r in (rename, *(strengthened(c) if strengthened else ())))
               for c in cs):
            return f"{name} denies asserted units"
    return None


def _named(units: list[TptpFormula]) -> tuple[list, list]:
    """The units as (name, formula) pairs, each conjecture negated, and
    the conjectures among them."""
    named = [(u.name, u.body) for u in units if u.role in ASSERTED_ROLES]
    conjectures = [(u.name, NotN(u.body)) for u in units if u.role == "conjecture"]
    return named + conjectures, conjectures


def _candidate(candidates: Iterable[tuple], clock: Clock) -> Optional[ProverResult]:
    """Satisfiable, with its detail and witness, at the first candidate
    (detail, units, witness) on whose structure every unit holds; None if
    none does.  A candidate's units are the problem's with more, so that
    structure is a model of the problem too; one it fails proves nothing."""
    for detail, units, witness in candidates:
        clock.check()
        try:
            result = ClosedStructure(_named(units)[0], clock).evaluate()
        except _Inapplicable:
            continue
        if result is not None and result.status == "Satisfiable":
            return ProverResult("Satisfiable", detail, witness)
    return None


def decide_units(units: list[TptpFormula], clock: Clock,
                 candidates: Iterable = ()) -> ProverResult:
    """Decide a problem given as its units on the caller's `clock`: read
    once into their candidate structure, merged (`ClosedStructure.merge`),
    their entailments found when the merge leaves definitions apart
    (`entailment.entailed`), then refuted by a denial of the merged units
    (`_denial`), decided by the structure, refuted by its empty definitions
    (`emptiness.refuted`), satisfied on one of the lazy `candidates`
    (`_candidate`), each its detail, the problem's units with more and its
    witness, or, failing those, clausified as read and decided by
    `miniprover.decide_clauses`.  The detail counts the merges, the
    entailments and the empty ones, but for a candidate's answer, which is
    the candidate's detail."""
    # the units are read, merged and evaluated with the cycle collector
    # paused: none of it makes a reference cycle, and the full passes a
    # large problem's plans set off would walk the whole heap, units included
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            named, conjectures = _named(units)
            try:
                structure = ClosedStructure(named, clock)
            except _Inapplicable:
                structure, pruned, merged = None, named, ""
            else:
                pruned, merged = structure.merge(named)
            found = None
            if structure is not None and structure.pairs:
                from . import entailment

                found = entailment.entailed(structure, clock)
            refutation = _denial(pruned, clock, structure.rename if merged else None,
                                 found and found.strengthened)
            result = None
            if refutation is None and structure is not None:
                result = structure.evaluate()
                if result is None and structure.definitions:
                    from . import emptiness

                    refutation = emptiness.refuted(structure, pruned, clock, found)
            if refutation is not None:
                result = ProverResult("Unsatisfiable", "; ".join(
                    filter(None, (found and found.detail(), refutation))))
            if result is None:
                result = _candidate(candidates, clock)
                if result is not None:
                    merged = ""  # the candidate's units are checked unmerged
        finally:
            if collecting:
                gc.enable()
        if result is None:
            from . import miniprover

            # freed before the clausal procedures, whose collections would
            # otherwise walk it
            structure = pruned = found = None
            # called through `miniprover`, where perfbench/tracing.py wraps them
            result = miniprover.decide_clauses(
                miniprover.clausify([f for _, f in named], clock), clock)
    except TimeBudgetExceeded:
        return ProverResult("Timeout")
    status, detail = result.status, "; ".join(filter(None, (merged, result.detail)))
    if conjectures and status in ("Satisfiable", "Unsatisfiable"):
        status = "CounterSatisfiable" if status == "Satisfiable" else "Theorem"
    return ProverResult(status, detail, result.candidate)
