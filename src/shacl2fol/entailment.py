"""Definitions that entail others, proved on the structure of their bodies.

`closed_structure.decide_units` loads this module only when the merge
leaves definitions `∀X̄ (P(ā) ↔ φ)` and `∀X̄ (Q(ā) ↔ ψ)` apart at one key
ā, of predicates that share an arity and a pattern (`pairs`), as
`hasShape(·, s)` and `hasShapeB(·, s)` are when B weakens A's shape s.
`entailed` walks those pairs in dependency order, each after the
definitions it refers to, and records `P(·, ā) ⊨ Q(·, ā)` when φ ⊨ ψ
follows from the bodies' structure:

* every conjunct of ψ is entailed by a conjunct of φ;
* two formulas entail when their `_canonical` tokens are equal, the head
  variables numbered by position and atoms renamed by the merge;
* an atom entails one with the same arguments whose definition its own
  was recorded to entail: `hasShape(Y, s) ⊨ hasShapeB(Y, s)`;
* `∃Ȳ(c₁ ∧ … ∧ cₙ)` entails `∃Z̄(d₁ ∧ … ∧ dₘ)` when a map from Z̄ to the
  terms in scope sends each dⱼ onto a cᵢ that entails it, `¬(a = b)`
  read both ways round: a homomorphism of conjunctive queries (Chandra &
  Merlin, *Optimal Implementation of Conjunctive Queries in Relational
  Data Bases*, STOC 1977), found by a backtracking search on the clock;
* `¬f` entails `¬g` when g entails f, so `¬∃` entails `¬∃` by the same
  test in the reverse direction (a `maxCount`), and a recorded entailment
  of atoms is used only at a positive position of the test it serves;
* a conjunction, a disjunction and their operands by the usual rules;
  any other pair only when its tokens are equal;
* an atom that the test `false` holds, one of a definition `emptiness`
  found empty, is `$false` and its negation `$true`.

`entails` is the one test: the tests given one counter of bound-variable
numbers, those of one pair of definitions here or of one definition in
`emptiness`, share `_STEPS` steps, and are False once they are spent.

This is structural subsumption (Borgida & Patel-Schneider, *A Semantics
and Complete Algorithm for Subsumption in the CLASSIC Description Logic*,
JAIR 1994).  Each rule is sound and each recorded entailment rests only
on those recorded before it, so every one holds in every model of the
units, where each merged definition is the one it was merged into:
`P(x̄, ā) ↔ φ ⊨ ψ ↔ Q(x̄, ā)`.  As for the merge, no constants need be
kept apart: the entailments serve refutation only.

`strengthened` serves the denial: a denied conjunct whose entailed atoms,
read at positive positions as the atoms that entail them, form an
asserted unit is itself entailed by that unit.
"""

from __future__ import annotations

from .closed_structure import _canonical, _parts
from .fol import (
    AndN, Atom, Const, Eq, Exists, FalseF, Formula, Iff, Implies, NotN, OrN, TrueF, conjuncts,
)

_DEPTH = 64  # how deep the test walks two formulas before it asks for equal tokens
_STEPS = 4096  # the steps of the tests of one pair, or of one definition in `emptiness`


def _positive(f: Formula) -> Formula:
    """`f` without the double negations at its root."""
    while type(f) is NotN and type(f.operand) is NotN:
        f = f.operand.operand
    return f


def _operands(f: Formula):
    """The operands of a conjunction or disjunction, a negated one's
    negated, and whether they are conjoined; (None, False) for others."""
    t = type(f)
    if t is NotN and type(f.operand) in (AndN, OrN):
        g = f.operand
        return [NotN(h) for h in (conjuncts(g) if type(g) is AndN else g.operands)], \
            type(g) is OrN
    if t is AndN:
        return conjuncts(f), True
    if t is OrN:
        return f.operands, False
    return None, False


def _literal(f: Formula):
    """The sign and the atom or equality of a literal; None for others."""
    if type(f) is NotN:
        return (False, f.operand) if type(f.operand) in (Atom, Eq) else None
    return (True, f) if type(f) in (Atom, Eq) else None


def _kind(literal) -> tuple:
    sign, g = literal
    return (sign, Eq) if type(g) is Eq else (sign, len(g.args))


class _Entailment:
    """The entailments recorded between the definitions of a structure."""

    def __init__(self, structure, clock, false=None, stronger=None):
        self.node, self.rename = structure.node, structure.rename
        self.clock = clock
        # (Q, ā) -> the predicates P with P(·, ā) ⊨ Q(·, ā)
        self.stronger: dict[tuple[str, tuple], list[str]] = {} if stronger is None else stronger
        # whether a formula is false in every model of the units
        self.false = false or (lambda f: False)
        self.ids = None  # the counter of the budget being spent

    def detail(self) -> str:
        """The detail "N entailed", or "" when none is recorded."""
        count = sum(map(len, self.stronger.values()))
        return f"{count} entailed" if count else ""

    def _implies(self, a: Atom, b: Atom) -> bool:
        """Whether atom a entails b on equal arguments: once renamed,
        they share a predicate, or a's definition entails b's."""
        return a.pred == b.pred or a.pred in self.stronger.get(self.node(b), ())

    def definition(self, p, q) -> bool:
        """Whether the body of definition p entails that of q, within
        `_STEPS` steps."""
        (lids, ids), (rids, _) = p.numbered(), q.numbered()
        cs = conjuncts(p.body)
        tokens = {_canonical(c, self.clock, lids, self.rename) for c in cs}
        return all(_canonical(d, self.clock, rids, self.rename) in tokens
                   or any(self.entails(c, d, lids, rids, ids) for c in cs)
                   for d in conjuncts(q.body))

    def entails(self, c: Formula, d: Formula, lids: dict, rids: dict, ids) -> bool:
        """Whether c entails d, their free variables read as `lids` and
        `rids` number them, those the test binds numbered by the counter
        `ids`; the tests given one counter share `_STEPS` steps."""
        if ids is not self.ids:
            self.ids, self.steps = ids, 0
        return self._entails(c, d, lids, rids, 0)

    def _entails(self, c: Formula, d: Formula, lids: dict, rids: dict, depth: int) -> bool:
        """Whether c entails d, their free variables read as `lids` and
        `rids` give them; False once the budget's steps are spent."""
        self.clock.tick()
        self.steps += 1
        if self.steps > _STEPS:
            return False
        c, d = _positive(c), _positive(d)
        tc, td = type(c), type(d)
        if td is TrueF or tc is FalseF or self.false(c) or td is NotN and self.false(d.operand):
            return True
        if depth > _DEPTH:
            return _canonical(c, self.clock, lids, self.rename) \
                == _canonical(d, self.clock, rids, self.rename)
        depth += 1
        # ¬(g₁ ∧ … ∧ gₙ) read as ¬g₁ ∨ … ∨ ¬gₙ, and ¬(g₁ ∨ … ∨ gₙ) as a conjunction
        cs, cand = _operands(c)
        ds, dand = _operands(d)
        if ds is not None and dand:
            return all(self._entails(c, g, lids, rids, depth) for g in ds)
        if cs is not None and not cand:
            return all(self._entails(g, d, lids, rids, depth) for g in cs)
        if cs is not None:
            return any(self._entails(g, d, lids, rids, depth) for g in cs)
        if ds is not None:
            return any(self._entails(c, g, lids, rids, depth) for g in ds)
        if tc is not td:
            return False
        if tc is NotN:
            return self._entails(d.operand, c.operand, rids, lids, depth)
        if tc is Exists:
            return self._exists(c, d, lids, rids, depth)
        if tc is Atom or tc is Eq:
            swaps = (False, True) if tc is Eq else (False,)
            return any(self._match((True, c), (True, d), lids, rids, {}, (), swap) is not None
                       for swap in swaps)
        return _canonical(c, self.clock, lids, self.rename) \
            == _canonical(d, self.clock, rids, self.rename)

    def _match(self, lc, ld, lids, rids, sigma, unknowns, swap):
        """The map `sigma` of the `unknowns` extended so that literal `lc`
        entails `ld` (`swap` reads d's equality the other way round); None
        when it cannot be."""
        (sign, a), (other, b) = lc, ld
        if sign != other:
            return None
        if type(a) is Eq:
            left, right = (a.left, a.right), (b.right, b.left) if swap else (b.left, b.right)
        else:
            a, b = self.rename(a), self.rename(b)
            if not (self._implies(a, b) if sign else self._implies(b, a)):
                return None
            left, right = a.args, b.args
        for s, t in zip(left, right):
            s = s if type(s) is Const else lids[s.name]
            t = t if type(t) is Const else rids[t.name]
            t = sigma.get(t, t) if type(t) is int else t
            if type(t) is int and t in unknowns:
                sigma = {**sigma, t: s}
            elif s != t:
                return None
        return sigma

    def _exists(self, c: Exists, d: Exists, lids: dict, rids: dict, depth: int) -> bool:
        """Whether a map from d's variables sends each conjunct of its body
        onto one of c's body that entails it: its literals by the search,
        then its other conjuncts under the map found."""
        lids = {**lids, **{v: next(self.ids) for v in c.variables}}
        rids = dict(rids)
        unknowns = set()
        for v in d.variables:
            rids[v] = u = next(self.ids)
            unknowns.add(u)
        by_kind: dict[tuple, list] = {}
        cs, compound = [], []
        for g in conjuncts(c.body):
            if self.false(g):
                return True
            literal = _literal(g)
            if literal is None:
                cs.append(g)
            else:
                by_kind.setdefault(_kind(literal), []).append(literal)
        literals = []
        for g in conjuncts(d.body):
            if type(g) is NotN and self.false(g.operand):
                continue  # $true
            literal = _literal(g)
            (compound if literal is None else literals).append(literal or g)
        literals = self._search_order(literals, rids, unknowns)

        def candidates(k: int):
            for lc in by_kind.get(_kind(literals[k]), ()):
                yield lc, False
                if type(lc[1]) is Eq:
                    yield lc, True

        def rest(sigma) -> bool:
            names = {v: sigma.get(t, t) for v, t in rids.items()}
            return all(any(self._entails(g, h, lids, names, depth) for g in cs) for h in compound)

        if not literals:
            return rest({})
        stack = [(candidates(0), {})]
        while stack:
            self.clock.tick()
            self.steps += 1
            if self.steps > _STEPS:
                return False
            got = next(stack[-1][0], None)
            if got is None:
                stack.pop()
                continue
            k = len(stack) - 1
            sigma = self._match(got[0], literals[k], lids, rids, stack[-1][1], unknowns, got[1])
            if sigma is None:
                continue
            if k + 1 < len(literals):
                stack.append((candidates(k + 1), sigma))
            elif rest(sigma):
                return True
        return False

    def _search_order(self, literals: list, rids: dict, unknowns: set) -> list:
        """The literals in search order: those with no unknown first, then
        each positive atom, each followed by the literals whose last
        unknown it binds, then the rest."""
        def free(literal) -> set:
            g = literal[1]
            terms = (g.left, g.right) if type(g) is Eq else g.args
            return {rids[t.name] for t in terms if type(t) is not Const} & unknowns
        binders, checks = [], []
        for literal in literals:
            (binders if literal[0] and type(literal[1]) is Atom else checks).append(literal)
        missing = [len(free(literal)) for literal in checks]
        holding: dict[int, list[int]] = {}
        for j, literal in enumerate(checks):
            for u in free(literal):
                holding.setdefault(u, []).append(j)
        order = [literal for j, literal in enumerate(checks) if not missing[j]]
        bound: set = set()
        for literal in binders:
            order.append(literal)
            for u in free(literal) - bound:
                bound.add(u)
                for j in holding.get(u, ()):
                    missing[j] -= 1
                    if not missing[j]:
                        order.append(checks[j])
        return order + [literal for j, literal in enumerate(checks) if missing[j]]

    # --- the denial ---

    def strengthened(self, f: Formula) -> list:
        """The renamings of atoms that strengthen `f`, one per predicate P
        whose definition entails, at its key, that of an atom Q(t̄) of `f`:
        each renames by the merge, then reads such atoms as P(t̄).  Only
        keys whose atoms all stand at positive positions of `f` are read
        so, so `f` renamed entails `f`."""
        keys = self._positive_keys(f)
        out = []
        for pred in dict.fromkeys(p for key in keys for p in self.stronger.get(key, ())):
            def replace(atom: Atom, pred=pred) -> Atom:
                a = self.rename(atom)
                key = self.node(a)
                return Atom(pred, a.args) if key in keys and pred in self.stronger[key] else a
            out.append(replace)
        return out

    def _positive_keys(self, f: Formula) -> set:
        """The keys of the atoms that stand at positive positions of `f`
        only, once renamed by the merge."""
        signs: dict = {}
        stack = [(f, 1)]
        while stack:
            g, sign = stack.pop()
            self.clock.tick()
            t = type(g)
            if t is Atom:
                key = self.node(self.rename(g))
                signs[key] = min(signs.get(key, sign), sign)
            elif t is NotN:
                stack.append((g.operand, -sign))
            elif t is Implies:
                stack.extend(((g.left, -sign), (g.right, sign)))
            elif t is Iff:  # both sides at both signs
                stack.extend(((g.left, 0), (g.right, 0)))
            else:
                stack.extend((h, sign) for h in _parts(g))
        return {key for key, sign in signs.items() if sign > 0 and key in self.stronger}


def entailed(structure, clock) -> _Entailment:
    """The entailments, both ways round, between the two definitions of
    each of `structure.pairs`, in the dependency order they are kept in."""
    found, definitions = _Entailment(structure, clock), structure.definitions
    for a, b, key in structure.pairs:
        for p, q in ((a, b), (b, a)):
            if found.definition(definitions[p][key], definitions[q][key]):
                found.stronger.setdefault((q, key), []).append(p)
    return found
