"""Definitions whose bodies contradict themselves, and units that assert one.

`closed_structure.decide_units` loads this module when the structure of a
problem with definitions gives no answer.  `refuted` walks the merged
definitions `∀X̄ (P(ā) ↔ φ)` in dependency order, each after those it
refers to, and records one empty, `P(x̄, ā) ⊨ ⊥`, when the conjuncts of φ,
or of an `∃Ȳ(…)` among them, hold:

* `$false`, or an atom of a definition recorded empty;
* a pair c, ¬d with c ⊨ d by `entailment.entails`, `entailment` loaded
  only for such a pair, a defined atom read as its definition's body at
  its key and an empty one as `$false`; the tests of one definition
  share one budget of that test's steps;
* two kind atoms k₁(t), k₂(t) that a unit `∀X ¬(k₁(X) ∧ k₂(X))` keeps
  apart, a defined atom asserting the kinds its definition asserts on its
  head variables.

An atom's definition is `ClosedStructure.node` of it renamed by the
merge, and a body's head variables are numbered by `numbered`, as the
merge and the entailment test read them.  Each definition keeps its
summary, empty or its kinds, not a copy of what it refers to, so a chain
of 10,000 definitions is walked in linear time.  A unit that asserts an
atom of an empty definition, as a conjunct or inside an `∃` at a
conjunctive position, refutes the problem; one under `¬`, `∨` or `→`
asserts nothing.

Each rule gives φ ⊨ ⊥ from the units, a kind disjointness being a unit
itself, and recursion is rejected, so by induction on the dependency
order `∀x̄ ¬P(x̄, ā)` holds in every model and the asserting unit in none:
a targeted shape whose constraints clash (Pareti et al., *SHACL
Satisfiability and Containment*, ISWC 2020).  The merged units it reads
hold in every model of the units (`ClosedStructure.merge`), so no
constants need be kept apart.
"""

from __future__ import annotations

from typing import Optional

from .fol import AndN, Atom, Const, Exists, FalseF, Formula, NotN, conjuncts


class _Emptiness:
    """The definitions of a structure recorded empty."""

    def __init__(self, structure, clock, found=None):
        self.structure = structure
        self.rename = structure.rename
        self.clock = clock
        self.kinds = {k for pair in structure.disjoint for k in pair}
        self.found = found  # the entailments recorded between definitions, if any
        self.test = None  # the entailment test, made for the first pair c, ¬d
        self.empty: set[tuple[str, tuple]] = set()  # the (P, ā) with P(·, ā) ⊨ ⊥
        # (P, ā) -> (position, the kinds P(·, ā) asserts on its head variable there)
        self.summary: dict[tuple[str, tuple], tuple] = {}

    def false(self, f: Formula) -> bool:
        """Whether `f` is an atom of a definition recorded empty."""
        return type(f) is Atom and self.structure.node(self.rename(f)) in self.empty

    def walk(self) -> None:
        """Record the definitions whose bodies contradict themselves, in
        dependency order; those merged into others are their targets."""
        definitions = self.structure.definitions
        for (node,) in self.structure.order:
            if node in self.structure.into:
                continue
            definition = definitions[node[0]][node[1]]
            # the counter of the variables bound below the head's, and of
            # the steps of the definition's entailment tests
            scope, self.ids = definition.numbered()
            kinds: dict[int, set[str]] = {}
            if self._contradicts(definition.body, scope, kinds):
                self.empty.add(node)
                continue
            summary = tuple((i, frozenset(kinds[-1 - i])) for i, _ in definition.variables
                            if -1 - i in kinds)
            if summary:
                self.summary[node] = summary

    def _contradicts(self, body: Formula, scope: dict, kinds: dict) -> bool:
        """Whether the conjuncts of `body`, or of an `∃` among them, are
        `$false`, an atom recorded empty, a pair c, ¬d with c ⊨ d, or two
        kinds kept apart on one variable (`kinds` holds those asserted, by
        the variable's number in `scope`).  Walked on its own stack, `scope`
        changed in place as each `∃` is entered and left."""
        stack = [body]
        while stack:
            f = stack.pop()
            if type(f) is tuple:  # an `∃`'s scope ends: the shadowed numbers return
                for name, number in f:
                    if number is None:
                        del scope[name]
                    else:
                        scope[name] = number
                continue
            if type(f) is Exists:
                stack.append(tuple((v, scope.get(v)) for v in f.variables))
                scope.update((v, next(self.ids)) for v in f.variables)
                f = f.body
            cs = conjuncts(f)
            for c in cs:
                self.clock.tick()
                t = type(c)
                if t is FalseF or t is Atom and self._asserts(c, scope, kinds):
                    return True
                if t is Exists:
                    stack.append(c)
            if self._clash(cs, scope):
                return True
        return False

    def _asserts(self, atom: Atom, scope: dict, kinds: dict) -> bool:
        """Whether a conjunct atom is of an empty definition, or asserts a
        kind kept apart from one already in `kinds` on its variable; the
        kinds it asserts are added."""
        a = self.rename(atom)
        node = self.structure.node(a)
        if node in self.empty:
            return True
        if node is not None:
            held = self.summary.get(node, ())
        elif a.pred in self.kinds:
            held = ((0, (a.pred,)),)
        else:
            return False
        for i, ks in held:
            t = a.args[i]
            if type(t) is Const:
                continue
            have = kinds.setdefault(scope[t.name], set())
            if any((k, h) in self.structure.disjoint for k in ks for h in have):
                return True
            have.update(ks)
        return False

    def _clash(self, cs: list, scope: dict) -> bool:
        """Whether a conjunct c entails the operand d of another, ¬d, each
        defined atom read as its definition's body; within the budget of
        the definition's tests."""
        read = None
        for j, d in enumerate(cs):
            if type(d) is not NotN:
                continue
            if read is None:
                read = [self._read(c, scope) for c in cs]
                if self.test is None:
                    from . import entailment

                    self.test = entailment._Entailment(
                        self.structure, self.clock, self.false, self.found and self.found.stronger)
            d, rids = self._read(d.operand, scope)
            if any(self.test.entails(c, d, lids, rids, self.ids)
                   for k, (c, lids) in enumerate(read) if k != j):
                return True
        return False

    def _read(self, f: Formula, scope: dict):
        """`f` and the numbers its free variables are read by: a defined
        atom as its definition's body, each head variable as the atom's
        argument at its position."""
        if type(f) is Atom:
            a = self.rename(f)
            node = self.structure.node(a)
            if node is not None:
                definition = self.structure.definitions[node[0]][node[1]]
                return definition.body, {
                    v: a.args[i] if type(a.args[i]) is Const else scope[a.args[i].name]
                    for i, v in definition.variables}
        return f, scope


def refuted(structure, named: list, clock, found=None) -> Optional[str]:
    """How one of the `named` units asserts an atom of a definition of
    `structure` whose body contradicts itself, found through the
    entailments `found` records when there are any: "N empty; u asserts an
    empty definition"; None when none does."""
    emptiness = _Emptiness(structure, clock, found)
    emptiness.walk()
    if not emptiness.empty:
        return None
    for name, f in named:
        stack = [f]
        while stack:
            g = stack.pop()
            clock.tick()
            if type(g) is AndN:
                stack.extend(g.operands)
            elif type(g) is Exists:
                stack.append(g.body)
            elif emptiness.false(g):
                return f"{len(emptiness.empty)} empty; {name} asserts an empty definition"
    return None
