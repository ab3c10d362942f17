"""Candidate RDF graphs for the static problems, built by a chase.

A `sat` problem asks for an RDF graph that conforms to the shape graph,
with an instance of each shape `--strong-sat` selects; `contains A B`
asks for one that conforms to A and not to B (Pareti et al., *SHACL
Satisfiability and Containment*, ISWC 2020).  The candidates start from
focus nodes: for `sat`, one fresh node per selected shape; for
`contains`, one graph per kind (IRI, blank node, literal), with a node of
that kind that is a target of each of B's declarations that allows it.
Every node that is a target of a shape of the graph's shapes (for
`contains`, of A's) is then chased for it, until no new target appears
(Fagin, Kolaitis, Miller & Popa, *Data Exchange: Semantics and Query
Answering*, ICDT 2003): each `minCount` adds exactly that many values (a
plain count less those there already), of the listed value, class or
kind the constraints on the values fix and not of a kind they deny;
`sh:node` and `sh:and` pull in the shape they name; `sh:or`, `sh:in` and
a list of kinds pick their first member (at a given node, the first it
can meet); a maximum count and `sh:not` of a shape add nothing.  A path
other than a predicate or its inverse, a property pair constraint, a
contradiction such as `sh:in ()`, a node of a kind or value its
constraints deny, a literal with properties, or a graph past `_LIMIT`
triples gives no candidate.

The module decides nothing, so it guesses freely: the built-in prover
uses a candidate only when every unit of the problem holds on its closed
structure (`closed_structure.decide_units`), and the oracle confirms it.
It imports neither, so each stays an independent check.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from . import rdf
from .rdf import RDF_TYPE, RdfTerm, Triple
from .shapes import (
    And, Constraint, DisjointProp, EqConst, EqualsProp, HasShape, Inverse,
    MinCount, NodeKind, NodeKindValue, Not, OrderProp, Predicate, ShapeGraph,
    TargetDecl, TargetKind, TrueC,
)

_LIMIT = 4096  # the triples a candidate may reach: class targets may chase in a cycle
_FRESH_IRI = "urn:shacl2fol:witness:"
_KINDS = (NodeKindValue.IRI, NodeKindValue.BLANK, NodeKindValue.LITERAL)
# the kinds of a focus node that a target declaration allows
_TARGET_KINDS = {
    TargetKind.CLASS: _KINDS[:2],
    TargetKind.SUBJECTS_OF: _KINDS[:2],
    TargetKind.OBJECTS_OF: _KINDS,
}
_UNBUILT = (EqualsProp, DisjointProp, OrderProp)


class Witness:
    __slots__ = ("graph", "instances")

    def __init__(self, graph: rdf.Graph, instances: tuple = ()):
        self.graph = graph
        self.instances = instances  # (shape, node): the chase gave the node the shape


class _NoCandidate(Exception):
    """The chase met what it does not build, or what cannot hold."""


class _All:
    """Every value through `step` satisfies `constraint`."""
    __slots__ = ("step", "constraint")

    def __init__(self, step: tuple[str, bool], constraint: Constraint):
        self.step = step
        self.constraint = constraint


def _holds(c, node: RdfTerm) -> bool:
    """Whether a kind or value constraint, or its negation, holds at `node`."""
    if type(c) is Not:
        return not _holds(c.operand, node)
    if type(c) is EqConst:
        return node == c.term
    return node.kind.value == c.kind.value


def _step(path) -> tuple[str, bool]:
    """The predicate of a path and whether it is followed forwards."""
    if type(path) is Predicate:
        return path.iri, True
    if type(path) is Inverse and type(path.path) is Predicate:
        return path.path.iri, False
    raise _NoCandidate()


def _targets(target: TargetDecl, g: rdf.Graph) -> list[RdfTerm]:
    """The nodes of `g` that a target declaration selects, in order."""
    if target.kind is TargetKind.NODE:
        return [target.argument]
    if target.kind is TargetKind.CLASS:
        return g.subjects(RDF_TYPE, target.argument)
    if target.kind is TargetKind.SUBJECTS_OF:
        return sorted(g.subjects_of(target.argument.lexical))
    return sorted({t.object for t in g.with_predicate(target.argument.lexical)})


class _Chase:
    def __init__(self, sg: ShapeGraph, tick):
        self.tick = tick  # reports a step of work to the caller's clock
        self.shapes = {s.name: s for s in sg}
        self.triples: dict[Triple, None] = {}
        self.chased: dict[RdfTerm, set[RdfTerm]] = {}  # node -> the shapes chased on it
        # (node, step) -> the values added through it, and what each must satisfy
        self.values: dict[tuple, list[RdfTerm]] = {}
        self.every: dict[tuple, list[Constraint]] = {}
        self.todo: deque = deque()  # (node, conjuncts) to apply
        self.fresh = 0

    def new(self, kind: NodeKindValue) -> RdfTerm:
        self.fresh += 1
        if kind is NodeKindValue.IRI:
            return rdf.iri(f"{_FRESH_IRI}{self.fresh}")
        if kind is NodeKindValue.BLANK:
            return rdf.bnode(f"w{self.fresh}")
        return rdf.literal(f"w{self.fresh}")

    def conjuncts(self, c: Constraint, node=None) -> tuple[list, list[RdfTerm]]:
        """The constraints to build from `c`, and the shapes it pulls in
        that `node` is not chased for already.  A disjunction gives its
        first member, at a node the first that is no kind or value the
        node lacks."""
        out, pulled = [], []
        skip = self.chased.get(node, ())
        stack = [c]
        while stack:
            c = stack.pop()
            self.tick()
            t = type(c)
            if t is And:
                stack.extend(reversed(c.operands))
            elif t is HasShape:
                if c.shape_name not in skip and c.shape_name not in pulled:
                    pulled.append(c.shape_name)
                    stack.append(self.shapes[c.shape_name].constraint)
            elif t is MinCount:
                _step(c.path)
                out.append(c)
            elif t is EqConst or t is NodeKind:
                out.append(c)
            elif t in _UNBUILT:
                raise _NoCandidate()
            elif t is Not:
                d = c.operand
                u = type(d)
                if u is Not:
                    stack.append(d.operand)
                elif u is HasShape:
                    stack.append(Not(self.shapes[d.shape_name].constraint))
                elif u is And and all(type(o) is Not for o in d.operands):
                    members = [o.operand for o in d.operands]
                    stack.append(next((m for m in members if node is None or type(m) not in
                                       (EqConst, NodeKind) or _holds(m, node)), members[0]))
                elif u is MinCount and d.n == 1 and type(d.constraint) is Not:
                    out.append(_All(_step(d.path), d.constraint.operand))
                elif u is EqConst or u is NodeKind:
                    out.append(c)
                elif u is TrueC or u in _UNBUILT:
                    raise _NoCandidate()
                # a maximum count, or a denied conjunction: nothing to add
        return out, pulled

    def require(self, node: RdfTerm, c: Constraint) -> None:
        conjuncts, pulled = self.conjuncts(c, node)
        self.chased.setdefault(node, set()).update(pulled)
        self.todo.append((node, conjuncts))

    def pick(self, conjuncts: list, subject: bool):
        """The listed value the conjuncts fix, or else the kind of a fresh
        node: the first they name, else of IRI, blank node and literal the
        first they do not deny; never a literal with properties."""
        kinds, denied = [], set()
        for c in conjuncts:
            t = type(c)
            if t is EqConst:
                return c.term
            if t is NodeKind:
                kinds.append(c.kind)
            elif t is Not and type(c.operand) is NodeKind:
                denied.add(c.operand.kind)
            elif t is MinCount:
                subject = subject or _step(c.path)[1]
        if subject:
            denied.add(NodeKindValue.LITERAL)
        for kind in kinds[:1] or _KINDS:
            if kind not in denied:
                return kind
        raise _NoCandidate()

    def add(self, node: RdfTerm, step: tuple[str, bool], value: RdfTerm) -> None:
        """`value` through `step` from `node`."""
        predicate, forward = step
        subject, obj = (node, value) if forward else (value, node)
        values = self.values.setdefault((node, step), [])
        if subject.is_literal or len(self.triples) == _LIMIT:
            raise _NoCandidate()
        if value not in values:
            self.triples[Triple(subject, rdf.iri(predicate), obj)] = None
            values.append(value)

    def apply(self, node: RdfTerm, conjuncts: list) -> None:
        for c in conjuncts:
            t = type(c)
            if t is EqConst or t is NodeKind or t is Not:
                if not _holds(c, node):
                    raise _NoCandidate()
            elif t is _All:
                self.every.setdefault((node, c.step), []).append(c.constraint)
                for value in self.values.get((node, c.step), ()):
                    self.require(value, c.constraint)
        # a listed value first, so that a plain count may count it
        counts = [c for c in conjuncts if type(c) is MinCount]
        counts.sort(key=lambda c: type(c.constraint) is not EqConst)
        for c in counts:
            step = _step(c.path)
            n = c.n - len(self.values.get((node, step), ())) \
                if type(c.constraint) is TrueC else c.n
            if n <= 0:
                continue
            # what each value must satisfy, read once for all n
            wanted = And((c.constraint, *self.every.get((node, step), ())))
            needs, pulled = self.conjuncts(wanted)
            pick = self.pick(needs, not step[1])
            for _ in range(n):
                if type(pick) is NodeKindValue:
                    value = self.new(pick)
                    self.chased[value] = set(pulled)
                    self.todo.append((value, needs))
                else:
                    value = pick
                    self.require(value, wanted)
                self.add(node, step, value)

    def focus(self, name: RdfTerm) -> RdfTerm:
        pick = self.pick(self.conjuncts(HasShape(name))[0], False)
        node = self.new(pick) if type(pick) is NodeKindValue else pick
        self.require(node, HasShape(name))
        return node

    def target(self, target: TargetDecl, kind: NodeKindValue) -> None:
        """Make a node of `kind` a target of the declaration, if it allows
        one; a target node is one already."""
        if kind not in _TARGET_KINDS.get(target.kind, ()):
            return
        node = self.new(kind)
        if target.kind is TargetKind.CLASS:
            self.add(node, (RDF_TYPE, True), target.argument)
        elif target.kind is TargetKind.SUBJECTS_OF:
            self.add(node, (target.argument.lexical, True), self.new(NodeKindValue.IRI))
        else:
            self.add(self.new(NodeKindValue.IRI), (target.argument.lexical, True), node)

    def run(self, sg: ShapeGraph) -> rdf.Graph:
        """The graph once every target of a shape of `sg` is chased for it."""
        while True:
            while self.todo:
                self.apply(*self.todo.popleft())
            graph = rdf.Graph(self.triples)
            for shape in sg:
                for target in shape.targets:
                    for node in _targets(target, graph):
                        if shape.name not in self.chased.get(node, ()):
                            self.require(node, HasShape(shape.name))
            if not self.todo:
                return graph


def for_satisfiability(sg: ShapeGraph, selected: list[RdfTerm], tick) -> Iterator[Witness]:
    """The candidate of a `sat` problem: an instance of each `selected`
    shape and the shape graph's target nodes, chased; none when it is
    empty, which the structure of the problem's facts has checked.
    `tick()` is called at each step of the chase."""
    chase = _Chase(sg, tick)
    try:
        instances = tuple((name, chase.focus(name)) for name in selected)
        graph = chase.run(sg)
    except _NoCandidate:
        return
    if instances or len(graph):
        yield Witness(graph, instances)


def for_containment(sg_a: ShapeGraph, sg_b: ShapeGraph, tick) -> Iterator[Witness]:
    """The candidates of `contains A B`, one per kind: a target of each of
    B's declarations that allows the kind, chased for A; each graph once,
    and none empty.  `tick()` is called at each step of the chase."""
    seen = set()
    for kind in _KINDS:
        chase = _Chase(sg_a, tick)
        try:
            for shape in sg_b:
                for target in shape.targets:
                    chase.target(target, kind)
            graph = chase.run(sg_a)
        except _NoCandidate:
            continue
        if len(graph) and graph not in seen:
            seen.add(graph)
            yield Witness(graph, ())
