"""Direct validation of a data graph against a shape graph.

This evaluator works straight on the constraint AST and the RDF graph,
with no logic translation involved, so it can cross-check the verdicts
the prover pipeline produces.  It only handles non-recursive shape
graphs, mirroring the scope of the translation.  Shape references are
evaluated on the evaluator's own stack, and path lists member by member,
so neither a deep chain of references nor a long path list deepens the
Python stack.
"""

from __future__ import annotations

from typing import Generator, Optional

from .rdf import Graph, RDF_TYPE, RdfTerm, XSD_NS
from .record import Record
from .shapes import (
    Alternative, And, Closed, Constraint, DisjointProp, EqConst, EqualsProp,
    HasShape, Inverse, MinCount, NodeKind, NodeKindValue, Not, OrderOp,
    OrderProp, Predicate, PropertyPath, Sequence, ShapeGraph, TargetDecl,
    TargetKind, TrueC, ZeroOrMore, ZeroOrOne, check_shape_graph,
)

_NUMERIC_DATATYPES = {
    XSD_NS + "integer", XSD_NS + "decimal", XSD_NS + "double",
    XSD_NS + "float", XSD_NS + "int", XSD_NS + "long",
}


class Violation(Record):
    __slots__ = ("shape_name", "focus_node")

    def __init__(self, shape_name: RdfTerm, focus_node: RdfTerm):
        self.shape_name = shape_name
        self.focus_node = focus_node


class ValidationReport(Record):
    __slots__ = ("conforms", "violations")
    __hash__ = None

    def __init__(self, conforms: bool, violations: Optional[list[Violation]] = None):
        self.conforms = conforms
        self.violations = [] if violations is None else violations


# --- property paths ---------------------------------------------------------

def path_eval(path: PropertyPath, g: Graph, node: RdfTerm) -> set[RdfTerm]:
    """All nodes reachable from `node` along `path`."""
    return _step(path, g, {node}, backward=False)


def _step(path: PropertyPath, g: Graph, nodes: set[RdfTerm], backward: bool) -> set[RdfTerm]:
    """The nodes one `path` step from `nodes`; `backward` follows every edge
    from object to subject, which is a step along the inverse path."""
    if isinstance(path, Predicate):
        if backward:
            return {
                triple.subject for o in nodes for triple in g.into(o)
                if triple.predicate.lexical == path.iri
            }
        return {
            triple.object for s in nodes for triple in g.about(s)
            if triple.predicate.lexical == path.iri
        }
    if isinstance(path, Inverse):
        return _step(path.path, g, nodes, not backward)
    if isinstance(path, Sequence):
        for member in reversed(path.members) if backward else path.members:
            nodes = _step(member, g, nodes, backward)
        return nodes
    if isinstance(path, Alternative):
        return set().union(*(_step(member, g, nodes, backward) for member in path.members))
    if isinstance(path, ZeroOrOne):
        return nodes | _step(path.path, g, nodes, backward)
    if isinstance(path, ZeroOrMore):
        reached = set(nodes)
        frontier = set(nodes)
        while frontier:
            nxt = _step(path.path, g, frontier, backward) - reached
            reached |= nxt
            frontier = nxt
        return reached
    raise TypeError(f"not a property path: {path!r}")


# --- ordering ---------------------------------------------------------------

def _order_holds(a: RdfTerm, b: RdfTerm, op: OrderOp) -> Optional[bool]:
    """Compare two terms; None when the pair is not comparable."""
    if not (a.is_literal and b.is_literal):
        return None
    a_num = a.datatype in _NUMERIC_DATATYPES
    b_num = b.datatype in _NUMERIC_DATATYPES
    if a_num and b_num:
        try:
            x, y = float(a.lexical), float(b.lexical)
        except ValueError:
            return None
    elif not a_num and not b_num and a.lang is None and b.lang is None \
            and a.datatype in (None, XSD_NS + "string") \
            and b.datatype in (None, XSD_NS + "string"):
        x, y = a.lexical, b.lexical
    else:
        return None
    return x < y if op is OrderOp.LT else x <= y


# --- constraint evaluation --------------------------------------------------

class _Evaluator:
    """`holds` is a generator that reads like a recursive evaluator: at a
    shape reference whose (shape, node) pair is not in the memo it yields
    the pair and is sent back the pair's truth value.  `check` runs these
    generators on one stack, so every early exit stays, each pair is
    evaluated once, and no chain of references deepens the Python stack."""

    def __init__(self, sg: ShapeGraph, g: Graph):
        self.g = g
        self.shapes = {s.name: s for s in sg.shapes}
        self.memo: dict[tuple[RdfTerm, RdfTerm], bool] = {}

    def holds(self, c: Constraint, node: RdfTerm) -> Generator[tuple, bool, bool]:
        g = self.g
        if isinstance(c, TrueC):
            return True
        if isinstance(c, Not):
            return not (yield from self.holds(c.operand, node))
        if isinstance(c, And):
            for op in c.operands:
                if not (yield from self.holds(op, node)):
                    return False
            return True
        if isinstance(c, EqConst):
            return node == c.term
        if isinstance(c, NodeKind):
            if c.kind is NodeKindValue.IRI:
                return node.is_iri
            if c.kind is NodeKindValue.LITERAL:
                return node.is_literal
            return node.is_blank
        if isinstance(c, HasShape):
            key = (c.shape_name, node)
            if key in self.memo:
                return self.memo[key]
            return (yield key)
        if isinstance(c, MinCount):
            # stop at the n-th hit, so the value lift ¬≥1¬ exits at the first failure
            hits = 0
            for v in path_eval(c.path, g, node):
                if (yield from self.holds(c.constraint, v)):
                    hits += 1
                    if hits == c.n:
                        return True
            return False
        if isinstance(c, EqualsProp):
            return path_eval(c.path, g, node) == set(g.objects(node, c.predicate))
        if isinstance(c, DisjointProp):
            return not (path_eval(c.path, g, node) & set(g.objects(node, c.predicate)))
        if isinstance(c, OrderProp):
            lefts = path_eval(c.path, g, node)
            rights = set(g.objects(node, c.predicate))
            for v in lefts:
                for w in rights:
                    pair = (w, v) if c.inverted else (v, w)
                    if _order_holds(*pair, c.op) is not True:
                        return False
            return True
        if isinstance(c, Closed):
            return all(
                triple.predicate.lexical == RDF_TYPE
                or triple.predicate.lexical in c.allowed_predicates
                for triple in g.about(node)
            )
        raise TypeError(f"not a constraint: {c!r}")

    def start(self, name: RdfTerm, node: RdfTerm) -> Generator[tuple, bool, bool]:
        """The evaluation of the pair (name, node), for `check` to run."""
        return self.holds(self.shapes[name].constraint, node)

    def check(self, name: RdfTerm, node: RdfTerm) -> bool:
        """Whether `node` has the shape `name`.  The running evaluations
        are on one stack, each with its pair: a pair the top one yields
        starts on top of it, and once that returns, its value goes into
        the memo and is sent to the evaluation below."""
        if (name, node) in self.memo:
            return self.memo[name, node]
        stack = [((name, node), self.start(name, node))]
        value = None  # what the top evaluation is sent next; None starts it
        while True:
            pair, run = stack[-1]
            try:
                needed = run.send(value)
            except StopIteration as done:
                stack.pop()
                value = self.memo[pair] = done.value
                if not stack:
                    return value
            else:
                stack.append((needed, self.start(*needed)))
                value = None


def target_nodes(target: TargetDecl, g: Graph) -> set[RdfTerm]:
    if target.kind is TargetKind.NODE:
        return {target.argument}
    if target.kind is TargetKind.CLASS:
        return set(g.subjects(RDF_TYPE, target.argument))
    if target.kind is TargetKind.SUBJECTS_OF:
        return g.subjects_of(target.argument.lexical)
    return {triple.object for triple in g.with_predicate(target.argument.lexical)}


def evaluate(sg: ShapeGraph, g: Graph) -> ValidationReport:
    """Check every targeted node of every shape; conforms iff no violations."""
    check_shape_graph(sg)
    ev = _Evaluator(sg, g)
    violations: dict[tuple[RdfTerm, RdfTerm], Violation] = {}  # in report order
    for shape in sg.shapes:
        for target in shape.targets:
            for node in sorted(target_nodes(target, g)):
                if not ev.check(shape.name, node):
                    violations[shape.name, node] = Violation(shape.name, node)
    return ValidationReport(conforms=not violations, violations=list(violations.values()))


def has_shapes(sg: ShapeGraph, g: Graph, pairs) -> bool:
    """Whether each node of the (shape name, node) `pairs` conforms to its
    shape in `g`; the shape graph is checked already (`evaluate`)."""
    ev = _Evaluator(sg, g)
    return all(ev.check(name, node) for name, node in pairs)
