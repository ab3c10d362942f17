"""SHACL shape-graph AST and its extraction from an RDF graph.

The AST is the core constraint language of Pareti et al. (SHACL
Satisfiability and Containment, ISWC 2020): `TrueC`, `Not`, an n-ary
`And`, `EqConst`, `NodeKind`, `HasShape`, the counting constraint
`MinCount` (at least n values through a path satisfy a constraint), the
property pair constraints `EqualsProp`, `DisjointProp` and `OrderProp`,
and `Closed`.  Paths are `Predicate`, `Inverse`, `Sequence`,
`Alternative`, `ZeroOrOne` and `ZeroOrMore`; a sequence or alternative
holds the members of its RDF list, as `And` holds its operands.

The extractor recognizes the constraint components that map into this
language: targets, cardinalities, node kind, value-equality (`sh:in`,
`sh:hasValue`), shape references (`sh:node`, `sh:not`, `sh:and`,
`sh:or`), property pair components (`sh:equals`, `sh:disjoint`,
`sh:lessThan`, `sh:lessThanOrEquals`), `sh:class`, `sh:closed`, and the
full property-path vocabulary.  It desugars with three rewrites: "some
value satisfies c" is `MinCount(1, path, c)` and "every value satisfies
c" is `Not(MinCount(1, path, Not(c)))`; "at most n" is
`Not(MinCount(n + 1, ...))`; and `sh:oneOrMorePath p` is
`Sequence((p, ZeroOrMore(p)))`.  Anything else that is a known SHACL
constraint parameter raises UnsupportedComponent.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Union

from . import rdf
from .errors import MalformedShape, RecursiveShapeGraph, UnsupportedComponent
from .rdf import Graph, RdfTerm, SH_NS, RDF_TYPE
from .record import Record

SH = SH_NS


def _sh(local: str) -> str:
    return SH + local


# --- Property paths --------------------------------------------------------

class Predicate(Record):
    __slots__ = ("iri",)

    def __init__(self, iri: str):
        self.iri = iri


class Inverse(Record):
    __slots__ = ("path",)

    def __init__(self, path: "PropertyPath"):
        self.path = path


class Sequence(Record):
    __slots__ = ("members",)

    def __init__(self, members: tuple["PropertyPath", ...]):
        self.members = members  # two or more


class Alternative(Record):
    __slots__ = ("members",)

    def __init__(self, members: tuple["PropertyPath", ...]):
        self.members = members  # two or more


class ZeroOrOne(Record):
    __slots__ = ("path",)

    def __init__(self, path: "PropertyPath"):
        self.path = path


class ZeroOrMore(Record):
    __slots__ = ("path",)

    def __init__(self, path: "PropertyPath"):
        self.path = path


PropertyPath = Union[Predicate, Inverse, Sequence, Alternative, ZeroOrOne, ZeroOrMore]


# --- Constraints -----------------------------------------------------------

class NodeKindValue(Enum):
    IRI = "iri"
    LITERAL = "literal"
    BLANK = "blank"


class OrderOp(Enum):
    LT = "<"
    LEQ = "<="


class TrueC(Record):
    __slots__ = ()


class Not(Record):
    __slots__ = ("operand",)

    def __init__(self, operand: "Constraint"):
        self.operand = operand


class And(Record):
    __slots__ = ("operands",)

    def __init__(self, operands: tuple["Constraint", ...]):
        self.operands = operands


class EqConst(Record):
    __slots__ = ("term",)

    def __init__(self, term: RdfTerm):
        self.term = term


class NodeKind(Record):
    __slots__ = ("kind",)

    def __init__(self, kind: NodeKindValue):
        self.kind = kind


class HasShape(Record):
    __slots__ = ("shape_name",)

    def __init__(self, shape_name: RdfTerm):
        self.shape_name = shape_name


class MinCount(Record):
    __slots__ = ("n", "path", "constraint")

    def __init__(self, n: int, path: PropertyPath, constraint: "Constraint"):
        if n < 1:
            raise ValueError("MinCount requires n >= 1")
        self.n = n
        self.path = path
        self.constraint = constraint


class EqualsProp(Record):
    __slots__ = ("path", "predicate")

    def __init__(self, path: PropertyPath, predicate: str):
        self.path = path
        self.predicate = predicate


class DisjointProp(Record):
    __slots__ = ("path", "predicate")

    def __init__(self, path: PropertyPath, predicate: str):
        self.path = path
        self.predicate = predicate


class OrderProp(Record):
    __slots__ = ("path", "predicate", "op", "inverted")

    def __init__(self, path: PropertyPath, predicate: str, op: OrderOp,
                 inverted: bool = False):
        self.path = path
        self.predicate = predicate
        self.op = op
        self.inverted = inverted


class Closed(Record):
    __slots__ = ("allowed_predicates",)

    def __init__(self, allowed_predicates: frozenset[str]):
        self.allowed_predicates = allowed_predicates


Constraint = Union[
    TrueC, Not, And, EqConst, NodeKind, HasShape, MinCount,
    EqualsProp, DisjointProp, OrderProp, Closed,
]


def conjoin(constraints: list[Constraint]) -> Constraint:
    if not constraints:
        return TrueC()
    if len(constraints) == 1:
        return constraints[0]
    return And(tuple(constraints))


def or_of(constraints: list[Constraint]) -> Constraint:
    """Disjunction encoded through the Not/And closure."""
    if not constraints:
        return Not(TrueC())
    if len(constraints) == 1:
        return constraints[0]
    negated = [Not(c) for c in constraints]
    return Not(conjoin(negated))


# --- Shapes ----------------------------------------------------------------

class TargetKind(Enum):
    NODE = "node"
    CLASS = "class"
    SUBJECTS_OF = "subjectsOf"
    OBJECTS_OF = "objectsOf"


class TargetDecl(Record):
    __slots__ = ("kind", "argument")

    def __init__(self, kind: TargetKind, argument: RdfTerm):
        if kind in (TargetKind.SUBJECTS_OF, TargetKind.OBJECTS_OF) and not argument.is_iri:
            raise ValueError("subjects-of/objects-of target argument must be an IRI")
        if kind is TargetKind.CLASS and argument.is_literal:
            raise ValueError("class target argument must be an IRI or blank node")
        self.kind = kind
        self.argument = argument


class Shape(Record):
    __slots__ = ("name", "targets", "constraint")

    def __init__(self, name: RdfTerm, targets: tuple[TargetDecl, ...], constraint: Constraint):
        if name.is_literal:
            raise ValueError("shape name must be an IRI or blank node")
        self.name = name
        self.targets = targets
        self.constraint = constraint


class ShapeGraph(Record):
    __slots__ = ("shapes",)
    __hash__ = None

    def __init__(self, shapes: Optional[list[Shape]] = None):
        self.shapes = [] if shapes is None else shapes

    def shape_names(self) -> list[RdfTerm]:
        return [s.name for s in self.shapes]

    def __iter__(self):
        return iter(self.shapes)


# --- Extraction ------------------------------------------------------------

_TARGET_PREDICATES = {
    _sh("targetNode"): TargetKind.NODE,
    _sh("targetClass"): TargetKind.CLASS,
    _sh("targetSubjectsOf"): TargetKind.SUBJECTS_OF,
    _sh("targetObjectsOf"): TargetKind.OBJECTS_OF,
}

_NODEKIND_VALUES = {
    _sh("IRI"): [NodeKindValue.IRI],
    _sh("Literal"): [NodeKindValue.LITERAL],
    _sh("BlankNode"): [NodeKindValue.BLANK],
    _sh("IRIOrLiteral"): [NodeKindValue.IRI, NodeKindValue.LITERAL],
    _sh("BlankNodeOrIRI"): [NodeKindValue.BLANK, NodeKindValue.IRI],
    _sh("BlankNodeOrLiteral"): [NodeKindValue.BLANK, NodeKindValue.LITERAL],
}

# recognized constraint parameters, used to find anonymous shapes
_CONSTRAINT_PARAMS = {
    _sh(p) for p in (
        "class", "nodeKind", "minCount", "maxCount", "equals", "disjoint",
        "lessThan", "lessThanOrEquals", "not", "and", "or", "node",
        "property", "hasValue", "in", "closed", "ignoredProperties",
        "qualifiedValueShape", "qualifiedMinCount", "qualifiedMaxCount",
    )
}

# known SHACL parameters we reject explicitly rather than ignore
_UNSUPPORTED_PARAMS = {
    _sh(p) for p in (
        "pattern", "minLength", "maxLength", "languageIn", "uniqueLang",
        "minInclusive", "minExclusive", "maxInclusive", "maxExclusive",
        "datatype", "xone", "sparql", "flags",
    )
}


class _Extractor:
    def __init__(self, g: Graph):
        self.g = g

    def run(self) -> ShapeGraph:
        shapes: dict[RdfTerm, Shape] = {}
        # roots first, in order, then the shapes an active shape references;
        # the list grows while it is walked
        todo = sorted(self.find_shape_nodes(), key=str)
        roots = len(todo)
        for i, node in enumerate(todo):
            if node in shapes:
                continue
            if self.is_deactivated(node):
                # a deactivated shape holds for every node it is referenced by
                if i >= roots:
                    shapes[node] = Shape(node, (), TrueC())
                continue
            path = self.g.object(node, _sh("path"))
            constraint = self.extract_constraints(
                node, None if path is None else self.parse_path(path))
            shape = Shape(node, tuple(self.extract_targets(node)), constraint)
            shapes[node] = shape
            todo.extend(constraint_shape_refs(shape.constraint))
        return ShapeGraph(sorted(shapes.values(), key=lambda s: str(s.name)))

    def find_shape_nodes(self) -> set[RdfTerm]:
        """The roots of extraction; a reference is never followed here."""
        g = self.g
        nodes: set[RdfTerm] = set()
        for pred_iri in _CONSTRAINT_PARAMS | _UNSUPPORTED_PARAMS:
            nodes |= g.subjects_of(pred_iri)
        for pred_iri in (_sh("node"), _sh("qualifiedValueShape"), _sh("not")):
            nodes.update(triple.object for triple in g.with_predicate(pred_iri))
        for local in ("and", "or"):
            for triple in g.with_predicate(_sh(local)):
                nodes.update(self.list_members(triple.object, "sh:" + local))
        # explicitly declared shapes without any parameter still count
        for cls in (_sh("NodeShape"), _sh("PropertyShape")):
            nodes.update(g.subjects(RDF_TYPE, rdf.iri(cls)))
        # property shapes hang off sh:property and are folded into their
        # parent, not promoted to named shapes, unless independently targeted
        nodes -= {triple.object for triple in g.with_predicate(_sh("property"))}
        for pred_iri in _TARGET_PREDICATES:
            nodes |= g.subjects_of(pred_iri)
        # a deactivated shape may name a literal; an active one is rejected
        # in require_shape
        return {node for node in nodes if not node.is_literal}

    def is_deactivated(self, node: RdfTerm) -> bool:
        v = self.g.object(node, _sh("deactivated"))
        return v is not None and v.is_literal and v.lexical == "true"

    def extract_targets(self, node: RdfTerm) -> list[TargetDecl]:
        targets = []
        for pred_iri, kind in _TARGET_PREDICATES.items():
            for obj in self.g.objects(node, pred_iri):
                try:
                    targets.append(TargetDecl(kind, obj))
                except ValueError as exc:
                    raise MalformedShape(str(exc)) from exc
        return targets

    def extract_constraints(self, node: RdfTerm, path: Optional[PropertyPath] = None) -> Constraint:
        """Collect the constraint conjunction for a node or property shape.

        `path` is None for node shapes; for property shapes each component
        is interpreted over the value nodes of the path.
        """
        conjuncts: list[Constraint] = []
        params = sorted(
            (triple.predicate.lexical, triple.object)
            for triple in self.g.about(node)
            if triple.predicate.lexical.startswith(SH)
        )
        for pred_iri, obj in params:
            local = pred_iri[len(SH):]
            if pred_iri in _UNSUPPORTED_PARAMS:
                raise UnsupportedComponent(pred_iri)
            if pred_iri in _TARGET_PREDICATES or local in (
                "deactivated", "path", "name", "description", "message",
                "severity", "order", "group", "ignoredProperties",
                "qualifiedMinCount", "qualifiedMaxCount",
            ):
                continue
            handler = getattr(self, "c_" + local, None)
            if handler is None:
                continue  # labels, comments, unknown non-parameter vocabulary
            c = handler(node, obj, path)
            if c is not None:
                conjuncts.append(c)
        return conjoin(conjuncts)

    # --- component handlers (c_<shacl local name>) ---

    def at_values(self, path: Optional[PropertyPath], inner: Constraint) -> Constraint:
        """Universal lift of a node constraint over a property path."""
        if path is None:
            return inner
        return Not(MinCount(1, path, Not(inner)))

    def c_property(self, node, obj, path) -> Constraint:
        if path is not None:
            raise MalformedShape(f"nested sh:property under a property shape at {node}")
        ppath_term = self.g.object(obj, _sh("path"))
        if ppath_term is None:
            raise MalformedShape(f"property shape {obj} has no sh:path")
        if self.is_deactivated(obj):
            return TrueC()
        ppath = self.parse_path(ppath_term)
        c = self.extract_constraints(obj, path=ppath)
        # cardinalities are about the path itself, handled inside via path
        return c

    def c_node(self, node, obj, path) -> Constraint:
        self.require_shape(obj)
        return self.at_values(path, HasShape(obj))

    def c_not(self, node, obj, path) -> Constraint:
        self.require_shape(obj)
        return self.at_values(path, Not(HasShape(obj)))

    def c_and(self, node, obj, path) -> Constraint:
        members = self.list_members(obj, "sh:and")
        for m in members:
            self.require_shape(m)
        return self.at_values(path, conjoin([HasShape(m) for m in members]))

    def c_or(self, node, obj, path) -> Constraint:
        members = self.list_members(obj, "sh:or")
        for m in members:
            self.require_shape(m)
        return self.at_values(path, or_of([HasShape(m) for m in members]))

    def c_nodeKind(self, node, obj, path) -> Constraint:
        if not obj.is_iri or obj.lexical not in _NODEKIND_VALUES:
            raise MalformedShape(f"bad sh:nodeKind value {obj}")
        kinds = _NODEKIND_VALUES[obj.lexical]
        return self.at_values(path, or_of([NodeKind(k) for k in kinds]))

    def c_hasValue(self, node, obj, path) -> Constraint:
        if path is None:
            return EqConst(obj)
        # at least one value node equals the given term
        return MinCount(1, path, EqConst(obj))

    def c_in(self, node, obj, path) -> Constraint:
        members = self.list_members(obj, "sh:in")
        return self.at_values(path, or_of([EqConst(m) for m in members]))

    def c_class(self, node, obj, path) -> Constraint:
        member = MinCount(1, Predicate(RDF_TYPE), EqConst(obj))
        return self.at_values(path, member)

    def c_minCount(self, node, obj, path) -> Constraint:
        n = self.int_param(obj, "sh:minCount")
        if path is None:
            raise MalformedShape("sh:minCount outside a property shape")
        if n == 0:
            return TrueC()
        return MinCount(n, path, TrueC())

    def c_maxCount(self, node, obj, path) -> Constraint:
        n = self.int_param(obj, "sh:maxCount")
        if path is None:
            raise MalformedShape("sh:maxCount outside a property shape")
        return Not(MinCount(n + 1, path, TrueC()))

    def c_qualifiedValueShape(self, node, obj, path) -> Constraint:
        if path is None:
            raise MalformedShape("sh:qualifiedValueShape outside a property shape")
        self.require_shape(obj)
        conjuncts = []
        qmin = self.g.object(node, _sh("qualifiedMinCount"))
        qmax = self.g.object(node, _sh("qualifiedMaxCount"))
        if qmin is not None:
            n = self.int_param(qmin, "sh:qualifiedMinCount")
            if n >= 1:
                conjuncts.append(MinCount(n, path, HasShape(obj)))
        if qmax is not None:
            n = self.int_param(qmax, "sh:qualifiedMaxCount")
            conjuncts.append(Not(MinCount(n + 1, path, HasShape(obj))))
        if not conjuncts:
            raise MalformedShape("sh:qualifiedValueShape without qualified counts")
        return conjoin(conjuncts)

    def c_equals(self, node, obj, path) -> Constraint:
        return EqualsProp(self.pair_path(path), self.pred_param(obj, "sh:equals"))

    def c_disjoint(self, node, obj, path) -> Constraint:
        return DisjointProp(self.pair_path(path), self.pred_param(obj, "sh:disjoint"))

    def c_lessThan(self, node, obj, path) -> Constraint:
        return OrderProp(self.pair_path(path), self.pred_param(obj, "sh:lessThan"), OrderOp.LT)

    def c_lessThanOrEquals(self, node, obj, path) -> Constraint:
        return OrderProp(
            self.pair_path(path), self.pred_param(obj, "sh:lessThanOrEquals"), OrderOp.LEQ
        )

    def c_closed(self, node, obj, path) -> Constraint:
        if not (obj.is_literal and obj.lexical in ("true", "false")):
            raise MalformedShape("sh:closed expects a boolean")
        if obj.lexical == "false":
            return TrueC()
        allowed: set[str] = set()
        for pshape in self.g.objects(node, _sh("property")):
            ppath = self.g.object(pshape, _sh("path"))
            if ppath is not None and ppath.is_iri:
                allowed.add(ppath.lexical)
        ignored = self.g.object(node, _sh("ignoredProperties"))
        if ignored is not None:
            for m in self.list_members(ignored, "sh:ignoredProperties"):
                if not m.is_iri:
                    raise MalformedShape("sh:ignoredProperties must list IRIs")
                allowed.add(m.lexical)
        return Closed(frozenset(allowed))

    # --- parameter helpers ---

    def pair_path(self, path: Optional[PropertyPath]) -> PropertyPath:
        if path is None:
            raise MalformedShape("property-pair component outside a property shape")
        return path

    def int_param(self, obj: RdfTerm, name: str) -> int:
        if not obj.is_literal:
            raise MalformedShape(f"{name} expects an integer literal")
        try:
            n = int(obj.lexical)
        except ValueError as exc:
            raise MalformedShape(f"{name} expects an integer literal") from exc
        if n < 0:
            raise MalformedShape(f"{name} expects a non-negative integer, not {n}")
        return n

    def pred_param(self, obj: RdfTerm, name: str) -> str:
        if not obj.is_iri:
            raise MalformedShape(f"{name} expects a predicate IRI")
        return obj.lexical

    def list_members(self, head: RdfTerm, what: str) -> list[RdfTerm]:
        """The members of the RDF list at `head`; MalformedShape if it is not one."""
        try:
            return self.g.walk_list(head)
        except ValueError as exc:
            raise MalformedShape(f"{what}: {exc}") from exc

    def require_shape(self, node: RdfTerm):
        if node.is_literal:
            raise MalformedShape(f"shape reference to literal {node}")

    def parse_path(self, term: RdfTerm) -> PropertyPath:
        if term.is_iri:
            inv = self.g.object(term, _sh("inversePath"))
            if inv is None:
                return Predicate(term.lexical)
        if term.is_literal:
            raise MalformedShape("property path must not be a literal")
        for local, ctor in (
            ("inversePath", Inverse),
            ("zeroOrMorePath", ZeroOrMore),
            ("oneOrMorePath", lambda p: Sequence((p, ZeroOrMore(p)))),
            ("zeroOrOnePath", ZeroOrOne),
        ):
            inner = self.g.object(term, _sh(local))
            if inner is not None:
                return ctor(self.parse_path(inner))
        alt = self.g.object(term, _sh("alternativePath"))
        if alt is not None:
            members = tuple(map(self.parse_path, self.list_members(alt, "sh:alternativePath")))
            if len(members) < 2:
                raise MalformedShape("sh:alternativePath needs at least two members")
            return Alternative(members)
        # a blank node heading an rdf list is a sequence path
        members = tuple(map(self.parse_path, self.list_members(term, "property path")))
        if len(members) < 2:
            raise MalformedShape("sequence path needs at least two members")
        return Sequence(members)


def subconstraints(c: Constraint):
    """`c` and every constraint nested in it, in pre-order, without recursion."""
    stack = [c]
    while stack:
        c = stack.pop()
        yield c
        if isinstance(c, Not):
            stack.append(c.operand)
        elif isinstance(c, And):
            stack.extend(reversed(c.operands))
        elif isinstance(c, MinCount):
            stack.append(c.constraint)


def _path_predicates(p: PropertyPath) -> set[str]:
    """The predicate IRIs a property path steps through."""
    out: set[str] = set()
    stack = [p]
    while stack:
        p = stack.pop()
        if isinstance(p, Predicate):
            out.add(p.iri)
        elif isinstance(p, (Sequence, Alternative)):
            stack += p.members
        else:
            stack.append(p.path)
    return out


def constraint_shape_refs(c: Constraint) -> set[RdfTerm]:
    return {s.shape_name for s in subconstraints(c) if isinstance(s, HasShape)}


def constraint_predicates(c: Constraint) -> set[str]:
    """Predicate IRIs used by paths and pair components of one constraint."""
    out: set[str] = set()
    for s in subconstraints(c):
        if isinstance(s, (MinCount, EqualsProp, DisjointProp, OrderProp)):
            out |= _path_predicates(s.path)
        if isinstance(s, (EqualsProp, DisjointProp, OrderProp)):
            out.add(s.predicate)
        elif isinstance(s, Closed):
            out |= s.allowed_predicates
    return out


def extract_shape_graph(g: Graph) -> ShapeGraph:
    """Extract the shape AST from an RDF graph."""
    return _Extractor(g).run()


def detect_recursion(sg: ShapeGraph) -> list[list[RdfTerm]]:
    """[[s1, ..., sk]] for the first reference cycle found (each si refers to
    the next, sk to s1), [] iff non-recursive.  One iterative depth-first
    pass (Tarjan, 1972), linear in shapes plus references."""
    refs: dict[RdfTerm, set[RdfTerm]] = {}
    for shape in sg:
        refs.setdefault(shape.name, set()).update(constraint_shape_refs(shape.constraint))
    on_path: dict[RdfTerm, bool] = {}  # visited shapes: True while on the DFS path
    for root in refs:
        if root in on_path:
            continue
        on_path[root] = True
        path = [root]
        pending = [iter(sorted(refs[root]))]
        while pending:
            nxt = next(pending[-1], None)
            if nxt is None:
                on_path[path.pop()] = False
                pending.pop()
            elif on_path.get(nxt):
                return [path[path.index(nxt):]]
            elif nxt not in on_path:
                on_path[nxt] = True
                path.append(nxt)
                pending.append(iter(sorted(refs.get(nxt, ()))))
    return []


def check_shape_graph(sg: ShapeGraph) -> None:
    """MalformedShape for a duplicate shape name or a reference to an undefined
    shape, RecursiveShapeGraph for a cycle of references."""
    names: set[RdfTerm] = set()
    for shape in sg:
        if shape.name in names:
            raise MalformedShape(f"duplicate shape name {shape.name}")
        names.add(shape.name)
    for shape in sg:
        dangling = sorted(constraint_shape_refs(shape.constraint) - names)
        if dangling:
            raise MalformedShape(f"dangling shape reference {dangling[0]}")
    cycles = detect_recursion(sg)
    if cycles:
        walk = cycles[0] + cycles[0][:1]
        raise RecursiveShapeGraph("recursive shape graph: " + " -> ".join(map(str, walk)))
