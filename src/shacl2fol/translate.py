"""Lowering of the shape-graph AST into first-order sentences.

Each shape becomes one definitional biconditional plus one target axiom per
target declaration.  `sh:closed` is expanded against the ambient predicate
signature (the predicates of the shape theory plus, for validation runs,
the data graph), so `translate` takes an optional extra signature.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import scl, shapes
from .errors import UnsupportedComponent
from .rdf import RDF_TYPE, RdfTerm, iri
from .scl import (
    Alt, AndF, AtLeast, EqConstF, Exists, Filter, ForallIff, HasShapeF,
    NotExistsBoth, NotF, Opt, OrderAtom, OrderRel, PairwiseOrder, Role,
    SclSentence, Seq, ShapeDef, Star, TargetClass, TargetNode,
    TargetObjectsOf, TargetSubjectsOf, Top,
)
from .shapes import (
    Alternative, And, Closed, Constraint, DisjointProp, EqConst, EqualsProp,
    HasShape, Inverse, MaxCount, MinCount, NodeKind, NodeKindValue, Not,
    OrderOp, OrderProp, Predicate, PropertyPath, Sequence, ShapeGraph,
    SomeThrough, TargetDecl, TargetKind, TrueC, ZeroOrMore, ZeroOrOne,
)

DUMMY_PREFIX = "urn:shacl2fol:dummy:"

_FILTER_OF_KIND = {
    NodeKindValue.IRI: "isIRI",
    NodeKindValue.LITERAL: "isLiteral",
    NodeKindValue.BLANK: "isBlank",
}


def role_name(predicate_iri: str) -> str:
    """Map a predicate IRI to its role name; rdf:type becomes the isA role."""
    if predicate_iri == RDF_TYPE:
        return scl.IS_A
    return predicate_iri


def translate_path(p: PropertyPath) -> scl.PathFormula:
    p = shapes.normalize_path(p)

    def go(p: PropertyPath, inverted: bool) -> scl.PathFormula:
        if isinstance(p, Predicate):
            return Role(role_name(p.iri), inverted=inverted)
        if isinstance(p, Inverse):
            return go(p.path, not inverted)
        if isinstance(p, Sequence):
            left, right = go(p.left, inverted), go(p.right, inverted)
            return Seq(right, left) if inverted else Seq(left, right)
        if isinstance(p, Alternative):
            return Alt(go(p.left, inverted), go(p.right, inverted))
        if isinstance(p, ZeroOrOne):
            return Opt(go(p.path, inverted))
        if isinstance(p, ZeroOrMore):
            return Star(go(p.path, inverted))
        raise TypeError(f"unexpected path node {p!r}")

    return go(p, False)


def translate_constraint(
    c: Constraint, signature: Optional[set[str]] = None
) -> scl.NodeFormula:
    """Structure-preserving lowering of one constraint into a node formula."""
    if isinstance(c, TrueC):
        return Top()
    if isinstance(c, Not):
        return NotF(translate_constraint(c.operand, signature))
    if isinstance(c, And):
        return AndF(
            translate_constraint(c.left, signature),
            translate_constraint(c.right, signature),
        )
    if isinstance(c, EqConst):
        return EqConstF(c.term)
    if isinstance(c, NodeKind):
        return Filter(_FILTER_OF_KIND[c.kind])
    if isinstance(c, HasShape):
        return HasShapeF(c.shape_name)
    if isinstance(c, SomeThrough):
        return Exists(translate_path(c.path), translate_constraint(c.constraint, signature))
    if isinstance(c, MinCount):
        return AtLeast(
            c.n, translate_path(c.path), translate_constraint(c.constraint, signature)
        )
    if isinstance(c, MaxCount):
        return NotF(
            AtLeast(
                c.n + 1,
                translate_path(c.path),
                translate_constraint(c.constraint, signature),
            )
        )
    if isinstance(c, EqualsProp):
        return ForallIff(translate_path(c.path), role_name(c.predicate))
    if isinstance(c, DisjointProp):
        return NotExistsBoth(translate_path(c.path), role_name(c.predicate))
    if isinstance(c, OrderProp):
        op = OrderRel.LT if c.op is OrderOp.LT else OrderRel.LEQ
        return PairwiseOrder(
            translate_path(c.path), role_name(c.predicate), OrderAtom(op, c.inverted)
        )
    if isinstance(c, Closed):
        if signature is None:
            signature = set()
        banned = sorted(
            r for r in signature
            if r not in c.allowed_predicates and r != RDF_TYPE
        )
        out: scl.NodeFormula = Top()
        first = True
        for r in banned:
            clause = NotF(AtLeast(1, Role(role_name(r)), Top()))
            out = clause if first else AndF(out, clause)
            first = False
        return out
    raise UnsupportedComponent(type(c).__name__)


def translate_target(t: TargetDecl, shape_name: RdfTerm) -> SclSentence:
    if t.kind is TargetKind.NODE:
        return TargetNode(t.argument, shape_name)
    if t.kind is TargetKind.CLASS:
        return TargetClass(t.argument, shape_name)
    if t.kind is TargetKind.SUBJECTS_OF:
        return TargetSubjectsOf(role_name(t.argument.lexical), shape_name)
    if t.kind is TargetKind.OBJECTS_OF:
        return TargetObjectsOf(role_name(t.argument.lexical), shape_name)
    raise TypeError(f"unexpected target kind {t.kind!r}")


def signature_of(sg: ShapeGraph) -> set[str]:
    """Predicate IRIs used anywhere in the shape graph."""
    out: set[str] = set()
    for shape in sg:
        out |= shapes.constraint_predicates(shape.constraint)
        for t in shape.targets:
            if t.kind in (TargetKind.SUBJECTS_OF, TargetKind.OBJECTS_OF):
                out.add(t.argument.lexical)
    return out


def translate(
    sg: ShapeGraph, extra_signature: Iterable[str] = ()
) -> list[SclSentence]:
    """Full theory for a shape graph: target axioms then shape definitions.

    `extra_signature` widens the predicate signature used to expand closed
    shapes (pass the data-graph predicates for validation runs).  Rejects
    ill-formed and recursive shape graphs first (`shapes.check_shape_graph`).
    """
    shapes.check_shape_graph(sg)
    signature = signature_of(sg) | set(extra_signature)
    sentences: list[SclSentence] = []
    for shape in sg:
        for t in shape.targets:
            sentences.append(translate_target(t, shape.name))
    for shape in sg:
        sentences.append(
            ShapeDef(shape.name, translate_constraint(shape.constraint, signature))
        )
    return sentences


def add_strong_satisfiability_targets(
    sentences: list[SclSentence], shape_names: Iterable[RdfTerm]
) -> list[SclSentence]:
    """Target a fresh dummy constant at each selected shape."""
    selected = list(shape_names)
    if not selected:
        return list(sentences)
    defined = {s.shape_name for s in sentences if isinstance(s, ShapeDef)}
    for name in selected:
        if name not in defined:
            raise ValueError(f"cannot strong-target undefined shape {name}")
    existing = {t.lexical for t in scl.theory_constants(sentences)}
    out = list(sentences)
    k = 1
    for name in selected:
        while DUMMY_PREFIX + str(k) in existing:
            k += 1
        dummy = iri(DUMMY_PREFIX + str(k))
        existing.add(dummy.lexical)
        out.append(TargetNode(dummy, name))
    return out
