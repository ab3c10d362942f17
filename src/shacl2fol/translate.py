"""Translation of a shape graph into first-order sentences.

Each target declaration becomes one target axiom and each shape one
definitional biconditional; `tptp.Emitter` lowers them, constraint bodies
and paths included.  `sh:closed` is expanded against the ambient
predicate signature (the predicates of the shape graph plus, for
validation and containment runs, those of the data graph or the other
shape graph), so `translate` takes an optional extra signature.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import shapes
from .fol import Atom, Exists, Var
from .rdf import RdfTerm
from .shapes import ShapeGraph, TargetKind
from .tptp import SHAPE_PRED, Emitter, EmitOptions, TptpFormula


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
    sg: ShapeGraph, extra_signature: Iterable[str] = (),
    emitter: Optional[Emitter] = None, shape_pred: str = SHAPE_PRED,
) -> list[TptpFormula]:
    """Full theory for a shape graph: one axiom named `target` per target
    declaration, then one named `shape_def` per shape.

    `extra_signature` widens the predicate signature used to expand closed
    shapes (pass the data-graph predicates for validation runs).  The
    sentences are lowered by `emitter` (a fresh default one if None), which
    records their constants and roles.  Rejects ill-formed and recursive
    shape graphs first (`shapes.check_shape_graph`).
    """
    shapes.check_shape_graph(sg)
    if emitter is None:
        emitter = Emitter(EmitOptions())
    signature = signature_of(sg) | set(extra_signature)
    sentences = []
    for shape in sg:
        for t in shape.targets:
            sentences.append(TptpFormula(
                "target", "axiom", emitter.target_formula(t, shape.name, shape_pred),
            ))
    for shape in sg:
        sentences.append(TptpFormula(
            "shape_def", "axiom", emitter.shape_formula(shape, signature, shape_pred),
        ))
    return sentences


def strong_satisfiability_targets(
    sg: ShapeGraph, shape_names: Iterable[RdfTerm], emitter: Emitter,
) -> list[TptpFormula]:
    """One axiom `∃X hasShape(X, s)` per selected shape s: each has an
    instance, of whatever kind its constraint allows."""
    selected = list(shape_names)
    defined = set(sg.shape_names())
    for name in selected:
        if name not in defined:
            raise ValueError(f"cannot strong-target undefined shape {name}")
    return [TptpFormula("strong_sat", "axiom",
                        Exists(("X",), Atom(SHAPE_PRED, (Var("X"), emitter.const(name)))))
            for name in selected]
