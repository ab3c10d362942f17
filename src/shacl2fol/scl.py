"""First-order intermediate representation for shape constraints.

Sentences cover: the empty theory, conjunctions, the four target-axiom
forms, and shape definitions (one biconditional per shape name).  Node
formulas are closed under negation and conjunction and carry constant
equality, node-kind filters, shape references, path quantifiers, the
property-pair forms, and counting quantifiers.  Paths are roles (optionally
inverted), sequences, alternatives, zero-or-one and zero-or-more.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from .rdf import RdfTerm

# Reserved role name for class-membership (rdf:type) edges.
IS_A = "isA"

FILTER_NAMES = ("isIRI", "isLiteral", "isBlank")


class OrderRel(Enum):
    LT = "<"
    LEQ = "<="


@dataclass(frozen=True)
class OrderAtom:
    op: OrderRel
    inverted: bool = False


# --- Paths -----------------------------------------------------------------

@dataclass(frozen=True)
class Role:
    name: str
    inverted: bool = False


@dataclass(frozen=True)
class Seq:
    left: "PathFormula"
    right: "PathFormula"


@dataclass(frozen=True)
class Alt:
    left: "PathFormula"
    right: "PathFormula"


@dataclass(frozen=True)
class Star:
    path: "PathFormula"


@dataclass(frozen=True)
class Opt:
    """Zero-or-one: x = y or one path step."""

    path: "PathFormula"


PathFormula = Union[Role, Seq, Alt, Star, Opt]


# --- Node formulas ---------------------------------------------------------

@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class NotF:
    operand: "NodeFormula"


@dataclass(frozen=True)
class AndF:
    left: "NodeFormula"
    right: "NodeFormula"


@dataclass(frozen=True)
class EqConstF:
    constant: RdfTerm


@dataclass(frozen=True)
class Filter:
    name: str

    def __post_init__(self):
        if self.name not in FILTER_NAMES:
            raise ValueError(f"unknown filter relation {self.name!r}")


@dataclass(frozen=True)
class HasShapeF:
    shape_name: RdfTerm


@dataclass(frozen=True)
class Exists:
    path: PathFormula
    body: "NodeFormula"


@dataclass(frozen=True)
class NotExistsBoth:
    """No y with both a path step and a role edge from x."""

    path: PathFormula
    role: str


@dataclass(frozen=True)
class ForallIff:
    """Path successors coincide exactly with role successors."""

    path: PathFormula
    role: str


@dataclass(frozen=True)
class PairwiseOrder:
    """Every path successor relates to every role successor by the order atom."""

    path: PathFormula
    role: str
    atom: OrderAtom


@dataclass(frozen=True)
class AtLeast:
    n: int
    path: PathFormula
    body: "NodeFormula"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("AtLeast requires n >= 1")


NodeFormula = Union[
    Top, NotF, AndF, EqConstF, Filter, HasShapeF, Exists,
    NotExistsBoth, ForallIff, PairwiseOrder, AtLeast,
]


# --- Sentences -------------------------------------------------------------

@dataclass(frozen=True)
class TargetNode:
    constant: RdfTerm
    shape_name: RdfTerm


@dataclass(frozen=True)
class TargetClass:
    class_constant: RdfTerm
    shape_name: RdfTerm


@dataclass(frozen=True)
class TargetSubjectsOf:
    role: str
    shape_name: RdfTerm


@dataclass(frozen=True)
class TargetObjectsOf:
    role: str
    shape_name: RdfTerm


@dataclass(frozen=True)
class ShapeDef:
    shape_name: RdfTerm
    body: NodeFormula


SclSentence = Union[TargetNode, TargetClass, TargetSubjectsOf, TargetObjectsOf, ShapeDef]


# --- Structural queries ----------------------------------------------------

def free_shape_refs(f: NodeFormula) -> set[RdfTerm]:
    """Shape names referenced anywhere under the formula."""
    if isinstance(f, HasShapeF):
        return {f.shape_name}
    if isinstance(f, NotF):
        return free_shape_refs(f.operand)
    if isinstance(f, AndF):
        return free_shape_refs(f.left) | free_shape_refs(f.right)
    if isinstance(f, (Exists, AtLeast)):
        return free_shape_refs(f.body)
    return set()


def path_roles(p: PathFormula) -> set[str]:
    if isinstance(p, Role):
        return {p.name}
    if isinstance(p, (Seq, Alt)):
        return path_roles(p.left) | path_roles(p.right)
    if isinstance(p, (Star, Opt)):
        return path_roles(p.path)
    raise TypeError(f"not a path formula: {p!r}")


def formula_roles(f: NodeFormula) -> set[str]:
    """All data-role names used in paths and pair components."""
    if isinstance(f, (Top, EqConstF, Filter, HasShapeF)):
        return set()
    if isinstance(f, NotF):
        return formula_roles(f.operand)
    if isinstance(f, AndF):
        return formula_roles(f.left) | formula_roles(f.right)
    if isinstance(f, (Exists, AtLeast)):
        return path_roles(f.path) | formula_roles(f.body)
    if isinstance(f, (NotExistsBoth, ForallIff, PairwiseOrder)):
        return path_roles(f.path) | {f.role}
    raise TypeError(f"not a node formula: {f!r}")


def formula_constants(f: NodeFormula) -> set[RdfTerm]:
    if isinstance(f, EqConstF):
        return {f.constant}
    if isinstance(f, NotF):
        return formula_constants(f.operand)
    if isinstance(f, AndF):
        return formula_constants(f.left) | formula_constants(f.right)
    if isinstance(f, (Exists, AtLeast)):
        return formula_constants(f.body)
    return set()


def theory_roles(sentences: list[SclSentence]) -> set[str]:
    roles: set[str] = set()
    for s in sentences:
        if isinstance(s, (TargetSubjectsOf, TargetObjectsOf)):
            roles.add(s.role)
        elif isinstance(s, TargetClass):
            roles.add(IS_A)
        elif isinstance(s, ShapeDef):
            roles |= formula_roles(s.body)
    return roles


def theory_constants(sentences: list[SclSentence]) -> set[RdfTerm]:
    """Constants of the theory: targets, class names, shape names, formula constants."""
    out: set[RdfTerm] = set()
    for s in sentences:
        if isinstance(s, TargetNode):
            out.add(s.constant)
            out.add(s.shape_name)
        elif isinstance(s, TargetClass):
            out.add(s.class_constant)
            out.add(s.shape_name)
        elif isinstance(s, (TargetSubjectsOf, TargetObjectsOf)):
            out.add(s.shape_name)
        elif isinstance(s, ShapeDef):
            out.add(s.shape_name)
            out |= formula_constants(s.body)
            out |= free_shape_refs(s.body)
    return out

