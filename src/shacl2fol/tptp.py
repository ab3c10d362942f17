"""Serialization of constraint theories and data graphs into TPTP problems.

Emits either untyped FOF or TFF (needed for the `$distinct` encoding of
the unique name assumption).  Counting quantifiers expand into explicit
existentials with pairwise inequalities.  Zero-or-more paths are encoded
either with over-approximating closure axioms (sound for refutation only,
results are flagged approximate) or, when a concrete data graph is at
hand, as an exact grounded closure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from . import fol, scl
from .errors import CardinalityLimitExceeded, InvalidOptions
from .fol import (
    Atom, Const, Distinct, Eq, Exists, Forall, Formula, Iff, Implies, TrueF,
    Var, conj, disj, neg,
)
from .rdf import Graph, RDF_TYPE, RdfTerm, TermKind
from .scl import SclSentence, ShapeDef

SHAPE_PRED = "hasShape"
FILTER_PREDS = ("isIRI", "isLiteral", "isBlank")
LT, LEQ = "lt", "leq"
RESERVED_PREDS = (SHAPE_PRED, scl.IS_A, LT, LEQ) + FILTER_PREDS


class Dialect(Enum):
    FOF = "fof"
    TFF = "tff"


class UnaMode(Enum):
    PAIRWISE = "pairwise"
    DISTINCT = "distinct"


class StarMode(Enum):
    APPROXIMATE = "approx"
    GROUNDED = "ground"


@dataclass(frozen=True)
class EmitOptions:
    una_mode: UnaMode = UnaMode.DISTINCT
    dialect: Dialect = Dialect.TFF
    star_mode: StarMode = StarMode.APPROXIMATE
    cardinality_limit: int = 32

    def check(self, has_data_graph: bool = False):
        if self.una_mode is UnaMode.DISTINCT and self.dialect is not Dialect.TFF:
            raise InvalidOptions("the $distinct encoding requires the TFF dialect")
        if self.star_mode is StarMode.GROUNDED and not has_data_graph:
            raise InvalidOptions("grounded star closure requires a data graph")
        if self.cardinality_limit < 1:
            raise InvalidOptions("cardinality limit must be positive")


@dataclass(frozen=True)
class TptpFormula:
    name: str
    role: str  # axiom | conjecture
    body: Formula


@dataclass
class TptpDocument:
    dialect: Dialect
    formulas: list[TptpFormula] = field(default_factory=list)
    header: list[str] = field(default_factory=list)
    approximate: bool = False
    # every unit name in `formulas`, and for each name passed to `add` the
    # suffix it last got (1 for the bare name): all lower suffixes are taken
    _used: set[str] = field(init=False, repr=False, compare=False)
    _suffix: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._used = {f.name for f in self.formulas}
        self._suffix = {}

    def add(self, name: str, body: Formula, role: str = "axiom"):
        """Append a unit named `name`, or `name_2`, `name_3`... if taken."""
        k = self._suffix.get(name, 1)
        final = name if k == 1 else f"{name}_{k}"
        while final in self._used:
            k += 1
            final = f"{name}_{k}"
        self._suffix[name] = k
        self._used.add(final)
        self.formulas.append(TptpFormula(final, role, body))

    def extend(self, formulas: Iterable[TptpFormula]):
        for f in formulas:
            self.add(f.name, f.body, f.role)


def term_symbol(t: RdfTerm) -> str:
    """Reversible constant symbol for an RDF term.

    IRIs map to their lexical form, blank nodes keep the `_:` marker and
    literals keep their full quoted form, so the three kinds can never
    collide.
    """
    if t.kind is TermKind.IRI:
        return t.lexical
    if t.kind is TermKind.BLANK:
        return "_:" + t.lexical
    return str(t)


def graph_role_pairs(g: Graph, role: str) -> set[tuple[RdfTerm, RdfTerm]]:
    wanted = RDF_TYPE if role == scl.IS_A else role
    return {(triple.subject, triple.object) for triple in g.with_predicate(wanted)}


def _pair_key(ab: tuple[RdfTerm, RdfTerm]):
    return (ab[0].sort_key(), ab[1].sort_key())


def _by_source(pairs: set[tuple[RdfTerm, RdfTerm]]) -> dict[RdfTerm, list[RdfTerm]]:
    out: dict[RdfTerm, list[RdfTerm]] = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
    return out


class Emitter:
    """Stateful lowering of one problem into FOL formulas."""

    def __init__(self, opts: EmitOptions, data_graph: Optional[Graph] = None,
                 known_constants: Iterable[RdfTerm] = ()):
        opts.check(has_data_graph=data_graph is not None)
        self.opts = opts
        self.data_graph = data_graph
        self.known_constants: set[RdfTerm] = set(known_constants)
        self.var_counter = 0
        self.star_roles: dict[scl.PathFormula, str] = {}
        self.star_axioms: list[tuple[str, Formula]] = []
        self.uses_order = False
        self.approximate = False

    def fresh_var(self, hint: str = "Y") -> Var:
        self.var_counter += 1
        return Var(f"{hint}{self.var_counter}")

    # --- sentences ---

    def sentence_formula(self, s: SclSentence, shape_pred: str = SHAPE_PRED) -> Formula:
        if isinstance(s, scl.TargetNode):
            return Atom(shape_pred, (self.const(s.constant), self.const(s.shape_name)))
        if isinstance(s, scl.TargetClass):
            x = Var("X")
            return Forall(
                ("X",),
                Implies(
                    Atom(scl.IS_A, (x, self.const(s.class_constant))),
                    Atom(shape_pred, (x, self.const(s.shape_name))),
                ),
            )
        if isinstance(s, scl.TargetSubjectsOf):
            x, y = Var("X"), Var("Y")
            return Forall(
                ("X", "Y"),
                Implies(
                    Atom(s.role, (x, y)),
                    Atom(shape_pred, (x, self.const(s.shape_name))),
                ),
            )
        if isinstance(s, scl.TargetObjectsOf):
            x, y = Var("X"), Var("Y")
            return Forall(
                ("X", "Y"),
                Implies(
                    Atom(s.role, (y, x)),
                    Atom(shape_pred, (x, self.const(s.shape_name))),
                ),
            )
        if isinstance(s, ShapeDef):
            x = Var("X")
            return Forall(
                ("X",),
                Iff(
                    Atom(shape_pred, (x, self.const(s.shape_name))),
                    self.node_formula(s.body, x, shape_pred),
                ),
            )
        raise TypeError(f"not a sentence: {s!r}")

    def const(self, t: RdfTerm) -> Const:
        self.known_constants.add(t)
        return Const(term_symbol(t))

    # --- node formulas ---

    def node_formula(self, f: scl.NodeFormula, x: fol.Term, shape_pred: str) -> Formula:
        if isinstance(f, scl.Top):
            return TrueF()
        if isinstance(f, scl.NotF):
            return neg(self.node_formula(f.operand, x, shape_pred))
        if isinstance(f, scl.AndF):
            return conj([
                self.node_formula(f.left, x, shape_pred),
                self.node_formula(f.right, x, shape_pred),
            ])
        if isinstance(f, scl.EqConstF):
            return Eq(x, self.const(f.constant))
        if isinstance(f, scl.Filter):
            return Atom(f.name, (x,))
        if isinstance(f, scl.HasShapeF):
            return Atom(shape_pred, (x, self.const(f.shape_name)))
        if isinstance(f, scl.Exists):
            y = self.fresh_var()
            return Exists(
                (y.name,),
                conj([
                    self.path_formula(f.path, x, y),
                    self.node_formula(f.body, y, shape_pred),
                ]),
            )
        if isinstance(f, scl.NotExistsBoth):
            y = self.fresh_var()
            return neg(
                Exists(
                    (y.name,),
                    conj([
                        self.path_formula(f.path, x, y),
                        Atom(f.role, (x, y)),
                    ]),
                )
            )
        if isinstance(f, scl.ForallIff):
            y = self.fresh_var()
            return Forall(
                (y.name,),
                Iff(self.path_formula(f.path, x, y), Atom(f.role, (x, y))),
            )
        if isinstance(f, scl.PairwiseOrder):
            self.uses_order = True
            self.approximate = True
            y, z = self.fresh_var(), self.fresh_var("Z")
            if f.atom.op is scl.OrderRel.LT:
                order_atom = Atom(LT, (y, z))
            else:
                order_atom = Atom(LEQ, (y, z))
            if f.atom.inverted:
                order_atom = Atom(order_atom.pred, (z, y))
            return Forall(
                (y.name, z.name),
                Implies(
                    conj([
                        self.path_formula(f.path, x, y),
                        Atom(f.role, (x, z)),
                    ]),
                    order_atom,
                ),
            )
        if isinstance(f, scl.AtLeast):
            if f.n > self.opts.cardinality_limit:
                raise CardinalityLimitExceeded(f.n, self.opts.cardinality_limit)
            ys = [self.fresh_var() for _ in range(f.n)]
            parts: list[Formula] = []
            for y in ys:
                parts.append(self.path_formula(f.path, x, y))
                parts.append(self.node_formula(f.body, y, shape_pred))
            for a, b in itertools.combinations(ys, 2):
                parts.append(neg(Eq(a, b)))
            return Exists(tuple(y.name for y in ys), conj(parts))
        raise TypeError(f"not a node formula: {f!r}")

    # --- paths ---

    def path_formula(self, p: scl.PathFormula, x: fol.Term, y: fol.Term) -> Formula:
        if isinstance(p, scl.Role):
            args = (y, x) if p.inverted else (x, y)
            return Atom(p.name, args)
        if isinstance(p, scl.Seq):
            z = self.fresh_var("Z")
            return Exists(
                (z.name,),
                conj([self.path_formula(p.left, x, z), self.path_formula(p.right, z, y)]),
            )
        if isinstance(p, scl.Alt):
            return disj([self.path_formula(p.left, x, y), self.path_formula(p.right, x, y)])
        if isinstance(p, scl.Opt):
            return disj([Eq(x, y), self.path_formula(p.path, x, y)])
        if isinstance(p, scl.Star):
            return Atom(self.star_role(p), (x, y))
        raise TypeError(f"not a path formula: {p!r}")

    def star_role(self, p: scl.Star) -> str:
        if p in self.star_roles:
            return self.star_roles[p]
        name = f"star_{len(self.star_roles) + 1}"
        self.star_roles[p] = name
        if self.opts.star_mode is StarMode.APPROXIMATE:
            self.approximate = True
            x, y, z = Var("X"), Var("Y"), Var("Z")
            self.star_axioms.append((
                f"{name}_refl", Forall(("X",), Atom(name, (x, x)))
            ))
            self.star_axioms.append((
                f"{name}_step",
                Forall(
                    ("X", "Y", "Z"),
                    Implies(
                        conj([self.path_formula(p.path, x, y), Atom(name, (y, z))]),
                        Atom(name, (x, z)),
                    ),
                ),
            ))
        else:
            universe = set(self.known_constants) | self.data_graph.constants()
            pairs = sorted(self.path_pairs(p, universe), key=_pair_key)
            for i, (a, b) in enumerate(pairs, start=1):
                self.star_axioms.append((
                    f"{name}_fact_{i}", Atom(name, (self.const(a), self.const(b)))
                ))
            x, y = Var("X"), Var("Y")
            cases = disj([
                conj([Eq(x, self.const(a)), Eq(y, self.const(b))])
                for a, b in pairs
            ])
            self.star_axioms.append((
                f"{name}_complete",
                Forall(("X", "Y"), Implies(Atom(name, (x, y)), cases)),
            ))
        return name

    def path_pairs(self, p: scl.PathFormula, universe: set[RdfTerm]) -> set[tuple[RdfTerm, RdfTerm]]:
        g = self.data_graph
        if isinstance(p, scl.Role):
            pairs = graph_role_pairs(g, p.name)
            return {(b, a) for (a, b) in pairs} if p.inverted else pairs
        if isinstance(p, scl.Seq):
            left = self.path_pairs(p.left, universe)
            right = _by_source(self.path_pairs(p.right, universe))
            return {(a, c) for (a, b) in left for c in right.get(b, ())}
        if isinstance(p, scl.Alt):
            return self.path_pairs(p.left, universe) | self.path_pairs(p.right, universe)
        if isinstance(p, scl.Opt):
            return {(t, t) for t in universe} | self.path_pairs(p.path, universe)
        if isinstance(p, scl.Star):
            base = _by_source(self.path_pairs(p.path, universe))
            closure = {(t, t) for t in universe}
            # semi-naive: only the pairs found last round can reach new ones
            frontier = closure
            while frontier:
                frontier = {
                    (a, c) for (a, b) in frontier for c in base.get(b, ())
                } - closure
                closure |= frontier
            return closure
        raise TypeError(f"not a path formula: {p!r}")

    # --- ambient axioms ---

    def filter_axioms(self) -> list[tuple[str, Formula]]:
        out: list[tuple[str, Formula]] = []
        x = Var("X")
        for i, (a, b) in enumerate(itertools.combinations(FILTER_PREDS, 2), start=1):
            out.append((
                f"filter_disjoint_{i}",
                Forall(("X",), neg(conj([Atom(a, (x,)), Atom(b, (x,))]))),
            ))
        kind_pred = {
            TermKind.IRI: "isIRI",
            TermKind.LITERAL: "isLiteral",
            TermKind.BLANK: "isBlank",
        }
        for i, t in enumerate(sorted(self.known_constants, key=lambda t: t.sort_key()), start=1):
            out.append((
                f"filter_kind_{i}", Atom(kind_pred[t.kind], (self.const(t),))
            ))
        return out

    def order_axioms(self) -> list[tuple[str, Formula]]:
        if not self.uses_order:
            return []
        x, y, z = Var("X"), Var("Y"), Var("Z")
        return [
            ("order_irrefl", Forall(("X",), neg(Atom(LT, (x, x))))),
            (
                "order_trans",
                Forall(
                    ("X", "Y", "Z"),
                    Implies(conj([Atom(LT, (x, y)), Atom(LT, (y, z))]), Atom(LT, (x, z))),
                ),
            ),
            (
                "order_leq",
                Forall(
                    ("X", "Y"),
                    Iff(Atom(LEQ, (x, y)), disj([Atom(LT, (x, y)), Eq(x, y)])),
                ),
            ),
        ]


def emit_una(constants: list[RdfTerm], opts: EmitOptions) -> list[TptpFormula]:
    """Unique-name axioms over an ordered list of constants."""
    if opts.una_mode is UnaMode.DISTINCT and opts.dialect is not Dialect.TFF:
        raise InvalidOptions("the $distinct encoding requires the TFF dialect")
    ordered = sorted(constants, key=lambda t: t.sort_key())
    consts = [Const(term_symbol(t)) for t in ordered]
    if len(consts) < 2:
        return []
    if opts.una_mode is UnaMode.PAIRWISE:
        out = []
        for i, (a, b) in enumerate(itertools.combinations(consts, 2), start=1):
            out.append(TptpFormula(f"una_{i}", "axiom", neg(Eq(a, b))))
        return out
    return [TptpFormula("una_distinct", "axiom", Distinct(tuple(consts)))]


def emit_graph_axioms(g: Graph, signature: set[str]) -> list[TptpFormula]:
    """Positive ground facts plus per-relation completeness axioms."""
    out: list[TptpFormula] = []
    role_pairs = {
        role: sorted(graph_role_pairs(g, role), key=_pair_key)
        for role in sorted(signature)
    }
    i = 0
    for role, pairs in role_pairs.items():
        for a, b in pairs:
            i += 1
            out.append(TptpFormula(
                f"graph_pos_{i}", "axiom",
                Atom(role, (Const(term_symbol(a)), Const(term_symbol(b)))),
            ))
    x, y = Var("X"), Var("Y")
    for j, (role, pairs) in enumerate(role_pairs.items(), start=1):
        atom = Atom(role, (x, y))
        if not pairs:
            body: Formula = neg(Exists(("X", "Y"), atom))
        else:
            cases = disj([
                conj([
                    Eq(x, Const(term_symbol(a))),
                    Eq(y, Const(term_symbol(b))),
                ])
                for a, b in pairs
            ])
            body = Forall(("X", "Y"), Implies(atom, cases))
        out.append(TptpFormula(f"graph_neg_{j}", "axiom", body))
    return out


def attach_ambient_axioms(doc: TptpDocument, emitter: Emitter, opts: EmitOptions):
    """Star, order, filter and UNA axioms for everything the emitter saw."""
    for name, body in emitter.star_axioms:
        doc.add(name, body)
    for name, body in emitter.order_axioms():
        doc.add(name, body)
    for name, body in emitter.filter_axioms():
        doc.add(name, body)
    doc.extend(emit_una(sorted(emitter.known_constants, key=lambda t: t.sort_key()), opts))
    doc.approximate = doc.approximate or emitter.approximate


def render(doc: TptpDocument) -> str:
    """Deterministic TPTP text; TFF mode includes type declarations."""
    lines = [f"% {h}" for h in doc.header]
    if doc.dialect is Dialect.TFF:
        preds: dict[str, int] = {}
        consts: set[str] = set()
        for f in doc.formulas:
            p, c, _ = fol.collect_symbols(f.body)
            preds.update(p)
            consts |= c
        for i, name in enumerate(sorted(consts), start=1):
            lines.append(f"tff(decl_c_{i}, type, {fol.atom_name(name)}: $i).")
        for i, (name, arity) in enumerate(sorted(preds.items()), start=1):
            if arity == 0:
                sig = "$o"
            else:
                sig = "(" + " * ".join(["$i"] * arity) + ") > $o"
            lines.append(f"tff(decl_p_{i}, type, {fol.atom_name(name)}: {sig}).")
    kw = "tff" if doc.dialect is Dialect.TFF else "fof"
    for f in doc.formulas:
        lines.append(f"{kw}({f.name}, {f.role}, {fol.formula_text(f.body)}).")
    return "\n".join(lines) + "\n"
