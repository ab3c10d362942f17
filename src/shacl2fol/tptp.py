"""Lowering of the shape-graph AST into first-order formulas, and their
serialization into TPTP problems.

`Emitter` lowers targets, shapes, constraints and property paths straight
into `fol` formulas.  Counting constraints expand into explicit
existentials with pairwise inequalities, and `sh:closed` into one "no
successor" clause per banned role of the signature.  Inverse paths are
pushed down onto the predicates before lowering.  A zero-or-more path
gets over-approximating closure axioms without a data graph (`sat`,
`contains`), and with one (validation) an exact grounding in text linear
in the graph (`Emitter.ground_stars`).  Problems are rendered in untyped
FOF or in TFF (needed for the `$distinct` encoding of the unique name
assumption).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable, Iterable, Optional

from . import fol
from .errors import CardinalityLimitExceeded, InvalidOptions
from .fol import (
    AndN, Atom, Const, Distinct, Eq, Exists, Forall, Formula, Iff, Implies,
    TptpFormula, TrueF, Var, conj, disj, neg,
)
from .rdf import Graph, RDF_TYPE, RdfTerm, TermKind
from .record import Record
from .shapes import (
    Alternative, And, Closed, Constraint, DisjointProp, EqConst, EqualsProp,
    HasShape, Inverse, MinCount, NodeKind, Not, OrderOp, OrderProp,
    Predicate, PropertyPath, Sequence, Shape, TargetDecl, TargetKind, TrueC,
    ZeroOrMore, ZeroOrOne,
)

SHAPE_PRED = "hasShape"
IS_A = "isA"  # the role of class-membership (rdf:type) edges
# the filter predicate of a term kind or a node kind, by the kinds' shared values
_FILTER_OF_KIND = {"iri": "isIRI", "literal": "isLiteral", "blank": "isBlank"}
FILTER_PREDS = tuple(_FILTER_OF_KIND.values())
LT, LEQ = "lt", "leq"


class Dialect(Enum):
    FOF = "fof"
    TFF = "tff"


class EmitOptions(Record):
    __slots__ = ("dialect", "cardinality_limit")

    def __init__(self, dialect: Dialect = Dialect.TFF, cardinality_limit: int = 32):
        if cardinality_limit < 1:
            raise InvalidOptions("cardinality limit must be positive")
        self.dialect = dialect
        self.cardinality_limit = cardinality_limit


class TptpDocument(Record):
    __slots__ = ("dialect", "formulas", "header", "approximations", "_used", "_suffix")
    __hash__ = None

    def __init__(self, dialect: Dialect, formulas: Optional[list[TptpFormula]] = None,
                 header: Optional[list[str]] = None):
        self.dialect = dialect
        self.formulas = [] if formulas is None else formulas
        self.header = [] if header is None else header
        self.approximations: set[str] = set()  # "star" and "order": see the README
        # every unit name in `formulas`, and for each name passed to `add` the
        # suffix it last got (1 for the bare name): all lower suffixes are taken
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
    wanted = RDF_TYPE if role == IS_A else role
    return {(triple.subject, triple.object) for triple in g.with_predicate(wanted)}


def _pair_key(ab: tuple[RdfTerm, RdfTerm]):
    return (ab[0].sort_key(), ab[1].sort_key())


def _new_const(t: RdfTerm) -> Const:
    return Const(term_symbol(t))


def _by_source(pairs: set[tuple[RdfTerm, RdfTerm]]) -> dict[RdfTerm, list[RdfTerm]]:
    out: dict[RdfTerm, list[RdfTerm]] = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
    return out


def role_name(predicate_iri: str) -> str:
    """Map a predicate IRI to its role name; rdf:type becomes the isA role."""
    if predicate_iri == RDF_TYPE:
        return IS_A
    return predicate_iri


def role_path(p: PropertyPath) -> PropertyPath:
    """The path as the logic side reads it: inverses pushed onto the
    predicates (reversing sequences) and predicates renamed to roles, so
    that `^(p*)` and `(^p)*` become the same path."""

    def go(p: PropertyPath, inverted: bool) -> PropertyPath:
        if isinstance(p, Predicate):
            role = Predicate(role_name(p.iri))
            return Inverse(role) if inverted else role
        if isinstance(p, Inverse):
            return go(p.path, not inverted)
        if isinstance(p, (Sequence, Alternative)):
            members = tuple(go(m, inverted) for m in p.members)
            reverse = inverted and isinstance(p, Sequence)
            return type(p)(members[::-1] if reverse else members)
        if isinstance(p, ZeroOrOne):
            return ZeroOrOne(go(p.path, inverted))
        if isinstance(p, ZeroOrMore):
            return ZeroOrMore(go(p.path, inverted))
        raise TypeError(f"unexpected path node {p!r}")

    return go(p, False)


class Emitter:
    """Stateful lowering of one problem into FOL formulas.

    The emitter records every constant it names (`known_constants`, which
    starts with the data graph's) and every data role it uses (`roles`);
    the ambient axioms are built from both.  `known_constants` maps each
    term to its one `Const`, which every axiom naming the term shares.
    """

    def __init__(self, opts: EmitOptions, data_graph: Optional[Graph] = None):
        self.opts = opts
        self.data_graph = data_graph
        self.known_constants: dict[RdfTerm, Const] = {
            t: _new_const(t) for t in (data_graph.constants() if data_graph is not None else ())
        }
        self.roles: set[str] = set()
        self.var_counter = 0
        self.star_roles: dict[PropertyPath, str] = {}
        self.star_axioms: list[tuple[str, Formula]] = []
        self.approximations: set[str] = set()

    def fresh_var(self, hint: str = "Y") -> Var:
        self.var_counter += 1
        return Var(f"{hint}{self.var_counter}")

    def const(self, t: RdfTerm) -> Const:
        c = self.known_constants.get(t)
        if c is None:
            c = self.known_constants[t] = _new_const(t)
        return c

    def role_atom(self, name: str, a: fol.Term, b: fol.Term) -> Atom:
        self.roles.add(name)
        return Atom(name, (a, b))

    # --- sentences ---

    def target_formula(self, t: TargetDecl, shape_name: RdfTerm,
                       shape_pred: str = SHAPE_PRED) -> Formula:
        """The axiom of one target declaration of the shape `shape_name`."""
        shape = self.const(shape_name)
        if t.kind is TargetKind.NODE:
            return Atom(shape_pred, (self.const(t.argument), shape))
        x, y = Var("X"), Var("Y")
        if t.kind is TargetKind.CLASS:
            return Forall(
                ("X",),
                Implies(self.role_atom(IS_A, x, self.const(t.argument)),
                        Atom(shape_pred, (x, shape))),
            )
        role = role_name(t.argument.lexical)
        if t.kind is TargetKind.SUBJECTS_OF:
            edge = self.role_atom(role, x, y)
        elif t.kind is TargetKind.OBJECTS_OF:
            edge = self.role_atom(role, y, x)
        else:
            raise TypeError(f"unexpected target kind {t.kind!r}")
        return Forall(("X", "Y"), Implies(edge, Atom(shape_pred, (x, shape))))

    def shape_formula(self, shape: Shape, signature: Iterable[str] = (),
                      shape_pred: str = SHAPE_PRED) -> Formula:
        """The definition `![X]: (shape_pred(X, name) <=> body)` of one shape;
        `sh:closed` bans the roles of `signature` the shape does not allow."""
        x = Var("X")
        return Forall(
            ("X",),
            Iff(
                Atom(shape_pred, (x, self.const(shape.name))),
                self.node_formula(shape.constraint, x, shape_pred, signature),
            ),
        )

    # --- node formulas ---

    def node_formula(self, c: Constraint, x: fol.Term, shape_pred: str = SHAPE_PRED,
                     signature: Iterable[str] = ()) -> Formula:
        def node(c: Constraint, x: fol.Term) -> Formula:
            return self.node_formula(c, x, shape_pred, signature)

        if isinstance(c, TrueC):
            return TrueF()
        if isinstance(c, Not):
            return neg(node(c.operand, x))
        if isinstance(c, And):
            # folded left: the emitted text is the left-nested conjunction
            out: Formula = TrueF()
            for op in c.operands:
                out = conj([out, node(op, x)])
            return out
        if isinstance(c, EqConst):
            return Eq(x, self.const(c.term))
        if isinstance(c, NodeKind):
            return Atom(_FILTER_OF_KIND[c.kind.value], (x,))
        if isinstance(c, HasShape):
            return Atom(shape_pred, (x, self.const(c.shape_name)))
        if isinstance(c, MinCount):
            return self.at_least(
                c.n, role_path(c.path), c.constraint, x, shape_pred, signature,
            )
        if isinstance(c, DisjointProp):
            y = self.fresh_var()
            return neg(
                Exists(
                    (y.name,),
                    conj([
                        self.path_formula(role_path(c.path), x, y),
                        self.role_atom(role_name(c.predicate), x, y),
                    ]),
                )
            )
        if isinstance(c, EqualsProp):
            y = self.fresh_var()
            return Forall(
                (y.name,),
                Iff(self.path_formula(role_path(c.path), x, y),
                    self.role_atom(role_name(c.predicate), x, y)),
            )
        if isinstance(c, OrderProp):
            self.approximations.add("order")
            y, z = self.fresh_var(), self.fresh_var("Z")
            order_pred = LT if c.op is OrderOp.LT else LEQ
            order_atom = Atom(order_pred, (z, y) if c.inverted else (y, z))
            return Forall(
                (y.name, z.name),
                Implies(
                    conj([
                        self.path_formula(role_path(c.path), x, y),
                        self.role_atom(role_name(c.predicate), x, z),
                    ]),
                    order_atom,
                ),
            )
        if isinstance(c, Closed):
            # no successor through any banned role, as a left-nested conjunction
            out: Formula = TrueF()
            for r in sorted(set(signature) - c.allowed_predicates - {RDF_TYPE}):
                clause = neg(self.at_least(1, Predicate(r), TrueC(), x, shape_pred, signature))
                out = conj([out, clause])
            return out
        raise TypeError(f"not a constraint: {c!r}")

    def at_least(self, n: int, path: PropertyPath, c: Constraint, x: fol.Term,
                 shape_pred: str, signature: Iterable[str]) -> Formula:
        """n distinct successors of x through the role path `path` satisfy `c`."""
        if n > self.opts.cardinality_limit:
            raise CardinalityLimitExceeded(n, self.opts.cardinality_limit)
        ys = [self.fresh_var() for _ in range(n)]
        parts: list[Formula] = []
        for y in ys:
            parts.append(self.path_formula(path, x, y))
            parts.append(self.node_formula(c, y, shape_pred, signature))
        for a, b in itertools.combinations(ys, 2):
            parts.append(neg(Eq(a, b)))
        return Exists(tuple(y.name for y in ys), conj(parts))

    # --- paths (as given by `role_path`) ---

    def path_formula(self, p: PropertyPath, x: fol.Term, y: fol.Term) -> Formula:
        if isinstance(p, Predicate):
            return self.role_atom(p.iri, x, y)
        if isinstance(p, Inverse):
            return self.role_atom(p.path.iri, y, x)
        if isinstance(p, Sequence):
            zs = [self.fresh_var("Z") for _ in p.members[1:]]
            ends = [x, *zs, y]
            return Exists(
                tuple(z.name for z in zs),
                conj([self.path_formula(m, a, b) for m, a, b in zip(p.members, ends, ends[1:])]),
            )
        if isinstance(p, Alternative):
            return disj([self.path_formula(m, x, y) for m in p.members])
        if isinstance(p, ZeroOrOne):
            return disj([Eq(x, y), self.path_formula(p.path, x, y)])
        if isinstance(p, ZeroOrMore):
            name = self.star_role(p)
            if self.data_graph is None:
                return Atom(name, (x, y))
            r, s = self.fresh_var("R"), self.fresh_var("S")
            return Exists((r.name, s.name), conj([
                Atom(f"{name}_rep", (x, r)), Atom(f"{name}_rep", (y, s)),
                Atom(f"{name}_reach", (r, s)),
            ]))
        raise TypeError(f"not a role path: {p!r}")

    def star_role(self, p: ZeroOrMore) -> str:
        """The role of a zero-or-more path.  Without a data graph its
        closure axioms are added now; with one, `ground_stars` grounds it."""
        if p in self.star_roles:
            return self.star_roles[p]
        name = f"star_{len(self.star_roles) + 1}"
        self.star_roles[p] = name
        if self.data_graph is None:
            self.approximations.add("star")
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
        return name

    def ground_stars(self):
        """With a data graph, the exact closure of each star role: the
        closed `star_N_rep` takes each constant to the first constant of
        its strongly connected component of the base path's pairs, and
        `star_N_reach` has one definition per component over the acyclic
        condensation.  This runs once every sentence is lowered, so the
        constants are those of the theory and of the data graph."""
        if self.data_graph is None:
            return
        universe = sorted(self.known_constants, key=RdfTerm.sort_key)
        order = {t: i for i, t in enumerate(universe)}.__getitem__
        y = Var("Y")
        for p, name in self.star_roles.items():
            after = _by_source(self.path_pairs(p.path, set(universe)))
            components = sorted((sorted(c, key=order) for c in fol.components(
                universe, lambda t: after.get(t, ()))), key=lambda c: order(c[0]))
            rep = {t: c[0] for c in components for t in c}
            facts, closure = closed_relation(
                f"{name}_rep", [(t, rep[t]) for t in universe], self.const)
            self.star_axioms += [(f"{name}_rep_{i}", f) for i, f in enumerate(facts, start=1)]
            self.star_axioms.append((f"{name}_rep_closed", closure))
            reach = f"{name}_reach"
            for k, component in enumerate(components, start=1):
                r = self.const(component[0])
                leads = {rep[u] for t in component for u in after.get(t, ())} - {component[0]}
                body = disj([Eq(y, r)] + [Atom(reach, (self.const(d), y))
                                          for d in sorted(leads, key=order)])
                self.star_axioms.append((
                    f"{reach}_{k}", Forall(("Y",), Iff(Atom(reach, (r, y)), body))))

    def path_pairs(self, p: PropertyPath, universe: set[RdfTerm]) -> set[tuple[RdfTerm, RdfTerm]]:
        """The pairs of `universe` related by the role path `p` in the data graph."""
        g = self.data_graph
        if isinstance(p, Predicate):
            self.roles.add(p.iri)
            return graph_role_pairs(g, p.iri)
        if isinstance(p, Inverse):
            self.roles.add(p.path.iri)
            return {(b, a) for (a, b) in graph_role_pairs(g, p.path.iri)}
        if isinstance(p, Sequence):
            pairs = self.path_pairs(p.members[0], universe)
            for m in p.members[1:]:
                right = _by_source(self.path_pairs(m, universe))
                pairs = {(a, c) for (a, b) in pairs for c in right.get(b, ())}
            return pairs
        if isinstance(p, Alternative):
            return set().union(*(self.path_pairs(m, universe) for m in p.members))
        if isinstance(p, ZeroOrOne):
            return {(t, t) for t in universe} | self.path_pairs(p.path, universe)
        if isinstance(p, ZeroOrMore):
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
        raise TypeError(f"not a role path: {p!r}")

    # --- ambient axioms ---

    def filter_axioms(self, constants: list[RdfTerm]) -> list[tuple[str, Formula]]:
        """Disjoint term kinds, and the kind of each of `constants`, in order."""
        out: list[tuple[str, Formula]] = []
        x = Var("X")
        for i, (a, b) in enumerate(itertools.combinations(FILTER_PREDS, 2), start=1):
            out.append((
                f"filter_disjoint_{i}",
                Forall(("X",), neg(conj([Atom(a, (x,)), Atom(b, (x,))]))),
            ))
        for i, t in enumerate(constants, start=1):
            out.append((
                f"filter_kind_{i}", Atom(_FILTER_OF_KIND[t.kind.value], (self.const(t),))
            ))
        return out

    def order_axioms(self) -> list[tuple[str, Formula]]:
        if "order" not in self.approximations:
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


def emit_una(constants: list[RdfTerm], opts: EmitOptions,
             const: Callable[[RdfTerm], Const] = _new_const) -> list[TptpFormula]:
    """Unique-name axioms over `constants`, in the order given: one
    `$distinct` in TFF, the pairwise inequalities in FOF, which has no
    `$distinct`; `const` gives the constant of a term."""
    consts = [const(t) for t in constants]
    if len(consts) < 2:
        return []
    if opts.dialect is Dialect.FOF:
        out = []
        for i, (a, b) in enumerate(itertools.combinations(consts, 2), start=1):
            out.append(TptpFormula(f"una_{i}", "axiom", neg(Eq(a, b))))
        return out
    return [TptpFormula("una_distinct", "axiom", Distinct(tuple(consts)))]


def closed_relation(pred: str, pairs: list[tuple[RdfTerm, RdfTerm]],
                    const: Callable[[RdfTerm], Const]) -> tuple[list[Formula], Formula]:
    """The facts of a binary predicate on `pairs`, in order, and the unit
    that closes it over them; `const` gives the constant of a term."""
    facts = [Atom(pred, (const(a), const(b))) for a, b in pairs]
    x, y = Var("X"), Var("Y")
    atom = Atom(pred, (x, y))
    if not pairs:
        return facts, neg(Exists(("X", "Y"), atom))
    cases = disj([AndN((Eq(x, const(a)), Eq(y, const(b)))) for a, b in pairs])
    return facts, Forall(("X", "Y"), Implies(atom, cases))


def emit_graph_axioms(g: Graph, signature: set[str],
                      const: Callable[[RdfTerm], Const] = _new_const) -> list[TptpFormula]:
    """Positive ground facts plus per-relation completeness axioms;
    `const` gives the constant of a term."""
    closed = [closed_relation(role, sorted(graph_role_pairs(g, role), key=_pair_key), const)
              for role in sorted(signature)]
    facts = itertools.chain.from_iterable(facts for facts, _ in closed)
    return [TptpFormula(f"graph_pos_{i}", "axiom", f) for i, f in enumerate(facts, start=1)] \
        + [TptpFormula(f"graph_neg_{j}", "axiom", f) for j, (_, f) in enumerate(closed, start=1)]


def attach_ambient_axioms(doc: TptpDocument, emitter: Emitter):
    """Data-graph, star, order, filter and UNA axioms for everything the
    emitter saw; the data graph's relations are closed over the roles the
    emitter used and those of the graph."""
    emitter.ground_stars()
    g = emitter.data_graph
    if g is not None:
        data_roles = {role_name(p) for p in g.predicate_names()}
        doc.extend(emit_graph_axioms(g, emitter.roles | data_roles, emitter.const))
    for name, body in emitter.star_axioms:
        doc.add(name, body)
    for name, body in emitter.order_axioms():
        doc.add(name, body)
    constants = sorted(emitter.known_constants, key=RdfTerm.sort_key)
    for name, body in emitter.filter_axioms(constants):
        doc.add(name, body)
    doc.extend(emit_una(constants, emitter.opts, emitter.const))
    doc.approximations |= emitter.approximations


def render(doc: TptpDocument) -> str:
    """Deterministic TPTP text; TFF mode includes type declarations.

    The units are written in one walk that quotes each symbol once, into a
    table of this call; the TFF declarations of its constants and
    predicates are then read off that table and put in front.
    """
    symbols = fol.SymbolTable()
    kw = "tff" if doc.dialect is Dialect.TFF else "fof"
    units = [
        f"{kw}({f.name}, {f.role}, {fol.formula_text(f.body, symbols)})."
        for f in doc.formulas
    ]
    lines = [f"% {h}" for h in doc.header]
    if doc.dialect is Dialect.TFF:
        consts = symbols.consts
        for i, name in enumerate(sorted(consts), start=1):
            lines.append(f"tff(decl_c_{i}, type, {consts[name]}: $i).")
        preds = symbols.preds
        for i, name in enumerate(sorted(preds), start=1):
            text, arity = preds[name]
            if arity == 0:
                sig = "$o"
            else:
                sig = "(" + " * ".join(["$i"] * arity) + ") > $o"
            lines.append(f"tff(decl_p_{i}, type, {text}: {sig}).")
    lines += units
    return "\n".join(lines) + "\n"
