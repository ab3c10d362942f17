import pytest

from conftest import load_shapes
from shacl2fol.fol import Atom, Var, formula_text
from shacl2fol.rdf import RDF_TYPE, iri, literal
from shacl2fol.record import Record
from shacl2fol import shapes, translate as tr
from shacl2fol.decide import DecisionTask, ProverConfig, TaskKind, Verdict, run_task
from shacl2fol.shapes import (
    Alternative, And, Closed, DisjointProp, EqConst, EqualsProp, Inverse, MinCount,
    NodeKind, NodeKindValue, Not, OrderOp, OrderProp, Predicate, Sequence,
    TargetDecl, TargetKind, TrueC, ZeroOrMore, ZeroOrOne,
)
from shacl2fol.tptp import Emitter, EmitOptions, role_path

EX = "http://example.org/"
S = iri(EX + "S")
P, Q = f"'{EX}p'", f"'{EX}q'"


def target(kind, argument) -> str:
    return formula_text(Emitter(EmitOptions()).target_formula(TargetDecl(kind, argument), S))


def node(c, signature=()) -> str:
    return formula_text(Emitter(EmitOptions()).node_formula(c, Var("X"), signature=signature))


def path(p) -> str:
    return formula_text(Emitter(EmitOptions()).path_formula(role_path(p), Var("X"), Var("Y")))


class TestTargetAxioms:
    """The four target-declaration forms, as emitted axiom text."""

    def test_node_target(self):
        assert target(TargetKind.NODE, iri(EX + "a")) == (
            "hasShape('http://example.org/a', 'http://example.org/S')"
        )

    def test_class_target(self):
        assert target(TargetKind.CLASS, iri(EX + "C")) == (
            "(![X]: (isA(X, 'http://example.org/C')"
            " => hasShape(X, 'http://example.org/S')))"
        )

    def test_subjects_of_target(self):
        assert target(TargetKind.SUBJECTS_OF, iri(EX + "p")) == (
            "(![X, Y]: ('http://example.org/p'(X, Y)"
            " => hasShape(X, 'http://example.org/S')))"
        )

    def test_objects_of_target(self):
        # the inverse role swaps the argument order
        assert target(TargetKind.OBJECTS_OF, iri(EX + "p")) == (
            "(![X, Y]: ('http://example.org/p'(Y, X)"
            " => hasShape(X, 'http://example.org/S')))"
        )

    def test_rdf_type_targets_use_is_a(self):
        assert target(TargetKind.SUBJECTS_OF, iri(RDF_TYPE)) == (
            "(![X, Y]: (isA(X, Y) => hasShape(X, 'http://example.org/S')))"
        )


class TestConstraintTranslation:
    def test_min_count_becomes_at_least(self):
        c = MinCount(2, Predicate(EX + "p"), TrueC())
        assert node(c) == f"(?[Y1, Y2]: ({P}(X, Y1) & {P}(X, Y2) & (Y1 != Y2)))"

    def test_max_count_becomes_negated_at_least(self):
        # at most 3 is "not 4 distinct witnesses"
        c = Not(MinCount(4, Predicate(EX + "p"), TrueC()))
        witnesses = " & ".join(f"{P}(X, Y{i})" for i in range(1, 5))
        distinct = " & ".join(
            f"(Y{i} != Y{j})" for i in range(1, 5) for j in range(i + 1, 5)
        )
        assert node(c) == f"~((?[Y1, Y2, Y3, Y4]: ({witnesses} & {distinct})))"

    def test_min_count_requires_positive(self):
        # so the at-least expansion never has zero witnesses
        with pytest.raises(ValueError):
            MinCount(0, Predicate(EX + "p"), TrueC())

    def test_equals_becomes_extension_equality(self):
        c = EqualsProp(Predicate(EX + "p"), EX + "q")
        assert node(c) == f"(![Y1]: ({P}(X, Y1) <=> {Q}(X, Y1)))"

    def test_disjoint_becomes_no_shared_successor(self):
        c = DisjointProp(Predicate(EX + "p"), EX + "q")
        assert node(c) == f"~((?[Y1]: ({P}(X, Y1) & {Q}(X, Y1))))"

    def test_less_than_becomes_pairwise_order(self):
        c = OrderProp(Predicate(EX + "p"), EX + "q", OrderOp.LT)
        assert node(c) == f"(![Y1, Z2]: (({P}(X, Y1) & {Q}(X, Z2)) => lt(Y1, Z2)))"
        inverted = OrderProp(Predicate(EX + "p"), EX + "q", OrderOp.LEQ, inverted=True)
        assert node(inverted) == f"(![Y1, Z2]: (({P}(X, Y1) & {Q}(X, Z2)) => leq(Z2, Y1)))"

    def test_node_kind_becomes_filter(self):
        assert node(NodeKind(NodeKindValue.LITERAL)) == "isLiteral(X)"
        assert node(NodeKind(NodeKindValue.BLANK)) == "isBlank(X)"

    def test_closed_bans_signature_minus_allowed(self):
        c = Closed(frozenset({EX + "p"}))
        # only q is banned: p is allowed and rdf:type is always exempt
        assert node(c, {EX + "p", EX + "q", RDF_TYPE}) == f"~((?[Y1]: {Q}(X, Y1)))"
        # several banned roles form a left-nested conjunction in role order
        assert node(c, {EX + "r", EX + "q"}) == (
            f"(~((?[Y1]: {Q}(X, Y1))) & ~((?[Y2]: '{EX}r'(X, Y2))))"
        )
        assert node(c, {EX + "p"}) == "$true"

    def test_and_becomes_left_nested_conjunction(self):
        kinds = [NodeKind(k) for k in NodeKindValue]
        assert node(And(tuple(kinds))) == "((isIRI(X) & isLiteral(X)) & isBlank(X))"
        # $true operands drop out, as they did from the binary conjunction
        assert node(And((TrueC(), kinds[0], TrueC()))) == "isIRI(X)"

    def test_has_value_becomes_existential_equality(self):
        c = MinCount(1, Predicate(EX + "p"), EqConst(literal("v")))
        assert node(c) == f"(?[Y1]: ({P}(X, Y1) & (Y1 = '\"v\"')))"


class TestPathTranslation:
    def test_constructors(self):
        p, q = Predicate(EX + "p"), Predicate(EX + "q")
        assert path(p) == f"{P}(X, Y)"
        assert path(Inverse(p)) == f"{P}(Y, X)"
        assert path(Sequence((p, q))) == f"(?[Z1]: ({P}(X, Z1) & {Q}(Z1, Y)))"
        assert path(Alternative((p, q))) == f"({P}(X, Y) | {Q}(X, Y))"
        assert path(Sequence((p, q, p))) == f"(?[Z1, Z2]: ({P}(X, Z1) & {Q}(Z1, Z2) & {P}(Z2, Y)))"
        assert path(Alternative((p, q, p))) == f"({P}(X, Y) | {Q}(X, Y) | {P}(X, Y))"
        assert path(ZeroOrOne(p)) == f"((X = Y) | {P}(X, Y))"
        assert path(ZeroOrMore(p)) == "star_1(X, Y)"
        assert path(Sequence((p, ZeroOrMore(p)))) == f"(?[Z1]: ({P}(X, Z1) & star_1(Z1, Y)))"
        assert path(Predicate(RDF_TYPE)) == "isA(X, Y)"

    def test_inverse_distributes_over_sequence(self):
        p, q = Predicate(EX + "p"), Predicate(EX + "q")
        assert role_path(Inverse(Sequence((p, q)))) == Sequence((Inverse(q), Inverse(p)))
        assert path(Inverse(Sequence((p, q)))) == f"(?[Z1]: ({Q}(Z1, X) & {P}(Y, Z1)))"
        r = Predicate(EX + "r")
        assert role_path(Inverse(Sequence((p, q, r)))) == \
            Sequence((Inverse(r), Inverse(q), Inverse(p)))

    def test_double_inverse_cancels(self):
        p = Predicate(EX + "p")
        assert role_path(Inverse(Inverse(p))) == p
        assert path(Inverse(Inverse(p))) == f"{P}(X, Y)"

    def test_inverse_star_and_star_of_inverse_share_a_role(self):
        p = Predicate(EX + "p")
        emitter = Emitter(EmitOptions())
        x, y = Var("X"), Var("Y")
        a = emitter.path_formula(role_path(Inverse(ZeroOrMore(p))), x, y)
        b = emitter.path_formula(role_path(ZeroOrMore(Inverse(p))), x, y)
        assert a == b == Atom("star_1", (x, y))
        assert list(emitter.star_roles.values()) == ["star_1"]


def _shape_refs(formula) -> set[str]:
    """Second arguments of every hasShape atom under a formula."""
    if isinstance(formula, Atom):
        return {formula.args[1].name} if formula.pred == "hasShape" else set()
    out = set()
    for name in formula.__slots__:
        value = getattr(formula, name)
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, Record):
                out |= _shape_refs(part)
    return out


class TestFullTranslation:
    SHAPES = """\
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://example.org/> .
    ex:S a sh:NodeShape ; sh:targetClass ex:C ;
      sh:property [ sh:path ex:p ; sh:minCount 1 ] .
    """

    def test_targets_precede_definitions(self):
        theory = tr.translate(load_shapes(self.SHAPES))
        assert [s.name for s in theory] == ["target", "shape_def"]
        assert formula_text(theory[0].body).startswith("(![X]: (isA(X, ")

    def test_theory_is_well_formed(self):
        sg = load_shapes(self.SHAPES + "ex:T a sh:NodeShape ; sh:node ex:S .")
        shapes.check_shape_graph(sg)
        theory = tr.translate(sg)
        defs = [s.body for s in theory if s.name == "shape_def"]
        # one definition each, whose left side names the shape
        defined = {d.body.left.args[1].name for d in defs}
        assert sorted(defined) == sorted(n.lexical for n in sg.shape_names())
        for s in theory:
            assert _shape_refs(s.body) <= defined

    def test_signature_of(self):
        assert tr.signature_of(load_shapes(self.SHAPES)) == {EX + "p"}

    def test_strong_sat_demands_an_instance_of_each_selected_shape(self):
        sg = load_shapes(self.SHAPES)
        emitter = Emitter(EmitOptions())
        tr.translate(sg, emitter=emitter)
        named = dict(emitter.known_constants)
        (t,) = tr.strong_satisfiability_targets(sg, [S], emitter)
        assert t.name == "strong_sat"
        assert formula_text(t.body) == "(?[X]: hasShape(X, 'http://example.org/S'))"
        assert emitter.known_constants == named  # the instance is no new constant

    @pytest.mark.parametrize("constraint", [
        "sh:nodeKind sh:BlankNode", "sh:nodeKind sh:Literal",
        "sh:hasValue ex:a", "sh:in ( ex:a )",
    ])
    def test_strong_sat_of_a_shape_no_iri_but_its_own_may_conform_to(self, constraint):
        """An instance may be a blank node, a literal or a named constant:
        a fresh IRI kept apart from every constant could conform to none
        of these shapes."""
        sg = load_shapes(self.SHAPES.split("ex:S a")[0] + f"ex:S a sh:NodeShape ; {constraint} .")
        task = DecisionTask(TaskKind.SATISFIABILITY, sg, strong_sat_shapes=[],
                            prover=ProverConfig("builtin", timeout_s=10))
        assert run_task(task).verdict == Verdict.SATISFIABLE

    def test_strong_sat_rejects_unknown_shape(self):
        sg = load_shapes(self.SHAPES)
        emitter = Emitter(EmitOptions())
        tr.translate(sg, emitter=emitter)
        with pytest.raises(ValueError):
            tr.strong_satisfiability_targets(sg, [iri(EX + "nope")], emitter)
