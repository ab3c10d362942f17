import pytest

from conftest import load_shapes
from shacl2fol.errors import UnsupportedComponent
from shacl2fol.fol import formula_text
from shacl2fol.rdf import RDF_TYPE, iri, literal
from shacl2fol import scl, shapes, translate as tr
from shacl2fol.scl import (
    Alt, AndF, AtLeast, EqConstF, Exists, Filter, ForallIff, HasShapeF,
    NotExistsBoth, NotF, Opt, OrderAtom, OrderRel, PairwiseOrder, Role,
    ShapeDef, Star, TargetClass, TargetNode, TargetObjectsOf,
    TargetSubjectsOf, Top,
)
from shacl2fol.shapes import (
    Alternative, Closed, DisjointProp, EqConst, EqualsProp, HasShape,
    Inverse, MaxCount, MinCount, NodeKind, NodeKindValue, Not, OrderOp,
    OrderProp, Predicate, Sequence, SomeThrough, TargetDecl, TargetKind,
    TrueC, ZeroOrMore, ZeroOrOne,
)
from shacl2fol.tptp import Emitter, EmitOptions

EX = "http://example.org/"
S = iri(EX + "S")


def emitted(sentence) -> str:
    return formula_text(Emitter(EmitOptions()).sentence_formula(sentence))


class TestTargetAxioms:
    """The four target-declaration forms, as emitted axiom text."""

    def test_node_target(self):
        s = tr.translate_target(TargetDecl(TargetKind.NODE, iri(EX + "a")), S)
        assert s == TargetNode(iri(EX + "a"), S)
        assert emitted(s) == (
            "hasShape('http://example.org/a', 'http://example.org/S')"
        )

    def test_class_target(self):
        s = tr.translate_target(TargetDecl(TargetKind.CLASS, iri(EX + "C")), S)
        assert s == TargetClass(iri(EX + "C"), S)
        assert emitted(s) == (
            "(![X]: (isA(X, 'http://example.org/C')"
            " => hasShape(X, 'http://example.org/S')))"
        )

    def test_subjects_of_target(self):
        s = tr.translate_target(TargetDecl(TargetKind.SUBJECTS_OF, iri(EX + "p")), S)
        assert s == TargetSubjectsOf(EX + "p", S)
        assert emitted(s) == (
            "(![X, Y]: ('http://example.org/p'(X, Y)"
            " => hasShape(X, 'http://example.org/S')))"
        )

    def test_objects_of_target(self):
        # the inverse role swaps the argument order
        s = tr.translate_target(TargetDecl(TargetKind.OBJECTS_OF, iri(EX + "p")), S)
        assert s == TargetObjectsOf(EX + "p", S)
        assert emitted(s) == (
            "(![X, Y]: ('http://example.org/p'(Y, X)"
            " => hasShape(X, 'http://example.org/S')))"
        )

    def test_rdf_type_targets_use_is_a(self):
        s = tr.translate_target(TargetDecl(TargetKind.SUBJECTS_OF, iri(RDF_TYPE)), S)
        assert s == TargetSubjectsOf(scl.IS_A, S)


class TestConstraintTranslation:
    def test_min_count_becomes_at_least(self):
        c = MinCount(2, Predicate(EX + "p"), TrueC())
        assert tr.translate_constraint(c, set()) == AtLeast(2, Role(EX + "p"), Top())

    def test_max_count_becomes_negated_at_least(self):
        c = MaxCount(3, Predicate(EX + "p"), TrueC())
        assert tr.translate_constraint(c, set()) == NotF(
            AtLeast(4, Role(EX + "p"), Top())
        )

    def test_equals_becomes_extension_equality(self):
        c = EqualsProp(Predicate(EX + "p"), EX + "q")
        assert tr.translate_constraint(c, set()) == ForallIff(Role(EX + "p"), EX + "q")

    def test_disjoint_becomes_no_shared_successor(self):
        c = DisjointProp(Predicate(EX + "p"), EX + "q")
        assert tr.translate_constraint(c, set()) == NotExistsBoth(
            Role(EX + "p"), EX + "q"
        )

    def test_less_than_becomes_pairwise_order(self):
        c = OrderProp(Predicate(EX + "p"), EX + "q", OrderOp.LT)
        assert tr.translate_constraint(c, set()) == PairwiseOrder(
            Role(EX + "p"), EX + "q", OrderAtom(OrderRel.LT, False)
        )

    def test_node_kind_becomes_filter(self):
        c = NodeKind(NodeKindValue.LITERAL)
        assert tr.translate_constraint(c, set()) == Filter("isLiteral")

    def test_closed_bans_signature_minus_allowed(self):
        c = Closed(frozenset({EX + "p"}))
        got = tr.translate_constraint(c, {EX + "p", EX + "q", RDF_TYPE})
        # only q is banned: p is allowed and rdf:type is always exempt
        assert got == NotF(AtLeast(1, Role(EX + "q"), Top()))

    def test_has_value_becomes_existential_equality(self):
        c = SomeThrough(Predicate(EX + "p"), EqConst(literal("v")))
        assert tr.translate_constraint(c, set()) == Exists(
            Role(EX + "p"), EqConstF(literal("v"))
        )


class TestPathTranslation:
    def test_constructors(self):
        p, q = Predicate(EX + "p"), Predicate(EX + "q")
        assert tr.translate_path(p) == Role(EX + "p")
        assert tr.translate_path(Inverse(p)) == Role(EX + "p", inverted=True)
        assert tr.translate_path(Sequence(p, q)) == scl.Seq(Role(EX + "p"), Role(EX + "q"))
        assert tr.translate_path(Alternative(p, q)) == Alt(Role(EX + "p"), Role(EX + "q"))
        assert tr.translate_path(ZeroOrOne(p)) == Opt(Role(EX + "p"))
        assert tr.translate_path(ZeroOrMore(p)) == Star(Role(EX + "p"))

    def test_inverse_distributes_over_sequence(self):
        p, q = Predicate(EX + "p"), Predicate(EX + "q")
        got = tr.translate_path(Inverse(Sequence(p, q)))
        assert got == scl.Seq(Role(EX + "q", True), Role(EX + "p", True))

    def test_double_inverse_cancels(self):
        p = Predicate(EX + "p")
        assert tr.translate_path(Inverse(Inverse(p))) == Role(EX + "p")


class TestFullTranslation:
    SHAPES = """\
    @prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://example.org/> .
    ex:S a sh:NodeShape ; sh:targetClass ex:C ;
      sh:property [ sh:path ex:p ; sh:minCount 1 ] .
    """

    def test_targets_precede_definitions(self):
        theory = tr.translate(load_shapes(self.SHAPES))
        assert isinstance(theory[0], TargetClass)
        assert isinstance(theory[-1], ShapeDef)

    def test_theory_is_well_formed(self):
        sg = load_shapes(self.SHAPES + "ex:T a sh:NodeShape ; sh:node ex:S .")
        shapes.check_shape_graph(sg)
        theory = tr.translate(sg)
        defined = [s.shape_name for s in theory if isinstance(s, ShapeDef)]
        assert sorted(defined) == sorted(sg.shape_names())  # one definition each
        for s in theory:
            refs = scl.free_shape_refs(s.body) if isinstance(s, ShapeDef) else {s.shape_name}
            assert refs <= set(defined)

    def test_signature_of(self):
        assert tr.signature_of(load_shapes(self.SHAPES)) == {EX + "p"}

    def test_strong_sat_adds_fresh_dummy_targets(self):
        theory = tr.translate(load_shapes(self.SHAPES))
        widened = tr.add_strong_satisfiability_targets(theory, [S])
        added = [s for s in widened if s not in theory]
        assert len(added) == 1
        (t,) = added
        assert isinstance(t, TargetNode)
        assert t.constant.lexical.startswith(tr.DUMMY_PREFIX)
        assert t.shape_name == S

    def test_strong_sat_rejects_unknown_shape(self):
        theory = tr.translate(load_shapes(self.SHAPES))
        with pytest.raises(ValueError):
            tr.add_strong_satisfiability_targets(theory, [iri(EX + "nope")])
