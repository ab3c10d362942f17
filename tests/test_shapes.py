import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_shapes, not_chain
from shacl2fol.errors import MalformedShape, RecursiveShapeGraph, UnsupportedComponent
from shacl2fol.oracle import evaluate
from shacl2fol.rdf import Graph, iri, literal
from shacl2fol.shapes import (
    Alternative, And, Closed, DisjointProp, EqConst, EqualsProp, HasShape,
    Inverse, MinCount, NodeKind, NodeKindValue, Not, OrderOp, OrderProp,
    Predicate, Sequence, Shape, ShapeGraph, TargetDecl, TargetKind, TrueC,
    ZeroOrMore, ZeroOrOne, check_shape_graph, conjoin, constraint_predicates,
    constraint_shape_refs, detect_recursion, subconstraints,
)
from shacl2fol.translate import translate

PREFIX = """\
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
"""

EX = "http://example.org/"


def shape_named(sg, local):
    return next(s for s in sg.shapes if s.name == iri(EX + local))


class TestTargets:
    def test_all_four_target_kinds(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ;
          sh:targetNode ex:a ;
          sh:targetClass ex:C ;
          sh:targetSubjectsOf ex:p ;
          sh:targetObjectsOf ex:q .
        """)
        kinds = {(t.kind, t.argument) for t in shape_named(sg, "S").targets}
        assert kinds == {
            (TargetKind.NODE, iri(EX + "a")),
            (TargetKind.CLASS, iri(EX + "C")),
            (TargetKind.SUBJECTS_OF, iri(EX + "p")),
            (TargetKind.OBJECTS_OF, iri(EX + "q")),
        }

    def test_untargeted_shape_kept(self):
        sg = load_shapes(PREFIX + "ex:S a sh:NodeShape ; sh:nodeKind sh:IRI .")
        assert shape_named(sg, "S").targets == ()


class TestConstraintExtraction:
    def test_min_count_lowered(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ;
          sh:property [ sh:path ex:p ; sh:minCount 2 ] .
        """)
        c = shape_named(sg, "S").constraint
        assert c == MinCount(2, Predicate(EX + "p"), TrueC())

    def test_max_count_lowered(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ;
          sh:property [ sh:path ex:p ; sh:maxCount 0 ] .
        """)
        # at most 0 == not at least 1
        assert shape_named(sg, "S").constraint == Not(MinCount(1, Predicate(EX + "p"), TrueC()))

    def test_node_kind_on_values_is_universal(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ;
          sh:property [ sh:path ex:p ; sh:nodeKind sh:Literal ] .
        """)
        c = shape_named(sg, "S").constraint
        # every value is a literal == no value is a non-literal
        assert c == Not(MinCount(1, Predicate(EX + "p"),
                                 Not(NodeKind(NodeKindValue.LITERAL))))

    def test_has_value(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ;
          sh:property [ sh:path ex:p ; sh:hasValue "v" ] .
        """)
        assert shape_named(sg, "S").constraint == MinCount(
            1, Predicate(EX + "p"), EqConst(literal("v"))
        )

    def test_class_constraint(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ;
          sh:property [ sh:path ex:p ; sh:class ex:C ] .
        """)
        c = shape_named(sg, "S").constraint
        inner = MinCount(
            1, Predicate("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
            EqConst(iri(EX + "C")),
        )
        assert c == Not(MinCount(1, Predicate(EX + "p"), Not(inner)))

    def test_property_pairs(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ;
          sh:property [ sh:path ex:p ; sh:equals ex:q ] ;
          sh:property [ sh:path ex:p ; sh:disjoint ex:r ] ;
          sh:property [ sh:path ex:p ; sh:lessThan ex:s ] ;
          sh:property [ sh:path ex:p ; sh:lessThanOrEquals ex:t ] .
        """)
        p = Predicate(EX + "p")
        # one flat conjunction, in the order of the sorted property shapes
        assert set(shape_named(sg, "S").constraint.operands) == {
            EqualsProp(p, EX + "q"), DisjointProp(p, EX + "r"),
            OrderProp(p, EX + "s", OrderOp.LT), OrderProp(p, EX + "t", OrderOp.LEQ),
        }

    def test_closed_with_ignored(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ; sh:closed true ;
          sh:ignoredProperties ( ex:extra ) ;
          sh:property [ sh:path ex:p ; sh:minCount 1 ] .
        """)
        c = shape_named(sg, "S").constraint
        assert set(c.operands) == {
            Closed(frozenset({EX + "p", EX + "extra"})),
            MinCount(1, Predicate(EX + "p"), TrueC()),
        }

    def test_shape_reference(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ; sh:node ex:T .
        ex:T a sh:NodeShape ; sh:nodeKind sh:IRI .
        """)
        assert shape_named(sg, "S").constraint == HasShape(iri(EX + "T"))
        assert shape_named(sg, "T").constraint == NodeKind(NodeKindValue.IRI)

    def test_deep_not_chain_is_extracted_without_recursion(self):
        sg = load_shapes(not_chain(2000))
        assert len(sg.shapes) == 2002
        check_shape_graph(sg)
        assert isinstance(shape_named(sg, "S").constraint, Not)

    def test_deactivated_dropped(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ; sh:deactivated true ; sh:nodeKind sh:IRI .
        """)
        assert iri(EX + "S") not in {s.name for s in sg.shapes}

    def test_deactivated_literal_reference_dropped(self):
        sg = load_shapes(PREFIX + 'ex:S sh:deactivated true ; sh:node "x" .')
        assert sg.shapes == []

    def test_deactivated_reference_to_property_shape_not_followed(self):
        sg = load_shapes(PREFIX + """
        ex:S sh:targetNode ex:a ; sh:property ex:P .
        ex:P sh:path ex:p ; sh:minCount 1 .
        ex:D sh:deactivated true ; sh:node ex:P .
        """)
        assert [s.name for s in sg.shapes] == [iri(EX + "S")]

    def test_referenced_deactivated_shape_holds_everywhere(self):
        sg = load_shapes(PREFIX + """
        ex:T sh:targetNode ex:a ; sh:node ex:D .
        ex:D sh:deactivated true ; sh:targetNode ex:b ; sh:class ex:C .
        """)
        check_shape_graph(sg)
        assert shape_named(sg, "D") == Shape(iri(EX + "D"), (), TrueC())

    def test_referenced_property_shape_keeps_its_path(self):
        sg = load_shapes(PREFIX + """
        ex:S sh:property ex:P .
        ex:P sh:path ex:p ; sh:minCount 1 .
        ex:T sh:targetNode ex:a ; sh:node ex:P .
        """)
        assert shape_named(sg, "P").constraint == MinCount(1, Predicate(EX + "p"), TrueC())

    def test_qualified_counts(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ;
          sh:property [ sh:path ex:p ;
            sh:qualifiedValueShape [ sh:nodeKind sh:IRI ] ;
            sh:qualifiedMinCount 2 ; sh:qualifiedMaxCount 3 ] .
        """)
        c = shape_named(sg, "S").constraint
        # the qualified value shape becomes an anonymous referenced shape
        qualified = next(s for s in sg.shapes if s is not shape_named(sg, "S"))
        assert qualified.constraint == NodeKind(NodeKindValue.IRI)
        # at least 2 and at most 3 (not at least 4) values conform to it
        p, has = Predicate(EX + "p"), HasShape(qualified.name)
        assert c == And((MinCount(2, p, has), Not(MinCount(4, p, has))))


class TestPaths:
    def test_all_constructors(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ;
          sh:property [ sh:path [ sh:inversePath ex:p ] ; sh:minCount 1 ] ;
          sh:property [ sh:path ( ex:p ex:q ) ; sh:minCount 1 ] ;
          sh:property [ sh:path ( ex:p ex:q ex:r ) ; sh:minCount 1 ] ;
          sh:property [ sh:path [ sh:alternativePath ( ex:p ex:q ex:r ) ] ; sh:minCount 1 ] ;
          sh:property [ sh:path [ sh:alternativePath ( ex:p ex:q ) ] ; sh:minCount 1 ] ;
          sh:property [ sh:path [ sh:zeroOrOnePath ex:p ] ; sh:minCount 1 ] ;
          sh:property [ sh:path [ sh:zeroOrMorePath ex:p ] ; sh:minCount 1 ] ;
          sh:property [ sh:path [ sh:oneOrMorePath ex:p ] ; sh:minCount 1 ] .
        """)
        paths = {x.path for x in shape_named(sg, "S").constraint.operands}
        p, q, r = (Predicate(EX + x) for x in "pqr")
        # a path list is one flat node; one-or-more is parsed into a
        # sequence with a star tail
        assert paths == {
            Inverse(p), Sequence((p, q)), Alternative((p, q)),
            Sequence((p, q, r)), Alternative((p, q, r)),
            ZeroOrOne(p), ZeroOrMore(p), Sequence((p, ZeroOrMore(p))),
        }

    def test_normalize_one_or_more(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ;
          sh:property [ sh:path [ sh:oneOrMorePath [ sh:inversePath ex:p ] ] ;
                        sh:minCount 1 ] .
        """)
        p = Inverse(Predicate(EX + "p"))
        assert shape_named(sg, "S").constraint == MinCount(
            1, Sequence((p, ZeroOrMore(p))), TrueC()
        )


class TestSubconstraints:
    def test_pre_order_walk(self):
        p, q = Predicate(EX + "p"), Predicate(EX + "q")
        inner = MinCount(2, q, HasShape(T))
        c = And((Not(inner), EqualsProp(p, EX + "r"), Closed(frozenset({EX + "s"}))))
        assert list(subconstraints(c)) == [
            c, Not(inner), inner, HasShape(T), EqualsProp(p, EX + "r"),
            Closed(frozenset({EX + "s"})),
        ]
        assert constraint_shape_refs(c) == {T}
        assert constraint_predicates(c) == {EX + "p", EX + "q", EX + "r", EX + "s"}

    def test_path_predicates_through_every_constructor(self):
        p, q, r = (Predicate(EX + x) for x in "pqr")
        path = Sequence((Inverse(p), Alternative((ZeroOrOne(q), ZeroOrMore(r)))))
        assert constraint_predicates(Not(MinCount(1, path, TrueC()))) == {
            EX + "p", EX + "q", EX + "r",
        }

    def test_deep_and_wide_constraints_do_not_recurse(self):
        deep = HasShape(T)
        for _ in range(20000):
            deep = Not(deep)
        assert constraint_shape_refs(deep) == {T}
        wide = conjoin([HasShape(iri(f"{EX}T{i}")) for i in range(20000)])
        assert len(wide.operands) == 20000
        assert len(constraint_shape_refs(wide)) == 20000


class TestErrors:
    def test_unsupported_component(self):
        with pytest.raises(UnsupportedComponent):
            load_shapes(PREFIX + """
            ex:S a sh:NodeShape ;
              sh:property [ sh:path ex:p ; sh:pattern "^x" ] .
            """)

    def test_pair_component_needs_property_shape(self):
        with pytest.raises(MalformedShape):
            load_shapes(PREFIX + "ex:S a sh:NodeShape ; sh:equals ex:q .")

    def test_min_count_needs_integer(self):
        with pytest.raises(MalformedShape):
            load_shapes(PREFIX + """
            ex:S a sh:NodeShape ;
              sh:property [ sh:path ex:p ; sh:minCount "two" ] .
            """)


class TestRecursion:
    def test_mutual_recursion_detected(self):
        sg = load_shapes(PREFIX + """
        ex:S1 a sh:NodeShape ; sh:node ex:S2 .
        ex:S2 a sh:NodeShape ; sh:node ex:S1 .
        """)
        cycles = detect_recursion(sg)
        assert cycles and {iri(EX + "S1"), iri(EX + "S2")} == set(cycles[0])

    def test_self_loop_detected(self):
        sg = load_shapes(PREFIX + "ex:S a sh:NodeShape ; sh:node ex:S .")
        assert detect_recursion(sg)

    def test_dag_is_fine(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ; sh:node ex:T .
        ex:T a sh:NodeShape ; sh:nodeKind sh:IRI .
        """)
        assert detect_recursion(sg) == []

    def test_cycle_is_reported_in_reference_order(self):
        sg = load_shapes(PREFIX + """
        ex:A a sh:NodeShape ; sh:node ex:B .
        ex:B a sh:NodeShape ; sh:property [ sh:path ex:p ; sh:not ex:C ] .
        ex:C a sh:NodeShape ; sh:or ( ex:D ex:A ) .
        ex:D a sh:NodeShape .
        """)
        assert detect_recursion(sg) == [[iri(EX + n) for n in "ABC"]]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.lists(
        st.sets(st.integers(0, n - 1), max_size=n), min_size=n, max_size=n)))
    def test_matches_brute_force_reachability(self, succ):
        names = [iri(f"{EX}S{i}") for i in range(len(succ))]
        sg = ShapeGraph([
            Shape(names[i], (), conjoin([
                Not(MinCount(1, Predicate(EX + "p"), HasShape(names[j]))) if j % 2
                else HasShape(names[j])
                for j in sorted(refs)
            ]))
            for i, refs in enumerate(succ)
        ])

        def reaches_itself(i):
            seen, todo = set(), list(succ[i])
            while todo:
                j = todo.pop()
                if j not in seen:
                    seen.add(j)
                    todo.extend(succ[j])
            return i in seen

        cycles = detect_recursion(sg)
        assert bool(cycles) == any(reaches_itself(i) for i in range(len(succ)))
        edges = {(s.name, r) for s in sg for r in constraint_shape_refs(s.constraint)}
        for cycle in cycles:
            assert all((a, b) in edges for a, b in zip(cycle, cycle[1:] + cycle[:1]))

    @pytest.mark.parametrize("closed", [False, True])
    def test_long_chain_is_linear(self, closed):
        n = 5000
        names = [iri(f"{EX}S{i}") for i in range(n)]
        refs = [HasShape(names[i + 1]) for i in range(n - 1)]
        refs.append(HasShape(names[0]) if closed else TrueC())
        sg = ShapeGraph([Shape(name, (), c) for name, c in zip(names, refs)])
        start = time.perf_counter()
        if closed:
            with pytest.raises(RecursiveShapeGraph):
                check_shape_graph(sg)
            assert detect_recursion(sg) == [names]
        else:
            check_shape_graph(sg)
            assert detect_recursion(sg) == []
        assert time.perf_counter() - start < 1.0


S = iri(EX + "S")
T = iri(EX + "T")


class TestCheckShapeGraph:
    def test_valid_graph_passes(self):
        sg = ShapeGraph([
            Shape(S, (TargetDecl(TargetKind.NODE, iri(EX + "a")),), HasShape(T)),
            Shape(T, (), TrueC()),
        ])
        assert check_shape_graph(sg) is None

    def test_undefined_shape_rejected(self):
        sg = ShapeGraph([Shape(S, (TargetDecl(TargetKind.NODE, iri(EX + "a")),), HasShape(T))])
        with pytest.raises(MalformedShape, match="dangling shape reference <http://example.org/T>"):
            check_shape_graph(sg)

    def test_undefined_reference_inside_body_rejected(self):
        body = Not(MinCount(1, Predicate(EX + "p"), MinCount(1, Predicate(EX + "q"), HasShape(T))))
        with pytest.raises(MalformedShape, match="dangling"):
            check_shape_graph(ShapeGraph([Shape(S, (), body)]))

    def test_duplicate_name_rejected(self):
        sg = ShapeGraph([Shape(S, (), TrueC()), Shape(S, (), Not(TrueC()))])
        with pytest.raises(MalformedShape, match="duplicate shape name <http://example.org/S>"):
            check_shape_graph(sg)

    @pytest.mark.parametrize("entry", [translate, lambda sg: evaluate(sg, Graph())],
                             ids=["translate", "evaluate"])
    @pytest.mark.parametrize("sg", [
        ShapeGraph([Shape(S, (), TrueC()), Shape(S, (), TrueC())]),
        ShapeGraph([Shape(S, (), Not(HasShape(T)))]),
    ], ids=["duplicate", "dangling"])
    def test_both_entry_points_reject_ill_formed_graphs(self, entry, sg):
        with pytest.raises(MalformedShape):
            entry(sg)

    def test_cycle_is_named_by_iris(self):
        sg = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:node ex:T .
        ex:T a sh:NodeShape ; sh:not ex:S .
        """)
        with pytest.raises(RecursiveShapeGraph) as exc:
            check_shape_graph(sg)
        assert str(exc.value) == (
            "recursive shape graph: <http://example.org/S> -> <http://example.org/T>"
            " -> <http://example.org/S>"
        )

