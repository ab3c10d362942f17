import sys
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import load_graph, load_shapes, node_chain
from corpus import CASES
from shacl2fol import oracle
from shacl2fol.errors import RecursiveShapeGraph
from shacl2fol.oracle import evaluate, path_eval
from shacl2fol.rdf import RDF_TYPE, Graph, Triple, iri, literal
from shacl2fol.shapes import (
    Alternative, And, Closed, DisjointProp, EqConst, EqualsProp, HasShape,
    Inverse, MinCount, NodeKind, NodeKindValue, Not, OrderProp, Predicate,
    Sequence, ShapeGraph, TrueC, ZeroOrMore, ZeroOrOne,
)

PREFIX = """\
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
"""

EX = "http://example.org/"
R = EX + "r"
a, b, c = iri(EX + "a"), iri(EX + "b"), iri(EX + "c")


class TestPathEval:
    G = Graph(frozenset({
        Triple(a, iri(R), b),
        Triple(c, iri(R), b),
    }))

    def test_role(self):
        assert path_eval(Predicate(R), self.G, a) == {b}

    def test_inverse(self):
        assert path_eval(Inverse(Predicate(R)), self.G, b) == {a, c}

    def test_sequence_with_inverse(self):
        # r then r-inverse from a reaches every subject pointing at b
        path = Sequence((Predicate(R), Inverse(Predicate(R))))
        assert path_eval(path, self.G, a) == {a, c}

    def test_alternative(self):
        g = Graph(frozenset({
            Triple(a, iri(EX + "p"), b),
            Triple(a, iri(EX + "q"), c),
        }))
        path = Alternative((Predicate(EX + "p"), Predicate(EX + "q")))
        assert path_eval(path, g, a) == {b, c}

    def test_star_includes_start(self):
        assert path_eval(ZeroOrMore(Predicate(R)), self.G, a) == {a, b}

    def test_star_chain(self):
        g = Graph(frozenset({
            Triple(a, iri(R), b),
            Triple(b, iri(R), c),
        }))
        assert path_eval(ZeroOrMore(Predicate(R)), g, a) == {a, b, c}

    def test_star_on_cycle_terminates(self):
        g = Graph(frozenset({
            Triple(a, iri(R), b),
            Triple(b, iri(R), a),
        }))
        assert path_eval(ZeroOrMore(Predicate(R)), g, a) == {a, b}

    @settings(max_examples=50)
    @given(st.sets(
        st.tuples(st.sampled_from("abc"), st.sampled_from("abc")), max_size=6,
    ))
    def test_zero_or_one_is_identity_union_step(self, edges):
        g = Graph(frozenset(
            Triple(iri(EX + s), iri(R), iri(EX + o)) for s, o in edges
        ))
        start = iri(EX + "a")
        assert path_eval(ZeroOrOne(Predicate(R)), g, start) == (
            {start} | path_eval(Predicate(R), g, start)
        )

    @settings(max_examples=50)
    @given(st.sets(
        st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")), max_size=8,
    ))
    def test_star_is_least_fixpoint(self, edges):
        g = Graph(frozenset(
            Triple(iri(EX + s), iri(R), iri(EX + o)) for s, o in edges
        ))
        start = iri(EX + "a")
        # reference closure computed by naive iteration to a fixpoint
        reach = {start}
        while True:
            new = reach | {
                y for x in reach for y in path_eval(Predicate(R), g, x)
            }
            if new == reach:
                break
            reach = new
        assert path_eval(ZeroOrMore(Predicate(R)), g, start) == reach


P, Q = Predicate(EX + "p"), Predicate(EX + "q")


class TestInversePath:
    """Inverse paths step backward; they must agree with the definition
    by forward steps: x is reached from `node` along ^path iff `node` is
    reached from x along path."""

    @pytest.mark.parametrize("inner", [
        Sequence((P, Q)),
        Sequence((Inverse(P), ZeroOrOne(Q))),
        Alternative((P, Inverse(Q))),
        ZeroOrMore(P),
        ZeroOrMore(Sequence((P, Inverse(Q)))),
        Sequence((Alternative((P, Q)), ZeroOrMore(Alternative((P, Q))))),
        Inverse(P),
        Inverse(Sequence((P, ZeroOrMore(Q)))),
        Sequence((P, Inverse(Q), P)),
        Alternative((P, Q, ZeroOrOne(P))),
    ], ids=["p/q", "^p/q?", "p|^q", "p*", "(p/^q)*", "(p|q)+", "^p", "^(p/q*)",
            "p/^q/p", "p|q|p?"])
    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.sets(st.tuples(
            st.sampled_from("abcd"), st.sampled_from("pq"), st.sampled_from("abcd"),
        ), min_size=1, max_size=10),
        start=st.sampled_from("abcd"),
    )
    def test_matches_definition(self, inner, edges, start):
        g = Graph(Triple(iri(EX + s), iri(EX + p), iri(EX + o)) for s, p, o in edges)
        node = iri(EX + start)
        assume(node in g.constants())
        definition = {x for x in g.constants() if node in path_eval(inner, g, x)}
        assert path_eval(Inverse(inner), g, node) == definition

    def test_zero_length_reaches_a_node_outside_the_graph(self):
        # the focus node of sh:targetNode need not occur in the data; a
        # zero-length step still reaches it, as the translated problem says
        shapes = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ; sh:targetNode ex:n ;
          sh:property [ sh:path [ sh:inversePath [ sh:zeroOrOnePath ex:p ] ] ;
                        sh:minCount 1 ] .
        """)
        data = load_graph(PREFIX + "ex:a ex:p ex:b .")
        assert path_eval(Inverse(ZeroOrOne(P)), data, iri(EX + "n")) == {iri(EX + "n")}
        assert evaluate(shapes, data).conforms

    def test_large_graph_validates_quickly(self):
        # 375 people known by two others each, plus one extra acquaintance
        # of p0: 1501 triples
        people = [iri(EX + f"p{i}") for i in range(375)]
        knows, person = iri(EX + "knows"), iri(EX + "Person")
        triples = [Triple(iri(EX + "x"), knows, people[0])]
        for i, p in enumerate(people):
            triples.append(Triple(p, iri(RDF_TYPE), person))
            triples.append(Triple(p, iri(EX + "name"), literal(f"n{i}")))
            triples.append(Triple(p, knows, people[(i + 1) % len(people)]))
            triples.append(Triple(p, knows, people[(i + 7) % len(people)]))
        shapes = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ; sh:targetClass ex:Person ;
          sh:property [ sh:path [ sh:inversePath ex:knows ] ; sh:maxCount 2 ] .
        """)
        g = Graph(triples)
        started = time.perf_counter()
        report = evaluate(shapes, g)
        elapsed = time.perf_counter() - started
        assert [v.focus_node for v in report.violations] == [people[0]]
        assert elapsed < 5.0, f"{len(g)} triples took {elapsed:.1f} s"


class TestValidation:
    def test_empty_shape_graph_conforms(self):
        report = evaluate(
            load_shapes(PREFIX),
            load_graph(PREFIX + "ex:a ex:p ex:b ."),
        )
        assert report.conforms and not report.violations

    def test_class_target(self):
        shapes = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ; sh:targetClass ex:C ;
          sh:property [ sh:path ex:p ; sh:minCount 1 ] .
        """)
        ok = load_graph(PREFIX + "ex:a a ex:C ; ex:p ex:b .")
        bad = load_graph(PREFIX + "ex:a a ex:C . ex:other ex:p ex:b .")
        assert evaluate(shapes, ok).conforms
        report = evaluate(shapes, bad)
        assert not report.conforms
        assert [
            (v.shape_name, v.focus_node) for v in report.violations
        ] == [(iri(EX + "S"), iri(EX + "a"))]

    def test_untargeted_shapes_never_violate(self):
        shapes = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ;
          sh:property [ sh:path ex:p ; sh:minCount 5 ] .
        """)
        assert evaluate(shapes, load_graph(PREFIX + "ex:a ex:q ex:b .")).conforms

    def test_violations_are_deduplicated_and_reported_per_focus(self):
        shapes = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ; sh:targetSubjectsOf ex:p ;
          sh:nodeKind sh:Literal .
        """)
        data = load_graph(PREFIX + "ex:a ex:p ex:b . ex:c ex:p ex:d .")
        report = evaluate(shapes, data)
        focuses = {v.focus_node for v in report.violations}
        assert focuses == {iri(EX + "a"), iri(EX + "c")}

    def test_target_removal_is_monotone(self):
        # dropping a target declaration can only remove violations
        full = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:targetNode ex:b ;
          sh:property [ sh:path ex:p ; sh:minCount 1 ] .
        """)
        fewer = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ; sh:targetNode ex:a ;
          sh:property [ sh:path ex:p ; sh:minCount 1 ] .
        """)
        data = load_graph(PREFIX + "ex:c ex:q ex:d .")
        v_full = {(v.shape_name, v.focus_node)
                  for v in evaluate(full, data).violations}
        v_fewer = {(v.shape_name, v.focus_node)
                   for v in evaluate(fewer, data).violations}
        assert v_fewer <= v_full

    def test_recursion_rejected(self):
        shapes = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:node ex:S .
        """)
        with pytest.raises(RecursiveShapeGraph):
            evaluate(shapes, load_graph(PREFIX + "ex:a ex:p ex:b ."))


class TestShapeReferences:
    @pytest.fixture
    def started(self, monkeypatch):
        """The names of the shapes whose evaluation began, one per pair."""
        names = []
        start = oracle._Evaluator.start

        def spy(ev, name, node):
            names.append(name)
            return start(ev, name, node)

        monkeypatch.setattr(oracle._Evaluator, "start", spy)
        return names

    def test_value_lift_stops_at_the_first_failing_value(self, started):
        shapes = load_shapes(PREFIX + """
        ex:S sh:targetNode ex:a ; sh:property [ sh:path ex:p ; sh:node ex:T ] .
        ex:T sh:nodeKind sh:Literal .
        """)
        data = load_graph(PREFIX + "".join(f"ex:a ex:p ex:v{i} .\n" for i in range(10)))
        assert not evaluate(shapes, data).conforms
        assert started.count(iri(EX + "T")) == 1

    def test_or_stops_at_the_first_member_that_holds(self, started):
        shapes = load_shapes(PREFIX + """
        ex:S sh:targetNode ex:a ; sh:or ( ex:T1 ex:T2 ex:T3 ) .
        ex:T1 sh:nodeKind sh:IRI . ex:T2 sh:nodeKind sh:IRI . ex:T3 sh:nodeKind sh:IRI .
        """)
        assert evaluate(shapes, load_graph(PREFIX + "ex:a ex:p ex:b .")).conforms
        assert len(started) == 2

    @pytest.mark.parametrize("last, conforms", [
        ("sh:nodeKind sh:IRI", True), ("sh:nodeKind sh:Literal", False),
    ])
    def test_chain_past_the_recursion_depth(self, last, conforms):
        # no Python frame per reference: 3,000 nested references pass the
        # interpreter's default limit of 1,000 frames
        assert 3_000 > sys.getrecursionlimit()
        shapes, data = node_chain(3_000, last)
        report = evaluate(load_shapes(shapes), load_graph(data))
        assert report.conforms == conforms
        assert [(v.shape_name, v.focus_node) for v in report.violations] == (
            [] if conforms else [(iri(EX + "S0"), iri(EX + "n0"))]
        )

    @pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
    def test_work_list_gives_the_recursive_report(self, case):
        shapes, data = load_shapes(case.shapes_ttl), load_graph(case.data_ttl)
        assert evaluate(shapes, data) == recursive_report(shapes, data)

    def test_each_pair_starts_once_in_a_fan_out_of_deep_chains(self, started):
        # 500 values of ex:root, each the head of its own chain of 60 nested
        # references: every (shape, node) pair is evaluated once
        values, depth = 500, 60
        shapes = "".join(
            f"ex:S{i} sh:property [ sh:path ex:next ; sh:minCount 1 ; sh:node ex:S{i + 1} ] .\n"
            for i in range(1, depth)
        )
        data = "".join(
            f"ex:v{j}_{i} ex:next ex:v{j}_{i + 1} .\n" for j in range(values) for i in range(depth)
        )
        data += "".join(f"ex:root ex:value ex:v{j}_0 .\n" for j in range(values))
        report = evaluate(load_shapes(PREFIX + shapes + f"""
        ex:S0 sh:targetNode ex:root ; sh:property [ sh:path ex:value ; sh:node ex:S1 ] .
        ex:S{depth} sh:nodeKind sh:IRI .
        """), load_graph(PREFIX + data))
        assert report.conforms
        # ex:S<i> holds on the i-th node of every chain, so each of these
        # pairs must be evaluated at least once
        assert Counter(started) == {
            iri(EX + "S0"): 1, **{iri(EX + f"S{i}"): values for i in range(1, depth + 1)},
        }


def recursive_report(sg: ShapeGraph, g: Graph) -> oracle.ValidationReport:
    """The oracle's report by plain recursion, one Python frame per
    reference: the reference for the evaluator's stack."""
    memo = {}
    by_name = {s.name: s for s in sg.shapes}

    def holds(c, node):
        if isinstance(c, TrueC):
            return True
        if isinstance(c, Not):
            return not holds(c.operand, node)
        if isinstance(c, And):
            return all(holds(op, node) for op in c.operands)
        if isinstance(c, EqConst):
            return node == c.term
        if isinstance(c, NodeKind):
            return {NodeKindValue.IRI: node.is_iri, NodeKindValue.LITERAL: node.is_literal,
                    NodeKindValue.BLANK: node.is_blank}[c.kind]
        if isinstance(c, HasShape):
            if (c.shape_name, node) not in memo:
                memo[c.shape_name, node] = holds(by_name[c.shape_name].constraint, node)
            return memo[c.shape_name, node]
        if isinstance(c, MinCount):
            return sum(holds(c.constraint, v) for v in path_eval(c.path, g, node)) >= c.n
        if isinstance(c, EqualsProp):
            return path_eval(c.path, g, node) == set(g.objects(node, c.predicate))
        if isinstance(c, DisjointProp):
            return not (path_eval(c.path, g, node) & set(g.objects(node, c.predicate)))
        if isinstance(c, OrderProp):
            return all(
                oracle._order_holds(*((w, v) if c.inverted else (v, w)), c.op) is True
                for v in path_eval(c.path, g, node) for w in g.objects(node, c.predicate)
            )
        if isinstance(c, Closed):
            return all(t.predicate.lexical == RDF_TYPE
                       or t.predicate.lexical in c.allowed_predicates for t in g.about(node))
        raise TypeError(f"not a constraint: {c!r}")

    violations = [
        oracle.Violation(shape.name, node)
        for shape in sg.shapes for target in shape.targets
        for node in sorted(oracle.target_nodes(target, g))
        if not holds(shape.constraint, node)
    ]
    return oracle.ValidationReport(not violations, list(dict.fromkeys(violations)))


class TestOrderConstraints:
    SHAPES = PREFIX + """
    ex:S a sh:NodeShape ; sh:targetNode ex:a ;
      sh:property [ sh:path ex:p ; sh:lessThan ex:q ] .
    """

    def test_numeric_order(self):
        ok = load_graph(PREFIX + "ex:a ex:p 1 ; ex:q 2 .")
        bad = load_graph(PREFIX + "ex:a ex:p 3 ; ex:q 2 .")
        assert evaluate(load_shapes(self.SHAPES), ok).conforms
        assert not evaluate(load_shapes(self.SHAPES), bad).conforms

    def test_string_order(self):
        ok = load_graph(PREFIX + 'ex:a ex:p "apple" ; ex:q "banana" .')
        bad = load_graph(PREFIX + 'ex:a ex:p "banana" ; ex:q "apple" .')
        assert evaluate(load_shapes(self.SHAPES), ok).conforms
        assert not evaluate(load_shapes(self.SHAPES), bad).conforms

    def test_incomparable_pair_violates(self):
        mixed = load_graph(PREFIX + 'ex:a ex:p 1 ; ex:q "apple" .')
        assert not evaluate(load_shapes(self.SHAPES), mixed).conforms

    def test_less_than_or_equals_allows_ties(self):
        shapes = load_shapes(PREFIX + """
        ex:S a sh:NodeShape ; sh:targetNode ex:a ;
          sh:property [ sh:path ex:p ; sh:lessThanOrEquals ex:q ] .
        """)
        tie = load_graph(PREFIX + "ex:a ex:p 2 ; ex:q 2 .")
        assert evaluate(shapes, tie).conforms
