import itertools
import random
import time

import pytest

from conftest import people_star, star_chain
from shacl2fol import cli, fol
from shacl2fol.errors import CardinalityLimitExceeded
from shacl2fol.fol import (
    AndN, Atom, Const, Distinct, Eq, Exists, Forall, Implies, NotN, OrN, TrueF,
    Var,
)
from shacl2fol.rdf import Graph, RDF_TYPE, Triple, iri, literal
from shacl2fol.shapes import (
    Alternative, Inverse, MinCount, NodeKind, NodeKindValue, Not,
    Predicate, Sequence, Shape, TargetDecl, TargetKind, TrueC, ZeroOrMore,
    ZeroOrOne,
)
from shacl2fol.tptp import (
    IS_A, Dialect, Emitter, EmitOptions, TptpDocument, TptpFormula,
    emit_graph_axioms, emit_una, render,
)
from shacl2fol.tptp_parse import parse_tptp

EX = "http://example.org/"


class TestUna:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_pairwise_count_is_n_choose_2(self, n):
        consts = [iri(EX + f"c{i}") for i in range(n)]
        axioms = emit_una(consts, EmitOptions(dialect=Dialect.FOF))
        assert len(axioms) == n * (n - 1) // 2

    def test_distinct_is_single_declaration(self):
        consts = [iri(EX + f"c{i}") for i in range(5)]
        axioms = emit_una(consts, EmitOptions())
        assert len(axioms) == 1
        assert isinstance(axioms[0].body, Distinct)
        assert len(axioms[0].body.constants) == 5

    def test_fewer_than_two_constants_needs_nothing(self):
        assert emit_una([], EmitOptions()) == []
        assert emit_una([iri(EX + "c")], EmitOptions()) == []

    def test_fof_has_no_distinct(self):
        # $distinct only exists in the typed dialect: FOF writes the pairs
        axioms = emit_una([iri(EX + "a"), iri(EX + "b")], EmitOptions(dialect=Dialect.FOF))
        assert [type(a.body) for a in axioms] == [NotN]


def _random_graph(rng) -> Graph:
    preds = [iri(EX + p) for p in ("p", "q", "r")][: rng.randint(1, 3)]
    nodes = [iri(EX + f"n{i}") for i in range(3)] + [literal("v")]
    triples = set()
    for _ in range(rng.randint(0, 10)):
        s = rng.choice(nodes[:3])
        triples.add(Triple(s, rng.choice(preds), rng.choice(nodes)))
    return Graph(frozenset(triples))


def _destructure_neg_axiom(body):
    """((role, {(subj_sym, obj_sym)}) from a completeness axiom, or
    (role, None) from an empty-relation axiom."""
    if isinstance(body, NotN):
        inner = body.operand
        assert isinstance(inner, Exists)
        assert isinstance(inner.body, Atom)
        return inner.body.pred, None
    assert isinstance(body, Forall) and len(body.variables) == 2
    impl = body.body
    assert isinstance(impl, Implies) and isinstance(impl.left, Atom)
    x, y = impl.left.args
    disjuncts = impl.right.operands if isinstance(impl.right, OrN) else (impl.right,)
    pairs = set()
    for d in disjuncts:
        assert isinstance(d, AndN) and len(d.operands) == 2
        eq_x, eq_y = d.operands
        assert isinstance(eq_x, Eq) and eq_x.left == x
        assert isinstance(eq_y, Eq) and eq_y.left == y
        pairs.add((eq_x.right.name, eq_y.right.name))
    return impl.left.pred, pairs


class TestGraphAxioms:
    """The two data-graph axiom families, checked against the graph itself."""

    def test_randomized_graphs(self):
        rng = random.Random(987)
        for _ in range(50):
            g = _random_graph(rng)
            signature = {
                "isA" if p == RDF_TYPE else p for p in g.predicate_names()
            } | {EX + "unused"}
            axioms = emit_graph_axioms(g, signature)
            pos = [a for a in axioms if a.name.startswith("graph_pos")]
            neg = [a for a in axioms if a.name.startswith("graph_neg")]

            # one ground atom per triple
            from shacl2fol.tptp import term_symbol
            want_atoms = {
                ("isA" if t.predicate.lexical == RDF_TYPE else t.predicate.lexical,
                 term_symbol(t.subject), term_symbol(t.object))
                for t in g.triples
            }
            got_atoms = {
                (a.body.pred, a.body.args[0].name, a.body.args[1].name)
                for a in pos
            }
            assert got_atoms == want_atoms

            # one completeness axiom per signature role, in both displayed forms
            seen_roles = set()
            for a in neg:
                role, pairs = _destructure_neg_axiom(a.body)
                seen_roles.add(role)
                want = {
                    (term_symbol(t.subject), term_symbol(t.object))
                    for t in g.triples
                    if ("isA" if t.predicate.lexical == RDF_TYPE else t.predicate.lexical) == role
                }
                assert pairs == (want or None)
            assert seen_roles == signature


def _eval(formula, env, relations):
    """Tiny first-order evaluator over an explicit finite structure."""
    if isinstance(formula, fol.TrueF):
        return True
    if isinstance(formula, fol.FalseF):
        return False
    if isinstance(formula, Atom):
        args = tuple(env[a.name] if isinstance(a, Var) else a.name
                     for a in formula.args)
        return args in relations.get(formula.pred, set())
    if isinstance(formula, Eq):
        left = env[formula.left.name] if isinstance(formula.left, Var) else formula.left.name
        right = env[formula.right.name] if isinstance(formula.right, Var) else formula.right.name
        return left == right
    if isinstance(formula, NotN):
        return not _eval(formula.operand, env, relations)
    if isinstance(formula, AndN):
        return all(_eval(x, env, relations) for x in formula.operands)
    if isinstance(formula, OrN):
        return any(_eval(x, env, relations) for x in formula.operands)
    if isinstance(formula, Implies):
        return (not _eval(formula.left, env, relations)) or _eval(formula.right, env, relations)
    if isinstance(formula, Exists):
        domain = relations["__domain__"]
        return any(
            _eval(formula.body, {**env, **dict(zip(formula.variables, vals))}, relations)
            for vals in itertools.product(domain, repeat=len(formula.variables))
        )
    if isinstance(formula, Forall):
        domain = relations["__domain__"]
        return all(
            _eval(formula.body, {**env, **dict(zip(formula.variables, vals))}, relations)
            for vals in itertools.product(domain, repeat=len(formula.variables))
        )
    raise TypeError(formula)


class TestCardinality:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_at_least_matches_counting_semantics(self, n):
        emitter = Emitter(EmitOptions())
        body = emitter.node_formula(MinCount(n, Predicate(EX + "p"), TrueC()), Var("X"))
        domain = [0, 1, 2, 3]
        rng = random.Random(n)
        for _ in range(30):
            edges = {
                (0, d) for d in domain if rng.random() < 0.5
            }
            relations = {"__domain__": domain, EX + "p": edges}
            want = len(edges) >= n
            assert _eval(body, {"X": 0}, relations) == want

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_max_count_matches_counting_semantics(self, n):
        body = Emitter(EmitOptions()).node_formula(
            Not(MinCount(n + 1, Predicate(EX + "p"), TrueC())), Var("X"),
        )
        domain = [0, 1, 2, 3, 4]
        for mask in range(32):
            edges = {(0, d) for d in domain if mask & (1 << d)}
            relations = {"__domain__": domain, EX + "p": edges}
            assert _eval(body, {"X": 0}, relations) == (len(edges) <= n)

    def test_limit_enforced(self):
        emitter = Emitter(EmitOptions(cardinality_limit=4))
        with pytest.raises(CardinalityLimitExceeded):
            emitter.node_formula(MinCount(5, Predicate(EX + "p"), TrueC()), Var("X"))
        with pytest.raises(CardinalityLimitExceeded):  # at most 4 means not 5
            emitter.node_formula(Not(MinCount(5, Predicate(EX + "p"), TrueC())), Var("X"))


class TestStarModes:
    def test_approximate_mode_flags_document(self):
        # without a data graph the closure axioms over-approximate
        emitter = Emitter(EmitOptions())
        emitter.path_formula(ZeroOrMore(Predicate(EX + "p")), Var("X"), Var("Y"))
        assert emitter.approximations == {"star"}

    def test_grounded_mode_stays_exact(self):
        g = Graph(frozenset({
            Triple(iri(EX + "a"), iri(EX + "p"), iri(EX + "b")),
            Triple(iri(EX + "b"), iri(EX + "p"), iri(EX + "c")),
        }))
        emitter = Emitter(EmitOptions(), data_graph=g)
        emitter.path_formula(ZeroOrMore(Predicate(EX + "p")), Var("X"), Var("Y"))
        assert not emitter.approximations
        closure = emitter.path_pairs(ZeroOrMore(Predicate(EX + "p")), g.constants())
        a, b, c = iri(EX + "a"), iri(EX + "b"), iri(EX + "c")
        assert (a, c) in closure  # two steps
        assert (a, a) in closure and (c, c) in closure  # reflexivity

    def test_grounded_pairs_match_their_definition(self):
        def reference(p, g, universe):
            # the relational definitions, joined by nested loops
            if isinstance(p, Inverse):
                return {(b, a) for a, b in reference(p.path, g, universe)}
            if isinstance(p, Predicate):
                wanted = RDF_TYPE if p.iri == IS_A else p.iri
                return {(t.subject, t.object) for t in g.triples
                        if t.predicate.lexical == wanted}
            if isinstance(p, Sequence):
                pairs = {(t, t) for t in universe}
                for m in p.members:
                    step = reference(m, g, universe)
                    pairs = {(a, c) for a, b1 in pairs for b2, c in step if b1 == b2}
                return pairs
            if isinstance(p, Alternative):
                return set().union(*(reference(m, g, universe) for m in p.members))
            if isinstance(p, ZeroOrOne):
                return {(t, t) for t in universe} | reference(p.path, g, universe)
            base = reference(p.path, g, universe)
            closure = {(t, t) for t in universe}
            while True:
                new = {(a, c) for a, b1 in closure for b2, c in base if b1 == b2} - closure
                if not new:
                    return closure
                closure |= new

        p, q = Predicate(EX + "p"), Predicate(EX + "q")
        paths = [
            Sequence((p, q)), Sequence((p, Inverse(p))), ZeroOrMore(p),
            ZeroOrMore(Sequence((p, q))), ZeroOrMore(Alternative((p, Inverse(q)))),
            Sequence((ZeroOrMore(p), ZeroOrOne(q))), ZeroOrMore(ZeroOrMore(q)),
            Sequence((p, Inverse(q), p)), Alternative((p, q, ZeroOrOne(p))),
        ]
        rng = random.Random(11)
        for _ in range(60):
            g = _random_graph(rng)
            emitter = Emitter(EmitOptions(), data_graph=g)
            for path in paths:
                universe = g.constants()
                assert emitter.path_pairs(path, universe) == reference(path, g, universe)

    def test_grounded_star_on_a_long_chain(self, tmp_path):
        """The grounded closure's text is linear in the data graph: the
        bytes per triple stay within 1.5x over chains of 1,000 to 10,000
        nodes, each its own component, and over people from 40 to 2,000,
        who are one component."""
        def bytes_per_triple(shapes_ttl, data_ttl, triples):
            shapes, data = tmp_path / "s.ttl", tmp_path / "d.ttl"
            shapes.write_text(shapes_ttl)
            data.write_text(data_ttl)
            out = tmp_path / "o.p"
            assert cli.main(["emit", "validate", str(shapes), str(data), "--out", str(out)]) == 0
            text = out.read_text()
            assert "star_1_rep_closed" in text and "star_1_fact" not in text
            return len(text.encode()) / triples

        started = time.perf_counter()
        longest = bytes_per_triple(*star_chain(10_000), 10_000)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"10,000 triples took {elapsed:.1f} s"
        chains = [bytes_per_triple(*star_chain(n), n) for n in (1_000, 2_000)] + [longest]
        people = [bytes_per_triple(*people_star(n), 4 * n) for n in (40, 200, 1_000, 2_000)]
        for ladder in (chains, people):
            assert max(ladder) <= 1.5 * min(ladder), ladder

    def test_star_roles_deduplicated(self):
        emitter = Emitter(EmitOptions())
        r1 = emitter.star_role(ZeroOrMore(Predicate(EX + "p")))
        r2 = emitter.star_role(ZeroOrMore(Predicate(EX + "p")))
        r3 = emitter.star_role(ZeroOrMore(Predicate(EX + "q")))
        assert r1 == r2 != r3


class TestRendering:
    def _document(self, dialect):
        doc = TptpDocument(dialect=dialect)
        emitter = Emitter(EmitOptions(
            dialect=dialect,
        ))
        s = Shape(iri(EX + "S"), (),
                  MinCount(2, Predicate(EX + "p"), NodeKind(NodeKindValue.IRI)))
        doc.add("shape_def", emitter.shape_formula(s))
        from shacl2fol.tptp import attach_ambient_axioms
        attach_ambient_axioms(doc, emitter)
        return doc

    @pytest.mark.parametrize("dialect", [Dialect.FOF, Dialect.TFF])
    def test_rendered_documents_parse(self, dialect):
        units = parse_tptp(render(self._document(dialect)))
        assert units and all(u.role == "axiom" for u in units)

    def test_tff_declares_every_symbol(self):
        text = render(self._document(Dialect.TFF))
        assert "tff(decl_" in text
        assert "'http://example.org/S': $i" in text
        assert "hasShape: ($i * $i) > $o" in text

    def test_fof_has_no_declarations(self):
        text = render(self._document(Dialect.FOF))
        assert "decl_" not in text
        assert text.count("fof(") > 0 and "tff(" not in text

    def test_duplicate_names_get_suffixes(self):
        doc = TptpDocument(dialect=Dialect.TFF)
        emitter = Emitter(EmitOptions())
        f = emitter.target_formula(TargetDecl(TargetKind.NODE, iri(EX + "a")), iri(EX + "S"))
        doc.add("target", f)
        doc.add("target", f)
        names = [u.name for u in doc.formulas]
        assert len(names) == len(set(names))


class TestUnitNames:
    def _names(self, doc):
        return [f.name for f in doc.formulas]

    def test_repeated_names_count_up(self):
        doc = TptpDocument(dialect=Dialect.TFF)
        for _ in range(3):
            doc.add("a", TrueF())
        assert self._names(doc) == ["a", "a_2", "a_3"]

    def test_explicit_suffix_is_skipped(self):
        doc = TptpDocument(dialect=Dialect.TFF)
        doc.add("b", TrueF())
        doc.add("b_2", TrueF())
        doc.add("b", TrueF())
        assert self._names(doc) == ["b", "b_2", "b_3"]

    def test_names_given_at_construction_are_taken(self):
        doc = TptpDocument(dialect=Dialect.TFF,
                           formulas=[TptpFormula("c", "axiom", TrueF())])
        doc.add("c", TrueF())
        assert self._names(doc) == ["c", "c_2"]

    def test_extend_names_like_add(self):
        names = ["a", "b", "a", "a_2", "b_2", "a", "b", "c"]
        one_by_one = TptpDocument(dialect=Dialect.TFF)
        for name in names:
            one_by_one.add(name, TrueF())
        extended = TptpDocument(dialect=Dialect.TFF)
        extended.extend(TptpFormula(name, "axiom", TrueF()) for name in names)
        assert self._names(extended) == self._names(one_by_one) == [
            "a", "b", "a_2", "a_2_2", "b_2", "a_3", "b_3", "c",
        ]
