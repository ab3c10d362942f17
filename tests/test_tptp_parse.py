import time

import pytest

from conftest import load_graph, load_shapes
from corpus import CASES
from shacl2fol.decide import DecisionTask, TaskKind, build_problem
from shacl2fol.fol import Atom, Const
from shacl2fol.rdf import Graph, RDF_TYPE, Triple, iri, literal
from shacl2fol.tptp import Dialect, EmitOptions, StarMode, UnaMode, render
from shacl2fol.tptp_parse import TptpParseError, parse_tptp

EX = "http://example.org/"
PREFIX = """\
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
"""


class TestTokenizer:
    @pytest.mark.parametrize("text", ["", "   \n\t\n", "% a comment\n", "% one\n\n  % two"])
    def test_only_comments_or_whitespace_gives_no_units(self, text):
        assert parse_tptp(text) == []

    def test_last_unit_without_trailing_newline(self):
        units = parse_tptp("fof(a, axiom, p).\nfof(b, axiom, q).")
        assert [(u.name, u.body) for u in units] == [("a", Atom("p", ())), ("b", Atom("q", ()))]

    def test_quoted_atoms_keep_their_text(self):
        units = parse_tptp(
            "fof(a, axiom, p('50% off', 'it\\'s', 'a  b')). % p('x')\n"
        )
        assert units[0].body == Atom("p", (Const("50% off"), Const("it's"), Const("a  b")))

    @pytest.mark.parametrize("text", ["#", "fof(a, axiom, p). #", "fof(a, axiom, p(#))."])
    def test_stray_character_is_rejected(self, text):
        with pytest.raises(TptpParseError):
            parse_tptp(text)


@pytest.mark.parametrize("dialect", [Dialect.FOF, Dialect.TFF])
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_rendered_corpus_problems_round_trip(case, dialect):
    opts = EmitOptions(
        dialect=dialect,
        una_mode=UnaMode.DISTINCT if dialect is Dialect.TFF else UnaMode.PAIRWISE,
        star_mode=StarMode.GROUNDED if case.star_ground else StarMode.APPROXIMATE,
    )
    doc = build_problem(DecisionTask(
        TaskKind.VALIDATION, load_shapes(case.shapes_ttl),
        data_graph=load_graph(case.data_ttl), options=opts,
    ))
    units = parse_tptp(render(doc))
    assert [(u.name, u.role, u.body) for u in units] == [
        (f.name, f.role, f.body) for f in doc.formulas
    ]


def test_front_end_is_linear_on_a_large_graph():
    # 1500 people, each typed, named and knowing two others: 6000 triples
    n = 1500
    people = [iri(EX + f"p{i}") for i in range(n)]
    knows, person = iri(EX + "knows"), iri(EX + "Person")
    triples = []
    for i, p in enumerate(people):
        triples.append(Triple(p, iri(RDF_TYPE), person))
        triples.append(Triple(p, iri(EX + "name"), literal(f"n{i}")))
        triples.append(Triple(p, knows, people[(i + 1) % n]))
        triples.append(Triple(p, knows, people[(i + 7) % n]))
    g = Graph(triples)
    shapes = load_shapes(PREFIX + """
    ex:S a sh:NodeShape ; sh:targetClass ex:Person ;
      sh:property [ sh:path ex:name ; sh:minCount 1 ; sh:maxCount 1 ;
                    sh:nodeKind sh:Literal ] ;
      sh:property [ sh:path ex:knows ; sh:nodeKind sh:IRI ] .
    """)
    started = time.perf_counter()
    doc = build_problem(DecisionTask(TaskKind.VALIDATION, shapes, data_graph=g))
    units = parse_tptp(render(doc))
    elapsed = time.perf_counter() - started
    assert len(units) == len(doc.formulas)
    assert elapsed < 5.0, f"{len(g)} triples took {elapsed:.1f} s"
