import codecs
from enum import Enum
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from shacl2fol import rdf
from shacl2fol.errors import RdfSyntaxError, UnsupportedFeature
from shacl2fol.rdf import (
    Graph, RDF_NS, RdfTerm, TermKind, Triple, bnode, iri, literal,
    parse_document, parse_file, serialize_ntriples,
)

XSD = "http://www.w3.org/2001/XMLSchema#"


class Syntax(Enum):
    """The file suffix a document of each syntax is stored under; the one
    reader must not care which."""
    NTRIPLES = ".nt"
    TURTLE = ".ttl"


def read_as(text: str, syntax: Syntax, tmp_path) -> Graph:
    path = tmp_path / f"doc{syntax.value}"
    path.write_text(text, encoding="utf-8")
    return parse_file(path)


class TestNTriples:
    """N-Triples documents, which the one Turtle parser reads."""

    def test_basic_triple(self):
        g = parse_document("<http://e/a> <http://e/p> <http://e/b> .")
        assert len(g) == 1
        t = next(iter(g))
        assert t.subject == iri("http://e/a")
        assert t.predicate == iri("http://e/p")
        assert t.object == iri("http://e/b")

    def test_literals(self):
        g = parse_document(
            '<http://e/a> <http://e/p> "plain" .\n'
            '<http://e/a> <http://e/p> "tagged"@en .\n'
            f'<http://e/a> <http://e/p> "5"^^<{XSD}integer> .'
        )
        objs = {t.object for t in g}
        assert literal("plain") in objs
        assert literal("tagged", lang="en") in objs
        assert literal("5", datatype=XSD + "integer") in objs

    def test_blank_nodes_renamed_consistently(self):
        g = parse_document("_:x <http://e/p> _:y .\n_:y <http://e/p> _:x .")
        subjects = {t.subject for t in g}
        objects = {t.object for t in g}
        assert all(s.kind is TermKind.BLANK for s in subjects)
        assert subjects == objects  # the two labels map to the same two nodes

    def test_comments_and_blank_lines(self):
        g = parse_document("# leading comment\n\n<http://e/a> <http://e/p> <http://e/b> .\n")
        assert len(g) == 1

    def test_syntax_error_carries_line(self):
        with pytest.raises(RdfSyntaxError) as err:
            parse_document("<http://e/a> <http://e/p> .")
        assert err.value.line == 1

    @pytest.mark.parametrize("line, column", [
        ('<http://e/a> <http://e/p> "x\\uZZZZ" .', 29),
        ('_:b <http://e/p> "ab\\q"@en .', 21),
    ])
    def test_escape_error_carries_its_column(self, line, column):
        with pytest.raises(RdfSyntaxError) as err:
            parse_document(line)
        assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize("syntax", [Syntax.NTRIPLES, Syntax.TURTLE])
    def test_iri_escapes_are_decoded(self, syntax, tmp_path):
        g = read_as(
            "<http://e/\\u0041> <http://e/p> <http://e/\\U0001F600> .", syntax, tmp_path
        )
        t = next(iter(g))
        assert t.subject == iri("http://e/A")
        assert t.object == iri("http://e/\U0001F600")

    @pytest.mark.parametrize("syntax", [Syntax.NTRIPLES, Syntax.TURTLE])
    @pytest.mark.parametrize("escape", ["\\u0020", "\\u003C", "\\u005C", "\\U0000007B"])
    def test_iri_escape_of_an_excluded_character_is_an_error(self, syntax, escape, tmp_path):
        with pytest.raises(RdfSyntaxError) as err:
            read_as(f"<http://e/a> <http://e/p> <http://e/{escape}b> .", syntax, tmp_path)
        assert (err.value.line, err.value.column) == (1, 37)
        assert f"bad escape {escape}" in str(err.value)

    @pytest.mark.parametrize("syntax", [Syntax.NTRIPLES, Syntax.TURTLE])
    def test_each_iri_and_blank_node_is_built_once(self, syntax, tmp_path):
        g = read_as(
            "<http://e/a> <http://e/p> _:x .\n_:x <http://e/p> <http://e/a> .", syntax, tmp_path
        )
        (first, second) = sorted(g, key=lambda t: t.subject.is_blank)
        assert first.subject is second.object
        assert first.predicate is second.predicate
        assert first.object is second.subject

    @pytest.mark.parametrize("line, column, syntaxes", [
        ('<http://e/a> <http://e/p> "x\\uZZZZ" .', 29, (Syntax.NTRIPLES, Syntax.TURTLE)),
        ('_:b <http://e/p> "ab\\q"@en .', 21, (Syntax.NTRIPLES, Syntax.TURTLE)),
        # past the three quotes of a long string, which a `.nt` file is read with too
        ('<http://e/a> <http://e/p> """x\\uZZZZ""" .', 31, (Syntax.NTRIPLES, Syntax.TURTLE)),
    ])
    def test_escape_error_column_is_the_same_in_turtle(self, line, column, syntaxes, tmp_path):
        for syntax in syntaxes:
            with pytest.raises(RdfSyntaxError) as err:
                read_as(line, syntax, tmp_path)
            assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize("syntax", [Syntax.NTRIPLES, Syntax.TURTLE])
    def test_a_byte_order_mark_is_read_past(self, syntax, tmp_path):
        text = '<http://e/a> <http://e/p> "x" .\n<http://e/a> <http://e/q> <http://e/b> .\n'
        marked = tmp_path / f"marked{syntax.value}"
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert parse_file(marked) == read_as(text, syntax, tmp_path)
        assert len(parse_file(marked)) == 2

    def test_a_bad_byte_after_a_byte_order_mark_is_named_at_its_offset(self, tmp_path):
        # the mark's three bytes count: the bad byte is the file's sixth
        marked = tmp_path / "marked.ttl"
        marked.write_bytes(codecs.BOM_UTF8 + b"<a\xff")
        with pytest.raises(RdfSyntaxError, match="not UTF-8: invalid start byte at byte 5$"):
            parse_file(marked)

    def test_terms_need_no_whitespace_between_them(self):
        # valid N-Triples: the grammar asks for no whitespace between terms
        g = parse_document("<http://e/a><http://e/p><http://e/o>.")
        assert g == Graph([Triple(iri("http://e/a"), iri("http://e/p"), iri("http://e/o"))])

    def test_blank_node_label_may_not_end_in_a_dot(self):
        # a label may not end in `.`: this is the label `_:a` and a `.`,
        # which cannot stand where the predicate goes
        with pytest.raises(RdfSyntaxError) as err:
            parse_document("_:a. <http://e/p> <http://e/o> .")
        assert (err.value.line, err.value.column) == (1, 4)

    def test_two_triples_on_one_line_are_read_as_turtle_reads_them(self):
        g = parse_document(
            "<http://e/a> <http://e/p> <http://e/b> . <http://e/b> <http://e/p> <http://e/a> ."
        )
        assert len(g) == 2

    def test_nt_and_ttl_files_read_to_the_same_graph(self, tmp_path):
        text = (
            '<http://e/a> <http://e/p> "x\\u0041"@en .\n'
            "_:b <http://e/p> <http://e/\\u0041> .\n"
            f'_:b <http://e/q> "5"^^<{XSD}integer> .\n'
        )
        (tmp_path / "g.nt").write_text(text)
        (tmp_path / "g.ttl").write_text(text)
        g = parse_file(tmp_path / "g.nt")
        assert len(g) == 3
        assert g == parse_file(tmp_path / "g.ttl")


class TestTurtle:
    def test_prefixes_and_a(self):
        g = parse_document("@prefix ex: <http://e/> .\nex:a a ex:C .")
        t = next(iter(g))
        assert t.predicate == iri(RDF_NS + "type")
        assert t.object == iri("http://e/C")

    def test_semicolon_and_comma(self):
        g = parse_document('@prefix ex: <http://e/> .\nex:a ex:p ex:b, ex:c ; ex:q "v" .')
        assert len(g) == 3

    def test_numbers_and_booleans(self):
        g = parse_document("@prefix ex: <http://e/> .\nex:a ex:n 42 ; ex:d 3.5 ; ex:b true .")
        objs = {t.object for t in g}
        assert literal("42", datatype=XSD + "integer") in objs
        assert literal("3.5", datatype=XSD + "decimal") in objs
        assert literal("true", datatype=XSD + "boolean") in objs

    def test_bnode_property_list(self):
        g = parse_document('@prefix ex: <http://e/> .\nex:a ex:p [ ex:q "v" ] .')
        assert len(g) == 2
        inner = [t for t in g if t.predicate == iri("http://e/q")]
        assert inner and inner[0].subject.kind is TermKind.BLANK

    def test_blank_node_label_ends_before_the_final_dot(self):
        g = parse_document("<http://e/a> <http://e/p> _:b1.\n_:a.b <http://e/p> _:b1 .")
        assert len(g) == 2
        objects = {t.object for t in g}
        subjects = {t.subject for t in g}
        assert len(objects) == 1 and next(iter(objects)).kind is TermKind.BLANK
        assert iri("http://e/a") in subjects and len(subjects) == 2
        assert not subjects & objects  # _:a.b is one label, apart from _:b1

    def test_collection(self):
        g = parse_document("@prefix ex: <http://e/> .\nex:a ex:p ( ex:x ex:y ) .")
        head = next(t.object for t in g if t.predicate == iri("http://e/p"))
        assert g.walk_list(head) == [iri("http://e/x"), iri("http://e/y")]

    @pytest.mark.parametrize("base, ref, resolved", [
        ("http://e/root/", "child", "http://e/root/child"),
        # the normal examples of RFC 3986 §5.4.1
        *(("http://a/b/c/d;p?q", ref, resolved) for ref, resolved in [
            ("g:h", "g:h"), ("g", "http://a/b/c/g"), ("./g", "http://a/b/c/g"),
            ("g/", "http://a/b/c/g/"), ("/g", "http://a/g"), ("//g", "http://g"),
            ("?y", "http://a/b/c/d;p?y"), ("g?y", "http://a/b/c/g?y"),
            ("#s", "http://a/b/c/d;p?q#s"), ("g#s", "http://a/b/c/g#s"),
            ("g?y#s", "http://a/b/c/g?y#s"), (";x", "http://a/b/c/;x"),
            ("g;x", "http://a/b/c/g;x"), ("g;x?y#s", "http://a/b/c/g;x?y#s"),
            ("", "http://a/b/c/d;p?q"), (".", "http://a/b/c/"), ("./", "http://a/b/c/"),
            ("..", "http://a/b/"), ("../", "http://a/b/"), ("../g", "http://a/b/g"),
            ("../..", "http://a/"), ("../../", "http://a/"), ("../../g", "http://a/g"),
        ]),
        ("http://e/a/b", "/x", "http://e/x"),
        ("http://e/a/b", "../c", "http://e/c"),
        ("http://e", "x", "http://e/x"),
        # a base with no authority: the path is merged all the same
        ("urn:ex:a/b", "c", "urn:ex:a/c"),
    ])
    def test_base_resolution(self, base, ref, resolved):
        g = parse_document(f"@base <{base}> .\n<http://e/s> <http://e/p> <{ref}> .")
        assert next(iter(g)).object == iri(resolved)

    def test_long_string(self):
        g = parse_document('@prefix ex: <http://e/> .\nex:a ex:p """line1\nline2""" .')
        assert next(iter(g)).object == literal("line1\nline2")

    def test_escapes(self):
        g = parse_document('@prefix ex: <http://e/> .\nex:a ex:p "tab\\there" .')
        assert next(iter(g)).object == literal("tab\there")

    @pytest.mark.parametrize("text, message, line, column", [
        # a parser error and a tokenizer error on line 3 or later
        ("@prefix ex: <http://e/> .\nex:a ex:p ex:b .\nex:c ex:p ex:d ex:e .\n",
         "expected ., found 'ex:e'", 3, 16),
        ("@prefix ex: <http://e/> .\nex:a ex:p ex:b .\nex:c ex:p ex:d ;\n  ex:q ? .\n",
         "unexpected character '?'", 4, 8),
        # after a long string over three lines
        ('@prefix ex: <http://e/> .\nex:a ex:p """one\ntwo\nthree""" ; ex:q ) .',
         "unexpected token ')'", 4, 17),
        # after comment lines and a trailing comment
        ("# a comment\n@prefix ex: <http://e/> . # trailing\n# another\n"
         "ex:a ex:p 'x' 'y' .", "expected ., found \"'y'\"", 4, 15),
        # at the end of the input, with and without a final newline
        ("@prefix ex: <http://e/> .\nex:a ex:p ex:b", "expected ., found ''", 2, 15),
        ("@prefix ex: <http://e/> .\nex:a ex:p\n", "unexpected token ''", 3, 1),
        ("@prefix ex: <http://e/> .\nex:a ex:p [ ex:q ex:b .\n",
         "expected ], found '.'", 2, 23),
        # a bad escape on the second line of a long string, where it stands
        ('@prefix ex: <http://e/> .\nex:a ex:p """ab\ncd\\q""" .\n',
         "bad escape \\q", 3, 3),
    ])
    def test_error_position(self, text, message, line, column):
        with pytest.raises(RdfSyntaxError) as err:
            parse_document(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"{message} (line {line}, column {column})"

    def test_prefix_redefined_partway(self):
        g = parse_document(
            "@prefix ex: <http://e/> .\nex:x ex:p ex:y .\n"
            "@prefix ex: <http://f/> .\nex:x ex:p ex:y .",
        )
        assert g == Graph([
            Triple(iri("http://e/x"), iri("http://e/p"), iri("http://e/y")),
            Triple(iri("http://f/x"), iri("http://f/p"), iri("http://f/y")),
        ])

    def test_base_changed_between_relative_iris(self):
        g = parse_document(
            "@base <http://e/a/> .\n<x> <p> <y> .\n@base <http://e/b/> .\n<x> <p> <y> ."
        )
        assert g == Graph([
            Triple(iri("http://e/a/x"), iri("http://e/a/p"), iri("http://e/a/y")),
            Triple(iri("http://e/b/x"), iri("http://e/b/p"), iri("http://e/b/y")),
        ])

    def test_graph_braces_unsupported(self):
        with pytest.raises(UnsupportedFeature):
            parse_document("{ <http://e/a> <http://e/p> <http://e/b> . }")


class TestDeepNesting:
    """Open `[` and `(` are kept on the parser's stack, not Python's."""

    def test_nested_blank_node_property_lists(self):
        depth = 10_000
        g = parse_document(
            "@prefix ex: <http://e/> .\nex:a ex:p "
            + "[ ex:p " * depth + "ex:b" + " ]" * depth + " .",
        )
        assert len(g) == depth + 1

    def test_nested_collections(self):
        depth = 10_000
        g = parse_document(
            "@prefix ex: <http://e/> .\nex:a ex:p "
            + "( " * depth + "ex:b" + " )" * depth + " .",
        )
        assert len(g) == 2 * depth + 1

    def test_long_collection(self):
        n = 20_000
        g = parse_document(
            "@prefix ex: <http://e/> .\nex:a ex:p ( "
            + " ".join(f"ex:i{k}" for k in range(n)) + " ) .",
        )
        assert len(g) == 2 * n + 1
        head = g.object(iri("http://e/a"), "http://e/p")
        assert g.walk_list(head) == [iri(f"http://e/i{k}") for k in range(n)]


class TestModel:
    def test_predicate_must_be_iri(self):
        with pytest.raises(ValueError):
            Triple(iri("http://e/a"), literal("p"), iri("http://e/b"))

    def test_subject_must_not_be_literal(self):
        with pytest.raises(ValueError):
            Triple(literal("s"), iri("http://e/p"), iri("http://e/b"))

    @pytest.mark.parametrize("built, again", [
        (iri("http://e/a"), lambda: RdfTerm(TermKind.IRI, "http://e/a")),
        (literal("v"), lambda: RdfTerm(TermKind.LITERAL, "v", XSD + "string")),
        (literal("v", lang="en"), lambda: RdfTerm(TermKind.LITERAL, "v", None, "en")),
        (bnode("b1"), lambda: RdfTerm(TermKind.BLANK, "b1")),
    ])
    def test_equal_terms_hash_equal(self, built, again):
        other = again()
        assert built == other and hash(built) == hash(other)
        assert {built: 1}[other] == 1

    def test_repr_shows_only_the_fields(self):
        assert repr(literal("v", lang="en")) == (
            "RdfTerm(kind=<TermKind.LITERAL: 'literal'>, lexical='v', "
            "datatype=None, lang='en')"
        )

    def test_objects_sorted(self):
        g = parse_document('@prefix ex: <http://e/> .\nex:a ex:p "b", "a" .')
        assert g.objects(iri("http://e/a"), "http://e/p") == [
            literal("a"), literal("b"),
        ]


_SAFE = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=8,
)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    triples = []
    for _ in range(n):
        s = iri("http://e/" + draw(_SAFE))
        p = iri("http://e/" + draw(_SAFE))
        o = draw(st.one_of(
            st.builds(lambda x: iri("http://e/" + x), _SAFE),
            st.builds(literal, st.text(max_size=10)),
            st.builds(lambda x: literal(x, lang="en"), _SAFE),
        ))
        triples.append(Triple(s, p, o))
    return Graph(frozenset(triples))


class TestRoundTrip:
    @pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @given(graphs())
    def test_serialize_then_parse_is_identity(self, line_end, g):
        # N-Triples allows CRLF line ends; the serialization escapes every
        # line end inside a literal, so each raw one ends a line
        text = serialize_ntriples(g)
        again = parse_document(text.replace("\n", line_end))
        assert again == g
        assert serialize_ntriples(again) == text

    @given(graphs())
    def test_serialization_is_canonical(self, g):
        # the same triples, given in the reverse order, give the same bytes
        reverse = Graph(list(g.triples)[::-1])
        assert serialize_ntriples(reverse).encode("utf-8") == serialize_ntriples(g).encode("utf-8")


_POOL_NODES = [iri("http://e/a"), iri("http://e/b"), bnode("x")]
_POOL_OBJECTS = _POOL_NODES + [literal("v"), literal("v", lang="en")]
_POOL_PREDICATES = ["http://e/p", "http://e/q", rdf.RDF_TYPE]


@st.composite
def small_graphs(draw):
    """Graphs over a few terms, so that lookups share subjects and objects."""
    triples = draw(st.sets(st.builds(
        Triple,
        st.sampled_from(_POOL_NODES),
        st.builds(iri, st.sampled_from(_POOL_PREDICATES)),
        st.sampled_from(_POOL_OBJECTS),
    ), max_size=12))
    return Graph(triples)


class TestIndexedAccessors:
    """Every accessor agrees with a brute-force scan over `g.triples`."""

    @given(small_graphs(), st.sampled_from(_POOL_OBJECTS),
           st.sampled_from(_POOL_PREDICATES + ["http://e/absent"]))
    def test_accessors_match_scan(self, g, term, pred):
        scan = g.triples
        assert set(g.about(term)) == {t for t in scan if t.subject == term}
        assert set(g.into(term)) == {t for t in scan if t.object == term}
        assert set(g.with_predicate(pred)) == {
            t for t in scan if t.predicate.lexical == pred
        }
        assert g.predicate_names() == {t.predicate.lexical for t in scan}
        assert g.constants() == (
            {t.subject for t in scan} | {t.object for t in scan}
        )
        objs = sorted(
            t.object for t in scan
            if t.subject == term and t.predicate.lexical == pred
        )
        assert g.objects(term, pred) == objs
        assert g.object(term, pred) == (objs[0] if objs else None)
        assert g.subjects(pred, term) == sorted(
            t.subject for t in scan
            if t.object == term and t.predicate.lexical == pred
        )
        assert g.subjects_of(pred) == {
            t.subject for t in scan if t.predicate.lexical == pred
        }

    @given(small_graphs())
    def test_every_triple_is_indexed_once(self, g):
        by_subject = [t for s in {t.subject for t in g} for t in g.about(s)]
        by_object = [t for o in {t.object for t in g} for t in g.into(o)]
        by_predicate = [t for p in g.predicate_names() for t in g.with_predicate(p)]
        for listed in (by_subject, by_object, by_predicate):
            assert sorted(listed) == sorted(g)


# --- the one-line statement token ---------------------------------------------

def _read(text: str):
    """The triples of `text`, or the error the parse raises."""
    try:
        return sorted(map(repr, parse_document(text)))
    except Exception as exc:  # the same error, whatever it is
        return type(exc).__name__, str(exc)


def _read_fine(text: str):
    """`_read` with the fine tokens alone: the tokenizer the parser splits
    a statement token with stands in for the full one."""
    with mock.patch.object(rdf, "_TOKEN_RE", rdf._fine_token_re()):
        return _read(text)


_NODES = ["ex:a", "ex:a.b", "ex:", ":x", "_x:y", "zz:c", "_:b1", "_:b.1", "_:-x",
          "<http://e/x>", "<rel>", "<http://e/\\u0041>", "a"]
_OBJECTS = _NODES + ['"s"', '"s\\n"', '"bad\\q"', "'single'", '"""long"""', '""', '"x"@en',
                     '"1"^^ex:t', "5", "true", ".5e1", "ex:c.d"]
_STATEMENT = st.tuples(
    st.sampled_from(_NODES), st.sampled_from(["ex:p", "a", "<http://e/p>", "_:p", "ex:p.q"]),
    st.sampled_from(_OBJECTS),
    st.sampled_from([" .", " .", ".", " . # c", "\t.", " ;", " ,", ".5", "", " .ex:x", ". .",
                     " ]", " )"]),
    st.sampled_from([" ", " ", "\t", "  ", "\f"]),
).map(lambda t: f"{t[0]}{t[4]}{t[1]} {t[2]}{t[3]}")
_OTHER = st.sampled_from([
    "@prefix ex: <http://e/> .", "PREFIX ex: <http://e/>", "BASE <http://b/>",
    "@base <http://b/> .", "@prefix", "  ex:q ex:r ;", "ex:q ex:r ;", "[ ex:p ex:o ] .",
    "( ex:a ex:b ) ex:p ex:o .", "ex:s ex:p [", "ex:s ex:p (", "] .", ") .", "{", "# c",
])


@st.composite
def _turtle_texts(draw):
    lines = draw(st.lists(st.one_of(_STATEMENT, _STATEMENT, _OTHER), min_size=1, max_size=6))
    gaps = draw(st.lists(st.sampled_from(["\n", "\n", "\n", " ", "\r\n", "\n  "]),
                         min_size=len(lines), max_size=len(lines)))
    head = "@prefix ex: <http://e/> .\n" if draw(st.booleans()) else ""
    return head + "".join(line + gap for line, gap in zip(lines, gaps))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_turtle_texts())
def test_a_statement_token_reads_as_the_fine_tokens_it_stands_for(text):
    # the same triples, blank nodes named alike, or the same error
    assert _read(text) == _read_fine(text)


_EX = "@prefix ex: <http://e/> .\n"


@pytest.mark.parametrize("text, message", [
    (_EX + "ex:s ex:p ex:o ;\nex:a ex:b ex:c .\n", "expected ., found 'ex:c' (line 3, column 11)"),
    (_EX + "ex:s ex:p ex:o ,\nex:a ex:b ex:c .\n", "expected ., found 'ex:b' (line 3, column 6)"),
    (_EX + "ex:s ex:p\nex:a ex:b ex:c .\n", "expected ., found 'ex:b' (line 3, column 6)"),
    (_EX + "ex:s ex:p ex:o\nex:a ex:b ex:c .\n", "expected ., found 'ex:a' (line 3, column 1)"),
    (_EX + "ex:s ex:p (\nex:a ex:b ex:c .\n) .\n", "unexpected token '.' (line 3, column 16)"),
    (_EX + "ex:s ex:p [\nex:a ex:b ex:c .\n] .\n", "expected ], found 'ex:c' (line 3, column 11)"),
    ("@prefix\nex: <http://x/> <http://y> .\n",
     "expected ., found '<http://y>' (line 2, column 17)"),
    (_EX + "@base\nex:a <http://p> <http://o> .\n",
     "expected IRIREF, found 'ex:a' (line 3, column 1)"),
    (_EX + "ex:a ex:b ex:c .5\n", "expected ., found '.5' (line 2, column 16)"),
    (_EX + 'ex:a ex:b "x\\q" .\n', "bad escape \\q (line 2, column 13)"),
    (_EX + "ex:a ex:b zz:c .\n", "undeclared prefix 'zz' (line 2, column 11)"),
    (_EX + "ex:a _:p ex:c .\n", "predicate must be an IRI (line 2, column 6)"),
    (_EX + "_:-x ex:p ex:o .\n", "undeclared prefix '_' (line 2, column 1)"),
    (_EX + "ex:a ex:p _:-x .\n", "undeclared prefix '_' (line 2, column 11)"),
    (_EX + "_x:y ex:p ex:o .\n", "undeclared prefix '_x' (line 2, column 1)"),
], ids=["after-semicolon", "after-comma", "as-object", "after-object", "in-collection",
        "in-blank-node", "as-prefix-name", "as-base", "decimal-after-object", "bad-escape",
        "undeclared-prefix", "blank-predicate", "name-as-blank-subject", "name-as-blank-object",
        "underscore-prefix"])
def test_a_statement_token_out_of_its_place_gives_the_fine_error(text, message):
    with pytest.raises(RdfSyntaxError) as exc:
        parse_document(text)
    assert str(exc.value) == message
    assert _read_fine(text) == ("RdfSyntaxError", message)


def test_a_dotted_name_before_a_semicolon_stays_in_its_statement():
    g = parse_document(_EX + "ex:a ex:b ex:c.d; ex:e ex:f .\n")
    assert {(t.predicate.lexical, t.object.lexical) for t in g} == {
        ("http://e/b", "http://e/c.d"), ("http://e/e", "http://e/f")}


def test_each_one_line_statement_is_one_token():
    lines = [f'ex:p{i} ex:knows ex:p{i + 1} .\nex:p{i} a ex:Person .\nex:p{i} ex:name "n{i}" .\n'
             for i in range(50)]
    kinds = [kind for kind, _, _ in rdf._tokenize(_EX + "".join(lines))]
    assert kinds[:4] == ["PREFIX_KW", "PNAME", "IRIREF", "PUNCT"]
    assert kinds[4:154] == ["TRIPLE"] * 150 and set(kinds[154:]) == {"EOF"}
