import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_graph, load_shapes
from corpus import CASES
from shacl2fol.decide import DecisionTask, TaskKind, build_problem
from shacl2fol.fol import (
    AndN, Atom, Const, Distinct, Eq, Exists, FalseF, Forall, Iff, Implies, NotN,
    OrN, TrueF, Var,
)
from shacl2fol.rdf import Graph, RDF_TYPE, Triple, iri, literal
from shacl2fol.tptp import (
    Dialect, EmitOptions, StarMode, TptpDocument, TptpFormula, UnaMode, render,
)
from shacl2fol.tptp_parse import TptpParseError, TptpUnit, parse_tptp

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

    @pytest.mark.parametrize("text, line, column, snippet", [
        ("#", 1, 1, "'#'"),
        ("fof(a, axiom, p('abc)).", 1, 17, "\"'abc)).\""),
        ("fof(a, axiom, p).\nfof(b, axiom, q).\n  @\n", 3, 3, "'@'"),
        ("% c\nfof(a, axiom, p(1)).", 2, 17, "'1)).'"),
    ], ids=["hash", "unterminated-quote", "after-last-unit", "digit"])
    def test_bad_character_is_named_by_line_and_column(self, text, line, column, snippet):
        with pytest.raises(TptpParseError) as exc:
            parse_tptp(text)
        assert str(exc.value) == f"bad TPTP input at line {line}, column {column}: {snippet}"

    def test_trailing_comment_without_newline(self):
        assert parse_tptp("fof(a, axiom, p). % the end") == [
            TptpUnit("a", "axiom", Atom("p", ()))
        ]

    def test_percent_inside_a_quoted_atom_is_not_a_comment(self):
        units = parse_tptp("fof(a, axiom, '50% p'('%')).")
        assert units[0].body == Atom("50% p", (Const("%"),))


@pytest.mark.parametrize("text", [
    "p & q | r", "p => q => r", "(p", "~", "p))", "f(X) = a", "$distinct(X, a)",
    "~$distinct(a, b)", "p | $distinct(a, b)",
])
def test_rejected_formulas(text):
    # and/or mix only inside parentheses, => and <=> do not chain, and the
    # emitted subset has no function terms, and $distinct only over
    # constants and as a whole unit
    with pytest.raises(TptpParseError):
        parse_tptp(f"fof(a, axiom, {text}).")


def assert_same_formula(a, b):
    """a == b, compared without recursion, so at any depth."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        assert type(x) is type(y), (x, y)
        if isinstance(x, (AndN, OrN)):
            assert len(x.operands) == len(y.operands)
            stack.extend(zip(x.operands, y.operands))
        elif isinstance(x, NotN):
            stack.append((x.operand, y.operand))
        elif isinstance(x, (Implies, Iff)):
            stack += [(x.left, y.left), (x.right, y.right)]
        elif isinstance(x, (Forall, Exists)):
            assert x.variables == y.variables
            stack.append((x.body, y.body))
        else:
            assert x == y


DEEP = 10_000


class TestDeepNesting:
    """The parser keeps its own stack: depth is not bounded by Python's."""

    def test_nested_parentheses(self):
        [unit] = parse_tptp("fof(a, axiom, " + "(" * DEEP + "p" + ")" * DEEP + ").")
        assert unit.body == Atom("p", ())

    def test_nested_negations(self):
        [unit] = parse_tptp("fof(a, axiom, " + "~" * DEEP + "p).")
        f = unit.body
        for _ in range(DEEP):
            assert isinstance(f, NotN)
            f = f.operand
        assert f == Atom("p", ())

    def test_left_nested_conjunction(self):
        text = "(" * (DEEP - 1) + "p0" + "".join(f" & p{i})" for i in range(1, DEEP))
        [unit] = parse_tptp(f"fof(a, axiom, {text}).")
        want = Atom("p0", ())
        for i in range(1, DEEP):
            want = AndN((want, Atom(f"p{i}", ())))
        assert_same_formula(unit.body, want)

    def test_wide_sh_and_problem_round_trips(self):
        members = " ".join(f"ex:T{i}" for i in range(1500))
        doc = build_problem(DecisionTask(TaskKind.SATISFIABILITY, load_shapes(
            PREFIX + f"ex:S sh:targetNode ex:a ; sh:and ( {members} ) ."
        )))
        units = parse_tptp(render(doc))
        assert [(u.name, u.role) for u in units] == [(f.name, f.role) for f in doc.formulas]
        for unit, f in zip(units, doc.formulas):
            assert_same_formula(unit.body, f.body)


# --- the parser reads back what the renderer writes -------------------------

_SYMBOLS = st.one_of(
    st.sampled_from(["p", "q", "a_1", "fof"]),
    st.text(alphabet="aZ_0\\'% ", min_size=1, max_size=5),
)
_VARIABLES = st.sampled_from(["X", "Y", "Z1"])
_CONSTS = _SYMBOLS.map(Const)
_TERMS = st.one_of(_VARIABLES.map(Var), _CONSTS)
_ATOMIC = st.one_of(
    st.builds(Atom, _SYMBOLS, st.lists(_TERMS, max_size=3).map(tuple)),
    st.builds(Eq, _TERMS, _TERMS),
    st.builds(lambda l, r: NotN(Eq(l, r)), _TERMS, _TERMS),
    st.just(TrueF()),
    st.just(FalseF()),
)
_KINDS = ["and", "or", "not", "implies", "iff", "forall", "exists"]


@st.composite
def formulas(draw, depth=40):
    """A formula that nests up to `depth` connectives and quantifiers on
    one branch, with atomic formulas (or, one time in four, formulas of
    depth 2) beside it."""
    f = draw(_ATOMIC)
    for _ in range(draw(st.integers(0, depth))):
        beside = formulas(2) if depth > 2 and draw(st.integers(0, 3)) == 0 else _ATOMIC
        kind = draw(st.sampled_from(_KINDS))
        if kind in ("and", "or"):
            ops = draw(st.lists(beside, min_size=1, max_size=2))
            ops.insert(draw(st.integers(0, len(ops))), f)
            f = (AndN if kind == "and" else OrN)(tuple(ops))
        elif kind == "not":
            f = NotN(f)
        elif kind in ("implies", "iff"):
            pair = (f, draw(beside))
            f = (Implies if kind == "implies" else Iff)(*(pair if draw(st.booleans()) else pair[::-1]))
        else:
            variables = tuple(draw(st.lists(_VARIABLES, min_size=1, max_size=2)))
            f = (Forall if kind == "forall" else Exists)(variables, f)
    return f


# $distinct is read only as a whole unit, as `tptp.emit_una` writes it
_DISTINCT = st.lists(_CONSTS, min_size=1, max_size=3).map(lambda cs: Distinct(tuple(cs)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(formulas(), _DISTINCT), min_size=1, max_size=2),
       st.sampled_from([Dialect.FOF, Dialect.TFF]))
def test_parser_reads_back_rendered_formulas(bodies, dialect):
    doc = TptpDocument(dialect, [TptpFormula(f"f{i}", "axiom", b) for i, b in enumerate(bodies)])
    assert [u.body for u in parse_tptp(render(doc))] == bodies


@pytest.mark.parametrize("dialect", [Dialect.FOF, Dialect.TFF])
def test_a_symbol_ending_in_a_newline_is_quoted(dialect):
    # unquoted, `a\n` would read back as `a`
    body = Atom("p", (Const("a\n"), Const("a")))
    doc = TptpDocument(dialect, [TptpFormula("f0", "axiom", body)])
    assert [u.body for u in parse_tptp(render(doc))] == [body]


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
