import re
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_graph, load_shapes, people_star
from corpus import CASES
from shacl2fol import fol, rdf, sat, tptp_parse
from shacl2fol.decide import DecisionTask, TaskKind, build_problem
from shacl2fol.fol import (
    AndN, Atom, Const, Distinct, Eq, Exists, FalseF, Forall, Iff, Implies, NotN,
    OrN, TrueF, Var, unquote_atom,
)
from shacl2fol.rdf import Graph, RDF_TYPE, Triple, iri, literal, parse_document
from shacl2fol.tptp import (
    Dialect, EmitOptions, TptpDocument, TptpFormula, render,
)
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
            TptpFormula("a", "axiom", Atom("p", ()))
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


def _atomic_formulas(f):
    """The atomic formulas of `f`, by a walk of this test's own."""
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (AndN, OrN)):
            stack.extend(node.operands)
        elif isinstance(node, NotN):
            stack.append(node.operand)
        elif isinstance(node, (Implies, Iff)):
            stack += [node.left, node.right]
        elif isinstance(node, (Forall, Exists)):
            stack.append(node.body)
        else:
            yield node


def _constants(f):
    for node in _atomic_formulas(f):
        if isinstance(node, Atom):
            terms = node.args
        elif isinstance(node, Eq):
            terms = (node.left, node.right)
        elif isinstance(node, Distinct):
            terms = node.constants
        else:
            continue
        yield from (t for t in terms if isinstance(t, Const))


def _signature(bodies):
    """The constant names, and each predicate with the arities it is used with."""
    consts, preds = set(), {}
    for body in bodies:
        consts.update(c.name for c in _constants(body))
        for node in _atomic_formulas(body):
            if isinstance(node, Atom):
                preds.setdefault(node.pred, set()).add(len(node.args))
    return consts, preds


_DECL_C = re.compile(r"tff\(decl_c_(\d+), type, (.*): \$i\)\.")
_DECL_P = re.compile(r"tff\(decl_p_(\d+), type, (.*): (\$o|\((\$i(?: \* \$i)*)\) > \$o)\)\.")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(formulas(), _DISTINCT), min_size=1, max_size=3))
def test_type_declarations_name_the_signature(bodies):
    doc = TptpDocument(Dialect.TFF, [TptpFormula(f"f{i}", "axiom", b) for i, b in enumerate(bodies)])
    lines = render(doc).splitlines()
    c_lines = [m for m in map(_DECL_C.fullmatch, lines) if m]
    p_lines = [m for m in map(_DECL_P.fullmatch, lines) if m]
    declared_c = [unquote_atom(m[2]) for m in c_lines]
    declared_p = {unquote_atom(m[2]): 0 if m[4] is None else m[4].count("$i") for m in p_lines}
    consts, preds = _signature(bodies)
    # numbered from 1 in the order of their names, before the units
    assert [int(m[1]) for m in c_lines] == list(range(1, len(c_lines) + 1))
    assert [int(m[1]) for m in p_lines] == list(range(1, len(p_lines) + 1))
    assert declared_c == sorted(consts)
    assert list(declared_p) == sorted(preds)
    # a predicate used with several arities is declared with one of them
    assert all(arity in preds[name] for name, arity in declared_p.items())
    assert lines[len(c_lines) + len(p_lines)].startswith("tff(f0, axiom, ")


@pytest.mark.parametrize("dialect", [Dialect.FOF, Dialect.TFF])
def test_a_symbol_ending_in_a_newline_is_quoted(dialect):
    # unquoted, `a\n` would read back as `a`
    body = Atom("p", (Const("a\n"), Const("a")))
    doc = TptpDocument(dialect, [TptpFormula("f0", "axiom", body)])
    assert [u.body for u in parse_tptp(render(doc))] == [body]


@pytest.mark.parametrize("dialect", [Dialect.FOF, Dialect.TFF])
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_rendered_corpus_problems_round_trip(case, dialect):
    opts = EmitOptions(dialect=dialect)
    doc = build_problem(DecisionTask(
        TaskKind.VALIDATION, load_shapes(case.shapes_ttl),
        data_graph=load_graph(case.data_ttl), options=opts,
    ))
    units = parse_tptp(render(doc))
    assert [(u.name, u.role, u.body) for u in units] == [
        (f.name, f.role, f.body) for f in doc.formulas
    ]


def _people_task(n: int) -> DecisionTask:
    """Validation of n people, each typed, named and knowing two others:
    4n triples."""
    people = [iri(EX + f"p{i}") for i in range(n)]
    knows, person = iri(EX + "knows"), iri(EX + "Person")
    triples = []
    for i, p in enumerate(people):
        triples.append(Triple(p, iri(RDF_TYPE), person))
        triples.append(Triple(p, iri(EX + "name"), literal(f"n{i}")))
        triples.append(Triple(p, knows, people[(i + 1) % n]))
        triples.append(Triple(p, knows, people[(i + 7) % n]))
    shapes = load_shapes(PREFIX + """
    ex:S a sh:NodeShape ; sh:targetClass ex:Person ;
      sh:property [ sh:path ex:name ; sh:minCount 1 ; sh:maxCount 1 ;
                    sh:nodeKind sh:Literal ] ;
      sh:property [ sh:path ex:knows ; sh:nodeKind sh:IRI ] .
    """)
    return DecisionTask(TaskKind.VALIDATION, shapes, data_graph=Graph(triples))


def test_front_end_is_linear_on_a_large_graph():
    task = _people_task(1500)  # 6000 triples
    started = time.perf_counter()
    doc = build_problem(task)
    units = parse_tptp(render(doc))
    elapsed = time.perf_counter() - started
    assert len(units) == len(doc.formulas)
    assert elapsed < 5.0, f"{len(task.data_graph)} triples took {elapsed:.1f} s"


def test_each_symbol_is_quoted_once_and_read_once(monkeypatch):
    doc = build_problem(_people_task(200))
    consts, preds = _signature([f.body for f in doc.formulas])

    quoted = Counter()
    atom_name = fol.atom_name
    monkeypatch.setattr(fol, "atom_name", lambda s: quoted.update([s]) or atom_name(s))
    text = render(doc)
    # a symbol that is both a constant and a predicate is declared twice
    assert quoted == Counter([*consts, *preds])

    unquoted = Counter()
    unquote_atom = tptp_parse.unquote_atom
    monkeypatch.setattr(tptp_parse, "unquote_atom",
                        lambda t: unquoted.update([t]) or unquote_atom(t))
    units = parse_tptp(text)
    assert unquoted and max(unquoted.values()) == 1
    assert [u.body for u in units] == [f.body for f in doc.formulas]
    # every occurrence of a constant is one object
    objects = {}
    for u in units:
        for c in _constants(u.body):
            assert objects.setdefault(c.name, c) is c


# each more than 4,096 fine tokens: one wide formula, and many small units
# (each unit one coarse token)
_WIDE = "fof(wide, axiom, " + " & ".join(f"p(c{i})" for i in range(1200)) + ")."
_MANY = "".join(f"fof(u{i}, axiom, p(c{i}))." for i in range(600))


class _CountingClock(sat.Clock):
    """A clock without a deadline that sums the work reported to it."""

    def __init__(self):
        super().__init__(None)
        self.total = 0

    def tick(self, work: int = 1) -> bool:
        self.total += work
        return super().tick(work)


@pytest.mark.parametrize("text", [_WIDE, _MANY], ids=["one_wide_unit", "many_units"])
def test_the_walk_reports_its_tokens_to_a_clock(text):
    counted = _CountingClock()
    parse_tptp(text, counted)
    assert counted.total > 4096
    with pytest.raises(sat.TimeBudgetExceeded):
        parse_tptp(text, sat.Clock(time.monotonic() - 1))
    units = parse_tptp(text)
    assert parse_tptp(text, sat.Clock(time.monotonic() + 60)) == units


# --- coarse tokens ------------------------------------------------------------

def _read(text: str):
    """The units of `text` and the work the walk reports to a clock, or the
    error the parse raises."""
    counted = _CountingClock()
    try:
        return parse_tptp(text, counted), counted.total
    except Exception as exc:  # the same error, whatever it is
        return type(exc).__name__, str(exc)


def _read_fine(text: str):
    """`_read` with the fine tokens alone: the tokenizer the walker splits
    a coarse token with stands in for the full one."""
    with mock.patch.object(tptp_parse, "_TOKEN", tptp_parse._fine_token()):
        return _read(text)


_SYM = st.sampled_from(["a", "b_1", "_u", "fof", "type", "'x y'", "'it\\'s'", "'p,(q).'",
                        "'50% off'"])
_VAR = st.sampled_from(["X", "Y", "Z1"])
_CASE = st.tuples(_VAR, _SYM, _VAR, _SYM).map(
    lambda t: ["(", "(", t[0], "=", t[1], ")", "&", "(", t[2], "=", t[3], ")", ")"])
# a closure as the emitter writes it
_CLOSURE = st.lists(_CASE, min_size=1, max_size=3).map(
    lambda cases: ["!", "[", "X", ",", "Y", "]", ":", "(", "p", "(", "X", ",", "Y", ")", "=>",
                   "(", *[p for case in cases for p in ("|", *case)][1:], ")", ")"])


def _formula_pieces():
    """The fine tokens of a formula, closure cases among them."""
    atoms = st.one_of(
        st.tuples(_SYM, _SYM, _SYM).map(lambda t: [t[0], "(", t[1], ",", t[2], ")"]),
        st.tuples(_SYM, _SYM).map(lambda t: [t[0], "(", t[1], ")"]),
        _SYM.map(lambda s: [s]),
        st.tuples(_VAR, st.sampled_from(["=", "!="]), _SYM).map(list),
        _CASE,
    )
    return st.recursive(atoms, lambda inner: st.one_of(
        inner.map(lambda f: ["(", *f, ")"]),
        inner.map(lambda f: ["~", *f]),
        st.tuples(inner, st.sampled_from(["&", "|", "=>"]), inner).map(
            lambda t: ["(", *t[0], t[1], *t[2], ")"]),
        st.tuples(st.sampled_from(["!", "?"]), _VAR, inner).map(
            lambda t: [t[0], "[", t[1], "]", ":", *t[2]]),
    ), max_leaves=5)


_TYPES = st.sampled_from([["$i"], ["$o"], ["(", "$i", ")", ">", "$o"],
                          ["(", "$i", "*", "$i", ")", ">", "$o"]])
# the bodies of the units the emitter writes most, a ground atom and a type
# declaration, and any formula
_ARGS = st.lists(st.one_of(_SYM, _VAR, st.just("$true")), min_size=1, max_size=3)
_BODY = st.one_of(
    st.tuples(_SYM, _ARGS).map(
        lambda t: [t[0], "(", *[p for a in t[1] for p in (",", a)][1:], ")"]),
    st.tuples(_SYM, _TYPES).map(lambda t: [t[0], ":", *t[1]]),
    _CLOSURE,
    _formula_pieces(),
)
_UNIT = st.tuples(
    st.sampled_from(["fof", "tff"]),
    st.sampled_from(["a", "graph_pos_1", "decl_c_2", "'q'", "1"]),
    st.sampled_from(["axiom", "type", "type", "conjecture"]),
    _BODY,
).map(lambda t: [t[0], "(", t[1], ",", t[2], ",", *t[3], ")", "."])
# pieces that break a text, or move a coarse token out of its place
_STRAY = st.sampled_from(["(", ")", ",", ".", ":", "((X = a) & (Y = b))", "fof(u, axiom, p(a)).",
                          "tff(d, type, c: $i).", "$distinct", "1", "#", "% c\n", "'"])


@st.composite
def _tptp_texts(draw):
    pieces = [p for unit in draw(st.lists(_UNIT, min_size=1, max_size=3)) for p in unit]
    for _ in range(draw(st.integers(0, 2))):  # broken: a piece dropped or one put in
        k = draw(st.integers(0, len(pieces)))
        if draw(st.booleans()):
            pieces[k:k + 1] = []
        else:
            pieces.insert(k, draw(_STRAY))
    blanks = [" ", " ", "", "\n", "\t", *([" % c\n"] if draw(st.booleans()) else [])]
    gaps = draw(st.lists(st.sampled_from(blanks), min_size=len(pieces), max_size=len(pieces)))
    return "".join(g + p for g, p in zip(gaps, pieces))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_tptp_texts())
def test_coarse_tokens_read_as_the_fine_tokens_they_stand_for(text):
    # the same units and work on the clock, or the same error
    assert _read(text) == _read_fine(text)


def _fine_tokens(tokens: list[str]) -> list[str]:
    """The tokens with each coarse token split into its fine ones."""
    fine = tptp_parse._fine_token()
    return [f for tok in tokens
            for f in (fine.findall(tok)[:-1] if len(tok) > 1 and tok[-1] in ")." else [tok])]


# quoted atoms across lines and with spaces, and comments with spaces and
# quotes, where a cut may fall
_CUT_PIECES = st.sampled_from(["'a\nb'", "'x y z'", "% a 'b c\n", "%\n", "'50% off'", "' '"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tptp_texts(), st.lists(st.tuples(st.integers(0, 60), _CUT_PIECES), max_size=3),
       st.integers(1, 12))
def test_slices_read_as_the_whole_text(text, inserts, size):
    # cut every few characters, the text gives the fine tokens, the
    # units, the work on the clock and the error that it gives uncut
    for at, piece in inserts:
        text = text[:at] + piece + text[at:]
    whole = _read(text)
    whole_tokens = _exception_or(lambda: _fine_tokens(tptp_parse._tokenize(text)))
    with mock.patch.object(tptp_parse, "_SLICE", size):
        assert _read(text) == whole
        assert _exception_or(lambda: _fine_tokens(tptp_parse._tokenize(text))) == whole_tokens


def _exception_or(f):
    try:
        return f()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_a_slice_ends_at_a_line_end():
    # so no unit of a line of its own is split between two slices
    text = "".join(f"tff(decl_c_{i}, type, 'c{i}': $i).\n" for i in range(5000))
    assert len(text) > 2 * tptp_parse._SLICE
    assert tptp_parse._tokenize(text) == tptp_parse._TOKEN.findall(text)


# one wide unit on one line, whose quoted atoms hold `%`, which opens no
# comment there
_PERCENT_LINE = "fof(u, axiom, " + " & ".join(
    f"p('http://ex.org/a%20b{i}')" for i in range(8000)) + ")."


@pytest.mark.parametrize("text", [_MANY * 12, _PERCENT_LINE],
                         ids=["many_units", "quoted_percent"])
def test_the_tokenizer_reads_the_clock_between_slices(text):
    # a passed deadline stops the tokens of a large text after one slice
    assert len(text) > 2 * tptp_parse._SLICE
    spans = []
    token = tptp_parse._TOKEN

    class Watched:
        def findall(self, text, *span):
            spans.append(span)
            return token.findall(text, *span)

    with mock.patch.object(tptp_parse, "_TOKEN", Watched()):
        with pytest.raises(sat.TimeBudgetExceeded):
            parse_tptp(text, sat.Clock(time.monotonic() - 1))
        assert len(spans) == 1 and spans[0][1] - spans[0][0] < 2 * tptp_parse._SLICE
        spans.clear()
        units = parse_tptp(text, sat.Clock(time.monotonic() + 60))
    assert len(spans) > 2 and units == parse_tptp(text)


@pytest.mark.parametrize("text, message", [
    ("fof(a, axiom, p(((X = a) & (Y = b)))).", "bad term '('"),
    ("fof(a, axiom, p((X = a) & (Y = b))).", "bad term '('"),
    ("fof(a, axiom, p(b((X = c) & (Y = d)))).",
     "function terms are not part of the emitted subset"),
    ("fof(a, axiom, fof(b, axiom, p(c)).", "function terms are not part of the emitted subset"),
    ("fof(((X = a) & (Y = b)), axiom, p).", "expected ',', found '('"),
    ("fof(a, ((X = a) & (Y = b)), p).", "expected ',', found '('"),
    ("((X = a) & (Y = b))", "expected fof/tff unit, found '('"),
    ("fof(a, axiom, ![((X = a) & (Y = b))]: p).", "bad variable name '('"),
    ("fof(a, axiom, ![X]((X = a) & (Y = b))).", "expected ':', found '('"),
    ("tff(t, type, fof(a, axiom, p(b)).", "unterminated type declaration"),
    ("tff(1, axiom, p(a)).", "bad TPTP input at line 1, column 5: '1, axiom, p(a)).'"),
    ("fof(a, axiom, p fof(b, axiom, q(c)).", "expected ')', found 'fof'"),
    ("fof(a, axiom, p) fof(b, axiom, q(c)).", "expected '.', found 'fof'"),
], ids=["case-as-argument", "case-after-predicate", "case-after-argument", "unit-in-formula",
        "case-as-name", "case-as-role", "case-as-unit", "case-as-variable",
        "case-after-quantifier", "unit-in-declaration", "number-as-name", "unit-after-atom",
        "unit-after-unit-body"])
def test_a_coarse_token_out_of_its_place_gives_the_fine_error(text, message):
    with pytest.raises(TptpParseError) as exc:
        parse_tptp(text)
    assert str(exc.value) == message
    assert _read_fine(text) == ("TptpParseError", message)


@pytest.mark.parametrize("text", [
    "tff(t, type, c: ((X = a) & (Y = b))).", "tff(t, type, fof(u, axiom, p(a)).).",
], ids=["closure-case", "unit"])
def test_a_type_declaration_skips_its_coarse_tokens_as_their_fine_ones(text):
    # valid text, read once, whose work is its fine tokens
    fine = tptp_parse._fine_token().findall(text)[:-1]
    with mock.patch.object(tptp_parse, "_tokenize", wraps=tptp_parse._tokenize) as reads:
        assert _read(text) == _read_fine(text) == ([], len(fine))
    assert reads.call_count == 2


def test_each_fact_declaration_and_closure_case_is_one_token():
    text = render(build_problem(_people_task(50)))
    tokens = tptp_parse._tokenize(text)
    whole = {tok[4:tok.index(",")] for tok in tokens if len(tok) > 1 and tok[-1] == "."}
    names = re.findall(r"^tff\(((?:graph_pos|filter_kind|decl)_\w+),", text, re.M)
    assert len(names) > 200 and set(names) <= whole
    cases = [tok for tok in tokens if len(tok) > 1 and tok[-1] == ")"]
    assert len(cases) == text.count("((X = ") > 100
    assert _read(text) == _read_fine(text)


def test_valid_text_is_read_once():
    # a valid text holds no coarse token out of its place, so neither
    # reader reads it again from its fine tokens
    documents = [text for case in CASES for text in (case.shapes_ttl, case.data_ttl)]
    documents.append(people_star(450)[1])
    problems = [render(build_problem(DecisionTask(
        TaskKind.VALIDATION, load_shapes(case.shapes_ttl),
        data_graph=load_graph(case.data_ttl), options=EmitOptions(dialect=dialect),
    ))) for case in CASES for dialect in (Dialect.FOF, Dialect.TFF)]
    problems.append(render(build_problem(_people_task(450))))
    with mock.patch.object(rdf, "_tokenize", wraps=rdf._tokenize) as reads:
        for text in documents:
            parse_document(text)
    assert reads.call_count == len(documents)
    with mock.patch.object(tptp_parse, "_tokenize", wraps=tptp_parse._tokenize) as reads:
        for text in problems:
            assert parse_tptp(text, _CountingClock()) == parse_tptp(text)
    assert reads.call_count == 2 * len(problems)
