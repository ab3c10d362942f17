import itertools
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))  # for the shared corpus module

from shacl2fol import rdf, shapes
from shacl2fol.clausify import DISTINCT, EQ, Literal
from shacl2fol.decide import ProverConfig
from shacl2fol.errors import Clock
from shacl2fol.fol import Const, Func, Var


def within(seconds: float) -> Clock:
    """A prover clock whose deadline is `seconds` from now."""
    return Clock(time.monotonic() + seconds)


def load_shapes(ttl: str) -> shapes.ShapeGraph:
    return shapes.extract_shape_graph(rdf.parse_document(ttl))


def not_chain(n: int) -> str:
    """`ex:S`, targeting `ex:a`, whose `sh:not` nests n + 1 deep around
    `sh:class ex:C`: n + 2 shapes.  For an even n, a node conforms to
    `ex:S` iff it is not an `ex:C`."""
    return (
        "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
        "@prefix ex: <http://example.org/> .\n"
        "ex:S sh:targetNode ex:a ; sh:not "
        + "[ sh:not " * n + "[ sh:class ex:C ]" + " ]" * n + " .\n"
    )


def node_chain(n: int, last: str) -> tuple[str, str]:
    """Shapes `ex:S0` ... `ex:S<n>`, each but the last asking for an
    `ex:next` value in the next one, and the data list `ex:n0` ... `ex:n<n>`
    that `ex:S0` targets from its head; `ex:S<n>` is `last`."""
    shapes = "".join(
        f"ex:S{i} sh:property [ sh:path ex:next ; sh:minCount 1 ; sh:node ex:S{i + 1} ] .\n"
        for i in range(n)
    )
    data = "".join(f"ex:n{i} ex:next ex:n{i + 1} .\n" for i in range(n))
    prefixes = (
        "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
        "@prefix ex: <http://example.org/> .\n"
    )
    return (prefixes + shapes + f"ex:S0 sh:targetNode ex:n0 .\nex:S{n} {last} .\n",
            prefixes + data)


def path_list(n: int, alternative: bool) -> str:
    """`ex:S`, targeting `ex:a`, with one value through the path list of
    `ex:p0` ... `ex:p<n-1>`: a sequence path, or an `sh:alternativePath`."""
    members = "( " + " ".join(f"ex:p{i}" for i in range(n)) + " )"
    path = f"[ sh:alternativePath {members} ]" if alternative else members
    return (
        "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
        "@prefix ex: <http://example.org/> .\n"
        f"ex:S sh:targetNode ex:a ; sh:property [ sh:path {path} ; sh:minCount 1 ] .\n"
    )


_PREFIXES = (
    "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
    "@prefix ex: <http://example.org/> .\n"
)


def star_chain(n: int, violating: bool = False) -> tuple[str, str]:
    """`ex:S`, targeting `ex:n0`, whose values through `ex:p*` are IRIs,
    and the chain `ex:n0 ex:p ex:n1 ...` of n triples; a violating chain
    ends in one more triple, to a literal."""
    data = "".join(f"ex:n{i} ex:p ex:n{i + 1} .\n" for i in range(n))
    return (_PREFIXES + "ex:S sh:targetNode ex:n0 ; sh:property [\n"
            "  sh:path [ sh:zeroOrMorePath ex:p ] ; sh:nodeKind sh:IRI ] .\n",
            _PREFIXES + data + (f'ex:n{n} ex:p "end" .\n' if violating else ""))


def people_star(n: int, violating: bool = False) -> tuple[str, str]:
    """`ex:S`, whose `ex:Person`s know only IRIs through `ex:knows*`, and
    n people, each typed, named and knowing two others (4n triples), so
    that `ex:knows` is one strongly connected component; in a violating
    graph one person knows a literal too."""
    data = "".join(f'ex:p{i} a ex:Person ; ex:name "n{i}" ; '
                   f"ex:knows ex:p{(i + 1) % n}, ex:p{(i + 7) % n} .\n" for i in range(n))
    return (_PREFIXES + "ex:S sh:targetClass ex:Person ; sh:property [\n"
            "  sh:path [ sh:zeroOrMorePath ex:knows ] ; sh:nodeKind sh:IRI ] .\n",
            _PREFIXES + data + (f'ex:p{n // 2} ex:knows "stranger" .\n' if violating else ""))


def shape_family(n: int, seed: int = 3) -> str:
    """Node shapes `ex:S0` ... `ex:S<n-1>`, one a line, each targeting the
    class `ex:C<i>` with three property shapes over three distinct paths of
    `ex:p0` ... `ex:p9`, drawn from `random.Random(seed)`.  Each property
    shape has an `sh:minCount` of 1 or 2, and at times an `sh:nodeKind
    sh:IRI`, an `sh:class ex:D<k>` or an `sh:node` reference to an earlier
    node shape.  Every shape is satisfiable, and a path's `sh:minCount` is
    the only one on it in its node shape, so raising it to 3 strengthens
    the shape and lowering it weakens it."""
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        properties = []
        for p in rng.sample(range(10), 3):
            extra = rng.choice(["", " ; sh:nodeKind sh:IRI", f" ; sh:class ex:D{rng.randrange(5)}"]
                               + ([f" ; sh:node ex:S{rng.randrange(i)}"] if i else []))
            properties.append(f"[ sh:path ex:p{p} ; sh:minCount {rng.randint(1, 2)}{extra} ]")
        lines.append(f"ex:S{i} a sh:NodeShape ; sh:targetClass ex:C{i} ;"
                     f" sh:property {' , '.join(properties)} .\n")
    return _PREFIXES + "".join(lines)


def load_graph(ttl: str) -> rdf.Graph:
    return rdf.parse_document(ttl)


NAMES = [Const("c0"), Const("c1"), Const("c2")]
VARIABLES = [Var("X"), Var("Y")]
PREDICATES = ["p", "q"]
SIZES = (1, 2, 3)


@st.composite
def clause_sets(draw, functions=False):
    """Small clause sets over two or three constants kept apart at random:
    by units `¬(a = b)` and, at times, by one `$distinct` literal over two
    or three of them.

    With `functions`, terms may also be `f(t)` for a constant or variable
    `t`, and literals may also be of the binary predicate `r`."""
    consts = NAMES[:draw(st.integers(2, 3))]
    apart = draw(st.lists(
        st.sampled_from(list(itertools.combinations(consts, 2))), unique=True))
    group = draw(st.lists(st.sampled_from(consts), max_size=3, unique=True))
    terms = st.sampled_from(consts + VARIABLES)
    if functions:
        terms = st.one_of(terms, st.builds(lambda t: Func("f", (t,)), terms))
    literals = [
        st.builds(lambda positive, pred, t: Literal(positive, pred, (t,)),
                  st.booleans(), st.sampled_from(PREDICATES), terms),
        st.builds(lambda positive, s, t: Literal(positive, EQ, (s, t)),
                  st.booleans(), terms, terms),
    ]
    if functions:
        literals.append(st.builds(lambda positive, s, t: Literal(positive, "r", (s, t)),
                                  st.booleans(), terms, terms))
    literal = st.one_of(*literals)
    clauses = draw(st.lists(st.frozensets(literal, min_size=1, max_size=3), max_size=5))
    units = [frozenset({Literal(False, EQ, pair)}) for pair in apart]
    if len(group) > 1:
        units.append(frozenset({Literal(True, DISTINCT, tuple(group))}))
    return units + clauses


@pytest.fixture
def builtin_prover() -> ProverConfig:
    return ProverConfig("builtin", timeout_s=10)


ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, status in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {number} ({title}): {status}")
