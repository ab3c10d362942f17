import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the shared corpus module

from shacl2fol import rdf, shapes
from shacl2fol.decide import ProverConfig


def load_shapes(ttl: str) -> shapes.ShapeGraph:
    return shapes.extract_shape_graph(rdf.parse_document(ttl, rdf.Syntax.TURTLE))


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


def load_graph(ttl: str) -> rdf.Graph:
    return rdf.parse_document(ttl, rdf.Syntax.TURTLE)


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
