"""The benchmark's own tests: python3 -m pytest perfbench -q

They check the benchmark's independent answers (the evaluator against
the hand-derived verdicts, the planted violations against a direct
count) and run every workload's checks on a small slice.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus_cases  # noqa: E402
import graphs  # noqa: E402
import workloads  # noqa: E402
from evaluator import conforms  # noqa: E402


def test_evaluator_agrees_with_hand_derived_verdicts():
    patterned = [c for c in corpus_cases.HAND_WRITTEN if c.pattern is not None]
    assert len(patterned) >= 15
    for case in patterned:
        assert conforms(case.pattern, case.triples) == case.conforms, case.name


def test_corpus_keeps_every_hand_case_but_the_order_ones():
    names = [c.name for c in corpus_cases.HAND_WRITTEN]
    assert len(names) == len(set(names)) == 53
    assert not any("less_than" in n for n in names)
    assert len(corpus_cases.corpus(7)) == 63


def test_random_cases_follow_the_seed():
    assert corpus_cases.random_cases(5) == corpus_cases.random_cases(5)
    assert corpus_cases.random_cases(5) != corpus_cases.random_cases(6)
    verdicts = {c.conforms for s in range(20) for c in corpus_cases.random_cases(s)}
    assert verdicts == {True, False}


def _violations(g: graphs.ScaleGraph) -> set[tuple[str, str]]:
    """Violations counted straight from the triples, one rule per constraint."""
    people = {s for s, p, o in g.triples if p == "a" and o == "ex:Person"}
    out = set()
    for person in people:
        names = [o for s, p, o in g.triples if s == person and p == "ex:name"]
        friends = [o for s, p, o in g.triples if s == person and p == "ex:knows"]
        known_by = [s for s, p, o in g.triples if o == person and p == "ex:knows"]
        iri = graphs.EX + person[len("ex:"):]
        if len(names) != 1 or not all(n.startswith('"') for n in names) \
                or any(f.startswith('"') for f in friends):
            out.add((graphs.EX + "PersonShape", iri))
        if g.with_inverse and len(known_by) > graphs.KNOWN_BY:
            out.add((graphs.EX + "KnownShape", iri))
    return out


@pytest.mark.parametrize("people,violating,inverse", [
    (25, False, True), (25, True, True), (60, True, False), (120, True, False),
])
def test_planted_violations_are_the_only_ones(people, violating, inverse):
    for seed in range(3):
        g = graphs.make_graph(people, violating, inverse, random.Random(seed))
        assert _violations(g) == set(g.planted)
        assert bool(g.planted) == violating
        assert len(graphs.expected_graph_atoms(g)) == len(g.triples)


def test_problem_graph_atoms_reads_every_positive_graph_unit():
    text = (
        "tff(graph_pos_1, axiom, 'http://example.org/knows'("
        "'http://example.org/p0', 'http://example.org/p1')).\n"
        "tff(graph_pos_2, axiom, isA('http://example.org/p0', "
        "'http://example.org/Person')).\n"
        "tff(graph_pos_3, axiom, 'http://example.org/name'("
        "'http://example.org/p0', '\"n0\"')).\n"
        "tff(graph_neg_1, axiom, ~((?[X, Y]: isA(X, Y)))).\n"
    )
    assert workloads.problem_graph_atoms(text) == [
        ("http://example.org/knows", "http://example.org/p0", "http://example.org/p1"),
        ("isA", "http://example.org/p0", "http://example.org/Person"),
        ("http://example.org/name", "http://example.org/p0", '"n0"'),
    ]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


# the short slice of static-analysis keeps F1, F2 and F3
@pytest.mark.parametrize("workload,failed", [
    ("corpus-validate", 0), ("static-analysis", 3), ("graph-scale", 0),
])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_mode_checks_every_answer(workload, failed, trace):
    proc = _run(HERE.parent, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", trace, "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] > 0
    assert result["failed"] == failed, proc.stderr
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    assert set(result["metrics"]) == names


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "corpus-validate", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
