"""Static Satisfiable and NotContained from chased candidate graphs.

`witness` builds candidate RDF graphs by a chase; the built-in prover
uses one only when every unit of the problem holds on its closed
structure, and the oracle then confirms it.  These tests check the
answers on generated shape families, that a candidate which fails the
check never gives Unsatisfiable or Contained, and that each witness,
written as N-Triples and read back, is what the oracle confirms.
"""

import json
import re
import subprocess
import sys

import pytest

from conftest import load_shapes, shape_family, within
from shacl2fol import cli, closed_structure, oracle, rdf, witness
from shacl2fol.decide import DecisionTask, ProverConfig, TaskKind, build_problem, run_task
from shacl2fol.errors import Clock, TimeBudgetExceeded
from test_cli import LOADED_MODULES, PREFIX, _fresh_env

EX = "http://example.org/"
SIZES = (4, 30, 100)
NO_CLOCK = Clock().tick  # a clock with no deadline


def raised(text: str, n: int) -> str:
    """The family with the first `sh:minCount` of its last shape raised to 3."""
    out = re.sub(rf"(ex:S{n - 1} .*?sh:minCount )\d", r"\g<1>3", text)
    assert out != text
    return out


def decide(capsys, argv: list[str]) -> tuple[int, dict]:
    code = cli.main([*argv, "--prover", "builtin", "--json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture(scope="module")
def families(tmp_path_factory):
    """Each size's family, and the family with one sh:minCount raised."""
    d = tmp_path_factory.mktemp("families")
    out = {}
    for n in SIZES:
        text = shape_family(n)
        (d / f"f{n}.ttl").write_text(text)
        (d / f"f{n}_raised.ttl").write_text(raised(text, n))
        out[n] = (str(d / f"f{n}.ttl"), str(d / f"f{n}_raised.ttl"))
    return out


@pytest.mark.parametrize("n", SIZES)
def test_strong_sat_of_a_family_has_a_confirmed_witness(families, tmp_path, capsys, n):
    # the default timeout: no --timeout
    shapes = families[n][0]
    out = tmp_path / "w.nt"
    code, got = decide(capsys, ["sat", shapes, "--strong-sat", "--witness", str(out)])
    assert (code, got["verdict"], got["approximate"]) == (0, "Satisfiable", False)
    triples = got["witness"]["nTriples"]
    assert got["proverDetail"] == f"candidate graph of {triples.count(chr(10))} triples"
    assert got["witness"]["confirmed"] is True
    assert out.read_text() == triples
    # read back, the witness conforms, and each shape has an instance in it
    assert cli.main(["oracle", shapes, str(out)]) == 0
    assert capsys.readouterr().out == "Conforms\n"
    sg, g = load_shapes(open(shapes).read()), rdf.parse_file(out)
    nodes = sorted(g.constants())
    assert all(any(oracle.has_shapes(sg, g, [(name, node)]) for node in nodes)
               for name in sg.shape_names())


@pytest.mark.parametrize("n", SIZES)
def test_a_raised_min_count_in_b_is_not_contained(families, tmp_path, capsys, n):
    a, b = families[n]
    out = tmp_path / "w.nt"
    code, got = decide(capsys, ["contains", a, b, "--witness", str(out)])
    assert (code, got["verdict"]) == (1, "NotContained")
    assert got["proverDetail"].startswith("candidate graph of ")
    assert got["witness"]["confirmed"] is True
    # read back, the witness conforms to A and violates B
    assert cli.main(["oracle", a, str(out)]) == 0
    assert cli.main(["oracle", b, str(out)]) == 1
    assert capsys.readouterr().out.startswith("Conforms\nDoesNotConform\n")


MIN3 = PREFIX + "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n" \
    "  sh:property [ sh:path ex:p ; sh:minCount 3 ] .\n"
KIND = PREFIX + "ex:S a sh:NodeShape ; sh:targetSubjectsOf ex:q ; sh:nodeKind sh:IRI .\n"
CLASS = PREFIX + "ex:S a sh:NodeShape ; sh:targetClass ex:C ;\n" \
    "  sh:property [ sh:path ex:p ; sh:minCount 1 ] .\n"


@pytest.mark.parametrize("argv, code, verdict, triples", [
    (["sat", "{min3}"], 0, "Satisfiable", 3),
    (["contains", "{empty}", "{kind}"], 1, "NotContained", 1),
    (["contains", "{empty}", "{class}"], 1, "NotContained", 1),
], ids=["sat_min3", "empty_in_kind", "empty_in_class"])
def test_static_analysis_answers_without_the_clausal_procedures(tmp_path, argv, code,
                                                                verdict, triples):
    # a fresh interpreter: the candidate decides, and `miniprover` is never loaded
    paths = {}
    for name, text in (("min3", MIN3), ("empty", PREFIX), ("kind", KIND), ("class", CLASS)):
        paths[name] = tmp_path / f"{name}.ttl"
        paths[name].write_text(text)
    argv = [a.format(**paths) for a in argv] + ["--prover", "builtin", "--json"]
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, "shacl2fol.cli",
                           json.dumps(argv)],
                          env=_fresh_env(), capture_output=True, text=True, timeout=60)
    *printed, last = proc.stdout.splitlines()
    got, loaded = json.loads("\n".join(printed)), json.loads(last)
    assert (loaded["code"], got["verdict"]) == (code, verdict)
    assert got["proverDetail"] == f"candidate graph of {triples} triples"
    assert got["witness"]["confirmed"] is True
    assert "shacl2fol.witness" in loaded["modules"] and "shacl2fol.oracle" in loaded["modules"]
    assert not {"shacl2fol.miniprover", "shacl2fol.clausify"} & set(loaded["modules"])


def dropping_a_value(monkeypatch):
    """Mutate the chase: each candidate loses its first triple, a value
    the shapes require, so it fails the check."""
    def mutated(build):
        def candidates(*args):
            for w in build(*args):
                yield witness.Witness(rdf.Graph(sorted(w.graph)[1:]), w.instances)
        return candidates

    for name in ("for_satisfiability", "for_containment"):
        monkeypatch.setattr(witness, name, mutated(getattr(witness, name)))


@pytest.mark.parametrize("argv", [
    ["sat", "{min3}"],
    ["sat", "{f4}", "--strong-sat"],
    ["contains", "{f4}", "{f4_raised}"],
], ids=["min3", "family_strong_sat", "family_raised"])
def test_a_candidate_that_fails_the_check_decides_nothing(families, tmp_path, capsys,
                                                          monkeypatch, argv):
    # the mutated candidate's closed structure fails a unit on which every
    # model of the candidate's problem agrees; that refutes the candidate,
    # not the problem, so the answer is left to the clausal procedures
    min3 = tmp_path / "min3.ttl"
    min3.write_text(MIN3)
    argv = [a.format(min3=min3, f4=families[4][0], f4_raised=families[4][1]) for a in argv]
    dropping_a_value(monkeypatch)
    out = tmp_path / "w.nt"
    code, got = decide(capsys, [*argv, "--timeout", "2", "--witness", str(out)])
    assert got["verdict"] not in ("Unsatisfiable", "Contained")
    assert not got["proverDetail"].startswith("candidate graph")
    assert "witness" not in got and not out.exists()


def test_the_mutated_candidate_fails_its_structure():
    # the check of the mutated candidate itself: not Satisfiable
    sg = load_shapes(MIN3)
    task = DecisionTask(TaskKind.SATISFIABILITY, sg)
    (w,) = witness.for_satisfiability(sg, [], NO_CLOCK)
    assert len(w.graph) == 3
    problem = build_problem(task).formulas
    dropped = build_problem(task, rdf.Graph(sorted(w.graph)[1:])).formulas
    assert closed_structure.ClosedStructure(
        closed_structure._named(dropped)[0]).evaluate().status == "Unsatisfiable"
    got = closed_structure.decide_units(problem, within(10), [("dropped", dropped, "w0")])
    assert (got.status, got.candidate) == ("Satisfiable", None)
    assert got.detail.startswith("finite model of size ")
    chased = build_problem(task, w.graph).formulas
    got = closed_structure.decide_units(problem, within(10),
                                        [("dropped", dropped, "w0"), ("chased", chased, w)])
    assert (got.status, got.detail, got.candidate) == ("Satisfiable", "chased", w)


def test_an_unconfirmed_witness_is_flagged_and_not_written(tmp_path, capsys, monkeypatch):
    shapes = tmp_path / "min3.ttl"
    shapes.write_text(MIN3)
    out = tmp_path / "w.nt"
    monkeypatch.setattr(oracle, "evaluate", lambda sg, g: oracle.ValidationReport(False))
    assert cli.main(["sat", str(shapes), "--prover", "builtin", "--witness", str(out)]) == 0
    assert capsys.readouterr().out.startswith("Satisfiable (unconfirmed)\n")
    code, got = decide(capsys, ["sat", str(shapes)])
    assert (code, got["witness"]["confirmed"]) == (0, False)
    assert not out.exists()


def test_no_file_when_no_candidate_decides(tmp_path, capsys):
    # the empty shape graph is Satisfiable on the structure of its facts
    shapes = tmp_path / "empty.ttl"
    shapes.write_text(PREFIX)
    out = tmp_path / "w.nt"
    code, got = decide(capsys, ["sat", str(shapes), "--witness", str(out)])
    assert (code, got["proverDetail"]) == (0, "facts-only structure of 1 elements")
    assert "witness" not in got and not out.exists()


def test_witness_is_an_option_of_sat_and_contains_only(tmp_path, capsys):
    shapes = tmp_path / "min3.ttl"
    shapes.write_text(MIN3)
    for argv in (["validate", str(shapes), str(shapes)], ["emit", "sat", str(shapes)]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--witness", str(tmp_path / "w.nt")])
        assert exc.value.code == 64
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main(["contains", "--help"])
    assert "--witness FILE" in capsys.readouterr().out


@pytest.mark.parametrize("text, kinds", [
    # the objects of ex:p: an IRI, a blank node and a literal
    (PREFIX + "ex:S sh:targetObjectsOf ex:p ; sh:nodeKind sh:IRI .\n", 3),
    # a class target's focus cannot be a literal
    (PREFIX + "ex:S sh:targetClass ex:C ; sh:nodeKind sh:IRI .\n", 2),
    # a target node is the one focus, in every kind
    (PREFIX + "ex:S sh:targetNode ex:a ; sh:property [ sh:path ex:p ; sh:minCount 1 ] .\n", 0),
])
def test_containment_candidates_take_each_kind_a_target_allows(text, kinds):
    # A is empty, so nothing is chased: each candidate holds B's focus alone
    got = list(witness.for_containment(load_shapes(PREFIX), load_shapes(text), NO_CLOCK))
    assert len(got) == kinds
    assert len({g.graph for g in got}) == kinds


@pytest.mark.parametrize("constraint", [
    "sh:property [ sh:path ( ex:p ex:q ) ; sh:minCount 1 ]",
    "sh:property [ sh:path ex:p ; sh:equals ex:q ]",
    "sh:in ()",
    "sh:property [ sh:path ex:p ; sh:minCount 1 ; sh:nodeKind sh:Literal ;"
    " sh:class ex:C ]",
], ids=["sequence_path", "property_pair", "empty_in", "literal_with_class"])
def test_what_the_chase_does_not_build_gives_no_candidate(constraint):
    sg = load_shapes(PREFIX + f"ex:S sh:targetNode ex:a ; {constraint} .\n")
    assert list(witness.for_satisfiability(sg, [], NO_CLOCK)) == []


def test_the_chase_meets_counts_listed_values_and_references():
    sg = load_shapes(PREFIX + """
    ex:S sh:targetNode ex:a ;
      sh:property [ sh:path ex:p ; sh:minCount 2 ; sh:maxCount 2 ; sh:hasValue ex:v ] ;
      sh:property [ sh:path [ sh:inversePath ex:q ] ; sh:minCount 1 ; sh:node ex:T ] ;
      sh:property [ sh:path ex:r ; sh:minCount 1 ; sh:in ( "x" "y" ) ] .
    ex:T sh:property [ sh:path ex:s ; sh:minCount 1 ; sh:class ex:D ] .
    """)
    (w,) = witness.for_satisfiability(sg, [], NO_CLOCK)
    g = w.graph
    a = rdf.iri(EX + "a")
    assert len(g.objects(a, EX + "p")) == 2 and rdf.iri(EX + "v") in g.objects(a, EX + "p")
    assert g.objects(a, EX + "r") == [rdf.literal("x")]
    (source,) = g.subjects(EX + "q", a)
    (value,) = g.objects(source, EX + "s")
    assert g.objects(value, rdf.RDF_TYPE) == [rdf.iri(EX + "D")]
    assert oracle.evaluate(sg, g).conforms
    task = DecisionTask(TaskKind.SATISFIABILITY, sg, prover=ProverConfig("builtin", timeout_s=10))
    got = run_task(task)
    assert (got.verdict.value, got.prover_detail, got.confirmed) \
        == ("Satisfiable", "candidate graph of 6 triples", True)


@pytest.mark.parametrize("kind", ["Literal", "BlankNode"])
def test_an_instance_with_no_triple_is_named_in_the_candidates_problem(tmp_path, capsys, kind):
    # the instance is a fresh literal or blank node with no triple about it,
    # so the empty graph shows it only once the node is one of the constants
    shapes = tmp_path / "kind.ttl"
    shapes.write_text(PREFIX + f"ex:S a sh:NodeShape ; sh:nodeKind sh:{kind} .\n")
    code, got = decide(capsys, ["sat", str(shapes), "--strong-sat"])
    assert (code, got["proverDetail"]) == (0, "candidate graph of 0 triples")
    assert got["witness"] == {"nTriples": "", "confirmed": True}


def test_the_chase_reports_its_steps_to_the_clock(capsys, tmp_path):
    # 100 counts of 32 values, each of a 300-constraint shape: the chase
    # reads the values' constraints once per count, gives up past 4,096
    # triples, and reports each step to the clock, whose deadline stops it
    inner = " ; ".join(f"sh:property [ sh:path ex:q{i} ; sh:minCount 1 ; sh:class ex:D{i} ]"
                       for i in range(300))
    outer = " ; ".join(f"sh:property [ sh:path ex:p{i} ; sh:minCount 32 ; sh:node ex:T ]"
                       for i in range(100))
    sg = load_shapes(PREFIX + f"ex:S sh:targetNode ex:a ; {outer} .\nex:T {inner} .\n")
    assert list(witness.for_satisfiability(sg, [], NO_CLOCK)) == []  # past 4,096 triples
    steps = 0

    def tick():
        nonlocal steps
        steps += 1
        if steps == 1_000:
            raise TimeBudgetExceeded()

    with pytest.raises(TimeBudgetExceeded):
        list(witness.for_satisfiability(sg, [], tick))
