import codecs
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from conftest import node_chain, not_chain, path_list
from corpus import CASES
from shacl2fol import cli, decide, miniprover
from shacl2fol.rdf import iri
from shacl2fol.shapes import And, HasShape, check_shape_graph
from shacl2fol.tptp_parse import parse_tptp

PREFIX = """\
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
"""
EX = "http://example.org/"

SHAPES = PREFIX + """
ex:S a sh:NodeShape ; sh:targetClass ex:C ;
  sh:property [ sh:path ex:p ; sh:minCount 1 ] .
"""

CONTRADICTION = PREFIX + """
ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:nodeKind sh:IRI .
ex:T a sh:NodeShape ; sh:targetNode ex:a ; sh:nodeKind sh:Literal .
"""

OK_DATA = PREFIX + "ex:a a ex:C ; ex:p ex:b ."
BAD_DATA = PREFIX + "ex:a a ex:C ."


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return {
        "shapes": write("shapes.ttl", SHAPES),
        "contradiction": write("contradiction.ttl", CONTRADICTION),
        "ok": write("ok.ttl", OK_DATA),
        "bad": write("bad.ttl", BAD_DATA),
        "dir": tmp_path,
    }


BUILTIN = ["--prover", "builtin", "--timeout", "10"]


class TestExitCodes:
    def test_sat_positive(self, files, capsys):
        assert cli.main(["sat", files["shapes"], *BUILTIN]) == 0
        assert capsys.readouterr().out.startswith("Satisfiable")

    def test_sat_negative(self, files, capsys):
        assert cli.main(["sat", files["contradiction"], *BUILTIN]) == 1
        assert capsys.readouterr().out.startswith("Unsatisfiable")

    def test_validate_both_ways(self, files):
        assert cli.main(["validate", files["shapes"], files["ok"], *BUILTIN]) == 0
        assert cli.main(["validate", files["shapes"], files["bad"], *BUILTIN]) == 1

    def test_contains_self(self, files, capsys):
        code = cli.main(["contains", files["shapes"], files["shapes"], *BUILTIN])
        assert code == 0
        assert capsys.readouterr().out.startswith("Contained")

    def test_usage_error(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sat"])
        assert exc.value.code == 64

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 64

    def test_missing_file(self, files, capsys):
        assert cli.main(["sat", str(files["dir"] / "nope.ttl"), *BUILTIN]) == 65

    def test_malformed_turtle(self, files, capsys):
        bad = files["dir"] / "broken.ttl"
        bad.write_text("ex:a ex:b")
        assert cli.main(["sat", str(bad), *BUILTIN]) == 65

    def test_emit_wrong_file_count(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["emit", "validate", files["shapes"]])
        assert exc.value.code == 64

    @pytest.mark.parametrize("task, second", [("contains", "shapes"), ("validate", "ok")])
    def test_emit_takes_strong_sat_only_for_sat(self, files, capsys, task, second):
        out = files["dir"] / "never.p"
        with pytest.raises(SystemExit) as exc:
            cli.main(["emit", task, files["shapes"], files[second], "--strong-sat",
                      "--out", str(out)])
        assert exc.value.code == 64
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: shacl2fol ")
        assert error.endswith("unrecognized arguments: --strong-sat")
        assert not out.exists()


class TestProverDiscovery:
    @pytest.mark.parametrize("kind", ["e", "auto"])
    def test_e_found_under_its_short_name(self, files, tmp_path, monkeypatch, capsys, kind):
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        exe = bin_dir / "E"
        exe.write_text('#!/bin/sh\necho "% SZS status Unsatisfiable"\n')
        exe.chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        monkeypatch.delenv("SHACL2FOL_E_PATH", raising=False)
        monkeypatch.delenv("SHACL2FOL_VAMPIRE_PATH", raising=False)
        assert cli.main(["sat", files["contradiction"], "--prover", kind]) == 1
        out = capsys.readouterr().out
        assert out.startswith("Unsatisfiable") and "prover: e " in out

    @pytest.mark.parametrize("kind", ["auto", "builtin"])
    def test_prover_path_needs_an_external_prover(self, files, capsys, kind):
        # neither `auto` nor `builtin` would run the path given, so it is
        # refused rather than silently ignored
        code = cli.main(["sat", files["shapes"], "--prover", kind,
                         "--prover-path", str(files["dir"] / "vampire"), "--json"])
        assert code == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "prover path" in captured.err


def _quick_start() -> list[list[str]]:
    """The commands of README's *Quick start*, each as its words."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Quick start\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line and line[0] != "#"]


def test_the_quick_start_runs_as_documented(tmp_path, monkeypatch, capsys):
    # one corpus case as every file the commands name; with no external
    # prover found, `auto` is the bundled prover on any machine
    case = CASES[0]
    for name, text in [("shapes.ttl", case.shapes_ttl), ("a.ttl", case.shapes_ttl),
                       ("b.ttl", case.shapes_ttl), ("data.ttl", case.data_ttl)]:
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(decide, "_find_executable", lambda kind: None)
    commands = _quick_start()
    assert {program for program, *_ in commands} == {"shacl2fol", "shacl2fol-miniprover"}
    assert any("--witness" in command for command in commands)
    for program, *argv in commands:
        if program == "shacl2fol-miniprover":
            assert miniprover.main(argv) == 0
            assert re.fullmatch(rf"% SZS status \w+ for {re.escape(argv[0])}\n(% .*\n)?",
                                capsys.readouterr().out)
            continue
        code = cli.main(argv)
        out = capsys.readouterr().out
        if argv[0] == "emit":
            assert (code, out) == (0, argv[argv.index("--out") + 1] + "\n")
            continue
        verdict = decide.Verdict(out.split()[0])
        expected = 2 if verdict is decide.Verdict.UNKNOWN else \
            0 if verdict in decide.POSITIVE_VERDICTS else 1
        assert code == expected, argv
        if "--witness" in argv:
            assert (tmp_path / argv[argv.index("--witness") + 1]).is_file()


class TestJson:
    def test_decision_schema(self, files, capsys):
        assert cli.main(["sat", files["shapes"], "--json", *BUILTIN]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["verdict"] == "Satisfiable"
        assert set(got) == {
            "verdict", "approximate", "szsStatus", "problemFile",
            "proverTimeMs", "prover", "proverDetail",
        }

    def test_oracle_schema(self, files, capsys):
        assert cli.main(["oracle", files["shapes"], files["bad"], "--json"]) == 1
        got = json.loads(capsys.readouterr().out)
        assert got["conforms"] is False
        assert got["violations"][0]["shape"].endswith("S")
        assert got["violations"][0]["focusNode"].endswith("a")


class TestOracle:
    def test_conforms(self, files, capsys):
        assert cli.main(["oracle", files["shapes"], files["ok"]]) == 0
        assert capsys.readouterr().out.startswith("Conforms")

    def test_violations_listed(self, files, capsys):
        assert cli.main(["oracle", files["shapes"], files["bad"]]) == 1
        out = capsys.readouterr().out
        assert out.startswith("DoesNotConform")
        assert "violates" in out

    def test_wide_and_conforms(self, files, capsys):
        # the members are one flat conjunction, so no walk recurses per member
        n = 1500
        members = " ".join(f"ex:T{i}" for i in range(n))
        shapes_ttl = files["dir"] / "wide.ttl"
        shapes_ttl.write_text(PREFIX + f"ex:S sh:targetNode ex:a ; sh:and ( {members} ) .")
        sg = cli._load_shapes(str(shapes_ttl))
        check_shape_graph(sg)
        body = next(s for s in sg if s.name == iri(EX + "S")).constraint
        assert body == And(tuple(HasShape(iri(f"{EX}T{i}")) for i in range(n)))
        assert cli.main(["oracle", str(shapes_ttl), files["ok"]]) == 0
        assert capsys.readouterr().out == "Conforms\n"


class TestEmit:
    def test_emit_writes_parseable_problem(self, files, capsys):
        out = str(files["dir"] / "problem.p")
        assert cli.main(["emit", "sat", files["shapes"], "--out", out]) == 0
        assert capsys.readouterr().out.strip() == out
        with open(out, encoding="utf-8") as fh:
            assert parse_tptp(fh.read())

    def test_emit_validate_fof(self, files):
        out = str(files["dir"] / "problem_fof.p")
        code = cli.main([
            "emit", "validate", files["shapes"], files["ok"],
            "--dialect", "fof", "--out", out,
        ])
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        assert "fof(" in text and "tff(" not in text

    def test_emit_json(self, files, capsys):
        out = str(files["dir"] / "problem2.p")
        assert cli.main(["emit", "sat", files["shapes"], "--json", "--out", out]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got == {"problemFile": out, "approximate": False}

    @pytest.mark.parametrize("n", [1500, 10_000])
    def test_emit_sat_of_a_wide_and(self, files, n, capsys):
        # the lowering nests the conjunction n deep; rendering it must not
        # recurse per member
        members = " ".join(f"ex:T{i}" for i in range(n))
        shapes_ttl = files["dir"] / "wide.ttl"
        shapes_ttl.write_text(PREFIX + f"ex:S sh:targetNode ex:a ; sh:and ( {members} ) .")
        out = files["dir"] / "wide.p"
        assert cli.main(["emit", "sat", str(shapes_ttl), "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == str(out)
        assert f"& hasShape(X, '{EX}T{n - 1}'))" in out.read_text()

    def test_sat_of_a_wide_and_keeps_its_timeout(self, files):
        # the built-in prover clausifies the 1,500-deep conjunction in one
        # walk with its own stack, and its model search reads the clock
        # inside the 1,501-literal clause
        members = " ".join(f"ex:T{i}" for i in range(1500))
        shapes_ttl = files["dir"] / "wide.ttl"
        shapes_ttl.write_text(PREFIX + f"ex:S sh:targetNode ex:a ; sh:and ( {members} ) .")
        start = time.monotonic()
        code = cli.main(["sat", str(shapes_ttl), "--prover", "builtin", "--timeout", "2"])
        assert code in (0, 1, 2)
        assert time.monotonic() - start < 4


class TestProblemFile:
    def test_decisions_without_out_keep_no_file(self, files, tmp_path, monkeypatch, capsys):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        assert cli.main(["sat", files["shapes"], *BUILTIN]) == 0
        assert cli.main(["validate", files["shapes"], files["ok"], *BUILTIN]) == 0
        assert cli.main(["contains", files["shapes"], files["shapes"], *BUILTIN]) == 0
        assert "problem:" not in capsys.readouterr().out
        assert not list(tmp.glob("shacl2fol_*"))
        # emit without --out writes the problem to a temp file and keeps it
        assert cli.main(["emit", "sat", files["shapes"]]) == 0
        kept = list(tmp.glob("shacl2fol_*.p"))
        assert len(kept) == 1 and capsys.readouterr().out.strip() == str(kept[0])

    def test_problem_file_reported_only_with_out(self, files, capsys):
        assert cli.main(["sat", files["shapes"], "--json", *BUILTIN]) == 0
        assert json.loads(capsys.readouterr().out)["problemFile"] == ""
        out = str(files["dir"] / "kept.p")
        assert cli.main(["sat", files["shapes"], "--out", out, *BUILTIN]) == 0
        assert f"problem: {out}" in capsys.readouterr().out
        with open(out, encoding="utf-8") as fh:
            parse_tptp(fh.read())

    def test_out_over_a_longer_file_leaves_exactly_the_new_problem(self, files, capsys):
        out = files["dir"] / "kept.p"
        out.write_text("% an older, longer problem\n" * 1000)
        assert cli.main(["validate", files["shapes"], files["ok"], "--out", str(out), *BUILTIN]) == 0
        written = out.read_text()
        assert cli.main(["emit", "validate", files["shapes"], files["ok"],
                         "--out", str(files["dir"] / "emitted.p")]) == 0
        assert written == (files["dir"] / "emitted.p").read_text()

    @pytest.mark.parametrize("argv, code", [
        (["validate", "{shapes}", "{ok}", *BUILTIN], 0),
        (["validate", "{shapes}", "{bad}", *BUILTIN], 1),
        (["emit", "validate", "{shapes}", "{ok}"], 0),
    ], ids=["validate-conforms", "validate-violates", "emit"])
    def test_out_to_dev_null(self, files, capsys, argv, code):
        argv = [a.format(**files) for a in argv]
        assert cli.main([*argv, "--out", os.devnull]) == code
        assert capsys.readouterr().err == ""


class TestConfigPlumbing:
    def test_equivalent_encodings_agree(self, files):
        a = cli.main(["sat", files["contradiction"], "--dialect", "fof", *BUILTIN])
        b = cli.main(["sat", files["contradiction"], "--dialect", "tff", *BUILTIN])
        assert a == b == 1

    def test_strong_sat_flag(self, files, tmp_path):
        untargeted = tmp_path / "untargeted.ttl"
        untargeted.write_text(PREFIX + """
        ex:S a sh:NodeShape ;
          sh:and ( [ sh:nodeKind sh:IRI ] [ sh:nodeKind sh:Literal ] ) .
        """)
        assert cli.main(["sat", str(untargeted), *BUILTIN]) == 0
        assert cli.main(["sat", str(untargeted), "--strong-sat", *BUILTIN]) == 1

    @pytest.mark.parametrize("argv, code", [
        (["{f}", "--strong-sat"], 1),
        (["--strong-sat", "{f}"], 1),
        (["--strong-sat", "{f}", "--strong-sat"], 1),
        (["--strong-sat=", "{f}"], 1),
        ([f"--strong-sat={EX}T", "{f}"], 0),
        (["{f}", f"--strong-sat={EX}T"], 0),
        (["{f}", f"--strong-sat={EX}T,{EX}S"], 1),
        (["{f}", "--strong-sat", f"{EX}T"], 0),
        (["--strong-sat", f"{EX}S", "{f}"], 1),
        (["--strong", "{f}"], 1),
        (["--strong-s", "{f}"], 1),
        (["--stro", "{f}"], 1),
        (["{f}", "--strong"], 1),
    ], ids=["after", "before", "twice", "empty_list", "list_before", "list_after",
            "list_of_two", "list_by_space_after", "list_by_space_before",
            "abbreviated_before", "abbreviated_s_before", "abbreviated_stro_before",
            "abbreviated_after"])
    def test_strong_sat_before_or_after_the_file(self, tmp_path, capsys, argv, code):
        # a bare --strong-sat, every shape, takes no file after it as its
        # list, nor does an abbreviation argparse reads as it
        untargeted = tmp_path / "untargeted.ttl"
        untargeted.write_text(PREFIX + "ex:S a sh:NodeShape ; sh:and ( [ sh:nodeKind sh:IRI ]"
                              " [ sh:nodeKind sh:Literal ] ) .\nex:T a sh:NodeShape .\n")
        argv = [a.format(f=untargeted) for a in argv]
        decided, emitted = tmp_path / "decided.p", tmp_path / "emitted.p"
        assert cli.main(["sat", *argv, *BUILTIN, "--out", str(decided)]) == code
        assert capsys.readouterr().out.startswith("Unsatisfiable" if code else "Satisfiable")
        # emit sat reads the same forms: it writes what sat --out writes
        assert cli.main(["emit", "sat", *argv, "--out", str(emitted)]) == 0
        assert emitted.read_text() == decided.read_text()
        assert "tff(strong_sat, axiom" in decided.read_text()

    def test_the_help_names_the_strong_sat_forms(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["sat", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "every shape with the bare flag, before or after the file" in text
        assert "the listed ones with --strong-sat=IRI[,IRI...]" in text


STAR_SHAPES = SHAPES + """
ex:T a sh:NodeShape ; sh:targetNode ex:a ;
  sh:property [ sh:path [ sh:zeroOrMorePath ex:p ] ; sh:nodeKind sh:IRI ] .
"""


@pytest.mark.parametrize("task, inputs, options", [
    ("sat", ["star"], []),
    ("sat", ["contradiction"], ["--strong-sat"]),
    ("contains", ["star", "shapes"], []),
    ("validate", ["star", "ok"], []),
    ("validate", ["star", "bad"], ["--dialect", "fof"]),
    ("validate", ["star", "ok"], ["--star", "ground"]),
], ids=["sat", "sat-strong", "contains", "validate-tff", "validate-fof", "validate-ground"])
def test_out_writes_what_emit_writes(files, capsys, task, inputs, options):
    star = files["dir"] / "star.ttl"
    star.write_text(STAR_SHAPES)
    paths = [str(star) if name == "star" else files[name] for name in inputs]
    emitted, decided = files["dir"] / "emitted.p", files["dir"] / "decided.p"
    assert cli.main(["emit", task, *paths, *options, "--out", str(emitted)]) == 0
    assert cli.main([task, *paths, *options, *BUILTIN, "--out", str(decided)]) in (0, 1)
    assert decided.read_bytes() == emitted.read_bytes()


@pytest.mark.parametrize("task, inputs", [
    ("sat", ["star"]), ("contains", ["star", "shapes"]), ("validate", ["star", "ok"]),
])
def test_star_is_read_and_ignored(files, capsys, task, inputs):
    # validation grounds zero-or-more paths exactly and the other tasks
    # approximate them, whatever --star says; --help leaves it out
    star = files["dir"] / "star.ttl"
    star.write_text(STAR_SHAPES)
    paths = [str(star) if name == "star" else files[name] for name in inputs]
    texts = set()
    for options in ([], ["--star", "approx"], ["--star", "ground"]):
        out = files["dir"] / "emitted.p"
        assert cli.main(["emit", task, *paths, *options, "--out", str(out)]) == 0
        texts.add(out.read_bytes())
    assert len(texts) == 1
    with pytest.raises(SystemExit):
        cli.main([task, "--help"])
    assert "--star" not in capsys.readouterr().out


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("timeout", ["1e7", "1e300"])
def test_an_external_prover_takes_any_finite_timeout(files, timeout):
    # the wait for the prover polls at most 2**31 - 1 ms at a time; a
    # longer limit is the prover's own, passed in its argv
    stub = files["dir"] / "prover"
    stub.write_text('#!/bin/sh\necho "% SZS status Satisfiable"\n')
    stub.chmod(0o755)
    proc = subprocess.run(
        [sys.executable, "-m", "shacl2fol.cli", "validate", files["shapes"], files["ok"],
         "--prover", "e", "--prover-path", str(stub), "--timeout", timeout],
        env=_fresh_env(), capture_output=True, text=True, timeout=60,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "Conforms"


@pytest.mark.parametrize("timeout", ["nan", "inf", "1e400"])
def test_a_timeout_that_is_not_finite_is_a_usage_error(files, capsys, timeout):
    # an external prover's limit is a whole number of seconds, and the
    # built-in prover's clock would cut every attempt at once
    for prover in (["--prover", "e", "--prover-path", "/bin/false"],
                   ["--prover", "vampire", "--prover-path", "/bin/false"],
                   ["--prover", "builtin"], []):
        code = cli.main(["validate", files["shapes"], files["ok"], *prover, "--timeout", timeout])
        err = capsys.readouterr().err.splitlines()
        assert code == 64
        assert err == [f"shacl2fol: the timeout must be a finite number of seconds, "
                       f"not {float(timeout)}"]


def test_shared_parsers_keep_no_state_between_requests(files, tmp_path, capsys):
    # cli.main and miniprover.main each build their parser once per
    # process; every request must answer as in a fresh process
    untargeted = tmp_path / "untargeted.ttl"
    untargeted.write_text(PREFIX + """
    ex:S a sh:NodeShape ;
      sh:and ( [ sh:nodeKind sh:IRI ] [ sh:nodeKind sh:Literal ] ) .
    """)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sat", str(untargeted), "--timeout", "soon"])
    assert exc.value.code == 64
    strong, plain, fresh = (tmp_path / f"{n}.p" for n in ("strong", "plain", "fresh"))
    assert cli.main(["sat", str(untargeted), "--strong-sat", "--out", str(strong), *BUILTIN]) == 1
    assert cli.main(["sat", str(untargeted), "--out", str(plain), *BUILTIN]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "shacl2fol.cli", "sat", str(untargeted), "--out", str(fresh),
         *BUILTIN], env=_fresh_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert plain.read_text() == fresh.read_text() != strong.read_text()
    capsys.readouterr()

    assert miniprover.main([str(plain), "--parse-only"]) == 0
    assert capsys.readouterr().out == f"% SZS status Success for {plain}\n"
    assert miniprover.main([str(plain)]) == 0
    assert capsys.readouterr().out.startswith(f"% SZS status Satisfiable for {plain}\n")


class TestDeepShapeChain:
    # extraction reads each of the 252 shapes once, with no recursion
    # through the references; the decisions may give up, but none is wrong
    @pytest.mark.parametrize("command, codes", [
        (["oracle", "{chain}", "{data}"], {0}),
        (["emit", "sat", "{chain}", "--out", "{out}"], {0}),
        (["sat", "{chain}", "--prover", "builtin", "--timeout", "1"], {0, 2}),
        (["validate", "{chain}", "{data}", "--prover", "builtin", "--timeout", "1"], {0, 2}),
        (["contains", "{chain}", "{chain}", "--prover", "builtin", "--timeout", "1"], {0, 2}),
    ], ids=["oracle", "emit-sat", "sat", "validate", "contains"])
    def test_every_command_answers_a_250_deep_not_chain(self, tmp_path, capsys, command, codes):
        (tmp_path / "chain.ttl").write_text(not_chain(250))
        (tmp_path / "data.ttl").write_text(PREFIX + "ex:a ex:p ex:b .")
        paths = {name: tmp_path / f"{name}.ttl" for name in ("chain", "data")}
        argv = [a.format(out=tmp_path / "problem.p", **paths) for a in command]
        assert cli.main(argv) in codes
        assert "Traceback" not in capsys.readouterr().err

    def test_oracle_answers_a_10000_deep_not_chain(self, tmp_path, capsys):
        # the evaluator keeps the shape references it follows on its own stack
        (tmp_path / "chain.ttl").write_text(not_chain(10_000))
        (tmp_path / "data.ttl").write_text(PREFIX + "ex:a ex:p ex:b .")
        assert cli.main(["oracle", str(tmp_path / "chain.ttl"), str(tmp_path / "data.ttl")]) == 0
        assert capsys.readouterr().out.strip() == "Conforms"

    def test_oracle_answers_a_10000_deep_node_chain(self, tmp_path, capsys):
        shapes, data = node_chain(10_000, "sh:nodeKind sh:IRI")
        (tmp_path / "chain.ttl").write_text(shapes)
        (tmp_path / "data.ttl").write_text(data)
        assert cli.main(["oracle", str(tmp_path / "chain.ttl"), str(tmp_path / "data.ttl")]) == 0
        out, err = capsys.readouterr()
        assert out.strip() == "Conforms" and "Traceback" not in err


class TestLongPathList:
    # a path list is one node whatever its length, and every layer walks
    # its members in a loop
    @pytest.mark.parametrize("alternative", [True, False], ids=["alternative", "sequence"])
    @pytest.mark.parametrize("command", [
        ["oracle", "{shapes}", "{data}"],
        ["emit", "validate", "{shapes}", "{data}", "--out", "{out}"],
        ["sat", "{shapes}", "--prover", "builtin", "--timeout", "1"],
        ["validate", "{shapes}", "{data}", "--prover", "builtin", "--timeout", "1"],
        ["contains", "{shapes}", "{shapes}", "--prover", "builtin", "--timeout", "1"],
    ], ids=["oracle", "emit-validate", "sat", "validate", "contains"])
    def test_every_command_answers_a_1500_member_list(self, tmp_path, capsys, command, alternative):
        (tmp_path / "shapes.ttl").write_text(path_list(1500, alternative))
        (tmp_path / "data.ttl").write_text(PREFIX + "ex:a ex:p0 ex:b .")
        paths = {name: tmp_path / f"{name}.ttl" for name in ("shapes", "data")}
        argv = [a.format(out=tmp_path / "problem.p", **paths) for a in command]
        start = time.monotonic()
        assert cli.main(argv) in {0, 1, 2}
        assert time.monotonic() - start < 3
        assert "Traceback" not in capsys.readouterr().err


class TestDeeplyNestedPath:
    # path constructors nested inside each other are still walked by
    # recursion, one frame per level: 1,500 levels pass Python's limit, and
    # the input is reported as nested too deeply
    @pytest.mark.parametrize("command", [
        ["oracle", "{shapes}", "{data}"],
        ["emit", "sat", "{shapes}", "--out", "{out}"],
        ["sat", "{shapes}", "--prover", "builtin", "--timeout", "1"],
    ], ids=["oracle", "emit-sat", "sat"])
    def test_1500_nested_inverse_paths_exit_65(self, tmp_path, capsys, command):
        path = "[ sh:inversePath " * 1500 + "ex:p" + " ]" * 1500
        (tmp_path / "shapes.ttl").write_text(
            PREFIX + f"ex:S sh:targetNode ex:a ; sh:property [ sh:path {path} ; sh:minCount 1 ] .")
        (tmp_path / "data.ttl").write_text(PREFIX + "ex:b ex:p ex:a .")
        paths = {name: tmp_path / f"{name}.ttl" for name in ("shapes", "data")}
        argv = [a.format(out=tmp_path / "problem.p", **paths) for a in command]
        assert cli.main(argv) == cli.EXIT_DATA
        assert capsys.readouterr().err == "shacl2fol: the input is nested too deeply\n"


TARGETED_PROPERTY_SHAPE = PREFIX + "ex:P sh:targetNode ex:a ; sh:path ex:p ; sh:minCount 1 ."
REFERENCED_PROPERTY_SHAPE = PREFIX + """
ex:S sh:property ex:P . ex:P sh:path ex:p ; sh:minCount 1 .
ex:T sh:targetNode ex:a ; sh:node ex:P .
"""
DEACTIVATED_REFERENCE = PREFIX + """
ex:T sh:targetNode ex:a ; sh:node ex:D . ex:D sh:deactivated true ; sh:class ex:C .
"""


class TestShapeReferences:
    # a property shape that is targeted or referenced keeps its own path;
    # a reference to a deactivated shape holds for every node
    @pytest.mark.parametrize("shapes, data, verdict, code", [
        (TARGETED_PROPERTY_SHAPE, "ex:a ex:q ex:b .", "DoesNotConform", 1),
        (TARGETED_PROPERTY_SHAPE, "ex:a ex:p ex:b .", "Conforms", 0),
        (REFERENCED_PROPERTY_SHAPE, "ex:a ex:q ex:b .", "DoesNotConform", 1),
        (REFERENCED_PROPERTY_SHAPE, "ex:a ex:p ex:b .", "Conforms", 0),
        (DEACTIVATED_REFERENCE, "ex:a ex:q ex:b .", "Conforms", 0),
    ], ids=["targeted-violates", "targeted-conforms", "referenced-violates",
            "referenced-conforms", "deactivated"])
    @pytest.mark.parametrize("command", [["oracle"], ["validate", *BUILTIN]],
                             ids=["oracle", "validate"])
    def test_oracle_and_prover_agree(self, tmp_path, capsys, shapes, data, verdict, code,
                                     command):
        (tmp_path / "shapes.ttl").write_text(shapes)
        (tmp_path / "data.ttl").write_text(PREFIX + data)
        assert cli.main([*command, str(tmp_path / "shapes.ttl"), str(tmp_path / "data.ttl")]) \
            == code
        assert capsys.readouterr().out.split()[0] == verdict

    def test_deactivated_reference_is_satisfiable(self, tmp_path, capsys):
        (tmp_path / "shapes.ttl").write_text(DEACTIVATED_REFERENCE)
        assert cli.main(["sat", str(tmp_path / "shapes.ttl"), *BUILTIN]) == 0
        assert capsys.readouterr().out.startswith("Satisfiable")


RECURSIVE = PREFIX + "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:not ex:S ."
EX_NOPE = "http://example.org/Nope"


class TestRejectedInput:
    @pytest.mark.parametrize("command", [
        ["sat", "{rec}", *BUILTIN],
        ["contains", "{rec}", "{shapes}", *BUILTIN],
        ["contains", "{shapes}", "{rec}", *BUILTIN],
        ["validate", "{rec}", "{ok}", *BUILTIN],
        ["emit", "sat", "{rec}", "--out", "{out}"],
        ["emit", "contains", "{shapes}", "{rec}", "--out", "{out}"],
        ["emit", "validate", "{rec}", "{ok}", "--out", "{out}"],
        ["oracle", "{rec}", "{ok}"],
    ], ids=["sat", "contains-left", "contains-right", "validate", "emit-sat",
            "emit-contains", "emit-validate", "oracle"])
    def test_recursion_rejected_by_every_command(self, files, capsys, command):
        rec = files["dir"] / "recursive.ttl"
        rec.write_text(RECURSIVE)
        out = files["dir"] / "problem.p"
        argv = [a.format(rec=rec, out=out, **files) for a in command]
        assert cli.main(argv) == 65
        err = capsys.readouterr().err
        assert "<http://example.org/S> -> <http://example.org/S>" in err
        assert "RdfTerm(" not in err
        assert not out.exists()

    @pytest.mark.parametrize("shapes, data_file, data", [
        (SHAPES, "data.ttl", PREFIX + 'ex:a ex:p "x\\uZZZZ" .'),
        (SHAPES, "data.nt", '<http://e/a> <http://e/p> "x\\U0011FFFF" .\n'),
        (SHAPES, "data.ttl", PREFIX + 'ex:a ex:p "x\\uD800" .'),
        (SHAPES, "data.ttl", PREFIX + '"x" ex:p ex:b .'),
        (PREFIX + "ex:S sh:targetNode ex:a ; sh:and ex:L .", "data.ttl", OK_DATA),
        (PREFIX + "ex:S sh:targetNode ex:a ; sh:or ex:L .", "data.ttl", OK_DATA),
        (PREFIX + 'ex:S sh:targetNode ex:a ; sh:in "x" .', "data.ttl", OK_DATA),
        (PREFIX + 'ex:S sh:targetNode ex:a ; sh:node "x" .', "data.ttl", OK_DATA),
        (PREFIX + """ex:S sh:targetNode ex:a ;
            sh:property [ sh:path ex:p ; sh:minCount -2 ] .""", "data.ttl", OK_DATA),
        (PREFIX + """ex:S sh:targetNode ex:a ;
            sh:property [ sh:path ex:p ; sh:maxCount -1 ] .""", "data.ttl", OK_DATA),
    ], ids=["turtle-u-escape", "ntriples-U-escape", "surrogate-escape", "literal-subject",
            "and-not-a-list", "or-not-a-list", "in-not-a-list", "literal-shape-reference",
            "negative-min-count", "negative-max-count"])
    def test_bad_input_exits_65_with_one_line(self, tmp_path, capsys, shapes, data_file, data):
        (tmp_path / "shapes.ttl").write_text(shapes)
        (tmp_path / data_file).write_text(data)
        assert cli.main(["oracle", str(tmp_path / "shapes.ttl"), str(tmp_path / data_file)]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("shacl2fol: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, options", [
        (["oracle"], []),
        (["validate"], BUILTIN),
        (["emit", "validate"], ["--out", "{out}"]),
    ], ids=["oracle", "validate", "emit-validate"])
    @pytest.mark.parametrize("which", ["shapes", "ok"])
    def test_a_file_that_is_not_utf8_exits_65_with_one_line(
        self, files, capsys, command, options, which
    ):
        utf16 = files["dir"] / "utf16.ttl"
        utf16.write_bytes(b"\xff\xfe" + OK_DATA.encode("utf-16-le"))
        out = files["dir"] / "problem.p"
        inputs = [str(utf16) if name == which else files[name] for name in ("shapes", "ok")]
        argv = command + inputs + [o.format(out=out) for o in options]
        assert cli.main(argv) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"shacl2fol: {utf16}: not UTF-8: invalid start byte at byte 0"
        ]
        assert not out.exists()

    def test_a_shapes_file_with_a_byte_order_mark_gets_its_verdict(self, files, capsys):
        marked = files["dir"] / "marked.ttl"
        marked.write_bytes(codecs.BOM_UTF8 + SHAPES.encode("utf-8"))
        assert cli.main(["validate", str(marked), files["ok"], *BUILTIN]) == 0
        assert cli.main(["validate", str(marked), files["bad"], *BUILTIN]) == 1
        assert capsys.readouterr().out.splitlines()[::2] == ["Conforms", "DoesNotConform"]

    def test_strong_sat_naming_an_undefined_shape_is_a_usage_error(self, files, capsys):
        code = cli.main(["sat", files["shapes"], "--strong-sat", EX_NOPE, *BUILTIN])
        assert code == 64
        assert EX_NOPE in capsys.readouterr().err

    @pytest.mark.parametrize("listed", [",", " , ,"])
    def test_strong_sat_naming_no_shape_is_a_usage_error(self, tmp_path, capsys, listed):
        # a list of no IRI is not the bare flag, which selects every shape
        # and finds `sh:in ()` unsatisfiable
        empty_in = tmp_path / "empty_in.ttl"
        empty_in.write_text(PREFIX + "ex:S sh:in () .\n")
        assert cli.main(["sat", str(empty_in), "--strong-sat", *BUILTIN]) == 1
        capsys.readouterr()
        assert cli.main(["sat", str(empty_in), f"--strong-sat={listed}", *BUILTIN]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"shacl2fol: --strong-sat: {listed!r} names no shape"]


# what a bare interpreter has loaded before the request is left out, so a
# site hook that imports one of the checked modules cannot fail the test
LOADED_MODULES = """
import importlib, json, sys
bare = set(sys.modules)
entry, argv = sys.argv[1], json.loads(sys.argv[2])
code = importlib.import_module(entry).main(argv)
added = set(sys.modules) - bare
print(json.dumps({"code": code,
                  "foreign": sorted(added & {"dataclasses", "networkx", "subprocess"}),
                  "modules": sorted(m for m in sys.modules if m.startswith("shacl2fol"))}))
"""

_FRONT = {"cli", "errors", "rdf", "record", "shapes"}
_EMIT = _FRONT | {"decide", "translate", "tptp", "fol"}
# the TPTP parser only for a problem read as text
_PROVER = {"miniprover", "closed_structure", "clausify", "sat", "errors", "fol", "record"}

# a zero-or-more path, which validation grounds exactly whatever --star
# says: the closed structure decides
STAR_MIN_SHAPES = PREFIX + """
ex:S a sh:NodeShape ; sh:targetClass ex:C ;
  sh:property [ sh:path [ sh:zeroOrMorePath ex:p ] ; sh:minCount 1 ] .
"""

MIN1_SHAPES = PREFIX + """
ex:S a sh:NodeShape ; sh:targetNode ex:a ;
  sh:property [ sh:path ex:p ; sh:minCount 1 ] .
"""
MIN2_SHAPES = MIN1_SHAPES.replace("sh:minCount 1", "sh:minCount 2")
# static-analysis's F2: every object of ex:p is a blank node in A and in B,
# so A is contained in B; no candidate graph conforms to A and violates B,
# and `find_model` still answers NotContained, the known fault F2
F2_A_SHAPES = PREFIX + """
ex:S a sh:NodeShape ; sh:targetObjectsOf ex:p ;
  sh:not [ sh:nodeKind sh:IRI ] ; sh:not [ sh:nodeKind sh:Literal ] .
"""
F2_B_SHAPES = PREFIX + """
ex:S a sh:NodeShape ; sh:targetObjectsOf ex:p ; sh:nodeKind sh:BlankNode .
"""
# static-analysis's strong_clash_kind: no node is both a blank node and a literal
KIND_CLASH_SHAPES = PREFIX + """
ex:S a sh:NodeShape ;
  sh:and ( [ sh:nodeKind sh:BlankNode ] [ sh:nodeKind sh:Literal ] ) .
"""


@pytest.mark.parametrize("entry, argv, loaded, detail", [
    ("shacl2fol.cli", ["oracle", "{shapes}", "{ok}"], _FRONT | {"oracle"}, None),
    ("shacl2fol.cli", ["emit", "validate", "{shapes}", "{ok}", "--out", "{dir}/emitted.p"],
     _EMIT, None),
    ("shacl2fol.miniprover", ["{dir}/problem.p", "--parse-only"], _PROVER | {"tptp_parse"},
     None),
    ("shacl2fol.cli", ["validate", "{shapes}", "{ok}", "--json", *BUILTIN],
     _EMIT | {"closed_structure"}, "closed structure of 4 elements"),
    ("shacl2fol.cli", ["validate", "{dir}/star.ttl", "{ok}", "--star", "approx", "--json",
                       *BUILTIN], _EMIT | {"closed_structure"}, "closed structure of 4 elements"),
    ("shacl2fol.cli", ["sat", "{dir}/empty.ttl", "--json", *BUILTIN],
     _EMIT | {"closed_structure"}, "facts-only structure of 1 elements"),
    ("shacl2fol.cli", ["sat", "{dir}/min1.ttl", "--json", *BUILTIN],
     _EMIT | {"closed_structure", "emptiness", "witness", "oracle"},
     "candidate graph of 1 triples"),
    ("shacl2fol.cli", ["contains", "{dir}/f2_a.ttl", "{dir}/f2_b.ttl", "--json", *BUILTIN],
     _EMIT | _PROVER | {"emptiness", "entailment", "witness", "oracle"},
     "finite model of size 5"),
    ("shacl2fol.cli", ["sat", "{dir}/clash.ttl", "--strong-sat", "--json", *BUILTIN],
     _EMIT | {"closed_structure", "emptiness"},
     "1 empty; strong_sat asserts an empty definition"),
    ("shacl2fol.cli", ["sat", "{dir}/min_max.ttl", "--json", *BUILTIN],
     _EMIT | {"closed_structure", "emptiness", "entailment"},
     "1 empty; target asserts an empty definition"),
    ("shacl2fol.cli", ["contains", "{dir}/min1.ttl", "{dir}/min1.ttl", "--json", *BUILTIN],
     _EMIT | {"closed_structure"},
     "1 of 2 definitions merged; neg_targets_b denies asserted units"),
    ("shacl2fol.cli", ["contains", "{dir}/min2.ttl", "{dir}/min1.ttl", "--json", *BUILTIN],
     _EMIT | {"closed_structure", "entailment"}, "1 entailed; neg_targets_b denies asserted units"),
], ids=["oracle", "emit-validate", "miniprover-parse-only", "validate-builtin",
        "validate-star-approx", "sat-builtin", "sat-builtin-witness",
        "contains-builtin-clausal", "sat-contradiction",
        "sat-count-contradiction", "contains-itself", "contains-weakened"])
def test_each_entry_point_loads_only_its_layers(files, entry, argv, loaded, detail):
    """A fresh interpreter serving one request imports exactly the
    package's modules that the request runs, and no networkx, record class
    library or process launcher.  The built-in prover loads its clausal
    procedures only when the closed structure, or with no closure the
    structure of the problem's facts, does not decide, and no candidate
    graph does: `ex:a` of `min1.ttl` has no `ex:p` value there, yet has
    one in the chased candidate, which `witness` builds and the oracle
    confirms, the two loaded together.  F2's shapes (static-analysis's
    `F2_node_kinds_not_exhaustive`) have no candidate that conforms to A
    and not to B, so they still go on to the clausal procedures.
    Nor when a unit denies asserted units, as `min1.ttl` contained in
    itself does once B's definition is merged into A's, and `min2.ttl`
    contained in `min1.ttl` does once A's definition entails B's: only
    then is `entailment` loaded.  Nor when a unit asserts a shape whose
    constraints clash, as `clash.ttl`'s untargeted shape does under
    `--strong-sat`, and `min_max.ttl`'s targeted one: `emptiness` finds
    them when the structure of a problem with definitions does not
    decide, and loads `entailment` only to test a pair c, ¬d, as
    `minCount 2 ; maxCount 1` is.  Validation loads neither."""
    assert cli.main(["emit", "validate", files["shapes"], files["ok"],
                     "--out", str(files["dir"] / "problem.p")]) == 0
    (files["dir"] / "star.ttl").write_text(STAR_MIN_SHAPES)
    (files["dir"] / "empty.ttl").write_text(PREFIX)
    (files["dir"] / "min1.ttl").write_text(MIN1_SHAPES)
    (files["dir"] / "min2.ttl").write_text(MIN2_SHAPES)
    (files["dir"] / "f2_a.ttl").write_text(F2_A_SHAPES)
    (files["dir"] / "f2_b.ttl").write_text(F2_B_SHAPES)
    (files["dir"] / "clash.ttl").write_text(KIND_CLASH_SHAPES)
    (files["dir"] / "min_max.ttl").write_text(MIN1_SHAPES.replace("sh:minCount 1",
                                                                 "sh:minCount 2 ; sh:maxCount 1"))
    argv = [a.format(**files) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, entry, json.dumps(argv)],
        env=_fresh_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    result = json.loads(last)
    verdict = None
    if detail is not None:
        printed = json.loads("\n".join(printed))
        assert printed["proverDetail"] == detail
        verdict = printed["verdict"]
    # 1: a negative verdict
    assert result["code"] == (1 if verdict in ("Unsatisfiable", "NotContained") else 0)
    assert result["modules"] == sorted({"shacl2fol"} | {f"shacl2fol.{m}" for m in loaded})
    assert result["foreign"] == []
