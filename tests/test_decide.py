import math
import os
import stat
import tempfile
import time

import pytest

from conftest import load_graph, load_shapes
from shacl2fol.decide import (
    DecisionTask, ProverConfig, TaskKind, Verdict, _verdict, build_problem,
    prover_command, run_prover, run_task, write_problem,
)
from shacl2fol.errors import (
    InvalidOptions, ProverNotFound, ProverProtocolError,
)
from shacl2fol.fol import formula_text
from shacl2fol.tptp import render
from shacl2fol.tptp_parse import parse_tptp

PREFIX = """\
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
"""

EX = "http://example.org/"

CONTRADICTION = PREFIX + """
ex:S a sh:NodeShape ; sh:targetNode ex:a ;
  sh:nodeKind sh:IRI ;
  sh:property [ sh:path ex:p ; sh:minCount 0 ] .
ex:T a sh:NodeShape ; sh:targetNode ex:a ; sh:nodeKind sh:Literal .
"""

UNTARGETED_CONTRADICTION = PREFIX + """
ex:S a sh:NodeShape ;
  sh:and ( [ sh:nodeKind sh:IRI ] [ sh:nodeKind sh:Literal ] ) .
"""


def stub_prover(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


class TestTaskValidation:
    def test_containment_needs_two_graphs(self):
        sg = load_shapes(PREFIX)
        with pytest.raises(InvalidOptions):
            DecisionTask(TaskKind.CONTAINMENT, sg)

    def test_only_containment_takes_two(self):
        sg = load_shapes(PREFIX)
        with pytest.raises(InvalidOptions):
            DecisionTask(TaskKind.SATISFIABILITY, sg, shape_graph_b=sg)

    def test_validation_needs_data(self):
        sg = load_shapes(PREFIX)
        with pytest.raises(InvalidOptions):
            DecisionTask(TaskKind.VALIDATION, sg)
        with pytest.raises(InvalidOptions):
            DecisionTask(TaskKind.SATISFIABILITY, sg,
                         data_graph=load_graph(PREFIX))


class TestValidationProblem:
    """The data-graph axioms close off every role the theory uses."""

    DATA = PREFIX + "ex:a ex:p ex:b ."

    def closed_roles(self, shapes_ttl):
        doc = build_problem(DecisionTask(
            TaskKind.VALIDATION, load_shapes(shapes_ttl), data_graph=load_graph(self.DATA),
        ))
        return {formula_text(f.body) for f in doc.formulas if f.name.startswith("graph_neg")}

    def test_roles_inside_a_grounded_star(self):
        # ex:r occurs in no emitted formula, only inside the grounded closure
        roles = self.closed_roles(PREFIX + """
ex:S a sh:NodeShape ; sh:targetNode ex:a ;
  sh:property [ sh:path [ sh:zeroOrMorePath ex:r ] ; sh:minCount 1 ] .
""")
        assert f"~((?[X, Y]: '{EX}r'(X, Y)))" in roles
        assert len(roles) == 2  # ex:p and ex:r

    def test_not_the_ignored_properties_of_a_closed_shape(self):
        roles = self.closed_roles(PREFIX + """
ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:closed true ;
  sh:ignoredProperties ( ex:ign ) .
""")
        assert len(roles) == 1  # ex:p only
        assert not any(EX + "ign" in r for r in roles)


class TestVerdictMapping:
    @pytest.mark.parametrize("szs,want", [
        ("Satisfiable", Verdict.SATISFIABLE),
        ("CounterSatisfiable", Verdict.SATISFIABLE),
        ("Unsatisfiable", Verdict.UNSATISFIABLE),
        ("Theorem", Verdict.UNSATISFIABLE),
        ("ContradictoryAxioms", Verdict.UNSATISFIABLE),
        ("Timeout", Verdict.UNKNOWN),
        ("GaveUp", Verdict.UNKNOWN),
    ])
    def test_satisfiability(self, szs, want):
        assert _verdict(TaskKind.SATISFIABILITY, szs) == want

    def test_containment_inverts_polarity(self):
        assert _verdict(TaskKind.CONTAINMENT, "Unsatisfiable") == Verdict.CONTAINED
        assert _verdict(TaskKind.CONTAINMENT, "Satisfiable") == Verdict.NOT_CONTAINED

    def test_validation(self):
        assert _verdict(TaskKind.VALIDATION, "Satisfiable") == Verdict.CONFORMS
        assert _verdict(TaskKind.VALIDATION, "Unsatisfiable") == Verdict.DOES_NOT_CONFORM

    def test_unexpected_status_rejected(self):
        with pytest.raises(ProverProtocolError):
            _verdict(TaskKind.SATISFIABILITY, "Nonsense")


class TestProverCommand:
    def test_e_flags(self):
        argv = prover_command(ProverConfig("e", "/opt/eprover", 30), "x.p")
        assert argv == ["/opt/eprover", "--auto", "--silent",
                        "--soft-cpu-limit=30", "x.p"]

    def test_vampire_flags(self):
        argv = prover_command(ProverConfig("vampire", "/opt/vampire", 30), "x.p")
        assert argv == ["/opt/vampire", "--mode", "casc_sat",
                        "--time_limit", "30", "x.p"]

    def test_custom_passthrough(self):
        argv = prover_command(ProverConfig("custom", "/opt/mine"), "x.p")
        assert argv == ["/opt/mine", "x.p"]

    def test_missing_executable(self, monkeypatch):
        monkeypatch.delenv("SHACL2FOL_E_PATH", raising=False)
        monkeypatch.setattr("shutil.which", lambda name: None)
        with pytest.raises(ProverNotFound):
            prover_command(ProverConfig("e"), "x.p")


class TestResolve:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("SHACL2FOL_E_PATH", "/custom/e")
        got = ProverConfig("auto", timeout_s=7).resolve()
        assert got.kind == "e" and got.executable == "/custom/e"
        assert got.timeout_s == 7

    def test_falls_back_to_builtin(self, monkeypatch):
        monkeypatch.delenv("SHACL2FOL_E_PATH", raising=False)
        monkeypatch.delenv("SHACL2FOL_VAMPIRE_PATH", raising=False)
        monkeypatch.setattr("shutil.which", lambda name: None)
        assert ProverConfig("auto").resolve().kind == "builtin"

    @pytest.mark.parametrize("kind", ["auto", "builtin"])
    def test_executable_only_for_an_external_prover(self, kind):
        with pytest.raises(InvalidOptions):
            ProverConfig(kind, "/opt/vampire")

    @pytest.mark.parametrize("timeout", [math.nan, math.inf, -math.inf])
    def test_a_timeout_that_is_not_finite_is_invalid(self, timeout):
        for kind in ("auto", "e", "vampire", "builtin", "custom"):
            with pytest.raises(InvalidOptions, match="finite"):
                ProverConfig(kind, timeout_s=timeout)

    def test_explicit_kind_untouched(self):
        cfg = ProverConfig("builtin", timeout_s=3)
        assert cfg.resolve() is cfg


class TestRunProver:
    def _doc(self):
        task = DecisionTask(TaskKind.SATISFIABILITY, load_shapes(CONTRADICTION))
        return build_problem(task)

    def test_custom_stub_status_parsed(self, tmp_path):
        exe = stub_prover(tmp_path, "ok.sh",
                          'echo "% SZS status Unsatisfiable for $1"')
        run = run_prover(
            self._doc(), ProverConfig("custom", exe, 5),
            problem_path=str(tmp_path / "out.p"),
        )
        assert run.szs_status == "Unsatisfiable"
        assert os.path.exists(run.problem_file)
        assert run.detail == ""

    def test_missing_szs_line_is_protocol_error(self, tmp_path):
        exe = stub_prover(tmp_path, "silent.sh", "echo hello")
        with pytest.raises(ProverProtocolError):
            run_prover(self._doc(), ProverConfig("custom", exe, 5))

    def test_hung_prover_times_out(self, tmp_path):
        exe = stub_prover(tmp_path, "sleep.sh", "sleep 30")
        run = run_prover(self._doc(), ProverConfig("custom", exe, -4))
        assert run.szs_status == "Timeout"

    def test_external_prover_reads_a_file_that_is_removed_after(self, tmp_path, monkeypatch):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        exe = stub_prover(tmp_path, "reads.sh",
                          'test -s "$1" && echo "% SZS status Unsatisfiable for $1"')
        run = run_prover(self._doc(), ProverConfig("custom", exe, 5))
        assert run.szs_status == "Unsatisfiable" and run.problem_file == ""
        assert not list(tmp.iterdir())

    def test_builtin_output_matches_written_file(self, tmp_path):
        doc = self._doc()
        path = str(tmp_path / "problem.p")
        run = run_prover(doc, ProverConfig("builtin", timeout_s=10), path)
        assert run.problem_file == path
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == render(doc)
        assert run.szs_status == "Unsatisfiable"
        assert run.detail == "facts-only structure of 3 elements; fails target_2"

    def _recording(self, monkeypatch):
        """Record each `decide.render` result and the units the built-in
        prover is handed."""
        from shacl2fol import closed_structure, decide

        rendered, decided = [], []

        def counting_render(doc):
            rendered.append(render(doc))
            return rendered[-1]

        def recording_decide(units, clock, candidates=()):
            decided.append(list(units))
            return closed_structure.ProverResult("Unsatisfiable")

        monkeypatch.setattr(decide, "render", counting_render)
        monkeypatch.setattr(closed_structure, "decide_units", recording_decide)
        return rendered, decided

    def test_builtin_with_out_renders_once_and_the_file_parses_to_the_decided_units(
            self, tmp_path, monkeypatch):
        rendered, decided = self._recording(monkeypatch)
        doc = self._doc()
        path = str(tmp_path / "problem.p")
        run = run_prover(doc, ProverConfig("builtin", timeout_s=10), path)
        assert run.szs_status == "Unsatisfiable" and run.problem_file == path
        with open(path, encoding="utf-8") as fh:
            assert [fh.read()] == rendered
        assert decided == [doc.formulas] == [parse_tptp(rendered[0])]

    def test_builtin_without_out_never_renders(self, monkeypatch):
        rendered, decided = self._recording(monkeypatch)
        doc = self._doc()
        run = run_prover(doc, ProverConfig("builtin", timeout_s=10))
        assert run.szs_status == "Unsatisfiable" and run.problem_file == ""
        assert rendered == [] and decided == [doc.formulas]

    def test_builtin_builds_the_candidates_on_its_one_clock(self, monkeypatch):
        # one clock of the timeout: the prover runs on it, the candidates
        # are built on it, and the deciding one's witness comes back as is
        from shacl2fol import closed_structure

        clocks = []

        def candidates(clock):
            clocks.append(clock)
            yield "a candidate", [], "its witness"

        def deciding(units, clock, offered=()):
            clocks.append(clock)
            ((detail, _, witness),) = offered
            return closed_structure.ProverResult("Satisfiable", detail, witness)

        monkeypatch.setattr(closed_structure, "decide_units", deciding)
        before = time.monotonic()
        run = run_prover(self._doc(), ProverConfig("builtin", timeout_s=10), candidates=candidates)
        assert (run.szs_status, run.detail, run.candidate) \
            == ("Satisfiable", "a candidate", "its witness")
        assert len(clocks) == 2 and clocks[0] is clocks[1]
        assert before + 10 <= clocks[0].deadline <= time.monotonic() + 10


class TestWriteProblem:
    def test_shorter_text_over_a_longer_file_leaves_exactly_the_text(self, tmp_path):
        path = tmp_path / "problem.p"
        path.write_text("fof(old, axiom, $true).\n" * 100, encoding="utf-8")
        text = "% ünïcode in a comment\nfof(new, axiom, $true).\n"
        assert write_problem(text, str(path)) == str(path)
        assert path.read_bytes() == text.encode("utf-8")

    def test_longer_text_over_a_shorter_file(self, tmp_path):
        path = tmp_path / "problem.p"
        path.write_text("% short\n", encoding="utf-8")
        text = "fof(new, axiom, $true).\n" * 100
        write_problem(text, str(path))
        assert path.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_new_file_gets_the_mode_open_gives_it(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_problem("fof(a, axiom, $true).\n", str(tmp_path / "written.p"))
            with open(tmp_path / "opened.p", "w") as fh:
                fh.write("fof(a, axiom, $true).\n")
        finally:
            os.umask(old)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
                 for name in ("written.p", "opened.p")]
        assert modes[0] == modes[1] == 0o666 & ~umask


class TestEndToEnd:
    def test_satisfiability_verdicts(self, builtin_prover):
        sat_task = DecisionTask(
            TaskKind.SATISFIABILITY, load_shapes(PREFIX), prover=builtin_prover,
        )
        assert run_task(sat_task).verdict == Verdict.SATISFIABLE
        unsat_task = DecisionTask(
            TaskKind.SATISFIABILITY, load_shapes(CONTRADICTION),
            prover=builtin_prover,
        )
        got = run_task(unsat_task)
        assert got.verdict == Verdict.UNSATISFIABLE
        assert got.prover_kind == "builtin"

    def test_strong_sat_flips_untargeted_contradiction(self, builtin_prover):
        sg = load_shapes(UNTARGETED_CONTRADICTION)
        plain = DecisionTask(TaskKind.SATISFIABILITY, sg, prover=builtin_prover)
        assert run_task(plain).verdict == Verdict.SATISFIABLE
        strong = DecisionTask(
            TaskKind.SATISFIABILITY, sg, strong_sat_shapes=[],
            prover=builtin_prover,
        )
        assert run_task(strong).verdict == Verdict.UNSATISFIABLE

    @pytest.mark.parametrize("parts, contradiction, approximate", [
        (["star"], False, True),
        (["star"], True, False),  # every model of the exact closure is one here
        (["order"], False, True),
        (["order"], True, True),  # order_leq makes every value its own peer
        (["star", "order"], False, True),
        (["star", "order"], True, True),
    ], ids=["star-sat", "star-unsat", "order-sat", "order-unsat", "both-sat", "both-unsat"])
    def test_approximate_only_where_the_verdict_can_be_wrong(
            self, builtin_prover, parts, contradiction, approximate):
        part = {
            "star": "sh:property [ sh:path [ sh:zeroOrMorePath ex:p ] ; sh:minCount 1 ]",
            "order": "sh:property [ sh:path ex:small ; sh:lessThan ex:big ]",
        }
        body = " ;\n  ".join([part[p] for p in parts] + contradiction * [
            "sh:and ( [ sh:nodeKind sh:IRI ] [ sh:nodeKind sh:Literal ] )"])
        task = DecisionTask(TaskKind.SATISFIABILITY, load_shapes(
            PREFIX + f"ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n  {body} .\n"),
            prover=builtin_prover)
        doc = build_problem(task)
        assert doc.approximations == set(parts)
        got = run_task(task)
        assert got.verdict is (Verdict.UNSATISFIABLE if contradiction else Verdict.SATISFIABLE)
        assert got.approximate is approximate

    def test_result_dict_schema(self, builtin_prover, tmp_path):
        task = DecisionTask(
            TaskKind.SATISFIABILITY, load_shapes(PREFIX),
            prover=builtin_prover, problem_path=str(tmp_path / "p.p"),
        )
        d = run_task(task).as_dict()
        assert set(d) == {
            "verdict", "approximate", "szsStatus", "problemFile",
            "proverTimeMs", "prover", "proverDetail",
        }
        assert d["verdict"] == "Satisfiable" and d["approximate"] is False
        assert d["proverDetail"] == "facts-only structure of 1 elements"
