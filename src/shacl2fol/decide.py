"""Assembly of the three decision problems and prover integration.

Each task builds one axiom-only TPTP problem; the verdict is read off the
prover's SZS status line.  External provers (E, Vampire) are driven as
child processes with a wall-clock timeout on the rendered text.  The
built-in prover runs in process on the document's units themselves, which
are the units that parsing the rendered text gives back, so `emit` (or
`--out`) writes a file of the problem it decides.  The text is rendered
only when a file is wanted.  For `sat` and `contains` the built-in
prover is also handed candidate RDF graphs (`witness`), each as the
task's problem with that graph's closures, and the oracle confirms the
one that decides.  The file holds no candidate, so a manual prover run
on it reproduces the integrated result only when no candidate decided:
the strong satisfiability of a 30-shape family is Satisfiable on a
candidate in about 0.1 s, and a Timeout from its file alone.
"""

from __future__ import annotations

import functools
import math
import os
import re
import shutil
import stat
import tempfile
import time
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from . import translate as tr
from .errors import Clock, InvalidOptions, ProverNotFound, ProverProtocolError
from .fol import conj, neg
from .rdf import Graph, RdfTerm, serialize_ntriples
from .record import Record
from .shapes import ShapeGraph
from .tptp import (
    Emitter, EmitOptions, SHAPE_PRED, TptpDocument, attach_ambient_axioms,
    render,
)

SHAPE_PRED_B = "hasShapeB"

E_PATH_ENV = "SHACL2FOL_E_PATH"
VAMPIRE_PATH_ENV = "SHACL2FOL_VAMPIRE_PATH"
# per external prover kind: its path variable, then its names on PATH
_EXECUTABLES = {
    "e": (E_PATH_ENV, ("eprover", "E")),
    "vampire": (VAMPIRE_PATH_ENV, ("vampire",)),
}

_SZS_RE = re.compile(r"SZS status (\w+)")

_UNKNOWN_STATUSES = {"Timeout", "GaveUp", "Error", "ResourceOut", "Unknown"}
_SAT_STATUSES = {"Satisfiable", "CounterSatisfiable"}
_UNSAT_STATUSES = {"Unsatisfiable", "Theorem", "ContradictoryAxioms"}


class TaskKind(Enum):
    SATISFIABILITY = "satisfiability"
    CONTAINMENT = "containment"
    VALIDATION = "validation"


class Verdict(Enum):
    SATISFIABLE = "Satisfiable"
    UNSATISFIABLE = "Unsatisfiable"
    CONTAINED = "Contained"
    NOT_CONTAINED = "NotContained"
    CONFORMS = "Conforms"
    DOES_NOT_CONFORM = "DoesNotConform"
    UNKNOWN = "Unknown"


POSITIVE_VERDICTS = {Verdict.SATISFIABLE, Verdict.CONTAINED, Verdict.CONFORMS}


class ProverConfig(Record):
    __slots__ = ("kind", "executable", "timeout_s")
    __hash__ = None

    def __init__(self, kind: str = "auto", executable: Optional[str] = None,
                 timeout_s: float = 60.0):
        # E and Vampire take whole seconds; the built-in prover's clock
        # would cut every attempt of a NaN timeout at once
        if not math.isfinite(timeout_s):
            raise InvalidOptions(f"the timeout must be a finite number of seconds, "
                                 f"not {timeout_s}")
        # `auto` and `builtin` run no executable of the caller's choosing
        if executable is not None and kind not in ("e", "vampire", "custom"):
            raise InvalidOptions(f"a prover path needs the prover e or vampire, "
                                 f"not {kind}")
        self.kind = kind  # auto | e | vampire | builtin | custom (runs `executable`)
        self.executable = executable
        self.timeout_s = timeout_s

    def resolve(self) -> "ProverConfig":
        """The first installed of E, Vampire and the built-in prover for
        `auto`; any other kind unchanged."""
        if self.kind != "auto":
            return self
        for kind in _EXECUTABLES:
            exe = _find_executable(kind)
            if exe:
                return ProverConfig(kind, exe, self.timeout_s)
        return ProverConfig("builtin", None, self.timeout_s)


def _find_executable(kind: str) -> Optional[str]:
    """The executable of the external prover `kind` ("e" or "vampire"): its
    path variable if set, else the first of its names found on PATH."""
    env, names = _EXECUTABLES[kind]
    return os.environ.get(env) or next(filter(None, map(shutil.which, names)), None)


class DecisionTask(Record):
    __slots__ = ("kind", "shape_graph_a", "shape_graph_b", "data_graph", "options",
                 "strong_sat_shapes", "prover", "problem_path")
    __hash__ = None

    def __init__(self, kind: TaskKind, shape_graph_a: ShapeGraph,
                 shape_graph_b: Optional[ShapeGraph] = None,
                 data_graph: Optional[Graph] = None,
                 options: Optional[EmitOptions] = None,
                 strong_sat_shapes: Optional[list[RdfTerm]] = None,
                 prover: Optional[ProverConfig] = None,
                 problem_path: Optional[str] = None):
        if (kind is TaskKind.CONTAINMENT) != (shape_graph_b is not None):
            raise InvalidOptions("containment, and only containment, takes a "
                                 "second shape graph")
        if (kind is TaskKind.VALIDATION) != (data_graph is not None):
            raise InvalidOptions("validation, and only validation, takes a data graph")
        self.kind = kind
        self.shape_graph_a = shape_graph_a
        self.shape_graph_b = shape_graph_b
        self.data_graph = data_graph
        self.options = EmitOptions() if options is None else options
        self.strong_sat_shapes = strong_sat_shapes  # None = off, [] = all
        self.prover = ProverConfig() if prover is None else prover
        self.problem_path = problem_path


class DecisionResult(Record):
    __slots__ = ("verdict", "approximate", "szs_status", "problem_file", "prover_time_ms",
                 "prover_kind", "prover_detail", "witness", "confirmed")
    __hash__ = None

    def __init__(self, verdict: Verdict, approximate: bool, szs_status: str,
                 problem_file: str, prover_time_ms: int, prover_kind: str = "",
                 prover_detail: str = "", witness: Optional[str] = None,
                 confirmed: bool = False):
        self.verdict = verdict
        self.approximate = approximate
        self.szs_status = szs_status
        self.problem_file = problem_file
        self.prover_time_ms = prover_time_ms
        self.prover_kind = prover_kind
        self.prover_detail = prover_detail
        self.witness = witness  # the candidate graph that decided, as N-Triples
        self.confirmed = confirmed  # whether the oracle confirms the witness

    def as_dict(self) -> dict:
        out = {
            "verdict": self.verdict.value,
            "approximate": self.approximate,
            "szsStatus": self.szs_status,
            "problemFile": self.problem_file,
            "proverTimeMs": self.prover_time_ms,
            "prover": self.prover_kind,
            "proverDetail": self.prover_detail,
        }
        if self.witness is not None:
            out["witness"] = {"nTriples": self.witness, "confirmed": self.confirmed}
        return out


# --- problem assembly -------------------------------------------------------

def build_problem(task: DecisionTask, candidate: Optional[Graph] = None,
                  nodes: Iterable[RdfTerm] = ()) -> TptpDocument:
    """The task's theory, then the ambient axioms for all it names; with a
    `candidate` graph of a `sat` or `contains` task, also that graph's
    closures, kinds and unique names, as a validation problem has them,
    and the kinds and unique names of the `nodes` it has no triple about."""
    doc = TptpDocument(dialect=task.options.dialect,
                       header=[f"task: {task.kind.value}"])
    data_graph = task.data_graph if candidate is None else candidate
    emitter = Emitter(task.options, data_graph=data_graph)
    sg = task.shape_graph_a
    if task.kind is TaskKind.SATISFIABILITY:
        doc.extend(tr.translate(sg, emitter=emitter))
        if task.strong_sat_shapes is not None:
            # an empty selection selects every shape
            selected = task.strong_sat_shapes or sg.shape_names()
            try:
                doc.extend(tr.strong_satisfiability_targets(sg, selected, emitter))
            except ValueError as exc:
                raise InvalidOptions(f"--strong-sat: {exc}") from exc
    elif task.kind is TaskKind.CONTAINMENT:
        sg_b = task.shape_graph_b
        sig_a, sig_b = tr.signature_of(sg), tr.signature_of(sg_b)
        theory_a = tr.translate(sg, sig_b, emitter, SHAPE_PRED)
        theory_b = tr.translate(sg_b, sig_a, emitter, SHAPE_PRED_B)
        for s in theory_a:
            doc.add(s.name + "_a", s.body)
        b_targets = []
        for s in theory_b:
            if s.name == "shape_def":
                doc.add("shape_def_b", s.body)
            else:
                b_targets.append(s.body)
        # a witness graph conforms to A but violates B's target obligations
        doc.add("neg_targets_b", neg(conj(b_targets)))
    else:
        doc.extend(tr.translate(sg, task.data_graph.predicate_names(), emitter))
    for node in nodes:
        emitter.const(node)
    attach_ambient_axioms(doc, emitter)
    return doc


# --- prover execution -------------------------------------------------------

def write_problem(text: str, path: Optional[str] = None) -> str:
    """Write rendered TPTP text to `path`, or to a fresh temp file; returns the path.

    An existing file is overwritten in place and then cut to the text's
    length, not truncated to zero first: on ext4 (`auto_da_alloc`) a
    non-empty file truncated to zero is flushed to disk when it is closed.
    """
    data = text.encode("utf-8")
    if path is None:
        fd, path = tempfile.mkstemp(suffix=".p", prefix="shacl2fol_")
    else:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        fh.flush()
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
            os.ftruncate(fd, len(data))
    return path


def prover_command(config: ProverConfig, problem_file: str) -> list[str]:
    timeout = max(1, int(config.timeout_s))
    if config.kind == "e":
        exe = config.executable or _find_executable("e")
        if not exe:
            raise ProverNotFound("no E executable found")
        return [exe, "--auto", "--silent", f"--soft-cpu-limit={timeout}", problem_file]
    if config.kind == "vampire":
        exe = config.executable or _find_executable("vampire")
        if not exe:
            raise ProverNotFound("no Vampire executable found")
        return [exe, "--mode", "casc_sat", "--time_limit", str(timeout), problem_file]
    if config.kind == "custom":
        if not config.executable:
            raise ProverNotFound("custom prover requires an executable")
        return [config.executable, problem_file]
    raise ProverNotFound(f"unknown prover kind {config.kind!r}")


class ProverRun(NamedTuple):
    szs_status: str
    problem_file: str
    elapsed_ms: int
    detail: str = ""  # the built-in prover's deciding procedure
    candidate: object = None  # the witness of the candidate that decided


def run_prover(doc: TptpDocument, config: ProverConfig,
               problem_path: Optional[str] = None, candidates=None) -> ProverRun:
    """Run the prover of `config` on the problem; `config` is resolved
    already (`ProverConfig.resolve`), so its kind is not `auto`.

    The rendered problem is kept at `problem_path` when one is given.
    Otherwise nothing is left behind and `problem_file` is "": the built-in
    prover decides the document's units in memory without rendering them,
    and an external prover reads the text from a temporary directory that
    is removed after the run.  The built-in prover runs on one clock of
    the configured timeout, made here, and also checks the candidates that
    `candidates(clock)` builds lazily on that clock
    (`closed_structure.decide_units`); an external prover ignores them.
    """
    builtin = config.kind == "builtin"
    text = "" if builtin and problem_path is None else render(doc)
    problem_file = ""
    if problem_path is not None:
        problem_file = write_problem(text, problem_path)
    start = time.monotonic()
    if builtin:
        from . import closed_structure

        clock = Clock(start + config.timeout_s)
        result = closed_structure.decide_units(
            doc.formulas, clock, () if candidates is None else candidates(clock))
        elapsed = int((time.monotonic() - start) * 1000)
        return ProverRun(result.status, problem_file, elapsed, result.detail, result.candidate)
    import subprocess

    with tempfile.TemporaryDirectory(prefix="shacl2fol_") as tmp:
        path = problem_file or write_problem(text, os.path.join(tmp, "problem.p"))
        argv = prover_command(config, path)
        try:
            # the wait polls in milliseconds, at most 2**31 - 1 of them;
            # a longer limit is left to the prover, which has it in argv
            proc = subprocess.run(
                argv, capture_output=True, text=True,
                timeout=min(config.timeout_s + 5, 2_147_483),
            )
        except FileNotFoundError as exc:
            raise ProverNotFound(str(exc)) from exc
        except subprocess.TimeoutExpired:
            elapsed = int((time.monotonic() - start) * 1000)
            return ProverRun("Timeout", problem_file, elapsed)
    elapsed = int((time.monotonic() - start) * 1000)
    output = proc.stdout + "\n" + proc.stderr
    m = _SZS_RE.search(output)
    if m is None:
        raise ProverProtocolError(
            f"no SZS status line in prover output (exit {proc.returncode})"
        )
    return ProverRun(m.group(1), problem_file, elapsed)


# --- verdict mapping --------------------------------------------------------

def _verdict(kind: TaskKind, szs: str) -> Verdict:
    if szs in _UNKNOWN_STATUSES:
        return Verdict.UNKNOWN
    if szs in _SAT_STATUSES:
        sat = True
    elif szs in _UNSAT_STATUSES:
        sat = False
    else:
        raise ProverProtocolError(f"unrecognized SZS status {szs!r}")
    if kind is TaskKind.SATISFIABILITY:
        return Verdict.SATISFIABLE if sat else Verdict.UNSATISFIABLE
    if kind is TaskKind.CONTAINMENT:
        return Verdict.NOT_CONTAINED if sat else Verdict.CONTAINED
    return Verdict.CONFORMS if sat else Verdict.DOES_NOT_CONFORM


# --- candidate graphs -------------------------------------------------------

def _candidates(task: DecisionTask, clock: Clock):
    """The candidate graphs of a `sat` or `contains` task (`witness`),
    chased on the prover's `clock`, each given as its detail, its problem
    (`build_problem`) and its witness.
    `witness` and `oracle`, which confirms the one that decides, are
    loaded together when the prover first asks, so one request pays for
    compiling both where no bytecode is cached."""
    from . import oracle, witness  # noqa: F401

    sg = task.shape_graph_a
    if task.kind is TaskKind.CONTAINMENT:
        found = witness.for_containment(sg, task.shape_graph_b, clock.tick)
    else:
        strong = task.strong_sat_shapes
        found = witness.for_satisfiability(
            sg, [] if strong is None else strong or sg.shape_names(), clock.tick)
    for w in found:
        doc = build_problem(task, w.graph, [node for _, node in w.instances])
        yield f"candidate graph of {len(w.graph)} triples", doc.formulas, w


def _confirmed(task: DecisionTask, w) -> bool:
    """Whether the oracle finds that the witness conforms to A and, for
    `sat`, has each instance the chase gave it, or for `contains`,
    violates B."""
    from . import oracle

    if not oracle.evaluate(task.shape_graph_a, w.graph).conforms:
        return False
    if task.kind is TaskKind.CONTAINMENT:
        return not oracle.evaluate(task.shape_graph_b, w.graph).conforms
    return oracle.has_shapes(task.shape_graph_a, w.graph, w.instances)


def run_task(task: DecisionTask) -> DecisionResult:
    doc = build_problem(task)
    config = task.prover.resolve()
    candidates = None if task.kind is TaskKind.VALIDATION \
        else functools.partial(_candidates, task)
    run = run_prover(doc, config, task.problem_path, candidates)
    verdict = _verdict(task.kind, run.szs_status)
    # the star axioms admit the real closure, so a refutation holds
    exact = {"star"} if verdict in (Verdict.UNSATISFIABLE, Verdict.CONTAINED) else set()
    witness = run.candidate
    # a confirmed witness is a real graph, whatever the axioms approximate
    confirmed = witness is not None and _confirmed(task, witness)
    return DecisionResult(
        verdict=verdict,
        approximate=bool(doc.approximations - exact) and not confirmed,
        szs_status=run.szs_status,
        problem_file=run.problem_file,
        prover_time_ms=run.elapsed_ms,
        prover_kind=config.kind,
        prover_detail=run.detail,
        witness=None if witness is None else serialize_ntriples(witness.graph),
        confirmed=confirmed,
    )
