"""Command-line front end.

Subcommands: `sat`, `contains`, `validate` (decision problems), `emit`
(write the TPTP problem without running a prover), and `oracle` (direct
validation without any logic translation).  `emit sat SHAPES
[--strong-sat]`, `emit contains SHAPES_A SHAPES_B` and `emit validate
SHAPES DATA` take the emission options of their command and no prover
options.  A bare `--strong-sat`, or an abbreviation of it such as
`--strong`, selects every shape, before the file or after it;
`--strong-sat=IRI[,IRI...]` selects the listed ones.  `sat` and
`contains` write the candidate graph that decided, once the oracle
confirms it, to `--witness FILE` as N-Triples.

Exit codes: 0 for a positive verdict (Satisfiable / Contained /
Conforms), 1 for the negative counterpart, 2 when the prover could not
decide, 64 for usage errors, 65 for unreadable or malformed input, 69
when no prover is available, 70 for a prover protocol failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING, Optional

from . import shapes
from .errors import (
    InvalidOptions, ProverNotFound, ProverProtocolError, Shacl2FolError,
)
from .rdf import iri, parse_file

if TYPE_CHECKING:
    from . import decide, tptp

# Each handler imports the layers it runs, so `oracle` loads no
# translation and no prover, and the decision commands no oracle.

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NO_PROVER = 69
EXIT_PROTOCOL = 70


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# the decision tasks: command, `decide.TaskKind` value, help, and the
# files it reads as (name, help), the first a shape graph
_TASKS = (
    ("sat", "satisfiability", "is the shape graph satisfiable?",
     [("shapes", "shape graph (Turtle or N-Triples)")]),
    ("contains", "containment", "does conformance to A imply conformance to B?",
     [("shapes_a", None), ("shapes_b", None)]),
    ("validate", "validation", "does the data graph conform?",
     [("shapes", None), ("data", None)]),
)


def _add_task(sub, command: str, kind: str, summary: str, files, with_prover: bool = True):
    """The sub-command of one `_TASKS` row; `emit`'s have no prover options."""
    sp = sub.add_parser(command, help=summary)
    sp.set_defaults(kind=kind)
    (first, first_help), *rest = files
    sp.add_argument("shapes", metavar=first, help=first_help)
    for name, file_help in rest:
        sp.add_argument(name, help=file_help)
    if kind == "satisfiability":
        sp.add_argument("--strong-sat", nargs="?", const="", default=None,
                        metavar="IRI[,IRI...]",
                        help="require shapes to have at least one instance: every "
                        "shape with the bare flag, before or after the file; the "
                        "listed ones with --strong-sat=IRI[,IRI...]")
    sp.add_argument("--dialect", choices=["fof", "tff"], default="tff")
    # read and ignored: validation grounds stars exactly, the rest approximate
    sp.add_argument("--star", choices=["approx", "ground"], help=argparse.SUPPRESS)
    sp.add_argument("--cardinality-limit", type=int, default=32, metavar="N",
                    help="largest count expanded into explicit witnesses")
    sp.add_argument("--out", metavar="FILE", help="where to write the TPTP problem")
    sp.add_argument("--json", action="store_true", help="machine-readable result")
    if with_prover and kind != "validation":
        sp.add_argument("--witness", metavar="FILE",
                        help="write the candidate graph that decided, once the "
                        "oracle confirms it, as N-Triples; no file when none did")
    if with_prover:
        sp.add_argument("--prover", choices=["auto", "e", "vampire", "builtin"],
                        default="auto")
        sp.add_argument("--prover-path", metavar="EXE",
                        help="prover executable (overrides discovery); only "
                        "with --prover e or vampire")
        sp.add_argument("--timeout", type=float, default=60.0, metavar="SECONDS")


def build_parser() -> _ArgumentParser:
    ap = _ArgumentParser(
        prog="shacl2fol",
        description="Decide satisfiability, containment, and validation of "
        "SHACL shape graphs through a first-order logic translation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for task in _TASKS:
        _add_task(sub, *task)

    sp = sub.add_parser("emit", help="write the TPTP problem and stop")
    emit_sub = sp.add_subparsers(dest="task", required=True)
    for task in _TASKS:
        _add_task(emit_sub, *task, with_prover=False)

    sp = sub.add_parser("oracle", help="validate directly, without translation")
    sp.add_argument("shapes")
    sp.add_argument("data")
    sp.add_argument("--json", action="store_true")
    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> _ArgumentParser:
    """`build_parser()`, once per process: parse_args keeps no state
    between calls, so one parser serves every request."""
    return build_parser()


def _bare_strong_sat(a: str) -> bool:
    """Whether `a` is `--strong-sat`, or an abbreviation argparse would
    read as it: a prefix of it that is no prefix of `--star`."""
    return len(a) > len("--st") and "--strong-sat".startswith(a)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The command line `argv`, a bare `--strong-sat`, or an abbreviation
    of it, read as `--strong-sat=`, every shape, so that it takes no file
    after it as its list; read as it is when that leaves a token over."""
    bare = ["--strong-sat=" if _bare_strong_sat(a) else a for a in argv]
    if bare != argv:
        args, over = _parser().parse_known_args(bare)
        if not over:
            return args
    return _parser().parse_args(argv)


def _options(args) -> tptp.EmitOptions:
    from . import tptp

    return tptp.EmitOptions(dialect=tptp.Dialect(args.dialect),
                            cardinality_limit=args.cardinality_limit)


def _strong_sat(args) -> Optional[list]:
    raw = getattr(args, "strong_sat", None)
    if raw is None:
        return None
    if raw == "":
        return []  # the bare flag selects every shape
    selected = [iri(s.strip()) for s in raw.split(",") if s.strip()]
    if not selected:
        raise InvalidOptions(f"--strong-sat: {raw!r} names no shape")
    return selected


def _load_shapes(path: str) -> shapes.ShapeGraph:
    return shapes.extract_shape_graph(parse_file(path))


def _build_task(args, prover: decide.ProverConfig) -> decide.DecisionTask:
    from . import decide

    shapes_b = getattr(args, "shapes_b", None)
    data = getattr(args, "data", None)
    return decide.DecisionTask(
        decide.TaskKind(args.kind), _load_shapes(args.shapes),
        shape_graph_b=None if shapes_b is None else _load_shapes(shapes_b),
        data_graph=None if data is None else parse_file(data),
        options=_options(args), strong_sat_shapes=_strong_sat(args),
        prover=prover, problem_path=args.out,
    )


def _run_decision(args) -> int:
    from . import decide

    prover = decide.ProverConfig(
        kind=args.prover, executable=args.prover_path, timeout_s=args.timeout,
    )
    task = _build_task(args, prover)
    result = decide.run_task(task)
    path = getattr(args, "witness", None)
    if path is not None and result.confirmed:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(result.witness)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        note = " (approximate)" if result.approximate else ""
        if result.witness is not None and not result.confirmed:
            note += " (unconfirmed)"
        print(f"{result.verdict.value}{note}")
        print(f"  szs: {result.szs_status}  prover: {result.prover_kind}  "
              f"time: {result.prover_time_ms} ms")
        if result.problem_file:
            print(f"  problem: {result.problem_file}")
    if result.verdict is decide.Verdict.UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_POSITIVE if result.verdict in decide.POSITIVE_VERDICTS else EXIT_NEGATIVE


def _run_emit(args) -> int:
    from . import decide

    task = _build_task(args, decide.ProverConfig())
    doc = decide.build_problem(task)
    path = decide.write_problem(decide.render(doc), args.out)
    if args.json:
        print(json.dumps({"problemFile": path, "approximate": bool(doc.approximations)}))
    else:
        print(path)
    return EXIT_POSITIVE


def _run_oracle(args) -> int:
    from . import oracle

    sg = _load_shapes(args.shapes)
    g = parse_file(args.data)
    report = oracle.evaluate(sg, g)
    if args.json:
        print(json.dumps({
            "conforms": report.conforms,
            "violations": [
                {"shape": v.shape_name.lexical, "focusNode": v.focus_node.lexical}
                for v in report.violations
            ],
        }, indent=2))
    else:
        print("Conforms" if report.conforms else "DoesNotConform")
        for v in report.violations:
            print(f"  {v.focus_node} violates {v.shape_name}")
    return EXIT_POSITIVE if report.conforms else EXIT_NEGATIVE


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        if args.command == "emit":
            return _run_emit(args)
        if args.command == "oracle":
            return _run_oracle(args)
        return _run_decision(args)
    except ProverNotFound as exc:
        print(f"shacl2fol: prover not found: {exc}", file=sys.stderr)
        return EXIT_NO_PROVER
    except ProverProtocolError as exc:
        print(f"shacl2fol: prover protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except InvalidOptions as exc:
        print(f"shacl2fol: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, Shacl2FolError) as exc:
        print(f"shacl2fol: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RecursionError:  # path constructors nested inside each other recurse
        print("shacl2fol: the input is nested too deeply", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
