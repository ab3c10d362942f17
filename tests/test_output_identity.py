"""The emitted TPTP text stays byte for byte the same.

Each problem below is written by `shacl2fol emit` and compared by SHA-256
digest against `output_digests.json`.  A refactoring of the translation
must leave every digest unchanged; a change that means to alter the
output regenerates the file with

    PYTHONPATH=src python tests/test_output_identity.py

and says in its change notes which problems changed and why.
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import CASES, PREFIXES
from shacl2fol import cli
from test_acceptance import (
    CONTRADICTION, SHAPES_EMPTY, SHAPES_ONE_TARGET, SHAPES_TWO_TARGETS,
    UNTARGETED_CONTRADICTION,
)

DIGESTS = Path(__file__).parent / "output_digests.json"

ENCODINGS = {
    "tff": [],
    "fof": ["--dialect", "fof"],
}

SHAPE_GRAPHS = {
    "two_targets": SHAPES_TWO_TARGETS,
    "one_target": SHAPES_ONE_TARGET,
    "empty": SHAPES_EMPTY,
    "contradiction": CONTRADICTION,
    "untargeted_contradiction": UNTARGETED_CONTRADICTION,
}


def _path_shape(path: str) -> str:
    return PREFIXES + (
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        f"  sh:property [ sh:path {path} ; sh:minCount 1 ; sh:maxCount 3 ] .\n"
    )


PATH_SHAPES = {
    "inverse_of_sequence": _path_shape("[ sh:inversePath ( ex:p ex:q ) ]"),
    "inverse_of_star": _path_shape("[ sh:inversePath [ sh:zeroOrMorePath ex:p ] ]"),
    "star_of_inverse": _path_shape("[ sh:zeroOrMorePath [ sh:inversePath ex:p ] ]"),
    "double_inverse": _path_shape("[ sh:inversePath [ sh:inversePath ex:p ] ]"),
    "inverse_of_plus": _path_shape("[ sh:inversePath [ sh:oneOrMorePath ex:p ] ]"),
    "alternative_with_inverse": _path_shape(
        "[ sh:alternativePath ( ex:p [ sh:inversePath ex:q ] ) ]"),
    "star_of_star": _path_shape("[ sh:zeroOrMorePath [ sh:zeroOrMorePath ex:p ] ]"),
    # ex:ign is allowed by the closed shape and occurs nowhere else
    "closed_ignored": PREFIXES + (
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:closed true ;\n"
        "  sh:ignoredProperties ( ex:ign ) ;\n"
        "  sh:property [ sh:path ex:p ; sh:minCount 1 ] .\n"
    ),
    # ^(p*) and (^p)* in one theory share a star role
    "inverse_star_both_ways": PREFIXES + (
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ;\n"
        "  sh:property [ sh:path [ sh:inversePath [ sh:zeroOrMorePath ex:p ] ] ;\n"
        "    sh:minCount 1 ] ;\n"
        "  sh:property [ sh:path [ sh:zeroOrMorePath [ sh:inversePath ex:p ] ] ;\n"
        "    sh:hasValue ex:c ] .\n"
    ),
}

PATH_DATA = PREFIXES + (
    "ex:a ex:p ex:b . ex:b ex:q ex:c . ex:c ex:p ex:a . ex:d ex:q ex:a .\n"
    'ex:b ex:p "v" .\n'
)


def _problems():
    """(id, files, extra arguments) for every problem in the digest file."""
    for case in CASES:
        for enc, flags in ENCODINGS.items():
            yield (f"validate/{case.name}/{enc}",
                   ("validate", case.shapes_ttl, case.data_ttl), flags)
    for name, ttl in SHAPE_GRAPHS.items():
        yield f"sat/{name}", ("sat", ttl), []
        yield f"sat-strong/{name}", ("sat", ttl), ["--strong-sat"]
    for (a, ttl_a), (b, ttl_b) in itertools.product(SHAPE_GRAPHS.items(), repeat=2):
        yield f"contains/{a}/{b}", ("contains", ttl_a, ttl_b), []
    for name, ttl in PATH_SHAPES.items():
        yield f"path/{name}/sat", ("sat", ttl), []
        yield f"path/{name}/contains", ("contains", ttl, ttl), []
        yield f"path/{name}/validate", ("validate", ttl, PATH_DATA), []
        for enc, flags in ENCODINGS.items():
            yield (f"path/{name}/validate-ground/{enc}",
                   ("validate", ttl, PATH_DATA), flags + ["--star", "ground"])


def _emit_digest(tmp: Path, files, flags) -> str:
    task, *texts = files
    paths = []
    for i, text in enumerate(texts):
        p = tmp / f"in{i}.ttl"
        p.write_text(text)
        paths.append(str(p))
    out = tmp / "problem.p"
    assert cli.main(["emit", task, *paths, *flags, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


PROBLEMS = list(_problems())


def test_every_problem_has_a_digest():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(p[0] for p in PROBLEMS)


@pytest.mark.parametrize("key, files, flags", PROBLEMS, ids=[p[0] for p in PROBLEMS])
def test_emitted_text_unchanged(tmp_path, capsys, key, files, flags):
    want = json.loads(DIGESTS.read_text())[key]
    assert _emit_digest(tmp_path, files, flags) == want, key


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    digests = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for key, files, flags in PROBLEMS:
            digests[key] = _emit_digest(Path(tmp), files, flags)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
