"""The package's public names, imported from their submodules on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shacl2fol

# public name -> (defining submodule, its name there)
ORIGINS = {
    **{name: ("decide", name) for name in [
        "DecisionResult", "DecisionTask", "ProverConfig", "TaskKind", "Verdict",
        "build_problem", "run_prover", "run_task", "write_problem"]},
    **{name: ("errors", name) for name in [
        "CardinalityLimitExceeded", "InvalidOptions", "MalformedShape",
        "ProverNotFound", "ProverProtocolError", "RdfSyntaxError",
        "RecursiveShapeGraph", "Shacl2FolError", "UnsupportedComponent",
        "UnsupportedFeature"]},
    **{name: ("oracle", name) for name in [
        "ValidationReport", "Violation", "evaluate", "path_eval"]},
    **{name: ("rdf", name) for name in [
        "Graph", "RdfTerm", "TermKind", "Triple", "bnode", "iri", "literal",
        "parse_document", "parse_file", "serialize_ntriples"]},
    **{name: ("shapes", name) for name in [
        "Shape", "ShapeGraph", "detect_recursion", "extract_shape_graph"]},
    "signature_of": ("translate", "signature_of"),
    "translate_shape_graph": ("translate", "translate"),
    **{name: ("tptp", name) for name in ["Dialect", "EmitOptions", "render"]},
}


def test_all_lists_every_public_name():
    assert sorted(shacl2fol.__all__) == sorted([*ORIGINS, "__version__"])


@pytest.mark.parametrize("name", sorted(ORIGINS))
def test_a_public_name_is_its_submodules_object(name):
    module, attr = ORIGINS[name]
    submodule = importlib.import_module(f"shacl2fol.{module}")
    assert getattr(shacl2fol, name) is getattr(submodule, attr)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from shacl2fol import *", namespace)
    assert set(shacl2fol.__all__) <= namespace.keys()
    assert namespace["translate_shape_graph"] is shacl2fol.translate_shape_graph


def test_dir_lists_every_name():
    assert set(shacl2fol.__all__) <= set(dir(shacl2fol))


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="'nope'"):
        shacl2fol.nope
    assert not hasattr(shacl2fol, "nope")


FRESH = """
import json, sys
import shacl2fol
version = shacl2fol.__version__
loaded = sorted(m for m in sys.modules if m.startswith("shacl2fol."))
shacl2fol.Verdict
print(json.dumps([version, loaded, sorted(m for m in sys.modules if m.startswith("shacl2fol."))]))
"""


def test_version_and_import_load_no_submodule():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", FRESH], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    version, before, after = json.loads(proc.stdout)
    assert version == "1.0.0"
    assert before == []
    # a name loads its submodule and what that imports, nothing else
    assert "shacl2fol.decide" in after and "shacl2fol.miniprover" not in after
