"""First-order logic toolkit for SHACL shape graphs.

Parses RDF (Turtle and N-Triples), extracts shape constraints, translates
them into a decidable first-order fragment, emits TPTP problems, and
decides satisfiability, containment, and validation with a theorem
prover (E, Vampire, or the bundled built-in prover).  An independent
oracle validator cross-checks validation verdicts.

`import shacl2fol` loads no submodule: each public name is imported from
its submodule on first use (PEP 562), so a command loads only the layers
it runs.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "CardinalityLimitExceeded", "DecisionResult", "DecisionTask", "Dialect",
    "EmitOptions", "Graph", "InvalidOptions", "MalformedShape",
    "ProverConfig", "ProverNotFound", "ProverProtocolError", "RdfSyntaxError",
    "RdfTerm", "RecursiveShapeGraph", "Shacl2FolError", "Shape", "ShapeGraph",
    "TaskKind", "TermKind", "Triple",
    "UnsupportedComponent", "UnsupportedFeature", "ValidationReport",
    "Verdict", "Violation", "bnode", "build_problem", "detect_recursion",
    "evaluate", "extract_shape_graph", "iri", "literal", "parse_document",
    "parse_file", "path_eval", "render", "run_prover", "run_task",
    "serialize_ntriples", "signature_of", "translate_shape_graph",
    "write_problem", "__version__",
]

# public name -> (submodule, its name there)
_ORIGINS = {
    name: (module, name)
    for module, names in {
        "decide": "DecisionResult DecisionTask ProverConfig TaskKind Verdict "
                  "build_problem run_prover run_task write_problem",
        "errors": "CardinalityLimitExceeded InvalidOptions MalformedShape "
                  "ProverNotFound ProverProtocolError RdfSyntaxError "
                  "RecursiveShapeGraph Shacl2FolError UnsupportedComponent "
                  "UnsupportedFeature",
        "oracle": "ValidationReport Violation evaluate path_eval",
        "rdf": "Graph RdfTerm TermKind Triple bnode iri literal parse_document "
               "parse_file serialize_ntriples",
        "shapes": "Shape ShapeGraph detect_recursion extract_shape_graph",
        "translate": "signature_of",
        "tptp": "Dialect EmitOptions render",
    }.items()
    for name in names.split()
}
_ORIGINS["translate_shape_graph"] = ("translate", "translate")


def __getattr__(name: str):
    try:
        module, attr = _ORIGINS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
