"""First-order logic toolkit for SHACL shape graphs.

Parses RDF (Turtle and N-Triples), extracts shape constraints, translates
them into a decidable first-order fragment, emits TPTP problems, and
decides satisfiability, containment, and validation with a theorem
prover (E, Vampire, or the bundled built-in prover).  An independent
oracle validator cross-checks validation verdicts.
"""

from .decide import (
    DecisionResult, DecisionTask, ProverConfig, TaskKind, Verdict,
    build_problem, run_prover, run_task, write_problem,
)
from .errors import (
    CardinalityLimitExceeded, InvalidOptions, MalformedShape, ProverNotFound,
    ProverProtocolError, RdfSyntaxError, RecursiveShapeGraph, Shacl2FolError,
    UnsupportedComponent, UnsupportedFeature,
)
from .oracle import ValidationReport, Violation, evaluate, path_eval
from .rdf import (
    Graph, RdfTerm, TermKind, Triple, bnode, iri, literal,
    parse_document, parse_file, serialize_ntriples,
)
from .shapes import Shape, ShapeGraph, detect_recursion, extract_shape_graph
from .translate import signature_of, translate as translate_shape_graph
from .tptp import Dialect, EmitOptions, StarMode, render

__version__ = "1.0.0"

__all__ = [
    "CardinalityLimitExceeded", "DecisionResult", "DecisionTask", "Dialect",
    "EmitOptions", "Graph", "InvalidOptions", "MalformedShape",
    "ProverConfig", "ProverNotFound", "ProverProtocolError", "RdfSyntaxError",
    "RdfTerm", "RecursiveShapeGraph", "Shacl2FolError", "Shape", "ShapeGraph",
    "StarMode", "TaskKind", "TermKind", "Triple",
    "UnsupportedComponent", "UnsupportedFeature", "ValidationReport",
    "Verdict", "Violation", "bnode", "build_problem", "detect_recursion",
    "evaluate", "extract_shape_graph", "iri", "literal", "parse_document",
    "parse_file", "path_eval", "render", "run_prover", "run_task",
    "serialize_ntriples", "signature_of", "translate_shape_graph",
    "write_problem", "__version__",
]
