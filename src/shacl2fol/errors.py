"""Exception types shared across the toolkit, and the built-in prover's
clock, which raises `TimeBudgetExceeded`.

The clock lives here, in a module every command loads, so that a problem
the closed-structure check decides never loads the SAT solver; `sat`
re-exports both names.
"""

import time


class Shacl2FolError(Exception):
    """Base class for all toolkit errors."""


class RdfSyntaxError(Shacl2FolError):
    """Malformed RDF input; carries the 1-based source position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnsupportedFeature(Shacl2FolError):
    """Turtle construct outside the supported subset."""


class UnsupportedComponent(Shacl2FolError):
    """SHACL constraint component outside the supported fragment."""

    def __init__(self, component_iri):
        self.component_iri = component_iri
        super().__init__(f"unsupported SHACL component: {component_iri}")


class MalformedShape(Shacl2FolError):
    """Dangling shape reference or ill-typed constraint parameter."""


class RecursiveShapeGraph(Shacl2FolError):
    """A shape reaches itself through references; translation and oracle reject it."""


class InvalidOptions(Shacl2FolError):
    """Inconsistent options, such as a grounded star closure with no data graph."""


class CardinalityLimitExceeded(Shacl2FolError):
    """A cardinality bound above the configured expansion limit."""

    def __init__(self, n, limit):
        self.n = n
        self.limit = limit
        super().__init__(f"cardinality {n} exceeds expansion limit {limit}")


class ProverNotFound(Shacl2FolError):
    """No usable theorem prover executable could be located."""


class ProverProtocolError(Shacl2FolError):
    """Prover output did not contain a parseable SZS status line."""


class TimeBudgetExceeded(Exception):
    """The built-in prover's clock passed its deadline; not a toolkit
    error, since the schedule answers it as `Timeout`."""


class Clock:
    """The built-in prover's one wall clock.  `tick` counts a pass's work,
    reads the clock once every 4,096 units and says whether it did;
    `check` reads it at once, against `deadline`."""

    def __init__(self, deadline=None):
        self.deadline = deadline
        self.work = 0  # units since the last read

    def tick(self, work: int = 1) -> bool:
        self.work += work
        if self.work < 4096:
            return False
        self.work = 0
        self.check()
        return True

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeBudgetExceeded()
