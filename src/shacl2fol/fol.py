"""Plain first-order formula trees over the emitted signature.

Used by the TPTP emitter and by the built-in prover.  Function-application
terms only arise inside the prover (from skolemization); the emitter itself
produces function-free formulas.

`formula_text` writes a formula as TPTP text.  It fills a `SymbolTable`,
one per document when the caller passes it along: each constant and
predicate is quoted on its first occurrence and read from the table after
that, and the table then holds the document's signature (what `tptp.render`
declares in TFF), so no second walk over the formulas is needed.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Optional, Union

from .record import Record


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Const(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Func(Record):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple["Term", ...]):
        self.name = name
        self.args = args


Term = Union[Var, Const, Func]


class TrueF(Record):
    __slots__ = ()


class FalseF(Record):
    __slots__ = ()


class Atom(Record):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple[Term, ...]):
        self.pred = pred
        self.args = args


class Eq(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right


class Distinct(Record):
    """TFF $distinct over a tuple of constants."""

    __slots__ = ("constants",)

    def __init__(self, constants: tuple[Const, ...]):
        self.constants = constants


class NotN(Record):
    __slots__ = ("operand",)

    def __init__(self, operand: "Formula"):
        self.operand = operand


class AndN(Record):
    __slots__ = ("operands",)

    def __init__(self, operands: tuple["Formula", ...]):
        self.operands = operands


class OrN(Record):
    __slots__ = ("operands",)

    def __init__(self, operands: tuple["Formula", ...]):
        self.operands = operands


class Implies(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        self.left = left
        self.right = right


class Iff(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: "Formula", right: "Formula"):
        self.left = left
        self.right = right


class Forall(Record):
    __slots__ = ("variables", "body")

    def __init__(self, variables: tuple[str, ...], body: "Formula"):
        self.variables = variables
        self.body = body


class Exists(Record):
    __slots__ = ("variables", "body")

    def __init__(self, variables: tuple[str, ...], body: "Formula"):
        self.variables = variables
        self.body = body


Formula = Union[
    TrueF, FalseF, Atom, Eq, Distinct, NotN, AndN, OrN, Implies, Iff, Forall, Exists
]


# The TPTP roles of a unit that is asserted as it stands.  A `conjecture`
# is asserted negated, and a `type` declaration asserts nothing; the
# parser rejects every other role.
ASSERTED_ROLES = frozenset(("axiom", "hypothesis", "definition", "assumption", "lemma",
                            "theorem", "corollary", "plain", "negated_conjecture"))


class TptpFormula(Record):
    """One annotated formula of a TPTP problem: what the emitter adds to a
    document and what the parser reads back."""

    __slots__ = ("name", "role", "body")

    def __init__(self, name: str, role: str, body: Formula):
        self.name = name
        self.role = role  # one of ASSERTED_ROLES, or conjecture
        self.body = body


def conj(operands) -> Formula:
    ops = [f for f in operands if not isinstance(f, TrueF)]
    if any(isinstance(f, FalseF) for f in ops):
        return FalseF()
    if not ops:
        return TrueF()
    if len(ops) == 1:
        return ops[0]
    return AndN(tuple(ops))


def conjuncts(f: Formula) -> list[Formula]:
    """The operands of nested conjunctions, `$true` left out."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if type(g) is AndN:
            stack.extend(reversed(g.operands))
        elif type(g) is not TrueF:
            out.append(g)
    return out


def disj(operands) -> Formula:
    ops = [f for f in operands if not isinstance(f, FalseF)]
    if any(isinstance(f, TrueF) for f in ops):
        return TrueF()
    if not ops:
        return FalseF()
    if len(ops) == 1:
        return ops[0]
    return OrN(tuple(ops))


def neg(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FalseF()
    if isinstance(f, FalseF):
        return TrueF()
    if isinstance(f, NotN):
        return f.operand
    return NotN(f)


def components(nodes: Iterable, successors: Callable[..., Iterable]) -> list[list]:
    """The strongly connected components of a directed graph, each after
    every component it reaches (Tarjan, *Depth-First Search and Linear
    Graph Algorithms*, SIAM J. Comput. 1972), on an explicit stack."""
    low: dict = {}  # the least index a node reaches; infinite once placed
    stack: list = []
    out: list[list] = []
    for root in nodes:
        if root in low:
            continue
        work = [(root, len(low), len(stack), iter(successors(root)))]
        low[root] = len(low)
        stack.append(root)
        while work:
            v, index, bottom, it = work[-1]
            for w in it:
                if w not in low:
                    work.append((w, len(low), len(stack), iter(successors(w))))
                    low[w] = len(low)
                    stack.append(w)
                    break
                low[v] = min(low[v], low[w])
            else:
                work.pop()
                if low[v] == index:
                    out.append(stack[bottom:])
                    del stack[bottom:]
                    low.update(dict.fromkeys(out[-1], float("inf")))
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
    return out


# --- Rendering to TPTP syntax ----------------------------------------------

_LOWER_WORD = re.compile(r"[a-z][A-Za-z0-9_]*")


def atom_name(symbol: str) -> str:
    """Quote a symbol into a TPTP atom unless it is already a lower word."""
    if _LOWER_WORD.fullmatch(symbol) and symbol not in ("fof", "tff", "cnf", "include"):
        return symbol
    escaped = symbol.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def unquote_atom(text: str) -> str:
    if text.startswith("'") and text.endswith("'"):
        body = text[1:-1]
        if "\\" in body:
            body = body.replace("\\'", "'").replace("\\\\", "\\")
        return body
    return text


class SymbolTable(Record):
    """The quoted text of each symbol that renderings sharing the table met.

    `consts` maps every constant (function arguments included) to its
    text, and `preds` every predicate to its text and the arity it had
    where a rendering first met it.  A rendering quotes a symbol only on its first
    occurrence; function symbols, which only the prover builds, are quoted
    at each one and not recorded.
    """

    __slots__ = ("consts", "preds")
    __hash__ = None

    def __init__(self, consts: Optional[dict[str, str]] = None,
                 preds: Optional[dict[str, tuple[str, int]]] = None):
        self.consts = {} if consts is None else consts
        self.preds = {} if preds is None else preds


def term_text(t: Term, consts: dict[str, str]) -> str:
    if isinstance(t, Const):
        text = consts.get(t.name)
        if text is None:
            text = consts[t.name] = atom_name(t.name)
        return text
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Func):
        return f"{atom_name(t.name)}({', '.join(term_text(a, consts) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


def _atomic_text(f: Formula, symbols: SymbolTable) -> Optional[str]:
    """The text of a formula without subformulas, a negated equality
    included; None for any other formula."""
    consts = symbols.consts
    if isinstance(f, Atom):
        pred = symbols.preds.get(f.pred)
        if pred is None:
            pred = symbols.preds[f.pred] = (atom_name(f.pred), len(f.args))
        if not f.args:
            return pred[0]
        return f"{pred[0]}({', '.join([term_text(a, consts) for a in f.args])})"
    if isinstance(f, NotN):
        if isinstance(f.operand, Eq):
            eq = f.operand
            return f"({term_text(eq.left, consts)} != {term_text(eq.right, consts)})"
        return None
    if isinstance(f, Eq):
        return f"({term_text(f.left, consts)} = {term_text(f.right, consts)})"
    if isinstance(f, TrueF):
        return "$true"
    if isinstance(f, FalseF):
        return "$false"
    if isinstance(f, Distinct):
        return f"$distinct({', '.join([term_text(c, consts) for c in f.constants])})"
    return None


def formula_text(f: Formula, symbols: Optional[SymbolTable] = None) -> str:
    """Fully parenthesized TPTP rendering.

    A compound formula is written as its opening, its subformulas joined by
    its separator, and ")".  The walk keeps its own stack of subformulas and
    text still to write, so a deeply nested formula needs no deep Python
    recursion.  Each symbol is quoted once per table: pass one `symbols`
    to every formula of a document to quote each of its symbols once and
    to read the document's signature off the table afterwards.
    """
    if symbols is None:
        symbols = SymbolTable()
    text = _atomic_text(f, symbols)
    if text is not None:
        return text
    parts: list[str] = []
    stack: list = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
            continue
        if isinstance(node, (AndN, OrN)):
            opening, subformulas = "(", node.operands
            sep = " & " if isinstance(node, AndN) else " | "
        elif isinstance(node, NotN):
            opening, subformulas, sep = "~(", (node.operand,), ""
        elif isinstance(node, (Implies, Iff)):
            opening, subformulas = "(", (node.left, node.right)
            sep = " => " if isinstance(node, Implies) else " <=> "
        elif isinstance(node, (Forall, Exists)):
            quantifier = "!" if isinstance(node, Forall) else "?"
            opening = f"({quantifier}[{', '.join(node.variables)}]: "
            subformulas, sep = (node.body,), ""
        else:
            raise TypeError(f"not a formula: {node!r}")
        texts = [_atomic_text(x, symbols) for x in subformulas]
        if None not in texts:
            parts.append(opening + sep.join(texts) + ")")
            continue
        # pushed in reverse, so that the opening pops first
        stack.append(")")
        for i in range(len(subformulas) - 1, -1, -1):
            stack.append(subformulas[i] if texts[i] is None else texts[i])
            if i:
                stack.append(sep)
        stack.append(opening)
    return "".join(parts)
