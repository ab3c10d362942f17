"""Plain first-order formula trees over the emitted signature.

Used by the TPTP emitter and by the built-in prover.  Function-application
terms only arise inside the prover (from skolemization); the emitter itself
produces function-free formulas.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Func:
    name: str
    args: tuple["Term", ...]


Term = Union[Var, Const, Func]


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class FalseF:
    pass


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Distinct:
    """TFF $distinct over a tuple of constants."""

    constants: tuple[Const, ...]


@dataclass(frozen=True)
class NotN:
    operand: "Formula"


@dataclass(frozen=True)
class AndN:
    operands: tuple["Formula", ...]


@dataclass(frozen=True)
class OrN:
    operands: tuple["Formula", ...]


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    variables: tuple[str, ...]
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    variables: tuple[str, ...]
    body: "Formula"


Formula = Union[
    TrueF, FalseF, Atom, Eq, Distinct, NotN, AndN, OrN, Implies, Iff, Forall, Exists
]


def conj(operands) -> Formula:
    ops = [f for f in operands if not isinstance(f, TrueF)]
    if any(isinstance(f, FalseF) for f in ops):
        return FalseF()
    if not ops:
        return TrueF()
    if len(ops) == 1:
        return ops[0]
    return AndN(tuple(ops))


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


def term_text(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return atom_name(t.name)
    if isinstance(t, Func):
        return f"{atom_name(t.name)}({', '.join(term_text(a) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


def _atomic_text(f: Formula) -> Optional[str]:
    """The text of a formula without subformulas, a negated equality
    included; None for any other formula."""
    if isinstance(f, Atom):
        if not f.args:
            return atom_name(f.pred)
        return f"{atom_name(f.pred)}({', '.join(term_text(a) for a in f.args)})"
    if isinstance(f, NotN):
        if isinstance(f.operand, Eq):
            return f"({term_text(f.operand.left)} != {term_text(f.operand.right)})"
        return None
    if isinstance(f, Eq):
        return f"({term_text(f.left)} = {term_text(f.right)})"
    if isinstance(f, TrueF):
        return "$true"
    if isinstance(f, FalseF):
        return "$false"
    if isinstance(f, Distinct):
        return f"$distinct({', '.join(term_text(c) for c in f.constants)})"
    return None


def formula_text(f: Formula) -> str:
    """Fully parenthesized TPTP rendering.

    A compound formula is written as its opening, its subformulas joined by
    its separator, and ")".  The walk keeps its own stack of subformulas and
    text still to write, so a deeply nested formula needs no deep Python
    recursion.
    """
    text = _atomic_text(f)
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
        texts = [_atomic_text(x) for x in subformulas]
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


# --- Structural helpers ----------------------------------------------------

def walk_atoms(f: Formula):
    """Yield every Atom / Eq / Distinct node."""
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (Atom, Eq, Distinct)):
            yield node
        elif isinstance(node, NotN):
            stack.append(node.operand)
        elif isinstance(node, (AndN, OrN)):
            stack.extend(node.operands)
        elif isinstance(node, (Implies, Iff)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (Forall, Exists)):
            stack.append(node.body)


def collect_symbols(f: Formula):
    """(predicates with arity, constants, functions with arity) of a formula."""
    preds: dict[str, int] = {}
    consts: set[str] = set()
    funcs: dict[str, int] = {}

    def scan_term(t: Term):
        if isinstance(t, Const):
            consts.add(t.name)
        elif isinstance(t, Func):
            funcs[t.name] = len(t.args)
            for a in t.args:
                scan_term(a)

    for node in walk_atoms(f):
        if isinstance(node, Atom):
            preds[node.pred] = len(node.args)
            for a in node.args:
                scan_term(a)
        elif isinstance(node, Eq):
            scan_term(node.left)
            scan_term(node.right)
        else:
            for c in node.constants:
                scan_term(c)
    return preds, consts, funcs
