"""Parser for the TPTP subset the emitter produces (FOF and TFF).

Accepts `fof(name, role, formula).` and `tff(...)` units, including TFF
type declarations (which are checked for shape and otherwise ignored) and
`$distinct(c1, …, cn)` as the whole body of a non-conjecture unit, and
returns them as `fol.TptpFormula`, the units the emitter builds.  Used by
`shacl2fol-miniprover FILE` and by the well-formedness checks of the test
suite; the integrated prover decides the emitted units without reading
their text back.

The text is read in two steps.  One compiled-regex call splits the whole
text into its token strings, skipping whitespace and `%` comments; the
input is rejected, with its line and column, at the first character no
token starts with.  The parser then walks the token list by index and
keeps the formulas it has opened (parentheses, `~`, quantifiers, and `&`/
`|` chains or a binary `=>`/`<=>`) on one explicit stack, so the depth of
a problem is bounded by memory, not by Python's recursion limit.

Given a clock (`sat.Clock`), the walk reports its tokens to it: each
unit's, and inside a formula those up to each atom, so neither many units
nor one wide formula outruns the deadline; a read past it raises
`sat.TimeBudgetExceeded`.  The one regex call that tokenizes the text
runs uncut.

Each call of `parse_tptp` keeps one symbol table, a dict from a constant
or predicate token to its `Const`, filled as the tokens are first met: a
quoted token is unquoted once, and every occurrence of a constant shares
one `Const`.
"""

from __future__ import annotations

import re

from .fol import (
    AndN, Atom, Const, Distinct, Eq, Exists, Forall, FalseF, Iff, Implies,
    NotN, OrN, TptpFormula, TrueF, Var, unquote_atom,
)


class TptpParseError(ValueError):
    pass


_TOKENS = (
    r"'[^'\\]*(?:\\.[^'\\]*)*'"  # quoted atom
    r"|\$[a-z][A-Za-z0-9_]*"  # defined word
    r"|[a-zA-Z_][A-Za-z0-9_]*"  # word
    r"|<=>|=>|!=|[=!?~&|():,.\[\]*>]"
)
# Each match skips whitespace and comments, then captures a token, "" at
# the end of the text, or, where no token starts, the whole rest of the
# text.  That rest ends the list, and is the one string in it that is not
# a token.
_TOKEN = re.compile(rf"(?:\s+|%[^\n]*)*({_TOKENS}|\Z|(?s:.+))")
_ONE_TOKEN = re.compile(_TOKENS)


def _tokenize(text: str) -> list[str]:
    """The token strings of `text`, followed by one or two "" (the end)."""
    tokens = _TOKEN.findall(text)
    rest = tokens[-2] if len(tokens) > 1 else ""  # the last before the end
    if rest and _ONE_TOKEN.fullmatch(rest) is None:
        at = len(text) - len(rest)
        line = text.count("\n", 0, at) + 1
        column = at - text.rfind("\n", 0, at)
        snippet = rest.partition("\n")[0][:30]
        raise TptpParseError(f"bad TPTP input at line {line}, column {column}: {snippet!r}")
    return tokens


def _expect(tokens: list[str], i: int, value: str) -> int:
    """The index after tokens[i], which must be `value`."""
    tok = tokens[i]
    if tok != value:
        if not tok:
            raise TptpParseError("unexpected end of input")
        raise TptpParseError(f"expected {value!r}, found {tok!r}")
    return i + 1


def _symbol(symbols: dict[str, Const], tok: str) -> Const:
    """The `Const` of the constant or predicate token `tok`, built on its
    first occurrence."""
    c = symbols[tok] = Const(unquote_atom(tok) if tok[0] == "'" else tok)
    return c


def _term(tokens: list[str], i: int, symbols: dict[str, Const]):
    """The constant or variable at tokens[i], and the index after it."""
    tok = tokens[i]
    c = symbols.get(tok)
    if c is None:
        first = tok[:1]
        if "A" <= first <= "Z":
            return Var(tok), i + 1
        if not (first == "'" or "a" <= first <= "z" or first == "_"):
            if not tok:
                raise TptpParseError("unexpected end of input")
            raise TptpParseError(f"bad term {tok!r}")
        c = _symbol(symbols, tok)
    if tokens[i + 1] == "(":
        raise TptpParseError("function terms are not part of the emitted subset")
    return c, i + 1


def _terms(tokens: list[str], i: int, symbols: dict[str, Const]):
    """The comma-separated terms from tokens[i] up to a closing ")"."""
    terms = []
    while True:
        t, i = _term(tokens, i, symbols)
        terms.append(t)
        if tokens[i] != ",":
            return tuple(terms), _expect(tokens, i, ")")
        i += 1


def _equality(left, tokens: list[str], i: int, symbols: dict[str, Const]):
    """`left = t` or `left != t`, with tokens[i] the sign."""
    sign = tokens[i]
    right, i = _term(tokens, i + 1, symbols)
    eq = Eq(left, right)
    return (eq if sign == "=" else NotN(eq)), i


def _atom(tokens: list[str], i: int, symbols: dict[str, Const]):
    """The atomic formula at tokens[i], and the index after it."""
    tok = tokens[i]
    first = tok[:1]
    nxt = tokens[i + 1] if tok else ""
    if "A" <= first <= "Z":
        if nxt != "=" and nxt != "!=":
            raise TptpParseError("a bare variable is not a formula")
        return _equality(Var(tok), tokens, i + 1, symbols)
    if first == "'" or "a" <= first <= "z" or first == "_":
        c = symbols.get(tok) or _symbol(symbols, tok)
        if nxt == "(":
            args, i = _terms(tokens, i + 2, symbols)
            if tokens[i] == "=" or tokens[i] == "!=":
                raise TptpParseError("function terms are not part of the emitted subset")
            return Atom(c.name, args), i
        if nxt == "=" or nxt == "!=":
            return _equality(c, tokens, i + 1, symbols)
        return Atom(c.name, ()), i + 1
    if tok == "$true":
        return TrueF(), i + 1
    if tok == "$false":
        return FalseF(), i + 1
    if tok == "$distinct":
        raise TptpParseError("$distinct is read only as the whole body of a non-conjecture unit")
    if not tok:
        raise TptpParseError("unexpected end of input")
    raise TptpParseError(f"unexpected token {tok!r}")


def _variable(tokens: list[str], i: int) -> str:
    tok = tokens[i]
    if not tok:
        raise TptpParseError("unexpected end of input")
    if not "A" <= tok[0] <= "Z":
        raise TptpParseError(f"bad variable name {tok!r}")
    return tok


# Frames of the formula stack, besides a quantifier's (constructor,
# variables) tuple and a connective's [operator, operand, ...] list.
_OPEN = "("
_NOT = "~"
_CONNECTIVES = frozenset(("&", "|", "=>", "<=>"))


def _formula(tokens: list[str], i: int, symbols: dict[str, Const], clock=None):
    """The formula at tokens[i], and the index after it; its tokens are
    reported to `clock`, if given.

    Grammar: a formula is a unitary formula, optionally followed by one
    `=>` or `<=>` and a unitary formula, or by one or more `&` (or `|`)
    and unitary formulas; a unitary formula is `~` or a quantifier before
    a unitary formula, a parenthesized formula, or an atom.
    """
    stack: list = []
    ticked = i  # the tokens before it are reported to the clock
    while True:
        tok = tokens[i]
        if tok == "(":
            stack.append(_OPEN)
            i += 1
            continue
        if tok == "~":
            stack.append(_NOT)
            i += 1
            continue
        if tok == "!" or tok == "?":
            i = _expect(tokens, i + 1, "[")
            variables = [_variable(tokens, i)]
            i += 1
            while tokens[i] == ",":
                variables.append(_variable(tokens, i + 1))
                i += 2
            i = _expect(tokens, _expect(tokens, i, "]"), ":")
            stack.append((Forall if tok == "!" else Exists, tuple(variables)))
            continue
        f, i = _atom(tokens, i, symbols)
        if clock is not None:
            clock.tick(i - ticked)
            ticked = i
        # f is a whole unitary formula: close the frames it completes
        while True:
            top = stack[-1] if stack else None
            if top is _NOT:
                stack.pop()
                f = NotN(f)
                continue
            if type(top) is tuple:
                stack.pop()
                f = top[0](top[1], f)
                continue
            if type(top) is list:
                op = top[0]
                if op == "&" or op == "|":
                    top.append(f)
                    if tokens[i] == op:
                        i += 1
                        break  # on to the next operand
                    f = (AndN if op == "&" else OrN)(tuple(top[1:]))
                else:
                    f = (Implies if op == "=>" else Iff)(top[1], f)
                stack.pop()
            elif tokens[i] in _CONNECTIVES:
                stack.append([tokens[i], f])
                i += 1
                break  # on to the second operand
            # f is a whole formula
            if not stack:
                if clock is not None:
                    clock.tick(i - ticked)
                return f, i
            i = _expect(tokens, i, ")")
            stack.pop()  # _OPEN


def _skip_type_declaration(tokens: list[str], i: int) -> int:
    """The index of the ")" that closes the type declaration at tokens[i]."""
    depth = 0
    while True:
        tok = tokens[i]
        if not tok:
            raise TptpParseError("unterminated type declaration")
        if tok == "(":
            depth += 1
        elif tok == ")":
            if depth == 0:
                return i
            depth -= 1
        i += 1


def parse_tptp(text: str, clock=None) -> list[TptpFormula]:
    """Parse a TPTP problem into its annotated formulas (type units skipped).

    With a `sat.Clock`, the walk over the tokens reports them to it and
    raises `sat.TimeBudgetExceeded` at a read past its deadline."""
    tokens = _tokenize(text)
    symbols: dict[str, Const] = {}
    units = []
    i = 0
    while tokens[i]:
        start = i  # the unit's first token not yet reported to the clock
        kw = tokens[i]
        if kw != "fof" and kw != "tff":
            raise TptpParseError(f"expected fof/tff unit, found {kw!r}")
        i = _expect(tokens, i + 1, "(")
        name = tokens[i]
        if not name:
            raise TptpParseError("unexpected end of input")
        i = _expect(tokens, i + 1, ",")
        role = tokens[i]
        if not role:
            raise TptpParseError("unexpected end of input")
        i = _expect(tokens, i + 1, ",")
        if role == "type":
            i = _skip_type_declaration(tokens, i)
        elif tokens[i] == "$distinct" and role != "conjecture":
            consts, i = _terms(tokens, _expect(tokens, i + 1, "("), symbols)
            if any(isinstance(c, Var) for c in consts):
                raise TptpParseError("$distinct expects constants")
            units.append(TptpFormula(name, role, Distinct(consts)))
        else:
            if clock is not None:
                clock.tick(i - start)
            body, i = _formula(tokens, i, symbols, clock)
            start = i  # `_formula` reported the body's tokens
            units.append(TptpFormula(name, role, body))
        i = _expect(tokens, _expect(tokens, i, ")"), ".")
        if clock is not None:
            clock.tick(i - start)
    return units
