"""Parser for the TPTP subset the emitter produces (FOF and TFF).

Accepts `fof(name, role, formula).` and `tff(...)` units, including TFF
type declarations (which are checked for shape and otherwise ignored) and
`$distinct(c1, …, cn)` as the whole body of a non-conjecture unit, and
returns them as `fol.TptpFormula`, the units the emitter builds.  Used by
`shacl2fol-miniprover FILE` and by the well-formedness checks of the test
suite; the integrated prover decides the emitted units without reading
their text back.

The text is read in two steps.  One compiled regex splits the text into
its token strings, skipping whitespace and `%` comments, slice by slice;
the input is rejected, with its line and column, at the first character
no token starts with.  The parser then walks the token list by index and
keeps the formulas it has opened (parentheses, `~`, quantifiers, and `&`/
`|` chains or a binary `=>`/`<=>`) on one explicit stack, so the depth of
a problem is bounded by memory, not by Python's recursion limit.

Most of an emitted problem is units of one fixed layout, and the token
regex tries three coarse tokens before the fine ones (a word, a quoted
atom, a defined word or a punctuation mark): a unit whose body is a
ground atom of one or two arguments, `tff(graph_pos_1, axiom,
'p'('a', 'b')).`; a type declaration, `tff(decl_c_1, type, 'a': $i).`;
and a closure case, `((X = 'a') & (Y = 'b'))`.  The regex makes a
coarse token only where the fine tokens would be exactly its own.  The
walker reads a unit token at a unit's start and a case token where a
unitary formula stands, each in one step, with one match of its pattern
for its parts; a type declaration skips any coarse token in it.  Met
anywhere else, a coarse token makes the walk raise, and `parse_tptp`
reads the whole text once more from its fine tokens alone: the units or
the error of that reading are the answer.  So every text gives the
units, or the error, that its fine tokens give, and valid text is read
once.

Given a clock (`sat.Clock`), the walk reports its tokens to it: each
unit's, and inside a formula those up to each atom, so neither many units
nor one wide formula outruns the deadline; a read past it raises
`sat.TimeBudgetExceeded`.  A coarse token counts as the fine tokens it
stands for, and a text read twice is reported twice.  The tokenizer
reads the clock after each slice of about 64 KiB, which ends after a
line end, or in a longer line after a space outside any comment, where
no token but a quoted atom can run across (a slice that ends inside one
ends before it instead), so the tokens of a large text do not outrun the
deadline either.  A `%` in a quoted atom, as in a percent-encoded IRI,
opens no comment and does not stop the cut.

Each call of `parse_tptp` keeps one symbol table, a dict from a constant
or predicate token to its `Const`, filled as the tokens are first met: a
quoted token is unquoted once, and every occurrence of a constant shares
one `Const`.
"""

from __future__ import annotations

import functools
import re

from .fol import (
    ASSERTED_ROLES, AndN, Atom, Const, Distinct, Eq, Exists, Forall, FalseF, Iff,
    Implies, NotN, OrN, TptpFormula, TrueF, Var, unquote_atom,
)


class TptpParseError(ValueError):
    pass


_QUOTED = r"'[^'\\]*(?:\\.[^'\\]*)*'"  # quoted atom
_DEFINED = r"\$[a-z][A-Za-z0-9_]*"  # defined word
_WORD = r"[a-zA-Z_][A-Za-z0-9_]*"
_FINE_TOKENS = rf"{_QUOTED}|{_DEFINED}|{_WORD}|<=>|=>|!=|[=!?~&|():,.\[\]*>]"
_NAME = rf"(?:{_QUOTED}|[a-z][A-Za-z0-9_]*)"  # a unit's name: a quoted or lower word
_UNIT_NAME = re.compile(_NAME)
_ROLES = ASSERTED_ROLES | {"conjecture", "type"}

# The coarse tokens: runs of fine tokens, with only whitespace between
# them, that the emitter writes over and over.  Each part is one whole
# fine token: every word and quoted atom in them is followed by
# punctuation, and no punctuation by a part that a longer token starts
# with.  A coarse token ends in `)` or `.`, which no fine token of two or
# more characters does, and its parentheses are balanced.  The walker
# reads a token's parts with one match of its pattern.
_SYMBOL = rf"(?:{_QUOTED}|[a-z_][A-Za-z0-9_]*)"  # a constant or a predicate
_VARIABLE = r"[A-Z][A-Za-z0-9_]*"
# A unit: a type declaration of a constant or a predicate, which the
# walker skips, or one whose body is a ground atom of one or two arguments;
# its name and role are ones the walker takes.
_TYPE = rf"(?:{_DEFINED}|\(\s*{_DEFINED}(?:\s*\*\s*{_DEFINED})*\s*\)\s*>\s*{_DEFINED})"
_ROLE = "|".join(sorted(_ROLES - {"type"}))
_UNIT = (rf"(?:fof|tff)\s*\(\s*(?P<name>{_NAME})\s*,\s*"
         rf"(?:type\s*,\s*{_SYMBOL}\s*:\s*{_TYPE}|(?P<role>{_ROLE})\s*,\s*"
         rf"(?P<pred>{_SYMBOL})\s*\(\s*(?P<a>{_SYMBOL})\s*(?:,\s*(?P<b>{_SYMBOL})\s*)?\))"
         r"\s*\)\s*\.")
# a case of a closure: a unitary formula `((X = a) & (Y = b))`
_CASE = (rf"\(\s*\(\s*(?P<x>{_VARIABLE})\s*=\s*(?P<a>{_SYMBOL})\s*\)\s*&\s*"
         rf"\(\s*(?P<y>{_VARIABLE})\s*=\s*(?P<b>{_SYMBOL})\s*\)\s*\)")
_UNIT_PARTS = re.compile(_UNIT)
_CASE_PARTS = re.compile(_CASE)
# the fine tokens of a case, which the walker reports to the clock for it
_CASE_WORK = 13
_TOKENS = "|".join([*(re.sub(r"\(\?P<\w+>", "(?:", p) for p in (_UNIT, _CASE)),
                    _FINE_TOKENS])


def _token_re(tokens: str) -> re.Pattern:
    """The tokenizer of the alternatives `tokens`.  Each match skips
    whitespace and comments, then captures a token, "" at the end of the
    text, or, where no token starts, the whole rest of the text.  That rest
    ends the list, and is the one string in it that is not a token."""
    return re.compile(rf"(?:\s+|%[^\n]*)*({tokens}|\Z|(?s:.+))")


_TOKEN = _token_re(_TOKENS)
_FINE_TOKEN_START = re.compile(_FINE_TOKENS)


@functools.cache
def _fine_token() -> re.Pattern:
    """The tokenizer of the fine tokens alone, which reads the text again
    when a coarse token is out of its place; compiled at its first use."""
    return _token_re(_FINE_TOKENS)


_SLICE = 1 << 16  # the characters of text tokenized between reads of the clock
# a `%` outside quoted atoms, which opens a comment
_COMMENT = re.compile(rf"[^'%]*(?:{_QUOTED}[^'%]*)*%")


def _cut(text: str, pos: int) -> int:
    """The end of the slice of `text` that starts at `pos`, about `_SLICE`
    characters on, where no token but a quoted atom runs across: after its
    last line end, or, in a longer line, after the first space past it if
    the slice has no `%` outside quoted atoms, which would open a comment
    that runs across; else after the line.  Or the end of the text."""
    end = pos + _SLICE
    if end >= len(text):
        return len(text)
    line = text.rfind("\n", pos, end)
    if line < 0:
        space = text.find(" ", end)
        if space >= 0 and (text.find("%", pos, space) < 0
                           or _COMMENT.match(text, pos, space) is None):
            return space + 1
        line = text.find("\n", end)
    return len(text) if line < 0 else line + 1


def _tokenize(text: str, clock=None, fine: bool = False) -> list[str]:
    """The token strings of `text`, followed by one or two "" (the end);
    with `fine`, the fine tokens alone.

    The text is tokenized in slices (`_cut`), and the clock, if given, is
    read after each.  A slice that ends where no token starts, in a quoted
    atom that runs on or at a character no token starts with, ends there
    instead: the next slice starts at that character, and reads to the end
    of the text when it would end there again.  A coarse token that runs
    across a cut is read as its fine tokens, which the walker reads alike."""
    token = _fine_token() if fine else _TOKEN
    tokens: list[str] = []
    pos, end = 0, _cut(text, 0)
    while end < len(text):
        part = token.findall(text, pos, end)
        while part and not part[-1]:  # the slice's end, not the text's
            part.pop()
        at = end
        if part and _FINE_TOKEN_START.match(part[-1]) is None:
            at -= len(part.pop())
        tokens += part
        pos, end = at, len(text) if at == pos else _cut(text, at)
        if clock is not None:
            clock.check()
    tokens += token.findall(text, pos)
    rest = tokens[-2] if len(tokens) > 1 else ""  # the last before the end
    # a token, fine or coarse, starts with a fine token; the rest where no
    # token starts does not
    if rest and _FINE_TOKEN_START.match(rest) is None:
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
    first occurrence; a coarse token is none."""
    if tok[-1] in ").":
        raise TptpParseError(f"unexpected token {tok!r}")
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
    if tokens[i + 1][:1] == "(":  # a "(", or a coarse token that starts with one
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
    a unitary formula, a parenthesized formula, or an atom.  A closure
    case token is a whole parenthesized formula; a unit token is no atom.
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
        if len(tok) > 1 and tok[-1] == ")":  # a closure case
            x, a, y, b = _CASE_PARTS.match(tok).groups()
            f = AndN((Eq(Var(x), symbols.get(a) or _symbol(symbols, a)),
                      Eq(Var(y), symbols.get(b) or _symbol(symbols, b))))
            i += 1
            ticked -= _CASE_WORK - 1  # the case's fine tokens but one
        else:
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


def _skip_type_declaration(tokens: list[str], i: int, clock=None) -> int:
    """The index of the ")" that closes the type declaration at tokens[i];
    a coarse token in it is reported to `clock`, if given, as its fine
    tokens but one."""
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
        elif clock is not None and len(tok) > 1 and tok[-1] in ").":
            clock.tick(len(_fine_token().findall(tok)) - 2)
        i += 1


def parse_tptp(text: str, clock=None) -> list[TptpFormula]:
    """Parse a TPTP problem into its annotated formulas (type units skipped).

    With a `sat.Clock`, the walk over the tokens reports them to it and
    raises `sat.TimeBudgetExceeded` at a read past its deadline."""
    try:
        return _units(_tokenize(text, clock), clock)
    except TptpParseError:  # a coarse token out of its place, or bad text
        return _units(_tokenize(text, clock, fine=True), clock)


def _units(tokens: list[str], clock) -> list[TptpFormula]:
    """The units of the tokens, whose coarse tokens stand at a unit's start,
    where a unitary formula stands or in a type declaration."""
    symbols: dict[str, Const] = {}
    units = []
    i = 0
    while tokens[i]:
        start = i  # the unit's first token not yet reported to the clock
        kw = tokens[i]
        if len(kw) > 1 and kw[-1] == ".":  # a whole unit
            name, role, pred, a, b = _UNIT_PARTS.match(kw).groups()
            if role is not None:
                p = symbols.get(pred) or _symbol(symbols, pred)
                c = symbols.get(a) or _symbol(symbols, a)
                args = (c,) if b is None else (c, symbols.get(b) or _symbol(symbols, b))
                units.append(TptpFormula(name, role, Atom(p.name, args)))
            if clock is not None:
                # a ground atom: ten fine tokens, and two per argument
                clock.tick(len(_fine_token().findall(kw)) - 1 if role is None
                           else 12 if b is None else 14)
            i += 1
            continue
        if kw != "fof" and kw != "tff":
            raise TptpParseError(f"expected fof/tff unit, found {kw!r}")
        i = _expect(tokens, i + 1, "(")
        name = tokens[i]
        if not name:
            raise TptpParseError("unexpected end of input")
        i = _expect(tokens, i + 1, ",")
        if _UNIT_NAME.fullmatch(name) is None:
            raise TptpParseError(f"bad unit name {name!r}")
        role = tokens[i]
        if not role:
            raise TptpParseError("unexpected end of input")
        i = _expect(tokens, i + 1, ",")
        if role not in _ROLES:
            raise TptpParseError(f"unknown role {role!r}")
        if role == "type":
            i = _skip_type_declaration(tokens, i, clock)
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
