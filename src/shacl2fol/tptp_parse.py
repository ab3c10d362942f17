"""Parser for the TPTP subset the emitter produces (FOF and TFF).

Accepts `fof(name, role, formula).` and `tff(...)` units, including TFF
type declarations (which are checked for shape and otherwise ignored) and
the `$distinct` defined predicate.  Used by the built-in prover and by the
well-formedness checks of the test suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fol import (
    AndN, Atom, Const, Distinct, Eq, Exists, Forall, Formula, FalseF, Iff,
    Implies, NotN, OrN, TrueF, Var, unquote_atom,
)


class TptpParseError(ValueError):
    pass


_SPACE = re.compile(r"\s*")
_TOKEN = re.compile(
    r"(?P<comment>%[^\n]*)"
    r"|(?P<quoted>'(?:[^'\\]|\\.)*')"
    r"|(?P<dword>\$[a-z][A-Za-z0-9_]*)"
    r"|(?P<word>[a-zA-Z_][A-Za-z0-9_]*)"
    r"|(?P<op><=>|=>|!=|[=!?~&|():,.\[\]*>])"
)
_VARIABLE = re.compile(r"^[A-Z][A-Za-z0-9_]*$")
_LOWER_WORD = re.compile(r"^[a-z_][A-Za-z0-9_]*$")


def _tokenize(text: str) -> list[str]:
    tokens = []
    end = len(text)
    pos = 0
    while True:
        start = _SPACE.match(text, pos).end()
        if start == end:
            return tokens
        m = _TOKEN.match(text, start)
        if m is None:
            raise TptpParseError(f"bad TPTP input at {text[pos:pos+30]!r}")
        kind = m.lastgroup
        if kind != "comment":
            tokens.append(m.group(kind))
        pos = m.end()


@dataclass
class TptpUnit:
    name: str
    role: str
    body: Formula


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def next(self) -> str:
        tok = self.peek()
        if not tok:
            raise TptpParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, value: str):
        tok = self.next()
        if tok != value:
            raise TptpParseError(f"expected {value!r}, found {tok!r}")

    def units(self) -> list[TptpUnit]:
        out = []
        while self.peek():
            out.append(self.unit())
        return [u for u in out if u is not None]

    def unit(self):
        kw = self.next()
        if kw not in ("fof", "tff"):
            raise TptpParseError(f"expected fof/tff unit, found {kw!r}")
        self.expect("(")
        name = self.next()
        self.expect(",")
        role = self.next()
        self.expect(",")
        if role == "type":
            self.skip_type_declaration()
            self.expect(")")
            self.expect(".")
            return None
        body = self.formula()
        self.expect(")")
        self.expect(".")
        return TptpUnit(name, role, body)

    def skip_type_declaration(self):
        depth = 0
        while True:
            tok = self.peek()
            if not tok:
                raise TptpParseError("unterminated type declaration")
            if tok == "(" :
                depth += 1
            elif tok == ")":
                if depth == 0:
                    return
                depth -= 1
            self.next()

    # formula grammar: iff/implies are non-associative binary, and/or n-ary

    def formula(self) -> Formula:
        left = self.unitary()
        tok = self.peek()
        if tok == "<=>":
            self.next()
            return Iff(left, self.unitary())
        if tok == "=>":
            self.next()
            return Implies(left, self.unitary())
        if tok == "&":
            ops = [left]
            while self.peek() == "&":
                self.next()
                ops.append(self.unitary())
            return AndN(tuple(ops))
        if tok == "|":
            ops = [left]
            while self.peek() == "|":
                self.next()
                ops.append(self.unitary())
            return OrN(tuple(ops))
        return left

    def unitary(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            self.next()
            return NotN(self.unitary())
        if tok in ("!", "?"):
            self.next()
            self.expect("[")
            variables = [self.variable()]
            while self.peek() == ",":
                self.next()
                variables.append(self.variable())
            self.expect("]")
            self.expect(":")
            body = self.unitary()
            ctor = Forall if tok == "!" else Exists
            return ctor(tuple(variables), body)
        if tok == "(":
            self.next()
            inner = self.formula()
            self.expect(")")
            return inner
        return self.atom()

    def variable(self) -> str:
        tok = self.next()
        if not _VARIABLE.match(tok):
            raise TptpParseError(f"bad variable name {tok!r}")
        return tok

    def term(self):
        tok = self.next()
        if _VARIABLE.match(tok):
            return Var(tok)
        if tok.startswith("'") or _LOWER_WORD.match(tok):
            name = unquote_atom(tok)
            if self.peek() == "(":
                raise TptpParseError("function terms are not part of the emitted subset")
            return Const(name)
        raise TptpParseError(f"bad term {tok!r}")

    def atom(self) -> Formula:
        tok = self.next()
        if tok == "$true":
            return TrueF()
        if tok == "$false":
            return FalseF()
        if tok == "$distinct":
            self.expect("(")
            consts = [self.term()]
            while self.peek() == ",":
                self.next()
                consts.append(self.term())
            self.expect(")")
            if any(isinstance(c, Var) for c in consts):
                raise TptpParseError("$distinct expects constants")
            return Distinct(tuple(consts))
        if _VARIABLE.match(tok):
            return self.equality_tail(Var(tok))
        if tok.startswith("'") or _LOWER_WORD.match(tok):
            name = unquote_atom(tok)
            if self.peek() == "(":
                self.next()
                args = [self.term()]
                while self.peek() == ",":
                    self.next()
                    args.append(self.term())
                self.expect(")")
                nxt = self.peek()
                if nxt in ("=", "!="):
                    raise TptpParseError("function terms are not part of the emitted subset")
                return Atom(name, tuple(args))
            nxt = self.peek()
            if nxt in ("=", "!="):
                return self.equality_tail(Const(name))
            return Atom(name, ())
        raise TptpParseError(f"unexpected token {tok!r}")

    def equality_tail(self, left) -> Formula:
        tok = self.peek()
        if tok == "=":
            self.next()
            return Eq(left, self.term())
        if tok == "!=":
            self.next()
            return NotN(Eq(left, self.term()))
        if isinstance(left, Var):
            raise TptpParseError("a bare variable is not a formula")
        return Atom(left.name, ())


def parse_tptp(text: str) -> list[TptpUnit]:
    """Parse a TPTP problem into its annotated formulas (type units skipped)."""
    return _Parser(text).units()
