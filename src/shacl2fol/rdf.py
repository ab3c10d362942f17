"""RDF data model and parsers for N-Triples and a pragmatic Turtle subset.

The Turtle subset covers what real SHACL documents use: @prefix/@base (and
the SPARQL-style PREFIX/BASE forms), the `a` keyword, predicate and object
lists, anonymous blank nodes `[ ... ]`, collections `( ... )`, and the
numeric/boolean/string literal shorthands.  Named graphs and quoted triples
are rejected.  Literal equality is syntactic: "01"^^xsd:integer and
"1"^^xsd:integer are different terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

from .errors import RdfSyntaxError, UnsupportedFeature

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
SH_NS = "http://www.w3.org/ns/shacl#"

RDF_TYPE = RDF_NS + "type"
RDF_FIRST = RDF_NS + "first"
RDF_REST = RDF_NS + "rest"
RDF_NIL = RDF_NS + "nil"
XSD_STRING = XSD_NS + "string"
XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_DOUBLE = XSD_NS + "double"
XSD_BOOLEAN = XSD_NS + "boolean"


class TermKind(Enum):
    IRI = "iri"
    LITERAL = "literal"
    BLANK = "blank"


@dataclass(frozen=True)
class RdfTerm:
    kind: TermKind
    lexical: str
    datatype: Optional[str] = None
    lang: Optional[str] = None

    def __post_init__(self):
        if self.kind is not TermKind.LITERAL:
            if self.datatype is not None or self.lang is not None:
                raise ValueError("only literals carry a datatype or language tag")
        elif self.lang is not None and self.datatype not in (None, RDF_NS + "langString"):
            raise ValueError("a literal has either a language tag or a datatype")

    def sort_key(self):
        return (self.kind.value, self.lexical, self.datatype or "", self.lang or "")

    def __lt__(self, other):
        if not isinstance(other, RdfTerm):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    @property
    def is_iri(self):
        return self.kind is TermKind.IRI

    @property
    def is_literal(self):
        return self.kind is TermKind.LITERAL

    @property
    def is_blank(self):
        return self.kind is TermKind.BLANK

    def __str__(self):
        if self.kind is TermKind.IRI:
            return f"<{self.lexical}>"
        if self.kind is TermKind.BLANK:
            return f"_:{self.lexical}"
        out = '"%s"' % _escape_literal(self.lexical)
        if self.lang:
            out += "@" + self.lang
        elif self.datatype and self.datatype != XSD_STRING:
            out += f"^^<{self.datatype}>"
        return out


def iri(value: str) -> RdfTerm:
    return RdfTerm(TermKind.IRI, value)


def bnode(label: str) -> RdfTerm:
    return RdfTerm(TermKind.BLANK, label)


def literal(lexical: str, datatype: Optional[str] = None, lang: Optional[str] = None) -> RdfTerm:
    if lang is not None:
        return RdfTerm(TermKind.LITERAL, lexical, None, lang)
    return RdfTerm(TermKind.LITERAL, lexical, datatype or XSD_STRING, None)


@dataclass(frozen=True, order=True)
class Triple:
    subject: RdfTerm
    predicate: RdfTerm
    object: RdfTerm

    def __post_init__(self):
        if not self.predicate.is_iri:
            raise ValueError("triple predicate must be an IRI")
        if self.subject.is_literal:
            raise ValueError("triple subject must not be a literal")


class Graph:
    """An immutable set of triples, indexed by subject, object and predicate.

    The three indexes are built once, in the constructor.  Finding the
    triples about a subject (`about`), into an object (`into`) or with a
    predicate IRI (`with_predicate`) is a constant-time dictionary lookup;
    `objects`, `subjects` and `subjects_of` cost time linear in the
    triples of that one subject, object or predicate, and
    `predicate_names` and `constants` linear in the distinct keys.  No
    accessor scans the whole graph.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self._triples = frozenset(triples)
        by_subject: dict[RdfTerm, list[Triple]] = {}
        by_object: dict[RdfTerm, list[Triple]] = {}
        by_predicate: dict[str, list[Triple]] = {}
        for t in self._triples:
            by_subject.setdefault(t.subject, []).append(t)
            by_object.setdefault(t.object, []).append(t)
            by_predicate.setdefault(t.predicate.lexical, []).append(t)
        self._by_subject = {k: tuple(v) for k, v in by_subject.items()}
        self._by_object = {k: tuple(v) for k, v in by_object.items()}
        self._by_predicate = {k: tuple(v) for k, v in by_predicate.items()}

    @property
    def triples(self) -> frozenset[Triple]:
        return self._triples

    def __len__(self):
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, t: Triple):
        return t in self._triples

    def __eq__(self, other):
        return isinstance(other, Graph) and self._triples == other._triples

    def __hash__(self):
        return hash(self._triples)

    def __repr__(self):
        return f"Graph({len(self._triples)} triples)"

    def about(self, subject: RdfTerm) -> tuple[Triple, ...]:
        """The triples whose subject is `subject`."""
        return self._by_subject.get(subject, ())

    def into(self, obj: RdfTerm) -> tuple[Triple, ...]:
        """The triples whose object is `obj`."""
        return self._by_object.get(obj, ())

    def with_predicate(self, predicate_iri: str) -> tuple[Triple, ...]:
        """The triples whose predicate is the IRI `predicate_iri`."""
        return self._by_predicate.get(predicate_iri, ())

    def predicate_names(self) -> set[str]:
        return set(self._by_predicate)

    def constants(self) -> set[RdfTerm]:
        return self._by_subject.keys() | self._by_object.keys()

    def objects(self, subject: RdfTerm, predicate_iri: str) -> list[RdfTerm]:
        return sorted(
            t.object for t in self.about(subject) if t.predicate.lexical == predicate_iri
        )

    def object(self, subject: RdfTerm, predicate_iri: str) -> Optional[RdfTerm]:
        objs = self.objects(subject, predicate_iri)
        return objs[0] if objs else None

    def subjects(self, predicate_iri: str, obj: RdfTerm) -> list[RdfTerm]:
        return sorted(
            t.subject for t in self.into(obj) if t.predicate.lexical == predicate_iri
        )

    def subjects_of(self, predicate_iri: str) -> set[RdfTerm]:
        return {t.subject for t in self.with_predicate(predicate_iri)}

    def walk_list(self, head: RdfTerm) -> list[RdfTerm]:
        """Walk an rdf:first/rdf:rest chain; raises on malformed lists."""
        items = []
        seen = set()
        node = head
        while not (node.is_iri and node.lexical == RDF_NIL):
            if node in seen:
                raise ValueError("cyclic RDF collection")
            seen.add(node)
            first = self.object(node, RDF_FIRST)
            rest = self.object(node, RDF_REST)
            if first is None or rest is None:
                raise ValueError(f"malformed RDF collection at {node}")
            items.append(first)
            node = rest
        return items


# --- N-Triples -------------------------------------------------------------

_UCHAR = re.compile(r"\\u([0-9a-fA-F]{4})|\\U([0-9a-fA-F]{8})")
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


def _unescape(s: str, line: int, col: int) -> str:
    out = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(s):
            raise RdfSyntaxError("dangling escape", line, col + i)
        nxt = s[i + 1]
        if nxt in _ECHAR:
            out.append(_ECHAR[nxt])
            i += 2
        elif nxt in "uU":
            m = _UCHAR.match(s, i)
            code = int(m.group(1) or m.group(2), 16) if m else -1
            if not (0 <= code <= 0x10FFFF) or 0xD800 <= code <= 0xDFFF:
                raise RdfSyntaxError(f"bad escape \\{nxt}: no Unicode character", line, col + i)
            out.append(chr(code))
            i = m.end()
        else:
            raise RdfSyntaxError(f"bad escape \\{nxt}", line, col + i)
    return "".join(out)


def _escape_literal(s: str) -> str:
    return (
        s.replace("\\", "\\\\").replace('"', '\\"')
        .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    )


# --- Turtle tokenizer ------------------------------------------------------

_TOKEN_SPEC = [
    ("COMMENT", r"#[^\n]*"),
    ("WS", r"[ \t\r]+"),
    ("NL", r"\n"),
    ("IRIREF", r"<[^<>\"{}|^`\\\x00-\x20]*>"),
    ("STRING_LONG", r'"""(?:[^"\\]|\\.|"(?!""))*"""' + r"|'''(?:[^'\\]|\\.|'(?!''))*'''"),
    ("STRING", r'"(?:[^"\\\n]|\\.)*"' + r"|'(?:[^'\\\n]|\\.)*'"),
    ("PREFIX_KW", r"@prefix\b|@base\b"),
    ("SPARQL_KW", r"(?i:PREFIX|BASE)(?=[ \t])"),
    ("LANGTAG", r"@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"),
    ("DOUBLE", r"[+-]?(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+"),
    ("DECIMAL", r"[+-]?\d*\.\d+"),
    ("INTEGER", r"[+-]?\d+"),
    ("BNODE", r"_:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?"),
    ("DTYPE", r"\^\^"),
    ("PUNCT", r"[;,.\[\]()]"),
    ("BRACE", r"[{}]"),
    ("A_KW", r"a(?=[\s<\[(])"),
    ("PNAME", r"(?:[A-Za-z_][A-Za-z0-9_.-]*)?:(?:[A-Za-z0-9_%-](?:[A-Za-z0-9_.%-]*[A-Za-z0-9_%-])?)?"),
    ("WORD", r"[A-Za-z][A-Za-z0-9_-]*"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{n}>{p})" for n, p in _TOKEN_SPEC))


@dataclass
class _Token:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RdfSyntaxError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if kind == "NL":
            line += 1
            line_start = m.end()
        elif kind not in ("WS", "COMMENT"):
            if kind == "BRACE":
                raise UnsupportedFeature("named graphs / quoted triples are not supported")
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        if kind in ("STRING_LONG",):
            nl = value.count("\n")
            if nl:
                line += nl
                line_start = m.start() + value.rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


class _TurtleParser:
    def __init__(self, text: str, base_iri: Optional[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.base = base_iri or ""
        self.triples: list[Triple] = []
        self.bnode_counter = 0
        self.labeled_bnodes: dict[str, RdfTerm] = {}

    # token helpers

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value: Optional[str] = None) -> _Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            raise RdfSyntaxError(
                f"expected {value or kind}, found {tok.value!r}", tok.line, tok.col
            )
        return tok

    def fresh_bnode(self) -> RdfTerm:
        self.bnode_counter += 1
        return bnode(f"b{self.bnode_counter}")

    # grammar

    def parse(self) -> Graph:
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind == "PREFIX_KW" or tok.kind == "SPARQL_KW":
                self.directive()
            else:
                self.triples_block()
        return Graph(self.triples)

    def directive(self):
        tok = self.next()
        keyword = tok.value.lstrip("@").lower()
        if keyword == "prefix":
            pname = self.expect("PNAME")
            if not pname.value.endswith(":") or pname.value.count(":") != 1:
                raise RdfSyntaxError("bad prefix declaration", pname.line, pname.col)
            iri_tok = self.expect("IRIREF")
            self.prefixes[pname.value[:-1]] = self.resolve(iri_tok.value[1:-1])
        else:
            iri_tok = self.expect("IRIREF")
            self.base = self.resolve(iri_tok.value[1:-1])
        if tok.kind == "PREFIX_KW":
            self.expect("PUNCT", ".")

    def resolve(self, ref: str) -> str:
        if re.match(r"^[A-Za-z][A-Za-z0-9+.-]*:", ref):
            return ref
        if not self.base:
            return ref
        if ref.startswith("#") or not ref:
            return self.base.split("#")[0] + ref
        base = self.base
        if base.endswith(("/", "#")):
            return base + ref
        return base.rsplit("/", 1)[0] + "/" + ref

    def triples_block(self):
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.value == "[":
            subj = self.bnode_property_list()
            if self.peek().kind == "PUNCT" and self.peek().value == ".":
                self.next()
                return
            self.predicate_object_list(subj)
        else:
            subj = self.term(position="subject")
            if subj.is_literal:
                raise RdfSyntaxError("literal in subject position", tok.line, tok.col)
            self.predicate_object_list(subj)
        self.expect("PUNCT", ".")

    def predicate_object_list(self, subj: RdfTerm):
        while True:
            pred = self.predicate()
            self.object_list(subj, pred)
            if self.peek().kind == "PUNCT" and self.peek().value == ";":
                self.next()
                # trailing semicolons before '.' or ']' are legal
                while self.peek().kind == "PUNCT" and self.peek().value == ";":
                    self.next()
                if self.peek().kind == "PUNCT" and self.peek().value in ".]":
                    return
                continue
            return

    def predicate(self) -> RdfTerm:
        tok = self.peek()
        if tok.kind == "A_KW":
            self.next()
            return iri(RDF_TYPE)
        term = self.term(position="predicate")
        if not term.is_iri:
            raise RdfSyntaxError("predicate must be an IRI", tok.line, tok.col)
        return term

    def object_list(self, subj: RdfTerm, pred: RdfTerm):
        while True:
            obj = self.term(position="object")
            self.triples.append(Triple(subj, pred, obj))
            if self.peek().kind == "PUNCT" and self.peek().value == ",":
                self.next()
                continue
            return

    def bnode_property_list(self) -> RdfTerm:
        self.expect("PUNCT", "[")
        node = self.fresh_bnode()
        if not (self.peek().kind == "PUNCT" and self.peek().value == "]"):
            self.predicate_object_list(node)
        self.expect("PUNCT", "]")
        return node

    def collection(self) -> RdfTerm:
        self.expect("PUNCT", "(")
        items = []
        while not (self.peek().kind == "PUNCT" and self.peek().value == ")"):
            items.append(self.term(position="object"))
        self.next()
        head: RdfTerm = iri(RDF_NIL)
        links = []
        for item in items:
            links.append((self.fresh_bnode(), item))
        for node, item in reversed(links):
            self.triples.append(Triple(node, iri(RDF_FIRST), item))
            self.triples.append(Triple(node, iri(RDF_REST), head))
            head = node
        return head

    def term(self, position: str) -> RdfTerm:
        tok = self.peek()
        if tok.kind == "IRIREF":
            self.next()
            return iri(self.resolve(_unescape(tok.value[1:-1], tok.line, tok.col)))
        if tok.kind == "PNAME":
            self.next()
            prefix, _, local = tok.value.partition(":")
            if prefix not in self.prefixes:
                raise RdfSyntaxError(f"undeclared prefix {prefix!r}", tok.line, tok.col)
            return iri(self.prefixes[prefix] + local.replace("%", "%"))
        if tok.kind == "BNODE":
            self.next()
            label = tok.value[2:]
            if label not in self.labeled_bnodes:
                self.labeled_bnodes[label] = self.fresh_bnode()
            return self.labeled_bnodes[label]
        if tok.kind == "PUNCT" and tok.value == "[":
            if position == "predicate":
                raise RdfSyntaxError("blank node in predicate position", tok.line, tok.col)
            return self.bnode_property_list()
        if tok.kind == "PUNCT" and tok.value == "(":
            return self.collection()
        if position != "predicate":
            lit = self.maybe_literal()
            if lit is not None:
                return lit
        raise RdfSyntaxError(f"unexpected token {tok.value!r}", tok.line, tok.col)

    def maybe_literal(self) -> Optional[RdfTerm]:
        tok = self.peek()
        if tok.kind in ("STRING", "STRING_LONG"):
            self.next()
            raw = tok.value
            quote = 3 if tok.kind == "STRING_LONG" else 1
            lexical = _unescape(raw[quote:-quote], tok.line, tok.col + quote)
            nxt = self.peek()
            if nxt.kind == "LANGTAG":
                self.next()
                return literal(lexical, lang=nxt.value[1:])
            if nxt.kind == "DTYPE":
                self.next()
                dtype = self.term(position="object")
                if not dtype.is_iri:
                    raise RdfSyntaxError("datatype must be an IRI", nxt.line, nxt.col)
                return literal(lexical, datatype=dtype.lexical)
            return literal(lexical)
        if tok.kind == "INTEGER":
            self.next()
            return literal(tok.value, datatype=XSD_INTEGER)
        if tok.kind == "DECIMAL":
            self.next()
            return literal(tok.value, datatype=XSD_DECIMAL)
        if tok.kind == "DOUBLE":
            self.next()
            return literal(tok.value, datatype=XSD_DOUBLE)
        if tok.kind == "WORD" and tok.value in ("true", "false"):
            self.next()
            return literal(tok.value, datatype=XSD_BOOLEAN)
        return None


# --- N-Triples parser ------------------------------------------------------

_NT_IRI = r"<([^<>\"{}|^`\\\x00-\x20]*)>"
_NT_BNODE = r"_:([A-Za-z0-9_][A-Za-z0-9_.-]*)"
_NT_LITERAL = r'"((?:[^"\\\n]|\\.)*)"(?:(?:\^\^<([^<>\"{}|^`\\\x00-\x20]*)>)|(?:@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)))?'
_NT_LINE = re.compile(
    r"^\s*(?:"
    rf"(?:{_NT_IRI}|{_NT_BNODE})"      # subject: groups 1 (iri) / 2 (bnode)
    rf"\s+{_NT_IRI}"                    # predicate: group 3
    rf"\s+(?:{_NT_IRI}|{_NT_BNODE}|{_NT_LITERAL})"  # object: groups 4-9
    r"\s*\.\s*)?(?:#.*)?$"
)


def _parse_ntriples(text: str) -> Graph:
    triples = []
    labeled: dict[str, RdfTerm] = {}

    def node_for(label: str) -> RdfTerm:
        if label not in labeled:
            labeled[label] = bnode(f"b{len(labeled) + 1}")
        return labeled[label]

    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        m = _NT_LINE.match(line)
        if m is None:
            raise RdfSyntaxError("malformed N-Triples line", lineno, 1)
        if m.group(3) is None:  # comment-only line
            continue
        g = m.groups()
        if g[0] is not None:
            subj = iri(_unescape(g[0], lineno, m.start(1) + 1))
        else:
            subj = node_for(g[1])
        pred = iri(_unescape(g[2], lineno, m.start(3) + 1))
        if g[3] is not None:
            obj = iri(_unescape(g[3], lineno, m.start(4) + 1))
        elif g[4] is not None:
            obj = node_for(g[4])
        else:
            lex = _unescape(g[5], lineno, m.start(6) + 1)
            if g[6] is not None:
                obj = literal(lex, datatype=g[6])
            elif g[7] is not None:
                obj = literal(lex, lang=g[7])
            else:
                obj = literal(lex)
        triples.append(Triple(subj, pred, obj))
    return Graph(triples)


class Syntax(Enum):
    NTRIPLES = "ntriples"
    TURTLE = "turtle"


def parse_document(text: str, syntax: Syntax, base_iri: Optional[str] = None) -> Graph:
    """Parse a document into a Graph; blank labels are renamed apart per call."""
    if syntax is Syntax.NTRIPLES:
        return _parse_ntriples(text)
    return _TurtleParser(text, base_iri).parse()


def parse_file(path, base_iri: Optional[str] = None) -> Graph:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    syntax = Syntax.NTRIPLES if str(path).endswith(".nt") else Syntax.TURTLE
    return parse_document(text, syntax, base_iri)


def serialize_ntriples(g: Graph) -> str:
    """Canonical N-Triples: one sorted line per triple."""
    lines = sorted(f"{t.subject} {t.predicate} {t.object} .\n" for t in g)
    return "".join(lines)
