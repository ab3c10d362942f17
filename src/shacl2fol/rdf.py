"""RDF data model and one parser, for a pragmatic Turtle subset.

The Turtle subset covers what real SHACL documents use: @prefix/@base (and
the SPARQL-style PREFIX/BASE forms), the `a` keyword, predicate and object
lists, anonymous blank nodes `[ ... ]`, collections `( ... )`, and the
numeric/boolean/string literal shorthands.  Named graphs and quoted triples
are rejected.  Literal equality is syntactic: "01"^^xsd:integer and
"1"^^xsd:integer are different terms.  N-Triples is a subset of Turtle
(RDF 1.1 N-Triples, §1), so an N-Triples document, a `.nt` file too, is
read by the same parser into the same triples.  Relative IRI references
are resolved against the document's `@base` as RFC 3986 §5.2 resolves
them.

A document is read in one compiled-regex pass, which skips whitespace and
comments and yields plain `(kind, text, offset)` tuples; the line and
column of an offset are worked out only when an error is raised.  The
parser walks the token list by index and keeps the blank node property
lists, collections and `^^` datatypes it has opened on one explicit
stack, so nesting depth is bounded by memory, not by Python's recursion
limit.  The parser builds each distinct IRI and blank node once per
document (`_Terms`), and a term computes its hash and its sort key once,
when it is built.

A data graph is mostly statements of one line, `ex:s ex:p ex:o .`, and
the regex tries one coarse token before the fine ones: TRIPLE, such a
statement whole (an IRI, prefixed name or blank node, then a predicate,
then one more of those or a plain string, then the `.`), at the start of
a line.  The regex makes a TRIPLE only where the fine tokens would be
exactly its four.  The parser reads one at a statement's start, in one
step, from the parts its match captured.  Met anywhere else, a TRIPLE
makes the walk raise, and `parse_document` reads the whole text once
more from its fine tokens alone: the triples or the error of that
reading are the answer.  So every document gives the triples, or the
error with its line and column, that its fine tokens give, and a valid
document is read once.
"""

from __future__ import annotations

import codecs
import functools
import re
from enum import Enum
from functools import total_ordering
from typing import Iterable, Iterator, Optional

from .errors import RdfSyntaxError, UnsupportedFeature
from .record import Record

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


class RdfTerm(Record):
    # terms are dictionary keys in every layer and sorted by every emitter:
    # hash the fields and build the sort key once
    __slots__ = ("kind", "lexical", "datatype", "lang", "_hash", "_sort_key")

    def __init__(self, kind: TermKind, lexical: str, datatype: Optional[str] = None,
                 lang: Optional[str] = None):
        if kind is not TermKind.LITERAL:
            if datatype is not None or lang is not None:
                raise ValueError("only literals carry a datatype or language tag")
        elif lang is not None and datatype not in (None, RDF_NS + "langString"):
            raise ValueError("a literal has either a language tag or a datatype")
        self.kind = kind
        self.lexical = lexical
        self.datatype = datatype
        self.lang = lang
        self._hash = hash((kind, lexical, datatype, lang))
        self._sort_key = (kind.value, lexical, datatype or "", lang or "")

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return self._sort_key

    def __lt__(self, other):
        if not isinstance(other, RdfTerm):
            return NotImplemented
        return self._sort_key < other._sort_key

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


@total_ordering
class Triple(Record):
    """An RDF triple; triples sort by subject, then predicate, then object."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: RdfTerm, predicate: RdfTerm, object: RdfTerm):
        if not predicate.is_iri:
            raise ValueError("triple predicate must be an IRI")
        if subject.is_literal:
            raise ValueError("triple subject must not be a literal")
        self.subject = subject
        self.predicate = predicate
        self.object = object

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) < other._values(other)
        return NotImplemented


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


# --- Escapes and positions -------------------------------------------------

_UCHAR = re.compile(r"\\u([0-9a-fA-F]{4})|\\U([0-9a-fA-F]{8})")
_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
# an IRI reference: no space, control character or `<>"{}|^`\`, except
# through a \u or \U escape
_IRI_BODY = r"(?:[^<>\"{}|^`\\\x00-\x20]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*"
_NOT_IN_IRI = "".join(map(chr, range(0x21))) + '<>"{}|^`\\'


def _error(text: str, message: str, at: int) -> RdfSyntaxError:
    """The syntax error `message` at offset `at` of `text`."""
    line = text.count("\n", 0, at) + 1
    return RdfSyntaxError(message, line, at - text.rfind("\n", 0, at))


def _unescape(s: str, text: str, at: int) -> str:
    """`s`, which starts at offset `at` of `text`, with its escapes decoded.

    A bad escape is reported at its own line and column, also when `s`
    spans several lines.
    """
    if "\\" not in s:
        return s
    out = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(s):
            raise _error(text, "dangling escape", at + i)
        nxt = s[i + 1]
        if nxt in _ECHAR:
            out.append(_ECHAR[nxt])
            i += 2
        elif nxt in "uU":
            m = _UCHAR.match(s, i)
            code = int(m.group(1) or m.group(2), 16) if m else -1
            if not (0 <= code <= 0x10FFFF) or 0xD800 <= code <= 0xDFFF:
                raise _error(text, f"bad escape \\{nxt}: no Unicode character", at + i)
            out.append(chr(code))
            i = m.end()
        else:
            raise _error(text, f"bad escape \\{nxt}", at + i)
    return "".join(out)


def _decode_iri(s: str, text: str, at: int) -> str:
    """The IRI `s`, which starts at offset `at` of `text`, with its \\u and
    \\U escapes decoded; an escape may not stand for a character that an
    IRI reference excludes."""
    def decode(m):
        ch = _unescape(m.group(), text, at + m.start())
        if ch in _NOT_IN_IRI:
            raise _error(text, f"bad escape {m.group()}: {ch!r} is not allowed in an IRI",
                         at + m.start())
        return ch

    return _UCHAR.sub(decode, s) if "\\" in s else s


def _escape_literal(s: str) -> str:
    return (
        s.replace("\\", "\\\\").replace('"', '\\"')
        .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    )


_TYPE = iri(RDF_TYPE)
_FIRST = iri(RDF_FIRST)
_REST = iri(RDF_REST)
_NIL = iri(RDF_NIL)


class _Terms:
    """The IRIs and blank nodes of one document, each built once.

    `named` maps the text of an IRI reference (`<...>`) or a prefixed name
    to its term.  A document may redefine a prefix or its base partway
    through, so the parser clears `named` at every directive.  Blank
    nodes are renamed apart: `b1`, `b2`, ... in the order they are first
    met.
    """

    def __init__(self, text: str):
        self.text = text
        self.base = ""
        self.prefixes: dict[str, str] = {}
        self.named: dict[str, RdfTerm] = {}
        self.blanks: dict[str, RdfTerm] = {}
        self.count = 0

    def fresh(self) -> RdfTerm:
        self.count += 1
        return bnode(f"b{self.count}")

    def blank(self, label: str) -> RdfTerm:
        node = self.blanks.get(label)
        if node is None:
            node = self.blanks[label] = self.fresh()
        return node

    def name(self, key: str, at: int) -> RdfTerm:
        """The IRI named by `key`, an IRI reference or a prefixed name at
        offset `at`, built and kept in `named`."""
        if key[0] == "<":
            value = self.resolve(_decode_iri(key[1:-1], self.text, at + 1))
        else:
            prefix, _, local = key.partition(":")
            if prefix not in self.prefixes:
                raise _error(self.text, f"undeclared prefix {prefix!r}", at)
            value = self.prefixes[prefix] + local
        term = self.named[key] = iri(value)
        return term

    def resolve(self, ref: str) -> str:
        """The IRI reference `ref` resolved against the base, as RFC 3986
        §5.2.2 resolves it; an absolute IRI is kept as it is."""
        if re.match(r"^[A-Za-z][A-Za-z0-9+.-]*:", ref) or not self.base:
            return ref
        # the scheme, authority, path, query and fragment (RFC 3986
        # appendix B); an absent part is None, an empty one ""
        split = r"^(?:([^:/?#]+):)?(?://([^/?#]*))?([^?#]*)(?:\?([^#]*))?(?:#(.*))?"
        scheme, authority, path, query, _ = re.match(split, self.base).groups()
        _, r_authority, r_path, r_query, fragment = re.match(split, ref).groups()
        if r_authority is not None:
            authority, path, query = r_authority, _remove_dot_segments(r_path), r_query
        elif r_path:
            if r_path[0] != "/":
                if authority is not None and not path:
                    r_path = "/" + r_path
                else:
                    r_path = path[:path.rfind("/") + 1] + r_path
            path, query = _remove_dot_segments(r_path), r_query
        elif r_query is not None:
            query = r_query
        out = f"{scheme}:" if scheme is not None else ""
        if authority is not None:
            out += "//" + authority
        out += path
        if query is not None:
            out += "?" + query
        if fragment is not None:
            out += "#" + fragment
        return out


def _remove_dot_segments(path: str) -> str:
    """`path` with its `.` and `..` segments removed (RFC 3986 §5.2.4)."""
    out: list[str] = []
    while path:
        if path.startswith("../"):
            path = path[3:]
        elif path.startswith("./") or path.startswith("/./"):
            path = path[2:]
        elif path == "/.":
            path = "/"
        elif path.startswith("/../") or path == "/..":
            path = "/" + path[4:]
            if out:
                out.pop()
        elif path == "." or path == "..":
            path = ""
        else:
            end = re.match(r"/?[^/]*", path).end()
            out.append(path[:end])
            path = path[end:]
    return "".join(out)


# --- Turtle tokenizer ------------------------------------------------------

# The first alternative that matches wins, so a token must come after
# every other that can match where it starts: STRING_LONG before STRING,
# the numbers (longest form first) before PUNCT's ".", BNODE before PNAME,
# PREFIX_KW before LANGTAG, and A_KW, SPARQL_KW and PNAME before WORD.
# Within that, the tokens a data graph is mostly made of come first.
_TOKEN_SPEC = [
    ("BNODE", r"_:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?"),
    ("PNAME", r"(?:[A-Za-z_][A-Za-z0-9_.-]*)?:(?:[A-Za-z0-9_%-](?:[A-Za-z0-9_.%-]*[A-Za-z0-9_%-])?)?"),
    ("A_KW", r"a(?=[\s<\[(])"),
    ("STRING_LONG", r'"""(?:[^"\\]|\\.|"(?!""))*"""' + r"|'''(?:[^'\\]|\\.|'(?!''))*'''"),
    ("STRING", r'"(?:[^"\\\n]|\\.)*"' + r"|'(?:[^'\\\n]|\\.)*'"),
    ("DOUBLE", r"[+-]?(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+"),
    ("DECIMAL", r"[+-]?\d*\.\d+"),
    ("INTEGER", r"[+-]?\d+"),
    ("PUNCT", r"[;,.\[\]()]"),
    ("IRIREF", rf"<{_IRI_BODY}>"),
    ("DTYPE", r"\^\^"),
    ("PREFIX_KW", r"@prefix\b|@base\b"),
    ("LANGTAG", r"@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*"),
    ("SPARQL_KW", r"(?i:PREFIX|BASE)(?=[ \t])"),
    ("WORD", r"[A-Za-z][A-Za-z0-9_-]*"),
    ("EOF", r"\Z"),
    # where no token starts: the rest of the text, which ends the list
    ("BAD", r"(?s:.+)"),
]
_SPEC = dict(_TOKEN_SPEC)
# The one coarse token, TRIPLE: a whole statement of one line, `subject
# predicate object .`, the four fine tokens it stands for read in one
# step.  Each part is one whole fine token: a term ends where the blank
# after it or the `.` starts, and the `.`, followed by a blank, a comment or
# the end, is no number's start.  It starts only at the start of a line,
# so that it is not tried in vain before every token of a document written
# over several lines.
_NODE = rf"{_SPEC['BNODE']}|(?!_:){_SPEC['PNAME']}|{_SPEC['IRIREF']}"
_TRIPLE = (rf"(?<![^\n])(?P<s>{_NODE})[ \t]+(?P<p>a|(?!_:){_SPEC['PNAME']}|{_SPEC['IRIREF']})"
           rf"[ \t]+(?P<o>{_NODE}|{_SPEC['STRING']})[ \t]*\.(?=[ \t\r\n#]|\Z)")


def _token_re(spec) -> re.Pattern:
    """The tokenizer of `spec`: each match skips whitespace and comments,
    then captures one token."""
    return re.compile(
        r"(?:[ \t\r\n]+|#[^\n]*)*(?:" + "|".join(f"(?P<{n}>{p})" for n, p in spec) + ")")


_TOKEN_RE = _token_re([("TRIPLE", _TRIPLE), *_TOKEN_SPEC])


@functools.cache
def _fine_token_re() -> re.Pattern:
    """The tokenizer of the fine tokens alone, which reads the text again
    when a TRIPLE is out of its place; compiled at its first use."""
    return _token_re(_TOKEN_SPEC)


def _tokenize(text: str, fine: bool = False) -> list[tuple]:
    """The `(kind, text, offset)` tokens of `text`, ending in one or two EOF
    tokens; with `fine`, the fine tokens alone.  Punctuation is told apart
    by its text alone: no other token is a single `;,.[]()` character.  A
    TRIPLE token (its group closes after those of its parts, so the
    match's `lastgroup` names it) carries its parts, `(subject, predicate,
    object, offset of the predicate, offset of the object)`, in place of
    its text."""
    tokens = [
        (m.lastgroup, m.group(m.lastindex), m.start(m.lastindex))
        if m.lastgroup != "TRIPLE" else
        ("TRIPLE", (*m.group("s", "p", "o"), m.start("p"), m.start("o")), m.start("s"))
        for m in (_fine_token_re() if fine else _TOKEN_RE).finditer(text)
    ]
    kind, rest, at = tokens[-2] if len(tokens) > 1 else tokens[-1]
    if kind == "BAD":
        if rest[0] in "{}":
            raise UnsupportedFeature("named graphs / quoted triples are not supported")
        raise _error(text, f"unexpected character {rest[0]!r}", at)
    return tokens


# --- Turtle parser ---------------------------------------------------------

# Where the term being read goes.  A statement whose subject is a `[ ... ]`
# reads it at _SUBJECT_LIST, since it may end the statement by itself.
_SUBJECT, _SUBJECT_LIST, _PREDICATE, _OBJECT, _ITEM, _DATATYPE = range(6)


class _TurtleParser:
    def __init__(self, text: str, fine: bool = False):
        self.text = text
        self.tokens = _tokenize(text, fine)
        self.terms = _Terms(text)
        self.triples: list[Triple] = []

    def error(self, message: str, at: int) -> RdfSyntaxError:
        return _error(self.text, message, at)

    def expect(self, i: int, value: str) -> int:
        """The index after tokens[i], which must be the punctuation `value`."""
        _, text, at = self.tokens[i]
        if text != value:
            raise self.error(f"expected {value}, found {text!r}", at)
        return i + 1

    def parse(self) -> Graph:
        tokens = self.tokens
        i = 0
        while True:
            kind, text, at = tokens[i]
            if kind == "TRIPLE":
                self.triple(text, at)
                i += 1
            elif kind == "EOF":
                return Graph(self.triples)
            elif kind == "PREFIX_KW" or kind == "SPARQL_KW":
                i = self.directive(i)
            else:
                i = self.statement(i)

    def triple(self, parts: tuple, at: int) -> None:
        """Read the statement of a TRIPLE token, its `parts` and its offset
        `at`, as `statement` reads its fine tokens."""
        s, p, o, p_at, o_at = parts
        terms = self.terms
        named = terms.named
        subj = terms.blank(s[2:]) if s[:2] == "_:" else named.get(s) or terms.name(s, at)
        pred = _TYPE if p == "a" else named.get(p) or terms.name(p, p_at)
        if o[0] == '"' or o[0] == "'":
            obj = literal(_unescape(o[1:-1], self.text, o_at + 1))
        elif o[:2] == "_:":
            obj = terms.blank(o[2:])
        else:
            obj = named.get(o) or terms.name(o, o_at)
        self.triples.append(Triple(subj, pred, obj))

    def directive(self, i: int) -> int:
        kind, keyword, _ = self.tokens[i]
        terms = self.terms
        if keyword.lstrip("@").lower() == "prefix":
            name_kind, name, at = self.tokens[i + 1]
            if name_kind != "PNAME":
                raise self.error(f"expected PNAME, found {name!r}", at)
            if not name.endswith(":") or name.count(":") != 1:
                raise self.error("bad prefix declaration", at)
            i, ref = self.iri_ref(i + 2)
            terms.prefixes[name[:-1]] = terms.resolve(ref)
        else:
            i, ref = self.iri_ref(i + 1)
            terms.base = terms.resolve(ref)
        terms.named.clear()
        if kind == "PREFIX_KW":
            i = self.expect(i, ".")
        return i

    def iri_ref(self, i: int) -> tuple[int, str]:
        kind, text, at = self.tokens[i]
        if kind != "IRIREF":
            raise self.error(f"expected IRIREF, found {text!r}", at)
        return i + 1, _decode_iri(text[1:-1], self.text, at + 1)

    def statement(self, i: int) -> int:
        """Read the triples statement at tokens[i]; the index after its `.`.

        The loop reads one term for `where`, either whole or by opening a
        frame on `stack`, then gives each finished term to `where`, which
        may finish the frame it is in.  A `[` frame keeps the subject and
        predicate around it, a `(` frame its items and a `^^` frame its
        literal's lexical form and the offset of the `^^`.  Every frame
        also keeps where its term goes and the offset it starts at.
        """
        tokens = self.tokens
        terms = self.terms
        named = terms.named
        triples = self.triples
        stack: list[tuple] = []
        subj = pred = None
        where = _SUBJECT_LIST if tokens[i][1] == "[" else _SUBJECT
        while True:
            kind, text, at = tokens[i]
            i += 1
            if kind == "IRIREF" or kind == "PNAME":
                value = named.get(text) or terms.name(text, at)
            elif kind == "BNODE":
                value = terms.blank(text[2:])
            elif kind == "A_KW" and where == _PREDICATE:
                value = _TYPE
            elif text == "[":
                if where == _PREDICATE:
                    raise self.error("blank node in predicate position", at)
                value = terms.fresh()
                if tokens[i][1] == "]":
                    i += 1
                else:
                    stack.append(("[", where, at, subj, pred))
                    subj, where = value, _PREDICATE
                    continue
            elif text == "(":
                stack.append(("(", where, at, []))
                where = _ITEM
                continue
            elif text == ")" and where == _ITEM:
                _, where, at, items = stack.pop()
                value = self.collection(items)
            elif where == _PREDICATE:
                raise self.error(f"unexpected token {text!r}", at)
            elif kind == "STRING" or kind == "STRING_LONG":
                quote = 3 if kind == "STRING_LONG" else 1
                lexical = _unescape(text[quote:-quote], self.text, at + quote)
                next_kind, next_text, next_at = tokens[i]
                if next_kind == "LANGTAG":
                    i += 1
                    value = literal(lexical, lang=next_text[1:])
                elif next_kind == "DTYPE":
                    i += 1
                    stack.append(("^^", where, at, lexical, next_at))
                    where = _DATATYPE
                    continue
                else:
                    value = literal(lexical)
            elif kind == "INTEGER":
                value = literal(text, datatype=XSD_INTEGER)
            elif kind == "DECIMAL":
                value = literal(text, datatype=XSD_DECIMAL)
            elif kind == "DOUBLE":
                value = literal(text, datatype=XSD_DOUBLE)
            elif kind == "WORD" and (text == "true" or text == "false"):
                value = literal(text, datatype=XSD_BOOLEAN)
            else:
                raise self.error(f"unexpected token {text!r}", at)

            while True:  # give `value`, which starts at `at`, to `where`
                if where == _OBJECT:
                    triples.append(Triple(subj, pred, value))
                    text = tokens[i][1]
                    if text == ",":
                        i += 1
                        break
                    if text == ";":
                        i += 1
                        # trailing semicolons before '.' or ']' are legal
                        while tokens[i][1] == ";":
                            i += 1
                        text = tokens[i][1]
                        if text != "." and text != "]":
                            where = _PREDICATE
                            break
                    # the predicate-object list ends: the statement's, or
                    # that of the `[` frame on top
                    if not stack:
                        return self.expect(i, ".")
                    i = self.expect(i, "]")
                    value = subj
                    _, where, at, subj, pred = stack.pop()
                elif where == _ITEM:
                    stack[-1][3].append(value)
                    break
                elif where == _DATATYPE:
                    _, where, at, lexical, dtype_at = stack.pop()
                    if not value.is_iri:
                        raise self.error("datatype must be an IRI", dtype_at)
                    value = literal(lexical, datatype=value.lexical)
                elif where == _PREDICATE:
                    if not value.is_iri:
                        raise self.error("predicate must be an IRI", at)
                    pred, where = value, _OBJECT
                    break
                elif where == _SUBJECT:
                    if value.is_literal:
                        raise self.error("literal in subject position", at)
                    subj, where = value, _PREDICATE
                    break
                else:  # _SUBJECT_LIST
                    if tokens[i][1] == ".":
                        return i + 1
                    subj, where = value, _PREDICATE
                    break

    def collection(self, items: list[RdfTerm]) -> RdfTerm:
        """The head of the RDF list of `items`, whose links are new blank nodes."""
        nodes = [self.terms.fresh() for _ in items]
        head = _NIL
        for node, item in zip(reversed(nodes), reversed(items)):
            self.triples.append(Triple(node, _FIRST, item))
            self.triples.append(Triple(node, _REST, head))
            head = node
        return head


def parse_document(text: str) -> Graph:
    """Parse a Turtle or N-Triples document into a Graph; blank labels are
    renamed apart per call."""
    try:
        return _TurtleParser(text).parse()
    except RdfSyntaxError:  # a TRIPLE out of its place, or bad text
        return _TurtleParser(text, fine=True).parse()


def parse_file(path) -> Graph:
    """Parse the Turtle or N-Triples file at `path`, UTF-8 with or without
    a byte order mark; a file that is not UTF-8 is an RdfSyntaxError, which
    names the offending byte's offset in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the offset is counted after the mark, which the codec strips
        raise RdfSyntaxError(
            f"{path}: not UTF-8: {exc.reason} at byte {bom + exc.start}") from None
    # every line end as "\n", as a file read in text mode gives it
    return parse_document(text.replace("\r\n", "\n").replace("\r", "\n"))


def serialize_ntriples(g: Graph) -> str:
    """Canonical N-Triples: one sorted line per triple."""
    lines = sorted(f"{t.subject} {t.predicate} {t.object} .\n" for t in g)
    return "".join(lines)
