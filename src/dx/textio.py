"""Parsers and serializers for mapping, instance, and query files.

File syntax
-----------
All three file kinds are UTF-8 and share one lexical syntax.  ``#`` starts a
comment that runs to the end of the line.  Identifiers are letters, digits,
``_`` and ``'``, and cannot start with ``'``.  A quoted constant ``"..."``
stays on one line.  Numbers (arities, counting bounds) are ASCII digits.

Mapping files hold period-terminated statements::

    source R/2, P/1.
    target E/2, F/2.
    tgd R(x,y) -> exists z: E(x,z), F(z,y).
    egd E(x,y), E(x,y2) -> y = y2.
    constraint forall x: P(x) -> exists[2,3] z: E(x,z).

Schema declarations must precede constraints.  Inside tgds and egds bare
identifiers are variables; a quoted token (``"c"``) is a constant.  Inside
``constraint`` formulas and query bodies, identifiers bound by a quantifier
(or declared free in a query head) are variables and everything else is a
constant.

Instance files hold facts; tokens starting with ``_`` are nulls scoped to the
file::

    E(a,_n1). F(_n1,b).

Query files::

    q(x,y) := forall z: Rp(x,y) /\\ (Rp(x,z) -> z = y).

Connectives are ``/\\ \\/ ~ -> =`` with quantifiers ``forall v:``,
``exists v:`` and ``exists[l,u] v:``; a quantifier's scope extends as far to
the right as possible.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, NamedTuple, NoReturn, Optional, Sequence, Set, Tuple, TypeVar

from .errors import ArityMismatch, ParseError, SchemaViolation, UnknownRelation
from .logic import (
    And,
    CountExists,
    Eq,
    Exists,
    FOQuery,
    Forall,
    Formula,
    Not,
    Or,
    RelAtom,
    formula_free_vars,
    subformulas,
)
from .model import (
    Atom,
    Const,
    DxError,
    Egd,
    Instance,
    Null,
    PatternAtom,
    Schema,
    SchemaMapping,
    StTgd,
    Term,
    Var,
)

T = TypeVar("T")


@dataclass
class SourceText:
    """Raw text plus a name used in diagnostics."""

    text: str
    name: str = "<string>"

    @staticmethod
    def from_file(path) -> "SourceText":
        with open(path, "rb") as fh:
            # universal newlines, as text mode reads them; CR and LF never
            # occur inside a multi-byte UTF-8 sequence
            data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            return SourceText(data.decode("utf-8"), str(path))
        except UnicodeDecodeError as exc:
            line_start = data.rfind(b"\n", 0, exc.start) + 1
            raise ParseError(
                f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
                str(path),
                data.count(b"\n", 0, exc.start) + 1,
                len(data[line_start : exc.start].decode("utf-8")) + 1,
            )


# ---------------------------------------------------------------- tokenizer

# One alternative per token kind, tried in order; spaces and comments match
# no named group.  ``\w`` is exactly ``str.isalnum()`` plus ``_``.
_TOKEN_RE = re.compile(
    r"""(?P<NEWLINE>\n)|[ \t\r]+|\#[^\n]*
    |"(?P<STRING>[^"\n]*)"
    |(?P<NULLID>_[\w']*)|(?P<IDENT>\w[\w']*)
    |(?P<ASSIGN>:=)|(?P<ARROW>->)|(?P<AND>/\\)|(?P<OR>\\/)
    |(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<LBRACKET>\[)|(?P<RBRACKET>\])
    |(?P<COMMA>,)|(?P<PERIOD>\.)|(?P<SLASH>/)|(?P<NOT>~)|(?P<EQ>=)|(?P<COLON>:)
    |(?P<BAD>.)""",
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(src: SourceText) -> List[Token]:
    out: List[Token] = []
    line, line_start = 1, 0
    m = None
    for m in _TOKEN_RE.finditer(src.text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
            continue
        col = m.start() - line_start + 1
        if kind == "BAD":
            ch = m.group()
            message = "unterminated string" if ch == '"' else f"unexpected character {ch!r}"
            raise ParseError(message, src.name, line, col)
        out.append(Token(kind, m.group(kind), line, col))
    # a trailing comment does not advance the column
    end = m.start() if m and m.group().startswith("#") else len(src.text)
    out.append(Token("EOF", "", line, end - line_start + 1))
    return out


class _Cursor:
    """Tokens of one text, plus the schema and counting switch of formulas."""

    def __init__(self, src: SourceText, schema: Optional[Schema] = None):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.schema = schema
        self.allow_counting = False

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.next()
        if tok.kind != kind:
            self.error(f"expected {what or kind}, found {tok.text!r}", tok)
        return tok

    def error(self, message: str, tok: Optional[Token] = None, error=ParseError) -> NoReturn:
        tok = tok or self.peek()
        raise error(message, self.src.name, tok.line, tok.col)

    def at_end(self) -> bool:
        return self.peek().kind == "EOF"


# ---------------------------------------------------------------- shared readers


def _items(cur: _Cursor, item: Callable[[_Cursor], T], sep: str = "COMMA") -> List[T]:
    """``item (sep item)*``: one or more items read by ``item``."""
    out = [item(cur)]
    while cur.peek().kind == sep:
        cur.next()
        out.append(item(cur))
    return out


def _rel_atom(
    cur: _Cursor,
    arity_of: Callable[[_Cursor, Token], int],
    term: Callable[[_Cursor], T],
    unit: str = "",
) -> Tuple[str, Tuple[T, ...]]:
    """``rel(t1,...,tn)``: ``arity_of`` rejects unknown names, ``term`` reads each ti."""
    name = cur.expect("IDENT", "a relation name")
    arity = arity_of(cur, name)
    cur.expect("LPAREN")
    terms = tuple(_items(cur, term))
    cur.expect("RPAREN")
    if len(terms) != arity:
        cur.error(f"{name.text} has arity {arity}, got {len(terms)}{unit}", name, ArityMismatch)
    return name.text, terms


def _schema_arity(cur: _Cursor, name: Token) -> int:
    arity = cur.schema.arity(name.text)
    if arity is None:
        cur.error(f"unknown relation {name.text}", name, UnknownRelation)
    return arity


def _parse_number(cur: _Cursor) -> int:
    tok = cur.expect("IDENT", "a number")
    if not (tok.text.isascii() and tok.text.isdigit()):
        cur.error("expected a number", tok)
    return int(tok.text)


def _variable(cur: _Cursor) -> Var:
    return Var(cur.expect("IDENT", "a variable name").text)


# ---------------------------------------------------------------- formula parsing

_QUANTIFIERS = {"forall", "exists"}


def _parse_impl(cur: _Cursor, bound: Set[str]) -> Formula:
    left = _parse_or(cur, bound)
    if cur.peek().kind == "ARROW":
        cur.next()
        right = _parse_impl(cur, bound)
        return Or((Not(left), right))
    return left


def _parse_or(cur: _Cursor, bound: Set[str]) -> Formula:
    parts = _items(cur, lambda cur: _parse_and(cur, bound), "OR")
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _parse_and(cur: _Cursor, bound: Set[str]) -> Formula:
    parts = _items(cur, lambda cur: _parse_unary(cur, bound), "AND")
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _parse_unary(cur: _Cursor, bound: Set[str]) -> Formula:
    tok = cur.peek()
    if tok.kind == "NOT":
        cur.next()
        return Not(_parse_unary(cur, bound))
    if tok.kind == "IDENT" and tok.text in _QUANTIFIERS:
        return _parse_quantifier(cur, bound)
    return _parse_primary(cur, bound)


def _parse_quantifier(cur: _Cursor, bound: Set[str]) -> Formula:
    tok = cur.next()
    lo = hi = None
    if tok.text == "exists" and cur.peek().kind == "LBRACKET":
        cur.next()
        lo = _parse_number(cur)
        cur.expect("COMMA")
        hi = _parse_number(cur)
        cur.expect("RBRACKET")
        if not cur.allow_counting:
            cur.error("counting quantifiers are only allowed in constraints", tok)
        if lo > hi or lo < 0:
            cur.error(f"bad counting range [{lo},{hi}]", tok)
    var_tok = cur.expect("IDENT", "a variable name")
    if var_tok.text in _QUANTIFIERS:
        cur.error("quantifier keyword used as a variable", var_tok)
    cur.expect("COLON")
    body = _parse_impl(cur, bound | {var_tok.text})
    var = Var(var_tok.text)
    if lo is not None:
        return CountExists(lo, hi, var, body)
    return Exists(var, body) if tok.text == "exists" else Forall(var, body)


def _parse_primary(cur: _Cursor, bound: Set[str]) -> Formula:
    tok = cur.peek()
    if tok.kind == "LPAREN":
        cur.next()
        inner = _parse_impl(cur, bound)
        cur.expect("RPAREN")
        return inner
    if tok.kind == "NULLID":
        cur.error("nulls are not allowed in formulas", tok)
    if tok.kind in ("IDENT", "STRING"):
        term = partial(_formula_term, bound=bound)
        if tok.kind == "IDENT" and cur.peek(1).kind == "LPAREN":
            return RelAtom(*_rel_atom(cur, _schema_arity, term, " arguments"))
        left = term(cur)
        cur.expect("EQ", "'='")
        return Eq(left, term(cur))
    cur.error(f"unexpected token {tok.text!r}")


def _formula_term(cur: _Cursor, bound: Set[str]) -> Term:
    """Bound identifiers are variables, other identifiers constants."""
    tok = cur.next()
    if tok.kind == "STRING":
        return Const(tok.text)
    if tok.kind == "NULLID":
        cur.error("nulls are not allowed here", tok)
    if tok.kind != "IDENT":
        cur.error(f"expected a term, found {tok.text!r}", tok)
    if tok.text in _QUANTIFIERS:
        cur.error("quantifier keyword used as a term", tok)
    return Var(tok.text) if tok.text in bound else Const(tok.text)


# ---------------------------------------------------------------- mapping files


def parse_mapping(src: SourceText) -> SchemaMapping:
    cur = _Cursor(src)
    source: Dict[str, int] = {}
    target: Dict[str, int] = {}
    tgds: List[StTgd] = []
    egds: List[Egd] = []
    constraints: List[FOQuery] = []
    saw_constraint = False

    def declare(cur: _Cursor) -> None:
        name = cur.expect("IDENT", "a relation name")
        cur.expect("SLASH", "'/'")
        arity = _parse_number(cur)
        if arity < 1:
            cur.error("arity must be positive", name)
        if name.text in source or name.text in target:
            cur.error(f"relation {name.text} declared twice", name, SchemaViolation)
        decls[name.text] = arity

    while not cur.at_end():
        head = cur.expect("IDENT", "a statement keyword")
        if head.text in ("source", "target"):
            if saw_constraint:
                cur.error("schema declarations must precede constraints", head, SchemaViolation)
            decls = source if head.text == "source" else target
            _items(cur, declare)
            cur.expect("PERIOD", "'.'")
        elif head.text == "tgd":
            saw_constraint = True
            body = _pattern_atoms(cur, source, "source")
            cur.expect("ARROW", "'->'")
            exists_vars: List[Var] = []
            if cur.peek().kind == "IDENT" and cur.peek().text == "exists":
                cur.next()
                exists_vars = _items(cur, _variable)
                cur.expect("COLON")
            atoms = _pattern_atoms(cur, target, "target")
            cur.expect("PERIOD", "'.'")
            tgds.append(_checked(cur, head, StTgd, body, atoms, tuple(exists_vars)))
        elif head.text == "egd":
            saw_constraint = True
            body = _pattern_atoms(cur, target, "target")
            cur.expect("ARROW", "'->'")
            left = _variable(cur)
            cur.expect("EQ", "'='")
            right = _variable(cur)
            cur.expect("PERIOD", "'.'")
            egds.append(_checked(cur, head, Egd, body, (left, right)))
        elif head.text == "constraint":
            saw_constraint = True
            cur.schema = Schema.of({**source, **target})
            cur.allow_counting = True
            body = _parse_impl(cur, set())
            cur.expect("PERIOD", "'.'")
            constraints.append(FOQuery("constraint", (), body))
        else:
            cur.error(f"unknown statement {head.text!r}", head)

    # every check SchemaMapping makes has been made per statement above
    return SchemaMapping(
        Schema.of(source), Schema.of(target), tuple(tgds), tuple(egds), tuple(constraints)
    )


def _checked(cur: _Cursor, keyword: Token, make, *parts):
    """``make(*parts)``, its complaints reported at the statement's keyword."""
    try:
        return make(*parts)
    except DxError as exc:
        cur.error(str(exc), keyword, SchemaViolation)


def _pattern_atoms(cur: _Cursor, decls: Dict[str, int], what: str) -> Tuple[PatternAtom, ...]:
    def arity_of(cur: _Cursor, name: Token) -> int:
        if name.text not in decls:
            cur.error(f"{name.text} is not a {what} relation", name, SchemaViolation)
        return decls[name.text]

    return tuple(_items(cur, lambda cur: PatternAtom(*_rel_atom(cur, arity_of, _pattern_term))))


def _pattern_term(cur: _Cursor) -> Term:
    """Bare identifiers are variables, quoted ones constants."""
    tok = cur.next()
    if tok.kind == "STRING":
        return Const(tok.text)
    if tok.kind == "IDENT":
        return Var(tok.text)
    if tok.kind == "NULLID":
        cur.error("nulls are not allowed in mapping files", tok)
    cur.error(f"expected a term, found {tok.text!r}", tok)


# ---------------------------------------------------------------- instance files


def parse_instance(src: SourceText, schema: Schema) -> Instance:
    cur = _Cursor(src, schema)
    nulls: Dict[str, Null] = {}
    scope = src.name if src.name != "<string>" else "i"

    def value(cur: _Cursor):
        """Identifiers and quoted tokens are constants, ``_x`` a null."""
        tok = cur.next()
        if tok.kind in ("IDENT", "STRING"):
            return Const(tok.text)
        if tok.kind == "NULLID":
            if tok.text not in nulls:
                nulls[tok.text] = Null(scope, len(nulls))
            return nulls[tok.text]
        cur.error(f"expected a value, found {tok.text!r}", tok)

    atoms: List[Atom] = []
    while not cur.at_end():
        atoms.append(Atom(*_rel_atom(cur, _schema_arity, value)))
        cur.expect("PERIOD", "'.'")
    return Instance(atoms)


# ---------------------------------------------------------------- query files


def parse_query(src: SourceText, schema: Schema) -> FOQuery:
    cur = _Cursor(src, schema)
    name = cur.expect("IDENT", "a query name")
    cur.expect("LPAREN")
    free: List[Var] = []

    def free_var(cur: _Cursor) -> None:
        v = cur.expect("IDENT", "a variable name")
        if Var(v.text) in free:
            cur.error(f"duplicate free variable {v.text}", v)
        free.append(Var(v.text))

    if cur.peek().kind != "RPAREN":
        _items(cur, free_var)
    cur.expect("RPAREN")
    cur.expect("ASSIGN", "':='")
    body = _parse_impl(cur, {v.name for v in free})
    cur.expect("PERIOD", "'.'")
    if not cur.at_end():
        cur.error("trailing input after the query")
    return FOQuery(name.text, tuple(free), body)


# ---------------------------------------------------------------- serializers


def _pattern_term_text(t: Term) -> str:
    # mapping-file convention: bare identifiers are variables
    return t.name if isinstance(t, Var) else f'"{t.name}"'


def _pattern_atoms_text(atoms) -> str:
    return ", ".join(f"{a.rel}({','.join(map(_pattern_term_text, a.terms))})" for a in atoms)


def serialize_formula(f: Formula, head: Sequence[Var] = ()) -> str:
    """The formula in query-body syntax.  A constant is quoted where a bare
    name would not read back as itself: when it is no plain identifier, a
    quantifier keyword, or the name of a variable of the formula or of
    ``head`` (the query's free variables)."""
    reserved = _QUANTIFIERS | {v.name for v in head} | {
        g.var.name for g in subformulas(f) if isinstance(g, (Exists, Forall, CountExists))}
    reserved |= {v.name for v in formula_free_vars(f)}

    def term(t: Term) -> str:
        if isinstance(t, Var):
            return t.name
        return f'"{t.name}"' if t.name in reserved else _const_text(t)

    def text(f: Formula, parent_prec: int) -> str:
        if isinstance(f, RelAtom):
            return f"{f.rel}({','.join(map(term, f.terms))})"
        if isinstance(f, Eq):
            s = f"{term(f.left)} = {term(f.right)}"
            return f"({s})" if parent_prec >= 4 else s
        if isinstance(f, Not):
            return f"~{text(f.sub, 4)}"
        if isinstance(f, And):
            s = " /\\ ".join(text(p, 3) for p in f.parts)
            return f"({s})" if parent_prec >= 3 else s
        if isinstance(f, Or):
            # implication sugar is not reconstructed; Or is emitted directly
            s = " \\/ ".join(text(p, 2) for p in f.parts)
            return f"({s})" if parent_prec >= 2 else s
        if isinstance(f, (Exists, Forall, CountExists)):
            if isinstance(f, CountExists):
                keyword = f"exists[{f.lo},{f.hi}]"
            else:
                keyword = "exists" if isinstance(f, Exists) else "forall"
            s = f"{keyword} {f.var.name}: {text(f.sub, 0)}"
            return f"({s})" if parent_prec > 0 else s
        raise DxError(f"unknown formula node {f!r}")

    return text(f, 0)


def serialize_query(q: FOQuery) -> str:
    head = f"{q.name}({','.join(v.name for v in q.free_vars)})"
    return f"{head} := {serialize_formula(q.body, q.free_vars)}.\n"


def serialize_mapping(m: SchemaMapping) -> str:
    lines = []
    for keyword, schema in (("source", m.source), ("target", m.target)):
        if schema.relations:
            lines.append(f"{keyword} " + ", ".join(f"{n}/{a}" for n, a in schema.relations) + ".")
    for tgd in m.st_tgds:
        ez = f"exists {', '.join(v.name for v in tgd.exists_vars)}: " if tgd.exists_vars else ""
        lines.append(
            f"tgd {_pattern_atoms_text(tgd.body)} -> {ez}{_pattern_atoms_text(tgd.head)}."
        )
    for egd in m.egds:
        left, right = egd.equated
        lines.append(f"egd {_pattern_atoms_text(egd.body)} -> {left.name} = {right.name}.")
    for c in m.general_constraints:
        lines.append(f"constraint {serialize_formula(c.body)}.")
    return "\n".join(lines) + "\n"


def _const_text(c: Const) -> str:
    """A constant's name, quoted unless it reads back as one identifier."""
    return c.name if re.fullmatch(r"(?!_)\w[\w']*", c.name) else f'"{c.name}"'


def serialize_instance(instance: Instance) -> str:
    atoms = instance.sorted_atoms()
    names: Dict[Null, str] = {}
    for a in atoms:
        for v in a.args:
            if isinstance(v, Null) and v not in names:
                names[v] = f"_n{len(names) + 1}"
    lines = []
    for a in atoms:
        args = ",".join(names[v] if isinstance(v, Null) else _const_text(v) for v in a.args)
        lines.append(f"{a.rel}({args}).")
    return "\n".join(lines) + ("\n" if lines else "")


def answers_json(
    query_name: str,
    semantics: str,
    answers,
    meta: Optional[dict] = None,
) -> str:
    """The stable machine-readable answer format."""
    rows = sorted([v.name for v in tup] for tup in answers)
    doc = {
        "query": query_name,
        "semantics": semantics,
        "answers": rows,
        "meta": meta or {},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
