import random

import pytest

from dx import (
    Atom,
    Const,
    Instance,
    instances_isomorphic,
    parse_instance,
    parse_mapping,
    parse_query,
)
from dx.errors import (
    ArityMismatch,
    DxError,
    ParseError,
    SchemaViolation,
    UnknownRelation,
)
from dx.logic import CountExists, Forall, Or
from dx.model import Schema
from dx.textio import (
    SourceText,
    Token,
    _tokenize,
    answers_json,
    serialize_formula,
    serialize_instance,
    serialize_mapping,
    serialize_query,
)

from families import EF_MAP
from fixtures import (
    C23_MAP,
    CLQ_MAP,
    COPY_MAP,
    COPY_QUERY,
    LEQ2_MAP,
    MOT_MAP,
    NAF_INSTANCE,
    E_SCHEMA,
)


def test_parse_copy_mapping():
    m = parse_mapping(SourceText(COPY_MAP))
    assert m.source.arity("R") == 2 and m.target.arity("Rp") == 2
    assert len(m.st_tgds) == 1
    assert not m.st_tgds[0].exists_vars
    assert m.st_tgds[0].is_packed()


def test_parse_ef_mapping_exists_clause():
    m = parse_mapping(SourceText(EF_MAP))
    tgd = m.st_tgds[0]
    assert [a.rel for a in tgd.head] == ["E", "F"]
    assert len(tgd.exists_vars) == 1
    assert tgd.is_packed()


def test_parse_rejects_unquantified_head_variable():
    with pytest.raises(SchemaViolation):
        parse_mapping(SourceText("source R/2. target E/2. tgd R(x,y) -> E(x,z)."))


def test_parse_rejects_source_atom_in_head():
    with pytest.raises(SchemaViolation):
        parse_mapping(SourceText("source R/2. target E/2. tgd R(x,y) -> R(x,y)."))


def test_parse_mapping_arity_check():
    with pytest.raises(ArityMismatch):
        parse_mapping(SourceText("source R/2. target E/2. tgd R(x) -> E(x,x)."))


def test_parse_counting_constraint():
    m = parse_mapping(SourceText(C23_MAP))
    assert len(m.general_constraints) == 1
    body = m.general_constraints[0].body
    assert isinstance(body, Forall)
    assert isinstance(body.sub, Or)
    assert any(isinstance(p, CountExists) for p in body.sub.parts)


def test_parse_instance_with_nulls():
    inst = parse_instance(SourceText("E(a,_n1). E(_n1,b)."), E_SCHEMA)
    assert len(inst) == 2 and len(inst.nulls()) == 1


def test_parse_instance_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse_instance(SourceText("E(a)."), E_SCHEMA)


def test_parse_instance_unknown_relation():
    with pytest.raises(UnknownRelation):
        parse_instance(SourceText("Z(a,b)."), E_SCHEMA)


def test_parse_error_carries_location():
    try:
        parse_instance(SourceText("E(a,b)\nE(a)."), E_SCHEMA)
    except ParseError as exc:
        assert exc.line == 2 and exc.col >= 1
    else:
        pytest.fail("no error raised")


def test_parse_query_free_and_bound_variables():
    m = parse_mapping(SourceText(COPY_MAP))
    q = parse_query(SourceText(COPY_QUERY), m.target)
    assert [v.name for v in q.free_vars] == ["x", "y"]
    assert isinstance(q.body, Forall)


def test_parse_query_undeclared_identifiers_become_constants():
    q = parse_query(SourceText("q(x) := E(x,b)."), E_SCHEMA)
    consts = {c.name for c in q.consts()}
    assert consts == {"b"}


def test_parse_query_boolean():
    q = parse_query(
        SourceText("q() := forall z1: forall z2: E(z1,z2) -> z1 = z2."), E_SCHEMA
    )
    assert q.width == 0


def test_parse_query_rejects_counting():
    with pytest.raises(ParseError):
        parse_query(SourceText("q() := exists[1,2] z: E(z,z)."), E_SCHEMA)


def test_parse_query_rejects_nulls():
    with pytest.raises(ParseError):
        parse_query(SourceText("q() := E(_n1,_n1)."), E_SCHEMA)


def test_roundtrip_mappings():
    # the last one names the constant x inside x's scope
    for text in (COPY_MAP, EF_MAP, LEQ2_MAP, MOT_MAP, C23_MAP, CLQ_MAP,
                 'source R/2. target E/2. constraint forall x: R(x,"x") -> E(x,x).'):
        m = parse_mapping(SourceText(text))
        again = parse_mapping(SourceText(serialize_mapping(m)))
        assert again == m


def test_roundtrip_queries():
    m = parse_mapping(SourceText(CLQ_MAP))
    for text in (
        "q(x,y) := forall z: C(x,y) /\\ (A(x,z) -> z = y).",
        "q() := forall z1: forall z2: (C(z1,z2) /\\ A(z1,z2)) -> E(z1,z2).",
        "q(x) := exists z: A(x,z) \\/ ~E(x,z).",
        # constants named like a variable, with a space, or like a keyword
        'q(x) := forall y: E(x,"y").',
        'q(x) := E(x,"x") \\/ x = "w".',
        'q(w) := forall x: A(x,"w") -> E(x,"x").',
        'q(x) := E(x,"a b") /\\ ~C("forall","exists").',
    ):
        q = parse_query(SourceText(text), m.target)
        again = parse_query(SourceText(serialize_query(q)), m.target)
        assert again == q
    # a constant a bare name reads back as stays bare
    q = parse_query(SourceText("q(x) := forall y: E(x,a) -> y = b."), m.target)
    assert serialize_query(q) == "q(x) := forall y: ~E(x,a) \\/ y = b.\n"


def test_roundtrip_instances_modulo_null_names():
    inst = parse_instance(SourceText(NAF_INSTANCE), E_SCHEMA)
    again = parse_instance(SourceText(serialize_instance(inst)), E_SCHEMA)
    assert instances_isomorphic(inst, again)


def test_roundtrip_instances_with_awkward_constant_names():
    # a constant is written bare only if it reads back as one identifier
    schema = Schema((("E", 2),))
    names = ["a b", "_z", "", "x-y", "1", "ab'c", "é", "a.b", "q(", "#c", "\\/", "ok"]
    inst = Instance([Atom("E", (Const(u), Const(v))) for u, v in zip(names, names[1:] + names[:1])])
    text = serialize_instance(inst)
    assert parse_instance(SourceText(text), schema) == inst
    assert 'E(ok,"a b").' in text.splitlines() and "E(é,\"a.b\")." in text.splitlines()
    with_nulls = parse_instance(SourceText('E("_z",_n). E(_n,"a b").'), schema)
    again = parse_instance(SourceText(serialize_instance(with_nulls)), schema)
    assert instances_isomorphic(with_nulls, again) and Const("_z") in again.consts()


def test_serialize_instance_is_deterministic():
    inst = parse_instance(SourceText(NAF_INSTANCE), E_SCHEMA)
    assert serialize_instance(inst) == serialize_instance(
        parse_instance(SourceText(serialize_instance(inst)), E_SCHEMA)
    )


def test_answers_json_shape():
    doc = answers_json("q", "gcwa-star", {(Const("b"), Const("a")), (Const("a"), Const("b"))}, {"path": "fast"})
    assert '"answers": [\n    [\n      "a",\n      "b"\n    ],' in doc
    assert '"query": "q"' in doc and '"semantics": "gcwa-star"' in doc



def test_numbers_are_ascii_digits():
    with pytest.raises(ParseError, match="1:43: expected a number"):
        parse_mapping(SourceText("source P/1. target E/2. constraint exists[²,3] z: E(z,z)."))
    m = parse_mapping(SourceText("source P/1. target E/2. constraint exists[2,13] z: E(z,z)."))
    assert m.general_constraints[0].body.hi == 13


def test_comments_in_every_file_kind():
    inst = parse_instance(SourceText("# facts\nE(a,b). # one\nE(b,c).# two"), E_SCHEMA)
    assert len(inst) == 2
    q = parse_query(SourceText("q(x) := # head done\n E(x,b)."), E_SCHEMA)
    assert [v.name for v in q.free_vars] == ["x"]

# ---------------------------------------------------------------- the lexer


def _reference_tokenize(src):
    """The character-loop lexer the regex lexer replaced, kept as its oracle."""
    punct = [
        (":=", "ASSIGN"), ("->", "ARROW"), ("/\\", "AND"), ("\\/", "OR"),
        ("(", "LPAREN"), (")", "RPAREN"), ("[", "LBRACKET"), ("]", "RBRACKET"),
        (",", "COMMA"), (".", "PERIOD"), ("/", "SLASH"), ("~", "NOT"),
        ("=", "EQ"), (":", "COLON"),
    ]
    out = []
    line, col, i = 1, 1, 0
    text = src.text
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError("unterminated string", src.name, line, col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", src.name, line, col)
            out.append(Token("STRING", text[i + 1 : j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            out.append(Token("NULLID" if word.startswith("_") else "IDENT", word, line, col))
            col += j - i
            i = j
            continue
        for sym, kind in punct:
            if text.startswith(sym, i):
                out.append(Token(kind, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", src.name, line, col)
    out.append(Token("EOF", "", line, col))
    return out


def _lex_outcome(tokenize, text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(SourceText(text))]
    except ParseError as exc:
        return str(exc)


_LEX_ALPHABET = (
    "abcxyzRE_019 \n():=->/\\[],.~" + "'\t\r\"#²é!"
)


def test_lexer_matches_reference_on_random_strings():
    rng = random.Random(20261019)
    for _ in range(12000):
        text = "".join(rng.choice(_LEX_ALPHABET) for _ in range(rng.randint(0, 24)))
        assert _lex_outcome(_tokenize, text) == _lex_outcome(_reference_tokenize, text), text


def test_lexer_matches_reference_on_files():
    for text in (COPY_MAP, EF_MAP, LEQ2_MAP, MOT_MAP, C23_MAP, CLQ_MAP, NAF_INSTANCE):
        assert _lex_outcome(_tokenize, text) == _lex_outcome(_reference_tokenize, text)


# ---------------------------------------------------------------- golden errors

_GOLDEN_SCHEMA = Schema.of({"E": 2, "P": 1})
_M = "source R/1. target E/1. "

# One malformed input per raise site of the reader and the serializer: the
# call, the input, the error class and its exact text.  ``<file>`` stands for
# the path of the file that ``SourceText.from_file`` reads.
GOLDEN_ERRORS = [
    ("string_newline", "instance", 'E("a\n,b).', ParseError, "<string>:1:3: unterminated string"),
    ("string_eof", "instance", 'E(a,"b', ParseError, "<string>:1:5: unterminated string"),
    ("bad_char", "instance", "E(a,b)!", ParseError, "<string>:1:7: unexpected character '!'"),
    ("expect_named", "mapping", "source R 2.", ParseError, "<string>:1:10: expected '/', found '2'"),
    ("expect_kind", "instance", "E a,b).", ParseError, "<string>:1:3: expected LPAREN, found 'a'"),
    ("counting_in_query", "query", "q() := exists[1,2] z: E(z,z).", ParseError,
     "<string>:1:8: counting quantifiers are only allowed in constraints"),
    ("counting_range", "mapping", _M + "constraint exists[3,2] z: E(z).", ParseError,
     "<string>:1:36: bad counting range [3,2]"),
    ("quantifier_as_variable", "query", "q() := forall exists: E(a,a).", ParseError,
     "<string>:1:15: quantifier keyword used as a variable"),
    ("number_expect", "mapping", "source R/(.", ParseError, "<string>:1:10: expected a number, found '('"),
    ("number_not_digits", "mapping", "source R/x.", ParseError, "<string>:1:10: expected a number"),
    ("number_superscript", "mapping", "source R/².", ParseError, "<string>:1:10: expected a number"),
    ("null_in_formula", "query", "q() := _n = a.", ParseError, "<string>:1:8: nulls are not allowed in formulas"),
    ("unexpected_token", "query", "q() := ).", ParseError, "<string>:1:8: unexpected token ')'"),
    ("formula_unknown_relation", "query", "q() := Z(a).", UnknownRelation, "<string>:1:8: unknown relation Z"),
    ("formula_arity", "query", "q() := E(a).", ArityMismatch, "<string>:1:8: E has arity 2, got 1 arguments"),
    ("formula_null_term", "query", "q() := E(a,_n).", ParseError, "<string>:1:12: nulls are not allowed here"),
    ("formula_bad_term", "query", "q() := E(a,).", ParseError, "<string>:1:12: expected a term, found ')'"),
    ("quantifier_as_term", "query", "q() := E(a,forall).", ParseError,
     "<string>:1:12: quantifier keyword used as a term"),
    ("declaration_after_constraint", "mapping", _M + "tgd R(x) -> E(x). source P/1.", SchemaViolation,
     "<string>:1:43: schema declarations must precede constraints"),
    ("arity_not_positive", "mapping", "source R/0.", ParseError, "<string>:1:8: arity must be positive"),
    ("declared_twice", "mapping", "source R/1. target R/2.", SchemaViolation,
     "<string>:1:20: relation R declared twice"),
    ("unknown_statement", "mapping", "rule R(x).", ParseError, "<string>:1:1: unknown statement 'rule'"),
    ("pattern_wrong_schema", "mapping", _M + "tgd E(x) -> E(x).", SchemaViolation,
     "<string>:1:29: E is not a source relation"),
    ("pattern_null", "mapping", _M + "tgd R(_n) -> E(x).", ParseError,
     "<string>:1:31: nulls are not allowed in mapping files"),
    ("pattern_bad_term", "mapping", _M + "tgd R(x) -> E(/).", ParseError,
     "<string>:1:39: expected a term, found '/'"),
    ("pattern_arity", "mapping", _M + "tgd R(x,y) -> E(x).", ArityMismatch, "<string>:1:29: R has arity 1, got 2"),
    ("tgd_invalid", "mapping", _M + "tgd R(x) -> E(z).", SchemaViolation,
     "<string>:1:25: head variable neither universal nor existential"),
    ("egd_invalid", "mapping", _M + "egd E(x) -> x = z.", SchemaViolation,
     "<string>:1:25: equated variable missing from the egd body"),
    ("instance_unknown_relation", "instance", "Z(a).", UnknownRelation, "<string>:1:1: unknown relation Z"),
    ("instance_bad_value", "instance", "E(a,->).", ParseError, "<string>:1:5: expected a value, found '->'"),
    ("instance_arity", "instance", "E(a).", ArityMismatch, "<string>:1:1: E has arity 2, got 1"),
    ("duplicate_free_variable", "query", "q(x,x) := E(x,x).", ParseError,
     "<string>:1:5: duplicate free variable x"),
    ("trailing_input", "query", "q() := E(a,a). junk", ParseError, "<string>:1:16: trailing input after the query"),
    ("eof_after_comment", "instance", "E(a,b) # no period", ParseError, "<string>:1:8: expected '.', found ''"),
    ("not_utf8", "file", b"E(a,b).\nE(c,\xff).", ParseError, "<file>:2:5: invalid UTF-8 byte 0xff"),
    ("serialize_unknown_node", "serialize", "x", DxError, "unknown formula node 'x'"),
]


def _golden_call(kind, text, tmp_path):
    if kind == "mapping":
        return parse_mapping(SourceText(text))
    if kind == "instance":
        return parse_instance(SourceText(text), _GOLDEN_SCHEMA)
    if kind == "query":
        return parse_query(SourceText(text), _GOLDEN_SCHEMA)
    if kind == "serialize":
        return serialize_formula(text)
    path = tmp_path / "bad.inst"
    path.write_bytes(text)
    try:
        return SourceText.from_file(path)
    except Exception as exc:
        exc.args = (str(exc).replace(str(path), "<file>"),)
        raise


@pytest.mark.parametrize(
    "name,kind,text,error,message", GOLDEN_ERRORS, ids=[row[0] for row in GOLDEN_ERRORS]
)
def test_golden_errors(name, kind, text, error, message, tmp_path):
    with pytest.raises(Exception) as info:
        _golden_call(kind, text, tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message
