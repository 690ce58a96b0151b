import pytest

from dx import (
    Const,
    instances_isomorphic,
    parse_instance,
    parse_mapping,
    parse_query,
)
from dx.errors import (
    ArityMismatch,
    ParseError,
    SchemaViolation,
    UnknownRelation,
)
from dx.logic import CountExists, Forall, Or
from dx.textio import (
    SourceText,
    answers_json,
    serialize_instance,
    serialize_mapping,
    serialize_query,
)

from fixtures import (
    C23_MAP,
    CLQ_MAP,
    COPY_MAP,
    COPY_QUERY,
    EF_MAP,
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
    for text in (COPY_MAP, EF_MAP, LEQ2_MAP, MOT_MAP, C23_MAP, CLQ_MAP):
        m = parse_mapping(SourceText(text))
        again = parse_mapping(SourceText(serialize_mapping(m)))
        assert again == m


def test_roundtrip_queries():
    m = parse_mapping(SourceText(CLQ_MAP))
    for text in (
        "q(x,y) := forall z: C(x,y) /\\ (A(x,z) -> z = y).",
        "q() := forall z1: forall z2: (C(z1,z2) /\\ A(z1,z2)) -> E(z1,z2).",
        "q(x) := exists z: A(x,z) \\/ ~E(x,z).",
    ):
        q = parse_query(SourceText(text), m.target)
        again = parse_query(SourceText(serialize_query(q)), m.target)
        assert again == q


def test_roundtrip_instances_modulo_null_names():
    inst = parse_instance(SourceText(NAF_INSTANCE), E_SCHEMA)
    again = parse_instance(SourceText(serialize_instance(inst)), E_SCHEMA)
    assert instances_isomorphic(inst, again)


def test_serialize_instance_is_deterministic():
    inst = parse_instance(SourceText(NAF_INSTANCE), E_SCHEMA)
    assert serialize_instance(inst) == serialize_instance(
        parse_instance(SourceText(serialize_instance(inst)), E_SCHEMA)
    )


def test_answers_json_shape():
    doc = answers_json("q", "gcwa-star", {(Const("b"), Const("a")), (Const("a"), Const("b"))}, {"path": "fast"})
    assert '"answers": [\n    [\n      "a",\n      "b"\n    ],' in doc
    assert '"query": "q"' in doc and '"semantics": "gcwa-star"' in doc
