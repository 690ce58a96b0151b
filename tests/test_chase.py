import random

import pytest

from dx import (
    Atom,
    Const,
    canonical_solution,
    instances_isomorphic,
    is_solution,
    trigger_set,
)
from dx.errors import NotGround
from dx.randgen import gen_packed_mapping, gen_source
from dx.textio import SourceText
from dx import parse_instance

from families import EF_MAP
from fixtures import (
    COPY_MAP,
    COPY_SRC,
    EF_SRC,
    LEQ2_MAP,
    LEQ_SRC,
    MOT_MAP,
    MOT_SOLUTION,
    instance,
    mapping,
)

a, b = Const("a"), Const("b")


def test_copy_canonical_solution():
    m = mapping(COPY_MAP)
    s = instance(COPY_SRC, m.source)
    assert canonical_solution(m, s) == parse_instance(SourceText("Rp(a,b)."), m.target)


def test_leq2_canonical_solution_shape():
    m = mapping(LEQ2_MAP)
    s = instance(LEQ_SRC, m.source)
    sol = canonical_solution(m, s)
    expected = parse_instance(SourceText("E(a,a). E(a,_z)."), m.target)
    assert instances_isomorphic(sol, expected)


def test_ef_single_trigger_one_null():
    m = mapping(EF_MAP)
    s = instance(EF_SRC, m.source)
    sol = canonical_solution(m, s)
    assert len(sol) == 2 and len(sol.nulls()) == 1


def test_canonical_solution_requires_ground_source():
    m = mapping(EF_MAP)
    s = parse_instance(SourceText("R(a,_n)."), m.source)
    with pytest.raises(NotGround):
        canonical_solution(m, s)


def test_trigger_nulls_are_disjoint_per_trigger():
    m = mapping(EF_MAP)
    s = parse_instance(SourceText("R(a,b). R(b,a). R(a,a)."), m.source)
    sol = canonical_solution(m, s)
    assert len(trigger_set(m, s)) == 3
    assert len(sol.nulls()) == 3  # one fresh null per trigger


def test_chase_is_deterministic():
    m = mapping(EF_MAP)
    s = parse_instance(SourceText("R(a,b). R(b,a)."), m.source)
    assert canonical_solution(m, s) == canonical_solution(m, s)


def test_is_solution_copy():
    m = mapping(COPY_MAP)
    s = instance(COPY_SRC, m.source)
    assert is_solution(m, s, parse_instance(SourceText("Rp(a,b)."), m.target))
    assert not is_solution(m, s, parse_instance(SourceText(""), m.target))


def test_is_solution_motivating_six_atom_instance():
    m = mapping(MOT_MAP)
    s = parse_instance(SourceText("P(a)."), m.source)
    t = instance(MOT_SOLUTION, m.target)
    assert is_solution(m, s, t)
    # dropping one of the forced cross atoms breaks the target constraint
    broken = t.minus([Atom("F", (Const("c1"), Const("c2")))])
    assert not is_solution(m, s, broken)


def test_is_solution_with_egd():
    m = mapping(
        "source P/1. target E/2. tgd P(x) -> E(x,x). "
        "egd E(x,y), E(x,y2) -> y = y2."
    )
    s = instance("P(a).", m.source)
    assert is_solution(m, s, parse_instance(SourceText("E(a,a)."), m.target))
    assert not is_solution(
        m, s, parse_instance(SourceText("E(a,a). E(a,b)."), m.target)
    )


def test_canonical_solution_satisfies_mapping_on_random_sources():
    rng = random.Random(31)
    for _ in range(60):
        m = gen_packed_mapping(rng)
        s = gen_source(rng)
        sol = canonical_solution(m, s)
        assert is_solution(m, s, sol)
