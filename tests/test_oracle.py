import itertools
import random

import pytest

from dx import (
    Atom,
    Const,
    Instance,
    answers_semantics,
    gcwa_star_solutions,
    is_gcwa_star_solution,
    is_solution,
    minimal_ground_solutions,
    tstar_fixpoint,
    parse_instance,
)
from dx.errors import BudgetExceeded, UnsupportedSemantics
from dx.model import Var, instance_key
from dx.oracle import (
    Budget,
    _HornRule,
    _as_horn,
    _overcount_violation,
    _union_closure,
    target_atom_pool,
    universe_of,
)
from dx.randgen import gen_packed_mapping, gen_source, random_triples
from dx.textio import SourceText

from fixtures import (
    C23_MAP,
    C23_QUERY,
    COPY_MAP,
    COPY_QUERY,
    COPY_SRC,
    EF_MAP,
    EF_SRC,
    EFF_MAP,
    EFF_QUERY,
    LEQ1_MAP,
    LEQ2_MAP,
    LEQ_QUERY,
    LEQ_SRC,
    MOT_MAP,
    PE_MAP,
    PE_QUERY,
    PE_SRC,
    instance,
    mapping,
    query,
)

a, b = Const("a"), Const("b")
BUDGET = Budget(3, 8, 2)


# ------------------------------------------------------------- minimal solutions


def test_minimal_solutions_copy():
    m = mapping(COPY_MAP)
    fam = minimal_ground_solutions(m, instance(COPY_SRC, m.source), BUDGET)
    assert list(fam) == [Instance([Atom("Rp", (a, b))])]


def test_minimal_solutions_pe_forms():
    m = mapping(PE_MAP)
    fam = minimal_ground_solutions(m, instance(PE_SRC, m.source), BUDGET)
    universe = universe_of(m, instance(PE_SRC, m.source), BUDGET)
    assert set(fam) == {Instance([Atom("E", (a, u))]) for u in universe}


def test_minimal_solutions_mot_form():
    m = mapping(MOT_MAP)
    fam = minimal_ground_solutions(m, instance(PE_SRC, m.source), Budget(2, 8, 2))
    for sol in fam:
        es = [at for at in sol.atoms if at.rel == "E"]
        fs = [at for at in sol.atoms if at.rel == "F"]
        assert len(es) == 1 and len(fs) == 1
        (eatom,), (fatom,) = es, fs
        assert fatom.args == (eatom.args[0], eatom.args[0])


def test_minimal_solutions_with_counting_constraint():
    m = mapping(C23_MAP)
    fam = minimal_ground_solutions(m, instance(PE_SRC, m.source), BUDGET)
    for sol in fam:
        successors = {at.args[1] for at in sol.atoms}
        assert len(sol) == 2 and len(successors) == 2
        assert all(at.args[0] == a for at in sol.atoms)


# ------------------------------------------------------------- fixpoint


def test_tstar_stabilizes_for_st_tgds():
    m = mapping(EF_MAP)
    fix = tstar_fixpoint(m, instance(EF_SRC, m.source), BUDGET)
    assert fix.converged and len(fix.levels) == 1


def test_tstar_mot_adds_six_atom_instances():
    m = mapping(MOT_MAP)
    fix = tstar_fixpoint(m, instance(PE_SRC, m.source), Budget(2, 8, 2))
    assert fix.converged
    assert len(fix.levels) == 2
    six = [inst for inst in fix.levels[1] if len(inst) == 6]
    assert six
    for inst in six:
        es = [at for at in inst.sorted_atoms() if at.rel == "E"]
        assert len(es) == 2
        (e1, e2) = es
        assert e1.args[1] == e2.args[1] and e1.args[0] != e2.args[0]
        d1, d2 = e1.args[0], e2.args[0]
        assert {at for at in inst.atoms if at.rel == "F"} == {
            Atom("F", (d1, d1)),
            Atom("F", (d1, d2)),
            Atom("F", (d2, d1)),
            Atom("F", (d2, d2)),
        }


def test_tstar_empty_mapping():
    m = mapping("source P/1. target E/2.")
    fix = tstar_fixpoint(m, instance(PE_SRC, m.source), BUDGET)
    assert list(fix.family) == [Instance([])]
    assert fix.converged


# ------------------------------------------------------------- solution families


def test_gcwa_star_solutions_pe_are_nonempty_successor_sets():
    m = mapping(PE_MAP)
    fam = gcwa_star_solutions(m, instance(PE_SRC, m.source), Budget(2, 6, 2))
    universe = set(universe_of(m, instance(PE_SRC, m.source), Budget(2, 6, 2)))
    assert len(fam) > 1
    for sol in fam:
        assert sol.atoms  # nonempty unions only
        assert all(at.rel == "E" and at.args[0] == a and at.args[1] in universe for at in sol.atoms)


def test_gcwa_star_membership_with_egd():
    m = mapping(PE_MAP)
    s = instance(PE_SRC, m.source)
    both = parse_instance(SourceText("E(a,b). E(a,c)."), m.target)
    assert is_gcwa_star_solution(m, s, both, BUDGET)
    m_egd = mapping(
        "source P/1. target E/2. tgd P(x) -> exists z: E(x,z). "
        "egd E(x,y), E(x,y2) -> y = y2."
    )
    assert not is_gcwa_star_solution(m_egd, s, both, BUDGET)
    assert is_gcwa_star_solution(
        m_egd, s, parse_instance(SourceText("E(a,b)."), m.target), BUDGET
    )
    assert not is_gcwa_star_solution(
        m, s, parse_instance(SourceText("E(b,c)."), m.target), BUDGET
    )


def test_rcwa_solution_characterization_on_bounded_pool():
    # a solution is the unique minimal one iff it sits inside every ground
    # solution over the bounded universe
    m = mapping(COPY_MAP)
    s = instance(COPY_SRC, m.source)
    budget = Budget(1, 4, 1)
    pool = target_atom_pool(m, universe_of(m, s, budget))
    solutions = [
        Instance(combo)
        for size in range(0, 4)
        for combo in itertools.combinations(pool, size)
        if is_solution(m, s, Instance(combo))
    ]
    fam = minimal_ground_solutions(m, s, budget)
    unique = list(fam)[0]
    assert all(unique.subset_of(sol) for sol in solutions)


def test_gcwa_solution_characterization_on_bounded_pool():
    # GCWA-acceptable solutions over the bounded pool are exactly the
    # solutions covered by the union of all minimal solutions
    m = mapping(PE_MAP)
    s = instance(PE_SRC, m.source)
    budget = Budget(2, 4, 1)
    fam = list(minimal_ground_solutions(m, s, budget))
    covered = frozenset(at for sol in fam for at in sol.atoms)
    pool = target_atom_pool(m, universe_of(m, s, budget))
    for size in range(0, 3):
        for combo in itertools.combinations(pool, size):
            inst = Instance(combo)
            if not is_solution(m, s, inst):
                continue
            is_gcwa = inst.atoms <= covered
            assert is_gcwa == all(at in covered for at in inst.atoms)


# ------------------------------------------------------------- semantics answers


def test_pe_semantics_answers():
    m = mapping(PE_MAP)
    s = instance(PE_SRC, m.source)
    q = query(PE_QUERY, m.target)
    res = answers_semantics(m, s, q, "rcwa", BUDGET)
    assert set(res.answers) == set()
    assert res.meta["diagnostic"] == "no RCWA-solution"
    assert set(answers_semantics(m, s, q, "gcwa", BUDGET).answers) == {(a,)}
    assert set(answers_semantics(m, s, q, "egcwa", BUDGET).answers) == {(a,)}
    assert set(answers_semantics(m, s, q, "cwa", BUDGET).answers) == {(a,)}
    assert set(answers_semantics(m, s, q, "gcwa-star", BUDGET).answers) == {(a,)}
    assert set(answers_semantics(m, s, q, "owa", BUDGET).answers) == {(a,)}


def test_eff_gcwa_vs_gcwa_star():
    m = mapping(EFF_MAP)
    s = instance(PE_SRC, m.source)
    q = query(EFF_QUERY, m.target)
    assert set(answers_semantics(m, s, q, "gcwa", BUDGET).answers) == set()
    assert set(answers_semantics(m, s, q, "gcwa-star", BUDGET).answers) == {()}


def test_c23_egcwa_vs_gcwa_star():
    m = mapping(C23_MAP)
    s = instance(PE_SRC, m.source)
    q = query(C23_QUERY, m.target)
    assert set(answers_semantics(m, s, q, "egcwa", BUDGET).answers) == {(a,)}
    assert set(answers_semantics(m, s, q, "gcwa-star", BUDGET).answers) == set()


def test_leq_cwa_and_pws_are_syntax_sensitive():
    m1, m2 = mapping(LEQ1_MAP), mapping(LEQ2_MAP)
    s = instance(LEQ_SRC, m1.source)
    q = query(LEQ_QUERY, m1.target)
    assert set(answers_semantics(m1, s, q, "cwa", BUDGET).answers) == {(a,)}
    assert set(answers_semantics(m2, s, q, "cwa", BUDGET).answers) == set()
    assert set(answers_semantics(m1, s, q, "pws", BUDGET).answers) == {(a,)}
    assert set(answers_semantics(m2, s, q, "pws", BUDGET).answers) == set()
    g1 = set(answers_semantics(m1, s, q, "gcwa-star", BUDGET).answers)
    g2 = set(answers_semantics(m2, s, q, "gcwa-star", BUDGET).answers)
    assert g1 == g2 == {(a,)}


def test_copy_owa_vs_gcwa_star():
    m = mapping(COPY_MAP)
    s = instance(COPY_SRC, m.source)
    q = query(COPY_QUERY, m.target)
    assert set(answers_semantics(m, s, q, "owa", BUDGET).answers) == set()
    assert set(answers_semantics(m, s, q, "gcwa-star", BUDGET).answers) == {(a, b)}


def test_unsupported_semantics_for_non_st_mappings():
    m = mapping(C23_MAP)
    s = instance(PE_SRC, m.source)
    q = query(PE_QUERY, m.target)
    with pytest.raises(UnsupportedSemantics):
        answers_semantics(m, s, q, "cwa", BUDGET)
    with pytest.raises(UnsupportedSemantics):
        answers_semantics(m, s, q, "pws", BUDGET)
    with pytest.raises(UnsupportedSemantics):
        answers_semantics(m, s, q, "bogus", BUDGET)


def test_empty_cert_policy():
    m = mapping(PE_MAP)
    s = instance(PE_SRC, m.source)
    q = query(PE_QUERY, m.target)
    res = answers_semantics(m, s, q, "rcwa", BUDGET, empty_policy="all")
    assert res.answers  # the alternative reading returns the full grid


def test_budget_stability_plus_one_fresh():
    cases = [
        (PE_MAP, PE_SRC, PE_QUERY, "gcwa"),
        (PE_MAP, PE_SRC, PE_QUERY, "gcwa-star"),
        (EFF_MAP, PE_SRC, EFF_QUERY, "gcwa-star"),
        (C23_MAP, PE_SRC, C23_QUERY, "egcwa"),
        (C23_MAP, PE_SRC, C23_QUERY, "gcwa-star"),
        (COPY_MAP, COPY_SRC, COPY_QUERY, "gcwa-star"),
    ]
    for map_text, src_text, q_text, sem in cases:
        m = mapping(map_text)
        s = instance(src_text, m.source)
        q = query(q_text, m.combined_schema())
        small = answers_semantics(m, s, q, sem, Budget(2, 8, 2))
        bigger = answers_semantics(m, s, q, sem, Budget(3, 8, 2))
        assert set(small.answers) == set(bigger.answers), (map_text, sem)


def test_minimal_solutions_match_minimal_possible_worlds_of_core():
    # for dependency-only mappings the oracle's ground minimal solutions are
    # exactly the minimal valuation images of the core, up to isomorphism
    from dx import core_solution, instances_isomorphic
    from dx.logic import fresh_constants
    from dx.model import apply_map, value_key

    for map_text, src_text in (
        (COPY_MAP, COPY_SRC),
        (PE_MAP, PE_SRC),
        (EF_MAP, EF_SRC),
        (LEQ2_MAP, LEQ_SRC),
    ):
        m = mapping(map_text)
        s = instance(src_text, m.source)
        core = core_solution(m, s)
        nulls = sorted(core.nulls(), key=value_key)
        pool = sorted(core.consts(), key=value_key) + list(
            fresh_constants(len(nulls) + 1)
        )
        images = set()
        for choice in itertools.product(pool, repeat=len(nulls)):
            v = {cst: cst for cst in core.consts()}
            v.update(zip(nulls, choice))
            images.add(apply_map(v, core))
        worlds = [
            img
            for img in images
            if not any(o != img and o.subset_of(img) for o in images)
        ]
        fam = list(minimal_ground_solutions(m, s, Budget(2, 8, 2)))
        for sol in fam:
            assert any(instances_isomorphic(sol, w) for w in worlds), sol
        for w in worlds:
            assert any(instances_isomorphic(w, sol) for sol in fam), w


def test_minimal_solutions_on_random_mappings_are_minimal():
    rng = random.Random(53)
    from dx.errors import BudgetExceeded

    checked = 0
    while checked < 20:
        m = gen_packed_mapping(rng)
        s = gen_source(rng, max_atoms=4)
        try:
            fam = list(minimal_ground_solutions(m, s, Budget(2, 8, 2)))
        except BudgetExceeded:
            continue
        for sol in fam:
            assert is_solution(m, s, sol)
            for atom in sol.atoms:
                assert not is_solution(m, s, sol.minus([atom]))
        checked += 1


def test_too_many_core_nulls_fail_before_enumeration(monkeypatch):
    # the core is its own representative and has the most nulls, so a core
    # with more nulls than fresh values is refused without enumerating
    import dx.oracle
    from dx.errors import BudgetExceeded

    def must_not_run(*args, **kwargs):
        raise AssertionError("enum_min_c ran on an over-budget core")

    monkeypatch.setattr(dx.oracle, "enum_min_c", must_not_run)
    m = mapping("source P/1. target E/2. tgd P(x) -> exists z: E(x,z).")
    s = instance("P(a). P(b). P(c).", m.source)
    with pytest.raises(BudgetExceeded, match="3 fresh values needed but only 2"):
        minimal_ground_solutions(m, s, Budget(2, 8, 2))


# ------------------------------------------------------------- union closure reference


def _reference_union_closure(members, max_atoms, cap=60_000):
    """The union closure on frozensets of atoms: the same member order,
    rounds, work count and caps as ``dx.oracle._union_closure``, returning
    the unions sorted by ``instance_key``."""
    base = []
    seen = set()
    for m in sorted(set(members), key=instance_key):
        if len(m.atoms) <= max_atoms and m.atoms not in seen:
            seen.add(m.atoms)
            base.append(m.atoms)
    frontier = list(base)
    work = 0
    while frontier:
        nxt = []
        for u in frontier:
            for m in base:
                work += 1
                if work > 40 * cap:
                    raise BudgetExceeded(
                        f"union closure exceeded its work cap of {40 * cap} steps"
                    )
                if m <= u:
                    continue
                w = u | m
                if len(w) <= max_atoms and w not in seen:
                    if len(seen) >= cap:
                        raise BudgetExceeded(
                            f"union closure exceeded its cap of {cap} unions"
                        )
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted((Instance(a) for a in seen), key=instance_key)


def _closure_outcome(closure, members, max_atoms, cap):
    try:
        return closure(members, max_atoms, cap)
    except BudgetExceeded as exc:
        return str(exc)


def _e(*pairs):
    return Instance([Atom("E", (Const(x), Const(y))) for x, y in pairs])


def _hand_made_families():
    ab, bc, cd, ac = _e(("a", "b")), _e(("b", "c")), _e(("c", "d")), _e(("a", "c"))
    big = _e(*[("a", x) for x in "bcdefgh"])
    full = [_e(("a", x), ("b", x), ("c", x)) for x in "defghij"]
    # 40 members of 3 atoms and no union within 3 atoms: exactly 1600 joins,
    # the work cap at cap 40
    forty = [_e(("a", f"v{i}"), ("b", f"v{i}"), ("c", f"v{i}")) for i in range(40)]
    return [
        [],
        [Instance([])],
        [Instance([]), ab, bc],
        [ab, ab, bc, bc, ab],
        [ab, _e(("a", "b"), ("b", "c")), bc],
        [ab, bc, cd, ac, _e(("a", "b"), ("c", "d"))],
        [big, ab, bc],
        [big],
        full,
        full + [ab, bc],
        forty,
    ]


def _random_minimal_families(count, seed=7207):
    rng = random.Random(seed)
    families = []
    while len(families) < count:
        m = gen_packed_mapping(rng)
        s = gen_source(rng, max_atoms=5)
        try:
            families.append(list(minimal_ground_solutions(m, s, Budget(2, 8, 2))))
        except BudgetExceeded:
            continue
    return families


def test_union_closure_matches_reference():
    # the same unions in the same order, and the same errors at the same
    # caps, for the size cap and for the work cap
    families = _hand_made_families() + _random_minimal_families(30)
    errors = set()
    for members in families:
        for max_atoms in (0, 3, 6, 8):
            for cap in (1, 2, 3, 5, 8, 13, 39, 40, 60_000):
                expected = _closure_outcome(_reference_union_closure, members, max_atoms, cap)
                got = _closure_outcome(_union_closure, members, max_atoms, cap)
                assert got == expected, (members, max_atoms, cap)
                if isinstance(expected, str):
                    errors.add(expected.split(" of ")[0])
    assert errors == {
        "union closure exceeded its cap",
        "union closure exceeded its work cap",
    }


def test_union_closure_cap_message_names_its_limit():
    members = [_e(("a", x)) for x in "bcd"]
    with pytest.raises(BudgetExceeded) as info:
        _union_closure(members, 8, cap=4)
    assert str(info.value) == "union closure exceeded its cap of 4 unions"


def _criterion_8_triples(count, seed=20260808):
    yield from itertools.islice(random_triples(random.Random(seed), max_atoms=5), count)
    for map_text, src_text, q_text in (
        (MOT_MAP, PE_SRC, PE_QUERY),
        (EFF_MAP, PE_SRC, EFF_QUERY),
        (C23_MAP, PE_SRC, C23_QUERY),
        (LEQ1_MAP, LEQ_SRC, LEQ_QUERY),
    ):
        m = mapping(map_text)
        yield m, instance(src_text, m.source), query(q_text, m.combined_schema())


def _gcwa_star_outcomes(triples, budgets):
    out = []
    for m, s, q in triples:
        for budget in budgets:
            try:
                family = gcwa_star_solutions(m, s, budget).instances
                answers = answers_semantics(m, s, q, "gcwa-star", budget).answers
                out.append((family, answers))
            except BudgetExceeded as exc:
                out.append(str(exc))
    return out


def test_gcwa_star_outputs_match_reference_closure(monkeypatch):
    import dx.oracle

    triples = list(_criterion_8_triples(40))
    budgets = (Budget(2, 8, 2), Budget(2, 5, 2))
    got = _gcwa_star_outcomes(triples, budgets)
    monkeypatch.setattr(dx.oracle, "_union_closure", _reference_union_closure)
    expected = _gcwa_star_outcomes(triples, budgets)
    assert got == expected
    assert any(isinstance(o, str) for o in got) and any(isinstance(o, tuple) for o in got)


def test_constraint_split_and_overcount_check():
    # the Horn and counting fixtures, a nested quantifier and a negated count
    # under one instance whose P-constant has four E-successors
    sentences = [
        mapping(text).general_constraints[0]
        for text in (
            MOT_MAP,
            C23_MAP,
            "source P/1. target E/2. constraint forall x: P(x) -> exists z: E(x,z).",
            "source P/1. target E/2. constraint forall x: P(x) -> ~exists[2,3] z: E(x,z).",
        )
    ]
    m = mapping(C23_MAP)
    combined = instance("P(a). E(a,b). E(a,c). E(a,d). E(a,e).", m.combined_schema())
    x, x2, y = Var("x"), Var("x2"), Var("y")
    horn = _HornRule((("E", (x, y)), ("E", (x2, y))), ("F", (x, x2)), None)
    assert [_as_horn(s) for s in sentences] == [horn, None, None, None]
    assert [_overcount_violation(s.body, combined) for s in sentences] == [
        False, True, False, False,
    ]
