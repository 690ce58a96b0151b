import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dx import (
    Atom,
    Const,
    Instance,
    answers_semantics,
    canonical_solution,
    certain_answers,
    gcwa_star_solutions,
    is_gcwa_star_solution,
    is_solution,
    minimal_ground_solutions,
    tstar_fixpoint,
    parse_instance,
)
from dx.errors import BudgetExceeded, DxError, UnsupportedSemantics
from dx.logic import fresh_constants, is_ucq, query_answers
from dx.model import Schema, Var, atom_key, instance_key, match_conjunction, value_key
from dx.oracle import (
    SEMANTICS,
    Budget,
    _HornRule,
    _as_horn,
    _intersect,
    _overcount_violation,
    _query_views,
    _union_closure,
    _union_masks,
    target_atom_pool,
    universe_of,
)
from dx.randgen import (
    gen_packed_mapping,
    gen_source,
    gen_ucq,
    gen_universal_query,
    random_triples,
    three_way,
)
from dx.textio import SourceText, serialize_instance, serialize_mapping, serialize_query

from fixtures import (
    AGREE13_MAP,
    AGREE13_QUERY,
    AGREE13_SRC,
    AGREE14_MAP,
    AGREE14_QUERY,
    AGREE14_SRC,
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
    TRIAL68_MAP,
    TRIAL68_QUERY,
    TRIAL68_SRC,
    TRIAL141_MAP,
    TRIAL141_QUERY,
    TRIAL141_SRC,
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


def test_gcwa_star_builds_no_atom_pool_for_st_tgds(monkeypatch):
    # only target constraints read the pool of target atoms: an st-tgd
    # mapping answers without it, and an egd brings it back
    import dx.oracle

    def no_pool(*args):
        raise AssertionError("target_atom_pool was called")

    monkeypatch.setattr(dx.oracle, "target_atom_pool", no_pool)
    m = mapping(COPY_MAP)
    s = instance(COPY_SRC, m.source)
    q = query(COPY_QUERY, m.target)
    assert set(answers_semantics(m, s, q, "gcwa-star", BUDGET).answers) == {(a, b)}
    m_egd = mapping(COPY_MAP + " egd Rp(x,y), Rp(x,y2) -> y = y2.")
    with pytest.raises(AssertionError, match="target_atom_pool was called"):
        answers_semantics(m_egd, s, q, "gcwa-star", BUDGET)


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


def test_unknown_empty_policy_is_refused():
    # both entry points of the certain-answer driver; a wrong case or a
    # typo used to read as "none"
    m = mapping(PE_MAP)
    s = instance(PE_SRC, m.source)
    q = query(PE_QUERY, m.target)
    with pytest.raises(DxError) as info:
        answers_semantics(m, s, q, "rcwa", BUDGET, empty_policy="ALL")
    assert str(info.value) == "unknown empty_policy 'ALL': use 'none' or 'all'"
    with pytest.raises(DxError) as info:
        certain_answers(q, [], empty_policy="al", universe=[a, b])
    assert str(info.value) == "unknown empty_policy 'al': use 'none' or 'all'"


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
    with pytest.raises(BudgetExceeded, match=r"cap of 2 values \(3 needed\)"):
        minimal_ground_solutions(m, s, Budget(2, 8, 2))


# ------------------------------------------------------------- union closure reference


def _reference_union_closure(members, max_atoms, cap=60_000):
    """The union closure on frozensets of atoms, one member at a time: each
    distinct member within ``max_atoms``, in ``instance_key`` order, is
    added and joined into every union found before it of fewer than
    ``max_atoms`` atoms, one step per join.  The same caps as
    ``dx.oracle._union_closure``; returns the unions sorted by
    ``instance_key``."""
    base = []
    for m in sorted(set(members), key=instance_key):
        if len(m.atoms) <= max_atoms:
            base.append(m.atoms)
    found = {}  # the unions, in the order found
    joined = work = 0
    for m in base:
        growing = [u for u in found if len(u) < max_atoms]
        for step, w in enumerate([m] + [u | m for u in growing]):
            if step:
                work += 1
                if work > 40 * cap:
                    raise BudgetExceeded(
                        f"union closure exceeded its work cap of {40 * cap} steps"
                    )
            if len(w) > max_atoms or w in found:
                continue
            if w not in base:
                if len(base) + joined >= cap:
                    raise BudgetExceeded(
                        f"union closure exceeded its cap of {cap} unions"
                    )
                joined += 1
            found[w] = None
    return sorted((Instance(a) for a in found), key=instance_key)


def _bfs_union_closure(members, max_atoms, cap=60_000):
    """The union closure by rounds: each round joins every union the last
    one found with every member, one step per join, also for a union of
    ``max_atoms`` atoms.  Returns the unions sorted by ``instance_key``."""
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


def _full(names):
    """One member of 3 atoms per name; two of them make 6 atoms."""
    return [_e(("a", x), ("b", x), ("c", x)) for x in names]


def _hand_made_families():
    ab, bc, cd, ac = _e(("a", "b")), _e(("b", "c")), _e(("c", "d")), _e(("a", "c"))
    big = _e(*[("a", x) for x in "bcdefgh"])
    full = _full("defghij")
    # 40 members of 3 atoms: none can grow within 3 atoms, so no joins; within
    # 6 atoms each joins every member before it, 780 joins for 780 pairs
    forty = _full([f"v{i}" for i in range(40)])
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


def _closure_grid():
    families = _hand_made_families() + _random_minimal_families(30)
    for members in families:
        for max_atoms in (0, 3, 6, 8):
            for cap in (1, 2, 3, 5, 8, 13, 39, 40, 60_000):
                yield members, max_atoms, cap


def test_union_closure_matches_reference():
    # the same unions in the same order, and the same errors at the same
    # caps, for the size cap and for the work cap
    errors = set()
    for members, max_atoms, cap in _closure_grid():
        expected = _closure_outcome(_reference_union_closure, members, max_atoms, cap)
        got = _closure_outcome(_union_closure, members, max_atoms, cap)
        assert got == expected, (members, max_atoms, cap)
        if isinstance(expected, str):
            errors.add(expected.split(" of ")[0])
    assert errors == {
        "union closure exceeded its cap",
        "union closure exceeded its work cap",
    }


def test_union_closure_agrees_with_the_closure_by_rounds():
    # joining each member only into the unions before it that can still
    # grow takes fewer steps than joining every union with every member, so
    # only a work-cap refusal by rounds may come out differently
    differ = 0
    for members, max_atoms, cap in _closure_grid():
        by_rounds = _closure_outcome(_bfs_union_closure, members, max_atoms, cap)
        got = _closure_outcome(_union_closure, members, max_atoms, cap)
        if isinstance(by_rounds, str) and "work cap" in by_rounds:
            differ += got != by_rounds
        else:
            assert got == by_rounds, (members, max_atoms, cap)
    assert differ


def test_union_closure_answers_where_rounds_ran_out_of_work():
    # seven members of 3 atoms within 3 atoms: rounds spend 7 × 7 joins
    # against a work cap of 40, while no member can grow
    full = _full("defghij")
    with pytest.raises(BudgetExceeded, match="work cap of 40 steps"):
        _bfs_union_closure(full, 3, cap=1)
    assert _union_closure(full, 3, cap=1) == sorted(full, key=instance_key)


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
    calls = []

    def reference_masks(members, max_atoms, cap=60_000):
        # the frozenset closure's unions, encoded as ``_union_masks`` does
        calls.append(max_atoms)
        unions = _reference_union_closure(members, max_atoms, cap)
        atoms = sorted({a for u in unions for a in u.atoms}, key=atom_key)
        bit = {at: 1 << (len(atoms) - 1 - i) for i, at in enumerate(atoms)}
        return tuple(atoms), [sum(bit[at] for at in u.atoms) for u in unions]

    monkeypatch.setattr(dx.oracle, "_union_masks", reference_masks)
    expected = _gcwa_star_outcomes(triples, budgets)
    assert calls  # the answers really came from the reference closure
    assert got == expected
    assert any(isinstance(o, str) for o in got) and any(isinstance(o, tuple) for o in got)


# ------------------------------------------------------------- semantics reference


def _solutions_in(m, s, pool, max_atoms):
    """The ground solutions made of pool atoms, smallest first in
    ``itertools.combinations`` order; the 300 001st subset raises."""
    subsets = itertools.chain.from_iterable(
        itertools.combinations(pool, k) for k in range(min(len(pool), max_atoms) + 1)
    )
    for count, combo in enumerate(subsets, 1):
        if count > 300_000:
            raise BudgetExceeded("solution enumeration exceeded its cap of 300000 subsets")
        if is_solution(m, s, Instance(combo)):
            yield Instance(combo)


def _head_images(m, s, values):
    """The head atoms of every tgd firing on s, its existentials over values."""
    for tgd in m.st_tgds:
        for bnd in match_conjunction([(pa.rel, pa.terms) for pa in tgd.body], s):
            for images in itertools.product(values, repeat=len(tgd.exists_vars)):
                full = {**bnd, **dict(zip(tgd.exists_vars, images))}
                yield frozenset(
                    Atom(pa.rel, tuple(full.get(t, t) for t in pa.terms)) for pa in tgd.head
                )


def _possible_worlds(m, s, universe, max_atoms):
    """PWS-solutions: solutions whose every atom is in a whole head image
    inside them, the existentials ranging over their own domain."""
    pool = sorted({at for head in _head_images(m, s, universe) for at in head}, key=atom_key)
    for inst in _solutions_in(m, s, pool, max_atoms):
        values = sorted(inst.dom(), key=value_key)
        heads = [h for h in _head_images(m, s, values) if h <= inst.atoms]
        if inst.atoms == frozenset().union(*heads):
            yield inst


def _valuation_images(q, inst):
    """Every valuation of inst's nulls into its constants, q's and one fresh
    constant per null."""
    nulls = sorted(inst.nulls(), key=value_key)
    if len(nulls) > 8:
        raise BudgetExceeded(
            f"valuation enumeration exceeded its cap of 8 nulls ({len(nulls)} in the instance)"
        )
    pool = sorted(set(inst.consts()) | set(q.consts()), key=value_key)
    pool += fresh_constants(len(nulls))
    valuations = (dict(zip(nulls, vals)) for vals in itertools.product(pool, repeat=len(nulls)))
    return {
        Instance(Atom(at.rel, tuple(v.get(x, x) for x in at.args)) for at in inst.atoms)
        for v in valuations
    }


def _reference_family(m, s, q, semantics, budget, meta):
    """The family ``answers_semantics`` intersects, whether it reports the
    members read as ``solutions_checked``, and its empty-family diagnostic."""
    universe = universe_of(m, s, budget, q.consts())
    if semantics in ("cwa", "pws") and not m.is_st_only():
        world = "closed-world" if semantics == "cwa" else "possible-worlds"
        raise UnsupportedSemantics(f"the {world} semantics is defined for st-tgd mappings only")
    if semantics == "cwa":
        meta["path"] = "cansol-valuations"
        return _valuation_images(q, canonical_solution(m, s)), False, None
    monotone = is_ucq(q) and m.is_st_only()
    if semantics == "owa" and monotone:
        meta["path"] = "universal-solution"
        return [canonical_solution(m, s)], False, None
    if semantics == "owa":
        return _solutions_in(m, s, target_atom_pool(m, universe), budget.max_atoms), True, None
    if semantics == "pws":
        return _possible_worlds(m, s, universe, budget.max_atoms), True, "no PWS-solution"
    if semantics == "gcwa-star" and not monotone:
        family = gcwa_star_solutions(m, s, budget, q.consts())
        meta.update(converged=family.meta["converged"], family_size=len(family))
        return family, False, "no gcwa-star solution within budget"
    minimal = minimal_ground_solutions(m, s, budget, q.consts())
    if semantics == "rcwa" and len(minimal) == 1:
        meta["rcwa_solution"] = True
        return minimal, False, None
    if semantics == "rcwa":
        meta["minimal_count"] = len(minimal)
        return [], False, "no RCWA-solution"
    meta["family_size"] = len(minimal)
    if semantics == "gcwa-star":
        meta["path"] = "oracle-minimal-members"
        return minimal, False, "no gcwa-star solution within budget"
    if semantics == "egcwa" or not len(minimal):
        return minimal, False, "no minimal ground solution within budget"
    covered = sorted({at for inst in minimal for at in inst.atoms}, key=atom_key)
    return _solutions_in(m, s, covered, budget.max_atoms), True, "no GCWA-solution"


def _reference_semantics(m, s, q, semantics, budget, empty_policy):
    """The plain certain answers: the all-constant tuples of the
    ``set.intersection`` of ``query_answers`` over the family, with the meta
    ``answers_semantics`` documents.  A family that reports
    ``solutions_checked`` is read until the intersection empties."""
    meta = {"budget": budget.as_dict(), "path": "oracle"}
    try:
        family, counted, diagnostic = _reference_family(m, s, q, semantics, budget, meta)
        common, read = None, 0
        for inst in family:
            read += 1
            answers = query_answers(q, inst)
            common = answers if common is None else common & answers
            if counted and not common:
                break
    except (BudgetExceeded, UnsupportedSemantics) as exc:
        return type(exc).__name__, str(exc)
    if counted:
        meta["solutions_checked"] = read
    if read:
        return frozenset(t for t in common if all(isinstance(v, Const) for v in t)), meta
    if diagnostic:
        meta["diagnostic"] = diagnostic
    if empty_policy == "all":
        universe = universe_of(m, s, budget, q.consts())
        return frozenset(itertools.product(universe, repeat=q.width)), meta
    return frozenset(), meta


def _semantics_outcome(m, s, q, semantics, budget, empty_policy):
    try:
        res = answers_semantics(m, s, q, semantics, budget, empty_policy)
    except (BudgetExceeded, UnsupportedSemantics) as exc:
        return type(exc).__name__, str(exc)
    return res.answers, res.meta


# criterion 8's triples (seed 20260808, counted from 0) whose seven semantics
# answer quickly at both budgets below
_PINNED_TRIPLES = (
    0, 1, 2, 3, 6, 7, 8, 9, 11, 12, 13, 14, 15, 17, 18, 21, 22, 25, 28, 29, 30, 32, 35, 36, 37, 38,
)


def _pinned_inputs():
    for map_text, src_text, q_text in (
        (PE_MAP, PE_SRC, PE_QUERY),
        (MOT_MAP, PE_SRC, PE_QUERY),
        (EFF_MAP, PE_SRC, EFF_QUERY),
        (C23_MAP, PE_SRC, C23_QUERY),
        (LEQ1_MAP, LEQ_SRC, LEQ_QUERY),
        (COPY_MAP, COPY_SRC, COPY_QUERY),
    ):
        m = mapping(map_text)
        yield m, instance(src_text, m.source), query(q_text, m.combined_schema())
    triples = list(itertools.islice(random_triples(random.Random(20260808), max_atoms=5), 40))
    yield from (triples[i] for i in _PINNED_TRIPLES)


def _outcome_kind(outcome):
    if isinstance(outcome[0], str):
        return outcome[0]
    meta = outcome[1]
    return "empty" if "diagnostic" in meta or meta.get("solutions_checked") == 0 else "answers"


def test_seven_semantics_match_plain_reference():
    # answers, full meta and error text of every semantics under both
    # empty-family policies; Budget(2, 0, 2) leaves most families empty
    kinds = set()
    for m, s, q in _pinned_inputs():
        for budget in (Budget(1, 4, 2), Budget(2, 0, 2)):
            for semantics in SEMANTICS:
                for policy in ("none", "all"):
                    expected = _reference_semantics(m, s, q, semantics, budget, policy)
                    got = _semantics_outcome(m, s, q, semantics, budget, policy)
                    assert got == expected, (m, s, q, semantics, budget, policy)
                    kinds.add((semantics, _outcome_kind(expected)))
    assert {k for _, k in kinds} == {"answers", "empty", "BudgetExceeded", "UnsupportedSemantics"}
    assert {s for s, k in kinds if k == "answers"} == set(SEMANTICS)
    assert {s for s, k in kinds if k == "empty"} == set(SEMANTICS) - {"cwa"}


def test_gcwa_star_answers_match_whole_family_reference():
    # criterion 8's first 40 triples and the four fixtures, two of them with
    # target constraints: equal answers, equal meta, equal budget errors
    kinds = set()
    for m, s, q in _criterion_8_triples(40):
        for budget in (Budget(2, 8, 2), Budget(2, 5, 2)):
            expected = _reference_semantics(m, s, q, "gcwa-star", budget, "none")
            got = _semantics_outcome(m, s, q, "gcwa-star", budget, "none")
            assert got == expected, (m, s, q, budget)
            kinds.add(_outcome_kind(expected))
    assert kinds == {"answers", "BudgetExceeded"}


EF_SCHEMA = Schema.of({"E": 2, "F": 2})


def _unions_answers(q, members, max_atoms=8):
    """The oracle's intersection over the unions of ``members`` (their
    distinct views of q), next to the plain one over every union."""
    atoms, masks = _union_masks(members, max_atoms)
    got, _ = _intersect(q, _query_views(q, atoms, masks))
    plain = set.intersection(*(query_answers(q, u) for u in _union_closure(members, max_atoms)))
    return got, plain


def _ef(*atoms):
    return Instance([Atom(rel, (Const(x), Const(y))) for rel, x, y in atoms])


def test_views_differ_by_the_domain_of_atoms_outside_the_query():
    # the second union adds only F(c,c), outside the query's relations, but
    # its c refutes E(a,c) for x = a
    q = query("q(x) := forall u: E(x,u) \\/ u = x.", EF_SCHEMA)
    members = [_ef(("E", "a", "b")), _ef(("E", "a", "b"), ("F", "c", "c"))]
    assert query_answers(q, members[0]) == {(a,)}
    assert _unions_answers(q, members) == (set(), set())


def test_survivor_outside_a_later_domain_is_dropped():
    # a is an answer on E(a,b), and the body holds for x = a on E(c,d), but
    # a is not in that union's domain
    q = query("q(x) := forall u: ~E(u,x).", EF_SCHEMA)
    members = [_ef(("E", "a", "b")), _ef(("E", "c", "d"))]
    assert query_answers(q, members[0]) == {(a,)}
    assert _unions_answers(q, members) == (set(), set())


def test_boolean_query_over_union_views():
    q = query("q() := forall u: E(a,u) \\/ u = a.", EF_SCHEMA)
    widened = [_ef(("E", "a", "b")), _ef(("E", "a", "b"), ("F", "c", "c"))]
    covered = [_ef(("E", "a", "b")), _ef(("E", "a", "b"), ("E", "a", "c"))]
    assert _unions_answers(q, widened) == (set(), set())
    assert _unions_answers(q, covered) == ({()}, {()})


def test_gcwa_star_empty_family_under_empty_cert_all():
    # no minimal solution fits in zero atoms: the full grid, as the reference
    m = mapping(PE_MAP)
    s = instance(PE_SRC, m.source)
    q = query("q(x) := forall u: ~E(x,u).", m.target)
    budget = Budget(2, 0, 2)
    answers, meta = _semantics_outcome(m, s, q, "gcwa-star", budget, "all")
    assert answers == frozenset((c,) for c in universe_of(m, s, budget))
    assert meta["family_size"] == 0
    assert (answers, meta) == _reference_semantics(m, s, q, "gcwa-star", budget, "all")


def test_gcwa_star_union_views_with_target_constraints():
    # MOT's constraint forces F atoms, C23's bounds the E successors
    for map_text, q_text, expected in (
        (MOT_MAP, "q() := forall u: forall w: E(u,w) -> F(u,u).", {()}),
        (MOT_MAP, "q() := forall u: forall w: E(u,w) -> ~(u = w).", set()),
        (C23_MAP, "q(x) := forall u: E(x,u) \\/ ~E(x,u).", {(a,)}),
        (C23_MAP, "q() := forall u: forall w: forall v: (E(u,w) /\\ E(v,w)) -> u = v.", {()}),
    ):
        m = mapping(map_text)
        s = instance(PE_SRC, m.source)
        q = query(q_text, m.combined_schema())
        answers, meta = _semantics_outcome(m, s, q, "gcwa-star", Budget(2, 8, 2), "none")
        assert set(answers) == expected, q_text
        reference = _reference_semantics(m, s, q, "gcwa-star", Budget(2, 8, 2), "none")
        assert (answers, meta) == reference


def test_repeated_views_are_evaluated_once(monkeypatch):
    # E and F successors are chosen independently: unions with the same E
    # atoms and the same domain differ only in F, which q never reads
    import dx.oracle

    m = mapping(
        "source P/1. target E/2, F/2. "
        "tgd P(x) -> exists z: E(x,z). tgd P(x) -> exists z: F(x,z)."
    )
    s = instance(PE_SRC, m.source)
    q = query("q(x) := forall u: E(x,u) \\/ ~E(x,u).", m.target)
    budget = Budget(2, 8, 2)
    expected = _reference_semantics(m, s, q, "gcwa-star", budget, "none")
    evaluated = set()

    def counting(original):
        def run(first, inst, *args, **kwargs):
            evaluated.add(inst)
            return original(first, inst, *args, **kwargs)

        return run

    monkeypatch.setattr(dx.oracle, "query_answers", counting(dx.oracle.query_answers))
    answers, meta = _semantics_outcome(m, s, q, "gcwa-star", budget, "none")
    assert (answers, meta) == expected
    assert answers == {(a,)}
    assert 0 < len(evaluated) < meta["family_size"]


_PROPERTY_ATOMS = [
    Atom(rel, args) for rel in "EF" for args in itertools.product((a, b, Const("c")), repeat=2)
] + [Atom("U", (v,)) for v in (a, b, Const("c"))]

_families = st.lists(
    st.frozensets(st.sampled_from(_PROPERTY_ATOMS), max_size=4).map(Instance),
    min_size=1,
    max_size=5,
)


def _random_query(seed, positive):
    rng = random.Random(seed)
    if positive:
        return gen_ucq(rng, free_count=rng.randint(0, 2))
    return gen_universal_query(rng, free_count=rng.randint(0, 2))


@settings(max_examples=80, deadline=None)
@given(family=_families, seed=st.integers(0, 2**32 - 1), positive=st.booleans())
def test_intersect_matches_naive_intersection(family, seed, positive):
    q = _random_query(seed, positive)
    common, count = _intersect(q, family)
    assert common == set.intersection(*(query_answers(q, inst) for inst in family))
    assert count == len(family) or not common


@settings(max_examples=80, deadline=None)
@given(members=_families, seed=st.integers(0, 2**32 - 1), positive=st.booleans())
def test_union_views_match_naive_intersection(members, seed, positive):
    got, plain = _unions_answers(_random_query(seed, positive), members)
    assert got == plain


# ------------------------------------------------------------- criterion 8's slowest skips


def _criterion_8_trial(number):
    """Trial ``number`` (counted from 1) of criterion 8's seed, as text."""
    m, s, q = next(
        itertools.islice(random_triples(random.Random(20260808), max_atoms=5), number - 1, None)
    )
    return serialize_mapping(m), serialize_instance(s), serialize_query(q)


def _frozen_trial_skip(map_text, src_text, q_text, number):
    assert _criterion_8_trial(number) == (map_text, src_text, q_text)
    m = mapping(map_text)
    result = three_way(m, instance(src_text, m.source), query(q_text, m.target), Budget(2, 8, 2))
    evaluator, error = result.skipped
    return evaluator, str(error)


def test_criterion_8_trial_68_is_skipped_by_the_oracle():
    assert _frozen_trial_skip(TRIAL68_MAP, TRIAL68_SRC, TRIAL68_QUERY, 68) == (
        "oracle",
        "fresh-value universe exceeded its cap of 2 values (5 needed)",
    )


def test_criterion_8_trial_141_is_skipped_by_the_oracle():
    assert _frozen_trial_skip(TRIAL141_MAP, TRIAL141_SRC, TRIAL141_QUERY, 141) == (
        "oracle",
        "fresh-value universe exceeded its cap of 2 values (5 needed)",
    )


# ------------------------------------------------------------- agree_random's slowest oracle triples


def _agree_random_triple(number):
    """Triple ``number`` (counted from 0) of the agree_random corpus, seed 2,
    with its constants not renamed, as text."""
    m, s, q = next(itertools.islice(random_triples(random.Random(2), max_atoms=5), number, None))
    return serialize_mapping(m), serialize_instance(s), serialize_query(q)


def _frozen_triple_answers(map_text, src_text, q_text, number):
    assert _agree_random_triple(number) == (map_text, src_text, q_text)
    m = mapping(map_text)
    result = three_way(m, instance(src_text, m.source), query(q_text, m.target), Budget(2, 8, 2))
    assert result.skipped is None
    return result.fast, result.general, result.oracle


def test_agree_random_triple_13_agrees():
    assert _frozen_triple_answers(AGREE13_MAP, AGREE13_SRC, AGREE13_QUERY, 13) == ({()},) * 3


def test_agree_random_triple_14_agrees():
    assert _frozen_triple_answers(AGREE14_MAP, AGREE14_SRC, AGREE14_QUERY, 14) == ({()},) * 3


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
