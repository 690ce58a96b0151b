"""Acceptance suite: one test per shipped claim, each printing a pass line
with its elapsed time and checked against its stated time budget."""

import collections
import random
import re
import time

import pytest

from dx import (
    Atom,
    Const,
    Instance,
    answers_gcwa_star_universal,
    answers_gcwa_star_universal_general,
    answers_owa_homclosed,
    answers_semantics,
    apply_map,
    atom_blocks,
    atom_in_some_minimal,
    atoms_isomorphic,
    blocks_packed,
    canonical_solution,
    core_of,
    core_solution,
    enum_min_c,
    find_homomorphism,
    is_core,
    is_solution,
    tstar_fixpoint,
)
from dx.errors import BudgetExceeded, PreconditionViolated
from dx.minrep import BlockReps, all_block_reps
from dx.model import value_key
from dx.oracle import Budget, gcwa_star_solutions
from dx.randgen import gen_packed_mapping, gen_source, gen_ucq, random_triples, three_way

from families import EF_MAP
from fixtures import (
    BLK_INSTANCE,
    C23_MAP,
    C23_QUERY,
    CLQ_MAP,
    CLQ_QUERY,
    COPY_MAP,
    COPY_QUERY,
    COPY_SRC,
    EF_SRC,
    EFF_MAP,
    EFF_QUERY,
    LEQ1_MAP,
    LEQ2_MAP,
    LEQ_QUERY,
    LEQ_SRC,
    MOT_MAP,
    NAF_INSTANCE,
    PE_MAP,
    PE_QUERY,
    PE_SRC,
    E_SCHEMA,
    clique_source,
    instance,
    mapping,
    query,
)

a, b, c = Const("a"), Const("b"), Const("c")


class timed:
    def __init__(self, label, budget_seconds):
        self.label = label
        self.budget = budget_seconds
        self.note = ""

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.label}: {elapsed:.2f}s (budget {self.budget}s){self.note}")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.label} exceeded {self.budget}s"
        return False


def test_criterion_01_copy_example():
    with timed("1 copy-mapping reproduction", 1.0):
        m = mapping(COPY_MAP)
        s = instance(COPY_SRC, m.source)
        q = query(COPY_QUERY, m.target)
        core = core_solution(m, s)
        assert answers_gcwa_star_universal(core, q) == {(a, b)}
        owa = answers_semantics(m, s, q, "owa", Budget(3, 8, 2))
        assert set(owa.answers) == set()


def test_criterion_02_syntax_sensitivity():
    budget = Budget(3, 8, 2)
    m1, m2 = mapping(LEQ1_MAP), mapping(LEQ2_MAP)
    s = instance(LEQ_SRC, m1.source)
    q = query(LEQ_QUERY, m1.target)
    with timed("2a closed-world answers on the two equivalent mappings", 1.0):
        assert set(answers_semantics(m1, s, q, "cwa", budget).answers) == {(a,)}
        assert set(answers_semantics(m2, s, q, "cwa", budget).answers) == set()
    with timed("2b closed-world answer on the lone-existential mapping", 1.0):
        mlcf = mapping(PE_MAP)
        assert set(answers_semantics(mlcf, s, q, "cwa", budget).answers) == {(a,)}
    with timed("2c union-of-minimal answers invariant across the pair", 1.0):
        g1 = set(answers_semantics(m1, s, q, "gcwa-star", budget).answers)
        g2 = set(answers_semantics(m2, s, q, "gcwa-star", budget).answers)
        assert g1 == g2 == {(a,)}
    with timed("2d possible-worlds answers differ across the pair", 1.0):
        p1 = set(answers_semantics(m1, s, q, "pws", budget).answers)
        p2 = set(answers_semantics(m2, s, q, "pws", budget).answers)
        assert p1 == {(a,)} and p2 == set()


def test_criterion_03_deductive_semantics_examples():
    budget = Budget(3, 8, 2)
    s = instance(PE_SRC, mapping(PE_MAP).source)
    with timed("3a no-unique-minimal: reiter empty with diagnostic", 5.0):
        m = mapping(PE_MAP)
        q = query(PE_QUERY, m.target)
        res = answers_semantics(m, s, q, "rcwa", budget)
        assert set(res.answers) == set()
        assert res.meta["diagnostic"] == "no RCWA-solution"
    with timed("3b generalized closed world keeps the guaranteed edge", 5.0):
        assert set(answers_semantics(m, s, q, "gcwa", budget).answers) == {(a,)}
    with timed("3c two-step mapping: gcwa empty but gcwa-star true", 5.0):
        meff = mapping(EFF_MAP)
        qeff = query(EFF_QUERY, meff.target)
        assert set(answers_semantics(meff, s, qeff, "gcwa", budget).answers) == set()
        assert set(answers_semantics(meff, s, qeff, "gcwa-star", budget).answers) == {()}
    with timed("3d counting mapping: egcwa keeps, gcwa-star drops", 5.0):
        m23 = mapping(C23_MAP)
        q23 = query(C23_QUERY, m23.target)
        assert set(answers_semantics(m23, s, q23, "egcwa", budget).answers) == {(a,)}
        assert set(answers_semantics(m23, s, q23, "gcwa-star", budget).answers) == set()


def test_criterion_04_fixpoint_example():
    with timed("4 fixpoint adds the six-atom closure instances", 10.0):
        m = mapping(MOT_MAP)
        s = instance(PE_SRC, m.source)
        budget = Budget(2, 8, 2)
        fix = tstar_fixpoint(m, s, budget)
        assert fix.converged
        level0, level1 = fix.levels
        assert all(len(inst) == 2 for inst in level0)
        six = [inst for inst in level1 if len(inst) == 6]
        assert six, "no six-atom member at level 1"
        family = gcwa_star_solutions(m, s, budget)
        checked = 0
        for sol in family:
            pairs = [(at.args[0], at.args[1]) for at in sol.atoms if at.rel == "E"]
            if len(pairs) > 3:
                continue
            expected_f = {
                Atom("F", (d1, d2))
                for d1, e1 in pairs
                for d2, e2 in pairs
                if e1 == e2
            }
            assert {at for at in sol.atoms if at.rel == "F"} == expected_f
            checked += 1
        assert checked >= len([s_ for s_ in family]) // 2  # most members are small


def test_criterion_05_packedness_necessity():
    with timed("5 unpacked block: block-local answer is unsound", 2.0):
        naf = instance(NAF_INSTANCE, E_SCHEMA)
        probe = Atom("E", (c, a))
        # exact whole-instance enumeration: the atom is in no minimal world
        whole = enum_min_c(naf, {c, a})
        assert not any(probe in rep for rep in whole)
        # but the three-atom block alone does produce it
        block = [blk for blk in atom_blocks(naf).blocks if len(blk) == 3][0]
        assert any(probe in rep for rep in enum_min_c(block, {c, a}))
        # and the fast-path membership operation refuses the instance
        with pytest.raises(PreconditionViolated) as err:
            atom_in_some_minimal(naf, probe)
        assert err.value.reason == "NotPacked"


def test_criterion_06_min_rep_facts():
    with timed("6 cross-block images are minimal representatives", 2.0):
        blk = instance(BLK_INSTANCE, E_SCHEMA)
        n1, m1, n2, m2 = sorted(blk.nulls(), key=value_key)
        g1 = {v: v for v in blk.dom()}
        g1.update({n1: n2, m1: b})
        g2 = {v: v for v in blk.dom()}
        g2.update({n2: n1, m2: b})
        images = {apply_map(g1, blk), apply_map(g2, blk)}
        reps = set(enum_min_c(blk, set()))
        assert images <= reps
        bad = {Atom("E", (a, a)), Atom("E", (a, b))}
        for image in images:
            assert not (bad & image.atoms)
        for nx, mx in ((n1, m1), (n2, m2)):
            f = {v: v for v in blk.dom()}
            f.update({nx: a, mx: b})
            block = [
                blkk for blkk in atom_blocks(blk).blocks if nx in blkk.nulls()
            ][0]
            assert bad <= apply_map(f, block).atoms


def _property_fixtures():
    ef_core = core_solution(mapping(EF_MAP), instance(EF_SRC, mapping(EF_MAP).source))
    from dx.model import Null

    n1, n2 = Null("t", 1), Null("t", 2)
    return [
        ef_core,
        instance(NAF_INSTANCE, E_SCHEMA),
        instance(BLK_INSTANCE, E_SCHEMA),
        Instance([Atom("E", (a, n1)), Atom("E", (n1, n2))]),
        Instance([Atom("E", (a, n1)), Atom("E", (b, n1)), Atom("E", (b, b))]),
        Instance([Atom("E", (a, b))]),
    ]


def test_criterion_07_representative_properties():
    with timed("7 minimal-representative property suite", 30.0):
        for inst in _property_fixtures():
            assert len(inst.nulls()) <= 6
            constants = {a}
            reps = enum_min_c(inst, constants)
            for rep in reps:
                assert is_core(rep)
            if is_core(inst):
                assert inst in set(reps)
            whole = set(reps)
            blocks = BlockReps(inst, constants)
            for idx in range(len(blocks.partition.blocks)):
                for rep in blocks.instances(idx):
                    assert rep in whole
            if is_core(inst) and blocks_packed(inst):
                block_reps = all_block_reps(inst, constants)
                for world in whole:
                    for atom in world.atoms:
                        assert any(
                            any(atoms_isomorphic(cand, atom) for cand in rep.whole().atoms)
                            for rep in block_reps
                        ), (world, atom)


def test_criterion_08_randomized_three_way_agreement():
    with timed("8 randomized agreement fast = general = oracle (200 triples)", 60.0) as clock:
        triples = random_triples(random.Random(20260808), max_atoms=5)
        budget = Budget(2, 8, 2)
        agreed = 0
        skipped = collections.Counter()
        stages = collections.Counter()
        while agreed < 200:
            result = three_way(*next(triples), budget)
            if result.skipped:
                evaluator, error = result.skipped
                skipped[evaluator] += 1
                # the stage and limit each error names, its counts blanked
                stages[f"{evaluator}: {re.sub(r'[0-9]+', 'N', str(error))}"] += 1
                assert sum(skipped.values()) < 200, "too many over-budget trials"
                continue
            assert result.agree, result
            agreed += 1
        census = ", ".join(f"{name} {n}" for name, n in skipped.most_common())
        reasons = "; ".join(f"{n} × {reason}" for reason, n in stages.most_common())
        clock.note = f"; skipped {sum(skipped.values())}: {census} ({reasons})"


def test_criterion_09_chase_core_properties():
    with timed("9 chase/core properties on 100 random sources", 60.0):
        rng = random.Random(90909)
        budget = Budget(2, 8, 2)
        checked = skipped = 0
        while checked < 100:
            m = gen_packed_mapping(rng)
            s = gen_source(rng)
            cansol = canonical_solution(m, s)
            assert is_solution(m, s, cansol)
            core = core_of(cansol)
            assert is_core(core)
            assert blocks_packed(core)
            bound = m.max_exists_width()
            assert all(len(blk.nulls()) <= bound for blk in atom_blocks(core).blocks)
            try:
                from dx.oracle import minimal_ground_solutions

                family = minimal_ground_solutions(m, s, budget)
            except BudgetExceeded:
                skipped += 1
                assert skipped < 100
                continue
            for sol in list(family)[:12]:
                assert find_homomorphism(core, sol) is not None
            checked += 1


def test_criterion_10_monotone_coincidence():
    with timed("10 monotone queries coincide with the oracle (50 queries)", 30.0):
        rng = random.Random(1010)
        budget = Budget(2, 8, 2)
        agreed = skipped = 0
        while agreed < 50:
            m = gen_packed_mapping(rng)
            s = gen_source(rng, max_atoms=5)
            q = gen_ucq(rng, free_count=rng.randint(0, 2))
            try:
                core = core_solution(m, s)
                fast = answers_owa_homclosed(core, q)
                oracle = set(answers_semantics(m, s, q, "gcwa-star", budget).answers)
            except BudgetExceeded:
                skipped += 1
                assert skipped < 100
                continue
            assert fast == oracle
            agreed += 1


def test_criterion_11_clique_mapping_sanity():
    with timed("11 clique-reduction mapping: both paths agree", 5.0):
        m = mapping(CLQ_MAP)
        q = query(CLQ_QUERY, m.target)
        for edges in ([(1, 2), (1, 3), (2, 3)], [(1, 2), (2, 3)]):
            s = instance(clique_source(edges, k=3), m.source)
            core = core_solution(m, s)
            fast = answers_gcwa_star_universal(core, q)
            general = answers_gcwa_star_universal_general(m, s, q)
            assert fast == general
