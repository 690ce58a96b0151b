import itertools
import random

import pytest

import dx.corelib
from dx import (
    Atom,
    Const,
    canonical_solution,
    core_of,
    core_solution,
    find_homomorphism,
    instances_isomorphic,
    is_core,
    Instance,
    Null,
    atom_blocks,
    blocks_packed,
)
from dx.errors import PreconditionViolated
from dx.gcwa import CoreEvaluator
from dx.minrep import BlockReps, atom_in_some_minimal
from dx.randgen import gen_packed_mapping, gen_source
from dx.model import homomorphically_equivalent, value_key
from dx.textio import SourceText, parse_instance, parse_mapping, serialize_instance

from families import EF_MAP
from fixtures import (
    BLK_INSTANCE,
    COPY_MAP,
    COPY_SRC,
    EF_SRC,
    LEQ2_MAP,
    LEQ_SRC,
    NAF_INSTANCE,
    E_SCHEMA,
    instance,
    mapping,
)

a, b, c = Const("a"), Const("b"), Const("c")


def test_blocks_of_chained_nulls():
    naf = instance(NAF_INSTANCE, E_SCHEMA)
    partition = atom_blocks(naf)
    assert len(partition.blocks) == 3
    sizes = sorted(len(blk) for blk in partition.blocks)
    assert sizes == [1, 2, 3]
    three = [blk for blk in partition.blocks if len(blk) == 3][0]
    assert len(three.nulls()) == 2  # E(b,y), E(b,z), E(y,z)


def test_ground_atoms_are_singleton_blocks():
    inst = Instance([Atom("R", (a, b)), Atom("R", (b, c))])
    assert len(atom_blocks(inst).blocks) == 2


def test_blk_instance_has_two_null_blocks():
    blk = instance(BLK_INSTANCE, E_SCHEMA)
    partition = atom_blocks(blk)
    assert len(partition.blocks) == 2
    assert all(len(b.nulls()) == 2 for b in partition.blocks)


def test_packedness():
    ef_core = core_solution(mapping(EF_MAP), instance(EF_SRC, mapping(EF_MAP).source))
    assert blocks_packed(ef_core)
    assert not blocks_packed(instance(BLK_INSTANCE, E_SCHEMA))
    assert not blocks_packed(instance(NAF_INSTANCE, E_SCHEMA))


def test_core_of_collapses_dominated_null():
    m = mapping(LEQ2_MAP)
    sol = canonical_solution(m, instance(LEQ_SRC, m.source))
    core = core_of(sol)
    assert core == Instance([Atom("E", (a, a))])
    assert is_core(core)


def test_core_of_fixes_ground_instances():
    inst = Instance([Atom("Rp", (a, b))])
    assert core_of(inst) == inst


def test_core_of_keeps_rigid_instance():
    naf = instance(NAF_INSTANCE, E_SCHEMA)
    assert core_of(naf) == naf
    assert is_core(naf)


def test_is_core_counterexamples():
    n1, n2 = Null("t", 1), Null("t", 2)
    assert not is_core(Instance([Atom("E", (a, n1)), Atom("E", (a, n2))]))
    assert is_core(Instance([]))


def test_a_non_core_is_searched_once(monkeypatch):
    # work without a clock: core_of remembers the core on the instance, so
    # a BlockReps build, a refused CoreEvaluator and a refused membership
    # probe on one five-block non-core share one core search
    searches, retract = [], dx.corelib.core_retract_fixing

    def counting(instance, fixed, blocks=None):
        searches.append(instance)
        return retract(instance, fixed, blocks)

    monkeypatch.setattr(dx.corelib, "core_retract_fixing", counting)
    inst = instance("E(a,_x). E(a,_y). E(b,_u). E(b,_v). E(c,_w).", E_SCHEMA)
    BlockReps(inst, ())
    with pytest.raises(PreconditionViolated, match="not a core"):
        CoreEvaluator(inst, ())
    with pytest.raises(PreconditionViolated, match="not a core"):
        atom_in_some_minimal(inst, Atom("E", (a, b)))
    assert searches == [inst]
    core = core_of(inst)
    assert len(searches) == 1 and len(core) == 3 and is_core(core) and not is_core(inst)


def test_core_solution_examples():
    m = mapping(COPY_MAP)
    assert core_solution(m, instance(COPY_SRC, m.source)) == Instance(
        [Atom("Rp", (a, b))]
    )
    m = mapping(LEQ2_MAP)
    assert core_solution(m, instance(LEQ_SRC, m.source)) == Instance(
        [Atom("E", (a, a))]
    )
    m = mapping(EF_MAP)
    ef_core = core_solution(m, instance(EF_SRC, m.source))
    assert len(ef_core) == 2 and len(ef_core.nulls()) == 1


def test_core_of_is_idempotent_and_equivalent():
    rng = random.Random(41)
    for _ in range(30):
        m = gen_packed_mapping(rng)
        s = gen_source(rng)
        sol = canonical_solution(m, s)
        core = core_of(sol)
        assert core_of(core) == core
        assert is_core(core)
        assert find_homomorphism(sol, core) is not None
        assert find_homomorphism(core, sol) is not None


def test_packed_mapping_cores_have_packed_small_blocks():
    rng = random.Random(43)
    for _ in range(100):
        m = gen_packed_mapping(rng)
        s = gen_source(rng)
        core = core_solution(m, s)
        assert blocks_packed(core)
        bound = m.max_exists_width()
        assert all(len(b.nulls()) <= bound for b in atom_blocks(core).blocks)


def test_cores_of_equivalent_instances_are_isomorphic():
    rng = random.Random(47)
    checked = 0
    while checked < 20:
        m = gen_packed_mapping(rng)
        s = gen_source(rng)
        sol = canonical_solution(m, s)
        # an inflated homomorphic variant: the chase run twice
        doubled = canonical_solution(m, s)
        renamed = {}
        for n in doubled.nulls():
            renamed[n] = Null("w", n.nid)
        for cst in doubled.consts():
            renamed[cst] = cst
        inflated = Instance(
            list(sol.atoms)
            + [Atom(x.rel, tuple(renamed[v] for v in x.args)) for x in doubled.atoms]
        )
        assert homomorphically_equivalent(sol, inflated)
        assert instances_isomorphic(core_of(sol), core_of(inflated))
        checked += 1


# ------------------------------------------------------------- the full scan


def _reference_shrink(current, atoms):
    """The atoms lost by the first shrinking retraction moving only the nulls
    of ``atoms``: nulls in descending occurrence order, each trying every
    value of ``current`` in canonical order, the first lossy leaf winning."""
    nulls = sorted({v for a in atoms for v in a.args if isinstance(v, Null)},
                   key=lambda n: (-sum(n in a.args for a in atoms), value_key(n)))
    for values in itertools.product(sorted(current.dom(), key=value_key), repeat=len(nulls)):
        h = dict(zip(nulls, values))
        images = {Atom(a.rel, tuple(h.get(v, v) for v in a.args)) for a in atoms}
        if images <= current.atoms and set(atoms) - images:
            return set(atoms) - images
    return None


def _reference_core_of(instance):
    """core_of as a full-domain scan that retries every block each round."""
    blocks = atom_blocks(instance).blocks
    changed = True
    while changed:
        changed = False
        for block in blocks:
            lost = _reference_shrink(instance, list(block.atoms & instance.atoms))
            if lost:
                instance, changed = instance.minus(lost), True
    return instance


MAT_MAP = """source P/1, R/2, Q/2. target E/2, F/2.
tgd P(x) -> E(x,x). tgd P(x) -> exists z: E(x,z).
tgd R(x,y) -> exists z: E(x,z), F(z,y). tgd Q(x,y) -> F(x,y)."""


def _materialize_source(rng, n):
    """n source atoms over n/3 constants plus b: a fifth P, half R, the rest
    Q, a third of those copying an R edge out of a P constant, which makes
    that edge's block redundant in the core."""
    consts = [f"c{i}" for i in range(max(4, n // 3))]
    P = rng.sample(consts, n // 5)
    R = set()
    while len(R) < n // 2:
        R.add((rng.choice(consts), rng.choice(consts + ["b"] * 3)))
    n_q = n - len(P) - len(R)
    redundant = sorted(e for e in R if e[0] in P)
    Q = set(rng.sample(redundant, min(len(redundant), n_q // 3)))
    while len(Q) < n_q:
        Q.add((rng.choice(consts), rng.choice(consts + ["b"])))
    return " ".join([f"P({x})." for x in P] + [f"R({x},{y})." for x, y in sorted(R)]
                    + [f"Q({x},{y})." for x, y in sorted(Q)])


def test_core_of_matches_the_full_scan():
    rng = random.Random(53)
    for _ in range(300):
        sol = canonical_solution(gen_packed_mapping(rng), gen_source(rng, max_atoms=8))
        core, reference = core_of(sol), _reference_core_of(sol)
        assert core == reference
        assert serialize_instance(core) == serialize_instance(reference)
    m = parse_mapping(SourceText(MAT_MAP))
    for n in (50, 100, 200, 400):
        src = parse_instance(SourceText(_materialize_source(rng, n)), m.source)
        sol = canonical_solution(m, src)
        core = core_of(sol)
        reference = _reference_core_of(sol)
        assert len(core) < len(sol) and core == reference
        assert serialize_instance(core) == serialize_instance(reference)


def test_core_rounds_retry_only_shrunk_blocks(monkeypatch):
    # the F-block loses F(_t2,_t0) in the first round and F(_t3,_t2) in the
    # second: one try per block, then two more of the F-block alone
    t0, t2, t3, t9 = (Null("t", i) for i in (0, 2, 3, 9))
    inst = Instance([
        Atom("F", (t2, t0)), Atom("F", (t3, t2)), Atom("F", (t3, t3)),
        Atom("E", (a, b)), Atom("E", (a, t9)), Atom("F", (t9, c)),
    ])
    tried = []
    shrink = dx.corelib._shrink

    def counting(image, atoms, fixed):
        lost = shrink(image, atoms, fixed)
        tried.append(bool(lost))
        return lost

    monkeypatch.setattr(dx.corelib, "_shrink", counting)
    core = core_of(inst)
    assert len(atom_blocks(inst).blocks) == 3
    assert tried == [False, False, True, True, False]
    assert core == Instance([Atom("E", (a, b)), Atom("E", (a, t9)), Atom("F", (t9, c)),
                             Atom("F", (t3, t3))])
