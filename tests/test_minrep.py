import itertools
import random

import pytest

import dx.minrep
from dx import (
    Atom,
    Const,
    Instance,
    Null,
    apply_map,
    atom_blocks,
    atom_in_some_minimal,
    atoms_isomorphic,
    canonical_solution,
    core_solution,
    enum_min_c,
    find_homomorphism,
    is_core,
    blocks_packed,
)
from dx.corelib import core_retract_fixing
from dx.errors import BudgetExceeded, PreconditionViolated
from dx.logic import fresh_constants
from dx.minrep import BlockRep, BlockReps, Replay, _minimal_images, all_block_reps
from dx.model import AtomMasks, instance_key, mask_key, value_key
from dx.randgen import gen_packed_mapping, gen_source

from families import EF_MAP, FAMILIES
from fixtures import (
    BLK_INSTANCE,
    EF_SRC,
    NAF_INSTANCE,
    E_SCHEMA,
    instance,
    mapping,
)

a, b, c = Const("a"), Const("b"), Const("c")


def _ef_core():
    m = mapping(EF_MAP)
    return core_solution(m, instance(EF_SRC, m.source))


# ------------------------------------------------------------- enum_min_c


def test_enum_min_c_single_null():
    n = Null("t", 0)
    inst = Instance([Atom("E", (a, n))])
    assert set(enum_min_c(inst, set())) == {
        Instance([Atom("E", (a, n))]),
        Instance([Atom("E", (a, a))]),
    }


def test_enum_min_c_ground_instance():
    inst = Instance([Atom("E", (a, b))])
    assert set(enum_min_c(inst, {c})) == {inst}


def test_enum_min_c_blk_contains_cross_block_images():
    blk = instance(BLK_INSTANCE, E_SCHEMA)
    n1, m1, n2, m2 = sorted(blk.nulls(), key=value_key)
    g1 = {v: v for v in blk.dom()}
    g1.update({n1: n2, m1: b})
    g2 = {v: v for v in blk.dom()}
    g2.update({n2: n1, m2: b})
    reps = set(enum_min_c(blk, set()))
    assert apply_map(g1, blk) in reps
    assert apply_map(g2, blk) in reps


def test_enum_min_c_null_cap():
    atoms = [Atom("E", (a, Null("t", i))) for i in range(9)]
    with pytest.raises(BudgetExceeded):
        enum_min_c(Instance(atoms), set())


# ------------------------------------------------------------- per-block


def test_block_reps_of_ef_core():
    core = _ef_core()
    null = next(iter(core.nulls()))
    expected = {
        core,
        Instance([Atom("E", (a, a)), Atom("F", (a, b))]),
        Instance([Atom("E", (a, b)), Atom("F", (b, b))]),
    }
    assert set(BlockReps(core, set()).instances(0)) == expected


def test_block_reps_ground_block():
    inst = Instance([Atom("E", (a, b))])
    assert BlockReps(inst, set()).instances(0) == (inst,)


def test_block_reps_blk_fixture_contains_g1_image():
    blk = instance(BLK_INSTANCE, E_SCHEMA)
    n1, m1, n2, m2 = sorted(blk.nulls(), key=value_key)
    g1 = {v: v for v in blk.dom()}
    g1.update({n1: n2, m1: b})
    g1_image = apply_map(g1, blk)
    block_index = next(
        i for i, blkk in enumerate(atom_blocks(blk).blocks) if n1 in blkk.nulls()
    )
    assert g1_image in BlockReps(blk, set()).instances(block_index)


# ------------------------------------------------------------- membership


def test_atom_membership_ef():
    core = _ef_core()
    assert atom_in_some_minimal(core, Atom("E", (a, c)))
    assert not atom_in_some_minimal(core, Atom("E", (b, c)))


def test_atom_membership_matches_whole_instance_oracle():
    core = _ef_core()
    for atom in [
        Atom("E", (a, c)),
        Atom("E", (b, c)),
        Atom("E", (a, a)),
        Atom("F", (c, b)),
        Atom("F", (b, a)),
    ]:
        consts = [v for v in atom.args]
        oracle = any(atom in rep for rep in enum_min_c(core, consts))
        assert atom_in_some_minimal(core, atom) == oracle


def test_atom_membership_rejects_unpacked_instance():
    naf = instance(NAF_INSTANCE, E_SCHEMA)
    probe = Atom("E", (c, a))
    with pytest.raises(PreconditionViolated) as err:
        atom_in_some_minimal(naf, probe)
    assert err.value.reason == "NotPacked"
    # the whole-instance oracle says no, while the block-local answer on the
    # three-atom block alone would say yes
    assert not any(probe in rep for rep in enum_min_c(naf, {c, a}))
    block = [blk for blk in atom_blocks(naf).blocks if len(blk) == 3][0]
    assert any(probe in rep for rep in enum_min_c(block, {c, a}))


# ------------------------------------------------------------- properties

SMALL_FIXTURES = []


def _small_fixtures():
    if SMALL_FIXTURES:
        return SMALL_FIXTURES
    n1, n2 = Null("t", 1), Null("t", 2)
    SMALL_FIXTURES.extend(
        [
            _ef_core(),
            instance(NAF_INSTANCE, E_SCHEMA),
            instance(BLK_INSTANCE, E_SCHEMA),
            Instance([Atom("E", (a, n1)), Atom("E", (n1, n2))]),
            Instance([Atom("E", (a, n1)), Atom("F", (n1, b)), Atom("E", (b, b))]),
        ]
    )
    return SMALL_FIXTURES


def test_min_c_members_are_cores():
    for inst in _small_fixtures():
        for rep in enum_min_c(inst, {a}):
            assert is_core(rep)


def test_core_is_its_own_representative():
    for inst in _small_fixtures():
        if is_core(inst):
            assert inst in enum_min_c(inst, {a})


def test_block_reps_are_whole_instance_representatives():
    for inst in _small_fixtures():
        whole = set(enum_min_c(inst, {a}))
        blocks = BlockReps(inst, {a})
        for idx in range(len(blocks.partition.blocks)):
            for rep in blocks.instances(idx):
                assert rep in whole


def test_capture_of_minimal_possible_worlds():
    # bounded check: minimal valuation images over const+fresh pools are,
    # up to null identity, injective instantiations of the representatives
    for inst in _small_fixtures():
        nulls = sorted(inst.nulls(), key=value_key)
        pool = sorted(inst.consts(), key=value_key) + list(
            fresh_constants(len(nulls))
        )
        images = set()
        for choice in itertools.product(pool, repeat=len(nulls)):
            v = {cst: cst for cst in inst.consts()}
            v.update(zip(nulls, choice))
            images.add(apply_map(v, inst))
        minimal = [
            img
            for img in images
            if not any(other != img and other.subset_of(img) for other in images)
        ]
        reps = enum_min_c(inst, inst.consts())
        for world in minimal:
            assert any(
                _injectively_instantiates(rep, world, inst.consts())
                for rep in reps
            ), world


def _injectively_instantiates(rep, world, constants):
    if len(rep) != len(world):
        return False
    h = find_homomorphism(rep, world, require_injective=True)
    if h is None or apply_map(h, rep) != world:
        return False
    return all(h[n] not in constants for n in rep.nulls())


def test_atom_provenance_on_packed_cores():
    # every atom of every whole-instance representative appears, up to
    # isomorphism, in a per-block representative, with an onto homomorphism
    # mapping the witness atom to the original one
    for inst in _small_fixtures():
        if not (is_core(inst) and blocks_packed(inst)):
            continue
        constants = {a}
        whole = enum_min_c(inst, constants)
        reps = all_block_reps(inst, constants)
        for world in whole:
            for atom in world.atoms:
                witnesses = []
                for rep in reps:
                    for cand in rep.whole().atoms:
                        if not atoms_isomorphic(cand, atom):
                            continue
                        h = find_homomorphism(rep.whole(), world)
                        if h is None:
                            continue
                        if apply_map(h, rep.whole()) != world:
                            continue
                        if Atom(cand.rel, tuple(h[v] for v in cand.args)) == atom:
                            witnesses.append((rep, cand))
                assert witnesses, (world, atom)


# ------------------------------------------------------------- block_reps reference


def _reference_block_reps(inst, block_index, constants):
    """Per-block representatives by their definition: subset-minimal whole
    images mapped_block | rest, each cored over all of its blocks with the
    fresh atoms' nulls fixed, in enumeration order."""
    block = atom_blocks(inst).blocks[block_index]
    rest = inst.minus(block.atoms)
    block_nulls = sorted(block.nulls(), key=value_key)
    pool = sorted(set(inst.dom()) | set(constants), key=value_key)
    candidates = []
    for choice in itertools.product(pool, repeat=len(block_nulls)):
        f = {v: v for v in inst.dom()}
        f.update(zip(block_nulls, choice))
        mapped = apply_map(f, block)
        fresh = mapped.atoms - rest.atoms
        if any(n not in block_nulls for atom in fresh for n in atom.nulls()):
            continue
        candidates.append((Instance(mapped.atoms | rest.atoms), fresh))
    images = {img for img, _ in candidates}
    minimal = {img for img in images if not any(o.proper_subset_of(img) for o in images)}
    reps = []
    for image, fresh in candidates:
        if image not in minimal:
            continue
        anchor_nulls = {n for atom in fresh for n in atom.nulls()}
        rep = BlockRep(core_retract_fixing(image, anchor_nulls), fresh)
        if rep not in reps:
            reps.append(rep)
    return tuple(reps)


def _random_packed_cores(count, seed=20261018):
    rng = random.Random(seed)
    cores = []
    while len(cores) < count:
        m = gen_packed_mapping(rng)
        core = core_solution(m, gen_source(rng, max_atoms=8))
        if core.nulls():
            cores.append(core)
    return cores


def _chain_cores():
    # the arc-consistency pass prunes most rest blocks of these
    return [FAMILIES["ef-chain"].build(6)[2], FAMILIES["two-null"].build(5)[2]]


def test_block_reps_match_reference():
    n1, n2, n3 = Null("t", 1), Null("t", 2), Null("t", 3)
    non_cores = [
        Instance([Atom("E", (a, n1)), Atom("E", (a, n2))]),
        Instance([Atom("E", (a, n1)), Atom("E", (n1, n2)), Atom("E", (a, n3))]),
    ]
    assert not any(is_core(inst) for inst in non_cores)
    for inst in _small_fixtures() + non_cores + _chain_cores() + _random_packed_cores(30):
        for constants in (set(), {a}, {c, Const("zz")}):
            expected_all, blocks = [], BlockReps(inst, constants)
            for idx in range(len(blocks.partition.blocks)):
                expected = _reference_block_reps(inst, idx, constants)
                assert _whole(blocks.reps(idx)) == _whole(expected), (inst, idx)
                expected_all += [r for r in expected if r not in expected_all]
            assert _whole(all_block_reps(inst, constants)) == _whole(expected_all), inst


def _whole(reps):
    return [(rep.whole(), rep.anchors) for rep in reps]


def _rejected_fresh_sets(monkeypatch):
    """Counts the fresh sets that ``BlockReps``' minimality test rejects:
    each rejected set has exactly one homomorphism test that finds a map."""
    rejected, homomorphism = [0], dx.minrep.find_homomorphism

    def counting(block, image):
        found = homomorphism(block, image)
        rejected[0] += found is not None
        return found

    monkeypatch.setattr(dx.minrep, "find_homomorphism", counting)
    return rejected


def test_minimality_test_rejects_fresh_sets_on_the_reference_corpus(monkeypatch):
    # the rejecting branch is covered: over test_block_reps_match_reference's
    # corpus, more than 100 fresh sets have a smaller valid one
    n1, n2, n3 = Null("t", 1), Null("t", 2), Null("t", 3)
    non_cores = [
        Instance([Atom("E", (a, n1)), Atom("E", (a, n2))]),
        Instance([Atom("E", (a, n1)), Atom("E", (n1, n2)), Atom("E", (a, n3))]),
    ]
    rejected = _rejected_fresh_sets(monkeypatch)
    for inst in _small_fixtures() + non_cores + _chain_cores() + _random_packed_cores(30):
        for constants in (set(), {a}, {c, Const("zz")}):
            list(BlockReps(inst, constants))
    assert rejected[0] > 100


def test_block_reps_match_reference_on_fresh_sets_of_sizes_zero_to_two(monkeypatch):
    # the block E(a,n1), E(n1,n2) maps onto the rest (fresh set {}), onto
    # one new atom (E(b,a)) or onto two (E(a,c), E(c,a)): only {} is
    # minimal; the fresh sets of E(b,n3) are single atoms, all minimal, in
    # map order
    n1, n2, n3 = Null("t", 1), Null("t", 2), Null("t", 3)
    inst = Instance([Atom("E", (a, b)), Atom("E", (a, n1)), Atom("E", (n1, n2)), Atom("E", (b, n3))])
    assert not is_core(inst)
    partition = atom_blocks(inst)
    rejected = _rejected_fresh_sets(monkeypatch)
    sizes, anchors = set(), []
    none_extra, with_c = BlockReps(inst, set()), BlockReps(inst, {c})
    for idx, block in enumerate(partition.blocks):
        rest = inst.atoms - block.atoms
        for image in dx.minrep._block_images(block, sorted(inst.dom() | {c}, key=value_key)):
            sizes.add(len(set(image) - rest))
        expected = _reference_block_reps(inst, idx, {c})
        assert _whole(none_extra.reps(idx)) == _whole(_reference_block_reps(inst, idx, set()))
        assert _whole(with_c.reps(idx)) == _whole(expected), idx
        anchors.append([sorted(map(repr, rep.anchors)) for rep in expected])
    assert sizes == {0, 1, 2}
    assert rejected[0] > 0
    assert anchors == [[["E(a,b)"]], [[]], [["E(b,a)"], ["E(b,b)"], ["E(b,c)"], ["E(b,_t3)"]]]


def test_local_retraction_matches_whole_instance_retraction():
    # each representative is retracted locally, over the blocks its fresh
    # atoms can receive; rebuilt whole, it must be what retracting the whole
    # image over all of its blocks gives
    n1, n2, n3 = Null("t", 1), Null("t", 2), Null("t", 3)
    non_cores = [
        Instance([Atom("E", (a, n1)), Atom("E", (a, n2))]),
        Instance([Atom("E", (a, n1)), Atom("E", (n1, n2)), Atom("E", (a, n3))]),
    ]
    retracted = 0
    for inst in _small_fixtures() + non_cores + _chain_cores() + _random_packed_cores(30):
        partition = atom_blocks(inst)
        for constants in (set(), {a}, {c, Const("zz")}):
            blocks = BlockReps(inst, constants)
            for idx, block in enumerate(partition.blocks):
                rest = inst.atoms - block.atoms
                for rep in blocks.reps(idx):
                    assert rep.base is inst
                    anchor_nulls = {v for atom in rep.anchors for v in atom.nulls()}
                    image = Instance(rep.anchors | rest)
                    expected = core_retract_fixing(image, anchor_nulls)
                    assert rep.whole() == expected, (inst, idx, rep.anchors)
                    retracted += len(expected) < len(image)
    assert retracted > 100


# ------------------------------------------------------------- enum_min_c reference


def _reference_min_c(inst, constants):
    """Subset-minimal images over the maps of all nulls at once, in
    instance_key order."""
    nulls = sorted(inst.nulls(), key=value_key)
    pool = sorted(set(inst.dom()) | set(constants), key=value_key)
    images = set()
    for choice in itertools.product(pool, repeat=len(nulls)):
        f = {v: v for v in inst.consts()}
        f.update(zip(nulls, choice))
        images.add(apply_map(f, inst))
    minimal = [img for img in images if not any(o.proper_subset_of(img) for o in images)]
    return tuple(sorted(minimal, key=instance_key))


def test_enum_min_c_matches_reference():
    # enum_min_c works block by block; its output must still be the minimal
    # whole images, in order, and its cap must still count all nulls
    n1, n2, n3 = Null("t", 1), Null("t", 2), Null("t", 3)
    insts = _small_fixtures() + [
        Instance([Atom("E", (a, n1)), Atom("E", (a, n2))]),
        Instance([Atom("E", (a, n1)), Atom("E", (n1, n2)), Atom("E", (a, n3))]),
        Instance([Atom("E", (n1, n2)), Atom("E", (n2, n1)), Atom("E", (n3, n3))]),
        Instance(),
    ]
    rng = random.Random(20261019)
    while len(insts) < 40:
        m = gen_packed_mapping(rng)
        s = gen_source(rng, max_atoms=3)
        for inst in (canonical_solution(m, s), core_solution(m, s)):
            if len(inst.nulls()) <= 4:
                insts.append(inst)
    compared = 0
    for inst in insts:
        for constants in (set(), {a}, {c, Const("zz")}):
            maps = (len(set(inst.dom()) | constants)) ** len(inst.nulls())
            if maps > 3000:
                with pytest.raises(BudgetExceeded):
                    enum_min_c(inst, constants, product_cap=3000)
                continue
            expected = _reference_min_c(inst, constants)
            assert enum_min_c(inst, constants) == expected, inst
            compared += 1
            if maps > 1:
                with pytest.raises(BudgetExceeded):
                    enum_min_c(inst, constants, product_cap=maps - 1)
    assert compared >= 60


# ------------------------------------------------------------- mask filter reference


def _random_atoms(rng, count):
    values = [a, b, c] + [Null("m", i) for i in range(4)]
    atoms = set()
    while len(atoms) < count:
        rel = rng.choice("EFU")
        arity = 1 if rel == "U" else 2
        atoms.add(Atom(rel, tuple(rng.choice(values) for _ in range(arity))))
    return AtomMasks(atoms)


def test_minimal_images_matches_pairwise_reference():
    # families over 0 to 40 atoms (up to ten hex-digit tables), with duplicates
    # and the empty mask: the kept masks are the pairwise-minimal ones, in
    # instance_key order
    rng = random.Random(20261019)
    assert _minimal_images([]) == []
    assert _minimal_images([0, 0]) == [0]
    for trial in range(400):
        codec = _random_atoms(rng, rng.randint(0, 40))
        n = len(codec.atoms)
        family = [
            codec.encode(rng.sample(codec.atoms, rng.randint(1 if n else 0, min(n, 7))))
            for _ in range(rng.randint(0, 60))
        ]
        family += rng.sample(family, len(family) // 3)  # duplicates
        if trial % 5 == 0:
            family.append(0)
        rng.shuffle(family)
        distinct = set(family)
        minimal = {w for w in distinct if not any(m != w and m | w == w for m in distinct)}
        got = _minimal_images(iter(family))
        assert set(got) == minimal and len(got) == len(minimal)
        assert got == sorted(minimal, key=mask_key)
        instances = [codec.decode(w) for w in got]
        assert instances == sorted(instances, key=instance_key)
        assert all(codec.encode(inst.atoms) == w for inst, w in zip(instances, got))


def test_atom_masks_holders():
    codec = AtomMasks([Atom("E", (b, a)), Atom("E", (a, a)), Atom("F", (a, b))])
    assert codec.atoms == (Atom("E", (a, a)), Atom("E", (b, a)), Atom("F", (a, b)))
    masks = [0b110, 0b011, 0b100]
    # bit len(masks)-1-j stands for masks[j]
    assert codec.holders(masks) == {
        Atom("E", (a, a)): 0b101, Atom("E", (b, a)): 0b110, Atom("F", (a, b)): 0b010
    }
    empty = AtomMasks([])
    assert empty.decode(0) == Instance()
    assert empty.holders([0, 0]) == {}
    assert _minimal_images([empty.encode([])]) == [0]


def test_replay_raises_the_streams_error_to_every_reader():
    # the error is not the end of the stream: a reader that gets past the
    # two items raises it too, also one started after the first raised
    def items():
        yield 1
        yield 2
        raise BudgetExceeded("stream cap")

    def read(reader):
        assert [next(reader), next(reader)] == [1, 2]
        with pytest.raises(BudgetExceeded, match="stream cap"):
            next(reader)

    replay = Replay(items())
    first, second = iter(replay), iter(replay)
    read(first)
    read(second)
    read(iter(replay))
    assert list(Replay(iter([1, 2]))) == [1, 2]
