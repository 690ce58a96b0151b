import dataclasses
import itertools
import random

import pytest

from dx import (
    Atom,
    Const,
    Instance,
    Null,
    Var,
    apply_map,
    atoms_isomorphic,
    find_homomorphism,
    instances_isomorphic,
)
from dx.errors import DxError, UndefinedValue
from dx.model import match_conjunction, value_key

from fixtures import BLK_INSTANCE, E_SCHEMA, NAF_INSTANCE, instance

a, b, c = Const("a"), Const("b"), Const("c")
n1, n2, n3 = Null("t", 1), Null("t", 2), Null("t", 3)


def test_values_and_atoms_hash_as_their_fields_do():
    # the stored hash is the frozen dataclass's, so set order is unchanged
    atom = Atom("E", (a, n1))
    assert hash(a) == hash(("a",))
    assert hash(n1) == hash(("t", 1))
    assert hash(atom) == hash(("E", (a, n1)))
    assert a == Const("a") != b and n1 == Null("t", 1) != Null("s", 1)
    assert atom == Atom("E", (a, n1)) != Atom("E", (n1, a))
    moved = dataclasses.replace(atom, args=(b, n2))
    assert moved == Atom("E", (b, n2)) and hash(moved) == hash(("E", (b, n2)))
    renamed = dataclasses.replace(n1, nid=2)
    assert renamed == n2 and hash(renamed) == hash(("t", 2))
    assert dataclasses.replace(a, name="b") == b and hash(dataclasses.replace(a, name="b")) == hash(b)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.name = "c"


def test_apply_map_identity():
    inst = Instance([Atom("E", (a, n1))])
    ident = {v: v for v in inst.dom()}
    assert apply_map(ident, inst) == inst


def test_apply_map_merges_atoms():
    inst = Instance([Atom("E", (a, n1)), Atom("E", (b, n1))])
    f = {a: a, b: b, n1: a}
    assert apply_map(f, inst) == Instance([Atom("E", (a, a)), Atom("E", (b, a))])


def test_apply_map_undefined_value():
    inst = Instance([Atom("E", (a, n1))])
    with pytest.raises(UndefinedValue):
        apply_map({a: a}, inst)


def test_apply_map_block_remap_example():
    # remapping one block's nulls into the other block reproduces the
    # expected five-atom image
    blk = instance(BLK_INSTANCE, E_SCHEMA)
    nulls = sorted(blk.nulls(), key=value_key)
    _n1, _m1, _n2, _m2 = nulls
    g1 = {v: v for v in blk.dom()}
    g1[_n1] = _n2
    g1[_m1] = b
    image = apply_map(g1, blk)
    assert len(image) == 5
    assert Atom("E", (b, c)) in image
    assert Atom("E", (_n2, a)) in image and Atom("E", (_n2, b)) in image


def test_find_homomorphism_unique_candidate():
    src = Instance([Atom("E", (n1, a))])
    dst = Instance([Atom("E", (b, a))])
    h = find_homomorphism(src, dst)
    assert h is not None and h[n1] == b


def test_find_homomorphism_respects_frozen():
    src = Instance([Atom("E", (n1, a))])
    dst = Instance([Atom("E", (b, a)), Atom("E", (c, a))])
    h = find_homomorphism(src, dst, frozen={n1: c})
    assert h is not None and h[n1] == c


def test_identity_homomorphism_always_found():
    inst = instance(NAF_INSTANCE, E_SCHEMA)
    frozen = {v: v for v in inst.dom()}
    assert find_homomorphism(inst, inst, frozen=frozen) is not None


def test_core_instance_has_no_hom_into_proper_subinstance():
    inst = instance(NAF_INSTANCE, E_SCHEMA)
    for atom in inst.atoms:
        assert find_homomorphism(inst, inst.minus([atom])) is None


def test_atoms_isomorphic_null_renaming():
    assert atoms_isomorphic(Atom("E", (a, n1)), Atom("E", (a, Null("t", 7))))


def test_atoms_isomorphic_constant_mismatch():
    assert not atoms_isomorphic(Atom("E", (a, n1)), Atom("E", (b, n1)))


def test_atoms_isomorphic_equality_pattern():
    assert not atoms_isomorphic(Atom("E", (n1, n1)), Atom("E", (n2, n3)))


def test_atoms_isomorphic_is_equivalence():
    atoms = [
        Atom("E", (a, n1)),
        Atom("E", (a, n2)),
        Atom("E", (n1, n1)),
        Atom("E", (n2, n2)),
        Atom("E", (a, b)),
        Atom("F", (a, n1)),
    ]
    for x in atoms:
        assert atoms_isomorphic(x, x)
    for x, y in itertools.product(atoms, repeat=2):
        assert atoms_isomorphic(x, y) == atoms_isomorphic(y, x)
    for x, y, z in itertools.product(atoms, repeat=3):
        if atoms_isomorphic(x, y) and atoms_isomorphic(y, z):
            assert atoms_isomorphic(x, z)


def _random_instance(rng, consts, nulls, n_atoms):
    pool = consts + nulls
    return Instance(
        Atom(rng.choice(["E", "F"]), (rng.choice(pool), rng.choice(pool)))
        for _ in range(n_atoms)
    )


def test_homomorphism_composition_property():
    rng = random.Random(5)
    consts = [a, b]
    for _ in range(40):
        i1 = _random_instance(rng, consts, [n1, n2], rng.randint(1, 4))
        i2 = _random_instance(rng, consts, [Null("u", 1), Null("u", 2)], rng.randint(2, 5))
        i3 = _random_instance(rng, consts, [Null("v", 1)], rng.randint(2, 5))
        h = find_homomorphism(i1, i2)
        g = find_homomorphism(i2, i3)
        if h is None or g is None:
            continue
        composed = {v: g[h[v]] for v in i1.dom()}
        assert apply_map(composed, i1).subset_of(i3)


def test_apply_map_composes():
    inst = Instance([Atom("E", (a, n1)), Atom("F", (n1, n2))])
    g = {a: a, n1: n2, n2: n2}
    f = {a: a, n2: b}
    composed = {v: f[g[v]] for v in inst.dom()}
    assert apply_map(f, apply_map(g, inst)) == apply_map(composed, inst)


def test_instances_isomorphic_modulo_null_names():
    left = Instance([Atom("E", (a, n1)), Atom("E", (n1, n2))])
    right = Instance([Atom("E", (a, Null("z", 9))), Atom("E", (Null("z", 9), Null("z", 4)))])
    assert instances_isomorphic(left, right)
    assert not instances_isomorphic(left, Instance([Atom("E", (a, n1)), Atom("E", (n2, n1))]))


# ---------------------------------------------------------------- the matcher against references


def _reference_match_conjunction(patterns, instance, binding=None):
    """The scanning matcher: every atom of the pattern's relation, in
    canonical order, for each pattern atom in turn."""
    binding = dict(binding or {})

    def rec(i, bnd):
        if i == len(patterns):
            yield dict(bnd)
            return
        rel, terms = patterns[i]
        for atom in instance.sorted_atoms():
            if atom.rel != rel or len(atom.args) != len(terms):
                continue
            local = {}
            ok = True
            for t, v in zip(terms, atom.args):
                if isinstance(t, Const):
                    ok = t == v
                else:
                    bound = bnd.get(t, local.get(t))
                    if bound is None:
                        local[t] = v
                    else:
                        ok = bound == v
                if not ok:
                    break
            if not ok:
                continue
            bnd.update(local)
            yield from rec(i + 1, bnd)
            for t in local:
                del bnd[t]

    return rec(0, binding)


_CONSTS = [a, b, c]
_NULLS = [n1, n2, n3]
_VARS = [Var("x"), Var("y"), Var("z")]
_RELS = [("E", 2), ("F", 2), ("G", 1), ("E", 3)]


def _random_atoms(rng, n, pool):
    out = []
    for _ in range(n):
        rel, arity = rng.choice(_RELS)
        out.append(Atom(rel, tuple(rng.choice(pool) for _ in range(arity))))
    return out


def _random_patterns(rng):
    terms = _VARS * 2 + _CONSTS + _NULLS[:2]
    patterns = []
    for _ in range(rng.randint(0, 3)):
        rel, arity = rng.choice(_RELS)
        if rng.random() < 0.1:  # an arity no atom of rel has
            arity = 4
        patterns.append((rel, tuple(rng.choice(terms) for _ in range(arity))))
    return patterns


def test_match_conjunction_matches_the_scan():
    rng = random.Random(20261019)
    checked = nonempty = 0
    for _ in range(1500):
        inst = Instance(_random_atoms(rng, rng.randint(0, 20), _CONSTS + _NULLS))
        patterns = _random_patterns(rng)
        binding = None
        if rng.random() < 0.4:
            keys = rng.sample(_VARS + _NULLS[:2], rng.randint(1, 2))
            binding = {k: rng.choice(_CONSTS + _NULLS + [Const("d")]) for k in keys}
        got = list(match_conjunction(patterns, inst, binding))
        assert got == list(_reference_match_conjunction(patterns, inst, binding)), (patterns, inst, binding)
        checked += 1
        nonempty += bool(got) and bool(patterns)
    assert checked == 1500 and nonempty > 200


def test_match_conjunction_edge_cases():
    inst = Instance([Atom("E", (a, n1)), Atom("E", (n1, n1)), Atom("E", (a, b, c))])
    x, y = Var("x"), Var("y")
    assert list(match_conjunction([], inst)) == [{}]
    assert list(match_conjunction([], inst, {x: a})) == [{x: a}]
    assert list(match_conjunction([], Instance([]))) == [{}]
    assert list(match_conjunction([("E", (x, y))], Instance([]))) == []
    assert list(match_conjunction([("E", (x, x))], inst)) == [{x: n1}]
    assert list(match_conjunction([("E", (a, x, y))], inst)) == [{x: b, y: c}]
    assert list(match_conjunction([("E", (x,))], inst)) == []
    # a null in a pattern is a variable, not the null itself
    assert list(match_conjunction([("E", (n2, n1))], inst)) == [{n2: a, n1: n1}, {n2: n1, n1: n1}]
    assert list(match_conjunction([("E", (x, y))], inst, {y: b})) == []


def test_atoms_matching_buckets_are_slices_of_the_canonical_order():
    rng = random.Random(77)
    for trial in range(200):
        inst = Instance(_random_atoms(rng, rng.randint(0, 15), _CONSTS + _NULLS))
        probes = [(rel, arity, at) for rel, arity in _RELS + [("H", 2)]
                  for k in range(arity + 1) for at in itertools.combinations(range(arity), k)]
        rng.shuffle(probes)  # the tables must not depend on which is built first
        for rel, arity, at in probes:
            keys = {tuple(v for v in vals) for vals in itertools.product(_CONSTS + _NULLS, repeat=len(at))}
            for key in sorted(keys, key=lambda t: [value_key(v) for v in t]):
                expected = [x for x in inst.sorted_atoms() if x.rel == rel and len(x.args) == arity
                            and all(x.args[i] == v for i, v in zip(at, key))]
                assert list(inst.atoms_matching(rel, arity, at, key)) == expected, (trial, rel, at, key)


def _brute_force_homomorphism(source, target, frozen, injective):
    """Whether a map extending ``frozen`` and fixing the constants takes
    ``source`` into ``target``, by trying every image in dom(target)."""
    fixed = {v: v for v in source.consts()}
    fixed.update(frozen or {})
    free = sorted(source.nulls() - set(fixed), key=value_key)
    for images in itertools.product(sorted(target.dom(), key=value_key), repeat=len(free)):
        h = {**fixed, **dict(zip(free, images))}
        if injective and len(set(h.values())) < len(h):
            continue
        if apply_map(h, source).subset_of(target):
            return True
    return False


def _check_homomorphism(source, target, frozen, injective):
    h = find_homomorphism(source, target, frozen=frozen, require_injective=injective)
    assert (h is not None) == _brute_force_homomorphism(source, target, frozen, injective), (
        source, target, frozen, injective)
    if h is not None:
        assert all(h[k] == v for k, v in (frozen or {}).items())
        assert all(h[k] == k for k in source.consts())
        assert apply_map(h, source).subset_of(target)
        if injective:
            assert len(set(h.values())) == len(h)
    return h is not None


def test_find_homomorphism_matches_brute_force():
    rng = random.Random(4321)
    target_nulls = [Null("u", i) for i in range(3)]
    found = {False: 0, True: 0}
    for _ in range(400):
        source = Instance(_random_atoms(rng, rng.randint(0, 4), _CONSTS[:2] + _NULLS))
        target = Instance(_random_atoms(rng, rng.randint(0, 10), _CONSTS + target_nulls))
        frozens = [None]
        nulls = sorted(source.nulls(), key=value_key)
        if nulls:
            pool = sorted(target.dom() | {Const("d")}, key=value_key)
            # a random one, often conflicting, and one that extends a found map
            frozens.append({nl: rng.choice(pool) for nl in rng.sample(nulls, rng.randint(1, len(nulls)))})
            h = find_homomorphism(source, target)
            if h is not None:
                frozens.append({nulls[0]: h[nulls[0]], Null("w", 9): a})
        for frozen in frozens:
            for injective in (False, True):
                found[_check_homomorphism(source, target, frozen, injective)] += 1
    assert found[True] > 200 and found[False] > 600
    with pytest.raises(DxError):
        find_homomorphism(Instance([Atom("E", (a, n1))]), Instance([Atom("E", (b, b))]), frozen={a: b})


def test_instances_isomorphic_on_renamings_and_changes():
    rng = random.Random(99)
    changed_apart = 0
    for _ in range(150):
        left = Instance(_random_atoms(rng, rng.randint(1, 6), _CONSTS[:2] + _NULLS))
        fresh = [Null("r", i) for i in range(len(_NULLS))]
        rng.shuffle(fresh)
        renaming = {**{v: v for v in left.consts()}, **dict(zip(_NULLS, fresh))}
        renamed = Instance(Atom(x.rel, tuple(renaming.get(v, v) for v in x.args)) for x in left.atoms)
        assert instances_isomorphic(left, renamed)
        assert instances_isomorphic(renamed, left)
        victim = rng.choice(left.sorted_atoms())
        pool = sorted(left.dom() | {c}, key=value_key)
        i = rng.randrange(len(victim.args))
        args = list(victim.args)
        args[i] = rng.choice([v for v in pool if v != args[i]])
        changed = renamed.minus([Atom(victim.rel, tuple(renaming[v] for v in victim.args))]).union(
            Instance([Atom(victim.rel, tuple(renaming.get(v, v) for v in args))]))
        iso = len(changed) == len(left) and any(
            apply_map({**renaming, **dict(zip(_NULLS, perm))}, left) == changed
            for perm in itertools.permutations(fresh))
        assert instances_isomorphic(left, changed) == iso
        changed_apart += not iso
    assert changed_apart > 100
