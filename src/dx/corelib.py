"""Atom-block decomposition, packedness, and core computation.

The core algorithm repeatedly shrinks the instance by a non-injective
endomorphism that only moves the nulls of a single atom block.  Whenever a
shrinking endomorphism exists at all, a block-local one exists too (an atom
lost from the image lies in some block, and restricting the endomorphism to
that block's nulls still loses it), so the fixpoint is a genuine core.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import PreconditionViolated
from .model import (
    Atom,
    Instance,
    Null,
    SchemaMapping,
    Value,
    apply_map,
    atom_key,
    require_ground,
    value_key,
)
from . import chase


@dataclass(frozen=True)
class BlockPartition:
    """Atom blocks of an instance: connected components of the Gaifman graph
    of its atoms (atoms adjacent when they share a null)."""

    blocks: Tuple[Instance, ...]
    atom_block: Tuple[Tuple[Atom, int], ...]


def atom_blocks(instance: Instance) -> BlockPartition:
    """Union-find over atoms joined by shared nulls; ground atoms are
    singleton blocks.  Blocks come out in canonical order."""
    atoms = instance.sorted_atoms()
    parent = list(range(len(atoms)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    by_null: Dict[Null, int] = {}
    for i, a in enumerate(atoms):
        for v in a.args:
            if isinstance(v, Null):
                if v in by_null:
                    union(by_null[v], i)
                else:
                    by_null[v] = i
    groups: Dict[int, List[Atom]] = {}
    for i, a in enumerate(atoms):
        groups.setdefault(find(i), []).append(a)
    ordered_roots = sorted(groups, key=lambda r: atom_key(groups[r][0]))
    blocks = tuple(Instance(groups[r]) for r in ordered_roots)
    atom_block = tuple(
        (a, idx) for idx, r in enumerate(ordered_roots) for a in groups[r]
    )
    return BlockPartition(blocks, atom_block)


def blocks_packed(instance: Instance) -> bool:
    """True iff within every block, every two distinct atoms share a null."""
    for block in atom_blocks(instance).blocks:
        atoms = block.sorted_atoms()
        for a1, a2 in itertools.combinations(atoms, 2):
            if not (a1.nulls() & a2.nulls()):
                return False
    return True


def _find_shrinking_endo(
    current: Instance,
    movable: Tuple[Null, ...],
    fixed: FrozenSet[Value],
) -> Optional[Dict[Value, Value]]:
    """First endomorphism of ``current`` that fixes everything except the
    ``movable`` nulls (minus ``fixed``) and has a strictly smaller image.

    Nulls are tried in descending occurrence order, images in canonical
    order; the first strictly shrinking assignment wins, which keeps the
    core computation deterministic.
    """
    free = [n for n in movable if n in current.dom() and n not in fixed]
    if not free:
        return None
    occurrences: Dict[Null, int] = {n: 0 for n in free}
    affected: List[Atom] = []
    atoms_by_null: Dict[Null, List[Atom]] = {n: [] for n in free}
    free_set = set(free)
    for a in current.atoms:
        touched = [v for v in a.args if v in free_set]
        if touched:
            affected.append(a)
            for v in set(touched):
                occurrences[v] += 1
                atoms_by_null[v].append(a)
    free.sort(key=lambda n: (-occurrences[n], value_key(n)))
    candidates = sorted(current.dom(), key=value_key)
    untouched = frozenset(current.atoms) - frozenset(affected)
    assignment: Dict[Value, Value] = {}

    def atom_image(atom: Atom) -> Optional[Atom]:
        args = []
        for v in atom.args:
            if v in free_set:
                w = assignment.get(v)
                if w is None:
                    return None
                args.append(w)
            else:
                args.append(v)
        return Atom(atom.rel, tuple(args))

    def rec(i: int) -> Optional[Dict[Value, Value]]:
        if i == len(free):
            if all(assignment[n] == n for n in free):
                return None
            images = {atom_image(a) for a in affected}
            if len(images | untouched) < len(current):
                full = {v: v for v in current.dom()}
                full.update(assignment)
                return full
            return None
        null = free[i]
        for cand in candidates:
            assignment[null] = cand
            ok = True
            for a in atoms_by_null[null]:
                img = atom_image(a)
                if img is not None and img not in current:
                    ok = False
                    break
            if ok:
                found = rec(i + 1)
                if found is not None:
                    return found
            del assignment[null]
        return None

    return rec(0)


def block_null_tuples(partition: BlockPartition) -> List[Tuple[Null, ...]]:
    """The nulls of every block, each block's in canonical order."""
    return [tuple(sorted(b.nulls(), key=value_key)) for b in partition.blocks]


def _core_of(
    instance: Instance,
    fixed: FrozenSet[Value],
    block_nulls: Optional[Sequence[Tuple[Null, ...]]] = None,
) -> Instance:
    if block_nulls is None:
        block_nulls = block_null_tuples(atom_blocks(instance))
    current = instance
    changed = True
    while changed:
        changed = False
        for nulls in block_nulls:
            endo = _find_shrinking_endo(current, nulls, fixed)
            if endo is not None:
                current = apply_map(endo, current)
                changed = True
    return current


def core_of(instance: Instance) -> Instance:
    """A core of the instance, reached by block-local retractions; works on
    arbitrary instances, not only chase results.  The result is marked as a
    core, which ``is_core`` reads instead of searching again."""
    core = _core_of(instance, frozenset())
    object.__setattr__(core, "_core", True)
    return core


def core_retract_fixing(
    instance: Instance,
    fixed: Iterable[Value],
    blocks: Optional[Sequence[Tuple[Null, ...]]] = None,
) -> Instance:
    """Core extraction whose retractions additionally fix the given values.

    Used for the per-block minimal representatives, where the freshly mapped
    block atoms must survive into the core.  ``blocks`` lists the null tuples
    of the only blocks tried, in the order they are tried (by default every
    block, in canonical order); leaving out blocks that can never shrink the
    instance returns the same instance.
    """
    return _core_of(instance, frozenset(fixed), blocks)


def is_core(instance: Instance) -> bool:
    return instance._core or len(core_of(instance)) == len(instance)


def core_solution(mapping: SchemaMapping, source: Instance) -> Instance:
    """Core of the canonical universal solution (st-tgd mappings only)."""
    if not mapping.is_st_only():
        raise PreconditionViolated(
            "TargetConstraints",
            "the core solution is only defined for mappings without egds or "
            "general constraints",
        )
    require_ground(source, "source instance")
    return core_of(chase.canonical_solution(mapping, source))


def mapping_block_bound(mapping: SchemaMapping) -> int:
    """Upper bound on nulls per atom block of any core solution: the widest
    existential tuple of the mapping's st-tgds."""
    return mapping.max_exists_width()
