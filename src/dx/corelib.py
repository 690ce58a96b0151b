"""Atom-block decomposition, packedness, and core computation.

The core algorithm repeatedly shrinks the instance by a non-injective
endomorphism that only moves the nulls of a single atom block.  Whenever a
shrinking endomorphism exists at all, a block-local one exists too (an atom
lost from the image lies in some block, and restricting the endomorphism to
that block's nulls still loses it), so the fixpoint is a genuine core.
A null's candidate values are probed from the instance's position index,
and each round after the first retries only the blocks that shrank.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .errors import PreconditionViolated
from .model import (
    Atom,
    Instance,
    Null,
    SchemaMapping,
    Value,
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
    """The instance's atom blocks, computed once per instance."""
    if instance._blocks is None:
        object.__setattr__(instance, "_blocks", _partition(instance))
    return instance._blocks


def _partition(instance: Instance) -> BlockPartition:
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


@dataclass(frozen=True)
class Image:
    """The instance ``base - gone | extra``, kept as its difference to
    ``base``: ``gone`` lies within ``base`` and misses ``extra``."""

    base: Instance
    extra: FrozenSet[Atom]
    gone: FrozenSet[Atom] = frozenset()

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.extra or (atom in self.base.atoms and atom not in self.gone)

    def __iter__(self) -> Iterator[Atom]:
        """Its atoms, unordered; an atom both kept and in ``extra`` twice."""
        return itertools.chain((a for a in self.base.atoms if a not in self.gone), self.extra)

    def whole(self) -> Instance:
        return Instance((self.base.atoms - self.gone) | self.extra)

    def atoms_matching(self, rel: str, arity: int, at, values) -> Iterator[Atom]:
        """Its atoms of ``rel`` and ``arity`` with ``values`` at positions ``at``."""
        for a in itertools.chain(self.base.atoms_matching(rel, arity, at, values), self.extra):
            if a in self and a.rel == rel and len(a.args) == arity and all(
                a.args[i] == v for i, v in zip(at, values)
            ):
                yield a


def _shrink(image: Image, atoms: Sequence[Atom], fixed: FrozenSet[Value]) -> Optional[Set[Atom]]:
    """The atoms lost by the first shrinking retraction of the image that moves
    only the nulls of ``atoms`` (every atom holding them) outside ``fixed``, or
    None.  Nulls go in descending occurrence order, values in canonical order;
    the first assignment that moves a null, keeps every atom in the image and
    loses one wins.  A null takes only the values held in its place by the
    image's atoms matching its atom with the most positions bound: that cuts
    only branches without a shrinking leaf, so the winner is the one a scan of
    every value of the image would find."""
    holders: Dict[Null, List[Atom]] = {}
    for a in atoms:
        for v in set(a.args):
            if isinstance(v, Null) and v not in fixed:
                holders.setdefault(v, []).append(a)
    free = sorted(holders, key=lambda n: (-len(holders[n]), value_key(n)))
    affected = [a for a in atoms if any(v in holders for v in a.args)]
    assignment: Dict[Value, Value] = {}

    def image_of(atom: Atom) -> Optional[Atom]:
        args = []
        for v in atom.args:
            if v in holders:
                v = assignment.get(v)
                if v is None:
                    return None
            args.append(v)
        return Atom(atom.rel, tuple(args))

    def bound(atom: Atom, null: Null) -> List[int]:
        return [i for i, v in enumerate(atom.args)
                if v != null and (v not in holders or v in assignment)]

    def values_for(null: Null) -> Sequence[Value]:
        atom = max(holders[null], key=lambda a: len(bound(a, null)))
        at = tuple(bound(atom, null))
        first, *others = [i for i, v in enumerate(atom.args) if v == null]
        found = image.atoms_matching(atom.rel, len(atom.args), at,
                                     tuple(assignment.get(atom.args[i], atom.args[i]) for i in at))
        return sorted({b.args[first] for b in found
                       if all(b.args[i] == b.args[first] for i in others)}, key=value_key)

    def rec(i: int) -> Optional[Set[Atom]]:
        if i == len(free):
            if all(assignment[n] == n for n in free):
                return None
            return set(affected) - {image_of(a) for a in affected} or None
        null = free[i]
        for cand in values_for(null):
            assignment[null] = cand
            if all(img is None or img in image for img in map(image_of, holders[null])):
                lost = rec(i + 1)
                if lost:
                    return lost
            del assignment[null]
        return None

    return rec(0)


def core_of(instance: Instance) -> Instance:
    """A core of the instance, reached by block-local retractions; works on
    arbitrary instances, not only chase results.  The core is remembered on
    the instance and on itself, so no instance is searched twice and
    ``is_core`` reads the memo instead of searching."""
    if instance._core is None:
        core = core_retract_fixing(instance, ())
        object.__setattr__(core, "_core", core)
        object.__setattr__(instance, "_core", core)
    return instance._core


def core_retract_fixing(
    instance: Union[Instance, Image],
    fixed: Iterable[Value],
    blocks: Optional[Sequence[Instance]] = None,
) -> Union[Instance, Image]:
    """Core extraction whose retractions additionally fix the given values.

    Used for the per-block minimal representatives, where the freshly mapped
    block atoms must survive into the core.  ``blocks`` lists the only blocks
    tried, in the order they are tried (by default every block, in canonical
    order); leaving out blocks that can never shrink the instance returns the
    same instance.  Retraction only removes atoms, so a block is searched over
    its atoms still in the image, its values probed from the base's position
    index.  A retraction moving one block's nulls removes only that block's
    atoms, so a block without a shrinking retraction never gains one: each
    round after the first retries only the blocks that shrank in the last.
    An ``Image`` (blocks of its base) comes back retracted, a plain instance
    as an instance."""
    image = instance if isinstance(instance, Image) else Image(instance, frozenset())
    fixed = frozenset(fixed)
    todo = atom_blocks(image.base).blocks if blocks is None else blocks
    while todo:
        shrunk = []
        for block in todo:
            lost = _shrink(image, [a for a in block.atoms if a not in image.gone], fixed)
            if lost:
                image = dataclasses.replace(image, gone=image.gone | lost)
                shrunk.append(block)
        todo = shrunk
    if isinstance(instance, Image):
        return image
    return image.whole() if image.gone else instance


def is_core(instance: Instance) -> bool:
    return (instance._core or core_of(instance)) is instance


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

