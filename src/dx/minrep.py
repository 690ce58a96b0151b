"""Representatives of the minimal possible worlds of an instance.

``legal_images`` enumerates the images of the legal self-maps into dom(T)
plus a constant pool one atom block at a time, as int masks over one
``AtomMasks`` numbering of the block images' atoms, and joins the minimal
block images by OR.  ``_minimal_images`` is the one subset-minimality filter,
on masks; ``enum_min_c`` decodes its output for the oracle, and the general
evaluator reads the masks directly.  The enumeration is exponential in the
number of nulls of a block and is gated by a product cap on the number of
maps of all nulls.  The per-block variant only remaps the nulls of one atom
block and is polynomial for a fixed per-block null bound; it feeds the fast
path, each representative a delta on the instance, and ``BlockReps``
computes it only as far as a reader reads, testing each block image for
minimality as it comes by homomorphisms of the block (Chandra and Merlin).
Its one pattern table answers which blocks can map onto an atom, for the
fast path's literal places, for ``atom_in_some_minimal`` and for the
retraction: on a core a block image is retracted only over the rest blocks
that reach its fresh atoms and pass one arc-consistency check towards them.
``_block_images`` maps a block's nulls for both enumerations.
"""

from __future__ import annotations

import copy
import functools
import itertools
import operator
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple, Union

from .errors import BudgetExceeded, PreconditionViolated
from .corelib import (
    Image,
    atom_blocks,
    blocks_packed,
    core_retract_fixing,
    is_core,
)
from .model import (
    Atom,
    AtomMasks,
    Const,
    Instance,
    Null,
    Value,
    Var,
    find_homomorphism,
    instance_key,
    mask_key,
    match_args,
    value_key,
)

ENUM_PRODUCT_CAP = 400_000


def _minimal_images(masks: Iterable[int]) -> List[int]:
    """The subset-minimal masks, each once, smallest first (in ``mask_key``,
    that is ``instance_key``, order).

    A mask is minimal iff every smaller kept mask has a bit outside it.
    ``holders[i]`` is the set of kept masks with bit i, as an int with one
    bit per kept mask.  Each size class reads the kept masks of the smaller
    ones through one table per hex digit of bit positions, which maps a
    digit of a mask's complement to the kept masks with a bit there.
    """
    ordered = sorted(set(masks), key=mask_key)
    width = -(-max(ordered, default=0).bit_length() // 4) * 4  # whole hex digits
    binary, hexes, full = f"0{width}b", f"0{width // 4}x", (1 << width) - 1
    holders = [0] * width
    kept: List[int] = []
    for _, same_size in itertools.groupby(ordered, key=int.bit_count):
        new = list(same_size)
        if kept:
            every = (1 << len(kept)) - 1
            tables = [_digit_table(holders[i - 4 : i]) for i in range(width, 0, -4)]
            new = [
                w for w in new
                if functools.reduce(operator.or_, map(
                    operator.getitem, tables, format(full ^ w, hexes)
                ), 0) == every
            ]
        # digit k of a mask is bit width-1-k; the new masks take the low bits
        for i, column in zip(range(width - 1, -1, -1), zip(*[format(w, binary) for w in new])):
            holders[i] = holders[i] << len(new) | int("".join(column), 2)
        kept += new
    return kept


def _digit_table(holders: Sequence[int]) -> Dict[str, int]:
    """The union of ``holders[k]`` over the bits k of each hex digit."""
    table = [0] * 16
    for v in range(1, 16):
        low = v & -v
        table[v] = table[v ^ low] | holders[low.bit_length() - 1]
    return dict(zip("0123456789abcdef", table))


def legal_images(
    instance: Instance,
    constants: Iterable[Const],
    product_cap: int = ENUM_PRODUCT_CAP,
) -> Tuple[AtomMasks, Set[int]]:
    """The images f(T), over the legal maps f that send each null of T into
    dom(T) + constants and fix its constants, that can be subset-minimal, as
    masks over the atoms of the block images.

    Atom blocks share no nulls, so f(T) is the union of one image per block,
    and it contains the union of minimal block images below those.  Hence
    every subset-minimal image of T is such a union, and the minimal members
    of the returned set are exactly the minimal images of T.  The cap still
    counts the maps of all nulls together.
    """
    nulls = sorted(instance.nulls(), key=value_key)
    pool = _pool(instance, constants)
    if len(pool) ** len(nulls) > product_cap:
        raise BudgetExceeded(
            f"legal-map enumeration exceeded its cap of {product_cap} maps"
            f" ({len(pool)}^{len(nulls)} needed)"
        )
    per_block = [set(map(frozenset, _block_images(block, pool))) for block in atom_blocks(instance).blocks]
    codec = AtomMasks(a for images in per_block for img in images for a in img)
    unions = {0}
    for images in per_block:
        minimal = _minimal_images(map(codec.encode, images))
        unions = {u | m for u in unions for m in minimal}
    return codec, unions


def enum_min_c(
    instance: Instance,
    constants: Iterable[Const],
    product_cap: int = ENUM_PRODUCT_CAP,
) -> Tuple[Instance, ...]:
    """All subset-minimal images f(T) over legal maps f: dom(T) -> dom(T)+C,
    in ``instance_key`` order."""
    codec, images = legal_images(instance, constants, product_cap)
    return tuple(map(codec.decode, _minimal_images(images)))


class BlockRep(Image):
    """One per-block representative: the core of a minimal block image, and
    its anchors, the freshly mapped block atoms guaranteed to survive in it.
    An ``Image`` on the instance: the anchors are ``extra``, the block's
    other atoms and the rest atoms its retraction removed are ``gone``;
    ``whole()`` builds it."""

    @property
    def anchors(self) -> FrozenSet[Atom]:
        return self.extra


def _pool(instance: Instance, constants: Iterable[Const]) -> List[Value]:
    return sorted(set(instance.dom()) | set(constants), key=value_key)


def _block_images(block: Instance, pool: Sequence[Value]) -> Iterator[List[Atom]]:
    """The atoms of a block (or of any instance) under each map of its nulls
    into the pool that fixes its constants, in ``itertools.product`` order
    over its nulls in canonical order."""
    nulls = sorted(block.nulls(), key=value_key)
    f: Dict[Value, Value] = {c: c for c in block.consts()}
    for choice in itertools.product(pool, repeat=len(nulls)):
        f.update(zip(nulls, choice))
        yield [Atom(a.rel, tuple([f[v] for v in a.args])) for a in block.atoms]


class Replay:
    """The items of an iterator, each computed once, when a reader first
    reaches it, and replayed to every later reader: each ``iter`` starts a
    new reader at the first item (a ``tee`` that is never read keeps all).
    An error the iterator raises is raised to every reader that reaches it."""

    def __init__(self, items: Iterable) -> None:
        source, end, error = iter(items), object(), []

        def step():  # tee calls it again after an error, where a finished generator just stops
            if not error:
                try:
                    return next(source, end)
                except Exception as e:
                    error.append(e)
            raise error[0]

        self._items = itertools.tee(iter(step, end), 1)[0]

    def __iter__(self) -> Iterator:
        return copy.copy(self._items)


class BlockReps:
    """The per-block representatives of an instance over one pool, computed
    on demand.  ``reps(i)`` replays block i's stream, which builds the next
    map of the block's nulls only when a reader first asks for the next
    representative."""

    def __init__(self, instance: Instance, constants: Iterable[Const]):
        self.instance, self.partition = instance, atom_blocks(instance)
        self.pool = _pool(instance, constants)
        self._streams: Dict[int, Replay] = {}
        self._block_of = dict(self.partition.atom_block)
        self._patterns: Dict[Tuple[str, int], Set[Tuple[int, ...]]] = {}
        for b in instance.atoms:
            self._patterns.setdefault((b.rel, len(b.args)), set()).add(
                tuple(i for i, v in enumerate(b.args) if isinstance(v, Const)))
        self._is_core = is_core(instance)

    def __iter__(self) -> Iterator[BlockRep]:
        """Every block's representatives, block by block."""
        return itertools.chain.from_iterable(map(self.reps, range(len(self.partition.blocks))))

    def reps(self, block_index: int) -> Replay:
        if block_index not in self._streams:
            self._streams[block_index] = Replay(self._block_reps(block_index))
        return self._streams[block_index]

    def instances(self, block_index: int) -> Tuple[Instance, ...]:
        """Block i's distinct representatives as whole instances, in
        ``instance_key`` order."""
        return tuple(sorted({r.whole() for r in self.reps(block_index)}, key=instance_key))

    def reaching_atoms(self, rel: str, args: Sequence[Union[Value, Var]]) -> List[Atom]:
        """The atoms of ``rel`` that hold, wherever ``args`` holds a value
        rather than a variable, that value or a null: those a map of their
        block's nulls may send onto ``args``.  One index probe per constant
        pattern of the relation; an atom may come back from two probes."""
        valued = [i for i, v in enumerate(args) if not isinstance(v, Var)]
        probes = {tuple(i for i in at if i in valued)
                  for at in self._patterns.get((rel, len(args)), ())}
        return [b for at in probes
                for b in self.instance.atoms_matching(rel, len(args), at, tuple(args[i] for i in at))
                if all(isinstance(b.args[i], Null) or b.args[i] == args[i] for i in valued)]

    def reaching_blocks(self, rel: str, args: Sequence[Union[Value, Var]]) -> List[int]:
        """The blocks with an atom in ``reaching_atoms``, in block order."""
        return sorted({self._block_of[b] for b in self.reaching_atoms(rel, args)})

    def _onto(self, fresh: FrozenSet[Atom], exclude: int) -> List[Instance]:
        """The blocks but the given one, in block order, that a retraction of
        a block image with the given fresh atoms may move: all on a non-core.
        On a core the rest is a core too, so a rest block can only shrink
        the image by sending an atom b onto a fresh atom, and the image only
        loses atoms; a block is kept if, under the map of some such b, each
        of its atoms still matches one of the instance or the fresh atoms
        (one arc-consistency pass)."""
        blocks = self.partition.blocks
        if not self._is_core:
            return [b for i, b in enumerate(blocks) if i != exclude]
        found, added = {exclude}, Instance(fresh)

        def matched(c: Atom, h: Dict[Value, Value]) -> bool:
            at = tuple(i for i, v in enumerate(c.args) if isinstance(v, Const) or v in h)
            values = tuple(h.get(c.args[i], c.args[i]) for i in at)
            return any(part.atoms_matching(c.rel, len(c.args), at, values) for part in (self.instance, added))

        for a in fresh:
            for b in self.reaching_atoms(a.rel, a.args):
                i = self._block_of[b]
                h = None if i in found else match_args(b.args, a.args)
                if h is not None and all(c is b or matched(c, h) for c in blocks[i].atoms):
                    found.add(i)
        return [blocks[i] for i in sorted(found - {exclude})]

    def _block_reps(self, block_index: int) -> Iterator[BlockRep]:
        """Block i's representatives, in map order.  A map's fresh set (its
        block atoms outside the rest) is kept if new, on the block's nulls
        only, and minimal: for no atom a of it does the block map into the
        rest plus fresh - {a}, which holds each smaller fresh set missing a.
        A kept one is cored, its nulls fixed, over the blocks ``_onto`` keeps."""
        block = self.partition.blocks[block_index]
        block_nulls, seen = block.nulls(), set()

        def maps_into(kept: FrozenSet[Atom]) -> bool:
            image = Image(self.instance, kept - block.atoms, block.atoms - kept)
            return find_homomorphism(block, image) is not None

        for mapped in _block_images(block, self.pool):
            fresh = frozenset(a for a in mapped if a in block.atoms or a not in self.instance.atoms)
            if fresh in seen:
                continue
            seen.add(fresh)
            nulls = {v for a in fresh for v in a.args if isinstance(v, Null)}
            if nulls <= block_nulls and not any(maps_into(fresh - {a}) for a in fresh):
                image = BlockRep(self.instance, fresh, block.atoms - fresh)
                yield core_retract_fixing(image, nulls, self._onto(fresh, block_index))


def all_block_reps(instance: Instance, constants: Iterable[Const]) -> Tuple[BlockRep, ...]:
    """Per-block representatives over every atom block, deduplicated.  Two
    representatives are equal iff their instances and anchors are."""
    return tuple(dict.fromkeys(BlockReps(instance, constants)))


def atom_in_some_minimal(instance: Instance, atom: Atom) -> bool:
    """Does the ground atom occur in a minimal possible world of the instance?

    Requires a packed core; on such instances the per-block representatives
    capture exactly the atoms of the whole-instance minimal representatives.
    Only the blocks that reach the atom can hold it (a ground core atom is
    its own block), so only their streams start.
    """
    if not atom.is_ground:
        raise PreconditionViolated("NotGround", "the probe atom must be ground")
    if not blocks_packed(instance):
        raise PreconditionViolated("NotPacked", "an atom block is not packed")
    if not is_core(instance):
        raise PreconditionViolated("NotCore", "the instance is not a core")
    blocks = BlockReps(instance, [v for v in atom.args if isinstance(v, Const)])
    return any(atom in rep for i in blocks.reaching_blocks(atom.rel, atom.args) for rep in blocks.reps(i))
