"""Core relational model: values, atoms, instances, schemas, mappings.

Every type here is immutable after construction, so instances can be shared
freely; all operations are pure functions.  Nulls carry an explicit
(scope, id) identity and fresh nulls are always drawn from a local
:class:`NullAllocator`, never from global state, which keeps outputs
deterministic for a given input ordering.

There is one matcher, :func:`match_conjunction`: each pattern atom probes
the instance's position index (:meth:`Instance.atoms_matching`) on its
bound positions.  The chase, solution checks, query joins and
:func:`find_homomorphism` all go through it; only ``corelib._shrink`` keeps
its own null-first search, whose order decides which core comes out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import DxError, NotGround, UndefinedValue


# ---------------------------------------------------------------- values


def _stored_hash(self) -> int:
    return self._hash


@dataclass(frozen=True)
class Const:
    """A constant, interpreted by itself.  Values and atoms hash once, at
    construction, to the hash their dataclass fields give."""

    name: str

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.name,)))

    __hash__ = _stored_hash

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Null:
    """A labeled null: a placeholder for an unknown constant."""

    scope: str
    nid: int

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.scope, self.nid)))

    __hash__ = _stored_hash

    def __repr__(self):
        return f"_{self.scope}{self.nid}"


Value = Union[Const, Null]


def value_key(v: Value):
    """Canonical total order: constants first (lexicographic), then nulls."""
    if isinstance(v, Const):
        return (0, v.name, "", 0)
    return (1, "", v.scope, v.nid)


class NullAllocator:
    """Hands out fresh nulls with increasing ids inside one scope."""

    def __init__(self, scope: str, start: int = 0):
        self.scope = scope
        self._next = start

    def fresh(self) -> Null:
        n = Null(self.scope, self._next)
        self._next += 1
        return n


# ---------------------------------------------------------------- variables

# Variables occur in constraints and queries, never inside instances.


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


Term = Union[Var, Const]


# ---------------------------------------------------------------- atoms


@dataclass(frozen=True)
class Atom:
    """A fact R(t1,...,tn) over values (constants and nulls)."""

    rel: str
    args: Tuple[Value, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.rel, self.args)))

    __hash__ = _stored_hash

    @property
    def is_ground(self) -> bool:
        return not any(isinstance(a, Null) for a in self.args)

    def nulls(self) -> FrozenSet[Null]:
        return frozenset(a for a in self.args if isinstance(a, Null))

    def __repr__(self):
        return f"{self.rel}({','.join(map(repr, self.args))})"


def atom_key(a: Atom):
    return (a.rel, tuple([value_key(v) for v in a.args]))


def instance_key(instance: "Instance"):
    """Canonical total order on instances: by size, then atom-wise."""
    return (len(instance), tuple(atom_key(a) for a in instance.sorted_atoms()))


def mask_key(w: int):
    """``instance_key`` order on the masks of one ``AtomMasks``."""
    return w.bit_count(), -w


class AtomMasks:
    """Sets of atoms as int masks: bit n-1-i stands for the i-th of the n
    atoms in ``atom_key`` order.  ``m`` is inside ``u`` iff ``u | m == u``,
    the binary digits list the atoms in order, and of two masks of one size
    the larger comes first, so ``mask_key`` sorts as ``instance_key`` does."""

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms = tuple(sorted(set(atoms), key=atom_key))
        n = len(self.atoms)
        self.bit = {a: 1 << (n - 1 - i) for i, a in enumerate(self.atoms)}
        # a union of one-atom sets reuses the atoms' stored hashes
        self._singletons = [frozenset([a]) for a in self.atoms]
        self._digits = f"0{n}b"  # n = 0 still formats one digit, "0"

    def encode(self, atoms: Iterable[Atom]) -> int:
        """The mask of a set of the numbered atoms."""
        return sum(map(self.bit.__getitem__, atoms))

    def decode(self, w: int) -> "Instance":
        digits = format(w, self._digits)
        return Instance(frozenset().union(*[s for s, d in zip(self._singletons, digits) if d == "1"]))

    def holders(self, masks: Sequence[int]) -> Dict[Atom, int]:
        """Each atom's holders among ``masks`` as an int, whose bit
        len(masks)-1-j stands for masks[j]."""
        columns = zip(*[format(w, self._digits) for w in masks])
        return {a: int("".join(col), 2) for a, col in zip(self.atoms, columns)}


def atoms_isomorphic(a1: Atom, a2: Atom) -> bool:
    """True iff the one-atom instances {a1} and {a2} are isomorphic."""
    return instances_isomorphic(Instance([a1]), Instance([a2]))


# ---------------------------------------------------------------- instances


class Instance:
    """A finite set of atoms (set semantics, no duplicates).

    ``_core`` holds the instance's core once ``corelib.core_of`` has found
    it (the instance itself when it is a core), so later core tests and
    core searches on it need no search; ``_blocks`` caches its blocks.
    """

    __slots__ = ("atoms", "_dom", "_tables", "_sorted", "_core", "_blocks")

    def __init__(self, atoms: Iterable[Atom] = ()):
        object.__setattr__(self, "atoms", frozenset(atoms))
        object.__setattr__(self, "_dom", None)
        object.__setattr__(self, "_tables", None)
        object.__setattr__(self, "_sorted", None)
        object.__setattr__(self, "_core", None)
        object.__setattr__(self, "_blocks", None)

    # -- set plumbing

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.sorted_atoms())

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)  # a frozenset stores its hash

    def __repr__(self):
        return "{" + ", ".join(map(repr, self.sorted_atoms())) + "}"

    def sorted_atoms(self) -> Tuple[Atom, ...]:
        cached = object.__getattribute__(self, "_sorted")
        if cached is None:
            cached = tuple(sorted(self.atoms, key=atom_key))
            object.__setattr__(self, "_sorted", cached)
        return cached

    def union(self, other: "Instance") -> "Instance":
        return Instance(self.atoms | other.atoms)

    def minus(self, atoms: Iterable[Atom]) -> "Instance":
        return Instance(self.atoms - frozenset(atoms))

    def subset_of(self, other: "Instance") -> bool:
        return self.atoms <= other.atoms

    def proper_subset_of(self, other: "Instance") -> bool:
        return self.atoms < other.atoms

    # -- derived domains

    def dom(self) -> FrozenSet[Value]:
        d = object.__getattribute__(self, "_dom")
        if d is None:
            d = frozenset(v for a in self.atoms for v in a.args)
            object.__setattr__(self, "_dom", d)
        return d

    def consts(self) -> FrozenSet[Const]:
        return frozenset(v for v in self.dom() if isinstance(v, Const))

    def nulls(self) -> FrozenSet[Null]:
        return frozenset(v for v in self.dom() if isinstance(v, Null))

    @property
    def is_ground(self) -> bool:
        return not self.nulls()

    def atoms_matching(
        self, rel: str, arity: int, positions: Tuple[int, ...], values: Tuple[Value, ...]
    ) -> Sequence[Atom]:
        """The atoms of ``rel`` and ``arity`` holding ``values`` at
        ``positions``, in canonical order.  The instance is grouped by
        relation once; a table on some positions is built from one group on
        first use, and a key's atoms are sorted on its first probe."""
        tables = self._tables
        if tables is None:
            tables = {}
            for a in self.atoms:
                tables.setdefault(a.rel, []).append(a)
            object.__setattr__(self, "_tables", tables)
        table = tables.get((rel, arity, positions))
        if table is None:
            table = tables[rel, arity, positions] = {}
            if len(positions) > 1:
                pick = itemgetter(*positions)
            else:  # a slice of one position, or of none, is the key itself
                pick = itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))
            for a in tables.get(rel, ()):
                if len(a.args) == arity:
                    table.setdefault(pick(a.args), []).append(a)
        hits = table.get(values, ())
        if type(hits) is list and len(hits) > 1:  # unsorted until now
            hits = table[values] = tuple(sorted(hits, key=atom_key))
        return hits


# ---------------------------------------------------------------- schemas


@dataclass(frozen=True)
class Schema:
    """Finite map from relation symbol to positive arity."""

    relations: Tuple[Tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, ar in self.relations:
            if ar < 1:
                raise DxError(f"relation {name} has non-positive arity {ar}")
            if name in seen:
                raise DxError(f"duplicate relation symbol {name}")
            seen.add(name)

    @staticmethod
    def of(mapping: Mapping[str, int]) -> "Schema":
        return Schema(tuple(sorted(mapping.items())))

    def arity(self, rel: str) -> Optional[int]:
        for name, ar in self.relations:
            if name == rel:
                return ar
        return None

    def names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.relations)

    def __contains__(self, rel: str) -> bool:
        return self.arity(rel) is not None

    def union(self, other: "Schema") -> "Schema":
        merged = dict(self.relations)
        for name, ar in other.relations:
            if name in merged and merged[name] != ar:
                raise DxError(f"conflicting arity for {name}")
            merged[name] = ar
        return Schema.of(merged)


# ---------------------------------------------------------------- constraints


@dataclass(frozen=True)
class PatternAtom:
    """A relational atom over variables and constants (constraint syntax)."""

    rel: str
    terms: Tuple[Term, ...]

    def vars(self) -> FrozenSet[Var]:
        return frozenset(t for t in self.terms if isinstance(t, Var))

    def __repr__(self):
        return f"{self.rel}({','.join(map(repr, self.terms))})"


@dataclass(frozen=True)
class StTgd:
    """A source-to-target dependency: body over the source schema implies an
    existentially quantified conjunction of target atoms.

    ``exists_vars`` are the head-only variables; all other head variables must
    occur in the body.
    """

    body: Tuple[PatternAtom, ...]
    head: Tuple[PatternAtom, ...]
    exists_vars: Tuple[Var, ...]

    def __post_init__(self):
        body_vars = frozenset(v for a in self.body for v in a.vars())
        head_vars = frozenset(v for a in self.head for v in a.vars())
        ez = frozenset(self.exists_vars)
        if ez & body_vars:
            raise DxError("existential variable also occurs in the body")
        if not head_vars >= ez:
            raise DxError("existential variable missing from the head")
        if not head_vars <= body_vars | ez:
            raise DxError("head variable neither universal nor existential")

    def body_vars(self) -> FrozenSet[Var]:
        return frozenset(v for a in self.body for v in a.vars())

    def frontier_vars(self) -> FrozenSet[Var]:
        head_vars = frozenset(v for a in self.head for v in a.vars())
        return head_vars & self.body_vars()

    def is_packed(self) -> bool:
        """Every two distinct head atoms share an existential variable."""
        ez = frozenset(self.exists_vars)
        for a1, a2 in itertools.combinations(self.head, 2):
            if not (a1.vars() & a2.vars() & ez):
                return False
        return True


@dataclass(frozen=True)
class Egd:
    """An equality-generating dependency over the target schema."""

    body: Tuple[PatternAtom, ...]
    equated: Tuple[Var, Var]

    def __post_init__(self):
        body_vars = frozenset(v for a in self.body for v in a.vars())
        if not {self.equated[0], self.equated[1]} <= body_vars:
            raise DxError("equated variable missing from the egd body")


@dataclass(frozen=True)
class SchemaMapping:
    """Source schema, target schema, and the constraints that relate them.

    ``general_constraints`` holds arbitrary first-order sentences over the
    combined schema; they are honored only by the brute-force oracle.
    """

    source: Schema
    target: Schema
    st_tgds: Tuple[StTgd, ...] = ()
    egds: Tuple[Egd, ...] = ()
    general_constraints: Tuple[object, ...] = ()  # FOQuery sentences

    def __post_init__(self):
        overlap = set(self.source.names()) & set(self.target.names())
        if overlap:
            raise DxError(f"source and target schemas overlap: {sorted(overlap)}")
        for tgd in self.st_tgds:
            for a in tgd.body:
                if a.rel not in self.source:
                    raise DxError(f"st-tgd body atom {a.rel} is not a source relation")
            for a in tgd.head:
                if a.rel not in self.target:
                    raise DxError(f"st-tgd head atom {a.rel} is not a target relation")
        for egd in self.egds:
            for a in egd.body:
                if a.rel not in self.target:
                    raise DxError(f"egd atom {a.rel} is not a target relation")

    def combined_schema(self) -> Schema:
        return self.source.union(self.target)

    def is_st_only(self) -> bool:
        return not self.egds and not self.general_constraints

    def is_packed(self) -> bool:
        return all(t.is_packed() for t in self.st_tgds)

    def max_exists_width(self) -> int:
        """Per-block null bound for cores produced by this mapping."""
        return max((len(t.exists_vars) for t in self.st_tgds), default=0)


# ---------------------------------------------------------------- value maps


def apply_map(f: Mapping[Value, Value], instance: Instance) -> Instance:
    """The image { f(A) | A in I }; f must be defined on all of dom(I)."""
    out = []
    for a in instance.atoms:
        try:
            out.append(Atom(a.rel, tuple(f[v] for v in a.args)))
        except KeyError as exc:
            raise UndefinedValue(f"map is undefined on {exc.args[0]!r}") from exc
    return Instance(out)


# ---------------------------------------------------------------- matching


def match_args(pattern: Sequence, args: Sequence[Value]) -> Optional[Dict]:
    """The map of the pattern's variables or nulls that turns it into
    ``args`` position by position, or None; a constant matches itself."""
    alpha: Dict = {}
    for t, v in zip(pattern, args):
        if (t != v) if isinstance(t, Const) else (alpha.setdefault(t, v) != v):
            return None
    return alpha


def match_conjunction(
    patterns: Iterable[Tuple[str, Tuple[Union[Term, Null], ...]]],
    instance: Instance,
    binding: Optional[Mapping] = None,
) -> Iterator[Dict]:
    """All extensions of ``binding`` that embed every pattern atom in I.

    Patterns are (relation, terms) pairs, read when the search first reaches
    them.  A constant matches itself; any other term binds: a Var, or a Null
    read as a variable.  Each pattern atom probes ``Instance.atoms_matching``
    on its constant and already-bound positions and binds the rest (a
    repeated term must agree), so bindings come out in the canonical order
    of I's atoms, pattern by pattern.
    """
    bnd = dict(binding) if binding else {}
    return _extend(instance, iter(patterns), [], set(bnd), 0, bnd)


def _extend(instance, patterns: Iterator, plan: List, bound: set, i: int, bnd: Dict) -> Iterator[Dict]:
    """The extensions of ``bnd`` that embed patterns i and later; each is
    read and planned when the search first reaches it."""
    if i == len(plan):
        pattern = next(patterns, None)
        if pattern is None:
            yield dict(bnd)
            return
        rel, terms = pattern
        at, keys, free = [], [], []
        for j, t in enumerate(terms):
            if isinstance(t, Const) or t in bound:
                at.append(j)
                keys.append(t)
            else:
                free.append((j, t))
        plan.append((rel, len(terms), tuple(at), keys, free))
        bound.update([t for _, t in free])
    rel, arity, at, keys, free = plan[i]
    for atom in instance.atoms_matching(rel, arity, at, tuple([bnd.get(t, t) for t in keys])):
        added = []
        for j, t in free:
            if t not in bnd:
                bnd[t] = atom.args[j]
                added.append(t)
            elif bnd[t] != atom.args[j]:
                break
        else:
            yield from _extend(instance, patterns, plan, bound, i + 1, bnd)
        for t in added:
            del bnd[t]


# ---------------------------------------------------------------- homomorphisms


def find_homomorphism(
    source: Instance,
    target: Instance,
    frozen: Optional[Mapping[Value, Value]] = None,
    require_injective: bool = False,
) -> Optional[Dict[Value, Value]]:
    """A mapping h legal for ``source`` with h(source) <= target, extending
    ``frozen``; None when no such homomorphism exists.

    The source atoms, their nulls read as variables, are matched into the
    target by ``match_conjunction`` from the binding ``frozen`` plus the
    identity on the constants; each next atom, chosen when the search first
    needs it, is the one with the most values already bound (the first such
    in canonical order).  ``require_injective`` takes the first match
    that is injective on all its keys, constants and ``frozen`` included.
    """
    fixed: Dict[Value, Value] = {c: c for c in source.consts()}
    for v, img in (frozen or {}).items():
        if isinstance(v, Const) and img != v:
            raise DxError("frozen map moves a constant")
        fixed[v] = img

    def patterns() -> Iterator[Tuple[str, Tuple[Value, ...]]]:
        bound, todo = set(fixed), list(source.sorted_atoms())
        while todo:
            i = max(range(len(todo)), key=lambda k: len(bound.intersection(todo[k].args)))
            atom = todo.pop(i)
            bound.update(atom.args)
            yield atom.rel, atom.args

    for h in match_conjunction(patterns(), target, fixed):
        if not require_injective or len(set(h.values())) == len(h):
            return h
    return None


def instances_isomorphic(left: Instance, right: Instance) -> bool:
    """True iff the instances are equal up to a renaming of nulls."""
    if len(left) != len(right) or left.consts() != right.consts():
        return False
    if len(left.nulls()) != len(right.nulls()):
        return False
    per_rel_left = sorted((a.rel, len(a.args)) for a in left.atoms)
    per_rel_right = sorted((a.rel, len(a.args)) for a in right.atoms)
    if per_rel_left != per_rel_right:
        return False
    h = find_homomorphism(left, right, require_injective=True)
    if h is None:
        return False
    return apply_map(h, left) == right


def homomorphically_equivalent(left: Instance, right: Instance) -> bool:
    return (
        find_homomorphism(left, right) is not None
        and find_homomorphism(right, left) is not None
    )


def require_ground(instance: Instance, what: str = "instance") -> None:
    if not instance.is_ground:
        raise NotGround(f"{what} contains nulls")
