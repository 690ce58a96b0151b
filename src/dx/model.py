"""Core relational model: values, atoms, instances, schemas, mappings.

Every type here is immutable after construction, so instances can be shared
freely; all operations are pure functions.  Nulls carry an explicit
(scope, id) identity and fresh nulls are always drawn from a local
:class:`NullAllocator`, never from global state, which keeps outputs
deterministic for a given input ordering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .errors import DxError, NotGround, UndefinedValue


# ---------------------------------------------------------------- values


@dataclass(frozen=True)
class Const:
    """A constant, interpreted by itself."""

    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Null:
    """A labeled null: a placeholder for an unknown constant."""

    scope: str
    nid: int

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


def atoms_isomorphic(a1: Atom, a2: Atom) -> bool:
    """True iff the one-atom instances {a1} and {a2} are isomorphic.

    Same relation and arity, constants pointwise equal, null positions
    aligned, and the same equality pattern among the arguments.
    """
    if a1.rel != a2.rel or len(a1.args) != len(a2.args):
        return False
    for u, v in zip(a1.args, a2.args):
        if isinstance(u, Const) != isinstance(v, Const):
            return False
        if isinstance(u, Const) and u != v:
            return False
    n = len(a1.args)
    for i in range(n):
        for j in range(i + 1, n):
            if (a1.args[i] == a1.args[j]) != (a2.args[i] == a2.args[j]):
                return False
    return True


# ---------------------------------------------------------------- instances


class Instance:
    """A finite set of atoms (set semantics, no duplicates).

    ``_core`` is True once ``corelib.core_of`` has returned this instance,
    so later core tests on it need no search.
    """

    __slots__ = ("atoms", "_dom", "_tables", "_hash", "_sorted", "_core")

    def __init__(self, atoms: Iterable[Atom] = ()):
        object.__setattr__(self, "atoms", frozenset(atoms))
        object.__setattr__(self, "_dom", None)
        object.__setattr__(self, "_tables", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_sorted", None)
        object.__setattr__(self, "_core", False)

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
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(self.atoms)
            object.__setattr__(self, "_hash", h)
        return h

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
        ``positions``, in canonical order, from a table built on first use."""
        if self._tables is None:
            object.__setattr__(self, "_tables", {})
        table = self._tables.get((rel, arity, positions))
        if table is None:
            table = self._tables[rel, arity, positions] = {}
            for a in self.sorted_atoms():
                if a.rel == rel and len(a.args) == arity:
                    table.setdefault(tuple(a.args[i] for i in positions), []).append(a)
        return table.get(values, ())


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
    patterns: Sequence[Tuple[str, Tuple[Term, ...]]],
    instance: Instance,
    binding: Optional[Dict[Var, Value]] = None,
    atoms_for: Optional[Callable[[str, int], Iterable[Atom]]] = None,
) -> Iterator[Dict[Var, Value]]:
    """All extensions of ``binding`` that embed every pattern atom in I.

    Patterns are (relation, terms) pairs with Var/Const terms.  Yields
    bindings in a deterministic order (atoms of I in canonical order), or
    in the order of ``atoms_for(relation, arity)``, if given.
    """
    binding = dict(binding or {})
    atoms_for = atoms_for or (lambda rel, arity: instance.atoms_matching(rel, arity, (), ()))

    def rec(i: int, bnd: Dict[Var, Value]) -> Iterator[Dict[Var, Value]]:
        if i == len(patterns):
            yield dict(bnd)
            return
        rel, terms = patterns[i]
        for atom in atoms_for(rel, len(terms)):
            if len(atom.args) != len(terms):
                continue
            local = {}
            ok = True
            for t, v in zip(terms, atom.args):
                if isinstance(t, Const):
                    if t != v:
                        ok = False
                        break
                else:
                    bound = bnd.get(t, local.get(t))
                    if bound is None:
                        local[t] = v
                    elif bound != v:
                        ok = False
                        break
            if not ok:
                continue
            bnd.update(local)
            yield from rec(i + 1, bnd)
            for t in local:
                del bnd[t]

    return rec(0, binding)


# ---------------------------------------------------------------- homomorphisms


def find_homomorphism(
    source: Instance,
    target: Instance,
    frozen: Optional[Mapping[Value, Value]] = None,
    require_injective: bool = False,
) -> Optional[Dict[Value, Value]]:
    """A mapping h legal for ``source`` with h(source) <= target, extending
    ``frozen``; None when no such homomorphism exists.

    Complete backtracking search: nulls are assigned in order of descending
    occurrence count, candidate images in canonical order.
    """
    assignment: Dict[Value, Value] = {}
    for c in source.consts():
        assignment[c] = c
    if frozen:
        for v, img in frozen.items():
            if isinstance(v, Const) and img != v:
                raise DxError("frozen map moves a constant")
            if assignment.get(v, img) != img:
                return None
            assignment[v] = img

    occurrences: Dict[Null, int] = {}
    atoms_by_null: Dict[Null, list] = {}
    for a in source.atoms:
        for v in a.args:
            if isinstance(v, Null):
                occurrences[v] = occurrences.get(v, 0) + 1
                atoms_by_null.setdefault(v, []).append(a)

    pending = [n for n in occurrences if n not in assignment]
    pending.sort(key=lambda n: (-occurrences[n], value_key(n)))
    candidates = sorted(target.dom(), key=value_key)

    def atom_ok(atom: Atom, bnd: Dict[Value, Value]) -> bool:
        img = []
        for v in atom.args:
            w = bnd.get(v)
            if w is None:
                return True  # not fully assigned yet
            img.append(w)
        return Atom(atom.rel, tuple(img)) in target

    # atoms with no nulls (or only pre-assigned values) must map in right away
    for a in source.atoms:
        if all(v in assignment for v in a.args):
            if not atom_ok(a, assignment):
                return None

    used = set(assignment[v] for v in assignment if isinstance(v, Null)) if require_injective else None
    if require_injective:
        used |= {assignment[c] for c in source.consts()}
        if len(used) < len(source.consts()) + sum(
            1 for v in assignment if isinstance(v, Null)
        ):
            return None

    def rec(i: int) -> bool:
        if i == len(pending):
            return True
        null = pending[i]
        for cand in candidates:
            if require_injective and cand in used:
                continue
            assignment[null] = cand
            if all(atom_ok(a, assignment) for a in atoms_by_null[null]):
                if require_injective:
                    used.add(cand)
                if rec(i + 1):
                    return True
                if require_injective:
                    used.discard(cand)
            del assignment[null]
        return False

    if rec(0):
        return dict(assignment)
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
