"""Brute-force ground-truth laboratory for the seven query semantics.

Everything here enumerates finite families of ground instances over a
budgeted universe (the source constants, the constants of the constraints and
the query, plus a pool of fresh constants).  Results are exact relative to
those budgets; the test suite guards adequacy by checking that one extra
fresh constant never changes an answer.

Each semantics only picks its family of ground instances (``_family``);
one driver (``_certain``) intersects the query's answers over it, checking
only the tuples that survive the members read so far, applies the
empty-family rule and keeps the all-constant tuples.  Families are read
lazily: the subset searches and the ``cwa`` valuation images stop at the
first member that leaves no common tuple.  The gcwa-star family is kept as
int masks over the members' atoms: of the unions that show the query the
same view (the atoms of its relations and the domain) only the first is
built and read.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import BudgetExceeded, DxError, UnsupportedSemantics
from . import chase
from .corelib import core_of
from .logic import (
    CountExists,
    FOQuery,
    Forall,
    Formula,
    RelAtom,
    Eq,
    fresh_constants,
    is_ucq,
    query_answers,
    all_constants,
    flat_parts,
    subformulas,
)
from .minrep import _block_images, _minimal_images, enum_min_c
from .model import (
    Atom,
    AtomMasks,
    Const,
    Instance,
    SchemaMapping,
    Term,
    Value,
    Var,
    apply_map,
    atom_key,
    instance_key,
    mask_key,
    match_conjunction,
    value_key,
)

SEMANTICS = ("owa", "cwa", "rcwa", "gcwa", "egcwa", "pws", "gcwa-star")
EMPTY_POLICIES = ("none", "all")

ORACLE_NULL_CAP = 8
UNION_CLOSURE_CAP = 60_000
SUBSET_SEARCH_CAP = 300_000
EXTENSION_NODE_CAP = 200_000
LEGAL_MAP_CAP = 60_000


@dataclass(frozen=True)
class Budget:
    """Enumeration bounds; defaults are documented in the README."""

    fresh_constants: int = 4
    max_atoms: int = 12
    max_fixpoint_rounds: int = 3

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class SolutionFamily:
    instances: Tuple[Instance, ...]
    role: str
    meta: Dict[str, object] = field(default_factory=dict, hash=False, compare=False)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self.instances)

    def __len__(self) -> int:
        return len(self.instances)

    def __contains__(self, inst: Instance) -> bool:
        return inst in set(self.instances)


@dataclass(frozen=True)
class SemanticsAnswer:
    answers: FrozenSet[Tuple[Const, ...]]
    semantics: str
    meta: Dict[str, object] = field(default_factory=dict, hash=False, compare=False)


def _sorted_family(instances: Iterable[Instance]) -> Tuple[Instance, ...]:
    return tuple(sorted(set(instances), key=instance_key))


def _minimal(instances: Sequence[Instance]) -> List[Instance]:
    """The subset-minimal instances, each once, in ``instance_key`` order."""
    # a union of the atom sets reuses the atoms' stored hashes
    codec = AtomMasks(frozenset().union(*(inst.atoms for inst in instances)))
    by_mask = {codec.encode(inst.atoms): inst for inst in instances}
    return [by_mask[w] for w in _minimal_images(by_mask)]


# ---------------------------------------------------------------- universe


def mapping_constants(mapping: SchemaMapping) -> Set[Const]:
    out: Set[Const] = set()
    for tgd in mapping.st_tgds:
        for pa in tgd.body + tgd.head:
            out.update(t for t in pa.terms if isinstance(t, Const))
    for egd in mapping.egds:
        for pa in egd.body:
            out.update(t for t in pa.terms if isinstance(t, Const))
    for sentence in mapping.general_constraints:
        out.update(sentence.consts())
    return out


def universe_of(
    mapping: SchemaMapping,
    source: Instance,
    budget: Budget,
    extra: Iterable[Const] = (),
) -> Tuple[Const, ...]:
    pool = set(source.consts()) | mapping_constants(mapping) | set(extra)
    pool |= set(fresh_constants(budget.fresh_constants))
    return tuple(sorted(pool, key=value_key))


def target_atom_pool(mapping: SchemaMapping, universe: Sequence[Const]) -> Tuple[Atom, ...]:
    atoms = []
    for rel, arity in mapping.target.relations:
        for args in itertools.product(universe, repeat=arity):
            atoms.append(Atom(rel, args))
    return tuple(sorted(atoms, key=atom_key))


# ---------------------------------------------------------------- horn closure

# General constraints in universal Horn shape (at most one positive literal,
# head variables bound by the body) admit a deterministic repair closure; the
# rest of the constraints are only ever checked, with a bounded search for
# repairs on top.


@dataclass(frozen=True)
class _HornRule:
    body: Tuple[Tuple[str, Tuple[Term, ...]], ...]
    head_atom: Optional[Tuple[str, Tuple[Term, ...]]]  # None: denial clause
    head_eq: Optional[Tuple[Term, Term]]


def _ground(rel: str, terms: Sequence[Term], bnd: Dict[Var, Value]) -> Atom:
    """The atom ``rel(terms)`` with every variable replaced by its binding."""
    return Atom(rel, tuple(t if isinstance(t, Const) else bnd[t] for t in terms))


def _as_horn(sentence: FOQuery) -> Optional[_HornRule]:
    body_vars: Set[Var] = set()
    matrix = sentence.body
    while isinstance(matrix, Forall):
        matrix = matrix.sub
    body: List[Tuple[str, Tuple[Term, ...]]] = []
    head_atom = None
    head_eq = None
    for lit, negated in flat_parts(matrix, False, True):
        if isinstance(lit, RelAtom) and negated:
            body.append((lit.rel, lit.terms))
            body_vars.update(t for t in lit.terms if isinstance(t, Var))
        elif isinstance(lit, RelAtom):
            if head_atom or head_eq:
                return None
            head_atom = (lit.rel, lit.terms)
        elif isinstance(lit, Eq) and not negated:
            if head_atom or head_eq:
                return None
            head_eq = (lit.left, lit.right)
        else:
            return None
    head_vars: Set[Var] = set()
    if head_atom:
        head_vars = {t for t in head_atom[1] if isinstance(t, Var)}
    if head_eq:
        head_vars = {t for t in head_eq if isinstance(t, Var)}
    if not head_vars <= body_vars:
        return None
    return _HornRule(tuple(body), head_atom, head_eq)


class _ConstraintEngine:
    """Splits a mapping's target constraints into a Horn part (closed under a
    deterministic consequence operator) and a residue that is only checked."""

    def __init__(self, mapping: SchemaMapping):
        self.mapping = mapping
        self.horn: List[_HornRule] = []
        self.residue: List[FOQuery] = []
        for egd in mapping.egds:
            self.horn.append(
                _HornRule(
                    tuple((a.rel, a.terms) for a in egd.body),
                    None,
                    (egd.equated[0], egd.equated[1]),
                )
            )
        for sentence in mapping.general_constraints:
            rule = _as_horn(sentence)
            if rule is not None:
                self.horn.append(rule)
            else:
                self.residue.append(sentence)

    def close(self, source: Instance, target: Instance) -> Optional[Instance]:
        """Add every Horn-forced target atom; None when a clause is violated
        beyond repair (an equality over distinct constants, a denial, or a
        forced source atom)."""
        if not self.horn:
            return target
        current = set(target.atoms)
        changed = True
        while changed:
            changed = False
            combined = Instance(current | source.atoms)
            for rule in self.horn:
                for bnd in match_conjunction(list(rule.body), combined):
                    if rule.head_eq is not None:
                        l, r = rule.head_eq
                        lv = l if isinstance(l, Const) else bnd[l]
                        rv = r if isinstance(r, Const) else bnd[r]
                        if lv != rv:
                            return None
                        continue
                    if rule.head_atom is None:
                        return None
                    atom = _ground(*rule.head_atom, bnd)
                    if atom in combined:
                        continue
                    if atom.rel not in self.mapping.target:
                        return None  # constraint forces a source fact
                    current.add(atom)
                    changed = True
        return Instance(current)

    def residue_satisfied(self, source: Instance, target: Instance) -> bool:
        if not self.residue:
            return True
        combined = source.union(target)
        return all(query_answers(s, combined) for s in self.residue)

    def residue_hopeless(self, source: Instance, target: Instance) -> bool:
        """True when some violated residue constraint can never be repaired
        by adding atoms (currently: a bounded count already above its upper
        limit)."""
        combined = source.union(target)
        return any(_overcount_violation(s.body, combined) for s in self.residue)


def _overcount_violation(body: Formula, combined: Instance) -> bool:
    matrix = body
    while isinstance(matrix, Forall):
        matrix = matrix.sub
    literals = flat_parts(matrix, False, True)
    counts = [l for l, negated in literals if isinstance(l, CountExists) and not negated]
    negs = [(l.rel, l.terms) for l, negated in literals if isinstance(l, RelAtom) and negated]
    if len(counts) != 1 or len(negs) + 1 != len(literals):
        return False
    count = counts[0]
    if not isinstance(count.sub, RelAtom):
        return False
    for bnd in match_conjunction(negs, combined):
        witnesses = 0
        for v in combined.dom():
            args = tuple(
                v if t == count.var else (t if isinstance(t, Const) else bnd[t])
                for t in count.sub.terms
            )
            if Atom(count.sub.rel, args) in combined:
                witnesses += 1
        if witnesses > count.hi:
            return True
    return False


# ---------------------------------------------------------------- minimal solutions


def fresh_values(
    mapping: SchemaMapping, source: Instance, universe: Sequence[Const]
) -> Tuple[Instance, Set[Const], List[Const]]:
    """The core of the chased source, the constants it and the mapping name,
    and the universe's other (fresh) values.  Refuses a core with more nulls
    than fresh values: it has the most nulls of the minimal representatives."""
    core = core_of(chase.canonical_solution(mapping, source))
    base_consts = set(core.consts()) | mapping_constants(mapping)
    available = [c for c in universe if c not in base_consts]
    if len(core.nulls()) > len(available):
        raise BudgetExceeded(
            f"fresh-value universe exceeded its cap of {len(available)} values"
            f" ({len(core.nulls())} needed)"
        )
    return core, base_consts, available


def _st_minimal_solutions(
    mapping: SchemaMapping,
    source: Instance,
    universe: Sequence[Const],
) -> List[Instance]:
    """Ground instances over the universe that are minimal with respect to
    the st-tgds alone: injective fresh instantiations of the minimal
    representatives of the core of the chased source."""
    core, base_consts, available = fresh_values(mapping, source, universe)
    out: Set[Instance] = set()
    for rep in enum_min_c(core, base_consts, product_cap=LEGAL_MAP_CAP):
        nulls = sorted(rep.nulls(), key=value_key)
        for images in itertools.permutations(available, len(nulls)):
            v: Dict[Value, Value] = {c: c for c in rep.consts()}
            v.update(zip(nulls, images))
            out.add(apply_map(v, rep))
    return sorted(out, key=instance_key)


def _minimal_extensions(
    base: Instance,
    mapping: SchemaMapping,
    source: Instance,
    engine: _ConstraintEngine,
    pool: Sequence[Atom],
    max_atoms: int,
) -> List[Instance]:
    """All minimal ground solutions that contain ``base``, within budget."""
    closed = engine.close(source, base)
    if closed is None or len(closed) > max_atoms:
        return []
    if engine.residue_satisfied(source, closed):
        return [closed]
    if engine.residue_hopeless(source, closed):
        return []
    candidates = [a for a in pool if a not in closed]
    found: List[Instance] = []
    nodes = 0
    budget_left = max_atoms - len(closed)
    for size in range(1, budget_left + 1):
        for extra in itertools.combinations(candidates, size):
            nodes += 1
            if nodes > EXTENSION_NODE_CAP:
                raise BudgetExceeded(
                    f"extension search exceeded its node cap of {EXTENSION_NODE_CAP} nodes"
                )
            cand_base = Instance(closed.atoms | frozenset(extra))
            if any(f.subset_of(cand_base) for f in found):
                continue
            cand = engine.close(source, cand_base)
            if cand is None or len(cand) > max_atoms:
                continue
            if any(f.subset_of(cand) for f in found):
                continue
            if engine.residue_satisfied(source, cand):
                found.append(cand)
    return _minimal(found)


def minimal_ground_solutions(
    mapping: SchemaMapping,
    source: Instance,
    budget: Budget = Budget(),
    extra_constants: Iterable[Const] = (),
) -> SolutionFamily:
    """Subset-minimal ground solutions over the budget universe."""
    universe = universe_of(mapping, source, budget, extra_constants)
    engine = _ConstraintEngine(mapping)
    seeds = _st_minimal_solutions(mapping, source, universe)
    pool = target_atom_pool(mapping, universe) if engine.horn or engine.residue else ()
    collected = [
        inst
        for seed in seeds
        if len(seed) <= budget.max_atoms
        for inst in _minimal_extensions(seed, mapping, source, engine, pool, budget.max_atoms)
    ]
    return SolutionFamily(
        tuple(_minimal(collected)),
        "minimal",
        {"universe": [c.name for c in universe], "budget": budget.as_dict()},
    )


# ---------------------------------------------------------------- fixpoint


def _union_masks(
    members: Sequence[Instance], max_atoms: int, cap: int = UNION_CLOSURE_CAP
) -> Tuple[Tuple[Atom, ...], List[int]]:
    """All distinct unions of nonempty subsets of the members of at most
    ``max_atoms`` atoms, as int masks over the returned atoms, in
    ``instance_key`` order.

    The distinct members within ``max_atoms`` are taken one at a time in
    ``instance_key`` order; each is added and joined into every union found
    before it that can still grow (of fewer than ``max_atoms`` atoms), so
    the unions of the first k members are those of the first k - 1, the
    k-th member, and their joins with it.  ``work`` counts the joins.  More
    than 40 × ``cap`` joins raise ``BudgetExceeded``, and so does a union
    that is not a member once the members and such unions number ``cap``.
    The masks number the atoms as ``AtomMasks`` does.
    """
    kept = {m.atoms for m in members if len(m) <= max_atoms}
    codec = AtomMasks(a for m in kept for a in m)
    base = sorted(map(codec.encode, kept), key=mask_key)
    is_member = set(base)
    seen: Set[int] = set()
    growing: List[int] = []
    by_size: List[List[int]] = [[] for _ in range(max_atoms + 1)]
    work_cap = 40 * cap
    work = joined = 0
    for m in base:
        # the joins left before the work cap, which raises after them
        grown = len(growing)
        joins = growing if work + grown <= work_cap else growing[: work_cap - work]
        work += len(joins)
        for w in [m] + [u | m for u in joins]:
            size = w.bit_count()
            if size > max_atoms or w in seen:
                continue
            if w not in is_member:
                if len(base) + joined >= cap:
                    raise BudgetExceeded(f"union closure exceeded its cap of {cap} unions")
                joined += 1
            seen.add(w)
            by_size[size].append(w)
            if size < max_atoms:
                growing.append(w)
        if len(joins) < grown:
            raise BudgetExceeded(f"union closure exceeded its work cap of {work_cap} steps")
    return codec.atoms, [w for bucket in by_size for w in sorted(bucket, reverse=True)]


def _union_closure(
    members: Sequence[Instance], max_atoms: int, cap: int = UNION_CLOSURE_CAP
) -> List[Instance]:
    """The unions of ``_union_masks`` as instances, in the same order."""
    atoms, masks = _union_masks(members, max_atoms, cap)
    return list(map(AtomMasks(atoms).decode, masks))


def _is_union_of(instance: Instance, members: Sequence[Instance]) -> bool:
    contained = [m for m in members if m.subset_of(instance)]
    if not contained:
        return False
    covered = frozenset(a for m in contained for a in m.atoms)
    return covered == instance.atoms


@dataclass(frozen=True)
class FixpointResult:
    family: SolutionFamily
    levels: Tuple[Tuple[Instance, ...], ...]
    converged: bool


def tstar_fixpoint(
    mapping: SchemaMapping,
    source: Instance,
    budget: Budget = Budget(),
    extra_constants: Iterable[Const] = (),
) -> FixpointResult:
    """Iterate the closure operator over unions of previously found members.

    Level 0 holds the minimal ground solutions; each later level adds, for
    every union of earlier members, the minimal ground solutions above it.
    Members that are themselves unions of other members are not stored (they
    add nothing to the family of unions), so each level lists the new
    union-irredundant representatives.  Convergence within the round budget
    is reported, never assumed.
    """
    level0 = list(
        minimal_ground_solutions(mapping, source, budget, extra_constants).instances
    )
    levels: List[Tuple[Instance, ...]] = [tuple(level0)]
    generators: List[Instance] = list(level0)
    # dependencies with existential-positive heads survive unions, so
    # every union is already a solution and the levels stabilize at 0
    converged = mapping.is_st_only()
    rounds = 0 if converged else budget.max_fixpoint_rounds
    if rounds:
        engine = _ConstraintEngine(mapping)
        pool = target_atom_pool(mapping, universe_of(mapping, source, budget, extra_constants))
    for _ in range(rounds):
        added: List[Instance] = []
        for union in _union_closure(generators, budget.max_atoms):
            if chase.is_solution(mapping, source, union):
                continue  # its own minimal extension, already a union
            for ext in _minimal_extensions(
                union, mapping, source, engine, pool, budget.max_atoms
            ):
                if _is_union_of(ext, generators + added):
                    continue
                added.append(ext)
        if not added:
            converged = True
            break
        added = list(_sorted_family(added))
        levels.append(tuple(added))
        generators.extend(added)
    family = SolutionFamily(
        _sorted_family(generators),
        f"tstar_level({len(levels) - 1})",
        {
            "rounds": len(levels) - 1,
            "converged": converged,
            "budget": budget.as_dict(),
        },
    )
    return FixpointResult(family, tuple(levels), converged)


def _gcwa_star_masks(
    mapping: SchemaMapping,
    source: Instance,
    budget: Budget,
    extra_constants: Iterable[Const],
) -> Tuple[FixpointResult, Tuple[Atom, ...], List[int]]:
    """The fixpoint and the masks over the returned atoms of its unions that
    are solutions, in ``instance_key`` order."""
    fix = tstar_fixpoint(mapping, source, budget, extra_constants)
    atoms, masks = _union_masks(list(fix.family.instances), budget.max_atoms)
    if not mapping.is_st_only():  # st-tgds survive unions, other constraints need not
        decode = AtomMasks(atoms).decode
        masks = [w for w in masks if chase.is_solution(mapping, source, decode(w))]
    return fix, atoms, masks


def gcwa_star_solutions(
    mapping: SchemaMapping,
    source: Instance,
    budget: Budget = Budget(),
    extra_constants: Iterable[Const] = (),
) -> SolutionFamily:
    """Ground solutions that are unions of fixpoint members, within budget."""
    fix, atoms, masks = _gcwa_star_masks(mapping, source, budget, extra_constants)
    meta = dict(fix.family.meta)
    meta["tstar_size"] = len(fix.family)
    meta["converged"] = fix.converged
    return SolutionFamily(tuple(map(AtomMasks(atoms).decode, masks)), "gcwa_star", meta)


def is_gcwa_star_solution(
    mapping: SchemaMapping,
    source: Instance,
    target: Instance,
    budget: Budget = Budget(),
) -> bool:
    """For mappings of st-tgds and egds: a union of at least one minimal
    ground solution that also satisfies the egds."""
    if mapping.general_constraints:
        raise UnsupportedSemantics(
            "the membership test handles st-tgds and egds only"
        )
    if not target.is_ground:
        return False
    st_only = SchemaMapping(
        mapping.source, mapping.target, mapping.st_tgds, (), ()
    )
    minimal = minimal_ground_solutions(
        st_only, source, budget, extra_constants=target.consts()
    )
    if not _is_union_of(target, list(minimal.instances)):
        return False
    return all(chase.egd_satisfied(egd, target) for egd in mapping.egds)


# ---------------------------------------------------------------- semantics


def _query_views(q: FOQuery, atoms: Sequence[Atom], masks: Iterable[int]) -> Iterator[Instance]:
    """The unions of ``masks`` over ``atoms``, built lazily, skipping each one
    whose view of q matches an earlier one.  q's answers on an instance depend
    only on the atoms of the relations q names and on dom(I) + dom(q), so the
    view is the mask of those atoms and the values the union touches."""
    rels = {g.rel for g in subformulas(q.body) if isinstance(g, RelAtom)}
    codec = AtomMasks(atoms)
    seen_bits = 0
    value_bits: Dict[Value, int] = {}
    for a, bit in codec.bit.items():
        if a.rel in rels:
            seen_bits |= bit
        for v in a.args:
            value_bits[v] = value_bits.get(v, 0) | bit
    values = list(value_bits.values())
    views: Set[Tuple[int, Tuple[bool, ...]]] = set()
    for w in masks:
        view = (w & seen_bits, tuple(w & b != 0 for b in values))
        if view not in views:
            views.add(view)
            yield codec.decode(w)


def _intersect(
    q: FOQuery, family: Iterable[Instance]
) -> Tuple[Optional[Set[Tuple[Value, ...]]], int]:
    """The query's answers common to the family's members, read until none
    is left, and the count of members read.  After the first member only the
    tuples still common are checked."""
    common: Optional[Set[Tuple[Value, ...]]] = None
    count = 0
    for inst in family:
        count += 1
        common = query_answers(q, inst, common)
        if not common:
            break
    return common, count


def _certain(
    q: FOQuery,
    family: Iterable[Instance],
    empty_policy: str = "none",
    universe: Optional[Sequence[Const]] = None,
) -> Tuple[FrozenSet[Tuple[Const, ...]], int]:
    """``certain_answers`` as a frozenset, and the count of members read:
    ``_intersect`` stops at the first member that leaves no common tuple."""
    if empty_policy not in EMPTY_POLICIES:
        raise DxError(f"unknown empty_policy {empty_policy!r}: use 'none' or 'all'")
    common, read = _intersect(q, family)
    if read:
        return frozenset(t for t in common if all_constants(t)), read
    if empty_policy == "none":
        return frozenset(), 0
    if universe is None:
        raise DxError("empty_policy='all' needs an explicit universe")
    return frozenset(itertools.product(tuple(universe), repeat=q.width)), 0


def certain_answers(
    q: FOQuery,
    instances: Iterable[Instance],
    empty_policy: str = "none",
    universe: Optional[Sequence[Const]] = None,
) -> Set[Tuple[Const, ...]]:
    """Intersection of query answers over the family, constants only.

    An empty family yields the empty set under the default policy; the
    alternative ``empty_policy="all"`` returns every constant tuple over the
    supplied universe (the set-theoretic reading of an empty intersection).
    """
    return set(_certain(q, instances, empty_policy, universe)[0])


def _valuation_images(q: FOQuery, instance: Instance, extra_fresh: int = 0) -> Iterator[Instance]:
    """The distinct images of the instance under the valuations of its nulls
    into its constants, q's and |nulls| + ``extra_fresh`` fresh ones, each
    yielded once, as they are found."""
    nulls = sorted(instance.nulls(), key=value_key)
    if len(nulls) > ORACLE_NULL_CAP:
        raise BudgetExceeded(
            f"valuation enumeration exceeded its cap of {ORACLE_NULL_CAP} nulls"
            f" ({len(nulls)} in the instance)"
        )
    pool = sorted(set(instance.consts()) | set(q.consts()), key=value_key)
    pool += fresh_constants(len(nulls) + extra_fresh)
    seen: Set[Instance] = set()
    for image in map(Instance, _block_images(instance, pool)):
        if image not in seen:
            seen.add(image)
            yield image


def cert_poss(q: FOQuery, instance: Instance, extra_fresh: int = 0) -> Set[Tuple[Const, ...]]:
    """Certain answers of q over all valuations of the instance.

    The infinite family poss(T) is enumerated finitely: valuation images only
    matter up to the equality pattern among null images and collisions with
    const(T) and dom(q), so a pool with |nulls(T)| fresh constants suffices.
    ``extra_fresh`` widens the pool (used by the genericity self-check).
    """
    return set(_certain(q, _valuation_images(q, instance, extra_fresh))[0])


def _solution_subsets(
    mapping: SchemaMapping, source: Instance, pool: Sequence[Atom], max_atoms: int
) -> Iterator[Instance]:
    """All ground solutions assembled from the atom pool, smallest first."""
    count = 0
    for size in range(0, min(len(pool), max_atoms) + 1):
        for combo in itertools.combinations(pool, size):
            count += 1
            if count > SUBSET_SEARCH_CAP:
                raise BudgetExceeded(
                    f"solution enumeration exceeded its cap of {SUBSET_SEARCH_CAP} subsets"
                )
            inst = Instance(combo)
            if chase.is_solution(mapping, source, inst):
                yield inst


def _possible_worlds(
    mapping: SchemaMapping, source: Instance, universe: Sequence[Const], max_atoms: int
) -> Iterator[Instance]:
    """The PWS-solutions: ground solutions made of the head atoms of the
    dependency firings (existentials over the universe), each of whose atoms
    is justified, that is, in the head of a firing that lies whole inside it."""
    firings = [
        (tgd, {v: bnd[v] for v in tgd.frontier_vars()})
        for tgd in mapping.st_tgds
        for bnd in match_conjunction([(a.rel, a.terms) for a in tgd.body], source)
    ]
    head_pool = {
        _ground(pa.rel, pa.terms, {**frontier, **dict(zip(tgd.exists_vars, images))})
        for tgd, frontier in firings
        for images in itertools.product(universe, repeat=len(tgd.exists_vars))
        for pa in tgd.head
    }
    for inst in _solution_subsets(mapping, source, sorted(head_pool, key=atom_key), max_atoms):
        justified = {
            _ground(pa.rel, pa.terms, full)
            for tgd, frontier in firings
            for full in match_conjunction([(a.rel, a.terms) for a in tgd.head], inst, frontier)
            for pa in tgd.head
        }
        if inst.atoms <= justified:
            yield inst


def _family(
    mapping: SchemaMapping,
    source: Instance,
    q: FOQuery,
    semantics: str,
    budget: Budget,
    universe: Sequence[Const],
    meta: Dict[str, object],
) -> Tuple[Iterable[Instance], bool, Optional[str]]:
    """The family of ground instances whose certain answers the semantics
    takes, whether the members read are reported as ``solutions_checked``,
    and the diagnostic for an empty family.  Notes the family's other meta."""
    if semantics in ("cwa", "pws") and not mapping.is_st_only():
        world = "closed-world" if semantics == "cwa" else "possible-worlds"
        raise UnsupportedSemantics(f"the {world} semantics is defined for st-tgd mappings only")
    if semantics == "cwa":
        meta["path"] = "cansol-valuations"
        return _valuation_images(q, chase.canonical_solution(mapping, source)), False, None
    if semantics == "pws":
        worlds = _possible_worlds(mapping, source, universe, budget.max_atoms)
        return worlds, True, "no PWS-solution"
    # a monotone query's answers on a universal solution, and on the minimal
    # members of the unions, are its certain answers there
    monotone = is_ucq(q) and mapping.is_st_only()
    if semantics == "owa" and monotone:
        meta["path"] = "universal-solution"
        return [chase.canonical_solution(mapping, source)], False, None
    if semantics == "owa":
        pool = target_atom_pool(mapping, universe)
        return _solution_subsets(mapping, source, pool, budget.max_atoms), True, None
    if semantics == "gcwa-star" and not monotone:
        fix, atoms, masks = _gcwa_star_masks(mapping, source, budget, q.consts())
        meta["converged"] = fix.converged
        meta["family_size"] = len(masks)
        return _query_views(q, atoms, masks), False, "no gcwa-star solution within budget"
    family = minimal_ground_solutions(mapping, source, budget, q.consts())
    if semantics == "rcwa" and len(family) == 1:
        meta["rcwa_solution"] = True
        return family, False, None
    if semantics == "rcwa":
        meta["minimal_count"] = len(family)
        return (), False, "no RCWA-solution"
    meta["family_size"] = len(family)
    if semantics == "gcwa-star":
        meta["path"] = "oracle-minimal-members"
        return family, False, "no gcwa-star solution within budget"
    if semantics == "egcwa" or not len(family):
        return family, False, "no minimal ground solution within budget"
    covered = sorted({a for inst in family for a in inst.atoms}, key=atom_key)
    return _solution_subsets(mapping, source, covered, budget.max_atoms), True, "no GCWA-solution"


def answers_semantics(
    mapping: SchemaMapping,
    source: Instance,
    q: FOQuery,
    semantics: str,
    budget: Budget = Budget(),
    empty_policy: str = "none",
) -> SemanticsAnswer:
    """Evaluate the query under one of the seven supported semantics: its
    certain answers over the family the semantics picks."""
    semantics = semantics.lower()
    if semantics not in SEMANTICS:
        raise UnsupportedSemantics(f"unknown semantics {semantics!r}")
    meta: Dict[str, object] = {"budget": budget.as_dict(), "path": "oracle"}
    universe = universe_of(mapping, source, budget, q.consts())
    family, counted, diagnostic = _family(mapping, source, q, semantics, budget, universe, meta)
    answers, read = _certain(q, family, empty_policy, universe)
    if counted:
        meta["solutions_checked"] = read
    if not read and diagnostic:
        meta["diagnostic"] = diagnostic
    return SemanticsAnswer(answers, semantics, meta)
