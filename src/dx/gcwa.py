"""Certain-answer evaluation under the union-of-minimal-worlds semantics.

The fast path decides universal queries on a packed core: the negated query
is split into existential conjuncts, and a conjunct is satisfiable over some
finite union of minimal possible worlds iff the block-wise minimal
representatives can be joined compatibly into a witness instance padded with
disjoint copies of the core.  The places of each positive literal come from
an index of the representatives' anchors, built once per set of
representatives and matched without renaming; the candidate lists are
memoised per literal, and a representative is renamed whole only when a
search leaf glues it.  The general evaluator realizes the same test by
bounded brute force (no packedness needed) and is exponential.

Both paths share one driver: a candidate tuple is specialized into every
conjunct of the negated query, and the tuple is a certain answer iff the
backend's ``conjunct_satisfiable`` rejects them all.  ``CoreEvaluator`` is
the fast backend and ``_GeneralEvaluator`` the general one.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .corelib import blocks_packed, core_solution, is_core
from .errors import NotHomomorphismClosed, NotUniversal, PreconditionViolated
from .logic import (
    Eq,
    FOQuery,
    Formula,
    Not,
    RelAtom,
    all_constants,
    dnf_literals,
    is_ucq,
    prenex,
    query_answers,
    to_nnf,
)
from .minrep import BlockRep, _minimal_images, all_block_reps, legal_images
from .model import (
    Atom,
    Const,
    Instance,
    Null,
    SchemaMapping,
    Term,
    Value,
    Var,
    apply_map,
    match_args,
    match_conjunction,
    value_key,
)

GENERAL_VALUATION_CAP = 400_000


# ---------------------------------------------------------------- conjuncts

def _term_key(t: Term):
    return (0, t.name) if isinstance(t, Const) else (1, t.name)


def _lit_key(lit: Tuple[str, Tuple[Term, ...]]):
    rel, terms = lit
    return (rel, tuple(_term_key(x) for x in terms))


def _pair_key(pair: Tuple[Term, Term]):
    return (_term_key(pair[0]), _term_key(pair[1]))



@dataclass(frozen=True)
class DisjunctTemplate:
    """One disjunct of the negated universal query, free variables still
    symbolic; positive equalities are resolved later, during specialization."""

    positives: Tuple[Tuple[str, Tuple[Term, ...]], ...]
    negatives: Tuple[Tuple[str, Tuple[Term, ...]], ...]
    equalities: Tuple[Tuple[Term, Term], ...]
    disequalities: Tuple[Tuple[Term, Term], ...]
    quantified: bool = False  # the negated query had a nonempty exists-prefix


class Unsatisfiable:
    """Marker for a disjunct that died during specialization."""

    def __repr__(self):
        return "UNSAT"


UNSAT = Unsatisfiable()


@dataclass(frozen=True)
class ExistentialConjunct:
    """A ground-free-variable conjunct: positive and negated relational
    literals plus disequalities, existentially quantified."""

    positives: Tuple[Tuple[str, Tuple[Term, ...]], ...]
    negatives: Tuple[Tuple[str, Tuple[Term, ...]], ...]
    disequalities: Tuple[Tuple[Term, Term], ...]
    quantified: bool = False  # quantifiers remain even if their literals left

    @property
    def k(self) -> int:
        return len(self.positives)

    @property
    def copy_count(self) -> int:
        """k + total negated-atom width + 2 * #disequalities."""
        return (
            self.k
            + sum(len(terms) for _, terms in self.negatives)
            + 2 * len(self.disequalities)
        )

    def variables(self) -> Tuple[Var, ...]:
        out: Set[Var] = set()
        for _, terms in self.positives + self.negatives:
            out.update(t for t in terms if isinstance(t, Var))
        for a, b in self.disequalities:
            out.update(t for t in (a, b) if isinstance(t, Var))
        return tuple(sorted(out, key=lambda v: v.name))

    def consts(self) -> Tuple[Const, ...]:
        out: Set[Const] = set()
        for _, terms in self.positives + self.negatives:
            out.update(t for t in terms if isinstance(t, Const))
        for a, b in self.disequalities:
            out.update(t for t in (a, b) if isinstance(t, Const))
        return tuple(sorted(out, key=value_key))

    @property
    def is_empty(self) -> bool:
        return not (self.positives or self.negatives or self.disequalities)


def normalize_negation(q: FOQuery) -> Tuple[DisjunctTemplate, ...]:
    """Negate a universal query into existential-conjunct templates.

    Contradictory disjuncts (same-term disequalities, distinct-constant
    equalities, complementary literal pairs) are dropped here; positive
    equalities survive into the templates and are resolved by ``specialize``.
    """
    p = prenex(q.body)
    if p is None or any(kind != "forall" for kind, _ in p[0]):
        raise NotUniversal(f"query {q.name} is not a universal query")
    prefix, matrix = p
    negated = to_nnf(matrix, negate=True)
    templates: List[DisjunctTemplate] = []
    for literals in dnf_literals(negated):
        t = _build_template(literals, quantified=bool(prefix))
        if t is not None:
            templates.append(t)
    return tuple(templates)


def _build_template(
    literals: Sequence[Formula], quantified: bool = False
) -> Optional[DisjunctTemplate]:
    positives: Set[Tuple[str, Tuple[Term, ...]]] = set()
    negatives: Set[Tuple[str, Tuple[Term, ...]]] = set()
    equalities: Set[Tuple[Term, Term]] = set()
    disequalities: Set[Tuple[Term, Term]] = set()
    for lit in literals:
        if isinstance(lit, RelAtom):
            positives.add((lit.rel, lit.terms))
        elif isinstance(lit, Not) and isinstance(lit.sub, RelAtom):
            negatives.add((lit.sub.rel, lit.sub.terms))
        elif isinstance(lit, Eq):
            l, r = lit.left, lit.right
            if l == r:
                continue
            if isinstance(l, Const) and isinstance(r, Const):
                return None  # distinct constants can never be equal
            equalities.add((l, r))
        elif isinstance(lit, Not) and isinstance(lit.sub, Eq):
            l, r = lit.sub.left, lit.sub.right
            if l == r:
                return None  # t != t is contradictory
            if isinstance(l, Const) and isinstance(r, Const):
                continue  # trivially true
            disequalities.add((l, r))
        else:
            raise NotUniversal(f"unexpected literal {lit!r}")
    if positives & negatives:
        return None
    return DisjunctTemplate(
        tuple(sorted(positives, key=_lit_key)),
        tuple(sorted(negatives, key=_lit_key)),
        tuple(sorted(equalities, key=_pair_key)),
        tuple(sorted(disequalities, key=_pair_key)),
        quantified,
    )


def specialize(
    template: DisjunctTemplate,
    free_vars: Sequence[Var],
    values: Sequence[Const],
) -> Union[ExistentialConjunct, Unsatisfiable]:
    """Plug a candidate tuple into a template and resolve its equalities by
    unification; the result has no free variables left."""
    sub: Dict[Term, Term] = dict(zip(free_vars, values))

    def subst(t: Term) -> Term:
        return sub.get(t, t)

    # union-find over terms, constants win as representatives
    parent: Dict[Term, Term] = {}

    def find(t: Term) -> Term:
        parent.setdefault(t, t)
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a: Term, b: Term) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return True
        if isinstance(ra, Const) and isinstance(rb, Const):
            return False
        if isinstance(ra, Const):
            parent[rb] = ra
        elif isinstance(rb, Const):
            parent[ra] = rb
        else:
            lo, hi = sorted((ra, rb), key=lambda v: v.name)
            parent[hi] = lo
        return True

    for l, r in template.equalities:
        if not union(subst(l), subst(r)):
            return UNSAT

    def resolve(t: Term) -> Term:
        return find(subst(t))

    positives = {
        (rel, tuple(resolve(t) for t in terms)) for rel, terms in template.positives
    }
    negatives = {
        (rel, tuple(resolve(t) for t in terms)) for rel, terms in template.negatives
    }
    if positives & negatives:
        return UNSAT
    disequalities = set()
    for l, r in template.disequalities:
        rl, rr = resolve(l), resolve(r)
        if rl == rr:
            return UNSAT
        if isinstance(rl, Const) and isinstance(rr, Const):
            continue
        disequalities.add(tuple(sorted((rl, rr), key=_term_key)))
    return ExistentialConjunct(
        tuple(sorted(positives, key=_lit_key)),
        tuple(sorted(negatives, key=_lit_key)),
        tuple(sorted(disequalities, key=_pair_key)),
        template.quantified,
    )


def satisfies_conjunct(
    instance: Instance,
    conjunct: ExistentialConjunct,
    context: Iterable[Const] = (),
) -> bool:
    """Active-domain satisfaction of an existential conjunct, evaluated by
    joining the positive literals first (nulls count as plain values).

    ``context`` carries the constants of the whole query the conjunct came
    from: splitting a query into disjuncts must not shrink the domain its
    quantifiers range over.
    """
    named = set(conjunct.consts()) | set(context)
    if conjunct.quantified and not (named or instance.dom()):
        return False  # an existential prefix needs a nonempty active domain
    if conjunct.is_empty:
        return True
    positive_vars: Set[Var] = set()
    for _, terms in conjunct.positives:
        positive_vars.update(t for t in terms if isinstance(t, Var))
    loose = [v for v in conjunct.variables() if v not in positive_vars]
    adom = sorted(set(instance.dom()) | named, key=value_key) if loose else []

    def check(bnd: Dict[Var, Value]) -> bool:
        for rel, terms in conjunct.negatives:
            args = tuple(t if isinstance(t, Const) else bnd[t] for t in terms)
            if Atom(rel, args) in instance:
                return False
        for l, r in conjunct.disequalities:
            lv = l if isinstance(l, Const) else bnd[l]
            rv = r if isinstance(r, Const) else bnd[r]
            if lv == rv:
                return False
        return True

    for bnd in match_conjunction(conjunct.positives, instance):
        if not loose:
            if check(bnd):
                return True
            continue
        for extra in itertools.product(adom, repeat=len(loose)):
            full = dict(bnd)
            full.update(zip(loose, extra))
            if check(full):
                return True
    return False


# ---------------------------------------------------------------- compatibility


@dataclass(frozen=True)
class CandidatePair:
    """A block representative together with an assignment that places one
    positive literal inside its renamed copy.  ``join_pairs`` needs the
    renamed copy; ``CoreEvaluator``'s candidate lists hold the ``BlockRep``
    until a search leaf glues the pair."""

    instance: Union[Instance, BlockRep]
    assignment: Tuple[Tuple[Var, Value], ...]

    def values(self) -> Tuple[Value, ...]:
        return tuple(v for _, v in self.assignment)

    def as_dict(self) -> Dict[Var, Value]:
        return dict(self.assignment)


def compatible_and_relation(
    pairs: Sequence[CandidatePair],
) -> Optional[Dict[Value, FrozenSet[Value]]]:
    """The smallest equivalence relation witnessing compatibility, or None.

    Forced identifications: assignments must agree on shared variables; a
    class may not contain two distinct constants (nor a constant and a null),
    and merging may not collapse two distinct values of one assignment.
    """
    domain: Set[Value] = set()
    for p in pairs:
        domain.update(p.values())
    parent: Dict[Value, Value] = {v: v for v in domain}

    def find(v: Value) -> Value:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: Value, b: Value) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb), key=value_key)
            parent[hi] = lo

    for p1, p2 in itertools.combinations(pairs, 2):
        d1, d2 = p1.as_dict(), p2.as_dict()
        for var in set(d1) & set(d2):
            union(d1[var], d2[var])

    classes: Dict[Value, Set[Value]] = {}
    for v in domain:
        classes.setdefault(find(v), set()).add(v)
    # no class may identify distinct constants, or a constant with a null
    for members in classes.values():
        consts = [v for v in members if isinstance(v, Const)]
        if consts and len(members) > 1:
            return None
    # merging may not identify two distinct values of one assignment
    for p in pairs:
        vals = p.values()
        for a, b in itertools.combinations(set(vals), 2):
            if find(a) == find(b):
                return None
    return {v: frozenset(classes[find(v)]) for v in domain}


def join_pairs(
    pairs: Sequence[CandidatePair],
    relation: Dict[Value, FrozenSet[Value]],
) -> Tuple[Instance, Dict[Var, Value]]:
    """Glue compatible pairs into one instance and one assignment.

    Every equivalence class is collapsed onto its first-seen member (pairs in
    order, variables per pair in name order), which fixes the linear order the
    construction needs.
    """
    order: List[Value] = []
    seen: Set[Value] = set()
    for p in pairs:
        for var, val in sorted(p.assignment, key=lambda it: it[0].name):
            if val not in seen:
                seen.add(val)
                order.append(val)
    rank = {v: i for i, v in enumerate(order)}

    def representative(v: Value) -> Value:
        return min(relation[v], key=lambda u: rank[u])

    glued_atoms: Set[Atom] = set()
    assignment: Dict[Var, Value] = {}
    for p in pairs:
        image_of = {val: representative(val) for val in p.values()}
        remap = {v: image_of.get(v, v) for v in p.instance.dom()}
        glued_atoms.update(apply_map(remap, p.instance).atoms)
        for var, val in p.assignment:
            assignment[var] = image_of[val]
    return Instance(glued_atoms), assignment


# ---------------------------------------------------------------- core evaluation


def _renamed(instance: Instance, tag: str) -> Instance:
    """The instance with its nulls renamed, in canonical order, into
    ``Null(tag, 0)``, ``Null(tag, 1)``, ..."""
    names = {n: Null(tag, j) for j, n in enumerate(sorted(instance.nulls(), key=value_key))}
    return Instance(Atom(a.rel, tuple([names.get(v, v) for v in a.args])) for a in instance.atoms)


# (relation, arity) -> [(representative, anchor, ranks of its anchor nulls)]
AnchorIndex = Dict[Tuple[str, int], List[Tuple[BlockRep, Atom, Dict[Null, int]]]]


class CoreEvaluator:
    """Evaluates existential conjuncts over the minimal possible worlds of a
    fixed packed core.

    Block representatives, deltas on the core, are cached by the context
    constants outside dom(core), the only ones that change the pool.  The
    i-th positive literal of a conjunct is placed in a copy of one whose
    nulls are renamed, in canonical order, into the tag ``cp<i>``.  Once per
    cache key the anchors are indexed by (relation, arity), representatives
    in order and each one's anchors in ``repr`` order, with their nulls'
    ranks in the representative.  A literal is matched against the
    unrenamed anchor (the renaming is injective and a null never equals a
    constant).  Candidate pairs are memoised per (cache key, literal, tag)
    and carry the representative; a leaf renames only those it glues.
    """

    def __init__(self, core: Instance, block_bound: Optional[int] = None):
        if not blocks_packed(core):
            raise PreconditionViolated("NotPacked", "an atom block is not packed")
        if not is_core(core):
            raise PreconditionViolated("NotCore", "the instance is not a core")
        self.core = core
        self.block_bound = block_bound
        self._queries: Dict[FOQuery, tuple] = {}
        self._reps: Dict[FrozenSet[Const], Tuple[BlockRep, ...]] = {}
        self._anchors: Dict[FrozenSet[Const], AnchorIndex] = {}
        self._candidates: Dict[tuple, Tuple[CandidatePair, ...]] = {}
        self._groups: Dict[tuple, Dict[tuple, list]] = {}
        self._paddings: Dict[Tuple[int, int], Instance] = {}
        self._rank = {n: j for j, n in enumerate(sorted(core.nulls(), key=value_key))}
        self._uses = Counter(v for a in core.atoms for v in a.args if isinstance(v, Null))

    def _reps_key(self, constants: Iterable[Const]) -> FrozenSet[Const]:
        return frozenset(constants) - self.core.dom()

    def reps_for(self, constants: Iterable[Const]) -> Tuple[BlockRep, ...]:
        key = self._reps_key(constants)
        if key not in self._reps:
            self._reps[key] = all_block_reps(self.core, key, self.block_bound)
        return self._reps[key]

    def _padding(self, start: int, stop: int) -> Instance:
        """The union of the core's copies ``cp<start + 1>`` to ``cp<stop>``."""
        key = (start, stop)
        if key not in self._paddings:
            self._paddings[key] = Instance(
                a for i in range(start, stop) for a in _renamed(self.core, f"cp{i + 1}").atoms
            )
        return self._paddings[key]

    def _anchor_rank(self, rep: BlockRep) -> Dict[Null, int]:
        """The anchor nulls' canonical ranks in the representative: their
        core ranks less the lacking core nulls below, those only gone atoms
        use (a representative's nulls are all core nulls)."""
        kept = {v: self._rank[v] for a in rep.anchors for v in a.args if isinstance(v, Null)}
        gone = Counter(v for a in rep.gone for v in a.args if isinstance(v, Null))
        lacking = sorted(self._rank[v] for v, k in gone.items()
                         if k == self._uses[v] and v not in kept)
        return {v: r - bisect.bisect_left(lacking, r) for v, r in kept.items()}

    def _anchor_index(
        self, context: Iterable[Const]
    ) -> Tuple[FrozenSet[Const], AnchorIndex]:
        """The cache key of the context and its representatives' anchors."""
        reps = self.reps_for(context)
        key = self._reps_key(context)
        if key not in self._anchors:
            index: AnchorIndex = {}
            for rep in reps:
                rank = self._anchor_rank(rep)
                for anchor in sorted(rep.anchors, key=repr):
                    index.setdefault((anchor.rel, len(anchor.args)), []).append(
                        (rep, anchor, rank)
                    )
            self._anchors[key] = index
        return key, self._anchors[key]

    def _candidate_pairs(
        self,
        key: FrozenSet[Const],
        index: AnchorIndex,
        literal: Tuple[str, Tuple[Term, ...]],
        tag: str,
    ) -> Tuple[CandidatePair, ...]:
        """The places of one positive literal among the indexed anchors,
        holding its constants (anchors are grouped, in index order, by their
        values at those positions), assignments renamed into ``tag``.  An
        assignment fixes its anchor, so no pair repeats."""
        memo_key = (key, literal, tag)
        if memo_key not in self._candidates:
            rel, terms = literal
            consts = tuple(i for i, t in enumerate(terms) if isinstance(t, Const))
            groups = self._groups.get((key, rel, len(terms), consts))
            if groups is None:
                groups = self._groups[key, rel, len(terms), consts] = {}
                for entry in index.get((rel, len(terms)), ()):
                    groups.setdefault(tuple(entry[1].args[i] for i in consts), []).append(entry)
            pairs: List[CandidatePair] = []
            for rep, anchor, rank in groups.get(tuple(terms[i] for i in consts), ()):
                alpha = match_args(terms, anchor.args)
                if alpha is not None:
                    pairs.append(CandidatePair(rep, tuple(
                        (var, Null(tag, rank[v]) if isinstance(v, Null) else v)
                        for var, v in sorted(alpha.items(), key=lambda it: it[0].name)
                    )))
            self._candidates[memo_key] = tuple(pairs)
        return self._candidates[memo_key]

    def conjunct_satisfiable(
        self, conjunct: ExistentialConjunct, context: Iterable[Const] = ()
    ) -> bool:
        """Is there a nonempty finite union of minimal possible worlds of the
        core that satisfies the conjunct?"""
        context = frozenset(context) | frozenset(conjunct.consts())
        if conjunct.is_empty:
            # any nonempty union works; its active domain must be nonempty
            # when the (dropped) existential prefix still quantifies
            return not conjunct.quantified or bool(context) or len(self.core) > 0
        s = conjunct.copy_count
        if conjunct.k == 0:
            return satisfies_conjunct(self._padding(0, s), conjunct, context)

        key, index = self._anchor_index(context)
        candidate_sets: List[Tuple[CandidatePair, ...]] = []
        for i, literal in enumerate(conjunct.positives):
            pairs = self._candidate_pairs(key, index, literal, f"cp{i + 1}")
            if not pairs:
                return False  # a positive literal has no witness anywhere
            candidate_sets.append(pairs)

        padding = self._padding(conjunct.k, s)
        chosen: List[CandidatePair] = []

        def search(i: int, relation: Optional[Dict[Value, FrozenSet[Value]]]) -> bool:
            if i == len(candidate_sets):
                glued, _ = join_pairs([
                    CandidatePair(_renamed(p.instance.instance, f"cp{j + 1}"), p.assignment)
                    for j, p in enumerate(chosen)
                ], relation)
                return satisfies_conjunct(glued.union(padding), conjunct, context)
            for pair in candidate_sets[i]:
                chosen.append(pair)
                relation = compatible_and_relation(chosen)
                if relation is not None and search(i + 1, relation):
                    return True
                chosen.pop()
            return False

        return search(0, None)


# ---------------------------------------------------------------- fast path


def candidate_constants(core: Instance, q: FOQuery) -> Tuple[Const, ...]:
    return tuple(sorted(set(core.consts()) | set(q.consts()), key=value_key))


def _is_certain(
    evaluator: Union[CoreEvaluator, _GeneralEvaluator], q: FOQuery, values: Sequence[Const]
) -> bool:
    """The driver shared by both evaluators: a tuple of candidate constants
    is a certain answer iff no conjunct of the negated query, specialized to
    it, is satisfiable by the evaluator's ``conjunct_satisfiable``; the
    templates and candidate constants are memoised per evaluator and query."""
    if q not in evaluator._queries:
        allowed = frozenset(candidate_constants(evaluator.core, q))
        evaluator._queries[q] = (normalize_negation(q), allowed)
    templates, allowed = evaluator._queries[q]
    if len(values) != q.width or any(v not in allowed for v in values):
        return False
    context = frozenset(q.consts()) | frozenset(values)
    for template in templates:
        conjunct = specialize(template, q.free_vars, values)
        if isinstance(conjunct, Unsatisfiable):
            continue
        if evaluator.conjunct_satisfiable(conjunct, context):
            return False
    return True


def _certain_answers(
    core: Instance, q: FOQuery, is_certain: Callable[[Tuple[Const, ...]], bool]
) -> Set[Tuple[Const, ...]]:
    pool = candidate_constants(core, q)
    return {tup for tup in itertools.product(pool, repeat=q.width) if is_certain(tup)}


def eval_gcwa_star_universal(
    core: Instance,
    q: FOQuery,
    values: Sequence[Const],
    block_bound: Optional[int] = None,
    _evaluator: Optional[CoreEvaluator] = None,
) -> bool:
    """Is the tuple a certain answer of the universal query on the core?

    Polynomial-time path; requires the instance to be a packed core (the
    shape cores of packed-dependency mappings always have).
    """
    return _is_certain(_evaluator or CoreEvaluator(core, block_bound), q, values)


def answers_gcwa_star_universal(
    core: Instance,
    q: FOQuery,
    block_bound: Optional[int] = None,
) -> Set[Tuple[Const, ...]]:
    """All certain answers of a universal query on a packed core."""
    evaluator = CoreEvaluator(core, block_bound)
    return _certain_answers(
        core, q, lambda tup: eval_gcwa_star_universal(core, q, tup, _evaluator=evaluator)
    )


def answers_owa_homclosed(core: Instance, q: FOQuery) -> Set[Tuple[Const, ...]]:
    """Answers of a homomorphism-preserved query on a universal solution:
    evaluate directly and keep the all-constant tuples.  These coincide with
    both the open-world and the union-of-minimal-worlds certain answers."""
    if not is_ucq(q):
        raise NotHomomorphismClosed(
            f"query {q.name} is outside the positive-existential fragment"
        )
    return {t for t in query_answers(q, core) if all_constants(t)}


# ---------------------------------------------------------------- general path
#
# Deterministic realization of the bounded-guess procedure for arbitrary
# st-tgd mappings.  A conjunct is satisfiable over some finite union of
# minimal possible worlds iff there is a witness assignment into the core's
# constants, the conjunct's constants, and a few canonical fresh constants,
# such that every positive literal (and every loose fresh witness value) is
# covered by a minimal-world representative whose null-free atoms avoid the
# negated facts.  Values outside the witness can always be renamed apart
# member by member, so per-member fresh null images never interact.


class _GeneralEvaluator:
    def __init__(self, core: Instance, valuation_cap: int):
        self.core = core
        self.valuation_cap = valuation_cap
        self._queries: Dict[FOQuery, tuple] = {}
        self._cache: Dict[Tuple[FrozenSet[Const], int], tuple] = {}

    def _reps(self, base: FrozenSet[Const], fresh_count: int):
        """The minimal images over base + fresh constants, as a bitset of
        their ids, each atom's and each fresh constant's holders among them
        as such a bitset, and the fresh constants."""
        key = (base, fresh_count)
        if key in self._cache:
            return self._cache[key]
        fresh = tuple(Const(f"#b{i + 1}") for i in range(fresh_count))
        codec, images = legal_images(self.core, base | set(fresh), self.valuation_cap)
        minimal = _minimal_images(images)
        holders = codec.holders(minimal)
        fresh_holders = {
            b: functools.reduce(operator.or_, [h for a, h in holders.items() if b in a.args], 0)
            for b in fresh
        }
        result = ((1 << len(minimal)) - 1, holders, fresh_holders, fresh)
        self._cache[key] = result
        return result

    def conjunct_satisfiable(
        self, conjunct: ExistentialConjunct, context: Iterable[Const] = ()
    ) -> bool:
        if conjunct.is_empty:
            return (
                not conjunct.quantified
                or bool(context)
                or bool(conjunct.consts())
                or len(self.core) > 0
            )
        ys = conjunct.variables()
        base = frozenset(
            set(self.core.consts()) | set(conjunct.consts()) | set(context)
        )
        every, holders, fresh_holders, fresh = self._reps(base, len(ys))
        base_values = sorted(base, key=value_key)

        def ground(term: Term, beta: Dict[Var, Const]) -> Const:
            return term if isinstance(term, Const) else beta[term]

        def check(beta: Dict[Var, Const]) -> bool:
            for l, r in conjunct.disequalities:
                if ground(l, beta) == ground(r, beta):
                    return False
            # the members whose atoms avoid the negated facts; with none
            # left no union is a witness, else the union has a member
            clean = every
            for rel, terms in conjunct.negatives:
                clean &= ~holders.get(Atom(rel, tuple(ground(t, beta) for t in terms)), 0)
            if not clean:
                return False
            covered_fresh: Set[Const] = set()
            for rel, terms in conjunct.positives:
                atom = Atom(rel, tuple(ground(t, beta) for t in terms))
                if not holders.get(atom, 0) & clean:
                    return False
                covered_fresh.update(v for v in atom.args if v in fresh_holders)
            loose = {beta[v] for v in ys if beta[v] in fresh_holders} - covered_fresh
            return all(fresh_holders[b] & clean for b in loose)

        ys_list = list(ys)

        def assign(i: int, beta: Dict[Var, Const], used_fresh: int) -> bool:
            if i == len(ys_list):
                return check(beta)
            var = ys_list[i]
            for v in base_values:
                beta[var] = v
                if assign(i + 1, beta, used_fresh):
                    return True
            for j in range(min(used_fresh + 1, len(fresh))):
                beta[var] = fresh[j]
                if assign(i + 1, beta, max(used_fresh, j + 1)):
                    return True
            del beta[var]
            return False

        if not ys_list:
            return check({})
        return assign(0, {}, 0)


def eval_gcwa_star_universal_general(
    mapping: SchemaMapping,
    source: Instance,
    q: FOQuery,
    values: Sequence[Const],
    valuation_cap: int = GENERAL_VALUATION_CAP,
    _evaluator: Optional[_GeneralEvaluator] = None,
) -> bool:
    """Exponential evaluator for universal queries over any mapping made of
    source-to-target dependencies; packedness is not required."""
    if mapping.egds or mapping.general_constraints:
        raise PreconditionViolated(
            "TargetConstraints", "the general evaluator handles st-tgds only"
        )
    if _evaluator is None:
        _evaluator = _GeneralEvaluator(core_solution(mapping, source), valuation_cap)
    return _is_certain(_evaluator, q, values)


def answers_gcwa_star_universal_general(
    mapping: SchemaMapping,
    source: Instance,
    q: FOQuery,
    valuation_cap: int = GENERAL_VALUATION_CAP,
) -> Set[Tuple[Const, ...]]:
    core = core_solution(mapping, source)
    evaluator = _GeneralEvaluator(core, valuation_cap)
    return _certain_answers(
        core,
        q,
        lambda tup: eval_gcwa_star_universal_general(
            mapping, source, q, tup, _evaluator=evaluator
        ),
    )
