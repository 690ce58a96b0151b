"""Certain-answer evaluation under the union-of-minimal-worlds semantics.

The fast path decides universal queries on a packed core: the negated query
is split into existential conjuncts, and a conjunct is satisfiable over some
finite union of minimal possible worlds iff its positive literals can be
placed on block representatives' anchors, glued compatibly, so that the
assignment the places induce keeps every negated atom out of the witness
(those copies plus a core copy per loose variable) and every disequality
true.  Each literal's places are one cached stream over the blocks
``BlockReps`` finds can map onto it; no witness is built or joined, a leaf
only probes the negated atoms through the representatives' deltas on the
core (``_Witness``).  The general evaluator realizes the same test by
bounded brute force (no packedness needed) and is exponential.

Both paths share one driver, a ``_QueryPlan`` built once per evaluation: a
candidate tuple is specialized into every template of the negated query, and
it is a certain answer iff the backend's ``conjunct_satisfiable`` rejects
them all.  Each backend (``CoreEvaluator``, ``_GeneralEvaluator``) serves
the one pool of constants all tuples read, the core's and the query's.  The
fast path first drops every tuple that is no answer of q on the core itself,
in one ``query_answers`` call: the core, its nulls read as distinct fresh
constants, is one of the minimal worlds (the identity map of each block is a
minimal image), so every certain answer is an answer there.  That call ranges
over dom(core) and the query's constants, a superset of the pool, so it drops
exactly the tuples some template of the negated query holds for on the core.
The general plan drops none, so the two drivers stay independent.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

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
    fresh_constants,
    is_ucq,
    prenex,
    query_answers,
    to_nnf,
)
from .minrep import BlockRep, BlockReps, Replay, _minimal_images, all_block_reps, legal_images
from .model import (
    Atom,
    Const,
    Instance,
    Null,
    SchemaMapping,
    Term,
    Value,
    Var,
    match_args,
    value_key,
)


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


@dataclass(frozen=True)
class ExistentialConjunct:
    """A ground-free-variable conjunct: positive and negated relational
    literals plus disequalities, existentially quantified."""

    positives: Tuple[Tuple[str, Tuple[Term, ...]], ...]
    negatives: Tuple[Tuple[str, Tuple[Term, ...]], ...]
    disequalities: Tuple[Tuple[Term, Term], ...]
    quantified: bool = False  # quantifiers remain even if their literals left

    def _terms(self) -> Iterator[Term]:
        for _, terms in self.positives + self.negatives:
            yield from terms
        for pair in self.disequalities:
            yield from pair

    def variables(self) -> Tuple[Var, ...]:
        return tuple(sorted({t for t in self._terms() if isinstance(t, Var)}, key=lambda v: v.name))

    def consts(self) -> Tuple[Const, ...]:
        return tuple(sorted({t for t in self._terms() if isinstance(t, Const)}, key=value_key))

    @property
    def is_empty(self) -> bool:
        return not (self.positives or self.negatives or self.disequalities)


def normalize_negation(q: FOQuery) -> Tuple[DisjunctTemplate, ...]:
    """Negate a universal query into existential-conjunct templates.

    A disjunct is kept iff it specializes with its free variables unbound
    (``specialize(t, (), ())``): binding them only merges classes, so a disjunct
    contradictory without them (a same-class disequality, distinct
    constants equated, a literal both positive and negated) stays so under
    every tuple.  Positive equalities survive into the templates and are
    resolved by ``specialize``.
    """
    p = prenex(q.body)
    if p is None or any(kind != "forall" for kind, _ in p[0]):
        raise NotUniversal(f"query {q.name} is not a universal query")
    prefix, matrix = p
    negated = to_nnf(matrix, negate=True)
    templates = [_template(literals, bool(prefix)) for literals in dnf_literals(negated)]
    return tuple(t for t in templates if specialize(t, (), ()) is not None)


def _template(literals: Sequence[Formula], quantified: bool) -> DisjunctTemplate:
    """One disjunct's literals, sorted into the template's four kinds."""
    positives: Set[Tuple[str, Tuple[Term, ...]]] = set()
    negatives: Set[Tuple[str, Tuple[Term, ...]]] = set()
    equalities: Set[Tuple[Term, Term]] = set()
    disequalities: Set[Tuple[Term, Term]] = set()
    for lit in literals:
        sub, negated = (lit.sub, True) if isinstance(lit, Not) else (lit, False)
        if isinstance(sub, RelAtom):
            (negatives if negated else positives).add((sub.rel, sub.terms))
        elif isinstance(sub, Eq):
            (disequalities if negated else equalities).add((sub.left, sub.right))
        else:
            raise NotUniversal(f"unexpected literal {lit!r}")
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
) -> Optional[ExistentialConjunct]:
    """Plug a candidate tuple into a template and resolve its equalities by
    unification; the result has no free variables left (those ``free_vars``
    names), or is None if the tuple makes the disjunct contradictory."""
    sub: Dict[Term, Term] = dict(zip(free_vars, values))
    # union-find over terms, constants win as representatives
    parent: Dict[Term, Term] = {}

    def find(t: Term) -> Term:
        t = sub.get(t, t)
        parent.setdefault(t, t)
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for l, r in template.equalities:
        ra, rb = find(l), find(r)
        if ra == rb:
            continue
        if isinstance(ra, Const) and isinstance(rb, Const):
            return None
        if isinstance(ra, Const):
            parent[rb] = ra
        elif isinstance(rb, Const):
            parent[ra] = rb
        else:
            lo, hi = sorted((ra, rb), key=lambda v: v.name)
            parent[hi] = lo

    positives = {(rel, tuple(map(find, terms))) for rel, terms in template.positives}
    negatives = {(rel, tuple(map(find, terms))) for rel, terms in template.negatives}
    if positives & negatives:
        return None
    disequalities = set()
    for l, r in template.disequalities:
        rl, rr = find(l), find(r)
        if rl == rr:
            return None
        if isinstance(rl, Const) and isinstance(rr, Const):
            continue
        disequalities.add(tuple(sorted((rl, rr), key=_term_key)))
    return ExistentialConjunct(
        tuple(sorted(positives, key=_lit_key)),
        tuple(sorted(negatives, key=_lit_key)),
        tuple(sorted(disequalities, key=_pair_key)),
        template.quantified,
    )


# ---------------------------------------------------------------- compatibility


@dataclass(frozen=True)
class CandidatePair:
    """A block representative together with an assignment, in variable-name
    order, that places one positive literal inside its copy."""

    rep: BlockRep
    assignment: Tuple[Tuple[Var, Value], ...]

    def values(self) -> Tuple[Value, ...]:
        return tuple(v for _, v in self.assignment)


def compatible_and_relation(
    pairs: Sequence[CandidatePair],
) -> Optional[Dict[Value, FrozenSet[Value]]]:
    """The smallest equivalence relation witnessing compatibility, or None.

    Forced identifications: assignments must agree on shared variables; a
    class may not contain two distinct constants (nor a constant and a null),
    and merging may not collapse two distinct values of one assignment.
    """
    parent: Dict[Value, Value] = {v: v for p in pairs for v in p.values()}

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

    first: Dict[Var, Value] = {}
    for p in pairs:
        for var, v in p.assignment:
            union(first.setdefault(var, v), v)

    classes: Dict[Value, Set[Value]] = {}
    for v in parent:
        classes.setdefault(find(v), set()).add(v)
    # no class may identify distinct constants, or a constant with a null
    for members in classes.values():
        if len(members) > 1 and any(isinstance(v, Const) for v in members):
            return None
    # merging may not identify two distinct values of one assignment
    for p in pairs:
        values = set(p.values())
        if len({find(v) for v in values}) < len(values):
            return None
    return {v: frozenset(classes[find(v)]) for v in parent}


# ---------------------------------------------------------------- core evaluation


class _Witness:
    """Membership in the witness of one search leaf, read without building
    it: copies ``cp1``..``cpk`` of the chosen representatives, glued along
    the compatibility relation, then ``padding`` copies of the core.  Copy j
    names core null n ``Null(cp<j>, rank of n in the core)``, and a glued
    value reads as the first-seen member of its class (pairs in order,
    variables by name), its entry in ``glue``.  A representative is probed
    as a delta on the core, a padding copy as the core."""

    def __init__(self, evaluator: "CoreEvaluator", chosen: Sequence[CandidatePair],
                 relation: Optional[Dict[Value, FrozenSet[Value]]], padding: int):
        self.images = [p.rep for p in chosen] + [evaluator.core] * padding
        self.copy_of = {f"cp{i + 1}": i for i in range(len(self.images))}
        self.nulls = evaluator._nulls
        first: Dict[Value, int] = {}
        for p in chosen:
            for _, v in p.assignment:
                first.setdefault(v, len(first))
        self.glue = {v: min(relation[v], key=first.__getitem__) for v in first}
        # each glued null's members by copy; a merged-away one has none
        self.members: Dict[Value, Dict[int, Null]] = {v: {} for v in first if isinstance(v, Null)}
        for v in self.members:
            self.members[self.glue[v]][self.copy_of[v.scope]] = self.nulls[v.nid]

    def __contains__(self, atom: Atom) -> bool:
        """Probe each copy holding all the atom's values, under their core
        names there: a constant is held by every copy as itself, a glued
        null by its members' copies, a padding null by its own."""
        places = [None if isinstance(v, Const) else self.members[v] if v in self.members
                  else {self.copy_of[v.scope]: self.nulls[v.nid]} for v in atom.args]
        return any(Atom(atom.rel, tuple([v if m is None else m[i] for v, m in zip(atom.args, places)]))
                   in image for i, image in enumerate(self.images)
                   if all(m is None or i in m for m in places))


def _checked_context(pool: FrozenSet[Const], conjunct: ExistentialConjunct,
                     context: Iterable[Const]) -> FrozenSet[Const]:
    """The constants a conjunct's check ranges over besides the instance's,
    its own and its query's; each must lie in the evaluator's pool."""
    context = frozenset(context) | frozenset(conjunct.consts())
    if not context <= pool:
        outside = ", ".join(c.name for c in sorted(context - pool, key=value_key))
        raise PreconditionViolated(
            "OutsidePool", f"constants outside the evaluator's pool: {outside}")
    return context


class CoreEvaluator:
    """Evaluates existential conjuncts over the minimal possible worlds of a
    fixed packed core, over one pool: the core's constants and ``constants``.

    Block representatives, deltas on the core, are read on demand from the
    pool's one ``BlockReps``, built with the evaluator.  The i-th positive
    literal of a conjunct is placed in copy ``cp<i>`` of a representative,
    which names each core null ``Null(cp<i>, its rank in the core)``.  Its
    candidate pairs are one cached stream per (literal, tag) that reads only
    the blocks able to map onto the literal and matches it against the
    unrenamed anchors (the renaming is injective and a null never equals a
    constant).  Each search leaf, the pairs chosen for all positive literals,
    is decided by ``_leaf`` under the assignment those places induce, with
    no join.  A conjunct or context naming a constant outside the pool raises
    ``PreconditionViolated``.
    """

    def __init__(self, core: Instance, constants: Iterable[Const]):
        if not blocks_packed(core):
            raise PreconditionViolated("NotPacked", "an atom block is not packed")
        if not is_core(core):
            raise PreconditionViolated("NotCore", "the instance is not a core")
        self.core = core
        self.pool = frozenset(core.consts()) | frozenset(constants)
        self.blocks = BlockReps(core, self.pool)
        self._reps: Dict[FrozenSet[Const], Tuple[BlockRep, ...]] = {}
        self._pairs: Dict[Tuple[Tuple[str, Tuple[Term, ...]], str], Replay] = {}
        self._nulls = sorted(core.nulls(), key=value_key)
        self._rank = {n: j for j, n in enumerate(self._nulls)}
        self._ground = frozenset(a for a in core.atoms if a.is_ground)
        self._pool = sorted(self.pool, key=value_key)

    def _reps_key(self, constants: Iterable[Const]) -> FrozenSet[Const]:
        return frozenset(constants) - self.core.dom()

    def reps_for(self, constants: Iterable[Const]) -> Tuple[BlockRep, ...]:
        key = self._reps_key(constants)
        if key not in self._reps:
            self._reps[key] = all_block_reps(self.core, key)
        return self._reps[key]

    def _candidate_pairs(self, literal: Tuple[str, Tuple[Term, ...]], tag: str) -> Replay:
        """The cached stream of one positive literal's places."""
        if (literal, tag) not in self._pairs:
            self._pairs[literal, tag] = Replay(self._places(literal, tag))
        return self._pairs[literal, tag]

    def _places(self, literal: Tuple[str, Tuple[Term, ...]], tag: str) -> Iterator[CandidatePair]:
        """The places of one positive literal among the anchors, renamed into
        ``tag``: representatives block by block, each once, anchors in
        ``repr`` order, over the blocks that reach the literal."""
        rel, terms = literal
        seen: Set[BlockRep] = set()
        blocks = self.blocks
        for rep in itertools.chain.from_iterable(map(blocks.reps, blocks.reaching_blocks(rel, terms))):
            if rep in seen:
                continue
            seen.add(rep)
            for anchor in sorted(rep.anchors, key=repr):
                same_shape = anchor.rel == rel and len(anchor.args) == len(terms)
                alpha = match_args(terms, anchor.args) if same_shape else None
                if alpha is not None:
                    yield CandidatePair(rep, tuple(
                        (var, Null(tag, self._rank[v]) if isinstance(v, Null) else v)
                        for var, v in sorted(alpha.items(), key=lambda it: it[0].name)
                    ))

    def conjunct_satisfiable(
        self, conjunct: ExistentialConjunct, context: Iterable[Const] = ()
    ) -> bool:
        """Is there a nonempty finite union of minimal possible worlds of the
        core that satisfies the conjunct?"""
        context = _checked_context(self.pool, conjunct, context)
        if conjunct.is_empty:  # it holds on a union of minimal worlds iff on the core
            return not conjunct.quantified or bool(context or self.core.dom())
        if any(Atom(rel, terms) in self._ground for rel, terms in conjunct.negatives):
            return False  # every minimal world holds the core's ground atoms
        candidate_sets: List[Replay] = []
        for i, literal in enumerate(conjunct.positives):
            pairs = self._candidate_pairs(literal, f"cp{i + 1}")
            if next(iter(pairs), None) is None:
                return False  # a positive literal has no witness anywhere
            candidate_sets.append(pairs)

        chosen: List[CandidatePair] = []

        def search(i: int, relation: Optional[Dict[Value, FrozenSet[Value]]]) -> bool:
            if i == len(candidate_sets):
                return self._leaf(chosen, relation, conjunct)
            for pair in candidate_sets[i]:
                chosen.append(pair)
                relation = compatible_and_relation(chosen)
                if relation is not None and search(i + 1, relation):
                    return True
                chosen.pop()
            return False

        return search(0, None)

    def _leaf(self, chosen: Sequence[CandidatePair], relation: Optional[Dict[Value, FrozenSet[Value]]],
              conjunct: ExistentialConjunct) -> bool:
        """Does the conjunct hold on the leaf's witness under the assignment
        its places induce?  A variable of a positive literal takes its pairs'
        glued value, so the positive literals hold by construction; only the
        negated atoms (by witness membership) and the disequalities are
        tested.  The witness is the chosen copies plus one padding copy of
        the core per loose variable (one in no positive literal), at least
        one copy in all; the j-th loose variable ranges over the pool, as in
        the general evaluator, and the nulls of its own padding copy.

        Per conjunct this is the paper's padded-witness test.  Sound: each
        copy is a minimal world renamed apart and glued compatibly, and each
        pool constant lies in every world or is named by the query.
        Complete: given a padded witness W and a binding satisfying the
        conjunct there, place each positive literal on the atom the binding
        uses if it is an anchor of its copy's representative, else on the
        identity representative of the core block holding it (a core is a
        minimal image of itself), and give each loose variable its value if
        that is a constant (W's all lie in the pool), else the null of its
        own padding copy at the rank of its value.  That leaf's witness maps
        into W by a homomorphism fixing constants and sending its assignment
        to the binding (a renaming on a reused representative; on a core
        copy standing for a representative, its block map and retraction),
        so every negated atom and disequality the binding keeps, the leaf
        keeps."""
        beta: Dict[Term, Value] = {var: v for p in chosen for var, v in p.assignment}
        loose = [v for v in conjunct.variables() if v not in beta]
        witness = _Witness(self, chosen, relation, len(loose) if loose or chosen else 1)
        beta = {var: witness.glue[v] for var, v in beta.items()}
        ranges = [self._pool + [Null(f"cp{len(chosen) + j}", r) for r in range(len(self._nulls))]
                  for j in range(1, len(loose) + 1)]
        for values in itertools.product(*ranges):
            beta.update(zip(loose, values))
            if all(beta.get(l, l) != beta.get(r, r) for l, r in conjunct.disequalities) and not any(
                Atom(rel, tuple([beta.get(t, t) for t in terms])) in witness
                for rel, terms in conjunct.negatives
            ):
                return True
        return False


# ---------------------------------------------------------------- fast path


class _QueryPlan:
    """One evaluation of a universal query, built once and read by every
    candidate tuple: the negated query's templates, the backend's pool in
    order and the backend, built for the query, that searches them."""

    def __init__(self, evaluator: Union[CoreEvaluator, _GeneralEvaluator], q: FOQuery):
        self.q, self.evaluator = q, evaluator
        self.templates = normalize_negation(q)
        self.pool = tuple(sorted(evaluator.pool, key=value_key))

    def is_certain(self, values: Sequence[Const]) -> bool:
        """A tuple of candidate constants is a certain answer iff no conjunct
        of the negated query, specialized to it once, is satisfiable by the
        backend's ``conjunct_satisfiable``."""
        q, values = self.q, tuple(values)
        if len(values) != q.width or not self.evaluator.pool.issuperset(values):
            return False
        context = frozenset(q.consts()) | frozenset(values)
        conjuncts = [c for c in (specialize(t, q.free_vars, values) for t in self.templates)
                     if c is not None]
        return not any(self.evaluator.conjunct_satisfiable(c, context) for c in conjuncts)


def eval_gcwa_star_universal(
    core: Instance,
    q: FOQuery,
    values: Sequence[Const],
    _plan: Optional[_QueryPlan] = None,
) -> bool:
    """Is the tuple a certain answer of the universal query on the core?

    Polynomial-time path; requires the instance to be a packed core (the
    shape cores of packed-dependency mappings always have).  A tuple that is
    no answer of q on the core itself is refuted there, without a block
    search; a caller passing ``_plan`` has refuted such tuples already.
    """
    if _plan is None:
        _plan = _QueryPlan(CoreEvaluator(core, q.consts()), q)
        values = tuple(values)
        if values not in query_answers(q, core, {values}):
            return False
    return _plan.is_certain(values)


def answers_gcwa_star_universal(core: Instance, q: FOQuery) -> Set[Tuple[Const, ...]]:
    """All certain answers of a universal query on a packed core: the pool
    tuples that answer q on the core, each searched in ``product`` order."""
    plan = _QueryPlan(CoreEvaluator(core, q.consts()), q)
    tuples = list(itertools.product(plan.pool, repeat=q.width))
    held = query_answers(q, core, set(tuples))
    return {tup for tup in tuples if tup in held and eval_gcwa_star_universal(core, q, tup, _plan=plan)}


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
    """The general backend over one pool, the core's constants and
    ``constants``, with its minimal images cached per fresh-value count."""

    def __init__(self, core: Instance, constants: Iterable[Const]):
        self.core = core
        self.pool = frozenset(core.consts()) | frozenset(constants)
        self._images: Dict[int, tuple] = {}

    def _reps(self, fresh_count: int):
        """The minimal images over the pool + fresh constants, as a bitset
        of their ids, each atom's and each fresh constant's holders among
        them as such a bitset, and the fresh constants."""
        if fresh_count not in self._images:
            fresh = fresh_constants(fresh_count, "b")
            codec, images = legal_images(self.core, self.pool | set(fresh))
            minimal = _minimal_images(images)
            holders = codec.holders(minimal)
            fresh_holders = {
                b: functools.reduce(operator.or_, [h for a, h in holders.items() if b in a.args], 0)
                for b in fresh
            }
            self._images[fresh_count] = ((1 << len(minimal)) - 1, holders, fresh_holders, fresh)
        return self._images[fresh_count]

    def conjunct_satisfiable(
        self, conjunct: ExistentialConjunct, context: Iterable[Const] = ()
    ) -> bool:
        context = _checked_context(self.pool, conjunct, context)
        if conjunct.is_empty:  # it holds on a union of minimal worlds iff on the core
            return not conjunct.quantified or bool(context or self.core.dom())
        ys = conjunct.variables()
        every, holders, fresh_holders, fresh = self._reps(len(ys))
        base_values = sorted(self.pool, key=value_key)

        def check(beta: Dict[Var, Const]) -> bool:
            if any(beta.get(l, l) == beta.get(r, r) for l, r in conjunct.disequalities):
                return False
            # the members whose atoms avoid the negated facts; with none
            # left no union is a witness, else the union has a member
            clean = every
            for rel, terms in conjunct.negatives:
                clean &= ~holders.get(Atom(rel, tuple(beta.get(t, t) for t in terms)), 0)
            if not clean:
                return False
            covered_fresh: Set[Const] = set()
            for rel, terms in conjunct.positives:
                atom = Atom(rel, tuple(beta.get(t, t) for t in terms))
                if not holders.get(atom, 0) & clean:
                    return False
                covered_fresh.update(v for v in atom.args if v in fresh_holders)
            loose = {beta[v] for v in ys if beta[v] in fresh_holders} - covered_fresh
            return all(fresh_holders[b] & clean for b in loose)

        def assign(i: int, beta: Dict[Var, Const], used_fresh: int) -> bool:
            if i == len(ys):
                return check(beta)
            var = ys[i]
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

        return assign(0, {}, 0)


def eval_gcwa_star_universal_general(
    mapping: SchemaMapping,
    source: Instance,
    q: FOQuery,
    values: Sequence[Const],
) -> bool:
    """Exponential evaluator for universal queries over any mapping made of
    source-to-target dependencies (``core_solution`` refuses any other);
    packedness is not required."""
    plan = _QueryPlan(_GeneralEvaluator(core_solution(mapping, source), q.consts()), q)
    return plan.is_certain(values)


def answers_gcwa_star_universal_general(
    mapping: SchemaMapping,
    source: Instance,
    q: FOQuery,
) -> Set[Tuple[Const, ...]]:
    plan = _QueryPlan(_GeneralEvaluator(core_solution(mapping, source), q.consts()), q)
    return set(filter(plan.is_certain, itertools.product(plan.pool, repeat=q.width)))
