import itertools
import random
import types

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dx import (
    Atom,
    Const,
    Instance,
    Null,
    Var,
    answers_gcwa_star_universal,
    answers_gcwa_star_universal_general,
    answers_owa_homclosed,
    answers_semantics,
    atom_in_some_minimal,
    core_solution,
    enum_min_c,
    eval_gcwa_star_universal,
    eval_gcwa_star_universal_general,
    instances_isomorphic,
    normalize_negation,
    parse_query,
    specialize,
)
from dx.errors import (
    BudgetExceeded,
    NotHomomorphismClosed,
    NotUniversal,
    PreconditionViolated,
)
from dx.gcwa import (
    CandidatePair,
    CoreEvaluator,
    DisjunctTemplate,
    ExistentialConjunct,
    _GeneralEvaluator,
    _QueryPlan,
    compatible_and_relation,
)
import dx.corelib
import dx.gcwa
import dx.minrep
from dx.corelib import is_core
from dx.logic import (
    And, Eq, Exists, FOQuery, Forall, Not, RelAtom, dnf_literals, eval_fo, prenex, query_answers, to_nnf,
)
from dx.model import apply_map, value_key
from dx.oracle import Budget
from dx.randgen import (
    gen_packed_mapping,
    gen_source,
    gen_universal_query,
    random_triples,
    three_way,
)
from dx.textio import SourceText

import families
from families import EF_MAP, FAMILIES, TWO_NULL_MAP, chain_source, ef_chain, fan
from fixtures import (
    AGREE59_CORE,
    AGREE59_MAP,
    AGREE59_QUERY,
    AGREE59_SRC,
    CLQ_MAP,
    CLQ_QUERY,
    COPY_MAP,
    COPY_QUERY,
    COPY_SRC,
    EF_Q2,
    EF_Q3,
    EF_SRC,
    EF_UCQ,
    LEQ1_MAP,
    LEQ2_MAP,
    LEQ_QUERY,
    LEQ_SRC,
    NAF_INSTANCE,
    PE_MAP,
    E_SCHEMA,
    clique_source,
    instance,
    mapping,
    query,
)

a, b, c = Const("a"), Const("b"), Const("c")
x, y, z = Var("x"), Var("y"), Var("z")


def satisfies_conjunct(instance, conjunct, context=()):
    """The conjunct reference: the conjunct read as one exists-formula and
    evaluated by ``eval_fo`` over dom(I), its constants and ``context``
    (the constants of the query it came from, whose quantifiers range over
    them too).  A quantified conjunct needs a nonempty domain, even with no
    literal left."""
    adom = tuple(instance.dom() | set(conjunct.consts()) | set(context))
    if conjunct.quantified and not adom:
        return False
    body = And((*(RelAtom(rel, terms) for rel, terms in conjunct.positives),
                *(Not(RelAtom(rel, terms)) for rel, terms in conjunct.negatives),
                *(Not(Eq(l, r)) for l, r in conjunct.disequalities)))
    for var in conjunct.variables():
        body = Exists(var, body)
    return eval_fo(body, instance, adom=adom)


# ------------------------------------------------------------- normalization


def test_normalize_single_negative_disjunct():
    q = FOQuery("q", (), Forall(z, RelAtom("E", (z, z))))
    templates = normalize_negation(q)
    assert len(templates) == 1
    assert templates[0].negatives and not templates[0].positives


def test_normalize_clique_reduction_query():
    m = mapping(CLQ_MAP)
    q = query(CLQ_QUERY, m.target)
    templates = normalize_negation(q)
    assert len(templates) == 1
    t = templates[0]
    assert len(t.positives) == 3 and len(t.negatives) == 1


def test_normalize_copy_query_two_disjuncts():
    m = mapping(COPY_MAP)
    q = query(COPY_QUERY, m.target)
    templates = normalize_negation(q)
    assert len(templates) == 2
    shapes = sorted(
        (len(t.positives), len(t.negatives), len(t.disequalities)) for t in templates
    )
    assert shapes == [(0, 1, 0), (1, 0, 1)]


def test_normalize_rejects_non_universal():
    with pytest.raises(NotUniversal):
        normalize_negation(FOQuery("q", (), Exists(z, RelAtom("E", (z, z)))))


def test_normalized_negation_agrees_with_direct_eval():
    # mechanical check: a disjunct is satisfied on an instance iff the
    # negated query is
    rng = random.Random(9)
    for _ in range(60):
        q = gen_universal_query(rng, free_count=0)
        templates = normalize_negation(q)
        inst = Instance(
            Atom(rng.choice(["E", "F"]), (rng.choice([a, b]), rng.choice([a, b])))
            for _ in range(rng.randint(1, 4))
        )
        by_templates = False
        for t in templates:
            conj = specialize(t, (), ())
            if conj is None:
                continue
            if satisfies_conjunct(inst, conj, q.consts()):
                by_templates = True
                break
        assert by_templates == (not eval_fo(q.body, inst))


# ------------------------------------------------------------- specialize


def test_specialize_substitutes_constants():
    m = mapping(COPY_MAP)
    q = query(COPY_QUERY, m.target)
    templates = normalize_negation(q)
    neg = [t for t in templates if t.negatives][0]
    conj = specialize(neg, q.free_vars, (a, b))
    assert conj.negatives == (("Rp", (a, b)),)


def test_specialize_resolves_equalities():
    template_eq = normalize_negation(
        FOQuery("q", (x, y), Forall(z, Not(Eq(x, y))))
    )[0]
    assert template_eq.equalities
    merged = specialize(template_eq, (x, y), (a, a))
    assert merged is not None and merged.is_empty is True
    assert specialize(template_eq, (x, y), (a, b)) is None


# ------------------------------------------------------------- template rules reference


def _old_template(literals, quantified):
    """The template rules that ``normalize_negation`` applied before it kept
    a disjunct iff it unifies unbound: trivially true literals skipped, and
    None for a disjunct with t != t, distinct constants equated or a literal
    both positive and negated."""
    positives, negatives, equalities, disequalities = set(), set(), set(), set()
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
                return None
            equalities.add((l, r))
        else:
            l, r = lit.sub.left, lit.sub.right
            if l == r:
                return None
            if isinstance(l, Const) and isinstance(r, Const):
                continue
            disequalities.add((l, r))
    if positives & negatives:
        return None
    lit_key, pair_key = dx.gcwa._lit_key, dx.gcwa._pair_key
    return DisjunctTemplate(
        tuple(sorted(positives, key=lit_key)),
        tuple(sorted(negatives, key=lit_key)),
        tuple(sorted(equalities, key=pair_key)),
        tuple(sorted(disequalities, key=pair_key)),
        quantified,
    )


def _old_normalize(q):
    prefix, matrix = prenex(q.body)
    templates = (_old_template(lits, bool(prefix)) for lits in dnf_literals(to_nnf(matrix, negate=True)))
    return [t for t in templates if t is not None]


def test_normalize_negation_matches_the_old_template_rules():
    # the conjuncts that survive specialization are the old rules' ones, for
    # every tuple over the draw's constants plus a and b; the templates the
    # old rules kept but no tuple can satisfy are now dropped up front
    rng, tuples, dropped = random.Random(24), 0, 0
    for draw in range(5000):
        q = gen_universal_query(rng, free_count=draw % 3)
        old, new = _old_normalize(q), normalize_negation(q)
        assert len(new) <= len(old)
        dropped += len(old) - len(new)
        for tup in itertools.product(sorted(set(q.consts()) | {a, b}, key=value_key), repeat=q.width):
            alive = [[c for c in (specialize(t, q.free_vars, tup) for t in templates) if c is not None]
                     for templates in (old, new)]
            assert alive[0] == alive[1], (q, tup)
            tuples += 1
    assert tuples > 10000 and dropped > 10, (tuples, dropped)


_TERMS = st.sampled_from([x, y, z, a, b])
_LITERALS = st.lists(st.tuples(st.sampled_from(["E", "F"]), st.tuples(_TERMS, _TERMS)), max_size=2)
_PAIRS = st.lists(st.tuples(_TERMS, _TERMS), max_size=2)


@settings(max_examples=300, deadline=None)
@given(positives=_LITERALS, negatives=_LITERALS, equalities=_PAIRS, disequalities=_PAIRS,
       sub=st.dictionaries(st.sampled_from([x, y]), st.sampled_from([a, b, c])))
def test_a_disjunct_dead_unbound_is_dead_under_every_substitution(
    positives, negatives, equalities, disequalities, sub
):
    # a substitution only merges classes, so it cannot revive a disjunct
    template = DisjunctTemplate(tuple(positives), tuple(negatives), tuple(equalities), tuple(disequalities))
    if specialize(template, (), ()) is None:
        assert specialize(template, tuple(sub), tuple(sub.values())) is None


# ------------------------------------------------------------- materializing reference
#
# The paper's search leaf as a whole instance: each chosen representative
# rebuilt, renamed into its copy's tag and glued along the compatibility
# relation, then unioned with padding copies of the core, and the conjunct
# joined over all of it.  ``CoreEvaluator._leaf`` decides a leaf under the
# one assignment its places induce, so it may say False where the join
# finds another binding; the replay tests below hold every leaf it accepts
# to the reference, and every search's verdict to the reference search's.


def _core_rank(core):
    return {n: j for j, n in enumerate(sorted(core.nulls(), key=value_key))}


def _renamed(inst, tag, rank):
    """The instance with each null n renamed ``Null(tag, rank[n])``."""
    return Instance(
        Atom(at.rel, tuple(Null(tag, rank[v]) if isinstance(v, Null) else v for v in at.args))
        for at in inst.atoms
    )


def join_pairs(pairs, relation):
    """Glue compatible pairs, each holding a renamed copy as its ``rep``,
    into one instance and one assignment.  Every equivalence class is
    collapsed onto its first-seen member (pairs in order, variables per
    pair in name order)."""
    order, seen = [], set()
    for p in pairs:
        for var, val in sorted(p.assignment, key=lambda it: it[0].name):
            if val not in seen:
                seen.add(val)
                order.append(val)
    rank = {v: i for i, v in enumerate(order)}

    def representative(v):
        return min(relation[v], key=lambda u: rank[u])

    glued_atoms, assignment = set(), {}
    for p in pairs:
        image_of = {val: representative(val) for val in p.values()}
        remap = {v: image_of.get(v, v) for v in p.rep.dom()}
        glued_atoms.update(apply_map(remap, p.rep).atoms)
        for var, val in p.assignment:
            assignment[var] = image_of[val]
    return Instance(glued_atoms), assignment


def _copy_count(conjunct):
    """The paper's witness size: one copy per positive literal, per
    position of a negated atom and per side of a disequality."""
    return (len(conjunct.positives) + sum(len(terms) for _, terms in conjunct.negatives)
            + 2 * len(conjunct.disequalities))


def _materialized_leaf(core, chosen, relation, conjunct, context):
    rank = _core_rank(core)
    glued, _ = join_pairs([
        CandidatePair(_renamed(p.rep.whole(), f"cp{j + 1}", rank), p.assignment)
        for j, p in enumerate(chosen)
    ], relation)
    padding = Instance(
        at for i in range(len(chosen), _copy_count(conjunct))
        for at in _renamed(core, f"cp{i + 1}", rank).atoms
    )
    return satisfies_conjunct(glued.union(padding), conjunct, context)


def _reference_search(evaluator, conjunct, context):
    """``conjunct_satisfiable`` over the materializing leaf: its result and
    the leaves it visits, each as (chosen pairs, result)."""
    context = frozenset(context) | frozenset(conjunct.consts())
    leaves = []

    def leaf(chosen, relation):
        result = _materialized_leaf(evaluator.core, chosen, relation, conjunct, context)
        leaves.append((tuple(chosen), result))
        return result

    if conjunct.is_empty:
        return not conjunct.quantified or bool(context) or len(evaluator.core) > 0, leaves
    if not conjunct.positives:
        return leaf((), {}), leaves
    candidate_sets = [
        list(evaluator._candidate_pairs(literal, f"cp{i + 1}"))
        for i, literal in enumerate(conjunct.positives)
    ]
    if not all(candidate_sets):
        return False, leaves
    chosen = []

    def search(i):
        if i == len(candidate_sets):
            return leaf(chosen, compatible_and_relation(chosen))
        for pair in candidate_sets[i]:
            chosen.append(pair)
            if compatible_and_relation(chosen) is not None and search(i + 1):
                return True
            chosen.pop()
        return False

    return search(0), leaves


def _candidates(core, q):
    """The candidate constants of a query on a core, in order."""
    return sorted(set(core.consts()) | set(q.consts()), key=value_key)


def _search_answers(core, q):
    """The certain answers by the block search alone: each candidate
    tuple's specialized conjuncts all go to ``conjunct_satisfiable``, none
    tried on the core first, so the search's work is counted on every
    tuple the full path would refute on the core."""
    evaluator, templates = CoreEvaluator(core, q.consts()), normalize_negation(q)
    answers = set()
    for tup in itertools.product(_candidates(core, q), repeat=q.width):
        context = frozenset(q.consts()) | frozenset(tup)
        conjuncts = [specialize(t, q.free_vars, tup) for t in templates]
        if not any(evaluator.conjunct_satisfiable(c, context)
                   for c in conjuncts if c is not None):
            answers.add(tup)
    return answers


@pytest.fixture
def leaf_replay(monkeypatch):
    """Replays every search leaf ``CoreEvaluator`` accepts on the
    materializing reference, and every ``conjunct_satisfiable`` call on the
    reference search; returns the number of leaves the reference visits per
    call.  Only verdicts are compared, not the leaves visited: a leaf the
    reference accepts through another binding may be rejected, and the
    search then walks further."""
    checked, contexts = [], []
    leaf, satisfiable = CoreEvaluator._leaf, CoreEvaluator.conjunct_satisfiable

    def replayed_leaf(self, chosen, relation, conjunct):
        result = leaf(self, chosen, relation, conjunct)
        if result:
            assert _materialized_leaf(self.core, chosen, relation, conjunct, contexts[-1]), conjunct
        return result

    def replayed(self, conjunct, context=()):
        contexts.append(frozenset(context))
        result = satisfiable(self, conjunct, context)
        expected, leaves = _reference_search(self, conjunct, context)
        assert result == expected, conjunct
        checked.append(len(leaves))
        return result

    monkeypatch.setattr(CoreEvaluator, "_leaf", replayed_leaf)
    monkeypatch.setattr(CoreEvaluator, "conjunct_satisfiable", replayed)
    return checked


# ------------------------------------------------------------- compatibility


def _pair(inst_atoms, assignment):
    return CandidatePair(Instance(inst_atoms), tuple(sorted(assignment.items(), key=lambda kv: kv[0].name)))


def test_compatible_constants_match():
    p1 = _pair([Atom("E", (c, c))], {x: c})
    p2 = _pair([Atom("F", (c, c))], {x: c})
    rel = compatible_and_relation([p1, p2])
    assert rel is not None and rel[c] == frozenset({c})


def test_incompatible_distinct_constants():
    p1 = _pair([Atom("E", (a, a))], {x: a})
    p2 = _pair([Atom("E", (b, b))], {x: b})
    assert compatible_and_relation([p1, p2]) is None


def test_incompatible_forced_null_merge():
    # one assignment keeps two nulls distinct, the other folds them together
    na, nb, nc = Null("p", 1), Null("p", 2), Null("q", 1)
    p1 = _pair([Atom("E", (na, nb))], {x: na, y: nb})
    p2 = _pair([Atom("E", (nc, nc))], {x: nc, y: nc})
    assert compatible_and_relation([p1, p2]) is None


def test_join_identifies_shared_variable_values():
    na, nb = Null("p", 1), Null("q", 1)
    p1 = _pair([Atom("E", (a, na))], {x: na})
    p2 = _pair([Atom("F", (nb, b))], {x: nb})
    rel = compatible_and_relation([p1, p2])
    assert rel is not None
    glued, assignment = join_pairs([p1, p2], rel)
    image = assignment[x]
    assert glued == Instance([Atom("E", (a, image)), Atom("F", (image, b))])


def test_join_single_pair_is_identity():
    na = Null("p", 1)
    p1 = _pair([Atom("E", (a, na))], {x: na})
    rel = compatible_and_relation([p1])
    glued, assignment = join_pairs([p1], rel)
    assert glued == p1.rep and assignment[x] == na


# ------------------------------------------------------------- core evaluation


def _ef_core():
    m = mapping(EF_MAP)
    return core_solution(m, instance(EF_SRC, m.source))


def test_core_eval_three_distinct_successors():
    core = _ef_core()
    q = query(EF_Q2, mapping(EF_MAP).target)
    template = normalize_negation(q)[0]
    conj = specialize(template, (), ())
    assert CoreEvaluator(core, q.consts()).conjunct_satisfiable(conj, q.consts())


def test_core_eval_f_atoms_always_end_in_b():
    core = _ef_core()
    q = query(EF_Q3, mapping(EF_MAP).target)
    template = normalize_negation(q)[0]
    conj = specialize(template, (), ())
    assert not CoreEvaluator(core, q.consts()).conjunct_satisfiable(conj, q.consts())


def test_core_eval_ground_core():
    core = Instance([Atom("Rp", (a, b))])
    q = FOQuery("q", (), Forall(z, Not(RelAtom("Rp", (a, b)))))
    template = normalize_negation(q)[0]
    conj = specialize(template, (), ())
    assert CoreEvaluator(core, q.consts()).conjunct_satisfiable(conj, q.consts())


def test_core_eval_rejects_unpacked():
    with pytest.raises(PreconditionViolated):
        CoreEvaluator(instance(NAF_INSTANCE, E_SCHEMA), ())


def test_core_eval_rejects_non_core():
    n1, n2 = Null("t", 1), Null("t", 2)
    with pytest.raises(PreconditionViolated):
        CoreEvaluator(Instance([Atom("E", (a, n1)), Atom("E", (a, n2))]), ())


def _reference_pairs(core, reps, literal, tag):
    """Candidate pairs the way the renaming-first construction builds them:
    rename every representative whole into ``tag`` (each null by its rank
    in the core), match the literal on each renamed anchor (representatives
    in order, anchors in ``repr`` order) and keep the first of equal
    (instance, assignment) pairs."""
    rel, terms = literal
    rank = _core_rank(core)
    out = []
    for rep in reps:
        whole = rep.whole()
        remap = {c: c for c in whole.consts()}
        for n in whole.nulls():
            remap[n] = Null(tag, rank[n])
        renamed = apply_map(remap, whole)
        for anchor in sorted(rep.anchors, key=repr):
            args = tuple(remap[v] for v in anchor.args)
            if anchor.rel != rel or len(args) != len(terms):
                continue
            alpha = {}
            for t, v in zip(terms, args):
                if (t != v) if isinstance(t, Const) else (alpha.setdefault(t, v) != v):
                    break
            else:
                pair = (renamed, tuple(sorted(alpha.items(), key=lambda it: it[0].name)))
                if pair not in out:
                    out.append(pair)
    return out


def _probe_literals(core, outside):
    """Positive literals over the core's relations: all-distinct variables,
    one repeated variable, and a constant (of the core, or outside it) in
    each position."""
    consts = sorted(core.consts(), key=value_key)[:2] + [outside]
    shapes = {(a.rel, len(a.args)) for a in core.atoms}
    out = []
    for rel, arity in sorted(shapes):
        names = [Var(f"v{i}") for i in range(arity)]
        out.append((rel, tuple(names)))
        out.append((rel, tuple(names[:1] * arity)))
        for pos in range(arity):
            for c in consts:
                out.append((rel, tuple(c if i == pos else t for i, t in enumerate(names))))
    return out


def _packed_cores():
    yield _ef_core()
    for m_text, s_text in ((COPY_MAP, COPY_SRC), (LEQ2_MAP, LEQ_SRC)):
        m = mapping(m_text)
        yield core_solution(m, instance(s_text, m.source))
    m = mapping(CLQ_MAP)
    for edges in ([(1, 2), (1, 3), (2, 3)], [(1, 2), (2, 3)]):
        yield core_solution(m, instance(clique_source(edges), m.source))
    yield EF_CHAIN.build(8)[2]
    # both blocks map onto R(a,a) and retract each other: one representative
    # twice, which a literal's places list once
    yield Instance([Atom("R", (Null("t", 1), a)), Atom("R", (a, Null("t", 2)))])
    rng = random.Random(2024)
    made = 0
    while made < 30:
        m = gen_packed_mapping(rng)
        core = core_solution(m, gen_source(rng, max_atoms=5))
        if core.nulls():
            made += 1
            yield core


def test_candidate_pairs_match_renaming_first_reference():
    checked = 0
    for core in _packed_cores():
        rank = _core_rank(core)
        outside = Const("zz")
        for context in (frozenset(), frozenset([outside])):
            evaluator = CoreEvaluator(core, context)
            reps = evaluator.reps_for(context)
            for literal in _probe_literals(core, outside):
                for tag in ("cp1", "cp2"):
                    got, pairs = [], list(evaluator._candidate_pairs(literal, tag))
                    assert len(set(pairs)) == len(pairs), (core, literal)
                    for p in pairs:
                        pair = (_renamed(p.rep.whole(), tag, rank), p.assignment)
                        if pair not in got:  # reps equal after renaming
                            got.append(pair)
                    assert got == _reference_pairs(core, reps, literal, tag), (core, literal, tag)
                    checked += len(got)
    assert checked > 1000


def _random_conjuncts(rng, core, count):
    """Conjuncts over the core's relations: up to two positive and one
    negated literal and one disequality, over three variables and constants
    of the core and outside it, so that some variables are loose."""
    shapes = sorted({(at.rel, len(at.args)) for at in core.atoms})
    terms = [Var("u1"), Var("u2"), Var("u3")] + sorted(core.consts(), key=value_key)[:2] + [Const("zz")]

    def term():
        return rng.choice(terms[:3]) if rng.random() < 0.75 else rng.choice(terms[3:])

    def literal():
        rel, arity = rng.choice(shapes)
        return rel, tuple(term() for _ in range(arity))

    for _ in range(count):
        positives = tuple(dict.fromkeys(literal() for _ in range(rng.randint(0, 2))))
        negatives = tuple(lit for lit in [literal()][: rng.randint(0, 1)] if lit not in positives)
        pairs = [(term(), term())][: rng.randint(0, 1)]
        disequalities = tuple((l, r) for l, r in pairs if l != r)
        yield ExistentialConjunct(positives, negatives, disequalities, rng.random() < 0.5)


def test_leaves_match_materializing_reference_on_packed_cores(leaf_replay):
    # one evaluator per pool: the core's constants, with zz or without
    rng, zz = random.Random(17), Const("zz")
    for core in _packed_cores():
        evaluators = (CoreEvaluator(core, ()), CoreEvaluator(core, [zz]))
        for conjunct in _random_conjuncts(rng, core, 25):
            for context in (frozenset(), frozenset([zz])):
                evaluator = evaluators[zz in context or zz in conjunct.consts()]
                evaluator.conjunct_satisfiable(conjunct, context)
    assert len(leaf_replay) > 1500 and sum(leaf_replay) > 1500, (len(leaf_replay), sum(leaf_replay))


def test_leaves_match_materializing_reference_on_criterion_8_triples(leaf_replay):
    # criterion 8 draws 221 triples from its seed to agree on 200; the
    # search runs on every candidate tuple, also those the core refutes
    for m, s, q in itertools.islice(random_triples(random.Random(20260808), max_atoms=5), 221):
        _search_answers(core_solution(m, s), q)
    assert len(leaf_replay) > 200 and sum(leaf_replay) > 150, (len(leaf_replay), sum(leaf_replay))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_leaves_match_materializing_reference_on_random_triples(leaf_replay, seed):
    # the check on the core changes no answer
    m, s, q = next(random_triples(random.Random(seed), max_atoms=5))
    core = core_solution(m, s)
    assert answers_gcwa_star_universal(core, q) == _search_answers(core, q)


# ------------------------------------------------------------- fast path


def test_copy_fast_path():
    m = mapping(COPY_MAP)
    s = instance(COPY_SRC, m.source)
    q = query(COPY_QUERY, m.target)
    core = core_solution(m, s)
    assert eval_gcwa_star_universal(core, q, (a, b))
    assert not eval_gcwa_star_universal(core, q, (b, a))
    assert answers_gcwa_star_universal(core, q) == {(a, b)}


def test_tuple_outside_core_constants_is_never_certain():
    m = mapping(COPY_MAP)
    core = core_solution(m, instance(COPY_SRC, m.source))
    q = query(COPY_QUERY, m.target)
    assert not eval_gcwa_star_universal(core, q, (a, Const("zz")))


def test_ef_universal_answers():
    m = mapping(EF_MAP)
    core = core_solution(m, instance(EF_SRC, m.source))
    assert answers_gcwa_star_universal(core, query(EF_Q2, m.target)) == set()
    assert answers_gcwa_star_universal(core, query(EF_Q3, m.target)) == {()}


def test_tautology_answers():
    core = _ef_core()
    q = parse_query(SourceText("q() := forall z: z = z."), mapping(EF_MAP).target)
    assert answers_gcwa_star_universal(core, q) == {()}


def test_owa_homclosed():
    m = mapping(EF_MAP)
    core = core_solution(m, instance(EF_SRC, m.source))
    assert answers_owa_homclosed(core, query(EF_UCQ, m.target)) == {(a,)}
    n = next(iter(core.nulls()))
    filtered = answers_owa_homclosed(
        Instance([Atom("E", (a, n))]), FOQuery("q", (x,), RelAtom("E", (x, x)))
    )
    assert filtered == set()
    with pytest.raises(NotHomomorphismClosed):
        answers_owa_homclosed(core, query(EF_Q3, m.target))


EF_CHAIN, TWO_NULL, FAN, WIDTH_2 = (FAMILIES[name] for name in ("ef-chain", "two-null", "fan", "width-2"))


@pytest.fixture
def streams(monkeypatch):
    """The per-block representative streams started, one (``BlockReps``,
    block index) each, and the ``all_block_reps`` calls of ``gcwa``."""
    starts, calls = [], []
    stream, all_reps = dx.minrep.BlockReps._block_reps, dx.gcwa.all_block_reps

    def counting_stream(self, block_index):
        starts.append((self, block_index))
        return stream(self, block_index)

    def counting_reps(*args, **kwargs):
        calls.append(args)
        return all_reps(*args, **kwargs)

    monkeypatch.setattr(dx.minrep.BlockReps, "_block_reps", counting_stream)
    monkeypatch.setattr(dx.gcwa, "all_block_reps", counting_reps)
    return types.SimpleNamespace(starts=starts, all_block_reps=calls)


def _started_once_per_pool(starts):
    """One pool, so one ``BlockReps``, and each of its blocks started at
    most once."""
    assert len({blocks for blocks, _ in starts}) == 1
    assert len(set(starts)) == len(starts)


def test_block_reps_are_computed_once_per_pool(streams):
    _, _, core, q = EF_CHAIN.build(10)
    assert _search_answers(core, q) == EF_CHAIN.answers(10)
    _started_once_per_pool(streams.starts)
    # the search reads only the blocks it reaches, not every block
    assert len(streams.starts) < len(dx.corelib.atom_blocks(core).blocks)
    assert streams.all_block_reps == []

    evaluator = CoreEvaluator(core, q.consts())
    inside = sorted(core.consts(), key=lambda v: v.name)
    reps = evaluator.reps_for(inside[:2])
    assert evaluator.reps_for(inside) is reps
    assert len(evaluator._reps) == 1
    outside = Const("zz")
    assert outside not in core.dom()
    evaluator.reps_for([outside] + inside)
    evaluator.reps_for([outside])
    assert len(evaluator._reps) == 2
    assert len(streams.all_block_reps) == 2


def _ef_chain_fast_path(n, streams):
    # the whole search shares one pool, and each block's
    # representatives are computed at most once
    _, _, core, q = EF_CHAIN.build(n)
    assert _search_answers(core, q) == EF_CHAIN.answers(n)
    _started_once_per_pool(streams.starts)
    assert streams.all_block_reps == []


def test_ef_chain_fast_path_at_twenty_source_atoms(streams):
    _ef_chain_fast_path(20, streams)


def test_ef_chain_fast_path_at_forty_source_atoms(streams):
    _ef_chain_fast_path(40, streams)


def test_ef_chain_fast_path_at_eighty_source_atoms(streams):
    _ef_chain_fast_path(80, streams)


def test_ef_chain_rep_storage_grows_polynomially():
    # the paper's per-block bound, without a clock: the atoms the block
    # representatives store (anchors and the core atoms they lack) may grow
    # at most 2^2.5 times per doubling of the chain; whole cored images grow
    # about 8 times
    stored = []
    for n in (10, 20, 40):
        _, _, core, q = EF_CHAIN.build(n)
        reps = CoreEvaluator(core, q.consts()).reps_for(q.consts())
        stored.append(sum(len(rep.extra) + len(rep.gone) for rep in reps))
    assert all(big <= 2 ** 2.5 * small for small, big in zip(stored, stored[1:])), stored


@pytest.fixture
def rep_shrinks(monkeypatch):
    """Runs a function and records the ``corelib._shrink`` calls made during
    it, one count per run."""
    shrinks, counts = [], []
    shrink = dx.corelib._shrink

    def counting_shrink(*args):
        shrinks.append(args)
        return shrink(*args)

    def run(fn, *args):
        before = len(shrinks)
        result = fn(*args)
        counts.append(len(shrinks) - before)
        return result

    monkeypatch.setattr(dx.corelib, "_shrink", counting_shrink)
    run.counts = counts
    return run


def test_ef_chain_reps_retract_nothing(rep_shrinks):
    # work without a clock: every rest block fails the arc-consistency pass
    # towards a representative's fresh atoms, so none is retracted, neither
    # under every representative nor under a whole evaluation
    for n in (10, 20, 40):
        _, _, core, q = EF_CHAIN.build(n)
        rep_shrinks(CoreEvaluator(core, q.consts()).reps_for, q.consts())
        assert rep_shrinks(answers_gcwa_star_universal, core, q) == EF_CHAIN.answers(n)
    assert rep_shrinks.counts == [0] * 6


def test_two_null_chain_answers(rep_shrinks):
    # the arc-consistency pass leaves no rest block to retract here either
    # (the general evaluator, over its valuation cap from n = 5 on, checks
    # n <= 4 in test_searched_families_match_the_general_evaluator)
    for n in (4, 5, 10, 20, 40):
        assert rep_shrinks(answers_gcwa_star_universal, *TWO_NULL.build(n)[2:]) == TWO_NULL.answers(n)
    assert rep_shrinks.counts == [0] * 5


def test_retracted_representatives_grow_at_most_three_times_per_doubling(monkeypatch):
    # work without a clock: a search retracts only the representatives it
    # reaches; retracting every one grows about 4 times per doubling of the
    # EF chain and 8 to 9 times on the two-null chain
    retracted = []
    retract = dx.minrep.core_retract_fixing

    def counting(*args):
        retracted.append(args)
        return retract(*args)

    monkeypatch.setattr(dx.minrep, "core_retract_fixing", counting)
    for family, sizes in ((EF_CHAIN, (10, 20, 40)), (TWO_NULL, (5, 10, 20, 40))):
        counts = []
        for n in sizes:
            before = len(retracted)
            _search_answers(*family.build(n)[2:])
            counts.append(len(retracted) - before)
        assert all(0 < small and big <= 3 * small for small, big in zip(counts, counts[1:])), counts


def test_block_images_built_grow_about_linearly(monkeypatch):
    # work without a clock: each block image's minimality is decided as it
    # is built, so a search builds only the images up to the first
    # representative of each block it reaches (n - 2 on both chains here);
    # building every image of each block grew 4 times per doubling of the
    # EF chain and 10 to 17 times on the two-null chain
    built, images = [0], dx.minrep._block_images

    def counting(*args):
        for image in images(*args):
            built[0] += 1
            yield image

    monkeypatch.setattr(dx.minrep, "_block_images", counting)
    for family, sizes in ((EF_CHAIN, (10, 20, 40, 80)), (TWO_NULL, (5, 10, 20, 40))):
        counts = []
        for n in sizes:
            built[0] = 0
            _search_answers(*family.build(n)[2:])
            counts.append(built[0])
        # 2.5 times per doubling over the range; the two-null chain's first
        # doubling (3 to 8 images) exceeds it by its constant offset alone
        assert all(0 < small and big <= 3 * small for small, big in zip(counts, counts[1:])), counts
        assert counts[-1] <= 2.5 ** (len(counts) - 1) * counts[0], counts


def test_reached_atoms_grow_about_linearly(monkeypatch):
    # work without a clock: the atoms BlockReps' reach index returns per
    # evaluation, for the literal places and the retraction pass together;
    # scanning every block shape of a literal's relation once per
    # specialized literal grew 4 times per doubling of the EF chain
    reached, reaching = [], dx.minrep.BlockReps.reaching_atoms

    def counting(self, rel, args):
        atoms = reaching(self, rel, args)
        reached.append(len(atoms))
        return atoms

    monkeypatch.setattr(dx.minrep.BlockReps, "reaching_atoms", counting)
    counts = []
    for n in (20, 40, 80, 160):
        reached[:] = []
        assert _search_answers(*EF_CHAIN.build(n)[2:]) == EF_CHAIN.answers(n)
        counts.append(sum(reached))
    assert all(0 < small and big <= 2.5 * small for small, big in zip(counts, counts[1:])), counts


def test_atom_no_block_reaches_starts_no_stream(streams):
    # F(x, zz) with zz outside the core: every F atom of the EF chain's core
    # holds a constant other than zz in second place; starting every block's
    # stream took 0.8 s at n = 80
    core, first = EF_CHAIN.build(80)[2], Const(ef_chain(80)[0][0])
    assert not atom_in_some_minimal(core, Atom("F", (first, Const("zz"))))
    assert streams.starts == []
    # two blocks reach E(first, zz); the first one's stream holds it
    assert atom_in_some_minimal(core, Atom("E", (first, Const("zz"))))
    assert len(streams.starts) == 1


def test_block_no_literal_reaches_is_never_searched(streams):
    # no cap on a block's nulls: the E literal reaches only the one-null
    # block, so the six-null G block, with 7^6 images over its pool, is
    # never started
    n1, *wide = (Null("t", i) for i in range(1, 8))
    core = Instance([Atom("E", (a, n1)), Atom("G", tuple(wide))])
    conjunct = ExistentialConjunct((("E", (a, z)),), (), ())
    assert CoreEvaluator(core, ()).conjunct_satisfiable(conjunct)
    blocks = dx.corelib.atom_blocks(core).blocks
    assert [blocks[i] for _, i in streams.starts] == [Instance([Atom("E", (a, n1))])]


def test_core_check_changes_no_answer():
    # with the check on the core and by the search alone, on both chains,
    # the fan and criterion 8's triples
    for family in (EF_CHAIN, TWO_NULL, FAN):
        for n in (10, 20, 40, 80):
            _, _, core, q = family.build(n)
            assert answers_gcwa_star_universal(core, q) == _search_answers(core, q) == family.answers(n), n
    for m, s, q in itertools.islice(random_triples(random.Random(20260808), max_atoms=5), 221):
        core = core_solution(m, s)
        assert answers_gcwa_star_universal(core, q) == _search_answers(core, q), q


def test_core_decides_both_chains_without_a_block_search(streams, rep_shrinks):
    # work without a clock: the core refutes every non-answer of both
    # chains, and the answers' literals reach no block
    for family in (EF_CHAIN, TWO_NULL):
        assert rep_shrinks(answers_gcwa_star_universal, *family.build(80)[2:]) == family.answers(80)
    assert streams.starts == [] and rep_shrinks.counts == [0, 0]


def test_fan_searches_every_tuple_the_core_does_not_refute(monkeypatch):
    # work without a clock: on the fan the core refutes only a, whose edge
    # ends in c; every other constant's conjunct is searched, and the block
    # images built grow at most 3 times per doubling
    searched, satisfiable = [], CoreEvaluator.conjunct_satisfiable
    built, images = [0], dx.minrep._block_images

    def counting(self, conjunct, context=()):
        searched.append(frozenset(context))
        return satisfiable(self, conjunct, context)

    def counting_images(*args):
        for image in images(*args):
            built[0] += 1
            yield image

    monkeypatch.setattr(CoreEvaluator, "conjunct_satisfiable", counting)
    monkeypatch.setattr(dx.minrep, "_block_images", counting_images)
    assert answers_gcwa_star_universal(*FAN.build(40)[2:]) == {(b,), (c,)}
    nodes = {Const(v) for v, _ in fan(40)} - {a}
    assert len(nodes) == 39
    assert len(searched) == 41 and set(searched) == {frozenset({b, v}) for v in nodes | {b, c}}
    counts = []
    for n in (10, 20, 40, 80):
        built[0] = 0
        answers_gcwa_star_universal(*FAN.build(n)[2:])
        counts.append(built[0])
    assert all(0 < small and big <= 3 * small for small, big in zip(counts, counts[1:])), counts


def test_leaves_read_the_core_index_without_rebuilding_instances(monkeypatch):
    # work without a clock: no leaf rebuilds a representative whole or
    # builds an instance as large as the core, at any chain length
    cases = [(family.build(n), family.answers(n)) for family, n in
             ((EF_CHAIN, 10), (EF_CHAIN, 20), (EF_CHAIN, 40), (TWO_NULL, 10))]
    wholes, big, leaves, size = [], [], [], [0]
    whole, init, leaf = dx.corelib.Image.whole, Instance.__init__, CoreEvaluator._leaf

    def counting_whole(self):
        wholes.append(self)
        return whole(self)

    def counting_init(self, atoms=()):
        init(self, atoms)
        if len(self.atoms) >= size[0]:
            big.append(len(self.atoms))

    def counting_leaf(self, *args):
        leaves.append(args)
        return leaf(self, *args)

    monkeypatch.setattr(dx.corelib.Image, "whole", counting_whole)
    monkeypatch.setattr(Instance, "__init__", counting_init)
    monkeypatch.setattr(CoreEvaluator, "_leaf", counting_leaf)
    for (_, _, core, q), expected in cases:
        size[0], big[:], leaves[:] = len(core), [], []
        assert _search_answers(core, q) == expected
        assert leaves and not big, (len(core), len(leaves), big)
    assert not wholes


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_searched_families_match_the_general_evaluator(name):
    # and the answers read off the source at n = 10 and 20, where known
    family = FAMILIES[name]
    for n in (2, 3, 4):
        m, source, core, q = family.build(n)
        assert answers_gcwa_star_universal(core, q) == answers_gcwa_star_universal_general(m, source, q)
    for n in (10, 20) if family.answers else ():
        assert answers_gcwa_star_universal(*family.build(n)[2:]) == family.answers(n), n


def test_families_check_exits_1_on_a_wrong_answer_set(monkeypatch, capsys):
    assert families.main(["check", "fan", "10"]) == 0
    monkeypatch.setitem(FAMILIES, "fan", FAN._replace(answers=lambda n: {(b,)}))
    assert families.main(["check", "fan", "10"]) == 1
    assert "dx eval also answers ['(c,)'] and misses []" in capsys.readouterr().err


def test_random_scale_fast_path_matches_the_general_evaluator():
    # the general evaluator answers 16 of the 30 triples at n = 25 within
    # its budget; at least 15, so that a generator change cannot empty it
    checked, total = families.check("random-scale", 25)
    assert total == 30 and checked >= 15, checked


def test_leaves_probe_the_witness_once_without_a_join(monkeypatch):
    # work without a clock: on bound each leaf decides ~U(u1) by one
    # witness membership probe, and no join runs in the search
    leaves, probes, joins = [], [], []

    def counting(calls, original):
        def counted(*args):
            calls.append(args)
            return original(*args)
        return counted

    monkeypatch.setattr(CoreEvaluator, "_leaf", counting(leaves, CoreEvaluator._leaf))
    monkeypatch.setattr(dx.gcwa._Witness, "__contains__", counting(probes, dx.gcwa._Witness.__contains__))
    monkeypatch.setattr(dx.gcwa, "query_answers", counting(joins, dx.gcwa.query_answers))
    for n in (10, 20, 40):
        _, _, core, q = FAMILIES["bound"].build(n)
        conjunct = specialize(normalize_negation(q)[0], (), ())
        leaves[:], probes[:] = [], []
        assert not CoreEvaluator(core, ()).conjunct_satisfiable(conjunct)
        assert leaves and len(probes) == len(leaves) and not joins, (n, len(leaves), len(probes))


def test_fast_path_runs_the_core_search_once(monkeypatch):
    calls = []
    original = dx.corelib.core_of

    def counting(inst):
        calls.append(inst)
        return original(inst)

    monkeypatch.setattr(dx.corelib, "core_of", counting)
    _, _, core, q = EF_CHAIN.build(10)  # the one search, in core_solution
    assert answers_gcwa_star_universal(core, q) == EF_CHAIN.answers(10)
    assert len(calls) == 1

    n1, n2 = Null("t", 1), Null("t", 2)
    non_core = Instance([Atom("E", (a, n1)), Atom("E", (a, n2))])
    assert not is_core(non_core)
    assert not is_core(non_core)  # core_of marked its result, not its input
    assert is_core(dx.corelib.core_of(non_core))


def _reference_refuted(core, q):
    """The per-tuple reference for the tuples the core refutes: each
    candidate tuple's specialized conjuncts tried on the core one by one."""
    templates = normalize_negation(q)
    return {tup for tup in itertools.product(_candidates(core, q), repeat=q.width)
            if any(satisfies_conjunct(core, c, frozenset(q.consts()) | frozenset(tup))
                   for c in (specialize(t, q.free_vars, tup) for t in templates)
                   if c is not None)}


def _refuted(core, q):
    """The pool tuples the fast path drops up front: those that are no
    answer of q on the core."""
    tuples = set(itertools.product(_QueryPlan(CoreEvaluator(core, q.consts()), q).pool, repeat=q.width))
    return tuples - query_answers(q, core, tuples)


def test_refuted_set_matches_per_tuple_reference_on_criterion_8_triples():
    rng, nonempty = random.Random(23), 0
    for m, s, _ in itertools.islice(random_triples(random.Random(20260808), max_atoms=5), 221):
        core = core_solution(m, s)
        for width in range(4):
            q = gen_universal_query(rng, free_count=width)
            expected = _reference_refuted(core, q)
            assert _refuted(core, q) == expected, (q, core)
            nonempty += bool(expected)
    assert nonempty > 300, nonempty


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(0, 3))
def test_refuted_set_matches_per_tuple_reference_on_random_cores(seed, width):
    rng = random.Random(seed)
    core = core_solution(gen_packed_mapping(rng), gen_source(rng, max_atoms=8))
    q = gen_universal_query(rng, free_count=width, max_literals=4)
    assert _refuted(core, q) == _reference_refuted(core, q)


HAND_MADE_QUERIES = {
    # x = a, x = w, and x equated with the quantified u, which names the class
    "q(x) := forall y: E(x,y) -> ~(x = a).": {(a,)},
    "q(x,w) := forall y: E(x,y) -> ~(x = w).": {(a, a), (b, b), (c, c)},
    "q(x) := forall u: forall y: E(u,y) -> ~(x = u).": {(a,), (b,), (c,)},
    # x only in a negative literal, then only in a disequality
    "q(x) := forall z: forall y: F(z,y) -> E(x,z).": {(a,), (b,), (c,)},
    "q(x) := forall z: forall y: F(z,y) -> y = x.": {(a,), (b,), (c,)},
    # x named by no literal
    "q(x) := forall z: forall y: F(z,y) -> y = b.": {(a,), (b,), (c,)},
    # the join binds x to a null only
    "q(x) := forall y: ~E(y,x).": set(),
    # the negation holds with no literal left
    "q(x) := forall y: ~(y = y).": {(a,), (b,), (c,)},
    "q() := forall y: ~(y = y).": {()},
}


def test_refuted_set_matches_per_tuple_reference_on_hand_made_templates():
    # the sets are those of the EF core of a -> b -> c -> c; the two-null
    # core and the empty core are checked against the reference only
    m, source = chain_source(EF_MAP, [("a", "b"), ("b", "c"), ("c", "c")])
    ef_core = core_solution(m, source)
    for text, expected in HAND_MADE_QUERIES.items():
        q = query(text, m.target)
        assert _refuted(ef_core, q) == _reference_refuted(ef_core, q) == expected, text
    for mapping_text, edges in ((TWO_NULL_MAP, [("a", "b"), ("b", "b")]), (EF_MAP, [])):
        m, source = chain_source(mapping_text, edges)
        core = core_solution(m, source)
        for text in HAND_MADE_QUERIES:
            q = query(text, m.target)
            assert _refuted(core, q) == _reference_refuted(core, q), (text, core)


def test_core_refutes_in_one_query_evaluation(monkeypatch):
    # work without a clock: one query_answers call, on the core, per
    # evaluation at every chain length, and on the width-2 query only the
    # 3n - 4 pairs the core does not refute (x's out-edges all end in w)
    # are specialized; normalize_negation's tuple-free calls are not counted
    joins, specialized = [], []
    answers, spec = dx.gcwa.query_answers, dx.gcwa.specialize

    def counting_answers(q, instance, *args):
        joins.append(instance)
        return answers(q, instance, *args)

    def counting_specialize(template, free_vars, values):
        if values:
            specialized.append(values)
        return spec(template, free_vars, values)

    monkeypatch.setattr(dx.gcwa, "query_answers", counting_answers)
    monkeypatch.setattr(dx.gcwa, "specialize", counting_specialize)
    for n in (20, 40, 80, 160):
        for family in (EF_CHAIN, WIDTH_2):
            _, _, core, q = family.build(n)
            expected = family.answers(n)
            joins[:], specialized[:] = [], []
            assert answers_gcwa_star_universal(core, q) == expected
            templates = len(normalize_negation(q))
            assert joins == [core], n
        assert len(expected) == 2 * n
        assert len(specialized) == (3 * n - 4) * templates, n


def test_fast_path_partitions_the_core_once(monkeypatch):
    # work without a clock: on an unmarked core the core test, the
    # packedness test and the block search share one block partition
    partitioned, partition = [], dx.corelib._partition

    def counting(instance):
        partitioned.append(instance)
        return partition(instance)

    _, _, core, q = FAN.build(20)
    core = Instance(core.atoms)
    monkeypatch.setattr(dx.corelib, "_partition", counting)
    for _ in range(2):
        assert answers_gcwa_star_universal(core, q) == {(b,), (c,)}
        assert len(partitioned) == 1 and partitioned[0] is core


def test_answers_build_one_block_reps(monkeypatch):
    # work without a clock: one evaluation builds its pool's one BlockReps,
    # whether the core decides every tuple (the EF chain) or the search runs
    # (the fan)
    built, init = [], dx.minrep.BlockReps.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(dx.minrep.BlockReps, "__init__", counting)
    for family in (EF_CHAIN, FAN):
        _, _, core, q = family.build(10)
        built[:] = []
        assert answers_gcwa_star_universal(core, q) == family.answers(10)
        assert len(built) == 1, family


def test_constants_outside_the_pool_are_refused():
    # both evaluators serve one pool, the core's constants and those they
    # were built with; a conjunct or context naming another is an error
    m = mapping(COPY_MAP)
    core, zz = core_solution(m, instance(COPY_SRC, m.source)), Const("zz")
    named = ExistentialConjunct((("Rp", (zz, z)),), (), ())
    inside = ExistentialConjunct((("Rp", (a, z)),), (), ())
    for evaluator in (CoreEvaluator(core, ()), _GeneralEvaluator(core, ())):
        for conjunct, context in ((named, ()), (inside, [zz])):
            with pytest.raises(PreconditionViolated, match="zz") as exc:
                evaluator.conjunct_satisfiable(conjunct, context)
            assert exc.value.reason == "OutsidePool"
        assert evaluator.conjunct_satisfiable(inside, [a, b])
    for evaluator in (CoreEvaluator(core, [zz]), _GeneralEvaluator(core, [zz])):
        assert not evaluator.conjunct_satisfiable(named, [zz])


def test_answers_evaluate_each_candidate_tuple_once(monkeypatch):
    # the benchmark's tracer counts these calls as gcwa.candidate_tuples:
    # the pool tuples that answer q on the core, in product order
    calls, evaluate = [], dx.gcwa.eval_gcwa_star_universal

    def counting(core, q, values, *args, **kwargs):
        calls.append(tuple(values))
        return evaluate(core, q, values, *args, **kwargs)

    monkeypatch.setattr(dx.gcwa, "eval_gcwa_star_universal", counting)
    for family, n in ((EF_CHAIN, 10), (FAN, 10), (WIDTH_2, 6)):
        _, _, core, q = family.build(n)
        calls[:] = []
        answers = answers_gcwa_star_universal(core, q)
        pool, held = list(itertools.product(_candidates(core, q), repeat=q.width)), query_answers(q, core)
        assert calls == [t for t in pool if t in held]
        # each tuple alone, through a plan of its own, gives the same answer,
        # also one dropped up front, one given as a list or of the wrong width
        assert answers == {tup for tup in pool if evaluate(core, q, list(tup))}
        assert not evaluate(core, q, (a,) * (q.width + 1))


# ------------------------------------------------------------- general path


def test_general_matches_fast_on_copy():
    m = mapping(COPY_MAP)
    s = instance(COPY_SRC, m.source)
    q = query(COPY_QUERY, m.target)
    assert eval_gcwa_star_universal_general(m, s, q, (a, b))
    assert answers_gcwa_star_universal_general(m, s, q) == {(a, b)}


def test_general_handles_unpacked_blocks():
    # a mapping whose core has an unpacked block: the fast path refuses,
    # the general evaluator still answers
    m = mapping(
        "source P/1. target E/2. "
        "tgd P(x) -> exists z1, z2, z3: E(x,z1), E(z1,z2), E(z2,z3)."
    )
    s = instance("P(a).", m.source)
    core = core_solution(m, s)
    q = parse_query(SourceText("q() := forall u: forall v: E(u,v) -> u = a."), m.target)
    with pytest.raises(PreconditionViolated):
        answers_gcwa_star_universal(core, q)
    assert answers_gcwa_star_universal_general(m, s, q) == set()


def test_general_rejects_target_constraints():
    m = mapping(
        "source P/1. target E/2. tgd P(x) -> E(x,x). egd E(x,y), E(x,y2) -> y = y2."
    )
    s = instance("P(a).", m.source)
    q = parse_query(SourceText("q() := forall z: E(z,z) -> z = a."), m.target)
    with pytest.raises(PreconditionViolated):
        eval_gcwa_star_universal_general(m, s, q, ())


def _general_and_fast(mapping_text, source_text, query_text):
    """The general evaluator's answers, checked against the fast path's."""
    m = mapping(mapping_text)
    s = instance(source_text, m.source)
    q = query(query_text, m.target)
    general = answers_gcwa_star_universal_general(m, s, q)
    assert answers_gcwa_star_universal(core_solution(m, s), q) == general, query_text
    return general


def test_general_on_a_core_with_no_atoms():
    m = mapping(PE_MAP)
    assert len(core_solution(m, instance("", m.source))) == 0
    assert _general_and_fast(PE_MAP, "", "q() := forall u: ~E(u,u).") == {()}
    assert _general_and_fast(PE_MAP, "", "q() := forall u: E(u,u).") == {()}
    assert _general_and_fast(PE_MAP, "", "q() := forall u: E(u,a).") == set()


def test_general_on_a_ground_core():
    copy, src = COPY_MAP, "R(a,b). R(b,b)."
    assert core_solution(mapping(copy), instance(src, mapping(copy).source)).is_ground
    assert _general_and_fast(copy, src, "q(x) := forall y: ~Rp(y,x) \\/ Rp(x,x).") == {(a,), (b,)}
    assert _general_and_fast(copy, src, "q(x) := forall y: Rp(x,y).") == set()
    assert _general_and_fast(
        copy, src, "q(x,y) := forall z: Rp(x,y) /\\ (Rp(x,z) -> z = y)."
    ) == {(a, b), (b, b)}


def test_general_conjunct_with_only_negated_atoms():
    # the negated query is one conjunct with no positive literal: a witness
    # union needs a member avoiding the negated facts and nothing else
    copy, src = COPY_MAP, "R(a,b). R(b,b)."
    for text in ("q() := forall u: Rp(u,u).", "q() := Rp(a,b)."):
        (template,) = normalize_negation(query(text, mapping(copy).target))
        assert template.negatives and not template.positives
    assert _general_and_fast(copy, src, "q() := forall u: Rp(u,u).") == set()  # Rp(a,a) avoidable
    assert _general_and_fast(copy, src, "q() := Rp(a,b).") == {()}  # every member holds it
    # with no atoms, the fresh witness value is in no member
    assert _general_and_fast(PE_MAP, "", "q() := forall u: forall v: E(u,v).") == {()}


def test_general_cap_message_is_unchanged():
    # three two-null blocks: 9 core values and one fresh constant, 10^6 maps
    m = mapping("source P/1. target E/2. tgd P(x) -> exists z1, z2: E(x,z1), E(z1,z2).")
    s = instance("P(a). P(b). P(c).", m.source)
    q = query("q() := forall u: ~E(u,u).", m.target)
    with pytest.raises(BudgetExceeded) as exc:
        answers_gcwa_star_universal_general(m, s, q)
    assert str(exc.value) == (
        "legal-map enumeration exceeded its cap of 400000 maps (10^6 needed)"
    )


def test_general_matches_fast_on_the_slowest_agree_random_core():
    m = mapping(AGREE59_MAP)
    s = instance(AGREE59_SRC, m.source)
    core = core_solution(m, s)
    assert instances_isomorphic(core, instance(AGREE59_CORE, m.target))
    assert _general_and_fast(AGREE59_MAP, AGREE59_SRC, AGREE59_QUERY) == set()
    # the minimal images over the core's constants, and with the one fresh
    # constant the general evaluator adds for the query's variable
    assert len(enum_min_c(core, {a, b})) == 906
    assert len(enum_min_c(core, {a, b, Const("#b1")})) == 1771


def test_logical_equivalence_invariance():
    m1, m2 = mapping(LEQ1_MAP), mapping(LEQ2_MAP)
    s = instance(LEQ_SRC, m1.source)
    budget = Budget(3, 8, 2)
    queries = [
        parse_query(SourceText("q(x) := forall z: E(x,z) -> z = x."), m1.target),
        parse_query(SourceText("q() := forall z1: forall z2: E(z1,z2) -> z1 = z2."), m1.target),
        query(LEQ_QUERY, m1.target),
    ]
    for q in queries:
        a1 = set(answers_semantics(m1, s, q, "gcwa-star", budget).answers)
        a2 = set(answers_semantics(m2, s, q, "gcwa-star", budget).answers)
        assert a1 == a2


@pytest.mark.parametrize("width,floor", [(2, 55), (3, 45)])
def test_fast_matches_general_at_query_widths_two_and_three(width, floor):
    # dx compare --random and criterion 8 draw widths 0 and 1 only; here
    # 150 packed triples per width, the general evaluator's budget refusals
    # reported with their reasons
    rng, nonempty, skipped = random.Random(2028), 0, []
    for i in range(150):
        m, s = gen_packed_mapping(rng), gen_source(rng, max_atoms=5)
        q = gen_universal_query(rng, free_count=width)
        fast = answers_gcwa_star_universal(core_solution(m, s), q)
        try:
            general = answers_gcwa_star_universal_general(m, s, q)
        except BudgetExceeded as exc:
            skipped.append((i, str(exc)))
            continue
        assert fast == general, (i, m, s, q)
        nonempty += bool(fast)
    print(f"width {width}: {nonempty} nonempty, {len(skipped)} skipped {skipped}")
    assert nonempty >= floor and len(skipped) <= 3, (nonempty, skipped)


def test_randomized_three_way_agreement_smoke():
    triples = random_triples(random.Random(71), max_atoms=5)
    budget = Budget(2, 8, 2)
    agreed = 0
    while agreed < 25:
        result = three_way(*next(triples), budget)
        if result.skipped:
            continue
        assert result.agree, result
        agreed += 1
