import itertools
import random

import pytest

import dx.logic
from dx import (
    And,
    Atom,
    Const,
    CountExists,
    Eq,
    Exists,
    FOQuery,
    Forall,
    Instance,
    Not,
    Null,
    Or,
    RelAtom,
    Var,
    canonical_solution,
    certain_answers,
    cert_poss,
    core_of,
    eval_fo,
    is_cq_neg,
    is_existential,
    is_ucq,
    is_universal,
    query_answers,
)
from dx.errors import BudgetExceeded, UnboundVariable
from dx.logic import dnf_literals, prenex, subformulas, to_nnf
from dx.model import value_key
from dx.randgen import gen_packed_mapping, gen_source, gen_ucq, gen_universal_query

from families import FAMILIES
from fixtures import E_SCHEMA, query

a, b, c, d, e = (Const(x) for x in "abcde")
x, y, z, z1, z2 = (Var(n) for n in ("x", "y", "z", "z1", "z2"))


def test_eval_simple_exists():
    inst = Instance([Atom("E", (a, b))])
    assert eval_fo(Exists(z, RelAtom("E", (a, z))), inst)


def test_eval_universal_counterexample():
    # F(d,e) has no E-predecessor for d
    inst = Instance([Atom("E", (a, b)), Atom("F", (b, c)), Atom("F", (d, e))])
    body = Forall(
        z1,
        Forall(
            z2,
            Or((Not(RelAtom("F", (z1, z2))), Exists(x, RelAtom("E", (x, z1))))),
        ),
    )
    assert not eval_fo(body, inst)
    assert eval_fo(body, Instance([Atom("E", (a, b)), Atom("F", (b, c))]))


def test_eval_active_domain_restricts_witnesses():
    inst = Instance([Atom("P", (a,))])
    assert not eval_fo(Exists(x, Not(Eq(x, a))), inst)


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_fo(RelAtom("P", (x,)), Instance([Atom("P", (a,))]))


def test_count_exists_bounds():
    inst = Instance([Atom("E", (a, b)), Atom("E", (a, c))])
    body = CountExists(2, 3, z, RelAtom("E", (a, z)))
    assert eval_fo(body, inst)
    assert not eval_fo(
        CountExists(3, 4, z, RelAtom("E", (a, z))), inst
    )


def test_query_answers_basic():
    q = FOQuery("q", (x, y), RelAtom("R", (x, y)))
    assert query_answers(q, Instance([Atom("R", (a, b))])) == {(a, b)}


def test_query_answers_keeps_null_tuples():
    n = Null("t", 0)
    q = FOQuery("q", (x,), Exists(z, RelAtom("E", (x, z))))
    assert query_answers(q, Instance([Atom("E", (a, n))])) == {(a,)}


def test_query_answers_nullary_convention():
    q = FOQuery("q", (), Eq(a, a))
    assert query_answers(q, Instance([Atom("P", (b,))])) == {()}


def _adom(inst, body):
    """dom(I) and the constants of the formula, sorted."""
    terms = [t for g in subformulas(body) for t in (
        g.terms if isinstance(g, RelAtom) else (g.left, g.right) if isinstance(g, Eq) else ())]
    return tuple(sorted(set(inst.dom()) | {t for t in terms if isinstance(t, Const)}, key=value_key))


def _reference_answers(q, inst):
    """query_answers as every tuple over the active domain that the ground
    expansion accepts."""
    adom = _adom(inst, q.body)
    return {t for t in itertools.product(adom, repeat=q.width)
            if _ground_expand(q.body, inst, adom, dict(zip(q.free_vars, t)))}


def test_join_matches_naive_answers_on_random_ucqs():
    rng = random.Random(67)
    for _ in range(500):
        sol = canonical_solution(gen_packed_mapping(rng), gen_source(rng, max_atoms=8))
        for inst in (sol, core_of(sol), Instance([])):
            q = gen_ucq(rng, free_count=rng.randint(0, 2))
            assert query_answers(q, inst) == _reference_answers(q, inst), (q, inst)


def _random_positive(rng, depth, scope):
    """Positive bodies over E with equalities, empty and/or, and bound
    variables that may shadow the free x and y."""
    pool = [a, b] + scope
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return RelAtom("E", (rng.choice(pool), rng.choice(pool)))
        return Eq(rng.choice(pool), rng.choice(pool))
    roll = rng.random()
    if roll < 0.65:
        parts = tuple(_random_positive(rng, depth - 1, scope) for _ in range(rng.randint(0, 3)))
        return (And if roll < 0.35 else Or)(parts)
    var = rng.choice([x, y, z, z1])
    return Exists(var, _random_positive(rng, depth - 1, scope + [var]))


def test_join_matches_naive_answers_on_positive_formulas():
    rng = random.Random(71)
    values = [a, b, c, Null("t", 1), Null("t", 2)]
    checked = 0
    while checked < 2000:
        free = (x, y)[: rng.randint(0, 2)]
        body = _random_positive(rng, 3, list(free))
        if not dx.logic.formula_free_vars(body) <= set(free):
            continue
        q = FOQuery("q", free, body)
        inst = Instance(Atom("E", (rng.choice(values), rng.choice(values)))
                        for _ in range(rng.randint(0, 4)))
        assert query_answers(q, inst) == _reference_answers(q, inst), (q, inst)
        checked += 1


def test_join_edge_cases():
    n = Null("t", 0)
    inst = Instance([Atom("E", (a, a)), Atom("E", (a, n)), Atom("F", (n, b))])
    dom = {a, b, n}
    # x is absent from the second disjunct, so it ranges over the domain
    q = FOQuery("q", (x,), Or((RelAtom("E", (x, a)), Exists(z, RelAtom("F", (z, b))))))
    assert query_answers(q, inst) == {(v,) for v in dom}
    assert query_answers(FOQuery("q", (x, y), Eq(x, y)), inst) == {(v, v) for v in dom}
    assert query_answers(FOQuery("q", (x,), Eq(x, c)), inst) == {(c,)}
    some = FOQuery("q", (), Exists(z, Eq(z, z)))
    assert query_answers(some, Instance([])) == set()
    assert query_answers(some, inst) == {()}
    cycle = FOQuery("q", (), Exists(x, Exists(y, And((RelAtom("E", (x, y)), RelAtom("E", (y, x)))))))
    assert query_answers(cycle, inst) == {()}
    assert query_answers(cycle, Instance([Atom("E", (a, b))])) == set()
    assert query_answers(FOQuery("q", (x,), RelAtom("E", (x, x))), inst) == {(a,)}
    path = FOQuery("q", (x, y), Exists(z, And((RelAtom("E", (x, z)), RelAtom("F", (z, y))))))
    assert query_answers(path, inst) == {(a, b)}
    assert query_answers(FOQuery("q", (x, y), RelAtom("E", (x, y))), inst) == {(a, a), (a, n)}


def test_positive_queries_do_not_reach_eval_fo(monkeypatch):
    # a query compiles its body on first use; the compiled evaluator is the
    # one FO evaluator, so a positive query must never run it
    compile_formula = dx.logic.compile_formula

    def refusing(*args):
        def refuse(*args):
            raise AssertionError("compiled evaluator reached")
        return compile_formula(*args)._replace(run=refuse)

    monkeypatch.setattr(dx.logic, "compile_formula", refusing)
    inst = Instance([Atom("E", (a, b))])
    assert query_answers(FOQuery("q", (x,), Exists(z, RelAtom("E", (x, z)))), inst) == {(a,)}
    with pytest.raises(AssertionError, match="compiled evaluator reached"):
        query_answers(FOQuery("q", (x,), Forall(z, RelAtom("E", (x, z)))), inst)


def test_certain_answers_intersection():
    q = FOQuery("q", (x,), RelAtom("E", (x, x)))
    fam = [Instance([Atom("E", (a, a))]), Instance([Atom("E", (a, a)), Atom("E", (b, b))])]
    assert certain_answers(q, fam) == {(a,)}


def test_certain_answers_empty_family_is_empty():
    q = FOQuery("q", (x,), RelAtom("P", (x,)))
    assert certain_answers(q, []) == set()
    assert certain_answers(q, [], empty_policy="all", universe=[a, b]) == {(a,), (b,)}


def test_certain_answers_disjoint():
    q = FOQuery("q", (x,), RelAtom("P", (x,)))
    fam = [Instance([Atom("P", (a,))]), Instance([Atom("P", (b,))])]
    assert certain_answers(q, fam) == set()


def test_cert_over_unions_property():
    rng = random.Random(3)
    q = FOQuery("q", (x,), Exists(z, RelAtom("E", (x, z))))
    pool = [a, b, c]
    for _ in range(25):
        fam_a = [
            Instance(Atom("E", (rng.choice(pool), rng.choice(pool))) for _ in range(2))
            for _ in range(rng.randint(1, 3))
        ]
        fam_b = [
            Instance(Atom("E", (rng.choice(pool), rng.choice(pool))) for _ in range(2))
            for _ in range(rng.randint(1, 3))
        ]
        assert certain_answers(q, fam_a + fam_b) == certain_answers(
            q, fam_a
        ) & certain_answers(q, fam_b)


# ------------------------------------------------------------- cert_poss

UNIQUE_SUCC = Exists(
    z, And((RelAtom("E", (x, z)), Forall(z2, Or((Not(RelAtom("E", (x, z2))), Eq(z2, z))))))
)


def test_cert_poss_keeps_guaranteed_edge():
    n = Null("t", 0)
    q = FOQuery("q", (x,), Exists(z, RelAtom("E", (x, z))))
    assert cert_poss(q, Instance([Atom("E", (a, n))])) == {(a,)}


def test_cert_poss_unique_successor():
    # one null successor: every valuation yields exactly one successor for a
    n = Null("t", 0)
    q = FOQuery("q", (x,), UNIQUE_SUCC)
    assert cert_poss(q, Instance([Atom("E", (a, n))])) == {(a,)}


def test_cert_poss_refuted_by_fresh_valuation():
    # expected value computed by enumerating the two valuation classes by
    # hand: the null maps to a (E(a,a) holds) or to anything else (it fails)
    n = Null("t", 0)
    q = FOQuery("q", (x,), RelAtom("E", (x, a)))
    inst = Instance([Atom("E", (a, n))])
    images = [Instance([Atom("E", (a, a))]), Instance([Atom("E", (a, b))])]
    expected = certain_answers(q, images)
    assert expected == set()
    assert cert_poss(q, inst) == expected


def test_cert_poss_valuation_cap():
    # no valuation refutes a, so all 10^9 would be read: the cap stops the
    # enumeration at its 60 001st valuation
    atoms = [Atom("E", (a, Null("t", i))) for i in range(9)]
    q = FOQuery("q", (x,), Exists(z, RelAtom("E", (x, z))))
    with pytest.raises(BudgetExceeded, match=r"cap of 60000 valuations \(10\^9 in all\)$"):
        cert_poss(q, Instance(atoms))


def test_cert_poss_ground_equals_filtered_answers():
    inst = Instance([Atom("E", (a, b)), Atom("E", (b, b))])
    q = FOQuery("q", (x,), RelAtom("E", (x, b)))
    assert cert_poss(q, inst) == {t for t in query_answers(q, inst)}


def test_cert_poss_fresh_budget_stability():
    # one extra fresh constant never changes the answers
    n, m = Null("t", 0), Null("t", 1)
    instances = [
        Instance([Atom("E", (a, n))]),
        Instance([Atom("E", (a, n)), Atom("E", (n, m))]),
        Instance([Atom("E", (a, b))]),
    ]
    queries = [
        FOQuery("q", (x,), UNIQUE_SUCC),
        FOQuery("q", (x,), Exists(z, RelAtom("E", (x, z)))),
        FOQuery("q", (x,), RelAtom("E", (x, a))),
        FOQuery("q", (), Forall(z1, Forall(z2, Or((Not(RelAtom("E", (z1, z2))), Eq(z1, a)))))),
    ]
    for inst in instances:
        for q in queries:
            assert cert_poss(q, inst) == cert_poss(q, inst, extra_fresh=1)


# ------------------------------------------------------------- classification


def test_is_universal_allows_inner_quantifier_pull():
    body = And((RelAtom("Rp", (x, y)), Forall(z, Or((Not(RelAtom("Rp", (x, z))), Eq(z, y))))))
    assert is_universal(FOQuery("q", (x, y), body))


def test_is_universal_rejects_existential():
    assert not is_universal(FOQuery("q", (), Exists(z, RelAtom("P", (z,)))))
    assert is_existential(FOQuery("q", (), Exists(z, RelAtom("P", (z,)))))


def test_is_ucq():
    assert is_ucq(FOQuery("q", (x,), Exists(z, And((RelAtom("E", (x, z)), RelAtom("P", (z,)))))))
    assert is_ucq(FOQuery("q", (x,), Or((RelAtom("P", (x,)), RelAtom("Q", (x,))))))
    assert not is_ucq(FOQuery("q", (x,), Not(RelAtom("P", (x,)))))
    assert not is_ucq(FOQuery("q", (x,), Forall(z, RelAtom("E", (x, z)))))


def test_is_cq_neg():
    body = Exists(z, And((RelAtom("E", (x, z)), Not(RelAtom("P", (z,))))))
    assert is_cq_neg(FOQuery("q", (x,), body))
    assert not is_cq_neg(FOQuery("q", (x,), Forall(z, RelAtom("E", (x, z)))))


def test_counting_blocks_classification():
    q = FOQuery("q", (x,), CountExists(1, 2, z, RelAtom("E", (x, z))))
    assert not is_universal(q) and not is_existential(q)


# ------------------------------------------------------------- nnf / dnf oracle


def _ground_expand(body, inst, adom, assignment):
    """Independent evaluator: expands quantifiers over the active domain."""
    if isinstance(body, RelAtom):
        args = tuple(assignment.get(t, t) for t in body.terms)
        return Atom(body.rel, args) in inst
    if isinstance(body, Eq):
        l = assignment.get(body.left, body.left)
        r = assignment.get(body.right, body.right)
        return l == r
    if isinstance(body, Not):
        return not _ground_expand(body.sub, inst, adom, assignment)
    if isinstance(body, And):
        return all(_ground_expand(p, inst, adom, assignment) for p in body.parts)
    if isinstance(body, Or):
        return any(_ground_expand(p, inst, adom, assignment) for p in body.parts)
    if isinstance(body, Exists):
        return any(
            _ground_expand(body.sub, inst, adom, {**assignment, body.var: v})
            for v in adom
        )
    if isinstance(body, Forall):
        return all(
            _ground_expand(body.sub, inst, adom, {**assignment, body.var: v})
            for v in adom
        )
    if isinstance(body, CountExists):
        count = sum(
            1
            for v in adom
            if _ground_expand(body.sub, inst, adom, {**assignment, body.var: v})
        )
        return body.lo <= count <= body.hi
    raise AssertionError(body)


def _random_formula(rng, depth, vars_in_scope):
    pool = [a, b] + vars_in_scope
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.7:
            return RelAtom("E", (rng.choice(pool), rng.choice(pool)))
        return Eq(rng.choice(pool), rng.choice(pool))
    roll = rng.random()
    if roll < 0.2:
        return Not(_random_formula(rng, depth - 1, vars_in_scope))
    if roll < 0.45:
        return And(tuple(_random_formula(rng, depth - 1, vars_in_scope) for _ in range(2)))
    if roll < 0.7:
        return Or(tuple(_random_formula(rng, depth - 1, vars_in_scope) for _ in range(2)))
    var = Var(f"v{depth}{rng.randint(0, 1)}")
    inner = _random_formula(rng, depth - 1, vars_in_scope + [var])
    return Exists(var, inner) if roll < 0.85 else Forall(var, inner)


def _random_guarded(rng, depth, scope):
    """Formulas over U/1 and E/2 with constants, counting quantifiers (also
    negated), and blocks of one or two quantifiers that are often guarded,
    whose guard may repeat a variable and whose variables may shadow outer
    ones, the free x among them."""
    def atom(pool):
        if rng.random() < 0.35:
            return RelAtom("U", (rng.choice(pool),))
        return RelAtom("E", (rng.choice(pool), rng.choice(pool)))

    pool = [a, b] + scope
    if depth == 0 or rng.random() < 0.25:
        return atom(pool) if rng.random() < 0.75 else Eq(rng.choice(pool), rng.choice(pool))
    roll = rng.random()
    if roll < 0.12:
        return Not(_random_guarded(rng, depth - 1, scope))
    if roll < 0.3:
        parts = tuple(_random_guarded(rng, depth - 1, scope) for _ in range(rng.randint(0, 3)))
        return (And if roll < 0.21 else Or)(parts)
    names = [x, z1, z2]
    if roll < 0.4:
        var, lo = rng.choice(names), rng.randint(0, 2)
        count = CountExists(lo, lo + rng.randint(0, 2), var,
                            _random_guarded(rng, depth - 1, scope + [var]))
        return Not(count) if rng.random() < 0.5 else count
    block = [rng.choice(names) for _ in range(rng.randint(1, 2))]
    body = _random_guarded(rng, depth - 1, scope + block)
    universal = roll < 0.7
    if rng.random() < 0.75:
        guard = atom([a] + block + block)
        body = Or((Not(guard), body)) if universal else And((body, guard))
    for var in reversed(block):
        body = (Forall if universal else Exists)(var, body)
    return body


def _random_target(rng, values):
    return Instance(
        Atom("U", (rng.choice(values),)) if rng.random() < 0.3
        else Atom(rng.choice("EF"), (rng.choice(values), rng.choice(values)))
        for _ in range(rng.randint(0, 5))
    )


def test_eval_matches_ground_expansion_on_random_corpus():
    rng = random.Random(11)
    values = [a, b, c, Null("t", 1), Null("t", 2)]
    for _ in range(1200):
        free = [x, y][: rng.randint(0, 2)]
        body = _random_guarded(rng, 3, free)
        inst = _random_target(rng, values)
        assignment = {v: rng.choice(values) for v in free}
        expected = _ground_expand(body, inst, _adom(inst, body), assignment)
        assert eval_fo(body, inst, assignment) == expected, (body, inst, assignment)
    # whole queries, with and without the tuples to check
    for _ in range(300):
        sol = canonical_solution(gen_packed_mapping(rng), gen_source(rng, max_atoms=6))
        q = gen_universal_query(rng, free_count=rng.randint(0, 2))
        for inst in (sol, core_of(sol), _random_target(rng, values), Instance([])):
            expected = _reference_answers(q, inst)
            assert query_answers(q, inst) == expected, (q, inst)
            among = {t for t in itertools.product(values + [d], repeat=q.width) if rng.random() < 0.5}
            assert query_answers(q, inst, among) == expected & among, (q, inst, among)


def test_query_answers_drops_among_tuples_of_the_wrong_width():
    # a short tuple would fill the wrong slots of the environment: here it
    # would bind w, not x, and answer a query that no width-1 tuple can
    inst = Instance([Atom("E", (a, b))])
    for text in ("q2(x,w) := forall y: E(x,y) -> y = w.", "q2(x,w) := E(x,w)."):
        q = query(text, E_SCHEMA)
        assert query_answers(q, inst) >= {(a, b)}
        assert query_answers(q, inst, {(b,), (a,), (a, b, a), ()}) == set(), text
        assert query_answers(q, inst, {(a, b), (b,)}) == {(a, b)}, text


def _random_block(rng, depth, scope, constants):
    """A block of one to three like quantifiers, their variables possibly
    repeated (an inner one shadows an outer one of the same name), over
    parts that often share no block variable, name none of them, or leave a
    block variable unnamed; parts may be guards, counting quantifiers
    binding a block variable's name again, or nested blocks.  The block is
    sometimes negated, so that its dual is compiled."""
    names = [x, z1, z2, Var("z3")]
    block = [rng.choice(names) for _ in range(rng.randint(1, 3))]
    inner = scope + block
    pool = (constants or []) + scope

    def atom(vars_):
        terms = vars_ + pool or block[:1]
        if rng.random() < 0.35:
            return RelAtom("U", (rng.choice(terms),))
        return RelAtom(rng.choice("EF"), (rng.choice(terms), rng.choice(terms)))

    def part():
        roll = rng.random()
        if roll < 0.35:  # names at most one block variable, or none
            return atom(rng.sample(block, 1) if rng.random() < 0.7 else [])
        if roll < 0.5:
            return Not(atom(block))
        if roll < 0.6:
            return Eq(rng.choice(block), rng.choice(inner + (constants or [])))
        if roll < 0.75 and depth > 0:
            var, lo = rng.choice(block), rng.randint(0, 2)
            count = CountExists(lo, lo + rng.randint(0, 2), var,
                                _random_block(rng, depth - 1, inner + [var], constants))
            return Not(count) if rng.random() < 0.3 else count
        if depth > 0:
            return _random_block(rng, depth - 1, inner, constants)
        return atom(inner)

    universal = rng.random() < 0.6
    body = (Or if universal else And)(tuple(part() for _ in range(rng.randint(1, 4))))
    for var in reversed(block):
        body = (Forall if universal else Exists)(var, body)
    return Not(body) if rng.random() < 0.25 else body


def test_miniscoped_blocks_match_ground_expansion():
    rng = random.Random(29)
    values = [a, b, c, Null("t", 1)]
    empty_domains = 0
    for _ in range(1500):
        free = [x, y][: rng.randint(0, 2)]
        constants = [a, b] if rng.random() < 0.6 else None
        body = _random_block(rng, 1, free, constants)
        inst = _random_target(rng, values) if rng.random() < 0.8 else Instance([])
        assignment = {v: rng.choice(values) for v in free}
        adom = _adom(inst, body)
        empty_domains += not adom
        expected = _ground_expand(body, inst, adom, assignment)
        assert eval_fo(body, inst, assignment) == expected, (body, inst, assignment)
    assert empty_domains > 100


def test_unguarded_block_split_sweeps_the_domain_once_per_variable():
    # forall u1, u2 (F(u1,u1) or F(u2,u2)) is forall u1 F(u1,u1) or
    # forall u2 F(u2,u2): where every F(v,v) holds, the first alone decides
    u1, u2 = Var("u1"), Var("u2")
    body = Forall(u1, Forall(u2, Or((RelAtom("F", (u1, u1)), RelAtom("F", (u2, u2))))))
    compiled = dx.logic.compile_formula(body)
    probes = []
    for n in (4, 8, 16):
        inst = Instance(Atom("F", (Const(f"v{i}"),) * 2) for i in range(n))
        count = 0

        def matcher(*args):
            nonlocal count
            count += 1
            return inst.atoms_matching(*args)

        assert compiled.run(matcher, tuple(inst.dom()), list(compiled.template))
        probes.append(count)
    assert all(later <= 2.5 * earlier for earlier, later in zip(probes, probes[1:])), probes


def test_guard_with_a_bound_probe_comes_first(monkeypatch):
    # forall z, y: E(x,z) /\ F(z,y) -> y = b on the EF chain's core: with x
    # bound, E(x,z) probes the index and binds z for F(z,y), so the atoms
    # read grow linearly; guarding on F(z,y) first, which names more block
    # variables, reads every F atom per candidate x
    read, matching = [], Instance.atoms_matching

    def counting(self, *args):
        atoms = list(matching(self, *args))
        read[-1] += len(atoms)
        return atoms

    chains = {n: FAMILIES["ef-chain"].build(n) for n in (40, 80, 160, 320)}
    monkeypatch.setattr(Instance, "atoms_matching", counting)
    for n, (_, _, core, q) in chains.items():
        read.append(0)
        assert len(query_answers(q, core)) == n + 2
    assert all(later <= 2.5 * earlier for earlier, later in zip(read, read[1:])), read


def test_prenex_preserves_meaning_on_nonempty_domains():
    rng = random.Random(23)
    checked = 0
    while checked < 80:
        body = _random_formula(rng, 3, [])
        p = prenex(body)
        assert p is not None
        prefix, matrix = p
        rebuilt = matrix
        for kind, var in reversed(prefix):
            rebuilt = (Exists if kind == "exists" else Forall)(var, rebuilt)
        inst = Instance(
            Atom("E", (rng.choice([a, b]), rng.choice([a, b])))
            for _ in range(rng.randint(1, 4))
        )
        assert eval_fo(body, inst) == eval_fo(rebuilt, inst), (body, rebuilt)
        checked += 1


def test_dnf_literals_cover_matrix():
    matrix = to_nnf(
        Or((And((RelAtom("E", (x, y)), Not(Eq(x, y)))), RelAtom("P", (x,))))
    )
    disjuncts = dnf_literals(matrix)
    assert [len(d) for d in disjuncts] == [2, 1]
