"""Seeded random mappings, sources, and queries for cross-checking the
evaluation paths against the oracle.  Scales are deliberately tiny so the
brute-force enumerations stay exact within their budgets."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import AbstractSet, Iterator, List, Optional, Sequence, Tuple

from . import corelib, gcwa, oracle
from .errors import BudgetExceeded
from .logic import And, Eq, Exists, FOQuery, Forall, Formula, Not, Or, RelAtom, formula_free_vars
from .model import (
    Atom,
    Const,
    Instance,
    PatternAtom,
    Schema,
    SchemaMapping,
    StTgd,
    Var,
)

SOURCE_SCHEMA = Schema.of({"R": 2, "P": 1})
TARGET_SCHEMA = Schema.of({"E": 2, "F": 2, "U": 1})

_CONSTS = [Const("a"), Const("b"), Const("c")]

# head templates: (atoms over frontier f1/f2 and existential z1/z2, exists vars)
# every template is packed: distinct head atoms always share an existential.
_HEAD_TEMPLATES = [
    ([("E", ("f1", "f2"))], []),
    ([("U", ("f1",))], []),
    ([("E", ("f1", "z1"))], ["z1"]),
    ([("E", ("f1", "z1")), ("F", ("z1", "f2"))], ["z1"]),
    ([("E", ("f1", "z1")), ("E", ("z1", "f2"))], ["z1"]),
    ([("E", ("f1", "z1")), ("U", ("z1",))], ["z1"]),
    ([("E", ("f1", "z1")), ("F", ("z1", "z2")), ("U", ("z1",))], ["z1", "z2"]),
    ([("E", ("z1", "z2")), ("F", ("z2", "z1"))], ["z1", "z2"]),
]

_BODY_TEMPLATES = [
    [("R", ("f1", "f2"))],
    [("P", ("f1",))],
    [("R", ("f1", "f2")), ("P", ("f1",))],
]


def _pattern(shape, names) -> PatternAtom:
    rel, args = shape
    return PatternAtom(rel, tuple(names[a] for a in args))


def gen_packed_mapping(rng: random.Random) -> SchemaMapping:
    tgds: List[StTgd] = []
    for _ in range(rng.randint(1, 2)):
        body_shape = rng.choice(_BODY_TEMPLATES)
        head_shape, exists = rng.choice(_HEAD_TEMPLATES)
        names = {
            "f1": Var("x"),
            "f2": Var("y"),
            "z1": Var("z1"),
            "z2": Var("z2"),
        }
        body = tuple(_pattern(s, names) for s in body_shape)
        body_vars = {v for a in body for v in a.vars()}
        # frontier variables used in the head must occur in the body
        used = {a for s in head_shape for a in s[1]}
        if "f2" in used and names["f2"] not in body_vars:
            head_shape = [(r, tuple("f1" if x == "f2" else x for x in args)) for r, args in head_shape]
        head = tuple(_pattern(s, names) for s in head_shape)
        tgds.append(StTgd(body, head, tuple(names[z] for z in exists)))
    return SchemaMapping(SOURCE_SCHEMA, TARGET_SCHEMA, tuple(tgds))


def gen_source(rng: random.Random, max_atoms: int = 6) -> Instance:
    consts = _CONSTS[: rng.randint(1, 3)]
    atoms = set()
    for _ in range(rng.randint(1, max_atoms)):
        if rng.random() < 0.6:
            atoms.add(Atom("R", (rng.choice(consts), rng.choice(consts))))
        else:
            atoms.add(Atom("P", (rng.choice(consts),)))
    return Instance(atoms)


def _literal(rng: random.Random, vars_: Sequence[Var]) -> Formula:
    def term():
        if rng.random() < 0.75:
            return rng.choice(vars_)
        return rng.choice(_CONSTS[:2])

    kind = rng.random()
    if kind < 0.4:
        rel = rng.choice(["E", "F", "U"])
        arity = 1 if rel == "U" else 2
        atom = RelAtom(rel, tuple(term() for _ in range(arity)))
        return atom if rng.random() < 0.5 else Not(atom)
    if kind < 0.7:
        rel = rng.choice(["E", "F"])
        return RelAtom(rel, (term(), term()))
    eq = Eq(term(), term())
    return eq if rng.random() < 0.5 else Not(eq)


def gen_universal_query(
    rng: random.Random, free_count: int = 0, max_literals: int = 3
) -> FOQuery:
    free = tuple(Var(f"x{i + 1}") for i in range(free_count))
    bound = tuple(Var(f"u{i + 1}") for i in range(rng.randint(1, 2)))
    vars_ = free + bound
    n = rng.randint(1, max_literals)
    literals = [_literal(rng, vars_) for _ in range(n)]
    if n == 1:
        matrix: Formula = literals[0]
    elif rng.random() < 0.5:
        matrix = Or((Not(And(tuple(literals[:-1]))), literals[-1]))  # implication
    else:
        matrix = rng.choice([And, Or])(tuple(literals))
    body: Formula = matrix
    for v in reversed(bound):
        body = Forall(v, body)
    return FOQuery("q", free, body)


def gen_ucq(rng: random.Random, free_count: int = 1) -> FOQuery:
    free = tuple(Var(f"x{i + 1}") for i in range(free_count))
    disjuncts = []
    for _ in range(rng.randint(1, 2)):
        bound = tuple(
            Var(f"y{i + 1}") for i in range(rng.randint(0 if free else 1, 2))
        )
        vars_ = free + bound
        atoms = []
        for _ in range(rng.randint(1, 2)):
            rel = rng.choice(["E", "F", "U"])
            arity = 1 if rel == "U" else 2
            atoms.append(
                RelAtom(
                    rel,
                    tuple(
                        rng.choice(vars_) if rng.random() < 0.8 else rng.choice(_CONSTS[:2])
                        for _ in range(arity)
                    ),
                )
            )
        # every free variable must occur somewhere
        for i, v in enumerate(free):
            if not any(v in a.terms for a in atoms):
                atoms.append(RelAtom("U", (v,)))
        conj: Formula = atoms[0] if len(atoms) == 1 else And(tuple(atoms))
        for v in reversed(bound):
            if v in formula_free_vars(conj):
                conj = Exists(v, conj)
        disjuncts.append(conj)
    body = disjuncts[0] if len(disjuncts) == 1 else Or(tuple(disjuncts))
    return FOQuery("q", free, body)


def random_triples(
    rng: random.Random, max_atoms: int = 6
) -> Iterator[Tuple[SchemaMapping, Instance, FOQuery]]:
    """An endless stream of (packed mapping, source, universal query)
    triples, drawn in a fixed order so that a seed names its triples."""
    while True:
        mapping = gen_packed_mapping(rng)
        source = gen_source(rng, max_atoms)
        yield mapping, source, gen_universal_query(rng, free_count=rng.randint(0, 1))


@dataclass(frozen=True)
class Agreement:
    """The fast, general and oracle answers of one triple.  ``skipped`` is
    None, or the name of the first evaluator that exceeded its budget and
    the error it raised; the three answer sets are then None."""

    fast: Optional[AbstractSet[Tuple[Const, ...]]]
    general: Optional[AbstractSet[Tuple[Const, ...]]]
    oracle: Optional[AbstractSet[Tuple[Const, ...]]]
    skipped: Optional[Tuple[str, BudgetExceeded]] = None

    @property
    def agree(self) -> bool:
        return self.skipped is None and self.fast == self.general == self.oracle


def three_way(
    mapping: SchemaMapping, source: Instance, q: FOQuery, budget: oracle.Budget
) -> Agreement:
    """Answer q by the fast path on the core, the general evaluator and the
    oracle, in that order, stopping at the first one over its budget.  The
    oracle's cheap fresh-value check runs before the general evaluator."""
    stage = "fast"
    try:
        fast = gcwa.answers_gcwa_star_universal(corelib.core_solution(mapping, source), q)
        stage = "oracle"
        oracle.fresh_values(mapping, source, oracle.universe_of(mapping, source, budget, q.consts()))
        stage = "general"
        general = gcwa.answers_gcwa_star_universal_general(mapping, source, q)
        stage = "oracle"
        answers = oracle.answers_semantics(mapping, source, q, "gcwa-star", budget).answers
    except BudgetExceeded as exc:
        return Agreement(None, None, None, skipped=(stage, exc))
    return Agreement(fast, general, answers)
