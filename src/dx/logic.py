"""First-order query AST, active-domain evaluation, and certain answers.

Evaluation answers positive-existential bodies by index join, its
relational atoms matched by ``model.match_conjunction``.  Other
formulas are compiled once into closures that test each literal by one
position-index probe.  Each quantifier block is miniscoped: the parts of
its matrix that name none of its variables are tested once, outside it,
and the rest split into groups sharing no variable, each quantified on its
own, so a block of k unguarded variables costs k sweeps of the domain
rather than one of adom^k when its parts allow.  A group ranges over the
index matches of its guard atom instead of the whole domain.  Either way nulls
inside an instance are treated as if they were ordinary constants, equality
compares values by identity, and quantifiers range over dom(I) together with
the constants of the formula being evaluated.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import (AbstractSet, Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set,
                    Tuple, Union)

from .errors import DxError, UnboundVariable
from .model import Const, Instance, Term, Value, Var, match_conjunction


# ---------------------------------------------------------------- formula AST


@dataclass(frozen=True)
class RelAtom:
    rel: str
    terms: Tuple[Term, ...]


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    parts: Tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    parts: Tuple["Formula", ...]


@dataclass(frozen=True)
class Exists:
    var: Var
    sub: "Formula"


@dataclass(frozen=True)
class Forall:
    var: Var
    sub: "Formula"


@dataclass(frozen=True)
class CountExists:
    """Bounded counting quantifier: the number of witnesses lies in [lo, hi].

    Only allowed inside a mapping's general constraints, never in user
    queries.
    """

    lo: int
    hi: int
    var: Var
    sub: "Formula"


Formula = Union[RelAtom, Eq, Not, And, Or, Exists, Forall, CountExists]


@dataclass(frozen=True)
class FOQuery:
    """A named query with an explicit tuple of free variables."""

    name: str
    free_vars: Tuple[Var, ...]
    body: Formula

    def __post_init__(self):
        loose = formula_free_vars(self.body) - set(self.free_vars)
        if loose:
            names = ", ".join(sorted(v.name for v in loose))
            raise DxError(f"free variables not declared in the query head: {names}")

    def consts(self) -> FrozenSet[Const]:
        return self.compiled.consts

    @property
    def width(self) -> int:
        return len(self.free_vars)

    # cached on the query itself, not in a module-level table, so they are freed with it
    @cached_property
    def compiled(self) -> "Compiled":
        return compile_formula(self.body, self.free_vars)

    @cached_property
    def positive(self) -> bool:
        return is_ucq(self)

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.free_vars, self.body))

    def __hash__(self) -> int:
        # the body's own hash walks the whole formula, and the certain-answer
        # drivers look their query up once per candidate tuple
        return self._hash


def subformulas(f: Formula) -> List[Formula]:
    """f and every formula nested in it, outermost first."""
    out = [f]
    for g in out:  # the loop also reads what it appends
        if isinstance(g, (Not, Exists, Forall, CountExists)):
            out.append(g.sub)
        elif isinstance(g, (And, Or)):
            out.extend(g.parts)
    return out


def formula_free_vars(f: Formula) -> Set[Var]:
    if isinstance(f, (RelAtom, Eq)):
        return {t for t in (f.terms if isinstance(f, RelAtom) else (f.left, f.right)) if isinstance(t, Var)}
    if isinstance(f, (Exists, Forall, CountExists)):
        return formula_free_vars(f.sub) - {f.var}
    if isinstance(f, (Not, And, Or)):
        return set().union(*map(formula_free_vars, (f.sub,) if isinstance(f, Not) else f.parts))
    raise DxError(f"unknown formula node {f!r}")


def contains_counting(f: Formula) -> bool:
    return any(isinstance(g, CountExists) for g in subformulas(f))


# ---------------------------------------------------------------- evaluation


class Compiled(NamedTuple):
    """A formula as closures ``run(match, adom, env) -> bool``: ``match`` is
    the instance's ``atoms_matching``, ``adom`` the quantifier domain (it must
    contain dom(I)) and ``env`` the slot list, ``template`` (constants in
    place, None for variables) with the free variables' values first."""

    run: Callable[..., bool]
    template: Tuple[Optional[Value], ...]
    consts: FrozenSet[Const]


def compile_formula(formula: Formula, free_vars: Sequence[Var] = ()) -> Compiled:
    """Compile with negation pushed to the literals (a negated count is
    decided by ``not``), one slot per bound variable and ``free_vars`` first
    (any other free variable raises UnboundVariable).

    Each block of like quantifiers is miniscoped.  Its matrix is split into
    the parts of its disjunction (of its conjunction, for an existential
    block).  The parts that name none of the block's variables are tested
    once, outside the block.  The others form groups that share no block
    variable, and each group is quantified on its own: a universal group
    with a disjunct not-R(...) naming some of its variables ranges those
    over the index matches of R(...), the only ones that can falsify it,
    else its first variable over the domain; dually for existential ones.
    The group's other variables then form a block of their own over its
    other parts.  A block variable that no part names still makes the block
    vacuous, so the block is decided without its body on an empty domain.
    Each step is an active-domain equivalence, such as forall y (A or B(y))
    = A or forall y B(y), that holds on the empty domain as well."""
    template: List[Optional[Value]] = [None] * len(free_vars)
    consts: Dict[Const, int] = {}

    def slot(t: Term, scope: Dict[Var, int]) -> int:
        if isinstance(t, Var):
            if t not in scope:
                raise UnboundVariable(f"variable {t.name} has no value")
            return scope[t]
        if t not in consts:
            consts[t] = len(template)
            template.append(t)
        return consts[t]

    def comp(f: Formula, neg: bool, scope: Dict[Var, int]) -> Callable[..., bool]:
        if isinstance(f, Not):
            return comp(f.sub, not neg, scope)
        if isinstance(f, RelAtom):
            rel, n, key = f.rel, len(f.terms), _getter([slot(t, scope) for t in f.terms])
            return lambda m, adom, env, at=tuple(range(n)): (not m(rel, n, at, key(env))) is neg
        if isinstance(f, Eq):
            i, j = slot(f.left, scope), slot(f.right, scope)
            return lambda m, adom, env: (env[i] == env[j]) is not neg
        if isinstance(f, (And, Or)):
            disj = isinstance(f, Or) != neg
            return _connect([comp(p, n, scope) for p, n in flat_parts(f, neg, disj)], disj)
        if isinstance(f, CountExists):
            s, lo, hi = len(template), f.lo, f.hi
            template.append(None)
            sub = comp(f.sub, False, {**scope, f.var: s})
            return lambda m, adom, env: (lo <= sum(sub(m, adom, env) for env[s] in adom) <= hi) is not neg
        if not isinstance(f, (Exists, Forall)):
            raise DxError(f"unknown formula node {f!r}")
        universal, inner, block = isinstance(f, Forall) != neg, dict(scope), []
        while isinstance(f, (Exists, Forall)) and (isinstance(f, Forall) != neg) == universal:
            inner[f.var] = len(template)
            block.append(len(template))
            template.append(None)
            f = f.sub
        parts = [(p, n, {inner.get(v) for v in formula_free_vars(p)} & set(block))
                 for p, n in flat_parts(f, neg, universal)]
        run = quantify(universal, block, parts, inner)
        if set(block) - set().union(*(names for _, _, names in parts)):
            # a variable no part names still makes the block vacuous on an empty domain
            return lambda m, adom, env: run(m, adom, env) if adom else universal
        return run

    def quantify(universal: bool, block: List[int], parts: List[Tuple[Formula, bool, Set[int]]],
                 inner: Dict[Var, int]) -> Callable[..., bool]:
        """The block slots quantified over the parts (each with the slots it
        names) joined by the block's connective, miniscoped: the parts that
        name none of the slots are tested first, once, and the rest split
        into groups that share no slot, each quantified on its own."""
        runs: List[Callable[..., bool]] = []
        groups: List[Tuple[Set[int], List[int]]] = []
        for i, (p, n, names) in enumerate(parts):
            names = names & set(block)
            if not names:
                runs.append(comp(p, n, inner))
                continue
            joined = [g for g in groups if g[0] & names]
            groups = [g for g in groups if not g[0] & names]
            groups.append((names.union(*(g[0] for g in joined)), sorted(j for g in joined for j in g[1]) + [i]))
        for slots, members in groups:
            group = [(parts[i][0], parts[i][1], parts[i][2] & slots) for i in members]
            runs.append(quantify_group(universal, [s for s in block if s in slots], group, inner))
        return _connect(runs, universal)

    def quantify_group(universal: bool, block: List[int], parts: List[Tuple[Formula, bool, Set[int]]],
                       inner: Dict[Var, int]) -> Callable[..., bool]:
        """A group whose every slot some part names.  A disjunct not-R(...)
        naming some of them ranges those over the index matches of R(...),
        the only ones that can falsify it (dually a conjunct R(...) of an
        existential group), else the first slot ranges over the domain; the
        other slots are then quantified over the other parts as a block.
        The guard is the first with the most terms already bound (constants
        and slots outside the block), which key its index probe, and then
        with the most slots named."""
        guards = [i for i, (p, n, _) in enumerate(parts) if isinstance(p, RelAtom) and n == universal]
        if not guards:
            return _sweep(universal, block[0], quantify(universal, block[1:], parts, inner))

        def rank(i: int) -> Tuple[int, int]:
            terms = parts[i][0].terms
            return sum(isinstance(t, Const) or inner.get(t) not in block for t in terms), len(parts[i][2])

        best = max(guards, key=rank)
        guard, bound = parts[best][0], parts[best][2]
        rest = quantify(universal, [s for s in block if s not in bound], parts[:best] + parts[best + 1:], inner)
        return _guarded(universal, guard.rel, [slot(t, inner) for t in guard.terms], bound, rest)

    run = comp(formula, False, {v: i for i, v in enumerate(free_vars)})
    return Compiled(run, tuple(template), frozenset(consts))


def flat_parts(f: Formula, neg: bool, disj: bool) -> List[Tuple[Formula, bool]]:
    """The parts of f (negated when ``neg``) read as a nested disjunction
    (``disj``) or conjunction, each with its negation flag."""
    while isinstance(f, Not):
        f, neg = f.sub, not neg
    if isinstance(f, (And, Or)) and (isinstance(f, Or) != neg) == disj:
        return [q for p in f.parts for q in flat_parts(p, neg, disj)]
    return [(f, neg)]


def _getter(slots: List[int]) -> Callable[[List[Optional[Value]]], Tuple[Optional[Value], ...]]:
    return operator.itemgetter(*slots) if len(slots) > 1 else lambda env: tuple([env[s] for s in slots])


def _connect(parts: List[Callable[..., bool]], disj: bool) -> Callable[..., bool]:
    if len(parts) == 1:
        return parts[0]
    if disj:
        return lambda m, adom, env: any(p(m, adom, env) for p in parts)
    return lambda m, adom, env: all(p(m, adom, env) for p in parts)


def _sweep(universal: bool, s: int, sub: Callable[..., bool]) -> Callable[..., bool]:
    """``sub`` quantified over the domain in slot ``s``."""
    def run(m, adom, env):
        for env[s] in adom:
            if sub(m, adom, env) is not universal:
                return not universal
        return universal

    return run


def _guarded(universal: bool, rel: str, slots: List[int], bound: AbstractSet[int],
             rest: Callable[..., bool]) -> Callable[..., bool]:
    """The ``bound`` block slots over the index matches of rel(slots),
    which bind them (a repeated one must agree); ``rest`` is the matrix
    without its guard, quantified over the block's other slots."""
    n, at = len(slots), tuple(i for i, s in enumerate(slots) if s not in bound)
    key, pairs = _getter([slots[i] for i in at]), [(i, s) for i, s in enumerate(slots) if s in bound]
    repeats = len({s for _, s in pairs}) < len(pairs)

    def run(m, adom, env):
        for atom in m(rel, n, at, key(env)):
            for i, s in pairs:
                env[s] = atom.args[i]
            agree = not repeats or all(env[s] == atom.args[i] for i, s in pairs)
            if agree and rest(m, adom, env) is not universal:
                return not universal
        return universal

    return run


def eval_fo(
    formula: Formula,
    instance: Instance,
    assignment: Optional[Dict[Var, Value]] = None,
    adom: Optional[Tuple[Value, ...]] = None,
) -> bool:
    """Satisfaction with quantifiers ranging over ``adom``, by default
    dom(I) + dom(phi); a supplied ``adom`` must contain dom(I)."""
    assignment = assignment or {}
    c = compile_formula(formula, tuple(assignment))
    if adom is None:
        adom = tuple(instance.dom() | c.consts)
    return c.run(instance.atoms_matching, adom, [*assignment.values(), *c.template[len(assignment):]])


def query_answers(
    q: FOQuery,
    instance: Instance,
    among: Optional[AbstractSet[Tuple[Value, ...]]] = None,
) -> Set[Tuple[Value, ...]]:
    """All width-|free| tuples over dom(I) + dom(q) satisfying the body, or
    only those of ``among`` when it is given (one of another width never).

    Answers may contain nulls; a Boolean query yields {()} or the empty set.
    A positive-existential body is answered by an index join, others by the
    query's compiled body, tuple by tuple over the domain or over ``among``.
    """
    c = q.compiled
    inside = instance.dom() | c.consts
    adom = tuple(inside)
    if q.positive:
        out: Set[Tuple[Value, ...]] = set()
        for bnd in _join(q.body, instance, adom, {}):
            out.update(itertools.product(*((bnd[v],) if v in bnd else adom for v in q.free_vars)))
        return out if among is None else out & among
    candidates = (itertools.product(adom, repeat=q.width) if among is None
                  else (t for t in among if len(t) == q.width and inside.issuperset(t)))
    m, tail = instance.atoms_matching, c.template[q.width:]
    return {t for t in candidates if c.run(m, adom, [*t, *tail])}


def _join(f: Formula, instance: Instance, adom: Tuple[Value, ...],
          bnd: Dict[Var, Value]) -> Iterator[Dict[Var, Value]]:
    """The bindings extending ``bnd`` under which every value of adom for
    each variable they leave unbound satisfies the positive formula ``f``."""
    if isinstance(f, RelAtom):
        yield from match_conjunction([(f.rel, f.terms)], instance, bnd)
    elif isinstance(f, Eq):
        left, right = (bnd.get(t, t) for t in (f.left, f.right))
        if left == right:
            yield bnd
        elif isinstance(left, Var) and isinstance(right, Var):
            yield from ({**bnd, left: v, right: v} for v in adom)
        elif isinstance(left, Var) or isinstance(right, Var):
            var, value = (left, right) if isinstance(left, Var) else (right, left)
            yield {**bnd, var: value}
    elif isinstance(f, Or):
        for part in f.parts:
            yield from _join(part, instance, adom, bnd)
    elif isinstance(f, Exists):
        if adom:  # no witness exists in an empty domain
            outer = {f.var: bnd[f.var]} if f.var in bnd else {}
            for out in _join(f.sub, instance, adom, {v: w for v, w in bnd.items() if v != f.var}):
                yield {**{v: w for v, w in out.items() if v != f.var}, **outer}
    elif f.parts:
        # the first conjunct that is not an equality of two unbound variables
        i = next((i for i, p in enumerate(f.parts) if not (isinstance(p, Eq) and all(
            isinstance(t, Var) and t not in bnd for t in (p.left, p.right)))), 0)
        for out in _join(f.parts[i], instance, adom, bnd):
            yield from _join(And(f.parts[:i] + f.parts[i + 1:]), instance, adom, out)
    else:
        yield bnd


# ---------------------------------------------------------------- constants


def all_constants(tup: Tuple[Value, ...]) -> bool:
    return all(isinstance(v, Const) for v in tup)


def fresh_constants(n: int, tag: str = "f") -> Tuple[Const, ...]:
    """Reserved-name constants that no parser can produce ('#' starts comments)."""
    return tuple(Const(f"#{tag}{i + 1}") for i in range(n))


# ---------------------------------------------------------------- classification


class _Renamer:
    def __init__(self):
        self.count = 0

    def fresh(self, base: str) -> Var:
        self.count += 1
        return Var(f"{base}~{self.count}")


def _substitute(f: Formula, mapping: Dict[Var, Term]) -> Formula:
    if isinstance(f, RelAtom):
        return RelAtom(f.rel, tuple(mapping.get(t, t) if isinstance(t, Var) else t for t in f.terms))
    if isinstance(f, Eq):
        sub = lambda t: mapping.get(t, t) if isinstance(t, Var) else t
        return Eq(sub(f.left), sub(f.right))
    if isinstance(f, Not):
        return Not(_substitute(f.sub, mapping))
    if isinstance(f, And):
        return And(tuple(_substitute(p, mapping) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(_substitute(p, mapping) for p in f.parts))
    if isinstance(f, (Exists, Forall)):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        return type(f)(f.var, _substitute(f.sub, inner))
    if isinstance(f, CountExists):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        return CountExists(f.lo, f.hi, f.var, _substitute(f.sub, inner))
    raise DxError(f"unknown formula node {f!r}")


def to_nnf(f: Formula, negate: bool = False) -> Formula:
    """Negation normal form of f, or of not-f when ``negate``.  A counting
    quantifier is kept as it is and may not be negated (DxError)."""
    if isinstance(f, (RelAtom, Eq)):
        return Not(f) if negate else f
    if isinstance(f, Not):
        return to_nnf(f.sub, not negate)
    if isinstance(f, And):
        parts = tuple(to_nnf(p, negate) for p in f.parts)
        return Or(parts) if negate else And(parts)
    if isinstance(f, Or):
        parts = tuple(to_nnf(p, negate) for p in f.parts)
        return And(parts) if negate else Or(parts)
    if isinstance(f, Exists):
        inner = to_nnf(f.sub, negate)
        return Forall(f.var, inner) if negate else Exists(f.var, inner)
    if isinstance(f, Forall):
        inner = to_nnf(f.sub, negate)
        return Exists(f.var, inner) if negate else Forall(f.var, inner)
    if isinstance(f, CountExists) and not negate:
        return f
    raise DxError("counting quantifier has no negation normal form here")


def prenex(f: Formula) -> Optional[Tuple[Tuple[Tuple[str, Var], ...], Formula]]:
    """Rewrite to a prenex form ((kind, var), ...), matrix.

    Bound variables are renamed apart, negations are pushed to the literals.
    Returns None when the formula contains a counting quantifier.
    """
    if contains_counting(f):
        return None
    renamer = _Renamer()

    def rec(g: Formula) -> Tuple[List[Tuple[str, Var]], Formula]:
        if isinstance(g, (RelAtom, Eq)):
            return [], g
        if isinstance(g, Not):
            # NNF guarantees Not is only over literals
            return [], g
        if isinstance(g, (And, Or)):
            prefix: List[Tuple[str, Var]] = []
            parts = []
            for p in g.parts:
                pre, matrix = rec(p)
                prefix.extend(pre)
                parts.append(matrix)
            return prefix, type(g)(tuple(parts))
        if isinstance(g, (Exists, Forall)):
            fresh = renamer.fresh(g.var.name)
            body = _substitute(g.sub, {g.var: fresh})
            pre, matrix = rec(body)
            kind = "exists" if isinstance(g, Exists) else "forall"
            return [(kind, fresh)] + pre, matrix
        raise DxError(f"unknown formula node {g!r}")

    prefix, matrix = rec(to_nnf(f))
    return tuple(prefix), matrix


def is_universal(q: FOQuery) -> bool:
    """Rewritable to a prenex all-universal query with a quantifier-free matrix."""
    p = prenex(q.body)
    return p is not None and all(kind == "forall" for kind, _ in p[0])


def is_existential(q: FOQuery) -> bool:
    p = prenex(q.body)
    return p is not None and all(kind == "exists" for kind, _ in p[0])


def is_ucq(q: FOQuery) -> bool:
    """Positive-existential shape: the shipped sufficient condition for
    preservation under homomorphisms."""

    def walk(f: Formula) -> bool:
        if isinstance(f, (RelAtom, Eq)):
            return True
        if isinstance(f, (And, Or)):
            return all(walk(p) for p in f.parts)
        if isinstance(f, Exists):
            return walk(f.sub)
        return False

    return walk(q.body)


def is_cq_neg(q: FOQuery) -> bool:
    """Existentially quantified conjunction of literals."""
    p = prenex(q.body)
    if p is None or not all(kind == "exists" for kind, _ in p[0]):
        return False
    _, matrix = p
    literals = matrix.parts if isinstance(matrix, And) else (matrix,)
    for lit in literals:
        inner = lit.sub if isinstance(lit, Not) else lit
        if not isinstance(inner, (RelAtom, Eq)):
            return False
    return True


def dnf_literals(matrix: Formula) -> List[List[Formula]]:
    """Disjunctive normal form of a quantifier-free NNF matrix, as literal lists."""
    if isinstance(matrix, Or):
        out: List[List[Formula]] = []
        for p in matrix.parts:
            out.extend(dnf_literals(p))
        return out
    if isinstance(matrix, And):
        disjuncts: List[List[Formula]] = [[]]
        for p in matrix.parts:
            sub = dnf_literals(p)
            disjuncts = [d + s for d in disjuncts for s in sub]
        return disjuncts
    return [[matrix]]
