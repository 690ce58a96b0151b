"""The three benchmark workloads: inputs from a seed, one pass of operations,
and the checks that every answer is right.

Each workload has ``setup`` (make the inputs and write the files dx reads),
``fresh`` (inputs for every further pass, built outside the timed region),
``run_pass`` (the timed operations, one after another) and ``check``
(answers against a reference computed after the timed passes).  ``dx`` is
a namespace holding the imported dx modules.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import random
import re
import time
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple


class Op(NamedTuple):
    """One timed operation, from ``start`` to ``end`` on the perf counter.
    ``answered`` is False when dx declined within its budget or failed;
    ``failed`` marks a nonzero CLI exit or an unplanned fallback;
    ``output`` is what the check compares."""

    label: str
    size: int
    start: float
    end: float
    answered: bool
    failed: bool
    output: object


def _begin() -> float:
    """Collect the garbage earlier operations left, then start the clock.

    A full collection can take tens of milliseconds; left to run when the
    allocation counts happen to cross a threshold, it lands in whichever
    operation comes next, and a millisecond operation then takes ten times
    as long in one pass as in the next.  From a collected heap each
    operation pays for the garbage it makes itself."""
    gc.collect()
    return time.perf_counter()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _names(rng: random.Random, count: int, taken: Set[str] = frozenset()) -> List[str]:
    """Distinct random constant names, none of them in ``taken``."""
    out: List[str] = []
    seen = set(taken)
    while len(out) < count:
        name = "c" + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _names_of(tuples) -> frozenset:
    """Answer tuples of dx values as tuples of their names."""
    return frozenset(tuple(v.name for v in t) for t in tuples)


def _cli_eval(dx, mapping: str, source: str, query: str, out: str, size: int,
              label: str, path: str) -> Op:
    t0 = _begin()
    rc = dx.cli.main(["eval", "-m", mapping, "-s", source, "-q", query, "-o", out])
    t1 = time.perf_counter()
    if rc != 0:
        return Op(label, size, t0, t1, False, True, None)
    doc = json.loads(_read(out))
    planned = doc["meta"]["path"] == path and not doc["meta"]["warnings"]
    answers = frozenset(tuple(row) for row in doc["answers"])
    return Op(label, size, t0, t1, planned, not planned, answers)


# ---------------------------------------------------------------- ef_chain

EF_MAPPING = """\
# every source edge is witnessed through a fresh midpoint
source R/2.
target E/2, F/2.
tgd R(x,y) -> exists z: E(x,z), F(z,y).
"""

EF_QUERY = "q(x) := forall z: forall y: E(x,z) /\\ F(z,y) -> y = b.\n"


class EfChain:
    """The paper's headline: the fast path on R-paths of n source atoms, two
    of which lead into b, answered through ``dx eval``.

    The fast path's time at one size moves by up to a third with the names
    of the constants alone, through the order in which its searches meet
    them, so each pass answers ``COPIES`` chains per size and draws new
    names for every pass."""

    sizes = (4, 5, 6, 8, 10)
    smoke_sizes = (4, 5)
    COPIES = 3

    def setup(self, dx, seed: int, sizes: Sequence[int], workdir: str) -> dict:
        state = {"rng": random.Random(seed), "sizes": sizes, "workdir": workdir,
                 "mapping": os.path.join(workdir, "ef.dx"),
                 "query": os.path.join(workdir, "ef.q")}
        _write(state["mapping"], EF_MAPPING)
        _write(state["query"], EF_QUERY)
        return self.fresh(dx, state)

    def fresh(self, dx, state: dict) -> dict:
        state["cases"] = []
        for n in state["sizes"]:
            for k in range(self.COPIES):
                edges = self.edges(state["rng"], n)
                src = os.path.join(state["workdir"], f"ef_{n}_{k}.inst")
                _write(src, "".join(f"R({x},{y}).\n" for x, y in edges))
                state["cases"].append({
                    "n": n, "label": f"eval n={n} #{k}", "source": src,
                    "out": os.path.join(state["workdir"], f"ef_{n}_{k}.json"),
                    "expected": self.expected(edges),
                })
        return state

    @staticmethod
    def edges(rng: random.Random, n: int) -> List[Tuple[str, str]]:
        """A path of n-2 edges plus edges into b from its first node and
        from its middle node, in seed order.

        The names are random but sorted along the path.  The value order
        and the nodes the edges into b start from each move the fast path's
        time by up to half, so they stay fixed and every chain of one size
        asks for comparable work."""
        if n < 4:
            raise ValueError("ef_chain needs n >= 4")
        nodes = sorted(_names(rng, n - 1, taken={"b"}))
        edges = [(nodes[i], nodes[i + 1]) for i in range(n - 2)]
        edges += [(nodes[0], "b"), (nodes[(n - 1) // 2], "b")]
        rng.shuffle(edges)
        return edges

    @staticmethod
    def expected(edges: Sequence[Tuple[str, str]]) -> frozenset:
        """Certain answers derived from the source alone.

        Say some edge w->v has v != b.  For any edge x->y, one minimal world
        can put the midpoint of x->y at a constant c and another can put
        the midpoint of w->v at c as well; their union holds E(x,c) and
        F(c,v), so x is not certain.  Constants without an outgoing edge
        satisfy the query vacuously.  If every edge ends in b, every F-atom
        does too, and every constant is certain."""
        consts = {v for e in edges for v in e} | {"b"}
        if all(y == "b" for _, y in edges):
            return frozenset((c,) for c in consts)
        has_out = {x for x, _ in edges}
        return frozenset((c,) for c in consts if c not in has_out)

    def run_pass(self, dx, state: dict) -> List[Op]:
        ops = []
        for case in state["cases"]:
            op = _cli_eval(dx, state["mapping"], case["source"], state["query"],
                           case["out"], case["n"], case["label"], "fast-core")
            ops.append(op._replace(output=(op.output, case["expected"])))
        return ops

    def check(self, dx, state: dict, passes: List[List[Op]]) -> List[str]:
        errors = []
        for ops in passes:
            for op in ops:
                got, expected = op.output
                if op.answered and got != expected:
                    errors.append(f"{op.label}: got {sorted(got)}, "
                                  f"expected {sorted(expected)}")
        # the exponential general evaluator, once, at the smallest size
        small = state["cases"][0]
        mapping = dx.textio.parse_mapping(dx.textio.SourceText(EF_MAPPING))
        source = dx.textio.parse_instance(
            dx.textio.SourceText(_read(small["source"])), mapping.source)
        query = dx.textio.parse_query(dx.textio.SourceText(EF_QUERY),
                                      mapping.combined_schema())
        general = _names_of(
            dx.gcwa.answers_gcwa_star_universal_general(mapping, source, query))
        if general != small["expected"]:
            errors.append(f"general evaluator at n={small['n']} disagrees: "
                          f"{sorted(general)}")
        return errors


# ---------------------------------------------------------------- agree_random

CORPUS_SEED = 2
BUDGET = (2, 8, 2)  # fresh constants, atoms, fixpoint rounds: criterion 8's


class AgreeRandom:
    """The three-way agreement loop of the acceptance suite on a fixed list
    of random packed triples, whose constants the seed renames and whose
    order it shuffles."""

    sizes = (100,)
    smoke_sizes = (12,)

    def setup(self, dx, seed: int, sizes: Sequence[int], workdir: str) -> dict:
        state = {"seed": seed, "count": sizes[0]}
        self.fresh(dx, state)
        return state

    def fresh(self, dx, state: dict) -> dict:
        """Build the triples anew, so that no pass sees objects (and their
        cached domains and orders) that an earlier pass already used."""
        rng = random.Random(CORPUS_SEED)
        triples = []
        for _ in range(state["count"]):
            m = dx.randgen.gen_packed_mapping(rng)
            s = dx.randgen.gen_source(rng, max_atoms=5)
            q = dx.randgen.gen_universal_query(rng, free_count=rng.randint(0, 1))
            triples.append((m, s, q))
        # dx enumerates in the canonical value order, and renamings that
        # change it move single triples' times by a third; keeping the order
        # keeps every seed's work the same
        relabel = random.Random(state["seed"])
        names = dict(zip("abc", sorted(_names(relabel, 3))))
        order = list(range(len(triples)))
        relabel.shuffle(order)
        state["triples"] = [
            (i, triples[i][0], _rename(dx, triples[i][1], names),
             _rename(dx, triples[i][2], names))
            for i in order
        ]
        return state

    def run_pass(self, dx, state: dict) -> List[Op]:
        budget = dx.oracle.Budget(*BUDGET)
        ops = []
        for i, m, s, q in state["triples"]:
            t0 = _begin()
            try:
                core = dx.corelib.core_solution(m, s)
                fast = dx.gcwa.answers_gcwa_star_universal(core, q)
                general = dx.gcwa.answers_gcwa_star_universal_general(m, s, q)
                orc = set(dx.oracle.answers_semantics(m, s, q, "gcwa-star", budget).answers)
            except dx.errors.BudgetExceeded:
                ops.append(Op(f"triple {i}", len(s), t0, time.perf_counter(),
                              False, False, None))
                continue
            ops.append(Op(f"triple {i}", len(s), t0, time.perf_counter(),
                          True, False, (fast, general, orc)))
        return ops

    def check(self, dx, state: dict, passes: List[List[Op]]) -> List[str]:
        errors = []
        first = {op.label: op for op in passes[0]}
        for ops in passes:
            for op in ops:
                if op.answered and not (op.output[0] == op.output[1] == op.output[2]):
                    errors.append(f"{op.label}: fast, general and oracle disagree: "
                                  f"{[sorted(_names_of(x)) for x in op.output]}")
                if (op.answered, op.output) != (first[op.label].answered,
                                                first[op.label].output):
                    errors.append(f"{op.label}: outcome differs between passes")
        return errors


def _rename(dx, obj, names: Dict[str, str]):
    """Rename constants throughout an instance or a query."""
    Const, Instance = dx.model.Const, dx.model.Instance
    if isinstance(obj, Const):
        return Const(names.get(obj.name, obj.name))
    if isinstance(obj, Instance):
        return Instance(_rename(dx, a, names) for a in obj.atoms)
    if isinstance(obj, tuple):
        return tuple(_rename(dx, x, names) for x in obj)
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **{
            f.name: _rename(dx, getattr(obj, f.name), names)
            for f in dataclasses.fields(obj) if f.init
        })
    return obj


# ---------------------------------------------------------------- materialize

MAT_MAPPING = """\
# P(x) -> exists z: E(x,z) is always redundant next to P(x) -> E(x,x), and
# an R-block is redundant where P(x) and Q(x,y) both hold
source P/1, R/2, Q/2.
target E/2, F/2.
tgd P(x) -> E(x,x).
tgd P(x) -> exists z: E(x,z).
tgd R(x,y) -> exists z: E(x,z), F(z,y).
tgd Q(x,y) -> F(x,y).
"""

MAT_QUERY = "q(x) := exists z: E(x,z) /\\ F(z,b).\n"

_ATOM = re.compile(r"([A-Za-z]\w*)\(([^)]*)\)")


class Materialize:
    """Data exchange proper: ``dx chase``, ``dx core`` and a positive
    query through ``dx eval`` on random sources of n atoms whose core drops
    about a fifth of the canonical solution."""

    sizes = (100, 140, 200, 280, 400)
    smoke_sizes = (20, 40)

    def setup(self, dx, seed: int, sizes: Sequence[int], workdir: str) -> dict:
        rng = random.Random(seed)
        state = {"mapping": os.path.join(workdir, "mat.dx"),
                 "query": os.path.join(workdir, "mat.q"), "cases": []}
        _write(state["mapping"], MAT_MAPPING)
        _write(state["query"], MAT_QUERY)
        for n in sizes:
            P, R, Q = self.source(rng, n)
            src = os.path.join(workdir, f"mat_{n}.inst")
            facts = ([f"P({x})." for x in P] + [f"R({x},{y})." for x, y in R]
                     + [f"Q({x},{y})." for x, y in Q])
            _write(src, "\n".join(facts) + "\n")
            state["cases"].append({
                "n": n, "source": src, "P": P, "R": R, "Q": Q,
                "out": {cmd: os.path.join(workdir, f"mat_{n}.{cmd}")
                        for cmd in ("chase", "core", "eval")},
            })
        return state

    @staticmethod
    def source(rng: random.Random, n: int):
        """n source atoms over n/3 constants plus b: a fifth P, half R (some
        into b), the rest Q, of which a third copy an R edge out of a P
        constant and so make that edge's block redundant."""
        consts = _names(rng, max(4, n // 3), taken={"b"})
        n_p, n_r = n // 5, n // 2
        n_q = n - n_p - n_r
        P = sorted(rng.sample(consts, n_p))
        R: Set[Tuple[str, str]] = set()
        while len(R) < n_r:
            R.add((rng.choice(consts), rng.choice(consts + ["b"] * 3)))
        redundant = sorted(e for e in R if e[0] in P)
        Q = set(rng.sample(redundant, min(len(redundant), n_q // 3)))
        while len(Q) < n_q:
            Q.add((rng.choice(consts), rng.choice(consts + ["b"])))
        return P, sorted(R), sorted(Q)

    def fresh(self, dx, state: dict) -> dict:
        return state

    def run_pass(self, dx, state: dict) -> List[Op]:
        ops = []
        for case in state["cases"]:
            n, out = case["n"], case["out"]
            for cmd in ("chase", "core"):
                t0 = _begin()
                rc = dx.cli.main([cmd, "-m", state["mapping"], "-s", case["source"],
                                  "-o", out[cmd]])
                t1 = time.perf_counter()
                text = _read(out[cmd]) if rc == 0 else None
                ops.append(Op(f"{cmd} n={n}", n, t0, t1, rc == 0, rc != 0, text))
            ops.append(_cli_eval(dx, state["mapping"], case["source"], state["query"],
                                 out["eval"], n, f"eval n={n}", "ucq-core"))
        return ops

    def check(self, dx, state: dict, passes: List[List[Op]]) -> List[str]:
        errors = []
        mapping = dx.textio.parse_mapping(dx.textio.SourceText(MAT_MAPPING))
        query = dx.textio.parse_query(dx.textio.SourceText(MAT_QUERY),
                                      mapping.combined_schema())
        for i, case in enumerate(state["cases"]):
            source = dx.textio.parse_instance(
                dx.textio.SourceText(_read(case["source"])), mapping.source)
            canonical = dx.chase.canonical_solution(mapping, source)
            reference = _names_of(t for t in dx.logic.query_answers(query, canonical)
                                  if dx.logic.all_constants(t))
            canon_size, core_shape, answers = self.expected(case)
            if reference != answers:
                errors.append(f"n={case['n']}: logic.query_answers on the canonical "
                              f"solution gives {sorted(reference)}, expected {sorted(answers)}")
            for ops in passes:
                chase_op, core_op, eval_op = ops[3 * i: 3 * i + 3]
                if chase_op.answered and len(_ATOM.findall(chase_op.output)) != canon_size:
                    errors.append(f"{chase_op.label}: wrong number of atoms")
                if core_op.answered and _core_shape(core_op.output) != core_shape:
                    errors.append(f"{core_op.label}: not the expected core")
                if eval_op.answered and eval_op.output != reference:
                    errors.append(f"{eval_op.label}: got {sorted(eval_op.output)}, "
                                  f"expected {sorted(reference)}")
        return errors

    @staticmethod
    def expected(case: dict):
        """Canonical-solution size, core shape and query answers, derived
        from the source.

        The canonical solution has E(x,x) and E(x,_) per P(x), F(x,y) per
        Q(x,y) and E(x,_), F(_,y) per R(x,y).  The core keeps the ground
        atoms and the R-blocks, except the block of R(x,y) when P(x) and
        Q(x,y) hold (it maps onto E(x,x), F(x,y)); every P-block goes.
        E(x,z), F(z,b) holds through the block of R(x,b) or through
        E(x,x), F(x,b)."""
        P, R, Q = set(case["P"]), case["R"], set(case["Q"])
        canon_size = 2 * len(P) + len(Q) + 2 * len(R)
        ground = frozenset({("E", x, x) for x in P} | {("F", x, y) for x, y in Q})
        blocks = frozenset((x, y) for x, y in R if not (x in P and (x, y) in Q))
        answers = frozenset((x,) for x, y in R if y == "b") | frozenset(
            (x,) for x in P if (x, "b") in Q)
        return canon_size, (ground, blocks), answers


def _core_shape(text: str):
    """(ground atoms, {(x, y) : E(x,_n), F(_n,y)}) of a serialized core,
    or None when a null is used in any other way."""
    ground, e_by_null, f_by_null = set(), {}, {}
    for rel, args in _ATOM.findall(text):
        x, y = (a.strip() for a in args.split(","))
        if not x.startswith("_") and not y.startswith("_"):
            ground.add((rel, x, y))
        elif rel == "E" and y.startswith("_") and not x.startswith("_") and y not in e_by_null:
            e_by_null[y] = x
        elif rel == "F" and x.startswith("_") and not y.startswith("_") and x not in f_by_null:
            f_by_null[x] = y
        else:
            return None
    if set(e_by_null) != set(f_by_null):
        return None
    blocks = [(e_by_null[z], f_by_null[z]) for z in e_by_null]
    if len(set(blocks)) != len(blocks):
        return None
    return frozenset(ground), frozenset(blocks)


WORKLOADS = {"ef_chain": EfChain(), "agree_random": AgreeRandom(),
             "materialize": Materialize()}
