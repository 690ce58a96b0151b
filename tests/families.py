"""The scale families, each defined once: a chain family is a mapping text,
a query text, an edge builder ``n -> R-edges`` and, where known, its certain
answers read off the edges without ``dx``; ``random_scale`` is the random one.

``PYTHONPATH=src python tests/families.py check NAME N`` answers size N with
``dx eval`` in-process and exits 1 unless the answers equal the source-read
set, or else the general evaluator's on every case within its budget."""

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from dx import Atom, Const, Instance, core_solution
from dx.cli import main as dx_main
from dx.errors import BudgetExceeded
from dx.gcwa import answers_gcwa_star_universal_general
from dx.randgen import gen_packed_mapping, gen_universal_query
from dx.textio import SourceText, parse_instance, parse_mapping, parse_query
from dx.textio import serialize_instance, serialize_mapping, serialize_query

EF_MAP = "source R/2. target E/2, F/2. tgd R(x,y) -> exists z: E(x,z), F(z,y)."
# two nulls per block; U(z) maps onto every fresh U atom
TWO_NULL_MAP = ("source R/2. target E/2, F/2, U/1. "
                "tgd R(x,y) -> exists z, w: E(x,z), F(z,w), U(z).")
# the core holds U(x) for every edge source x
M1 = ("source R/2, P/1. target E/2, F/2, U/1. "
      "tgd R(x,y) -> exists z1: E(x,z1), F(z1,y). tgd R(x,y) -> U(x).")
M2 = "source R/2, P/1. target E/2, F/2, U/1. tgd R(x,y) -> exists z1: E(x,z1), U(z1)."
CHAIN_QUERY = "q(x) := forall z: forall y: E(x,z) /\\ F(z,y) -> y = b."


def ef_chain(n):
    """An R-path of n - 2 edges plus edges into b from its first and its
    middle node: n source atoms."""
    nodes = [f"v{i:02d}" for i in range(n - 1)]
    edges = [(nodes[i], nodes[i + 1]) for i in range(n - 2)]
    return edges + [(nodes[0], "b"), (nodes[(n - 1) // 2], "b")]


def fan(n):
    """Edges into b from n - 1 nodes plus the edge a -> c: n source atoms."""
    return [(f"v{i:02d}", "b") for i in range(n - 1)] + [("a", "c")]


def path(n):
    """The R-path a -> c0 -> ... -> c(n-1): n source atoms."""
    nodes = ["a"] + [f"c{i}" for i in range(n)]
    return list(zip(nodes, nodes[1:]))


def ef_chain_answers(edges):
    """Certain answers of ``CHAIN_QUERY`` under ``EF_MAP``, read off the
    source.  Two minimal worlds can put the midpoints of x->y and of an
    edge w->v with v != b at one constant, so a constant with an outgoing
    edge is certain only if every edge ends in b; the others hold
    vacuously."""
    consts = {v for e in edges for v in e} | {"b"}
    if all(y == "b" for _, y in edges):
        return {(Const(v),) for v in consts}
    has_out = {x for x, _ in edges}
    return {(Const(v),) for v in consts if v not in has_out}


def ef_chain_pairs(edges):
    """Certain answers of the width-2 query under ``EF_MAP``, read off the
    source: x has no out-edge, and w is any candidate constant."""
    consts = {v for e in edges for v in e}
    has_out = {x for x, _ in edges}
    return {(Const(x), Const(w)) for x in consts - has_out for w in consts}


def two_null_answers(edges):
    """Certain answers of ``CHAIN_QUERY`` under ``TWO_NULL_MAP``, read off
    the source.  The core holds E(x,z), F(z,w), U(z) for each x with an
    edge, and no y.  In a minimal world whose z are all distinct, the w of
    each x can be any constant, so such an x is never certain; b, only a
    query constant, holds vacuously."""
    has_out = {x for x, _ in edges}  # the core's constants
    return set() if "b" in has_out else {(Const("b"),)}


def source_text(edges):
    return "".join(f"R({x},{y}).\n" for x, y in edges)


def chain_source(mapping_text, edges):
    """The mapping, and the R-edges as its source."""
    m = parse_mapping(SourceText(mapping_text))
    return m, parse_instance(SourceText(source_text(edges)), m.source)


class Family(NamedTuple):
    mapping: str
    query: str
    edges: Callable
    answers: Optional[Callable] = None  # n -> the certain answers, read off edges(n)

    def parse(self, n):
        """The mapping, source and query at size n."""
        m, source = chain_source(self.mapping, self.edges(n))
        return m, source, parse_query(SourceText(self.query), m.target)

    def build(self, n):
        """The mapping, source, core and query at size n."""
        m, source, q = self.parse(n)
        return m, source, core_solution(m, source), q


FAMILIES = {
    # the core decides ef-chain and two-null outright; it refutes only a on the
    # fan, and all but 3n - 4 pairs of width-2
    "ef-chain": Family(EF_MAP, CHAIN_QUERY, ef_chain, lambda n: ef_chain_answers(ef_chain(n))),
    "fan": Family(EF_MAP, CHAIN_QUERY, fan, lambda n: ef_chain_answers(fan(n))),
    "width-2": Family(EF_MAP, "q(x,w) := forall z: forall y: E(x,z) /\\ F(z,y) -> y = w.",
                      ef_chain, lambda n: ef_chain_pairs(ef_chain(n))),
    "two-null": Family(TWO_NULL_MAP, CHAIN_QUERY, ef_chain, lambda n: two_null_answers(ef_chain(n))),
    # the core refutes no answer of bound or ground: bound runs the block
    # search, and on ground a negated ground core atom settles each answer
    "bound": Family(M1, "q() := forall u1: forall u2: E(u1,u2) -> U(u1).", path,
                    lambda n: {()}),
    "ground": Family(M1, "q(x1) := forall u1: forall u2: E(u1,u2) -> U(x1).", path,
                     lambda n: {(Const(x),) for x, _ in path(n)}),
    "two-literal": Family(M1, "q() := forall u1: forall u2: forall u3: forall u4: "
                              "E(u1,u2) /\\ E(u3,u4) -> U(u1).", path),
    "loose": Family(M2, "q(x1) := forall u1: E(a,x1) -> F(a,u1).", path),
}

RANDOM_SCALE_SIZES = (25, 50, 100, 200)


def random_scale(n):
    """The 30 random-scale (mapping, source, query) triples of size n, listed
    by trial number, counted from 0.  One ``random.Random(1)`` draws 30
    triples for each size in ``RANDOM_SCALE_SIZES``, in that order: a packed
    mapping, a source of n distinct atoms over c0 ... c(n//3 - 1), a and b
    (60% R(x,y), 40% P(x)), and a universal query of width 0 to 2."""
    rng = random.Random(1)
    for size in RANDOM_SCALE_SIZES:
        consts = [Const(f"c{i}") for i in range(size // 3)] + [Const("a"), Const("b")]
        triples = []
        for _ in range(30):
            mapping, atoms = gen_packed_mapping(rng), set()
            while len(atoms) < size:
                if rng.random() < 0.6:
                    atoms.add(Atom("R", (rng.choice(consts), rng.choice(consts))))
                else:
                    atoms.add(Atom("P", (rng.choice(consts),)))
            triples.append((mapping, Instance(atoms),
                            gen_universal_query(rng, free_count=rng.randint(0, 2))))
        if size == n:
            return triples
    raise ValueError(f"random-scale has sizes {RANDOM_SCALE_SIZES}, not {n}")


def _dx_eval(label, m, source, q):
    """``dx eval``'s answers, which it must give on the fast path."""
    texts = {"m": serialize_mapping(m), "s": serialize_instance(source), "q": serialize_query(q)}
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["eval", "-o", f"{tmp}/out.json"]
        for flag, text in texts.items():
            Path(tmp, flag).write_text(text, encoding="utf-8")
            argv += [f"-{flag}", f"{tmp}/{flag}"]
        if code := dx_main(argv):
            raise AssertionError(f"{label}: dx eval exited with {code}")
        doc = json.loads(Path(tmp, "out.json").read_text(encoding="utf-8"))
    if doc["meta"]["path"] != "fast-core":
        raise AssertionError(f"{label}: dx eval took the {doc['meta']['path']} path")
    return {tuple(map(Const, row)) for row in doc["answers"]}


def check(name, n):
    """Checks ``dx eval``'s answers at size n: returns how many cases were
    checked, and how many there are.  Raises ``AssertionError`` on a
    difference, and ``ValueError`` on a size ``check`` does not take."""
    family = FAMILIES.get(name)
    if name == "random-scale":
        cases = [(f"{name} {n} trial {i}", *triple, None) for i, triple in enumerate(random_scale(n))]
    elif family.answers is None and n > 4:
        raise ValueError(f"{name} is checked against the general evaluator, up to n = 4 only")
    else:
        cases = [(f"{name} {n}", *family.parse(n), family.answers and family.answers(n))]
    checked = 0
    for label, m, source, q, want in cases:
        got = _dx_eval(label, m, source, q)
        try:
            want = answers_gcwa_star_universal_general(m, source, q) if want is None else want
        except BudgetExceeded:
            continue
        if got != want:
            raise AssertionError(f"{label}: dx eval also answers {sorted(map(str, got - want))} "
                                 f"and misses {sorted(map(str, want - got))}")
        checked += 1
    return checked, len(cases)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="families.py")
    parser.add_argument("command", choices=["check"])
    parser.add_argument("name", choices=[*FAMILIES, "random-scale"])
    parser.add_argument("n", type=int)
    args = parser.parse_args(argv)
    try:
        checked, total = check(args.name, args.n)
    except ValueError as exc:
        parser.error(str(exc))
    except AssertionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.name} {args.n}: {checked} of {total} checked")
    return 0 if checked else 1


if __name__ == "__main__":
    raise SystemExit(main())
