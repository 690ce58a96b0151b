"""Walkthrough: the polynomial fast path against the brute-force oracle.

Universal queries over packed-dependency mappings are decided on the core in
polynomial time; the general evaluator and the oracle enumerate whole
solution families instead.  The three must agree, and `dx compare` wraps
exactly this check.

Run with:  python3 demos/04_fast_vs_oracle.py
"""

import random
from pathlib import Path

from dx import Budget, parse_instance, parse_mapping, parse_query
from dx.randgen import random_triples, three_way
from dx.textio import SourceText, serialize_mapping, serialize_query

DATA = Path(__file__).parent / "data"

mapping = parse_mapping(SourceText.from_file(DATA / "chain.dx"))
source = parse_instance(SourceText.from_file(DATA / "chain.inst"), mapping.source)

for query_file in ("chain_three.q", "chain_fb.q"):
    query = parse_query(SourceText.from_file(DATA / query_file), mapping.target)
    result = three_way(mapping, source, query, Budget(3, 8, 2))
    print(f"{query_file}: fast={sorted(result.fast)} general={sorted(result.general)} "
          f"oracle={sorted(result.oracle)}")

print("\nrandom packed mappings, three evaluators each:")
triples = random_triples(random.Random(0), max_atoms=5)
shown = 0
while shown < 5:
    m, s, q = next(triples)
    result = three_way(m, s, q, Budget(2, 8, 2))
    if result.skipped:
        evaluator, exc = result.skipped
        print(f"  skipped: {evaluator}: {exc}")
        continue
    shown += 1
    print(f"  trial {shown}: certain={bool(result.fast)} agree={result.agree}")
    if not result.agree:  # should never happen
        print(serialize_mapping(m))
        print(serialize_query(q))
