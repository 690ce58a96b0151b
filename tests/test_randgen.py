import itertools
import random
from pathlib import Path

from dx.oracle import Budget
from dx.randgen import (
    gen_packed_mapping,
    gen_source,
    gen_universal_query,
    random_triples,
    three_way,
)
from dx.textio import SourceText, parse_instance, parse_mapping, parse_query

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def test_random_triples_keep_the_draw_order():
    rng = random.Random(20260808)
    expected = []
    for _ in range(10):
        m = gen_packed_mapping(rng)
        s = gen_source(rng, max_atoms=5)
        expected.append((m, s, gen_universal_query(rng, free_count=rng.randint(0, 1))))
    got = list(itertools.islice(random_triples(random.Random(20260808), 5), 10))
    assert got == expected


def test_three_way_names_the_evaluator_over_budget():
    m = parse_mapping(SourceText.from_file(DATA / "chain.dx"))
    s = parse_instance(SourceText.from_file(DATA / "chain.inst"), m.source)
    q = parse_query(SourceText.from_file(DATA / "chain_fb.q"), m.target)
    result = three_way(m, s, q, Budget(0, 8, 2))
    evaluator, exc = result.skipped
    assert evaluator == "oracle"
    assert str(exc) == "fresh-value universe exceeded its cap of 0 values (1 needed)"
    assert not result.agree
    result = three_way(m, s, q, Budget(2, 8, 2))
    assert result.skipped is None and result.agree and result.fast == {()}
