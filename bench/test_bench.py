"""Tests of the benchmark's metric arithmetic, tracing and reference
answers.

    python3 -m pytest -q bench/test_bench.py
"""

import random
import statistics
import sys
import time
import types

import pytest

from pace import Pace, pace_factor, reference_work
from stats import fit_exponent, percentile, quartile_spread, self_times
from tracing import Tracer
from workloads import EfChain, Materialize, _core_shape


def test_percentile_interpolates_between_ranks():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 90) == 7.0
    assert percentile(list(reversed(values)), 25) == 2.0


def test_percentile_matches_inclusive_quantiles():
    values = [0.3, 0.1, 2.5, 0.7, 0.4, 9.0, 0.2, 0.35, 1.1, 0.05, 0.6]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    assert percentile(values, 90) == pytest.approx(deciles[8])
    assert percentile(values, 50) == pytest.approx(statistics.median(values))


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 100)


def test_quartile_spread_is_a_share_of_the_median():
    values = [10.0, 10.0, 10.0, 10.0]
    assert quartile_spread(values) == 0.0
    values = [9.0, 10.0, 10.0, 11.0, 12.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / med)


def test_fit_exponent_recovers_a_power_law():
    sizes = [4, 6, 8, 10, 12]
    assert fit_exponent(sizes, [0.002 * n ** 3.5 for n in sizes]) == pytest.approx(3.5)
    assert fit_exponent(sizes, [5.0] * 5) == pytest.approx(0.0)


def test_fit_exponent_is_least_squares_in_log_space():
    sizes = [1.0, 2.0, 4.0]
    times = [1.0, 4.0, 8.0]  # in log2: (0,0), (1,2), (2,3), slope 3/2
    assert fit_exponent(sizes, times) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        fit_exponent([3, 3], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_exponent([3], [1.0])


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("cli.main", 0.0, 10.0, None),
        ("corelib.core_of", 1.0, 4.0, 0),
        ("chase.canonical_solution", 1.5, 2.0, 1),
        ("logic.query_answers", 5.0, 9.0, 0),
        ("corelib.core_of", 11.0, 12.0, None),
    ]
    selfs = self_times(spans)
    assert selfs["cli.main"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs["corelib.core_of"] == pytest.approx(3.0 - 0.5 + 1.0)
    assert selfs["chase.canonical_solution"] == pytest.approx(0.5)
    assert selfs["logic.query_answers"] == pytest.approx(4.0)
    assert sum(selfs.values()) == pytest.approx(10.0 + 1.0)


def test_tracer_records_nesting_counts_and_restores():
    mod = types.SimpleNamespace()

    def inner(x):
        return [x] * x

    def outer(x):
        return mod.inner(x) + mod.inner(1)

    def is_core(x):
        return mod.inner(x)

    mod.inner, mod.outer, mod.is_core = inner, outer, is_core
    tracer = Tracer()
    tracer.wrap(mod, "inner", "m.inner",
                hook=lambda t, a, k, r: t.count("m.items", len(r)),
                inline_under=("m.is_core",))
    tracer.wrap(mod, "outer", "m.outer")
    tracer.wrap(mod, "is_core", "m.is_core")
    assert mod.outer(3) == [3, 3, 3, 1]
    mod.is_core(2)
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer and mod.is_core is is_core
    names = [s[0] for s in tracer.spans]
    assert names == ["m.outer", "m.inner", "m.inner", "m.is_core"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0, None]
    assert tracer.calls == {"m.outer": 1, "m.inner": 2, "m.is_core": 1}
    assert tracer.counters == {"m.items": 4}
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_tracer_counts_errors_and_closes_the_span():
    mod = types.SimpleNamespace(boom=lambda: (_ for _ in ()).throw(KeyError("x")))
    tracer = Tracer()
    tracer.wrap(mod, "boom", "m.boom", count_errors=(KeyError,))
    with pytest.raises(KeyError):
        mod.boom()
    assert tracer.counters == {"m.boom.KeyError": 1}
    assert tracer.spans[0][2] >= tracer.spans[0][1] > 0
    assert tracer.current() is None


def test_pace_factor_averages_the_reciprocal():
    # half the time at full pace, half at half pace: the work done is 3/4
    # of what a full-pace machine does in the same time
    assert pace_factor([1.0, 2.0], ref=1.0) == pytest.approx(0.75)
    assert pace_factor([0.5], ref=1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        pace_factor([])


def test_paced_seconds_drop_samples_and_scale():
    pace = Pace()
    # a sample every 0.1 s taking 0.01 s, the handler holding 0.011 s
    pace.at = [0.1 * i for i in range(1, 11)]
    pace.took = [0.01] * 5 + [0.02] * 5
    pace.spent = [0.011] * 10
    # [0.15, 0.45] holds the samples at 0.2, 0.3 and 0.4; those in its
    # window, 0.1 to 0.5, all took 0.01 s
    assert pace.seconds(0.15, 0.45) == pytest.approx(
        (0.3 - 3 * 0.011) * pace_factor([0.01] * 3))
    # [0.72, 0.74] holds no sample; its nearest few set its pace
    assert pace.seconds(0.72, 0.74) == pytest.approx(0.02 * pace_factor([0.02] * 3))
    # across the change of pace the factor is the time average
    assert pace.seconds(0.05, 1.05) == pytest.approx(
        (1.0 - 10 * 0.011) * pace_factor(pace.took))


def test_pace_samples_on_the_timer():
    pace = Pace(interval=0.005)
    pace.start()
    try:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            reference_work(50)
    finally:
        pace.stop()
    assert len(pace.took) >= 5
    assert len(pace.at) == len(pace.took) == len(pace.spent)
    assert all(s >= t > 0 for s, t in zip(pace.spent, pace.took))
    assert 0 < pace.factor() < 10


def test_ef_chain_reference_answers():
    edges = [("p", "q"), ("q", "r"), ("p", "b"), ("q", "b")]
    assert EfChain.expected(edges) == {("r",), ("b",)}
    assert EfChain.expected([("p", "b"), ("q", "b")]) == {("p",), ("q",), ("b",)}
    for n in (4, 7, 12):
        edges = EfChain.edges(random.Random(n), n)
        assert len(set(edges)) == n
        assert sum(y == "b" for _, y in edges) == 2


def test_materialize_core_shape_round_trip():
    case = {"P": ["p"], "R": [("p", "b"), ("p", "q"), ("q", "b")], "Q": [("p", "b")]}
    canon_size, shape, answers = Materialize.expected(case)
    assert canon_size == 2 * 1 + 1 + 2 * 3
    assert answers == {("p",), ("q",)}
    core_text = "E(p,p).\nE(p,_n1).\nE(q,_n2).\nF(p,b).\nF(_n1,q).\nF(_n2,b).\n"
    assert _core_shape(core_text) == shape
    assert _core_shape(core_text + "E(p,_n3).\n") is None
    assert _core_shape("E(p,_n1).\nF(_n1,q).\nF(_n1,b).\n") is None


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
