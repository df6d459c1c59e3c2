"""Tests of the benchmark's own helpers.

    python3 -m pytest cqbcbench/test_bench.py
"""

import math
from fractions import Fraction

import pytest

import reference
import stats
from tracing import Tracer, self_times


# ---------------------------------------------------------------------------
# Tail percentile selection
# ---------------------------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    values = list(range(100, 0, -1))          # unsorted input, 1..100
    value, pct, n = stats.tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_at_the_smallest_sample_count():
    value, pct, n = stats.tail([5.0] * 10 + [1.0])
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_op_metrics_divides_whole_run_work_by_busy_time():
    # 20 operations of 1..20 ms: 210 ms busy in all.
    op_s = [i / 1e3 for i in range(20, 0, -1)]
    out = stats.op_metrics(op_s, 42)
    assert out["work_per_s"] == pytest.approx(42 / 0.21)
    assert out["op_wall_ms.p50"] == pytest.approx(10.5)
    assert out["op_wall_ms.tail"] == pytest.approx(10)
    assert out["tail_pct"] == 50.0
    assert out["samples"] == 20


def test_op_metrics_omits_a_tail_it_cannot_take():
    out = stats.op_metrics([0.001] * 10, 10)
    assert "op_wall_ms.tail" not in out and out["samples"] == 10


# ---------------------------------------------------------------------------
# Self time with nested spans
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        # id, parent, name, start, end
        (2, 1, "mid", 1.0, 6.0),
        (3, 2, "leaf", 2.0, 3.0),
        (4, 2, "leaf", 4.0, 5.5),
        (5, 1, "leaf", 7.0, 8.0),
        (1, 0, "root", 0.0, 10.0),
    ]
    out = self_times(spans)
    assert out["root"] == (1, pytest.approx(10.0 - 5.0 - 1.0))
    assert out["mid"] == (1, pytest.approx(5.0 - 1.0 - 1.5))
    assert out["leaf"] == (3, pytest.approx(1.0 + 1.5 + 1.0))
    total_self = sum(s for _, s in out.values())
    assert total_self == pytest.approx(10.0)


def test_tracer_nests_wrapped_calls_and_counts_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_t = tracer.wrap("mod.inner", inner)
    outer_t = tracer.wrap("mod.outer", lambda x: inner_t(x) + inner_t(x))
    with tracer.span("bench.op"):
        assert outer_t(2) == 4
    with pytest.raises(ValueError):
        outer_t(-1)
    by_name = {name: (span_id, parent) for span_id, parent, name, _, _
               in tracer.spans[:4]}
    assert by_name["mod.outer"][1] == by_name["bench.op"][0]
    assert by_name["mod.inner"][1] == by_name["mod.outer"][0]
    layers = tracer.layer_metrics()
    assert layers["mod.inner.calls"] == 3
    assert layers["mod.inner.errors"] == 1
    assert layers["mod.outer.errors"] == 1
    assert layers["bench.op.errors"] == 0
    roots = [s for s in tracer.spans if s[1] == 0]
    assert tracer.root_seconds() == pytest.approx(
        sum(end - start for *_, start, end in roots))


# ---------------------------------------------------------------------------
# Comparison verdicts
# ---------------------------------------------------------------------------

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def _pairs(change):
    return list(zip(PARENT, change))


def test_verdict_better_needs_nine_tenths_of_pairs():
    change = [v * 0.9 for v in PARENT]
    assert stats.verdict(PARENT, change, _pairs(change), "lower", 0.1) == "better"
    # Two of ten pairs lost: not a claimable gain, yet no regression.
    mixed = change[:8] + [v * 1.05 for v in PARENT[8:]]
    assert stats.verdict(PARENT, mixed, _pairs(mixed), "lower", 0.1) == "unchanged"


def test_verdict_better_needs_ten_pairs_and_no_extra_failures():
    change = [v * 0.9 for v in PARENT]
    few = _pairs(change)[:9]
    assert stats.verdict(PARENT, change, few, "lower", 0.1) != "better"
    assert stats.verdict(PARENT, change, _pairs(change), "lower", 0.1,
                         more_failures=True) != "better"


def test_verdict_worse_beyond_bound_in_either_direction():
    slower = [v * 1.2 for v in PARENT]
    assert stats.verdict(PARENT, slower, _pairs(slower), "lower", 0.1) == "worse"
    fewer = [v * 0.8 for v in PARENT]
    assert stats.verdict(PARENT, fewer, _pairs(fewer), "higher", 0.1) == "worse"
    within = [v * 1.05 for v in PARENT]
    assert stats.verdict(PARENT, within, _pairs(within), "lower", 0.1) == "unchanged"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert stats.verdict(PARENT, noisy, _pairs(noisy), "lower", 0.1) == "unresolved"
    # Unless every change run beats every parent run.
    wide_parent = [100.0, 140.0, 110.0, 130.0, 105.0, 135.0, 120.0, 125.0,
                   115.0, 100.0]
    change = [95.0, 60.0, 90.0, 70.0, 92.0, 65.0, 80.0, 75.0, 85.0, 99.0]
    pairs = list(zip(wide_parent, change))
    assert stats.verdict(wide_parent, change, pairs, "lower", 0.1) == "better"
    assert stats.verdict(wide_parent, change, pairs[:5], "lower", 0.1) == "unchanged"


# ---------------------------------------------------------------------------
# Check limits
# ---------------------------------------------------------------------------

def test_sigma_limit_keeps_the_family_false_alarm_rate():
    assert stats.sigma_limit(1) == 4.0
    z = stats.sigma_limit(30)
    tail = math.erfc(z / math.sqrt(2))       # two-sided P(|Z| > z)
    assert 30 * tail == pytest.approx(stats.FAMILY_FALSE_ALARM, rel=1e-6)


def test_binomial_and_poisson_tails():
    # P(X > 2) for X ~ Bin(4, 1/2) is 5/16.
    assert stats.binom_outside(4, 0.5, 0, 2) == pytest.approx(float(Fraction(5, 16)))
    k = stats.poisson_upper(0.01)
    assert k == 1
    assert 1 - math.exp(-0.01) * (1 + 0.01) < stats.FAMILY_FALSE_ALARM


# ---------------------------------------------------------------------------
# Scaling to the reference speed
# ---------------------------------------------------------------------------

def test_scale_removes_a_slowdown_the_reference_also_saw():
    # The machine runs at half speed: the reference and the operation
    # both take twice their time at the nominal speed.
    assert reference.scale(2.0, 0.4, 0.2) == pytest.approx(1.0)
    assert reference.scale(1.0, 0.2, 0.2) == pytest.approx(1.0)
