"""Closed-form security quantities, the brute-force concealing oracle, and
the parameter solver."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqbc import optics, security
from cqbc.errors import InfeasibleTargetError, ParameterError
from cqbc.rng import substream

BALANCED = optics.BeamSplitter.balanced()


# ---------------------------------------------------------------------------
# per-slot channel probabilities
# ---------------------------------------------------------------------------

def test_comparison_probs_balanced_exact():
    probs = security.comparison_probs(BALANCED)
    assert probs.p == Fraction(3, 8)
    assert probs.p_prime == Fraction(7, 8)
    assert probs.q == Fraction(1, 4)


def test_comparison_probs_skewed_mirror():
    probs = security.comparison_probs(optics.BeamSplitter(0.25, 0.75))
    assert probs.p == Fraction(
        (Fraction(1, 4) * Fraction(3, 4) + Fraction(3, 4)), 2
    )
    assert probs.q == Fraction(3, 8)


def test_comparison_probs_rejects_degenerate():
    with pytest.raises(ParameterError):
        security.comparison_probs(optics.BeamSplitter(0.0, 1.0))
    with pytest.raises(ParameterError):
        security.comparison_probs(optics.BeamSplitter(1.0, 0.0))


@given(r=st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)))
def test_comparison_probs_ordering(r):
    bs = optics.BeamSplitter(float(r), float(1 - r))
    probs = security.comparison_probs(bs)
    assert 0 < probs.q < probs.p < probs.p_prime < 1
    assert probs.p_prime == probs.p + Fraction(1, 2)


@pytest.mark.parametrize("r", [1e-20, 1e-12, 3e-9])
def test_comparison_probs_tiny_r_mirror(r):
    # The float t = 1 - r is off by up to half an ulp of 1, which outweighs
    # r^2 here; the exact mirror must be built from r alone.
    probs = security.comparison_probs(optics.BeamSplitter(r, 1.0 - r))
    exact_r = Fraction(r)
    assert probs.q == (1 - exact_r) / 2
    assert probs.p == (1 - exact_r ** 2) / 2
    assert probs.p_prime == 1 - exact_r ** 2 / 2
    assert 0 < probs.q < probs.p < probs.p_prime < 1
    # p' rounds to 1 as a float, yet the concealing advantage is defined.
    report = security.concealing_advantage(1, 2, probs.p_prime)
    assert 0.0 < report.advantage <= 0.5


# ---------------------------------------------------------------------------
# binding
# ---------------------------------------------------------------------------

def test_binding_advantage_exact_fraction():
    adv = security.binding_advantage(2, Fraction(3, 8), Fraction(1, 4))
    assert adv == Fraction(25, 36)


def test_binding_advantage_reference_point():
    adv = security.binding_advantage(70, 3 / 8, 1 / 4)
    assert adv == pytest.approx((5 / 6) ** 70)
    assert 2.7e-6 <= adv <= 2.9e-6


def test_binding_advantage_validation():
    with pytest.raises(ParameterError):
        security.binding_advantage(0, 3 / 8, 1 / 4)
    with pytest.raises(ParameterError):
        security.binding_advantage(10, 0.2, 0.3)


@given(m=st.integers(1, 200))
def test_binding_advantage_monotone_in_m(m):
    a = security.binding_advantage(m, 3 / 8, 1 / 4)
    b = security.binding_advantage(m + 1, 3 / 8, 1 / 4)
    assert 0 < b < a <= 5 / 6


# ---------------------------------------------------------------------------
# concealing
# ---------------------------------------------------------------------------

def test_concealing_reference_point():
    report = security.concealing_advantage(70, 130, Fraction(7, 8))
    assert 0.9e-6 <= report.advantage <= 1.1e-6
    assert report.advantage == pytest.approx(report.epsilon / 2.0)
    assert report.first_order == pytest.approx(report.advantage, rel=1e-4)
    assert "factor 1/2" in report.factor_two_note


def test_concealing_small_case_against_direct_formula():
    report = security.concealing_advantage(3, 2, 0.5)
    direct = 1.0 - (1.0 - 0.25) ** 3
    assert report.epsilon == pytest.approx(direct, rel=1e-12)


def test_concealing_validation():
    with pytest.raises(ParameterError):
        security.concealing_advantage(0, 10, 0.5)
    with pytest.raises(ParameterError):
        security.concealing_advantage(1, 10, 1.0)


@given(n=st.integers(2, 500))
def test_concealing_monotone_decreasing_in_n(n):
    a = security.concealing_advantage(70, n, 7 / 8)
    b = security.concealing_advantage(70, n + 1, 7 / 8)
    assert 0 < b.advantage <= a.advantage
    if a.epsilon < 1.0:  # below saturation the decrease is strict
        assert b.advantage < a.advantage


# ---------------------------------------------------------------------------
# parameter solver
# ---------------------------------------------------------------------------

def test_choose_parameters_reference_targets():
    res = security.choose_parameters(3e-6, 1.1e-6)
    assert (res.m, res.n) == (70, 130)
    assert res.binding <= 3e-6
    assert res.concealing <= 1.1e-6
    # minimality: one step back violates the target
    assert security.binding_advantage(res.m - 1, 3 / 8, 1 / 4) > 3e-6
    assert security.concealing_advantage(res.m, res.n - 1, 7 / 8).advantage > 1.1e-6


def test_choose_parameters_trace_records_scan():
    res = security.choose_parameters(0.5, 0.5)
    assert res.trace[0][0] == "m"
    assert any(row[0] == "n" for row in res.trace)
    d = res.to_dict()
    assert d["m"] == res.m and len(d["trace"]) == len(res.trace)


def test_choose_parameters_infeasible():
    with pytest.raises(InfeasibleTargetError):
        security.choose_parameters(1e-30, 0.5, max_m=10)
    with pytest.raises(InfeasibleTargetError):
        security.choose_parameters(0.5, 1e-30, max_n=10)
    with pytest.raises(ParameterError):
        security.choose_parameters(0.0, 0.5)


# ---------------------------------------------------------------------------
# concealing oracle
# ---------------------------------------------------------------------------

def test_oracle_balanced_known_values():
    assert security.concealing_oracle_bruteforce(2) == pytest.approx(
        0.5625, abs=1e-12
    )
    assert security.concealing_oracle_bruteforce(3) == pytest.approx(
        0.421875, abs=1e-12
    )


def test_oracle_perfect_channel_fully_leaks():
    tv = security.concealing_oracle_bruteforce(
        2, channel=security.perfect_channel
    )
    assert tv == pytest.approx(1.0, abs=1e-12)


def test_oracle_rejects_large_n():
    with pytest.raises(ParameterError):
        security.concealing_oracle_bruteforce(5)
    with pytest.raises(ParameterError):
        security.concealing_oracle_bruteforce(1)


def test_oracle_monte_carlo_agreement():
    rng = substream(60, 0)
    exact = security.concealing_oracle_bruteforce(2)
    est = security.concealing_tv_monte_carlo(2, BALANCED, 200_000, rng)
    assert est == pytest.approx(exact, abs=5e-3)


def test_tv_monte_carlo_refuses_large_view_space_before_allocating():
    # n = 9 would need a (2, 6^9) int64 table, 161 MB.
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError):
            security.concealing_tv_monte_carlo(9, BALANCED, 10,
                                               substream(61, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.05, 0.95))
def test_oracle_properties_over_mirrors(r):
    bs = optics.BeamSplitter(r, 1.0 - r)
    tv2 = security.concealing_oracle_bruteforce(2, bs)
    tv3 = security.concealing_oracle_bruteforce(3, bs)
    assert 0.0 <= tv3 <= tv2 <= 1.0


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

def test_security_report_contents():
    report = security.security_report(70, 130)
    d = report.to_dict()
    assert d["p"] == pytest.approx(0.375)
    assert d["p_prime"] == pytest.approx(0.875)
    assert d["q"] == pytest.approx(0.25)
    assert 2.7e-6 <= d["binding_advantage"] <= 2.9e-6
    assert 0.9e-6 <= d["concealing"]["advantage"] <= 1.1e-6
    import json
    assert json.loads(json.dumps(d, sort_keys=True)) == d
