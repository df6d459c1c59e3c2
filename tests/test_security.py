"""Closed-form security quantities, the brute-force concealing oracle, and
the parameter solver."""

import dataclasses
import inspect
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqbc import adversary, optics, protocol, security
from cqbc.errors import InfeasibleTargetError, ParameterError
from cqbc.rng import _chunks, substream

BALANCED = optics.BeamSplitter.balanced()


# ---------------------------------------------------------------------------
# per-slot channel probabilities
# ---------------------------------------------------------------------------

def test_default_mirror_is_the_one_balanced_mirror():
    # One shared value, so its cached tables are built once.
    assert BALANCED is optics.BeamSplitter.balanced()
    assert protocol.CommitmentParams(m=1, n=2).bs is BALANCED
    for function in (security.choose_parameters, security.security_report,
                     security.concealing_oracle_bruteforce):
        assert inspect.signature(function).parameters["bs"].default is BALANCED


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
    report = security.security_report(res.m, res.n)
    assert report["binding_advantage"] <= 3e-6
    assert report["concealing"]["advantage"] <= 1.1e-6
    # minimality: one step back violates the target
    assert security.binding_advantage(res.m - 1, 3 / 8, 1 / 4) > 3e-6
    assert security.concealing_advantage(res.m, res.n - 1, 7 / 8).advantage > 1.1e-6


def test_choose_parameters_trace_records_scan():
    res = security.choose_parameters(0.5, 0.5)
    assert res.trace[0]["parameter"] == "m"
    assert any(row["parameter"] == "n" for row in res.trace)
    assert all(set(row) == {"parameter", "value", "advantage"}
               for row in res.trace)


def _scan_parameters(target_binding, target_concealing, bs, max_m, max_n):
    """The solver's answer by linear scans: the first m in [1, max_m], then
    the first n in [2, max_n], meeting each target with the solver's own
    advantages; or the message of the target that none meets."""
    probs = security.comparison_probs(bs)
    ratio = float((1 - probs.p) / (1 - probs.q))
    m = next((m for m in range(1, max_m + 1)
              if ratio ** m <= target_binding), None)
    if m is None:
        return (f"binding target {target_binding} unreachable with "
                f"m <= {max_m}")
    n = next((n for n in range(2, max_n + 1)
              if security.concealing_advantage(m, n, probs.p_prime).advantage
              <= target_concealing), None)
    if n is None:
        return (f"concealing target {target_concealing} unreachable with "
                f"n <= {max_n}")
    return m, n


_targets = st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None)
@given(r=st.one_of(st.floats(0.01, 0.99),
                   st.floats(-20.0, -2.0).map(lambda e: 10.0 ** e)),
       target_binding=_targets, target_concealing=_targets,
       max_m=st.integers(0, 2000), max_n=st.integers(0, 2000))
# the exact rational power the report once took rounded up past the target
# that the solver's float power met
@example(r=0.9, target_binding=0.9075069252077561, target_concealing=1.0,
         max_m=100_000, max_n=1_000_000)
def test_choose_parameters_matches_linear_scan(r, target_binding,
                                               target_concealing, max_m,
                                               max_n):
    bs = optics.BeamSplitter(r, 1.0 - r)
    try:
        res = security.choose_parameters(target_binding, target_concealing,
                                         bs, max_m=max_m, max_n=max_n)
    except InfeasibleTargetError as exc:
        got = str(exc)
    else:
        got = (res.m, res.n)
        assert len(res.trace) <= (math.ceil(math.log2(max_m))
                                  + math.ceil(math.log2(max_n - 1)) + 2)
        # The report states the values the solver met.
        report = security.security_report(res.m, res.n, bs)
        assert report["binding_advantage"] <= target_binding
        assert report["concealing"]["advantage"] <= target_concealing
    assert got == _scan_parameters(target_binding, target_concealing, bs,
                                   max_m, max_n)


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
    # At r = 0 a matched slot clicks D2 and a mismatched one D0, both
    # certainly: Bob reads every one of Alice's bits.
    tv = security.concealing_oracle_bruteforce(2,
                                               optics.BeamSplitter(0.0, 1.0))
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


@pytest.mark.parametrize("r", [0.2, 0.5, 0.83])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_equals_closed_form(n, r):
    # Bob's likelihood ratio for the parity is +-rho^K, so TV = (1 - r^2)^n.
    bs = optics.BeamSplitter(r, 1 - r)
    tv = security.concealing_oracle_bruteforce(n, bs)
    assert tv == pytest.approx((1 - r * r) ** n, abs=1e-12)


def test_view_law_is_exact_for_a_fraction_mirror():
    # The oracle's TV over n slots is the per-slot TV to the n-th power,
    # tau^n with tau = 2p' - 1 = 1 - r^2, exactly: 27/64 at r = 1/2, n = 3.
    # Row 1 is row 0 with the last slot's Bob bit flipped, view by view
    # (the units digit d -> (d + 3) mod 6): flipping Alice's last bit maps
    # one parity class onto the other, and only whether the bits match
    # counts. The sampled law's twins rest on it.
    for r in (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5),
              Fraction(17, 100)):
        bs = optics.BeamSplitter(r, 1 - r)
        tau = 2 * security.comparison_probs(bs).p_prime - 1
        assert tau == 1 - r * r
        for n in (2, 3, 4):
            law = security._view_law(n, bs)
            assert law.shape == (2, 6 ** n)
            assert all(isinstance(prob, Fraction) for prob in law.flat)
            assert law.sum(axis=1).tolist() == [1, 1]
            assert abs(law[0] - law[1]).sum() / 2 == tau ** n, (n, r)
            views = np.arange(6 ** n)
            flipped = views - views % 6 + (views % 6 + 3) % 6
            assert law[1].tolist() == law[0][flipped].tolist(), (n, r)


@pytest.mark.parametrize("r", [0.5, 0.3])
@pytest.mark.parametrize("n", [2, 3])
def test_sampled_view_law_matches_exact_view_law(n, r):
    # Both laws index a view the same way, so they agree view by view.
    bs = optics.BeamSplitter(r, 1 - r)
    samples = 200_000
    exact = security._view_law(n, bs)
    freq = security._sampled_view_law(n, bs, samples,
                                      substream(62, n, int(10 * r)))
    assert freq.shape == exact.shape
    possible = exact > 0
    # Only matched bits click D1 or D2: a view without a D0 click reveals
    # Alice's whole string, so the other committed bit cannot give it.
    assert not possible.all()
    assert (freq[~possible] == 0).all()
    p = exact[possible]
    z = (freq[possible] - p) / np.sqrt(p * (1 - p) / samples)
    assert np.abs(z).max() <= 5


@pytest.mark.parametrize("n", [3, 4, 6, 7, 8])
def test_sampled_view_law_equals_an_intp_recount(n):
    # The view index narrows to uint8 up to n = 3, uint16 up to 6 and
    # uint32 beyond: a recount of the same draws with an intp index, summed
    # digit by digit, shows any wrap-around at either side of a boundary.
    samples = 50_000   # several chunks at every n
    law = security._sampled_view_law(n, BALANCED, samples, substream(64, n))
    rng = substream(64, n)
    place_values = 6 ** np.arange(n - 1, -1, -1, dtype=np.intp)
    counts = np.zeros((2, 6 ** n), dtype=np.int64)
    for chunk in _chunks(samples, n):
        # The estimator's slot-major draws: n rows of chunk slots, the
        # last slot's clicks drawn as matched, then read under each bit's
        # match; the commit of 1 differs from the commit of 0 there only.
        bits = protocol.alice_generate(0, chunk, n, rng).T
        b_bits = protocol.bob_generate(chunk, n, rng).T
        eq = bits == b_bits
        eq[-1] = True
        clicks = optics.sample_detectors(eq, BALANCED, rng)
        for b_commit in (0, 1):
            bits[-1] ^= b_commit
            det = clicks * (bits == b_bits)
            digits = 3 * b_bits.astype(np.intp) + det
            counts[b_commit] += np.bincount(place_values @ digits,
                                            minlength=6 ** n)
    assert np.array_equal(law, counts / samples)


@pytest.mark.parametrize("r", [0.5, 0.3])
@pytest.mark.parametrize("n", [2, 3])
def test_sampled_view_law_row_0_is_the_per_bit_loops(n, r):
    # Row 0 counts the commits of 0 exactly as an estimator with one pass
    # per committed bit did, over several chunks: same draws, same index.
    bs = optics.BeamSplitter(r, 1 - r)
    samples = 70_000   # three chunks at n = 2, four at n = 3
    law = security._sampled_view_law(n, bs, samples, substream(65, n))
    rng = substream(65, n)
    n_views = 6 ** n
    index_type = np.min_scalar_type(n_views - 1)
    counts = np.zeros(n_views, dtype=np.int64)
    for chunk in _chunks(samples, n):
        alice = protocol.alice_generate(0, chunk, n, rng).T
        bob = protocol.bob_generate(chunk, n, rng).T
        det = optics.sample_detectors(alice == bob, bs, rng)
        slot_codes = bob * np.uint8(3)
        slot_codes += det.view(np.uint8)
        views = slot_codes[0].astype(index_type)
        for row in slot_codes[1:]:
            views *= 6
            views += row
        counts += np.bincount(views, minlength=n_views)
    assert law[0].tobytes() == (counts / samples).tobytes()


@pytest.mark.parametrize("n, samples", [(2, 0), (2, -5), (0, 10), (1, 10)])
def test_tv_monte_carlo_refuses_bad_inputs_before_any_draw(n, samples):
    rng = substream(63, 0)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError):
        security.concealing_tv_monte_carlo(n, BALANCED, samples, rng)
    assert rng.bit_generator.state == state


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


def test_tv_monte_carlo_peak_memory_at_the_largest_n():
    # The (2, 6^8) count table is 27 MB; with the frequencies and their
    # difference the call peaked at 54 MB when this test was written.
    tracemalloc.start()
    try:
        security.concealing_tv_monte_carlo(8, BALANCED, 20_000,
                                           substream(66, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56e6


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
    d = security.security_report(70, 130)
    assert set(d) == {"m", "n", "r", "t", "p", "p_prime", "q",
                      "binding_advantage", "concealing",
                      "honest_abort_probability"}
    assert set(d["concealing"]) == {"epsilon", "advantage", "first_order",
                                    "note"}
    assert d["p"] == pytest.approx(0.375)
    assert d["p_prime"] == pytest.approx(0.875)
    assert d["q"] == pytest.approx(0.25)
    assert 2.7e-6 <= d["binding_advantage"] <= 2.9e-6
    assert 0.9e-6 <= d["concealing"]["advantage"] <= 1.1e-6
    import json
    assert json.loads(json.dumps(d, sort_keys=True)) == d
    for m, n in ((0, 130), (70, 0), (70, 1)):
        with pytest.raises(ParameterError):
            security.security_report(m, n)


@pytest.mark.parametrize("r", [0.123456789, 3e-9, 1e-20])
def test_printed_advantages_are_the_public_functions(r):
    # Non-dyadic and tiny mirrors, where p, q and p' round as floats.
    bs = optics.BeamSplitter(r, 1.0 - r)
    probs = security.comparison_probs(bs)
    ratio = float(security.binding_advantage(1, probs.p, probs.q))
    concealing = security.concealing_advantage(70, 130, probs.p_prime)
    d = security.security_report(70, 130, bs)
    assert d["binding_advantage"] == ratio ** 70
    assert d["concealing"] == {
        "epsilon": concealing.epsilon, "advantage": concealing.advantage,
        "first_order": concealing.first_order,
        "note": concealing.factor_two_note}
    alter = adversary.alice_alter(protocol.CommitmentParams(70, 130, bs),
                                  substream(1, 0), trials=10)
    assert alter["per_sequence_success"]["analytic"] == ratio
    assert alter["protocol_success_m_sequences"]["analytic"] == ratio ** 70


def test_concealing_report_fields_are_its_three_values():
    assert [f.name for f in dataclasses.fields(security.ConcealingReport)] == [
        "epsilon", "advantage", "first_order"]


@pytest.mark.parametrize("m, n, expected", [(70, 130, 4.31e-3),
                                            (5, 32, 8.0e-4)])
def test_security_report_states_the_honest_abort(m, n, expected):
    d = security.security_report(m, n)
    assert d["honest_abort_probability"] == pytest.approx(expected, rel=2e-3)
    assert d["honest_abort_probability"] == protocol.d2_detection_probability(
        optics.slot_law(optics.BeamSplitter.balanced())[2],
        protocol.CommitmentParams(m, n))


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------

def test_readme_example_runs_as_written(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```python\n(.*?)```", readme.read_text(),
                      re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["probs"].p == Fraction(3, 8)
    # Each print line documents its output in a trailing comment.
    printed = capsys.readouterr().out.split()
    documented = re.findall(r"print\(.*#\s*~?(\S+)", block)
    assert len(printed) == len(documented) == 3
    for out, doc in zip(printed, documented):
        assert float(out) == pytest.approx(float(doc), rel=5e-3)
