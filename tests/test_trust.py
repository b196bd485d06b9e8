import math
import time
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fairprice as fp
from fairprice import TrustParams, TrustState, ValidationError
from fairprice.errors import ResourceCapError
from fairprice.trust import AllPolicy, EveryK, INITIAL_STATE, expected_curve


# ---------------------------------------------------------------------------
# Parameters and states
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"p0": 0, "l": "0.5", "g": 1, "r": 1},
        {"p0": 1, "l": "0.5", "g": 1, "r": 1},
        {"p0": "0.5", "l": 1, "g": 1, "r": 1},
        {"p0": "0.5", "l": "0.5", "g": "0.9", "r": 1},
        {"p0": "0.5", "l": "0.5", "g": 1, "r": 0},
    ],
)
def test_param_validation(kwargs):
    with pytest.raises(ValidationError):
        TrustParams(reset=True, **kwargs)


def test_state_transitions_fig2():
    tp = TrustParams("0.5", "0.66", "1.33", 1, reset=True)
    s0 = INITIAL_STATE
    assert s0.after_skip(tp) == s0  # full trust stays clamped
    s1 = s0.after_failure()
    assert s1 == TrustState(1, 0)
    s2 = s1.after_skip(tp)
    assert s2 == TrustState(1, 1)  # 0.66 * 1.33 < 1: not recovered yet
    assert s2.after_skip(tp) == s0  # 0.66 * 1.33^2 >= 1: clamp to full trust
    assert s2.after_success(tp) == s0
    no_reset = TrustParams("0.5", "0.66", "1.33", 1, reset=False)
    assert s2.after_success(no_reset) == s2


def test_state_values_stay_in_range():
    tp = TrustParams("0.5", "0.66", "1.33", 1, reset=True)
    state = INITIAL_STATE
    seen = set()
    for move in [0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0]:  # 1 = fail, 0 = skip
        state = state.after_failure() if move else state.after_skip(tp)
        seen.add(state)
    for s in seen:
        assert 0 < s.value(tp) <= tp.p0
        assert (s == TrustState(0, 0)) == (s.value(tp) == tp.p0)


def test_recovery_threshold():
    assert fp.recovery_threshold("0.66", "1.33") == 2
    assert fp.recovery_threshold("0.5", 2) == 1  # l * g = 1 exactly
    assert fp.recovery_threshold("0.66", 1) is None
    assert fp.recovery_threshold(0, 2) is None


def test_recovery_threshold_bounded_time():
    start = time.perf_counter()
    assert fp.recovery_threshold("0.5", "1.000001") == 693148
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    with pytest.raises(ResourceCapError):
        fp.recovery_threshold("0.5", "1.0000001")  # needs 6931472 steps
    assert time.perf_counter() - start < 1


def _threshold_by_steps(l, g, cap):
    acc, m = F(l), 0
    while acc < 1:
        acc *= F(g)
        m += 1
        if m > cap:
            return None
    return m


@pytest.mark.parametrize(
    "l, g, m",
    [("1/8", 2, 3), ("4/9", "3/2", 2), ("1/1000", 10, 3), ("0.999", "1000/999", 1)],
)
def test_recovery_threshold_exact_at_equality(l, g, m):
    """l * g^m = 1 exactly: the float estimate alone cannot decide these."""
    assert F(l) * F(g) ** m == 1
    assert fp.recovery_threshold(l, g) == m


@given(
    l=st.fractions(min_value=F(1, 10**6), max_value=F(999, 1000), max_denominator=10**6),
    g=st.fractions(min_value=F(1001, 1000), max_value=50, max_denominator=1000),
)
def test_recovery_threshold_matches_stepping(l, g):
    cap = 500
    want = _threshold_by_steps(l, g, cap)
    if want is None:
        with pytest.raises(ResourceCapError):
            fp.recovery_threshold(l, g, cap=cap)
    else:
        assert fp.recovery_threshold(l, g, cap=cap) == want


# ---------------------------------------------------------------------------
# Closed forms and series (g = 1)
# ---------------------------------------------------------------------------

def test_geometric_closed_form_exact(fig2_no_reset):
    assert fp.no_reset_total_geometric(fig2_no_reset) == F(50, 17)  # ~2.941


def test_geometric_small_loss_limit():
    tp = TrustParams("0.5", 0, 1, "3/2", reset=False)
    assert fp.no_reset_total_geometric(tp) == F(3, 2)  # p0/(1-p0) * r


def test_series_value_frozen(fig2_no_reset):
    # oracle: 30-digit evaluation of the series (mpmath) = 2.23515956578721690
    assert fp.no_reset_total(fig2_no_reset) == pytest.approx(2.235159565787217, abs=1e-9)


def test_series_single_term_when_l_zero():
    tp = TrustParams("0.5", 0, 1, 1, reset=False)
    assert fp.no_reset_total(tp) == pytest.approx(1.0, abs=1e-15)


def test_series_dominated_by_geometric():
    for p0 in ["0.1", "0.3", "0.5", "0.7", "0.9"]:
        for l in ["0.1", "0.5", "0.9"]:
            tp = TrustParams(p0, l, 1, 1, reset=False)
            assert fp.no_reset_total(tp) <= float(fp.no_reset_total_geometric(tp)) + 1e-12


def test_series_matches_finite_horizon_expectation(fig2_no_reset):
    curve = expected_curve(fig2_no_reset, AllPolicy(), 200)
    assert curve.final == pytest.approx(fp.no_reset_total(fig2_no_reset), abs=1e-6)


def test_series_wrong_regime_rejected(fig2_reset):
    with pytest.raises(ValidationError):
        fp.no_reset_total(fig2_reset)
    with pytest.raises(ValidationError):
        fp.no_reset_total(TrustParams("0.5", "0.5", "1.2", 1, reset=False))
    with pytest.raises(ValidationError):
        fp.no_reset_total(TrustParams("0.5", "0.5", 1, 1, reset=False), tol=0)


# ---------------------------------------------------------------------------
# Never-succeed probability and bounds
# ---------------------------------------------------------------------------

def test_zero_success_probability_frozen(fig2_reset):
    # oracle: mpmath 30-digit product = 0.168317915970064980
    assert fp.zero_success_probability(fig2_reset) == pytest.approx(
        0.168317915970065, abs=1e-9
    )


def test_zero_success_probability_single_factor():
    tp = TrustParams("0.3", 0, 1, 1, reset=True)
    assert fp.zero_success_probability(tp) == pytest.approx(0.7, abs=1e-15)


def test_with_reset_total_frozen(fig2_reset):
    assert fp.with_reset_total(fig2_reset) == pytest.approx(4.941138198134, abs=1e-6)


def test_dilog_endpoints_and_value():
    assert fp.dilog(1.0) == 0.0
    assert fp.dilog(0.0) == pytest.approx(math.pi**2 / 6, abs=1e-10)
    # oracle: mpmath polylog(2, 0.66) = 0.822330470644328180
    assert fp.dilog(0.34) == pytest.approx(0.822330470644328, abs=1e-10)
    with pytest.raises(ValidationError):
        fp.dilog(-0.1)
    with pytest.raises(ValidationError):
        fp.dilog(1.1)


def test_dilog_monotone_bounded_and_consistent():
    cap = min(2 * math.exp(-1) + 1, math.pi**2 / 6) + 1e-9
    prev = None
    for i in range(101):
        x = i / 100
        v = fp.dilog(x)
        assert -1e-12 <= v <= cap
        if prev is not None:
            assert v <= prev + 1e-12
        prev = v
        assert abs(v - fp.dilog_series(x)) <= 1e-9


def test_lower_bound_frozen(fig2_reset):
    # oracle: (1-c) exp(dilog(1-c)/ln c) at c = 0.66 -> 0.0469876345193849
    assert fp.zero_success_lower_bound(fig2_reset) == pytest.approx(
        0.046987634519385, abs=1e-9
    )


def test_reward_bound_frozen(fig2_reset):
    assert fp.with_reset_total_bound(fig2_reset) == pytest.approx(20.282194990843, abs=1e-6)


def test_zero_success_probability_near_one_for_tiny_p0():
    tp = TrustParams(F(1, 1000), "0.5", 1, 1, reset=True)
    q = fp.zero_success_probability(tp)
    assert 0.995 < q < 1.0


def test_lower_bound_limits():
    # c -> 1: the (1-c) factor drives the bound to 0 (underflows beyond ~0.999)
    near_one = TrustParams("0.5", F(99, 100), 1, 1, reset=True)
    assert 0 < fp.zero_success_lower_bound(near_one) < 0.01
    # c -> 0: the bound approaches 1 and the reward bound approaches 0
    near_zero = TrustParams(F(1, 10**6), F(1, 10**6), 1, 1, reset=True)
    assert fp.zero_success_lower_bound(near_zero) > 0.99
    assert fp.with_reset_total_bound(near_zero) < 0.01


def test_bound_chain_on_grid():
    for i in range(1, 10, 2):
        for j in range(1, 10, 2):
            tp = TrustParams(F(i, 10), F(j, 10), 1, 1, reset=True)
            q = fp.zero_success_probability(tp)
            lower = fp.zero_success_lower_bound(tp)
            assert q >= lower > 0
            assert fp.with_reset_total(tp) <= fp.with_reset_total_bound(tp) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Every-k heuristic
# ---------------------------------------------------------------------------

def test_every_k_spaced_closed_form(fig2_recovery):
    a3 = fp.every_k_reward(fig2_recovery, 3, 200)
    assert a3.final == F(33)
    assert all(isinstance(v, F) for v in a3.values)
    assert a3.value_at(7) == F(1)  # floor(7/3) * 0.5
    a4 = fp.every_k_reward(fig2_recovery, 4, 200)
    assert a4.final == F(25)


def test_every_k_spaced_increments_exact(fig2_recovery):
    a3 = fp.every_k_reward(fig2_recovery, 3, 60)
    per = fig2_recovery.p0 * fig2_recovery.r
    for t in range(4, 61):
        assert a3.value_at(t) - a3.value_at(t - 3) == per


def test_every_k_at_threshold_is_bounded(fig2_recovery):
    a2 = fp.every_k_reward(fig2_recovery, 2, 200)
    increments = [a2.value_at(t) - a2.value_at(t - 2) for t in range(4, 201, 2)]
    assert all(b <= a + 1e-12 for a, b in zip(increments, increments[1:]))
    effective = TrustParams(
        fig2_recovery.p0, fig2_recovery.l * fig2_recovery.g, 1, fig2_recovery.r, reset=True
    )
    assert float(a2.final) <= fp.with_reset_total(effective) + 1e-9


def test_every_k_matches_generic_expectation(fig2_recovery):
    # the closed form and the state-distribution evaluation must agree
    direct = expected_curve(fig2_recovery, EveryK(3), 30)
    closed = fp.every_k_reward(fig2_recovery, 3, 30)
    assert all(
        float(c) == pytest.approx(d, abs=1e-12) for c, d in zip(closed.values, direct.values)
    )


def test_every_one_equals_all_policy(fig2_reset):
    k1 = expected_curve(fig2_reset, EveryK(1), 40)
    all_ = expected_curve(fig2_reset, AllPolicy(), 40)
    assert k1.values == pytest.approx(all_.values, abs=1e-12)


def test_every_k_requires_reset(fig2_no_reset):
    with pytest.raises(ValidationError):
        fp.every_k_reward(fig2_no_reset, 3, 10)


# ---------------------------------------------------------------------------
# Dynamic program
# ---------------------------------------------------------------------------

def reference_dp(tp: TrustParams, n: int):
    """Independent finite-horizon DP over TrustState objects (dict memo)."""

    @lru_cache(maxsize=None)
    def value(t: int, state: TrustState) -> float:
        if t == 0:
            return 0.0
        skip_v = value(t - 1, state.after_skip(tp))
        p = float(state.value(tp))
        rec_v = p * (float(tp.r) + value(t - 1, state.after_success(tp))) + (1 - p) * value(
            t - 1, state.after_failure()
        )
        return max(skip_v, rec_v)

    return value


@pytest.mark.parametrize("g,reset", [("1.33", True), ("1", True), ("1", False), ("1.1", False)])
def test_dp_matches_reference(g, reset):
    tp = TrustParams("0.5", "0.66", g, 1, reset=reset)
    curve, _ = fp.dp_optimal(tp, 12)
    ref = reference_dp(tp, 12)
    for t in range(1, 13):
        assert curve.value_at(t) == pytest.approx(ref(t, INITIAL_STATE), abs=1e-12)


def test_dp_single_step(fig2_recovery):
    curve, policy = fp.dp_optimal(fig2_recovery, 1)
    assert curve.final == pytest.approx(0.5, abs=1e-15)
    assert policy.decide(1, INITIAL_STATE)


def test_dp_monotone_in_horizon_and_trust():
    tp = TrustParams("0.5", "0.66", "1.33", 1, reset=True)
    curve, _ = fp.dp_optimal(tp, 60)
    assert all(b >= a - 1e-12 for a, b in zip(curve.values, curve.values[1:]))
    # higher current trust never hurts, at any fixed remaining horizon
    ref = reference_dp(tp, 10)
    states = [TrustState(0, 0), TrustState(1, 1), TrustState(1, 0), TrustState(2, 0)]
    values = [s.value(tp) for s in states]
    for t in range(1, 11):
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                if values[i] >= values[j]:
                    assert ref(t, si) >= ref(t, sj) - 1e-12


def test_dp_no_recovery_equals_recommend_all(fig2_reset, fig2_no_reset):
    for tp in (fig2_reset, fig2_no_reset):
        curve, policy = fp.dp_optimal(tp, 120)
        everything = expected_curve(tp, AllPolicy(), 120)
        assert curve.values == pytest.approx(everything.values, abs=1e-9)
        # recommend wherever the choice is resolvable in float64; deep in the
        # converged regime the bounded remaining value ties and ties skip
        assert policy.decide(120, INITIAL_STATE)
        _, short = fp.dp_optimal(tp, 20)
        assert all(short.decide(step, INITIAL_STATE) for step in range(1, 21))


def test_dp_policy_replay_consistency(fig2_recovery):
    curve, policy = fp.dp_optimal(fig2_recovery, 50)
    replay = expected_curve(fig2_recovery, policy, 50)
    assert replay.final == pytest.approx(curve.final, abs=1e-10)


def test_dp_deterministic_tables(fig2_recovery):
    _, a = fp.dp_optimal(fig2_recovery, 25)
    _, b = fp.dp_optimal(fig2_recovery, 25)
    for t in range(1, 26):
        assert np.array_equal(a._tables[t], b._tables[t])


def test_dp_cap_and_validation(fig2_recovery):
    with pytest.raises(ResourceCapError):
        fp.dp_optimal(fig2_recovery, 501)
    with pytest.raises(ResourceCapError):
        fp.dp_optimal(fig2_recovery, 20, cap=10)
    with pytest.raises(ValidationError):
        fp.dp_optimal(fig2_recovery, 0)
    curve, _ = fp.dp_optimal(fig2_recovery, 20, cap=20)
    assert len(curve) == 20


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_mc_deterministic(fig2_recovery):
    a = fp.mc_simulate(fig2_recovery, EveryK(3), 50, trials=200, seed=9)
    b = fp.mc_simulate(fig2_recovery, EveryK(3), 50, trials=200, seed=9)
    assert a.values == b.values and a.stderr == b.stderr
    c = fp.mc_simulate(fig2_recovery, EveryK(3), 50, trials=200, seed=10)
    assert a.values != c.values
    one = fp.mc_simulate(fig2_recovery, EveryK(3), 20, trials=1, seed=0)
    two = fp.mc_simulate(fig2_recovery, EveryK(3), 20, trials=1, seed=0)
    assert one.values == two.values


def test_mc_within_three_sigma_of_expectation(fig2_reset, fig2_no_reset, fig2_recovery):
    # every named policy at the standard experiment parameters, 1e5 trials
    mc = fp.mc_simulate(fig2_reset, AllPolicy(), 200, trials=100_000, seed=3)
    exact = expected_curve(fig2_reset, AllPolicy(), 200)
    assert abs(mc.final - exact.final) <= 3 * mc.stderr[-1]

    mc_nr = fp.mc_simulate(fig2_no_reset, AllPolicy(), 200, trials=100_000, seed=30)
    exact_nr = expected_curve(fig2_no_reset, AllPolicy(), 200)
    assert abs(mc_nr.final - exact_nr.final) <= 3 * mc_nr.stderr[-1]

    mc3 = fp.mc_simulate(fig2_recovery, EveryK(3), 200, trials=100_000, seed=4)
    assert abs(mc3.final - 33.0) <= 3 * mc3.stderr[-1]

    mc2 = fp.mc_simulate(fig2_recovery, EveryK(2), 200, trials=100_000, seed=5)
    a2 = fp.every_k_reward(fig2_recovery, 2, 200)
    assert abs(mc2.final - float(a2.final)) <= 3 * mc2.stderr[-1]


def test_mc_generic_policy_fallback(fig2_recovery):
    class SkipFirst(fp.Policy):
        name = "skip-first"

        def decide(self, step, state):
            return step > 1

    mc = fp.mc_simulate(fig2_recovery, SkipFirst(), 10, trials=500, seed=5)
    assert mc.values[0] == 0.0


def test_mc_validation(fig2_recovery):
    with pytest.raises(ValidationError):
        fp.mc_simulate(fig2_recovery, AllPolicy(), 0, trials=10, seed=0)
    with pytest.raises(ValidationError):
        fp.mc_simulate(fig2_recovery, AllPolicy(), 5, trials=0, seed=0)
