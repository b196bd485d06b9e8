import math
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    MaskPolicy,
    RecordingPolicy,
    clamp_columns,
    decay_series_oracle,
    dense_dp_oracle,
    history_tree_oracle,
    mc_cell_oracle,
    mc_law_oracle,
    reachable_states,
    state_dp_oracle,
    time_limit,
    trust_moves,
)

import fairprice as fp
from fairprice import TrustParams, ValidationError, trust
from fairprice.errors import ResourceCapError
from fairprice.rational import decimal_str
from fairprice.trust import AllPolicy, EveryK, _frontier, _kernel, expected_curve


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


@pytest.mark.parametrize("reset", ["no", 1, None])
def test_reset_must_be_a_bool(reset):
    # reset="no" used to be kept, and read as true
    with pytest.raises(ValidationError, match="^reset must be a bool, got "):
        TrustParams("0.5", "0.66", 1, 1, reset=reset)
    with pytest.raises(ValidationError, match="^reset must be a bool, got "):
        TrustParams("0.5", "0.66", 1, 1, reset=False)._replace(reset=reset)


def _exponents(kernel, states):
    """(fails, boosts) of the state indices `states`, as `_Kernel.step` asks
    a policy about them."""
    policy = RecordingPolicy()
    kernel.step(policy, 1, np.asarray(states))
    return policy.asked[0]


def _states(kernel):
    """(fails, boosts) of every kernel state, in index order."""
    fails, boosts = _exponents(kernel, np.arange(len(kernel.p)))
    return list(zip(fails.tolist(), boosts.tolist()))


def _state(kernel, index):
    fails, boosts = _exponents(kernel, [index])
    return int(fails[0]), int(boosts[0])


def _targets(kernel, live, rec):
    """The targets `_Kernel.step` gives the states `live` deciding `rec`."""
    return kernel.step(MaskPolicy(np.asarray(rec, dtype=bool)), 1, np.asarray(live))[1]


def _check_moves(tp, k):
    """`k.step` moves every state as `trust_moves` does: a success from
    every state, a failure and a skip from those of depth < n, which have
    moves; with g = 1 a skip keeps boosts at 0."""
    every = np.arange(len(k.p))
    states = _states(k)
    inner = k.depth_end[k.n - 1]  # states are sorted by depth
    recommend = _targets(k, every, np.ones(len(every)))
    skip = _targets(k, every, np.zeros(len(every)))
    assert len(recommend) == 2 * len(every) and len(skip) == len(every)
    for s in every:
        moves = trust_moves(tp, states[s])
        assert states[recommend[s]] == moves["success"]
        if s < inner:
            assert states[recommend[len(every) + s]] == moves["fail"]
            want = moves["skip"]
            assert states[skip[s]] == ((want[0], 0) if tp.g == 1 else want)


def _skip(kernel, index):
    """The state a skip from state `index` moves to, through `step`."""
    return int(_targets(kernel, [index], [False])[0])


def _fail(kernel, index):
    """The state a failure from state `index` moves to, through `step`."""
    return int(_targets(kernel, [index], [True])[1])


def test_state_transitions_fig2():
    tp = TrustParams("0.5", "0.66", "1.33", 1, reset=True)
    k = _kernel(tp, 10)
    s0 = 0
    assert _state(k, s0) == (0, 0)
    assert _skip(k, s0) == s0  # full trust stays clamped
    assert trust_moves(tp, (0, 0))["skip"] == (0, 0)
    s1 = _fail(k, s0)
    assert _state(k, s1) == (1, 0) == trust_moves(tp, (0, 0))["fail"]
    s2 = _skip(k, s1)
    assert _state(k, s2) == (1, 1) == trust_moves(tp, (1, 0))["skip"]  # 0.66 * 1.33 < 1: not recovered yet
    assert _skip(k, s2) == s0  # 0.66 * 1.33^2 >= 1: clamp to full trust
    assert trust_moves(tp, (1, 1))["skip"] == (0, 0)
    # (1, 1) recommends: a success resets to full trust, a failure adds one
    assert _targets(k, [s2], [True]).tolist() == [s0, k.index(2, 1, 3)]
    no_reset = _kernel(TrustParams("0.5", "0.66", "1.33", 1, reset=False), 10)
    assert _targets(no_reset, [s2], [True]).tolist() == [s2, k.index(2, 1, 3)]
    # a mixed step: successes or skips first, in state order, then failures
    assert _targets(k, [s0, s1, s2], [True, False, True]).tolist() == [s0, s2, s0, s1, k.index(2, 1, 3)]
    for g in (1, "1.33"):
        for reset in (True, False):
            tp = TrustParams("0.5", "0.66", g, 1, reset=reset)
            _check_moves(tp, _kernel(tp, 10))


def test_state_values_stay_in_range():
    tp = TrustParams("0.5", "0.66", "1.33", 1, reset=True)
    k = _kernel(tp, 20)
    state, exact = 0, (0, 0)
    seen = set()
    for move in [0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0]:  # 1 = fail, 0 = skip
        state = _fail(k, state) if move else _skip(k, state)
        exact = trust_moves(tp, exact)["fail" if move else "skip"]
        assert _state(k, state) == exact
        seen.add(state)
    for s in seen:
        assert 0 < k.p[s] <= tp.p0
        assert (_state(k, s) == (0, 0)) == (k.p[s] == tp.p0)


trust_params = st.builds(
    TrustParams,
    st.fractions(min_value=F(1, 20), max_value=F(19, 20), max_denominator=100),
    st.fractions(min_value=0, max_value=F(19, 20), max_denominator=100),
    st.one_of(st.just(F(1)), st.fractions(min_value=1, max_value=3, max_denominator=100)),
    st.fractions(min_value=F(1, 10), max_value=10, max_denominator=10),
    reset=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(tp=trust_params, n=st.integers(1, 30))
def test_kernel_holds_the_reachable_states(tp, n):
    """The kernel's layers are the states found by search, with values
    matching the exact trust, and transitions matching the exact moves."""
    k = _kernel(tp, n)
    states = _states(k)
    levels = reachable_states(tp, n)
    for d in range(n + 1):
        found = levels[d]
        if tp.g == 1:  # boosts never change trust
            found = {(a, 0) for a, _ in found}
        assert set(states[: k.depth_end[d]]) == found
    for s, (a, b) in enumerate(states):
        assert k.p[s] == pytest.approx(float(tp.p0 * tp.l**a * tp.g**b), rel=1e-13, abs=0)
    _check_moves(tp, k)


@settings(max_examples=60, deadline=None)
@given(tp=trust_params, n=st.integers(1, 40))
def test_exponents_invert_the_state_index(tp, n):
    """The (fails, boosts) `step` asks a policy about invert `index` on every
    kernel state, in any order of the states, and `step` gives np.intp
    targets, so the Monte-Carlo keys state * (n+1) + successes cannot wrap
    whatever numpy's casting rules."""
    k = _kernel(tp, n)
    every = np.arange(len(k.p))
    fails, boosts = _exponents(k, every)
    assert np.array_equal(k.index(fails, boosts, n), every)
    if tp.g == 1:
        assert not boosts.any()
    shuffled = np.random.default_rng(n).permutation(every)
    assert all(np.array_equal(x[shuffled], y) for x, y in zip((fails, boosts), _exponents(k, shuffled)))
    for d in range(n + 1):  # the exponents of each depth's prefix are reachable within d steps
        m = k.depth_end[d]
        assert np.array_equal(k.index(fails[:m], boosts[:m], d), every[:m])
    for live in (every, every.astype(np.int32)):
        for rec in (np.ones(len(every), dtype=bool), np.arange(len(every)) % 2 == 0):
            assert _targets(k, live, rec).dtype == np.intp
    assert k.jump.dtype == k.clamp.dtype == np.intp and k.p.dtype == np.float64


tie_params = st.builds(
    lambda p0, lg, reset: TrustParams(p0, *lg, 1, reset=reset),
    st.fractions(min_value=F(1, 20), max_value=F(19, 20), max_denominator=100),
    st.sampled_from([(F(1, 2), 2), (F(1, 4), 2), (F(1, 2), 1), (F(9, 10), 1)]),  # l * g^m = 1, and g = 1
    st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(tp=st.one_of(trust_params, tie_params), n=st.integers(1, 40))
def test_depths_grow_until_a_skip_returns_to_full_trust(tp, n):
    """The arithmetic `step` and the DP move by: each depth holds as many
    states as the one before or one more, and with g > 1 depth d + 1 does not
    grow exactly when `trust_moves` skips depth d's first state to (0, 0), the
    only state of depth d that it skips there.  With g = 1 the kernel merges
    the boosts, so no depth grows past its one state."""
    k = _kernel(tp, n)
    counts = np.diff(k.depth_end, prepend=0)
    assert counts[0] == 1 and set(np.diff(counts).tolist()) <= {0, 1}
    states = _states(k)
    for d in range(n):
        first = k.depth_end[d] - counts[d]
        to_full = [trust_moves(tp, states[s])["skip"] == (0, 0) for s in range(first, k.depth_end[d])]
        if tp.g == 1:
            assert counts[d + 1] == 1
        else:
            assert (counts[d + 1] == counts[d]) == to_full[0]
            assert not any(to_full[1:])


@settings(max_examples=80, deadline=None)
@given(tp=st.one_of(trust_params, tie_params), n=st.integers(1, 30), data=st.data())
def test_step_moves_as_trust_moves(tp, n, data):
    """`step` over any live states of depth < n (those with moves), in any
    order, deciding a random mask: it asks the policy about the states'
    (fails, boosts), which `index` inverts, returns the policy's mask, and
    moves each state as `trust_moves` does, successes or skips in the order
    of `live`, then the failures of the states that recommend."""
    k = _kernel(tp, n)
    inner = int(k.depth_end[n - 1])
    live = np.array(data.draw(st.lists(st.integers(0, inner - 1), unique=True)), dtype=np.intp)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(live), max_size=len(live))), dtype=bool)
    policy = RecordingPolicy(mask)
    rec, targets = k.step(policy, 1, live)
    assert rec is mask
    [(fails, boosts)] = policy.asked
    assert np.array_equal(k.index(fails, boosts, n), live)
    states, first, failed = _states(k), [], []
    for s, recommends in zip(live.tolist(), mask.tolist()):
        moves = trust_moves(tp, states[s])
        skip = (moves["skip"][0], 0) if tp.g == 1 else moves["skip"]
        first.append(moves["success"] if recommends else skip)
        failed += [moves["fail"]] if recommends else []
    assert [states[t] for t in targets.tolist()] == first + failed


def test_kernel_keeps_ten_bytes_a_state(fig2_recovery):
    """The kernel keeps per state only its probability (float64) and depth
    (uint16 below n = 65,536): at Figure 2 with recovery, n = 500, 745,240
    bytes for 74,524 states, where skip and failure index arrays made it
    1,937,624."""
    k = _kernel(fig2_recovery, 500)
    per_state = [a for a in k if isinstance(a, np.ndarray) and len(a) == len(k.p)]
    assert len(k.p) == 74_524
    assert sum(a.nbytes for a in per_state) == 745_240


def test_kernel_build_peaks_below_sixteen_bytes_a_state(fig2_recovery):
    """The build makes no per-state temporaries: its traced peak stays within
    16 bytes a state (10 kept) at Figure 2 with recovery, n = 300."""
    _kernel(fig2_recovery, 5)  # numpy's lazily built internals, outside the trace
    _kernel.cache_clear()
    tracemalloc.start()
    try:
        k = _kernel(fig2_recovery, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * len(k.p)


@pytest.mark.parametrize("n", [255, 256, 2**16 - 1, 2**16])
def test_exponents_across_the_depth_widths(n):
    """Each state's depth is kept in the least unsigned dtype that holds n;
    the (fails, boosts) `step` asks a policy about invert `index` on both
    sides of each width (g = 1: one state a depth)."""
    k = _kernel(TrustParams("0.5", "0.66", 1, 1, reset=False), n)
    assert k.depth.dtype == np.min_scalar_type(n)
    every = np.arange(len(k.p))
    fails, boosts = _exponents(k, every)
    assert np.array_equal(fails, every) and not boosts.any()
    assert np.array_equal(k.index(fails, boosts, n), every)


@pytest.mark.parametrize(
    "l, g", [("1e-500", "1e400"), ("1e-300", "1e250"), (0, 2), ("0.01", 100), ("0.999", "1.0001")]
)
def test_kernel_values_beyond_the_float_range(l, g):
    """The trust of every state to float precision, also where l^a or g^b
    leaves the float range on the way."""
    tp = TrustParams("0.5", l, g, 1, reset=True)
    k = _kernel(tp, 40)
    for s, (a, b) in enumerate(_states(k)):
        want = float(tp.p0 * tp.l**a * tp.g**b)
        assert k.p[s] == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_kernel_value_does_not_underflow():
    """l^200 underflows a float and g^199 is far above 1: the trust at
    (200, 199) is 0.5 * 0.01^200 * 100^199 = 0.005, reached in 399 steps."""
    tp = TrustParams("0.5", "0.01", 100, 1, reset=False)
    k = _kernel(tp, 400)
    assert k.p[k.index(200, 199, 399)] == pytest.approx(0.005, rel=1e-12)

    class FailThenWait(fp.Policy):
        """Recommend for 200 steps, skip 199, then recommend at (200, 199)."""

        name = "fail-then-wait"

        def decision_mask(self, step, fails, boosts):
            return np.full(np.shape(fails), step <= 200) | (step == 400) & (fails == 200)

    curve = expected_curve(tp, FailThenWait(), 400)
    reached = math.prod(1 - 0.5 * 0.01**a for a in range(200))  # 200 failures in a row
    increment = curve.value_at(400) - curve.value_at(399)
    assert increment > 0
    assert increment == pytest.approx(reached * 0.005, rel=1e-9)


def test_recovery_threshold():
    assert fp.recovery_threshold("0.66", "1.33") == 2
    assert fp.recovery_threshold("0.5", 2) == 1  # l * g = 1 exactly
    assert fp.recovery_threshold("0.66", 1) is None
    assert fp.recovery_threshold(0, 2) is None
    with pytest.raises(ValidationError, match=r"^l must lie in \[0, 1\), got 1$"):
        fp.recovery_threshold(1, 2)


def test_recovery_threshold_bounded_time():
    start = time.perf_counter()
    assert fp.recovery_threshold("0.5", "1.000001") == 693148
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    assert fp.recovery_threshold("0.5", "1.0000001") == 6931473
    assert time.perf_counter() - start < 1


def _is_threshold(l, g, m):
    """Whether m is the least integer with l * g^m >= 1."""
    l, g = F(l), F(g)
    return l * g**m >= 1 > l * g ** (m - 1)


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
    assert _is_threshold(l, g, fp.recovery_threshold(l, g))


def test_recovery_threshold_bounded_for_huge_thresholds():
    """Huge thresholds return or refuse at once: the exact check of a
    candidate m used to raise g to the m-th power even for m near 7e16."""
    start = time.perf_counter()
    with localcontext() as ctx:
        ctx.prec = 40
        want = math.ceil(Decimal(2).ln() / Decimal("1.00000000001").ln())  # ...056.34
    assert fp.recovery_threshold("0.5", "1.00000000001") == want
    for g in ("1.00000000000000001", "1.0000000000001", "1." + "0" * 40 + "1"):
        with pytest.raises(ResourceCapError, match="too many to decide"):
            fp.recovery_threshold("0.5", g)
    # l * g^(10^6) is 1 to 60 digits: deciding it needs g^(10^6), 41M bits
    g = 1 + F(1, 2**40)
    with localcontext() as ctx:
        ctx.prec = 60
        l = F((1 + Decimal(2) ** -40) ** -(10**6))
    with pytest.raises(ResourceCapError, match="too many to decide"):
        fp.recovery_threshold(l, g)
    assert time.perf_counter() - start < 1


def _ties(c_max=20):
    """(l, g) = (c^-b0, c^a0): l^a * g^m = 1 exactly wherever a * b0 = m * a0."""
    c = st.fractions(min_value=F(9, 8), max_value=c_max, max_denominator=9)
    return st.builds(lambda c, b0, a0: (c**-b0, c**a0), c, st.integers(1, 6), st.integers(1, 6))


def _near(pair, k, sign):
    l, g = pair
    return l * (1 + sign * F(1, 10**k)), g


CLAMP_PAIRS = st.one_of(
    _ties(),
    st.builds(_near, _ties(), st.integers(5, 40), st.sampled_from([-1, 1])),
    # many digits: with k = 1, a * i / j is an integer (a tie) every j / gcd(i, j) rows
    st.builds(lambda i, j, k: (F(k, 10**i), F(10**j)),
              st.integers(300, 600), st.integers(300, 600), st.sampled_from([1, 1, 3, 7])),
    st.builds(lambda l: (l, F(1)), st.fractions(min_value=0, max_value=F(99, 100))),
    st.builds(lambda g: (F(0), g), st.fractions(min_value=1, max_value=50)),
    st.tuples(st.fractions(min_value=0, max_value=F(999, 1000), max_denominator=10**6),
              st.fractions(min_value=1, max_value=50, max_denominator=1000)),
)


@settings(max_examples=300, deadline=None)
@given(pair=CLAMP_PAIRS, rows=st.integers(1, 80), cap=st.integers(0, 100))
def test_frontier_matches_big_integer_loop(pair, rows, cap):
    l, g = pair
    assert _frontier(l, g, rows, cap).tolist() == clamp_columns(l, g, rows, cap)


@pytest.mark.parametrize(
    "l, g",
    [("1/2", 2), ("1/4", 2), ("1/8", 4), ("4/9", "3/2"), ("1e-500", "1e400"), ("1e-5000", "1e4000"),
     ("1e-5000", "1e1000"), (0, 2), ("0.66", 1), (0, 1), ("0.999", "1000/999"), ("0.66", "1.33")],
)
@pytest.mark.parametrize("rows, cap", [(1, 0), (2, 0), (2, 1), (60, 5), (60, 200)])
def test_frontier_edge_cases(l, g, rows, cap):
    l, g = F(l), F(g)
    assert _frontier(l, g, rows, cap).tolist() == clamp_columns(l, g, rows, cap)


@settings(max_examples=80, deadline=None)
@given(pair=st.one_of(_ties(c_max=3), st.tuples(
           st.fractions(min_value=0, max_value=F(19, 20), max_denominator=100),
           st.fractions(min_value=1, max_value=3, max_denominator=100))),
       k=st.integers(1, 12), n=st.integers(1, 12))
def test_every_k_spacing_matches_fraction_power(pair, k, n):
    """The closed form (exact rationals) is taken iff k > n or l * g^(k-1) >= 1."""
    l, g = pair
    curve = fp.every_k_reward(TrustParams("1/2", l, g, 1, reset=True), k, n)
    spaced = k > n or l * g ** (k - 1) >= 1
    assert all(isinstance(v, F) for v in curve.values) == spaced


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


@pytest.mark.parametrize(
    "p0, l", [(F(i, 10), F(j, 10)) for i in range(1, 10) for j in range(10)] + [(F(1, 2), F(33, 50))]
    # float(p0) keeps only ~1e-16 of 1 - p0 here: the first term must not read it
    + [(1 - F(e), F(j, 10)) for e in ("3e-16", "1e-12", "1e-9") for j in (0, 5, 9)],
    ids=lambda x: f"{float(x):g}" if x < F(99, 100) else f"1-{float(1 - x):g}")
def test_closed_forms_match_exact_series(p0, l):
    total, q, reset_total = decay_series_oracle(p0, l)
    no_reset, reset = TrustParams(p0, l, 1, 1, reset=False), TrustParams(p0, l, 1, 1, reset=True)
    assert fp.no_reset_total(no_reset) == pytest.approx(total, rel=1e-13, abs=0)
    assert fp.zero_success_probability(reset) == pytest.approx(q, rel=1e-13, abs=0)
    assert fp.with_reset_total(reset) == pytest.approx(reset_total, rel=1e-13, abs=0)


def test_closed_forms_near_l_one_stay_finite_or_refuse():
    # 1 - l = 1e-4 needs ~4.6e5 terms, under the cap: the no-reset total is
    # finite, but e^S, S ~ 5822, lies far beyond the float range
    near = F(9999, 10000)
    assert 6931 < fp.no_reset_total(TrustParams("0.5", near, 1, 1, reset=False)) < 6932
    tp = TrustParams("0.5", near, 1, 1, reset=True)
    for f in (fp.with_reset_total, fp.zero_success_probability):
        with pytest.raises(ResourceCapError, match="^result e\\^-?5822.46 lies beyond the float range$"):
            f(tp)
    # 1 - l = 1e-6 needs ~5e7 terms: refused before the first
    for reset in (False, True):
        tp = TrustParams("0.5", "0.999999", 1, 1, reset=reset)
        f = fp.with_reset_total if reset else fp.no_reset_total
        with pytest.raises(ResourceCapError, match="needs more than 1048576 series terms"):
            f(tp)


def test_closed_forms_refuse_at_once_as_l_tends_to_one():
    for l in (1 - F(1, 10**9), 1 - F(1, 10**400)):
        with time_limit(2):
            for reset in (False, True):
                tp = TrustParams("0.5", l, 1, 1, reset=reset)
                closed_forms = ([fp.with_reset_total, fp.zero_success_probability,
                                 fp.with_reset_total_bound, fp.zero_success_lower_bound]
                                if reset else [fp.no_reset_total])
                for f in closed_forms:
                    with pytest.raises(ResourceCapError):
                        f(tp)


def test_bounds_in_logs_never_divide_by_zero():
    # at l = 0.999 the lower bound e^-1643 lies below the float range and the
    # reward bound beyond it, while the with-reset total e^582 lies within
    tp = TrustParams("0.5", "0.999", 1, 1, reset=True)
    assert fp.with_reset_total(tp) == pytest.approx(7.7258448942716e252, rel=1e-9)
    with pytest.raises(ResourceCapError, match="^result e\\^-1643.11 lies beyond the float range$"):
        fp.zero_success_lower_bound(tp)
    with pytest.raises(ResourceCapError, match="^result e\\^1643.11 lies beyond the float range$"):
        fp.with_reset_total_bound(tp)


def test_reset_total_in_range_although_e_to_the_s_overflows():
    # S ~ 776 at 1 - l = 7.5e-4: e^S overflows, (e^S - 1) r does not for small r
    small, smaller = (TrustParams("0.5", "0.99925", 1, F(1, 10**k), reset=True) for k in (100, 150))
    assert fp.with_reset_total(small) == pytest.approx(fp.with_reset_total(smaller) * 1e50, rel=1e-12)
    assert 1e100 < fp.with_reset_total(small) < 1e300


def test_closed_forms_refuse_p0_that_rounds_to_zero_or_one():
    # the series start from float(p0), which is 1.0 or 0.0 here
    for p0 in (1 - F(1, 10**20), F(1, 10**400)):
        for reset in (False, True):
            tp = TrustParams(p0, "0.5", 1, 1, reset=reset)
            f = fp.with_reset_total if reset else fp.no_reset_total
            with pytest.raises(ResourceCapError, match="too close to 0 or 1 for the float range"):
                f(tp)
    # c = max(p0, l) = 1e-400: d rounds to 1, and (1-d)/d * r lies below the float range
    tiny = TrustParams(F(1, 10**400), 0, 1, 1, reset=True)
    assert fp.zero_success_lower_bound(tiny) == 1.0
    with pytest.raises(ResourceCapError, match="^result e\\^-inf lies beyond the float range$"):
        fp.with_reset_total_bound(tiny)


@pytest.mark.parametrize("prune", [math.nan, math.inf, -1e-12])
def test_prune_must_be_finite_and_nonnegative(fig2_reset, prune):
    # a NaN or infinite threshold used to drop every state and read p0 at each step
    with pytest.raises(ValidationError, match="prune must be finite and >= 0"):
        expected_curve(fig2_reset, AllPolicy(), 4, prune=prune)
    kept = expected_curve(fig2_reset, AllPolicy(), 4, prune=0.0)
    assert kept.value_at(2) == pytest.approx(0.915, abs=1e-15)


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
    for f in (fp.dilog, fp.dilog_series):
        with pytest.raises(ValidationError, match="must lie in \\[0, 1\\], got 2"):
            f(2)


def test_dilog_monotone_bounded_and_consistent():
    assert fp.dilog_series is fp.dilog  # two names, one evaluation
    cap = min(2 * math.exp(-1) + 1, math.pi**2 / 6) + 1e-9
    prev = None
    for i in range(101):
        x = i / 100
        v = fp.dilog(x)
        assert -1e-12 <= v <= cap
        if prev is not None:
            assert v <= prev + 1e-12
        prev = v


def test_dilog_matches_mpmath():
    import mpmath  # the reference; a test dependency (pyproject.toml, extras "test")

    xs = [i / 200 for i in range(201)] + [10.0**-k for k in range(1, 16)]
    xs += [1e-12, 1e-300, 5e-324] + [1 - 2.0**-k for k in range(1, 54)]
    with mpmath.workdps(40), warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in xs:
            want = float(mpmath.polylog(2, 1 - mpmath.mpf(x)))
            got = fp.dilog(x)
            assert got >= 0.0, x
            assert got == pytest.approx(want, rel=1e-14, abs=0), x


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


def test_every_k_without_reset_matches_expected_curve():
    # once l * g^(k-1) >= 1 each failure is recovered before the next
    # recommendation, so every one is made at p0 with or without reset and
    # floor(t/k) * p0 * r is exact in both modes; below it every_k_reward
    # is the expectation itself
    for p0, l, g, k, recovered in [("0.5", "0.66", "1.33", 3, True), ("0.9", "0.5", 2, 2, True),
                                   ("0.1", "0.66", "1.33", 4, True), ("0.5", "0.66", "1.33", 2, False),
                                   ("0.5", "0.66", 1, 3, False)]:
        tp = TrustParams(p0, l, g, 1, reset=False)
        curve = fp.every_k_reward(tp, k, 300)
        direct = expected_curve(tp, EveryK(k), 300)
        assert all(isinstance(v, F) for v in curve.values) == recovered
        assert [decimal_str(v) for v in curve.values] == [decimal_str(v) for v in direct.values]


@pytest.mark.parametrize("k", [0, 1.5, 2.0, True, "3"])
def test_every_k_takes_an_integer_k(fig2_recovery, k):
    # EveryK(1.5) used to recommend at step 3, EveryK(True) was named
    # every-True, and every_k_reward(tp, 1.5, n) returned a curve
    with pytest.raises(ValidationError, match="^k must be an integer >= 1, got "):
        EveryK(k)
    with pytest.raises(ValidationError, match="^k must be an integer >= 1, got "):
        fp.every_k_reward(fig2_recovery, k, 10)


def test_curves_refuse_rewards_beyond_the_float_range():
    # float(r) = 0 used to give a curve of zeros, and an overflow inf, a raw
    # OverflowError (every-k's exact values) or NaN standard errors
    tiny = TrustParams("0.5", "0.66", "1.33", F(1, 10**400), reset=True)
    huge = tiny._replace(r=F("1.7e308"))
    curves = {
        "all": lambda tp: expected_curve(tp, AllPolicy(), 3),
        "every-3": lambda tp: fp.every_k_reward(tp, 3, 20),  # the exact floor(t/k) branch
        "every-2": lambda tp: fp.every_k_reward(tp, 2, 6),  # the expectation
        "optimal": lambda tp: fp.dp_optimal(tp, 3)[0],
        "all:mc": lambda tp: fp.mc_simulate(tp, AllPolicy(), 3, 10, 1),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        for name, curve in curves.items():
            for tp in (tiny, tiny._replace(r=F(1, 10**310)), tiny._replace(reset=False)):
                with pytest.raises(ResourceCapError, match="^reward r = ~1e-(400|310) lies beyond"):
                    curve(tp)
            # r in range, p0 * r below it: p0 = 1e-400 read as 0.0 gave a curve of zeros
            for tp in (tiny._replace(r=F(sys.float_info.min)),
                       tiny._replace(p0=F(1, 10**400), r=F(1)),
                       tiny._replace(p0=F(1, 10**200), r=F(1, 10**200))):
                with pytest.raises(ResourceCapError,
                                   match=r"^expected reward p0\*r = ~\S+ lies beyond the float range$"):
                    curve(tp)
            for tp in (huge, huge._replace(reset=False)):
                with pytest.raises(ResourceCapError,
                                   match=f"^the {name} reward curve lies beyond the float range$"):
                    curve(tp)
    # Monte Carlo tallies successes and scales by r once, so the squared
    # deviations of r = 1e200 rewards no longer overflow
    unit = fp.mc_simulate(tiny._replace(r=F(1)), AllPolicy(), 3, 10, 1)
    big = fp.mc_simulate(tiny._replace(r=F("1e200")), AllPolicy(), 3, 10, 1)
    assert big.values == tuple(x * 1e200 for x in unit.values)
    assert big.stderr == tuple(x * 1e200 for x in unit.stderr)
    # in range, down to the smallest normal p0 * r and past half the float maximum
    assert fp.dp_optimal(tiny._replace(r=2 * F(sys.float_info.min)), 3)[0].final > 0
    assert fp.every_k_reward(huge._replace(r=F("1e308")), 3, 5).final == F("5e307")


def test_kernel_curves_refuse_a_p0_below_the_float_range():
    # float(p0) = 0 gave every kernel state p = 0, so a curve of zeros,
    # although p0 * r = 1e-100 is a float
    tiny = TrustParams(F(1, 10**400), "0.66", "1.33", F("1e300"), reset=True)
    for tp, shown in ((tiny, "1e-400"), (tiny._replace(p0=F(1, 10**310)), "1e-310")):
        for curve in (lambda: expected_curve(tp, AllPolicy(), 3),
                      lambda: fp.every_k_reward(tp, 2, 6),
                      lambda: fp.dp_optimal(tp, 3)[0],
                      lambda: fp.mc_simulate(tp, AllPolicy(), 3, 10, 1)):
            with pytest.raises(ResourceCapError, match=f"^trust p0 = ~{shown} lies beyond the float range$"):
                curve()
    # the exact every-k branch reads no float per state, so it keeps such a p0
    exact = fp.every_k_reward(tiny._replace(l=F(1, 2), g=F(2)), 2, 4)
    assert exact.values == (0, F(1, 10**100), F(1, 10**100), F(2, 10**100))


def test_curves_need_a_step(fig2_recovery):
    with pytest.raises(ValidationError, match="^n must be an integer >= 1, got 0$"):
        expected_curve(fig2_recovery, AllPolicy(), 0)
    with pytest.raises(ValidationError, match="^n must be an integer >= 1, got 0$"):
        fp.every_k_reward(fig2_recovery, 3, 0)


BAD_COUNTS = [0, -2, 2.0, 1.5, True, "3", None]


def _refusal(name, value, least=1):
    return f"^{name} must be an integer >= {least}, got {re.escape(repr(value))}$"


@pytest.mark.parametrize("n", BAD_COUNTS)
def test_dp_optimal_takes_an_integer_horizon(fig2_recovery, n):
    # a float n ended in numpy's TypeError, and n = True in its "truth value
    # of an array" ValueError
    with pytest.raises(ValidationError, match=_refusal("n", n)):
        fp.dp_optimal(fig2_recovery, n)


@pytest.mark.parametrize("n", BAD_COUNTS)
def test_expected_curve_takes_an_integer_horizon(fig2_recovery, n):
    with pytest.raises(ValidationError, match=_refusal("n", n)):
        expected_curve(fig2_recovery, AllPolicy(), n)


@pytest.mark.parametrize("n", BAD_COUNTS)
def test_every_k_reward_takes_an_integer_horizon(fig2_recovery, n):
    for k in (2, 3):  # the expectation and the exact floor(t/k) branch
        with pytest.raises(ValidationError, match=_refusal("n", n)):
            fp.every_k_reward(fig2_recovery, k, n)


@pytest.mark.parametrize("count", BAD_COUNTS)
def test_mc_simulate_takes_integer_counts(fig2_recovery, count):
    with pytest.raises(ValidationError, match=_refusal("n", count)):
        fp.mc_simulate(fig2_recovery, AllPolicy(), count, 10, 1)
    with pytest.raises(ValidationError, match=_refusal("trials", count)):
        fp.mc_simulate(fig2_recovery, AllPolicy(), 5, count, 1)


def test_step_rules_decide_by_step_alone():
    fails, boosts = np.array([0, 3, 7]), np.array([0, 1, 0])
    every3 = EveryK(3)
    assert [every3.decide(t) for t in range(1, 7)] == [False, False, True, False, False, True]
    assert every3.decide(6, fails=5, boosts=2) and not every3.decide(7, fails=0)
    assert every3.decision_mask(3, fails, boosts).tolist() == [True] * 3
    assert every3.decision_mask(4, fails, boosts).tolist() == [False] * 3
    assert AllPolicy().decide(1, fails=9, boosts=4)
    assert AllPolicy().decision_mask(5, fails, boosts).tolist() == [True] * 3


@pytest.mark.parametrize("which", ["every-k:2", "all", "optimal"])
def test_decide_takes_a_step_and_a_state(fig2_recovery, which):
    # a float step raised numpy's IndexError in a DP policy, a float state
    # was truncated, step 0 or -4 recommended in every-2, and True was step 1
    policy = _policy(which, fig2_recovery, 10)
    assert policy.decide(2, 1, 0) in (True, False)
    for step in (0, -4, 2.5, 2.0, True, "2", None):
        with pytest.raises(ValidationError, match=_refusal("step", step)):
            policy.decide(step)
    for value in (0.5, 1.0, True, "1", None):
        with pytest.raises(ValidationError, match=_refusal("fails", value, least=0)):
            policy.decide(2, value, 0)
        with pytest.raises(ValidationError, match=_refusal("boosts", value, least=0)):
            policy.decide(2, 0, value)
    for fails, boosts in [(-1, 0), (0, -1), (-3, -2)]:
        with pytest.raises(ValidationError, match=r"^state \(fails=-?\d, boosts=-?\d\) is not reachable"):
            policy.decide(2, fails, boosts)


@pytest.mark.parametrize("rule", [EveryK, AllPolicy, fp.OptimalPolicy])
def test_step_rule_subclass_decides_through_decision_mask(fig2_recovery, rule):
    """A subclass of a built-in policy that overrides `decision_mask` is
    obeyed by both curves, not only by `decide`: the curves used to follow
    the step, and a DP policy's own table on the kernel it was built on."""

    class Never(rule):
        def decision_mask(self, step, fails, boosts):
            return np.zeros(np.shape(fails), dtype=bool)

    _, dp = fp.dp_optimal(fig2_recovery, 5)
    never = Never(*{EveryK: (1,), AllPolicy: (), fp.OptimalPolicy: (dp._kernel, dp._tables)}[rule])
    assert not never.decide(1)
    assert expected_curve(fig2_recovery, never, 5).final == 0.0
    assert fp.mc_simulate(fig2_recovery, never, 5, trials=100, seed=0).final == 0.0


def test_every_k_exact_branch_respects_the_state_cap(fig2_recovery, monkeypatch):
    # every-3 at Figure 2 takes the exact floor(t/k) branch, which never
    # builds a kernel; it refuses the same horizons as the other curves,
    # those whose kernel would pass the state cap
    cap = len(_kernel(fig2_recovery, 49).p)
    monkeypatch.setattr(trust, "KERNEL_STATE_CAP", cap)
    _kernel.cache_clear()  # rebuild under the lowered cap
    assert len(fp.every_k_reward(fig2_recovery, 3, 49)) == 49
    refusal = f"horizon 50 needs more than {cap} trust states"
    for k in (3, 60):  # k > n recommends never, still refused
        with pytest.raises(ResourceCapError, match=refusal):
            fp.every_k_reward(fig2_recovery, k, 50)
    with pytest.raises(ResourceCapError, match=refusal):
        expected_curve(fig2_recovery, AllPolicy(), 50)


# ---------------------------------------------------------------------------
# Dynamic program
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g,reset", [("1.33", True), ("1", True), ("1", False), ("1.1", False)])
def test_dp_matches_reference(g, reset):
    tp = TrustParams("0.5", "0.66", g, 1, reset=reset)
    curve, _ = fp.dp_optimal(tp, 12)
    ref = state_dp_oracle(tp)
    for t in range(1, 13):
        assert curve.value_at(t) == pytest.approx(ref(t, (0, 0)), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(tp=trust_params, n=st.integers(1, 40))
def test_dp_matches_dense_grid(tp, n):
    """Same curve as the DP over the dense exponent grid, and the same
    decision on every state that can be occupied at each step."""
    curve, policy = fp.dp_optimal(tp, n)
    dense_curve, dense_tables = dense_dp_oracle(tp, n)
    assert curve.values == pytest.approx(dense_curve, rel=1e-12, abs=0)
    levels = reachable_states(tp, n)
    for step in range(1, n + 1):
        fails, boosts = np.array(sorted(levels[step - 1])).T
        want = dense_tables[n - step + 1][fails, boosts]
        assert np.array_equal(policy.decision_mask(step, fails, boosts), want)


@settings(max_examples=25, deadline=None)
@given(tp=trust_params, n=st.integers(1, 7))
def test_dp_matches_history_tree(tp, n):
    """Against exact search over every recommend/skip history, no merging."""
    curve, policy = fp.dp_optimal(tp, n)
    for t in range(1, n + 1):
        best, skip, rec = history_tree_oracle(tp, t)
        assert curve.value_at(t) == pytest.approx(float(best), rel=1e-12, abs=1e-15)
        if abs(rec - skip) > 1e-9 * best:  # resolvable in float64
            assert policy.decide(n - t + 1, 0, 0) == (rec > skip)


def test_dp_policy_rejects_unreachable_states(fig2_recovery):
    _, policy = fp.dp_optimal(fig2_recovery, 10)
    assert policy.decide(2, 1, 0) in (True, False)
    for step, fails, boosts in [(1, 1, 0), (5, 0, 1), (5, 1, 2), (5, 3, 2), (5, -1, 0)]:
        with pytest.raises(ValidationError, match="not reachable"):
            policy.decide(step, fails, boosts)
    with pytest.raises(ValidationError, match="outside"):
        policy.decide(11, 0, 0)


@pytest.mark.parametrize("fails, boosts", [
    (np.array([0.5]), np.array([0])),  # was truncated to state (0, 0)
    (np.array([1.0]), np.array([0])),
    (np.array([0]), np.array([0.0])),
    (np.array([True]), np.array([0])),  # was read as state (1, 0)
], ids=["half", "float-fails", "float-boosts", "bool"])
def test_dp_policy_refuses_states_that_are_no_integers(fig2_recovery, fails, boosts):
    _, policy = fp.dp_optimal(fig2_recovery, 10)
    with pytest.raises(ValidationError, match="^fails and boosts must be integers, got "):
        policy.decision_mask(2, fails, boosts)


def test_dp_policy_refuses_states_past_int64(fig2_recovery):
    # Python ints past int64 make object arrays, which raised OverflowError
    _, policy = fp.dp_optimal(fig2_recovery, 10)
    for fails, boosts in [(2**70, 0), (0, 2**64)]:
        with pytest.raises(ValidationError, match="^states past int64 are not reachable within 1 steps$"):
            policy.decide(2, fails, boosts)
    with pytest.raises(ValidationError, match=rf"^state \(fails={2**63}, boosts=0\) is not reachable"):
        policy.decide(2, 2**63, 0)  # a uint64 array
    with pytest.raises(ValidationError, match="^states past int64 are not reachable"):
        policy.decision_mask(2, np.array([1], dtype=object), np.array([0]))


def test_dp_policy_refuses_states_of_two_shapes(fig2_recovery):
    # shapes (2,) and (3,) raised numpy's ValueError, and an unreachable
    # state past the first of a broadcast array IndexError
    _, policy = fp.dp_optimal(fig2_recovery, 10)
    with pytest.raises(ValidationError, match=r"^fails of shape \(2,\) and boosts of shape \(3,\) do not "):
        policy.decision_mask(5, np.array([0, 1]), np.array([0, 0, 1]))
    with pytest.raises(ValidationError, match=r"^state \(fails=1, boosts=9\) is not reachable within 4 "):
        policy.decision_mask(5, np.array([1]), np.array([0, 9]))
    assert policy.decision_mask(5, np.array([0, 1, 2]), np.array([0])).shape == (3,)


def test_policy_from_other_parameters_decides_by_state(fig2_recovery):
    """A DP policy replayed on another process looks its decisions up by
    (fails, boosts), not by the other process's state numbering: the curve
    is the exact law of a walk over (fails, boosts) cells that asks
    `decide` in each."""
    _, policy = fp.dp_optimal(TrustParams("0.3", "0.66", "1.5", 1, reset=True), 30)
    law = [float(mean * fig2_recovery.r) for mean, _ in mc_law_oracle(fig2_recovery, policy, 30)]
    assert expected_curve(fig2_recovery, policy, 30).values == pytest.approx(law, rel=1e-12, abs=0)


def test_dp_single_step(fig2_recovery):
    curve, policy = fp.dp_optimal(fig2_recovery, 1)
    assert curve.final == pytest.approx(0.5, abs=1e-15)
    assert policy.decide(1, 0, 0)


def test_dp_monotone_in_horizon_and_trust():
    tp = TrustParams("0.5", "0.66", "1.33", 1, reset=True)
    curve, _ = fp.dp_optimal(tp, 60)
    assert all(b >= a - 1e-12 for a, b in zip(curve.values, curve.values[1:]))
    # higher current trust never hurts, at any fixed remaining horizon
    ref = state_dp_oracle(tp)
    states = [(0, 0), (1, 1), (1, 0), (2, 0)]
    values = [tp.p0 * tp.l**a * tp.g**b for a, b in states]
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
        assert policy.decide(120, 0, 0)
        _, short = fp.dp_optimal(tp, 20)
        assert all(short.decide(step, 0, 0) for step in range(1, 21))


def test_dp_policy_replay_consistency(fig2_recovery):
    curve, policy = fp.dp_optimal(fig2_recovery, 50)
    replay = expected_curve(fig2_recovery, policy, 50)
    assert replay.final == pytest.approx(curve.final, abs=1e-10)


def test_dp_deterministic_tables(fig2_recovery):
    _, a = fp.dp_optimal(fig2_recovery, 25)
    _, b = fp.dp_optimal(fig2_recovery, 25)
    for t in range(1, 26):
        assert np.array_equal(a._tables[t], b._tables[t])


def test_dp_tables_are_packed_bits(fig2_recovery):
    """Each table unpacks to the dense grid's decisions on every state the
    step can reach, and is stored at one bit a state, or shares the storage
    of the table before it where that one agrees on its prefix."""
    n = 60
    _, policy = fp.dp_optimal(fig2_recovery, n)
    _, dense_tables = dense_dp_oracle(fig2_recovery, n)
    k = _kernel(fig2_recovery, n)
    cells = 0
    for rem in range(1, n + 1):
        m = k.depth_end[n - rem]
        fails, boosts = _exponents(k, np.arange(m))
        table = policy.decision_mask(n - rem + 1, fails, boosts)
        assert table.dtype == bool and table.shape == (m,)
        assert np.array_equal(table, dense_tables[rem][fails, boosts])
        cells += m
    assert _table_storage(policy) <= cells / 8 + n


def _table_storage(policy):
    """Bytes of the distinct arrays behind a DP policy's tables."""
    return sum(t.nbytes for t in {id(t): t for t in policy._tables[1:]}.values())


def test_dp_tables_share_equal_prefixes(fig2_recovery):
    """A table that equals the one before it on its prefix is stored as a
    reference to it: Figure 2 with recovery at n = 500 keeps 5 distinct
    tables, 45,437 bytes, where a table of its own per step takes 1.55 MB."""
    _, policy = fp.dp_optimal(fig2_recovery, 500)
    assert _table_storage(policy) <= 50_000


def test_dp_cap_and_validation(fig2_recovery, monkeypatch):
    with pytest.raises(ResourceCapError, match="^horizon 501 exceeds the DP cap of 500$"):
        fp.dp_optimal(fig2_recovery, 501)
    with pytest.raises(ValidationError):
        fp.dp_optimal(fig2_recovery, 0)
    # the cap is read at call time
    monkeypatch.setattr(trust, "DEFAULT_DP_CAP", 10)
    with pytest.raises(ResourceCapError, match="^horizon 20 exceeds the DP cap of 10$"):
        fp.dp_optimal(fig2_recovery, 20)
    monkeypatch.setattr(trust, "DEFAULT_DP_CAP", 20)
    curve, _ = fp.dp_optimal(fig2_recovery, 20)
    assert len(curve) == 20


def test_kernel_state_cap(fig2_recovery, monkeypatch):
    # ~0.3 n^2 states at Figure 2: n = 4000 needs ~4.8M, over the 2^22 cap
    with pytest.raises(ResourceCapError, match="trust states"):
        expected_curve(fig2_recovery, AllPolicy(), 4000)
    with pytest.raises(ResourceCapError, match="trust states"):
        fp.mc_simulate(fig2_recovery, AllPolicy(), 4000, trials=1, seed=0)
    with pytest.raises(ResourceCapError, match="trust states"):
        expected_curve(fig2_recovery, AllPolicy(), 10**12)  # refused before any array
    monkeypatch.setattr(trust, "KERNEL_STATE_CAP", len(_kernel(fig2_recovery, 30).p))
    _kernel.cache_clear()  # rebuild under the lowered cap
    assert len(expected_curve(fig2_recovery, AllPolicy(), 30)) == 30
    with pytest.raises(ResourceCapError):
        expected_curve(fig2_recovery, AllPolicy(), 31)


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

        def decision_mask(self, step, fails, boosts):
            return np.full(np.shape(fails), step > 1)

    mc = fp.mc_simulate(fig2_recovery, SkipFirst(), 10, trials=500, seed=5)
    assert mc.values[0] == 0.0


def _never(mask):
    """A policy that never recommends, its decisions built by mask(fails)."""

    class Never(fp.Policy):
        name = "never"

        def decision_mask(self, step, fails, boosts):
            return mask(fails)

    return Never()


@pytest.mark.parametrize("mask", [
    lambda fails: np.zeros(np.shape(fails), dtype=np.int64),  # would index states by position
    lambda fails: np.False_,
    lambda fails: np.zeros(np.size(fails) + 1, dtype=bool),
], ids=["int", "scalar", "shape"])
def test_custom_policy_must_give_one_bool_per_state(fig2_recovery, mask):
    for curve in (lambda policy: expected_curve(fig2_recovery, policy, 5),
                  lambda policy: fp.mc_simulate(fig2_recovery, policy, 5, trials=10, seed=1)):
        with pytest.raises(ValidationError, match="^never decision_mask must return one bool per state"):
            curve(_never(mask))
        assert curve(_never(lambda fails: np.zeros(np.shape(fails), dtype=bool))).values == (0.0,) * 5


def test_mc_validation(fig2_recovery):
    with pytest.raises(ValidationError):
        fp.mc_simulate(fig2_recovery, AllPolicy(), 0, trials=10, seed=0)
    with pytest.raises(ValidationError):
        fp.mc_simulate(fig2_recovery, AllPolicy(), 5, trials=0, seed=0)
    # PCG64 raised its own ValueError on a negative seed; seed=True ran as seed 1
    for seed in (-3, 1.5, "7", None, True, False):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            fp.mc_simulate(fig2_recovery, AllPolicy(), 5, 10, seed)


def test_mc_trial_cap(fig2_recovery, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the trial cap was checked")

    monkeypatch.setattr(trust, "MC_TRIAL_CAP", 50)
    assert len(fp.mc_simulate(fig2_recovery, AllPolicy(), 5, trials=50, seed=0)) == 5
    monkeypatch.setattr(trust, "_kernel", no_work)
    monkeypatch.setattr(np.random, "PCG64", no_work)
    with pytest.raises(ResourceCapError, match="51 Monte-Carlo trials exceed the cap of 50"):
        fp.mc_simulate(fig2_recovery, AllPolicy(), 5, trials=51, seed=0)


class _TrustedFirst(fp.Policy):
    """A custom policy that reads the state: recommend while no more
    failures than recovery steps lie behind, and every fourth step."""

    name = "trusted-first"

    def decision_mask(self, step, fails, boosts):
        return (fails <= boosts) | (step % 4 == 0)


def _policy(which: str, tp: TrustParams, n: int) -> fp.Policy:
    return {"all": AllPolicy(), "every-k:2": EveryK(2), "every-k:3": EveryK(3),
            "custom": _TrustedFirst()}.get(which) or fp.dp_optimal(tp, n)[1]


@pytest.mark.parametrize("trials", [1, 2, 257])
@pytest.mark.parametrize("g", ["1", "1.33"])
@pytest.mark.parametrize("reset", [True, False])
@pytest.mark.parametrize("which", ["all", "every-k:2", "every-k:3", "optimal", "custom"])
def test_mc_matches_trial_oracle(which, reset, g, trials):
    """Means and standard errors equal, bit for bit, those of a walk over
    dict cells with scalar binomial draws and exact Fraction moments."""
    tp = TrustParams("0.5", "0.66", g, "1.5", reset=reset)
    n, seed = 24, 1000 + trials
    policy = _policy(which, tp, n)
    mc = fp.mc_simulate(tp, policy, n, trials, seed)
    moments = mc_cell_oracle(tp, policy, n, trials, seed)
    assert mc.values == tuple(float(mean) * 1.5 for mean, _ in moments)
    assert mc.stderr == tuple(math.sqrt(var) * 1.5 for _, var in moments)


@pytest.mark.parametrize("g", ["1", "1.33"])
@pytest.mark.parametrize("reset", [True, False])
@pytest.mark.parametrize("which", ["all", "every-k:2", "optimal", "custom"])
def test_mc_follows_the_exact_law(which, reset, g):
    """trials * stderr^2, the sample variance of the success counts, lies
    within 5% of their exact variance at every step of a 12-step run."""
    tp = TrustParams("0.5", "0.66", g, 1, reset=reset)
    n, trials = 12, 100_000
    policy = _policy(which, tp, n)
    mc = fp.mc_simulate(tp, policy, n, trials, seed=77)
    for step, (mean, var) in enumerate(mc_law_oracle(tp, policy, n)):
        assert abs(trials * mc.stderr[step] ** 2 - var) <= 0.05 * var
        assert abs(mc.values[step] - mean) <= 4 * mc.stderr[step]


class _ShownBoosts(fp.Policy):
    """Recommend on odd steps, skip on even ones, and keep every boosts
    count `decision_mask` is shown."""

    name = "shown-boosts"

    def __init__(self):
        self.shown = set()

    def decision_mask(self, step, fails, boosts):
        self.shown.update(boosts.tolist())
        return np.full(np.shape(fails), step % 2 == 1)


@pytest.mark.parametrize("g, shown", [("1", {0}), ("1.33", {0, 1, 2})])
def test_custom_policy_sees_boosts_only_above_g_1(g, shown):
    # at g = 1 a skip leaves trust as it is, so the kernel merges the boosts
    # axis: a custom policy reads boosts = 0 in every state, although the
    # process has skipped after failures and `trust_moves` counts those skips
    tp = TrustParams("0.5", "0.66", g, 1, reset=True)
    assert any(b for level in reachable_states(tp, 6) for _, b in level)
    for curve in (lambda p: expected_curve(tp, p, 6), lambda p: fp.mc_simulate(tp, p, 6, 50, 3)):
        policy = _ShownBoosts()
        curve(policy)
        assert policy.shown == shown


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tp=trust_params, n=st.integers(1, 30), which=st.sampled_from(["all", "every-2", "optimal"]),
       seed=st.integers(0, 2**31))
def test_mc_within_four_sigma_of_expectation(tp, n, which, seed):
    policy = {"all": AllPolicy(), "every-2": EveryK(2)}.get(which) or fp.dp_optimal(tp, n)[1]
    mc = fp.mc_simulate(tp, policy, n, trials=2000, seed=seed)
    exact = expected_curve(tp, policy, n)
    assert abs(mc.final - exact.final) <= 4 * mc.stderr[-1] + 1e-12


# ---------------------------------------------------------------------------
# Package API: the trust names load lazily but stay where they were
# ---------------------------------------------------------------------------

TRUST_API = (
    "AllPolicy", "EveryK", "OptimalPolicy", "Policy", "RewardCurve", "TrustParams",
    "dilog", "dilog_series", "dp_optimal", "every_k_reward", "expected_curve",
    "mc_simulate", "no_reset_total", "no_reset_total_geometric", "recovery_threshold",
    "with_reset_total", "with_reset_total_bound", "zero_success_lower_bound",
    "zero_success_probability",
)


@pytest.mark.parametrize("name", TRUST_API)
def test_package_reexports_trust_name(name):
    assert getattr(fp, name) is getattr(fp.trust, name)
    namespace = {}
    exec(f"from fairprice import {name}", namespace)
    assert namespace[name] is getattr(trust, name)
    assert name in dir(fp)


def test_plain_package_import_loads_trust_without_numpy():
    # numpy loads on the first kernel call, so the package imports trust
    # eagerly and re-exports its names as plain bindings
    probe = (
        "import sys, fairprice\n"
        "t = sys.modules['fairprice.trust']\n"
        "assert 'numpy' not in sys.modules\n"
        f"names = {TRUST_API!r}\n"
        "assert fairprice.trust is t\n"
        "assert all(getattr(fairprice, n) is getattr(t, n) for n in names)\n"
        "print('ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_package_star_import_and_unknown_names():
    namespace = {}
    exec("from fairprice import *", namespace)
    for name in TRUST_API:
        assert namespace[name] is getattr(trust, name)
    assert namespace["trust"] is trust and fp.trust is trust
    assert "trust" in dir(fp)
    assert namespace["shapley"] is fp.fair_division.shapley
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fp.no_such_name
    with pytest.raises(ImportError):
        exec("from fairprice import no_such_name", {})
