"""Strategic recommending under trust decay.

A recommendee starts with success probability p0.  Every failed
recommendation multiplies it by the loss rate l < 1; every skipped step
multiplies it by the recovery factor g >= 1, clamped at p0; a success
optionally resets it to p0.  The recommender earns r per success and picks,
per step, whether to recommend.

States are exponent pairs (fails, boosts): the current probability is
p0 * l^fails * g^boosts, normalized so the clamp has been applied at every
step.  Clamp comparisons (l^a * g^(b+1) >= 1) are done on exact big
integers; expected values and bounds are float64 except where closed forms
are exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from scipy.integrate import quad as _scipy_quad

from .errors import ResourceCapError, ValidationError
from .rational import Rational, as_fraction

DEFAULT_DP_CAP = 500


@dataclass(frozen=True)
class TrustParams:
    """Process parameters: initial trust p0, loss rate l, recovery factor g,
    per-success reward r, and whether success resets trust to p0."""

    p0: Fraction
    l: Fraction
    g: Fraction
    r: Fraction
    reset: bool

    def __post_init__(self):
        object.__setattr__(self, "p0", as_fraction(self.p0, "p0"))
        object.__setattr__(self, "l", as_fraction(self.l, "l"))
        object.__setattr__(self, "g", as_fraction(self.g, "g"))
        object.__setattr__(self, "r", as_fraction(self.r, "r"))
        if not (0 < self.p0 < 1):
            raise ValidationError(f"p0 must lie in (0, 1), got {self.p0}")
        if not (0 <= self.l < 1):
            raise ValidationError(f"l must lie in [0, 1), got {self.l}")
        if self.g < 1:
            raise ValidationError(f"g must be >= 1, got {self.g}")
        if self.r <= 0:
            raise ValidationError(f"r must be > 0, got {self.r}")


def _recovery_resets(tp: TrustParams, fails: int, boosts: int) -> bool:
    """Exact clamp test: does one more recovery step reach full trust?

    True iff l^fails * g^(boosts+1) >= 1, compared via big-integer
    cross-multiplication.
    """
    ln, ld = tp.l.numerator, tp.l.denominator
    gn, gd = tp.g.numerator, tp.g.denominator
    return ln**fails * gn ** (boosts + 1) >= ld**fails * gd ** (boosts + 1)


@dataclass(frozen=True)
class TrustState:
    fails: int
    boosts: int

    def value(self, tp: TrustParams) -> Fraction:
        return tp.p0 * tp.l**self.fails * tp.g**self.boosts

    def after_skip(self, tp: TrustParams) -> "TrustState":
        if _recovery_resets(tp, self.fails, self.boosts):
            return TrustState(0, 0)
        return TrustState(self.fails, self.boosts + 1)

    def after_failure(self) -> "TrustState":
        return TrustState(self.fails + 1, self.boosts)

    def after_success(self, tp: TrustParams) -> "TrustState":
        return TrustState(0, 0) if tp.reset else self


INITIAL_STATE = TrustState(0, 0)


def recovery_threshold(l: Rational, g: Rational, *, cap: int = 10**6) -> int | None:
    """Smallest number of recovery steps that outweighs one failure's loss,
    i.e. the least integer m with l * g^m >= 1.  None when g <= 1 (or l = 0),
    where no finite number of steps suffices.

    m = ceil(ln(1/l) / ln g).  A float estimate of that ratio, widened by its
    error bound, decides m unless an integer lies within the bound (as when
    l * g^m = 1 exactly); only then are the candidates checked in exact
    integer arithmetic.
    """
    l = as_fraction(l, "l")
    g = as_fraction(g, "g")
    if not (0 <= l < 1):
        raise ValidationError(f"l must lie in [0, 1), got {l}")
    if g <= 1 or l == 0:
        return None
    # ln(1/l) >= 1 - l and ln g <= g - 1, so m >= (1 - l) / (g - 1)
    if (1 - l) / (g - 1) <= cap:
        loss_r, loss_c = _ln_split(1 / l)
        gain_r, gain_c = _ln_split(g)
        ratio = float(loss_r / gain_r) * loss_c / gain_c
        bits = max(x.bit_length() for x in (l.numerator, l.denominator, g.numerator, g.denominator))
        eps = 2.0**-48 * (8 + bits)  # >= 4x the rounding error of the estimate
        lo = max(1, math.ceil(ratio * (1 - eps)))
        hi = max(1, math.ceil(ratio * (1 + eps)))

        def reaches(m: int) -> bool:  # l * g^m >= 1, in integers
            return l.numerator * g.numerator**m >= l.denominator * g.denominator**m

        m = lo if lo > cap else next((m for m in range(lo, hi) if reaches(m)), hi)
        if m <= cap:
            return m
    raise ResourceCapError(f"recovery threshold exceeds {cap} steps")


def _ln_split(y: Fraction) -> tuple[Fraction, float]:
    """ln y for y > 1 as an exact rational factor times a float factor.

    Near 1 the rational factor is y - 1 itself, so tiny logarithms keep
    their digits and never underflow; the float factor is then ln(y)/(y-1).
    """
    d = y - 1
    if d < 1:
        fd = float(d)
        return d, math.log1p(fd) / fd if fd else 1.0
    return Fraction(1), math.log(y.numerator) - math.log(y.denominator)


# ---------------------------------------------------------------------------
# Closed forms and bounds (no recovery, g = 1)
# ---------------------------------------------------------------------------

def no_reset_total_geometric(tp: TrustParams) -> Fraction:
    """Closed form p0/(1-p0) * r/(1-l) for the no-reset total reward.

    Treats the per-attempt failure weight as fixed at 1-p0 across all decay
    levels, so it upper-bounds the exact series value.
    """
    _require_plain_decay(tp, reset=False)
    return tp.p0 / (1 - tp.p0) * tp.r / (1 - tp.l)


def no_reset_total(tp: TrustParams, tol: float = 1e-12) -> float:
    """Exact-series total reward without reset: sum of l^i p0/(1 - l^i p0) * r.

    Truncated once a term drops below tol; the discarded tail is below
    tol * l/(1-l).
    """
    _require_plain_decay(tp, reset=False)
    if tol <= 0:
        raise ValidationError("tol must be positive")
    p0f, lf, rf = float(tp.p0), float(tp.l), float(tp.r)
    total = 0.0
    i = 0
    while True:
        x = p0f * lf**i
        term = x / (1.0 - x) * rf
        total += term
        if term < tol:
            return total
        i += 1


def zero_success_probability(tp: TrustParams, tol: float = 1e-12) -> float:
    """Probability that an infinite run of recommendations never succeeds:
    the product of (1 - l^k p0) over k >= 0.

    The truncated tail multiplies the product by a factor within
    exp(-sum of remaining l^k p0/(1 - l^k p0)); iteration continues until
    that factor is within tol of 1, so the absolute error is below tol.
    """
    _require_plain_decay(tp, reset=True)
    if tol <= 0:
        raise ValidationError("tol must be positive")
    p0f, lf = float(tp.p0), float(tp.l)
    q = 1.0
    k = 0
    while True:
        q *= 1.0 - p0f * lf**k
        k += 1
        x_next = p0f * lf**k
        tail = x_next / (1.0 - x_next) / (1.0 - lf) if lf > 0 else 0.0
        if tail < tol:
            return q


def with_reset_total(tp: TrustParams, tol: float = 1e-12) -> float:
    """Total expected reward with reset, the fixed point (1-q)/q * r."""
    q = zero_success_probability(tp, tol)
    return (1.0 - q) / q * float(tp.r)


def dilog(x: float) -> float:
    """The integral of -ln(t)/(1-t) from x to 1 (equals Li2(1-x)).

    Nonnegative and decreasing on [0, 1]; dilog(0) = pi^2/6, dilog(1) = 0.
    Adaptive quadrature, absolute error well below 1e-10; `dilog_series`
    is the independent series evaluation used as a cross-check.
    """
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"dilog argument must lie in [0, 1], got {x}")
    if x == 1.0:
        return 0.0

    def integrand(t: float) -> float:
        u = 1.0 - t
        if u < 1e-8:  # removable singularity at t = 1
            return 1.0 + u / 2.0 + u * u / 3.0
        return -math.log(t) / u

    val, _err = _scipy_quad(integrand, x, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def dilog_series(x: float) -> float:
    """Series evaluation of Li2(1-x), via the reflection identity when the
    argument is above 1/2 so the power series always converges fast."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"dilog argument must lie in [0, 1], got {x}")
    z = 1.0 - x
    if z == 0.0:
        return 0.0
    if z == 1.0:
        return math.pi**2 / 6.0
    if z <= 0.5:
        return _li2_power_series(z)
    return math.pi**2 / 6.0 - math.log(z) * math.log(1.0 - z) - _li2_power_series(1.0 - z)


def _li2_power_series(z: float) -> float:
    total = 0.0
    term = z
    k = 1
    while True:
        contrib = term / (k * k)
        total += contrib
        if contrib < 1e-18:
            return total
        k += 1
        term *= z


def zero_success_lower_bound(tp: TrustParams) -> float:
    """Analytic positive lower bound on the never-succeed probability:
    (1-c) * exp(dilog(1-c)/ln(c)) with c = max(p0, l)."""
    c = max(tp.p0, tp.l)
    if not (0 < c < 1):
        raise ValidationError(f"max(p0, l) must lie strictly in (0, 1), got {c}")
    cf = float(c)
    return (1.0 - cf) * math.exp(dilog(1.0 - cf) / math.log(cf))


def with_reset_total_bound(tp: TrustParams) -> float:
    """Finite upper bound (1-d)/d * r on the with-reset total reward, where
    d is the analytic lower bound on the never-succeed probability."""
    d = zero_success_lower_bound(tp)
    return (1.0 - d) / d * float(tp.r)


def _require_plain_decay(tp: TrustParams, reset: bool) -> None:
    if tp.g != 1:
        raise ValidationError("this quantity is defined for g = 1 (no recovery)")
    if tp.reset != reset:
        raise ValidationError(f"this quantity is defined for reset={reset}")


# ---------------------------------------------------------------------------
# Policies and reward curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RewardCurve:
    """Cumulative expected reward per step (1-based), optionally with
    per-step standard errors from Monte Carlo."""

    policy: str
    values: tuple
    stderr: tuple | None = None

    def __len__(self) -> int:
        return len(self.values)

    def value_at(self, step: int):
        return self.values[step - 1]

    @property
    def final(self):
        return self.values[-1]

    def rows(self) -> Iterable[tuple]:
        for i, v in enumerate(self.values, start=1):
            yield (i, self.policy, v, None if self.stderr is None else self.stderr[i - 1])


class Policy:
    """Per-step recommend/skip rule.  Subclasses override `decide`; the
    vectorized mask hook lets simulations avoid per-element Python calls."""

    name = "policy"

    def decide(self, step: int, state: TrustState) -> bool:
        raise NotImplementedError

    def decision_mask(self, step: int, fails: np.ndarray, boosts: np.ndarray) -> np.ndarray:
        out = np.empty(fails.shape, dtype=bool)
        for i in range(len(out)):
            out[i] = self.decide(step, TrustState(int(fails[i]), int(boosts[i])))
        return out


class AllPolicy(Policy):
    name = "all"

    def decide(self, step: int, state: TrustState) -> bool:
        return True

    def decision_mask(self, step, fails, boosts):
        return np.ones(fails.shape, dtype=bool)


class EveryK(Policy):
    """Recommend every k-th step (steps k, 2k, ...): floor(n/k) times in n steps."""

    def __init__(self, k: int):
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        self.k = k
        self.name = f"every-{k}"

    def decide(self, step: int, state: TrustState) -> bool:
        return step % self.k == 0

    def decision_mask(self, step, fails, boosts):
        return np.full(fails.shape, step % self.k == 0, dtype=bool)


class OptimalPolicy(Policy):
    """Decision tables from the finite-horizon dynamic program.

    Table index is the remaining horizon; at elapsed step i of an n-step
    run the decision is tables[n - i + 1][fails, boosts].
    """

    name = "optimal"

    def __init__(self, horizon: int, tables: Sequence[np.ndarray | None]):
        self.horizon = horizon
        self._tables = tables

    def _table(self, step: int) -> np.ndarray:
        remaining = self.horizon - step + 1
        if not 1 <= remaining <= self.horizon:
            raise ValidationError(
                f"step {step} outside this policy's horizon {self.horizon}"
            )
        return self._tables[remaining]

    def decide(self, step: int, state: TrustState) -> bool:
        return bool(self._table(step)[state.fails, state.boosts])

    def decision_mask(self, step, fails, boosts):
        return self._table(step)[fails, boosts]


# ---------------------------------------------------------------------------
# Exact grids shared by the DP and the vectorized simulator
# ---------------------------------------------------------------------------

def _clamp_matrix(tp: TrustParams, rows: int, cols: int) -> np.ndarray:
    """clamp[a, b]: a recovery step from (a, b) returns to full trust.

    Exact big-integer comparisons; the threshold column is nondecreasing in
    a, so a moving pointer fills each row.
    """
    ln, ld = tp.l.numerator, tp.l.denominator
    gn, gd = tp.g.numerator, tp.g.denominator
    out = np.zeros((rows, cols), dtype=bool)
    gn_pow = [1] * (cols + 1)
    gd_pow = [1] * (cols + 1)
    for j in range(1, cols + 1):
        gn_pow[j] = gn_pow[j - 1] * gn
        gd_pow[j] = gd_pow[j - 1] * gd
    lhs, rhs = 1, 1  # ln^a, ld^a
    b = 0
    for a in range(rows):
        while b < cols and lhs * gn_pow[b + 1] < rhs * gd_pow[b + 1]:
            b += 1
        out[a, b:] = True
        lhs *= ln
        rhs *= ld
    return out


def _value_matrix(tp: TrustParams, rows: int, cols: int) -> np.ndarray:
    """value[a, b] = min(p0, p0 * l^a * g^b) as float64."""
    p0f, lf, gf = float(tp.p0), float(tp.l), float(tp.g)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.power(lf, np.arange(rows))[:, None] * np.power(gf, np.arange(cols))[None, :]
    # inf only means "clamped at p0"; 0*inf cells (l = 0) are dead trust
    grid = np.nan_to_num(grid, nan=0.0, posinf=np.inf)
    if lf == 0.0:
        grid[1:, :] = 0.0
    return np.minimum(p0f, p0f * grid)


# ---------------------------------------------------------------------------
# Expected reward of a fixed policy (exact state distribution, float weights)
# ---------------------------------------------------------------------------

def expected_curve(tp: TrustParams, policy: Policy, n: int, *, prune: float = 0.0) -> RewardCurve:
    """Exact-expectation cumulative reward curve of a fixed policy.

    Evolves the full state distribution step by step; probabilities are
    float64, state bookkeeping (clamping) is exact.  States carrying less
    than `prune` probability are dropped as they arise, undercounting the
    curve by at most n * prune * r per step (default 0: keep everything).
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if prune < 0:
        raise ValidationError("prune must be >= 0")
    rf = float(tp.r)
    clamp_cache: dict[tuple[int, int], bool] = {}
    value_cache: dict[tuple[int, int], float] = {}
    p0f, lf, gf = float(tp.p0), float(tp.l), float(tp.g)

    def clamps(a: int, b: int) -> bool:
        key = (a, b)
        if key not in clamp_cache:
            clamp_cache[key] = _recovery_resets(tp, a, b)
        return clamp_cache[key]

    def value(a: int, b: int) -> float:
        key = (a, b)
        if key not in value_cache:
            value_cache[key] = min(p0f, p0f * lf**a * gf**b)
        return value_cache[key]

    dist: dict[tuple[int, int], float] = {(0, 0): 1.0}
    cum = 0.0
    values = []
    for step in range(1, n + 1):
        nxt: dict[tuple[int, int], float] = {}

        def put(key, pr):
            nxt[key] = nxt.get(key, 0.0) + pr

        for (a, b), pr in dist.items():
            if policy.decide(step, TrustState(a, b)):
                p = value(a, b)
                cum += pr * p * rf
                put((0, 0) if tp.reset else (a, b), pr * p)
                put((a + 1, b), pr * (1.0 - p))
            else:
                put((0, 0) if clamps(a, b) else (a, b + 1), pr)
        if prune:
            nxt = {k: v for k, v in nxt.items() if v >= prune}
        dist = nxt
        values.append(cum)
    return RewardCurve(policy.name, tuple(values))


def every_k_reward(tp: TrustParams, k: int, n: int) -> RewardCurve:
    """Expected cumulative reward of the every-k policy, per step.

    When one failure is fully recovered within the k-1 intervening skips
    (l * g^(k-1) >= 1) every recommendation happens at full trust and the
    curve is exactly floor(t/k) * p0 * r, returned as exact rationals.
    Otherwise the schedule behaves like undiluted decay at rate
    l * g^(k-1) and the curve is evaluated as an exact-state expectation in
    float64.
    """
    if k < 1 or n < 1:
        raise ValidationError("k and n must be >= 1")
    if not tp.reset:
        raise ValidationError("the every-k curve is defined for the reset process")
    # k > n never recommends within the horizon; both branches are all-zero
    spaced = k > n or tp.l * tp.g ** (k - 1) >= 1
    if spaced:
        per = tp.p0 * tp.r
        return RewardCurve(f"every-{k}", tuple(Fraction(t // k) * per for t in range(1, n + 1)))
    return expected_curve(tp, EveryK(k), n)


# ---------------------------------------------------------------------------
# Finite-horizon dynamic program
# ---------------------------------------------------------------------------

def dp_optimal(
    tp: TrustParams, n: int, *, cap: int = DEFAULT_DP_CAP
) -> tuple[RewardCurve, OptimalPolicy]:
    """Optimal expected reward for every horizon up to n, plus the policy.

    Value recurrence over states (fails, boosts) with t steps remaining:
        V(t, s) = max( V(t-1, skip(s)),
                       p(s) * (r + V(t-1, success(s))) + (1-p(s)) * V(t-1, fail(s)) )
    with V(0, .) = 0.  The curve holds V(t, initial) for t = 1..n.  Ties
    choose skip, so the tables are deterministic.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > cap:
        raise ResourceCapError(f"horizon {n} exceeds the DP cap of {cap}")
    size = n + 2  # one padding row/column beyond any reachable exponent
    value = _value_matrix(tp, size, size)
    clamp = _clamp_matrix(tp, size, size)
    rf = float(tp.r)

    v = np.zeros((size, size))
    tables: list[np.ndarray | None] = [None]
    curve = []
    for _rem in range(1, n + 1):
        v_shift_b = np.empty_like(v)  # V[a, b+1]
        v_shift_b[:, :-1] = v[:, 1:]
        v_shift_b[:, -1] = v[:, -1]
        v_skip = np.where(clamp, v[0, 0], v_shift_b)

        v_shift_a = np.empty_like(v)  # V[a+1, b]
        v_shift_a[:-1, :] = v[1:, :]
        v_shift_a[-1, :] = v[-1, :]
        v_success = v[0, 0] if tp.reset else v
        v_rec = value * (rf + v_success) + (1.0 - value) * v_shift_a

        tables.append(v_rec > v_skip)  # strict: ties go to skip
        v = np.maximum(v_skip, v_rec)
        curve.append(float(v[0, 0]))

    return RewardCurve("optimal", tuple(curve)), OptimalPolicy(n, tables)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def mc_simulate(
    tp: TrustParams, policy: Policy, n: int, trials: int, seed: int
) -> RewardCurve:
    """Seeded Monte-Carlo estimate of a policy's cumulative reward curve.

    One PCG64 stream seeded with `seed` draws an n-by-trials uniform matrix
    in step-major order; trial j always consumes column j, so results are
    bit-reproducible and independent of any execution interleaving.  Returns
    per-step means with standard errors.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    size = n + 2
    value = _value_matrix(tp, size, size)
    clamp = _clamp_matrix(tp, size, size)
    rf = float(tp.r)

    fails = np.zeros(trials, dtype=np.int64)
    boosts = np.zeros(trials, dtype=np.int64)
    cum = np.zeros(trials)
    means = np.empty(n)
    errs = np.empty(n)
    scale = math.sqrt(trials) if trials > 1 else 1.0
    for step in range(1, n + 1):
        u = rng.random(trials)
        rec = policy.decision_mask(step, fails, boosts)
        p = value[fails, boosts]
        clamped = clamp[fails, boosts]
        success = rec & (u < p)
        failure = rec & ~(u < p)
        skip = ~rec
        cum[success] += rf

        new_fails = fails.copy()
        new_boosts = boosts.copy()
        if tp.reset:
            new_fails[success] = 0
            new_boosts[success] = 0
        new_fails[failure] = fails[failure] + 1
        reset_skip = skip & clamped
        grow_skip = skip & ~clamped
        new_fails[reset_skip] = 0
        new_boosts[reset_skip] = 0
        new_boosts[grow_skip] = boosts[grow_skip] + 1
        fails, boosts = new_fails, new_boosts

        means[step - 1] = cum.mean()
        errs[step - 1] = cum.std(ddof=1) / scale if trials > 1 else 0.0

    return RewardCurve(f"{policy.name}:mc", tuple(means.tolist()), tuple(errs.tolist()))
