"""Strategic recommending under trust decay.

A recommendee starts with success probability p0.  Every failed
recommendation multiplies it by the loss rate l < 1; every skipped step
multiplies it by the recovery factor g >= 1, clamped at p0; a success
optionally resets it to p0.  The recommender earns r per success and picks,
per step, whether to recommend.

States are exponent pairs (fails, boosts): the current probability is
p0 * l^fails * g^boosts, normalized so the clamp has been applied at every
step.  `_frontier` alone decides the clamp (l^a * g^(b+1) >= 1), from a
certified log-ratio estimate with exact checks near ties; expected values
and bounds are float64 except where closed forms are exact by construction.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ResourceCapError, ValidationError
from .rational import Rational, as_fraction, brief_str

DEFAULT_DP_CAP = 500
# the kernel keeps about a dozen per-state arrays, ~100 bytes a state: 2^22
# states is ~0.4 GB (Figure 2 reaches it near n = 3,750; states grow like 0.3 n^2)
KERNEL_STATE_CAP = 2**22
# Monte Carlo holds ~42 bytes a trial at its peak (state index, running sum,
# draws, masks and index temporaries): 2^23 trials is ~0.35 GB
MC_TRIAL_CAP = 2**23
_EXACT_BITS = 2**22  # the largest power, in bits, an exact clamp check builds (~0.5 s)


class TrustParams(NamedTuple("TrustParams", [("p0", Fraction), ("l", Fraction), ("g", Fraction),
                                             ("r", Fraction), ("reset", bool)])):
    """Process parameters: initial trust p0, loss rate l, recovery factor g,
    per-success reward r, and whether success resets trust to p0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace converts and checks

    def __new__(cls, p0: Rational, l: Rational, g: Rational, r: Rational, reset: bool):
        rates = (as_fraction(x, name) for x, name in zip((p0, l, g, r), cls._fields))
        self = super().__new__(cls, *rates, reset)
        if not (0 < self.p0 < 1):
            raise ValidationError(f"p0 must lie in (0, 1), got {brief_str(self.p0)}")
        if not (0 <= self.l < 1):
            raise ValidationError(f"l must lie in [0, 1), got {brief_str(self.l)}")
        if self.g < 1:
            raise ValidationError(f"g must be >= 1, got {brief_str(self.g)}")
        if not 0 < self.r <= sys.float_info.max:
            raise ValidationError(f"r must be > 0 and within the float range, got {brief_str(self.r)}")
        return self


def recovery_threshold(l: Rational, g: Rational, *, cap: int = 10**6) -> int | None:
    """Smallest number of recovery steps that outweighs one failure's loss:
    the least integer m with l * g^m >= 1, column 1 of `_frontier` plus 1.
    None when g <= 1 (or l = 0), where no finite number of steps suffices;
    ResourceCapError when m exceeds `cap` or cannot be decided exactly."""
    l, g = as_fraction(l, "l"), as_fraction(g, "g")
    if not (0 <= l < 1):
        raise ValidationError(f"l must lie in [0, 1), got {brief_str(l)}")
    if g <= 1 or l == 0:
        return None
    m = int(_frontier(l, g, 2, cap)[1]) + 1
    if m <= cap:
        return m
    raise ResourceCapError(f"recovery threshold exceeds {cap} steps")


def _ln_split(y: Fraction) -> tuple[Fraction, float]:
    """ln y, y > 1, as an exact rational times a float: near 1 the rational
    is y - 1, so tiny logarithms keep their digits and never underflow."""
    d = y - 1
    if d < 1:
        fd = float(d)
        return d, math.log1p(fd) / fd if fd else 1.0
    return Fraction(1), _ln(y)


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
    check_tolerance("tol", tol)
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
    check_tolerance("tol", tol)
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
    It is pi^2/6 less the integral from 0 to x, which t = x e^(-v) turns into
    x times the integral over v >= 0 of e^(-v) s/(1 - e^(-s)), s = v - ln x.
    A fixed 32-node Gauss-Laguerre rule evaluates that within ~2e-14 for
    every x; `dilog_series` is the independent series evaluation used as a
    cross-check.
    """
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"dilog argument must lie in [0, 1], got {x}")
    if x == 1.0:
        return 0.0
    if x == 0.0:
        return math.pi**2 / 6.0
    nodes, weights = _laguerre_rule()
    s = nodes - math.log(x)
    # near x = 1 the rule's sum falls ~2e-14 short of pi^2/6, far more than
    # the rounding error, so the difference stays >= 0
    return math.pi**2 / 6.0 - x * float(weights @ (s / -np.expm1(-s)))


@lru_cache(maxsize=1)
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.laguerre.laggauss(32)


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


def check_tolerance(name: str, value: float, *, zero_ok: bool = False) -> None:
    """Require a finite tolerance > 0 (>= 0 with zero_ok): the truncation
    loops never stop on NaN, and a NaN or infinite prune drops every state."""
    if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        bound = ">= 0" if zero_ok else "> 0"
        raise ValidationError(f"{name} must be finite and {bound}, got {value}")


def check_monte_carlo(trials: int, seed: int, *, prefix: str = "") -> None:
    """Refuse a Monte-Carlo run before it allocates anything: trials must be
    >= 1 and at most MC_TRIAL_CAP, and the seed an int >= 0 (PCG64 takes no
    negative seed)."""
    if trials < 1:
        raise ValidationError(f"{prefix}trials must be >= 1")
    if not isinstance(seed, int) or seed < 0:
        raise ValidationError(f"{prefix}seed must be an integer >= 0, got {seed!r}")
    if trials > MC_TRIAL_CAP:
        raise ResourceCapError(f"{trials} Monte-Carlo trials exceed the cap of {MC_TRIAL_CAP}")


def _require_plain_decay(tp: TrustParams, reset: bool) -> None:
    if tp.g != 1:
        raise ValidationError("this quantity is defined for g = 1 (no recovery)")
    if tp.reset != reset:
        raise ValidationError(f"this quantity is defined for reset={reset}")


# ---------------------------------------------------------------------------
# Policies and reward curves
# ---------------------------------------------------------------------------

class RewardCurve:
    """Cumulative expected reward per step (1-based), optionally with
    per-step standard errors from Monte Carlo.  Immutable; its length is
    the step count, so it is no tuple."""

    __slots__ = ("policy", "values", "stderr")

    def __init__(self, policy: str, values: tuple, stderr: tuple | None = None):
        for name, value in zip(self.__slots__, (policy, values, stderr)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to RewardCurve.{name}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return self.policy, self.values, self.stderr

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is RewardCurve else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return RewardCurve, self._key()

    def __repr__(self) -> str:
        return "RewardCurve(policy={!r}, values={!r}, stderr={!r})".format(*self._key())

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
    """Per-step recommend/skip rule over trust states (fails, boosts).

    Subclasses override `decision_mask`, which decides for whole arrays of
    states at once.
    """

    name = "policy"

    def decision_mask(self, step: int, fails: np.ndarray, boosts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decide(self, step: int, fails: int = 0, boosts: int = 0) -> bool:
        return bool(self.decision_mask(step, np.array([fails]), np.array([boosts]))[0])

    def _on_states(self, step: int, kernel: _Kernel, states: np.ndarray) -> np.ndarray:
        """The decisions for an array of kernel state indices."""
        return self.decision_mask(step, kernel.fails[states], kernel.boosts[states])


class _StepRule(Policy):
    """A policy whose decision depends on the step alone, `_recommends(step)`."""

    def decision_mask(self, step, fails, boosts):
        return np.full(np.shape(fails), self._recommends(step))

    def _on_states(self, step, kernel, states):
        return np.full(states.shape, self._recommends(step))


class AllPolicy(_StepRule):
    name = "all"

    def _recommends(self, step: int) -> bool:
        return True


class EveryK(_StepRule):
    """Recommend every k-th step (steps k, 2k, ...): floor(n/k) times in n steps."""

    def __init__(self, k: int):
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        self.k = k
        self.name = f"every-{k}"

    def _recommends(self, step: int) -> bool:
        return step % self.k == 0


class OptimalPolicy(Policy):
    """Decision tables from the finite-horizon dynamic program.

    tables[t], for t steps remaining, holds one decision per kernel state
    that can be occupied by then: the prefix of depth <= horizon - t.
    """

    name = "optimal"

    def __init__(self, kernel: _Kernel, tables: Sequence[np.ndarray | None]):
        self.horizon = kernel.n
        self._kernel = kernel
        self._tables = tables

    def _table(self, step: int) -> np.ndarray:
        remaining = self.horizon - step + 1
        if not 1 <= remaining <= self.horizon:
            raise ValidationError(f"step {step} outside this policy's horizon {self.horizon}")
        return self._tables[remaining]

    def decision_mask(self, step, fails, boosts):
        table = self._table(step)
        return table[self._kernel.index(fails, boosts, step - 1)]

    def _on_states(self, step, kernel, states):
        if kernel.tp != self._kernel.tp:
            return super()._on_states(step, kernel, states)
        # kernels of one process list their states in one order
        return self._table(step)[states]


# ---------------------------------------------------------------------------
# The reachable-state kernel shared by the DP, the expectation and Monte Carlo
# ---------------------------------------------------------------------------

class _Kernel(NamedTuple):
    """The trust states reachable from (0, 0) within n steps, with their
    success probabilities and transitions as flat index arrays.

    (fails, boosts) is reachable within d steps iff fails + boosts <= d and
    boosts <= frontier[fails], from where a skip returns to full trust.
    States are sorted by depth fails + boosts, then fails, so those reachable
    within d steps are the prefix [:depth_end[d]].  With g = 1 boosts never
    change trust and stay 0.  Moves out of the deepest layer, which no caller
    takes, point back at the state.
    """

    tp: TrustParams
    n: int
    collapsed: bool
    frontier: np.ndarray  # per fails count, capped at n
    depth_end: np.ndarray
    fails: np.ndarray
    boosts: np.ndarray
    p: np.ndarray  # min(p0, p0 * l^fails * g^boosts)
    skip: np.ndarray  # the next state after a skip, a failure and a success
    fail: np.ndarray
    succ: np.ndarray

    def index(self, fails, boosts, depth: int) -> np.ndarray:
        """Indices of the states (fails, boosts), which must all be
        reachable within `depth` steps."""
        a = np.asarray(fails, dtype=np.int64)
        b = np.asarray(boosts, dtype=np.int64)
        ok = (a >= 0) & (b >= 0) & (a + b <= depth)
        ok &= b <= self.frontier[np.where(ok, a, 0)]
        if not ok.all():
            i = np.flatnonzero(~ok)[0]
            state = f"(fails={a.flat[i]}, boosts={b.flat[i]})"
            raise ValidationError(f"state {state} is not reachable within {depth} steps")
        if self.collapsed:
            b = np.zeros_like(b)
        return self.depth_end[a + b] - b - 1


def _layout(tp: TrustParams, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clamp frontier, and the kernel's state count and end per depth
    0..n+1, without building it; ResourceCapError past KERNEL_STATE_CAP states."""
    if n >= KERNEL_STATE_CAP:  # every depth holds at least one state
        raise _over_state_cap(n)
    depths = np.arange(n + 2)
    frontier = _frontier(tp.l, tp.g, n + 2, n)
    layout = np.zeros_like(frontier) if tp.g == 1 else frontier
    # depth d holds fails a = d, d-1, ... down to the least a with
    # a + layout[a] >= d (strictly increasing in a)
    counts = depths - np.searchsorted(depths + layout, depths) + 1
    ends = np.cumsum(counts)
    if ends[n] > KERNEL_STATE_CAP:
        raise _over_state_cap(n)
    return frontier, counts, ends


@lru_cache(maxsize=8)
def _kernel(tp: TrustParams, n: int) -> _Kernel:
    frontier, counts, ends = _layout(tp, n)
    collapsed = tp.g == 1
    depths = np.arange(n + 2)
    total = int(ends[n])
    state = np.arange(total)
    depth = np.repeat(depths, counts)[:total]
    boosts = ends[depth] - state - 1
    fails = depth - boosts

    inner = depth < n
    fail = np.where(inner, ends[depth + 1] - boosts - 1, state)
    grow = state if collapsed else np.where(inner, ends[depth + 1] - boosts - 2, state)
    skip = np.where(boosts == frontier[fails], 0, grow)
    succ = np.zeros(total, dtype=state.dtype) if tp.reset else state

    p0f, lf = float(tp.p0), float(tp.l)
    gf = float(tp.g) if tp.g <= sys.float_info.max else math.inf
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        # np.power over one 0..n+1 array keeps the output bit-identical to the golden file
        lpow = np.power(lf, depths)[fails]
        gpow = np.power(gf, depths)[boosts]
        p = np.minimum(p0f, p0f * (lpow * gpow))
        far = (lpow < sys.float_info.min) & (fails > 0) | np.isinf(gpow)
        if far.any():  # l^a underflows or g^b overflows: add logarithms
            logp = fails[far] * _ln(tp.l) + boosts[far] * _ln(tp.g)
            p[far] = np.minimum(p0f, p0f * np.exp(logp))
    return _Kernel(tp, n, collapsed, frontier[: n + 1], ends[: n + 1],
                   fails, boosts, p, skip, fail, succ)


def _over_state_cap(n: int) -> ResourceCapError:
    return ResourceCapError(f"horizon {n} needs more than {KERNEL_STATE_CAP} trust states (the cap)")


def _frontier(l: Fraction, g: Fraction, rows: int, cap: int) -> np.ndarray:
    """col[a], a < rows: the least b with l^a * g^(b+1) >= 1 (a skip returns
    to full trust), capped at `cap`.  b + 1 = ceil(a * ln(1/l) / ln g).

    A float estimate of that ratio, widened by its error bound, decides each
    row unless an integer m lies within the bound (as at a tie l^a * g^m = 1);
    then l^(a/d) * g^(m/d) >= 1, d = gcd(a, m), is checked in integers, so a
    tie costs one small power.  ResourceCapError where the bound spans two
    integers, a check exceeds _EXACT_BITS bits, or capped rows may pass 2^52."""
    top = min(cap, 2**52)  # float64 holds every integer up to top + 1
    col = np.r_[min(top, 0), np.full(rows - 1, top, dtype=np.int64)]
    # ln(1/l) >= 1 - l and ln g <= g - 1: the ratio is at least (1 - l) / (g - 1)
    if l and g > 1 and (1 - l) / (g - 1) <= top:
        (loss_r, loss_c), (gain_r, gain_c) = _ln_split(1 / l), _ln_split(g)
        ratio = float(loss_r / gain_r) * loss_c / gain_c
        lbits, gbits = (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in (l, g))
        eps = 2.0**-48 * (8 + max(lbits, gbits))  # >= 4x the rounding error of the estimate
        x = np.arange(rows) * ratio
        lo, hi = (np.clip(np.ceil(x * f), 1, top + 1).astype(np.int64) for f in (1 - eps, 1 + eps))
        near = np.flatnonzero(lo < hi)
        d = np.gcd(near, lo[near])
        pairs, which = np.unique(np.stack([near // d, lo[near] // d]), axis=1, return_inverse=True)
        which = which.ravel()  # numpy 2.0.0 returns it 2-D
        cost = (pairs[0] * float(lbits) + pairs[1] * float(gbits))[which]
        cost[hi[near] - lo[near] > 1] = math.inf
        if (cost > _EXACT_BITS).any():
            a = near[np.argmax(cost > _EXACT_BITS)]
            raise ResourceCapError(
                f"recovery after {a} failures needs ~{x[a]:.6g} skips: too many to decide")
        reaches = np.array([l.numerator**a * g.numerator**m >= l.denominator**a * g.denominator**m
                            for a, m in pairs.T.tolist()], dtype=bool)
        col = hi - 1 - np.bincount(near, reaches[which], rows).astype(np.int64)  # m = lo: one less
    if top < cap and (col[1:] == top).any():
        raise ResourceCapError(f"recovery may need over {top} skips: too many to decide")
    return col


def _ln(x: Fraction) -> float:
    """ln x, finite for every positive x, even outside the float range."""
    return math.log(x.numerator) - math.log(x.denominator) if x else -math.inf


# ---------------------------------------------------------------------------
# Expected reward of a fixed policy (exact state distribution, float weights)
# ---------------------------------------------------------------------------

def expected_curve(tp: TrustParams, policy: Policy, n: int, *, prune: float = 0.0) -> RewardCurve:
    """Exact-expectation cumulative reward curve of a fixed policy.

    Moves the state distribution forward over the states that carry
    probability; probabilities are float64, clamping is exact.  States
    carrying less than `prune` probability are dropped as they arise,
    undercounting the curve by at most n * prune * r per step (default 0:
    keep everything).
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    check_tolerance("prune", prune, zero_ok=True)
    k = _kernel(tp, n)
    rf = float(tp.r)
    live = np.zeros(1, dtype=np.intp)  # states with probability, and that probability
    mass = np.ones(1)
    cum = 0.0
    values = []
    for step in range(1, n + 1):
        rec = policy._on_states(step, k, live)
        p = k.p[live]
        won = mass * p
        cum += float(won[rec].sum()) * rf
        to = np.concatenate([np.where(rec, k.succ[live], k.skip[live]), k.fail[live[rec]]])
        weight = np.concatenate([np.where(rec, won, mass), (mass * (1.0 - p))[rec]])
        acc = np.bincount(to, weight)
        live = np.flatnonzero(acc >= prune if prune else acc)
        mass = acc[live]
        values.append(cum)
    return RewardCurve(policy.name, tuple(values))


def every_k_reward(tp: TrustParams, k: int, n: int, *, prune: float = 0.0) -> RewardCurve:
    """Expected cumulative reward of the every-k policy, per step.

    When one failure is fully recovered within the k-1 intervening skips
    (l * g^(k-1) >= 1) every recommendation happens at full trust and the
    curve is exactly floor(t/k) * p0 * r, returned as exact rationals.
    Otherwise the schedule behaves like undiluted decay at rate
    l * g^(k-1) and the curve is evaluated as an exact-state expectation in
    float64, `expected_curve` with the given `prune`.
    """
    if k < 1 or n < 1:
        raise ValidationError("k and n must be >= 1")
    check_tolerance("prune", prune, zero_ok=True)
    if not tp.reset:
        raise ValidationError("the every-k curve is defined for the reset process")
    # k > n never recommends within the horizon; both branches are all-zero
    if k > n or _frontier(tp.l, tp.g, 2, k - 1)[1] <= k - 2:
        _layout(tp, n)  # the same horizon bound as every other curve
        per = tp.p0 * tp.r
        return RewardCurve(f"every-{k}", tuple(Fraction(t // k) * per for t in range(1, n + 1)))
    return expected_curve(tp, EveryK(k), n, prune=prune)


# ---------------------------------------------------------------------------
# Finite-horizon dynamic program
# ---------------------------------------------------------------------------

def dp_optimal(
    tp: TrustParams, n: int, *, cap: int = DEFAULT_DP_CAP
) -> tuple[RewardCurve, OptimalPolicy]:
    """Optimal expected reward for every horizon up to n, plus the policy.

    Value recurrence over states s with t steps remaining:
        V(t, s) = max( V(t-1, skip(s)),
                       p(s) * (r + V(t-1, success(s))) + (1-p(s)) * V(t-1, fail(s)) )
    with V(0, .) = 0.  With t steps remaining only the kernel states of
    depth <= n - t can be occupied, so each sweep covers that prefix.  The
    curve holds V(t, initial) for t = 1..n.  Ties choose skip, so the tables
    are deterministic.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if n > cap:
        raise ResourceCapError(f"horizon {n} exceeds the DP cap of {cap}")
    k = _kernel(tp, n)
    rf = float(tp.r)
    v = np.zeros(k.depth_end[n])
    tables: list[np.ndarray | None] = [None]
    curve = []
    for rem in range(1, n + 1):
        m = k.depth_end[n - rem]
        p = k.p[:m]
        v_skip = v[k.skip[:m]]
        v_success = v[0] if tp.reset else v[:m]
        v_rec = p * (rf + v_success) + (1.0 - p) * v[k.fail[:m]]
        tables.append(v_rec > v_skip)  # strict: ties go to skip
        v = np.maximum(v_skip, v_rec)
        curve.append(float(v[0]))
    return RewardCurve("optimal", tuple(curve)), OptimalPolicy(k, tables)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def mc_simulate(
    tp: TrustParams, policy: Policy, n: int, trials: int, seed: int
) -> RewardCurve:
    """Seeded Monte-Carlo estimate of a policy's cumulative reward curve.

    One PCG64 stream seeded with `seed` draws an n-by-trials uniform matrix
    in step-major order; trial j always consumes column j, so results are
    bit-reproducible and independent of any execution interleaving.  Each
    trial holds one kernel state index.  Returns per-step means with
    standard errors.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    check_monte_carlo(trials, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    k = _kernel(tp, n)
    rf = float(tp.r)
    moves = np.concatenate([k.skip, k.fail, k.succ])

    s = np.zeros(trials, dtype=np.intp)
    cum = np.zeros(trials)
    means = np.empty(n)
    errs = np.empty(n)
    scale = math.sqrt(trials) if trials > 1 else 1.0
    for step in range(1, n + 1):
        u = rng.random(trials)
        rec = policy._on_states(step, k, s)
        won = rec & (u < k.p[s])
        cum += won * rf
        s = moves[(rec.astype(np.intp) + won) * len(k.p) + s]

        means[step - 1] = cum.mean()
        errs[step - 1] = cum.std(ddof=1) / scale if trials > 1 else 0.0

    return RewardCurve(f"{policy.name}:mc", tuple(means.tolist()), tuple(errs.tolist()))
