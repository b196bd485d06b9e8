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
The no-recovery (g = 1) closed forms sum their series to float resolution;
where a sum needs more than SERIES_TERM_CAP terms or a result leaves the
float range they raise ResourceCapError, never returning inf or 0.
numpy loads only in the kernel, DP, expectation, Monte-Carlo, policy and
`_frontier` code; the closed forms and bounds never load it.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import ResourceCapError, ValidationError
from .rational import Rational, as_fraction, brief_str

DEFAULT_DP_CAP = 500
# the kernel keeps two per-state arrays, 10 bytes a state, and builds them with no
# per-state temporary: 2^22 states is ~0.04 GB (Figure 2 reaches it near n = 3,750;
# states grow like 0.3 n^2)
KERNEL_STATE_CAP = 2**22
# Monte Carlo holds ~170 bytes an occupied (state, successes) cell at its peak,
# and no cell is empty, so cells never outnumber trials: spread-out runs of 10^6
# trials (every-k:2, n = 500-2,000) occupy at most ~41,000 cells, ~7 MB
MC_TRIAL_CAP = 2**23
_EXACT_BITS = 2**22  # the largest power, in bits, an exact clamp check builds (~0.5 s)
# the no-recovery series stop within 2^20 terms for l up to ~0.999955 (1 - l >= 4.46e-5);
# the longest such sum takes ~0.2 s (2-vCPU guest, Python 3.11)
SERIES_TERM_CAP = 2**20
_LN_FLOAT_MIN, _LN_FLOAT_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


class TrustParams(NamedTuple("TrustParams", [("p0", Fraction), ("l", Fraction), ("g", Fraction),
                                             ("r", Fraction), ("reset", bool)])):
    """Process parameters: initial trust p0, loss rate l, recovery factor g,
    per-success reward r, and whether success resets trust to p0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace converts and checks

    def __new__(cls, p0: Rational, l: Rational, g: Rational, r: Rational, reset: bool):
        if not isinstance(reset, bool):
            raise ValidationError(f"reset must be a bool, got {reset!r}")
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


def recovery_threshold(l: Rational, g: Rational) -> int | None:
    """Smallest number of recovery steps that outweighs one failure's loss:
    the least integer m with l * g^m >= 1, column 1 of `_frontier` plus 1.
    None when g <= 1 (or l = 0), where no finite number of steps suffices;
    ResourceCapError when m exceeds 2^52 or cannot be decided exactly."""
    l, g = as_fraction(l, "l"), as_fraction(g, "g")
    if not (0 <= l < 1):
        raise ValidationError(f"l must lie in [0, 1), got {brief_str(l)}")
    if g <= 1 or l == 0:
        return None
    # a cap past 2^52 leaves the refusal of what floats cannot place to `_frontier`
    return int(_frontier(l, g, 2, 2**53)[1]) + 1


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


def no_reset_total(tp: TrustParams) -> float:
    """Exact-series total reward without reset: sum of l^i p0/(1 - l^i p0) * r,
    to float resolution; ResourceCapError past the term cap or float range."""
    _require_plain_decay(tp, reset=False)
    return _float_result(math.log(_decay_series(tp, lambda x, y: x / y)) + _ln(tp.r))


def zero_success_probability(tp: TrustParams) -> float:
    """Probability that an infinite run of recommendations never succeeds:
    the product q of (1 - l^k p0) over k >= 0, as e^-S for S = -ln q, to
    float resolution; ResourceCapError past the term cap or float range."""
    _require_plain_decay(tp, reset=True)
    return _float_result(-_decay_series(tp, _neg_log1m))


def with_reset_total(tp: TrustParams) -> float:
    """Total expected reward with reset, the fixed point (1-q)/q * r = (e^S - 1) * r;
    ResourceCapError past the term cap or float range."""
    _require_plain_decay(tp, reset=True)
    return _reward_fixed_point(_decay_series(tp, _neg_log1m), tp.r)


def _neg_log1m(x: float, y: float) -> float:
    """-ln(1-x) given y = 1 - x: log1p of x below 1/2, where y near 1 keeps
    too few digits of ln y, and ln y above, where y keeps digits x has lost."""
    return -math.log1p(-x) if x < 0.5 else -math.log(y)


def _decay_series(tp: TrustParams, f) -> float:
    """The sum of f(x, 1 - x) at x = p0 * l^i over i >= 0 for a convex f with
    f(0, 1) = 0: as f(l x) <= l f(x), the tail after a term t is at most
    t * l/(1-l), and the sum stops once adding that bound would leave the
    running sum unchanged.  The first 1 - x is the exact 1 - p0 rounded
    once, so p0 near 1 keeps the digits float(p0) drops."""
    x = float(tp.p0)
    if not sys.float_info.min <= x < 1.0:
        raise ResourceCapError(f"p0 = {brief_str(tp.p0)} lies too close to 0 or 1 for the float range")
    # each term is at most l times the one before and the sum is at least the
    # first, so the rule has stopped once l^i * l/(1-l) < 2^-54
    if 54 * math.log(2) + _ln(tp.l) - _ln(1 - tp.l) > -_ln(tp.l) * SERIES_TERM_CAP:
        raise ResourceCapError(
            f"l = {brief_str(tp.l)} needs more than {SERIES_TERM_CAP} series terms (the cap)")
    lf = float(tp.l)
    ratio = lf / (1.0 - lf)
    total, y = 0.0, float(1 - tp.p0)
    while True:
        term = f(x, y)
        total += term
        if total + term * ratio == total:
            return total
        x *= lf
        y = 1.0 - x


def _reward_fixed_point(s: float, r: Fraction) -> float:
    """(1-q)/q * r for q = e^-s, as e^(s + ln(1 - e^-s) + ln r): nothing
    overflows before the result."""
    return _float_result(s + (math.log(-math.expm1(-s)) if s else -math.inf) + _ln(r))


def _float_result(ln_x: float) -> float:
    """e^ln_x; ResourceCapError where that lies beyond the normal float range,
    so a closed form never returns inf or an underflowed 0."""
    if not _LN_FLOAT_MIN <= ln_x <= _LN_FLOAT_MAX:
        raise ResourceCapError(f"result e^{ln_x:.6g} lies beyond the float range")
    return math.exp(ln_x)


def _float_reward(tp: TrustParams) -> float:
    """float(r) for a reward curve; ResourceCapError where r or p0 * r, the
    reward a first recommendation expects, lies below the normal float
    range, so a curve never reads a reward of 0."""
    if tp.r < sys.float_info.min:
        raise ResourceCapError(f"reward r = {brief_str(tp.r)} lies beyond the float range")
    pr = tp.p0 * tp.r
    if pr < sys.float_info.min:
        raise ResourceCapError(f"expected reward p0*r = {brief_str(pr)} lies beyond the float range")
    return float(tp.r)


def _in_float_range(curve: RewardCurve) -> RewardCurve:
    """The curve; ResourceCapError where its final value (rewards accumulate,
    so the largest) or a standard error overflows the float range."""
    if not all(x <= sys.float_info.max for x in (curve.final, *(curve.stderr or ()))):
        raise ResourceCapError(f"the {curve.policy} reward curve lies beyond the float range")
    return curve


def dilog(x: float) -> float:
    """Li2(1-x), the integral of -ln(t)/(1-t) from x to 1.

    Nonnegative and decreasing on [0, 1]; dilog(0) = pi^2/6, dilog(1) = 0.
    The power series of Li2(z) = sum z^k/k^2 is summed at z = 1 - x when
    x >= 1/2, and otherwise at z = x through the reflection identity
    Li2(1-x) = pi^2/6 - ln(x) ln(1-x) - Li2(x), so it always converges at
    least as fast as 2^-k and x's own digits are never lost to 1 - x.
    `dilog_series` is another name for this function.
    """
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"dilog argument must lie in [0, 1], got {x}")
    if x >= 0.5:
        return _li2_power_series(1.0 - x)
    if x == 0.0:
        return math.pi**2 / 6.0
    return math.pi**2 / 6.0 - math.log(x) * math.log1p(-x) - _li2_power_series(x)


dilog_series = dilog


def _li2_power_series(z: float) -> float:
    """The sum of z^k/k^2 over k >= 1, 0 <= z <= 1/2, stopped once adding a
    term leaves the sum unchanged."""
    total, power, k = 0.0, z, 1
    while True:
        grown = total + power / (k * k)
        if grown == total:
            return total
        total, power, k = grown, power * z, k + 1


def zero_success_lower_bound(tp: TrustParams) -> float:
    """Analytic positive lower bound d on the never-succeed probability:
    (1-c) * exp(dilog(1-c)/ln(c)) with c = max(p0, l); ResourceCapError
    where it lies below the float range."""
    return _float_result(_ln_zero_success_lower_bound(tp))


def with_reset_total_bound(tp: TrustParams) -> float:
    """Finite upper bound (1-d)/d * r on the with-reset total reward, where
    d is the analytic lower bound on the never-succeed probability;
    ResourceCapError where it lies beyond the float range."""
    return _reward_fixed_point(-_ln_zero_success_lower_bound(tp), tp.r)


def _ln_zero_success_lower_bound(tp: TrustParams) -> float:
    """ln d = ln(1-c) + dilog(1-c)/ln(c), both logarithms to full precision
    however close c lies to 0 or 1."""
    c = max(tp.p0, tp.l)  # in (0, 1): TrustParams holds 0 < p0 < 1 and 0 <= l < 1
    rest = 1 - c
    if float(rest) < sys.float_info.min:  # ln d < ln(1-c): below the float range
        return -math.inf
    (a, ka), (b, kb) = _ln_split(1 / rest), _ln_split(1 / c)
    return -float(a) * ka - dilog(float(rest)) / (float(b) * kb)


def check_tolerance(name: str, value: float) -> None:
    """Require a finite tolerance >= 0: a NaN or infinite prune drops every
    state."""
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")


def check_count(name: str, value: int, least: int = 1) -> None:
    """Require an int >= least (a bool, or a float such as 2.0, is no count)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


def check_monte_carlo(trials: int, seed: int, *, prefix: str = "") -> None:
    """Refuse a Monte-Carlo run before it allocates anything: trials must be
    a count at most MC_TRIAL_CAP, and the seed an int >= 0 (PCG64 takes no
    negative seed)."""
    check_count(f"{prefix}trials", trials)
    check_count(f"{prefix}seed", seed, least=0)
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
    states at once and returns one bool per state.  At g = 1 a skip leaves
    trust unchanged and the kernel merges the boosts axis, so the curves
    show `decision_mask` boosts = 0 in every state, skips taken or not.
    `decide` asks about one state; it refuses with ValidationError a step
    that is no int >= 1 and fails or boosts that are no int >= 0.
    """

    name = "policy"

    def decision_mask(self, step: int, fails: np.ndarray, boosts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decide(self, step: int, fails: int = 0, boosts: int = 0) -> bool:
        import numpy as np

        check_count("step", step)
        if any(isinstance(v, int) and v < 0 for v in (fails, boosts)):
            raise ValidationError(f"state (fails={fails}, boosts={boosts}) is not reachable")
        check_count("fails", fails, least=0)
        check_count("boosts", boosts, least=0)
        return bool(self.decision_mask(step, np.array([fails]), np.array([boosts]))[0])


class EveryK(Policy):
    """Recommend every k-th step (steps k, 2k, ...): floor(n/k) times in n steps."""

    def __init__(self, k: int):
        check_count("k", k)
        self.k = k
        self.name = f"every-{k}"

    def decision_mask(self, step, fails, boosts):
        import numpy as np

        return np.full(np.shape(fails), step % self.k == 0)


class AllPolicy(EveryK):
    """Recommend at every step: every-k with k = 1."""

    def __init__(self):
        super().__init__(1)
        self.name = "all"


class OptimalPolicy(Policy):
    """Decision tables from the finite-horizon dynamic program.

    tables[t], for t steps remaining, holds one decision per kernel state
    that can be occupied by then, the prefix of depth <= horizon - t, as
    bits packed by `np.packbits`.  Tables with equal prefixes share storage:
    where tables[t] equals tables[t-1] on its prefix it is tables[t-1], bits
    past that prefix included.  It looks states up by (fails, boosts) on its
    own kernel, so it decides alike on any kernel, and refuses with
    ValidationError a step past its horizon or a state it cannot occupy.
    """

    name = "optimal"

    def __init__(self, kernel: _Kernel, tables: Sequence[np.ndarray | None]):
        self.horizon = kernel.n
        self._kernel = kernel
        self._tables = tables

    def decision_mask(self, step, fails, boosts):
        import numpy as np

        if not 1 <= step <= self.horizon:
            raise ValidationError(f"step {step} outside this policy's horizon {self.horizon}")
        k = self._kernel
        table = np.unpackbits(self._tables[self.horizon - step + 1], count=int(k.depth_end[step - 1]))
        return table.view(bool)[k.index(fails, boosts, step - 1)]


# ---------------------------------------------------------------------------
# The reachable-state kernel shared by the DP, the expectation and Monte Carlo
# ---------------------------------------------------------------------------

class _Kernel(NamedTuple):
    """The trust states reachable from (0, 0) within n steps, with their
    success probabilities and depths; a success moves to state 0, full
    trust, if `tp.reset`, else stays put.

    (fails, boosts) is reachable within d steps iff fails + boosts <= d and
    boosts <= frontier[fails], from where a skip returns to full trust.
    States are sorted by depth fails + boosts, then fails, so those reachable
    within d steps are the prefix [:depth_end[d]]; `index` finds a state's
    place in that order from its (fails, boosts).  With g = 1 boosts never
    change trust and stay 0.

    No move is stored: each depth holds as many states as the one before or
    one more, the new one first, so a failure, which keeps the boosts, moves
    a state of depth d jump[d] = the count of depth d + 1 states on, and a
    skip one state less far.  Only the first state of a depth that does not
    grow lies on the frontier; clamp[d] is that state, whose skip returns to
    full trust, or -1 (always at g = 1, where every depth holds one state and
    a skip stays put).  `step` decides and moves states by this rule.  Moves
    out of the deepest layer, which no caller takes, land past the kernel.
    """

    tp: TrustParams
    n: int
    frontier: np.ndarray  # per fails count, capped at n
    depth_end: np.ndarray
    jump: np.ndarray  # per depth, as np.intp
    clamp: np.ndarray
    p: np.ndarray  # min(p0, p0 * l^fails * g^boosts)
    depth: np.ndarray  # fails + boosts, in the least unsigned dtype that holds n

    def index(self, fails, boosts, depth: int) -> np.ndarray:
        """Indices of the states (fails, boosts), integer arrays of one
        broadcast shape whose states must all be reachable within `depth`
        steps; ValidationError otherwise.  Object arrays, which hold Python
        ints past int64, are never reachable."""
        import numpy as np

        fails, boosts = np.asarray(fails), np.asarray(boosts)
        if fails.dtype.kind not in "iu" or boosts.dtype.kind not in "iu":
            if "O" in (fails.dtype.kind, boosts.dtype.kind):
                raise ValidationError(f"states past int64 are not reachable within {depth} steps")
            raise ValidationError(
                f"fails and boosts must be integers, got {fails.dtype} and {boosts.dtype}")
        # uint64 past int64 turns negative: not reachable
        a, b = fails.astype(np.int64, copy=False), boosts.astype(np.int64, copy=False)
        try:
            ok = (a >= 0) & (b >= 0) & (a + b <= depth)
        except ValueError:
            raise ValidationError(f"fails of shape {a.shape} and boosts of shape {b.shape} "
                                  "do not broadcast to one shape") from None
        ok &= b <= self.frontier[np.where(ok, a, 0)]
        if not ok.all():
            i = np.flatnonzero(~ok)[0]
            fails, boosts = np.broadcast_arrays(fails, boosts)
            state = f"(fails={fails.flat[i]}, boosts={boosts.flat[i]})"
            raise ValidationError(f"state {state} is not reachable within {depth} steps")
        if self.tp.g == 1:
            b = np.zeros_like(b)
        return self.depth_end[a + b] - b - 1

    def step(self, policy: Policy, step: int, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`policy`'s decisions at `step` for the states `live`, asked by (fails,
        boosts), and their targets: each state's success target where it
        recommends and its skip target elsewhere, then the failure targets of
        those that recommend.  ValidationError unless `decision_mask` gives one
        bool per state (0/1 ints would index states by position)."""
        import numpy as np

        d = self.depth[live].astype(np.intp)
        boosts = self.depth_end.take(d)
        boosts -= live
        boosts -= 1
        rec = policy.decision_mask(step, d - boosts, boosts)
        if not (isinstance(rec, np.ndarray) and rec.dtype == bool and rec.shape == live.shape):
            raise ValidationError(f"{policy.name} decision_mask must return one bool per state, "
                                  f"got {np.asarray(rec).dtype} of shape {np.shape(rec)}")
        fail = self.jump.take(d)
        fail += live
        skip = np.where(live == self.clamp.take(d), 0, fail - 1)
        success = 0 if self.tp.reset else live
        return rec, np.concatenate([np.where(rec, success, skip), fail[rec]])


def _layout(tp: TrustParams, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clamp frontier, and the kernel's state count and end per depth
    0..n+1, without building it; ResourceCapError past KERNEL_STATE_CAP states."""
    import numpy as np

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
    import numpy as np

    if tp.p0 < sys.float_info.min:  # float(p0) would be 0 or subnormal: every state's p wrong
        raise ResourceCapError(f"trust p0 = {brief_str(tp.p0)} lies beyond the float range")
    frontier, counts, ends = _layout(tp, n)
    depths = np.arange(n + 2)
    depth = np.repeat(depths[: n + 1].astype(np.min_scalar_type(n)), counts[: n + 1])
    # depth d's states run fails d - c + 1 .. d and boosts c - 1 .. 0, c = counts[d]:
    # its values are slices of the powers, so the build keeps no per-state exponents
    layers = list(zip(range(n + 1), (ends - counts).tolist(), counts.tolist()))
    p = np.empty(len(depth))
    p0f, lf = float(tp.p0), float(tp.l)
    gf = float(tp.g) if tp.g <= sys.float_info.max else math.inf
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        # np.power over one 0..n+1 array keeps the output bit-identical to the golden file
        lpow, gpow = np.power(lf, depths), np.power(gf, depths)
        for d, s, c in layers:
            np.multiply(lpow[d - c + 1 : d + 1], gpow[c - 1 :: -1], out=p[s : s + c])
        p *= p0f
        np.minimum(p, p0f, out=p)
        far_l, far_g = lpow < sys.float_info.min, np.isinf(gpow)
        if far_l.any() or far_g.any():  # l^a underflows or g^b overflows: add logarithms
            for d, s, c in layers:
                far = np.flatnonzero(far_l[d - c + 1 : d + 1] | far_g[c - 1 :: -1])
                logp = (d - c + 1 + far) * _ln(tp.l) + (c - 1 - far) * _ln(tp.g)
                p[s + far] = np.minimum(p0f, p0f * np.exp(logp))
    # the first state of depth d lies on the frontier iff depth d + 1 does not grow;
    # at g = 1 no depth grows, as no boost is kept, and a skip stays put
    clamp = np.where((counts[1:] == counts[:-1]) & (tp.g != 1), ends[:-1] - counts[:-1], -1)
    return _Kernel(tp, n, frontier[: n + 1], ends[: n + 1], counts[1:].astype(np.intp),
                   clamp.astype(np.intp), p, depth)


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
    import numpy as np

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
    probability, summing each step's arrivals in one buffer over the kernel
    allocated once; probabilities are float64, clamping is exact.  States
    carrying less than `prune` probability are dropped as they arise,
    undercounting the curve by at most n * prune * r per step (default 0:
    keep everything).
    """
    import numpy as np

    check_count("n", n)
    check_tolerance("prune", prune)
    rf = _float_reward(tp)
    k = _kernel(tp, n)
    live = np.zeros(1, dtype=np.intp)  # states with probability, and that probability
    mass = np.ones(1)
    acc = np.zeros(len(k.p))  # zero again wherever a step has read it
    cum = 0.0
    values = []
    for step in range(1, n + 1):
        rec, to = k.step(policy, step, live)
        p = k.p[live]
        won = mass * p
        cum += float(won[rec].sum()) * rf
        weight = np.concatenate([np.where(rec, won, mass), (mass * (1.0 - p))[rec]])
        np.add.at(acc, to, weight)
        top = acc[: k.depth_end[step]]  # every arrival lies within depth <= step
        live = np.flatnonzero(top >= prune if prune else top != 0)
        mass = acc[live]
        acc[to] = 0.0
        values.append(cum)
    return _in_float_range(RewardCurve(policy.name, tuple(values)))


def every_k_reward(tp: TrustParams, k: int, n: int, *, prune: float = 0.0) -> RewardCurve:
    """Expected cumulative reward of the every-k policy, per step.

    When one failure is fully recovered within the k-1 intervening skips
    (l * g^(k-1) >= 1) every recommendation happens at full trust, whether
    or not a success resets trust, and the curve is exactly
    floor(t/k) * p0 * r, returned as exact rationals.
    Otherwise the schedule behaves like undiluted decay at rate
    l * g^(k-1) and the curve is evaluated as an exact-state expectation in
    float64, `expected_curve` with the given `prune`.
    """
    policy = EveryK(k)
    check_count("n", n)
    check_tolerance("prune", prune)
    # k > n never recommends within the horizon; both branches are all-zero
    if k > n or _frontier(tp.l, tp.g, 2, k - 1)[1] <= k - 2:
        _float_reward(tp)  # the same reward and horizon bounds as every other curve
        _layout(tp, n)
        per = tp.p0 * tp.r
        values = tuple(Fraction(t // k) * per for t in range(1, n + 1))
        return _in_float_range(RewardCurve(policy.name, values))
    return expected_curve(tp, policy, n, prune=prune)


# ---------------------------------------------------------------------------
# Finite-horizon dynamic program
# ---------------------------------------------------------------------------

def dp_optimal(tp: TrustParams, n: int) -> tuple[RewardCurve, OptimalPolicy]:
    """Optimal expected reward for every horizon up to n, plus the policy.

    Value recurrence over states s with t steps remaining:
        V(t, s) = max( V(t-1, skip(s)),
                       p(s) * (r + V(t-1, success(s))) + (1-p(s)) * V(t-1, fail(s)) )
    with V(0, .) = 0.  With t steps remaining only the kernel states of
    depth <= n - t can be occupied, so each sweep covers that prefix.  The
    curve holds V(t, initial) for t = 1..n.  A sweep reads no move array:
    the values after a failure are V(t-1) on states 1.. less the first state
    of every depth that grows, and those after a skip that array shifted by
    one place, with each depth's first state set from its skip target (by
    `jump` and `clamp`); both live with V and 1 - p in one block allocated once.
    Ties choose skip, so the tables are deterministic; each is packed to one
    bit a state, or is the table before it where that one agrees on its
    prefix.  Horizons past DEFAULT_DP_CAP raise ResourceCapError.
    """
    import numpy as np

    check_count("n", n)
    if n > DEFAULT_DP_CAP:
        raise ResourceCapError(f"horizon {n} exceeds the DP cap of {DEFAULT_DP_CAP}")
    rf = _float_reward(tp)
    k = _kernel(tp, n)
    ends = k.depth_end
    counts = np.diff(ends, prepend=0)
    starts = ends - counts
    # a failure moves the states of depth < d, in order, onto states 1..ends[d] - 1
    # less the first state of every depth that grows; a skip moves a state to one
    # place before its failure target, or a depth's first state on the frontier to 0
    fail_targets = np.ones(ends[n], dtype=bool)
    fail_targets[starts[1:][counts[1:] > counts[:-1]]] = False
    firsts = starts[:n]
    first_skips = np.where(k.clamp[:n] < 0, firsts + k.jump[:n] - 1, 0)
    # one block for all sweeps: v, the values after a failure and after a skip, and 1 - p
    work = np.zeros((4, ends[n]))
    v, q = work[0], work[3]
    np.subtract(1.0, k.p, out=q)
    tables: list[np.ndarray | None] = [None]
    curve = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing curve is refused at the end
        for rem in range(1, n + 1):
            d = n - rem
            m, e = int(ends[d]), int(ends[d + 1])
            p, out = k.p[:m], v[:m]
            v_rec, v_skip = work[1, :m], work[2, :m]
            v_rec[:] = v[1:e][fail_targets[1:e]]
            v_skip[1:] = v_rec[:-1]
            v_skip[firsts[: d + 1]] = v[first_skips[: d + 1]]
            # IEEE sums and products commute, so each value is the recurrence's
            # own to the bit; v's prefix takes the success term, then the result
            if tp.reset:
                np.multiply(p, rf + v[0], out=out)
            else:
                out += rf
                out *= p
            v_rec *= q[:m]
            v_rec += out
            bits = np.packbits(v_rec > v_skip)  # strict: ties go to skip
            # a table that equals the one before on its prefix shares its storage;
            # the low 8 * len(bits) - m bits of the last byte hold no state
            last, prev = len(bits) - 1, tables[-1]
            tail = 0xFF & 0xFF << (8 * last + 8 - m)
            if (prev is not None and bits[last] == prev[last] & tail
                    and np.array_equal(bits[:last], prev[:last])):
                bits = prev
            tables.append(bits)
            np.maximum(v_skip, v_rec, out=out)
            curve.append(float(v[0]))
    return _in_float_range(RewardCurve("optimal", tuple(curve))), OptimalPolicy(k, tables)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def mc_simulate(tp: TrustParams, policy: Policy, n: int, trials: int, seed: int) -> RewardCurve:
    """Seeded Monte-Carlo estimate of a policy's cumulative reward curve.

    The trials walk the kernel as integer counts over cells (state,
    successes), kept in ascending order of state * (n+1) + successes.  Each
    step draws, from one PCG64 stream seeded with `seed`, the winners of
    every recommending cell at once, rng.binomial(count, p[state]), so
    results are deterministic for a fixed seed and numpy version.  The
    trials are i.i.d. chains, so the cell counts follow their multinomial
    law and a run costs time and memory in the occupied cells, never more
    than the trials.  Returns per-step means with standard errors, both
    from exact integer moments of the success counts: every partial sum
    stays below trials * n <= 2^45, so it is exact in floats in any order,
    and r multiplies each value once.
    """
    import numpy as np

    check_count("n", n)
    check_monte_carlo(trials, seed)
    rf = _float_reward(tp)
    rng = np.random.Generator(np.random.PCG64(seed))
    k = _kernel(tp, n)
    key = np.zeros(1, dtype=np.int64)  # state * (n+1) + successes, one per occupied cell
    count = np.array([trials], dtype=np.int64)
    s1 = s2 = 0  # the sums of successes and of their squares over the trials
    values, errs = [], []
    for step in range(1, n + 1):
        live, c = np.divmod(key, n + 1)
        rec, to = k.step(policy, step, live)
        won = np.zeros_like(count)
        won[rec] = rng.binomial(count[rec], k.p[live[rec]])
        s1 += int(won.sum())
        s2 += int(won @ (2 * c + 1))  # a win takes c^2 to c^2 + 2c + 1
        to = to * (n + 1) + np.concatenate([c + rec, c[rec]])  # winners gain a success
        weight = np.concatenate([np.where(rec, won, count), (count - won)[rec]])
        kept = weight > 0
        key, at = np.unique(to[kept], return_inverse=True)
        count = np.bincount(at, weight[kept]).astype(np.int64)
        values.append(s1 / trials * rf)
        errs.append(math.sqrt((trials * s2 - s1 * s1) / (trials * trials * (trials - 1))) * rf
                    if trials > 1 else 0.0)
    return _in_float_range(RewardCurve(f"{policy.name}:mc", tuple(values), tuple(errs)))
