"""Provably fair recommendation prices and strategic recommending under
trust decay: coalitional games, Core/Shapley/Nash solutions, and the
trust-decay reward process with exact DP and Monte-Carlo evaluation."""

from .corelp import (
    CoreExistence,
    CoreMembership,
    FarkasCertificate,
    FeasibilityResult,
    LinearSystem,
    certificate_refutes,
    core_contains,
    core_is_nonempty,
    core_system,
    lp_feasible,
)
from .errors import FairpriceError, ResourceCapError, ValidationError
from .fair_division import (
    PAY_PER_RECOMMENDATION,
    PAY_PER_SALE,
    ArgumentGame,
    BargainingProblem,
    DeviationReport,
    PriceSchedule,
    anonymity_proof_shapley,
    bargaining_problem,
    nash_bargaining,
    shapley,
    shapley_arguments,
    shapley_rule,
    to_prices,
    truthfulness_probe,
    zero_rule,
)
from .games import (
    Coalition,
    Game,
    PayoffVector,
    add_games,
    build_general,
    build_linear,
    build_threshold,
    from_table,
    max_players,
)

__version__ = "0.1.0"

# The trust layer is the only user of numpy, which costs most of the import
# time; it loads on first use of one of these names (PEP 562), so pricing
# never pays for it.
_TRUST_NAMES = (
    "trust",
    "AllPolicy",
    "EveryK",
    "OptimalPolicy",
    "Policy",
    "RewardCurve",
    "TrustParams",
    "dilog",
    "dilog_series",
    "dp_optimal",
    "every_k_reward",
    "expected_curve",
    "mc_simulate",
    "no_reset_total",
    "no_reset_total_geometric",
    "recovery_threshold",
    "with_reset_total",
    "with_reset_total_bound",
    "zero_success_lower_bound",
    "zero_success_probability",
)


def __getattr__(name: str):
    if name in _TRUST_NAMES:
        from importlib import import_module

        trust = import_module(".trust", __name__)
        return trust if name == "trust" else getattr(trust, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_TRUST_NAMES})


__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_TRUST_NAMES))
