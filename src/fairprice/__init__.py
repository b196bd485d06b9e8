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
from .trust import (
    AllPolicy,
    EveryK,
    OptimalPolicy,
    Policy,
    RewardCurve,
    TrustParams,
    dilog,
    dilog_series,
    dp_optimal,
    every_k_reward,
    expected_curve,
    mc_simulate,
    no_reset_total,
    no_reset_total_geometric,
    recovery_threshold,
    with_reset_total,
    with_reset_total_bound,
    zero_success_lower_bound,
    zero_success_probability,
)

__version__ = "0.1.0"
