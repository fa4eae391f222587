"""Risk-free bidding against a budgeted adversary in combinatorial auctions.

The package computes worst-case-guaranteed profits for a bidder facing an
adversary whose total spend (sequential auctions) or total bid mass
(simultaneous auctions) is capped, for additive, XOS and identical-item
subadditive valuations.
"""

from .analysis import (
    SweepReport,
    f_bound,
    t_star,
    table_A,
    verify_all,
)
from .pwl import PiecewiseLinear, pointwise_extreme, solve_equal
from .seq import (
    SeqGameState,
    best_response_to_fixed_bids,
    equalization_alpha,
    g_h,
    simulate,
    solve_discretized,
    uniform_additive_value,
)
from .simul import (
    BudgetSplit,
    QPSolution,
    adversary_qp,
    best_response_profit,
    budget_split,
    bidder_counter_to_pure,
    deterministic_counter,
    expected_profit_uniform_random,
    randomized_adversary,
    resolve,
)
from .strategies import (
    UniformRandomBidder,
    alpha_tilde_adversary,
    constant_price_policy,
    high_budget_policy,
    low_budget_policy,
    s_instance_adversary,
    xos_sqrt_policy,
)
from .valuations import (
    AdditiveValuation,
    CoverCertificate,
    SInstanceParams,
    SubadditiveIdenticalValuation,
    XOSValuation,
    beta_cover,
    gamma_star,
    l_threshold,
    make_s_instance,
    sigma_of,
)

__version__ = "0.1.0"
