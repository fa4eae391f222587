"""Test oracles: reference forms of library code that no library path calls.

``alpha_params`` bundles the alpha-tilde adversary's first-round bid ratio
with its feasibility cap and regime test; ``strategies.AlphaTildeAdversary``
inlines the regime test, and ``TestAlphaTildeOracle`` replays it from here.
"""

from dataclasses import dataclass

from riskfree.seq import alpha_tilde


@dataclass(frozen=True)
class AlphaParams:
    """First-round bid ratio data for the m-item uniform additive auction."""

    m: int
    x: float
    alpha_tilde: float
    alpha_max: float
    intermediate: bool  # x in [1/m^2, (m-1)/m]


def alpha_params(m: int, x: float) -> AlphaParams:
    """The sufficient first-round bid ratio and its feasibility cap."""
    at, alpha_max = float(alpha_tilde(m, x)), min(1.0, m * x)
    inter = 1.0 / m**2 <= x <= (m - 1.0) / m
    return AlphaParams(m=m, x=float(x), alpha_tilde=at, alpha_max=alpha_max, intermediate=inter)
