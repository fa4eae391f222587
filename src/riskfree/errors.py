"""Semantic exception hierarchy shared across the package."""


class RiskFreeError(Exception):
    """Base class for all package-specific errors."""


class DegenerateValuationError(RiskFreeError, ValueError):
    """Raised when a valuation has no value on the full item set (v(I) = 0)."""


class InfeasibleInstanceError(RiskFreeError, ValueError):
    """Raised when instance parameters fall outside their feasible domain."""


class ContractViolationError(RiskFreeError, ValueError):
    """Raised when a caller-asserted precondition is detected to be false."""


class BreakpointOverflowError(RiskFreeError, RuntimeError):
    """Raised when a piecewise-linear result would exceed the breakpoint cap."""


class StateSpaceError(RiskFreeError, RuntimeError):
    """Raised when a discretized game-tree solve would exceed the state cap."""


class PolicyContractError(RiskFreeError, ValueError):
    """Raised when a policy emits a bid violating its contract (e.g. budget)."""
