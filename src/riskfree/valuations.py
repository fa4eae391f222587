"""Valuation classes: additive, XOS, and subadditive identical-item tables.

All valuations are monotone set functions with v(empty) = 0.  Instances are
immutable after construction and safe to share across workers.  Construction
validates the class invariants (non-negativity, monotonicity, subadditivity
of identical-item tables) and rejects degenerate inputs.

The 2^m enumerations (``subset_sums``, ``values_all`` and their callers in
``seq`` and ``simul``) work in place in ``workspace(m)``: rows of 2^m floats
that each thread allocates once and keeps, so a repeated call neither
allocates nor faults in fresh pages.  The buffer only grows: a thread keeps
4 x 2^m x 8 bytes for the largest m it has enumerated, 2 MB at m = 16 and
32 MB at m = 20.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DegenerateValuationError, InfeasibleInstanceError

_TOL = 1e-9

#: Largest item count for which a 2^m enumeration is allowed; each array
#: over the masks then takes 8 MB, and a thread's workspace keeps 4 of them.
MAX_ENUM_M = 20

_local = threading.local()


def workspace(m: int) -> np.ndarray:
    """The calling thread's scratch rows over the 2^m masks: a (4, 2^m) view.

    Rows 0-2 are the caller's; row 3 is the one ``values_all`` uses for its
    own partial results, so a caller must not hand it to ``values_all``.
    One buffer per thread backs every call, grown (never shrunk) to the
    largest m seen; what a call writes there is overwritten by the thread's
    next enumeration, so results that outlive the call must be copied out.
    """
    if m > MAX_ENUM_M:
        raise ValueError(f"2^m enumeration is capped at m = {MAX_ENUM_M}, got m = {m}")
    buf = getattr(_local, "buf", None)
    if buf is None or buf.shape[1] < 1 << m:
        buf = _local.buf = np.empty((4, 1 << m))
    return buf[:, : 1 << m]


def subset_sums(w: Sequence[float] | np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """s[S] = sum of ``w`` over the item set S, for every mask S.

    Bit i of S stands for item i, so mask 0 is the empty set and the full
    set is ``2^m - 1``; the complement of S is ``2^m - 1 - S``, hence
    ``s[::-1][S]`` is the sum over the complement of S.  Built by doubling:
    the masks below 2^i are extended by item i, so the cost is O(2^m) and
    each s[S] adds its items in increasing index order, like ``value``.
    Written into ``out`` (shape (2^m,)) when given, else into a new array.
    """
    w = np.asarray(w, dtype=float)
    m = len(w)
    if m > MAX_ENUM_M:
        raise ValueError(f"2^m enumeration is capped at m = {MAX_ENUM_M}, got m = {m}")
    if out is None:
        s = np.empty(1 << m)
    elif out.shape != (1 << m,):
        raise ValueError(f"out must have shape ({1 << m},), got {out.shape}")
    else:
        s = out
    s[0] = 0.0
    for i, wi in enumerate(w.tolist()):
        n = 1 << i
        np.add(s[:n], wi, out=s[n : 2 * n])
    return s


def item_vector(values: Iterable[float], m: int, name: str) -> np.ndarray:
    """``values`` as a finite float array of shape (m,); ValueError otherwise."""
    out = np.asarray(list(values), dtype=float)
    if out.shape != (m,):
        raise ValueError(f"{name} must have one entry per item ({m})")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


def bid_vector(bids: Iterable[float], m: int, whose: str) -> np.ndarray:
    """``bids`` as m finite, non-negative floats; a ValueError names ``whose``."""
    b = item_vector(bids, m, f"{whose} bids")
    if np.any(b < 0.0):
        raise ValueError(f"{whose} bids must be non-negative")
    return b


def check_budget(B: float) -> None:
    """ValueError unless the budget B is finite and non-negative."""
    if not (math.isfinite(B) and B >= 0.0):
        raise ValueError(f"budget must be finite and non-negative, got {B}")


def check_count(n: int, least: int = 1, name: str = "m") -> int:
    """``n`` as an int via ``operator.index`` (a float or a bool raises TypeError); ValueError below ``least``."""
    if isinstance(n, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    n = operator.index(n)
    if n < least:
        raise ValueError(f"{name} must be at least {least}, got {n}")
    return n


def check_price_rule(price_rule: str) -> None:
    """ValueError unless ``price_rule`` is 'first' or 'second'."""
    if price_rule not in ("first", "second"):
        raise ValueError(f"price_rule must be 'first' or 'second', got {price_rule!r}")


def _as_index_tuple(subset: Iterable[int], m: int) -> tuple[int, ...]:
    """Sorted distinct item indices; TypeError on a non-integral index, as in
    Python indexing, instead of truncating 1.9 to item 1."""
    items = tuple(sorted(set(map(operator.index, subset))))
    if items and (items[0] < 0 or items[-1] >= m):
        raise IndexError(f"subset indices must lie in [0, {m})")
    return items


@dataclass(frozen=True)
class AdditiveValuation:
    """v(S) = sum of per-item weights over S."""

    weights: tuple[float, ...]

    def __init__(self, weights: Sequence[float]):
        w = tuple(float(x) for x in weights)
        check_count(len(w), name="the item count")
        if not all(math.isfinite(x) for x in w):
            raise ValueError("weights must be finite")
        if any(x < 0 for x in w):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_total", float(sum(w)))

    @property
    def m(self) -> int:
        return len(self.weights)

    def value(self, subset: Iterable[int]) -> float:
        return float(sum(self.weights[i] for i in _as_index_tuple(subset, self.m)))

    def values_all(self, out: np.ndarray | None = None) -> np.ndarray:
        """v(S) for every mask S (bit order of ``subset_sums``), into ``out``
        when given."""
        return subset_sums(self.weights, out)

    def total(self) -> float:
        return self._total


@dataclass(frozen=True)
class XOSValuation:
    """v(S) = max over additive clauses of the clause value on S."""

    clauses: tuple[AdditiveValuation, ...]

    def __init__(self, clauses: Sequence[Sequence[float] | AdditiveValuation]):
        built = tuple(
            c if isinstance(c, AdditiveValuation) else AdditiveValuation(c) for c in clauses
        )
        if not built:
            raise ValueError("an XOS valuation needs at least one clause")
        if len({c.m for c in built}) != 1:
            raise ValueError("all clauses must cover the same item count")
        object.__setattr__(self, "clauses", built)
        object.__setattr__(self, "_total", max(c.total() for c in built))

    @property
    def m(self) -> int:
        return self.clauses[0].m

    def value(self, subset: Iterable[int]) -> float:
        items = _as_index_tuple(subset, self.m)
        return float(max(sum(c.weights[i] for i in items) for c in self.clauses))

    def values_all(self, out: np.ndarray | None = None) -> np.ndarray:
        """v(S) for every mask S: the elementwise max of the clauses' sums,
        into ``out`` when given.  Each later clause is summed in the
        workspace's row 3."""
        out = self.clauses[0].values_all(out)
        row = workspace(self.m)[3]
        for c in self.clauses[1:]:
            np.maximum(out, c.values_all(row), out=out)
        return out

    def total(self) -> float:
        return self._total


@functools.lru_cache(maxsize=8)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i + j, i, j)`` over the pairs 1 <= i <= j with i + j <= m, ordered
    by i, then j.  A subadditivity violation (i, j) with i > j is also one
    at (j, i), which comes first, so these pairs find the first violation
    in that order over all pairs.  Cached per m, read-only."""
    i, j = np.triu_indices(m + 1)
    keep = (i >= 1) & (i + j <= m)
    out = (i[keep] + j[keep], i[keep], j[keep])
    for a in out:
        a.setflags(write=False)
    return out


@dataclass(frozen=True)
class SubadditiveIdenticalValuation:
    """Identical items: any k-subset has value table[k].

    Invariants checked at construction, to a tolerance relative to v(I):
    table[0] = 0, monotone non-decreasing, and subadditive
    (table[i+j] <= table[i] + table[j]).  The table is read into one array;
    monotonicity is one numpy test over it and subadditivity another, over
    every pair of ``_pairs(m)`` at once.  A violation names the pair with
    the least i, then the least j.
    """

    table: tuple[float, ...]

    def __init__(self, table: Sequence[float]):
        t = tuple(map(float, table))
        m = len(t) - 1
        if m < 1:
            raise ValueError("table must cover counts 0..m with m >= 1")
        if not all(map(math.isfinite, t)):
            raise ValueError("table entries must be finite")
        tol = _TOL * abs(t[-1])
        if abs(t[0]) > tol:
            raise ValueError("v(0) must be 0")
        a = np.array(t)
        if np.count_nonzero(a[1:] < a[:-1] - tol):
            raise ValueError("table must be non-decreasing")
        sums, i, j = _pairs(m)
        viol = a[sums] > a[i] + a[j] + tol
        if np.count_nonzero(viol):
            k = int(viol.argmax())
            raise ValueError(f"not subadditive: v({sums[k]}) > v({i[k]}) + v({j[k]})")
        object.__setattr__(self, "table", t)

    @property
    def m(self) -> int:
        return len(self.table) - 1

    def value(self, subset: Iterable[int]) -> float:
        return float(self.table[len(_as_index_tuple(subset, self.m))])

    def values_all(self, out: np.ndarray | None = None) -> np.ndarray:
        """v(S) = table[|S|] for every mask S, into ``out`` when given.  The
        counts |S| double like ``subset_sums``, as integers in the
        workspace's row 3."""
        counts = workspace(self.m)[3].view(np.int64)
        counts[0] = 0
        for i in range(self.m):
            n = 1 << i
            np.add(counts[:n], 1, out=counts[n : 2 * n])
        return np.take(np.asarray(self.table), counts, out=out, mode="clip")

    def value_of_count(self, k: int) -> float:
        if not 0 <= k <= self.m:
            raise IndexError("count out of range")
        return float(self.table[k])

    def total(self) -> float:
        return float(self.table[-1])


Valuation = Union[AdditiveValuation, XOSValuation, SubadditiveIdenticalValuation]


@dataclass(frozen=True)
class SInstanceParams:
    """Parameters of the hard identical-item instance for budget x in (0, 1/4)."""

    x: float
    m: int
    sigma: float
    d: int
    phase2_bid: float


@dataclass(frozen=True)
class CoverCertificate:
    """Bid vector r with sum r = v(I) and sum_{j in S} r_j <= beta * v(S)."""

    r: tuple[float, ...]
    beta: float


# -- operations --------------------------------------------------------------


def gamma_star(v: XOSValuation | AdditiveValuation) -> AdditiveValuation:
    """The additive clause attaining the valuation's total on the full set.

    Ties are broken toward the lowest clause index so results are
    reproducible.  For an additive valuation this is the identity; an
    identical-item table has no clauses and raises ValueError.
    """
    if isinstance(v, AdditiveValuation):
        return v
    if not isinstance(v, XOSValuation):
        raise ValueError(f"gamma_star needs an additive or XOS valuation, got {type(v).__name__}")
    totals = [c.total() for c in v.clauses]
    return v.clauses[totals.index(max(totals))]


def sigma_of(x: float) -> float:
    """sigma(x) = 8x / (1 - 4x) on (0, 1/4)."""
    if not 0.0 < x < 0.25:
        raise InfeasibleInstanceError("x must lie strictly inside (0, 1/4)")
    return 8.0 * x / (1.0 - 4.0 * x)


def l_threshold(x: float) -> float:
    """Minimum item count for which the hard instance is well defined."""
    s = sigma_of(x)
    return max(s + 2.0, (1.0 + s) / (x * (2.0 + s)) + 2.0)


def s_instance_params(x: float, m: int) -> SInstanceParams:
    """The parameters of ``make_s_instance(x, m)``'s instance, without
    building and checking its table.

    Requires x in (0, 1/4) and m >= L(x), so the table is subadditive and
    the blocking bid is affordable.
    """
    m = check_count(m)
    s = sigma_of(x)
    if m < l_threshold(x) - 1e-12:
        raise InfeasibleInstanceError(
            f"m = {m} is below the feasibility threshold L(x) = {l_threshold(x):.6g}"
        )
    d = m - 2
    return SInstanceParams(x=float(x), m=m, sigma=s, d=d, phase2_bid=(1.0 + s) / (d * (2.0 + s)))


def make_s_instance(x: float, m: int) -> tuple[SubadditiveIdenticalValuation, SInstanceParams]:
    """The normalized hard identical-item instance on m items for budget x.

    Marginals: first and last item are each worth 1/(2+sigma); each of the
    middle m-2 items adds sigma/(d(2+sigma)), d = m-2.  The parameters and
    the feasibility checks come from ``s_instance_params``.
    """
    params = s_instance_params(x, m)
    s, d = params.sigma, params.d
    denom = 2.0 + s
    table = [0.0]
    for i in range(1, m):
        table.append(1.0 / denom + (i - 1) * s / (d * denom))
    table.append(1.0)
    return SubadditiveIdenticalValuation(table), params


def beta_cover(v: Valuation) -> CoverCertificate:
    """Best cover factor for v by a single bid vector, in closed form.

    Minimizes beta subject to sum(r) = v(I), sum_{j in S} r_j <= beta * v(S)
    for every non-empty S, and r >= 0.  S = I forces beta >= 1.

    * Additive and XOS: r = gamma*(v) gives beta = 1, since sum(r) =
      gamma*(I) = v(I) and gamma*(S) <= v(S) for every S.
    * Identical-item tables: the constraints are invariant under permuting
      the items, so averaging an optimal r over all permutations gives the
      uniform r_j = v(I)/m at the same beta.  A q-subset then needs
      beta >= (q/m) v(I) / v(q), so beta = max(1, max_q (q/m) v(I) / v(q)).

    The certificate is checked against every one of the 2^m - 1 cover
    constraints, so m is capped at ``MAX_ENUM_M``, as in every 2^m kernel.
    """
    m = v.m
    vI = v.total()
    if vI <= _TOL:
        raise DegenerateValuationError("v(I) must be positive")
    if isinstance(v, SubadditiveIdenticalValuation):
        # subadditivity gives v(q) >= v(I) / ceil(m/q) > 0
        beta = max((q / m) * vI / v.table[q] for q in range(1, m + 1))  # q = m gives 1
        cert = CoverCertificate(r=(vI / m,) * m, beta=beta)
    else:
        cert = CoverCertificate(r=gamma_star(v).weights, beta=1.0)
    _check_certificate(v, cert)
    return cert


def random_subadditive_identical(
    m: int, rng: "np.random.Generator"
) -> SubadditiveIdenticalValuation:
    """Random normalized identical-item table sampled across the subadditive
    polytope: each v(k) is drawn uniformly between its monotone floor v(k-1)
    and its subadditive ceiling min_i v(i) + v(k-i); the pair (i, k-i) is the
    pair (k-i, i), so i <= k // 2 suffices."""
    m = check_count(m)
    t = [0.0, 1.0]
    for k in range(2, m + 1):
        h = k // 2
        ceiling = min(map(operator.add, t[1 : h + 1], t[k - 1 : k - h - 1 : -1]))
        floor = t[k - 1]
        t.append(floor + float(rng.random()) * (ceiling - floor))
    scale = t[-1]
    return SubadditiveIdenticalValuation(tuple(x / scale for x in t))


def _check_certificate(v: Valuation, cert: CoverCertificate) -> None:
    r = np.asarray(cert.r)
    vI = v.total()
    if abs(float(r.sum()) - vI) > 1e-9 * vI:
        raise ArithmeticError("certificate violates sum(r) = v(I)")
    if np.any(subset_sums(r) > cert.beta * v.values_all() + 1e-7 * vI):
        raise ArithmeticError("certificate violates a cover constraint")
