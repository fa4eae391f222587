"""The 2^m subset kernel and its three callers against plain-Python oracles.

Each oracle walks every mask with ``itertools.compress`` and applies the
documented rules directly: strict affordability (the empty plan is always
available), the round-order second-price drain, and ties to the adversary.
"""

import itertools
import math
import platform
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from riskfree.seq import best_response_to_fixed_bids
from riskfree.simul import exact_xos_expected_profit, second_price_truthful_worst
from riskfree.valuations import (
    MAX_ENUM_M,
    AdditiveValuation,
    SubadditiveIdenticalValuation,
    XOSValuation,
    beta_cover,
    gamma_star,
    random_subadditive_identical,
    subset_sums,
    workspace,
)


def masks(m):
    """(mask, items of the mask, items of its complement) for every mask."""
    for mask in range(1 << m):
        bits = [mask >> i & 1 for i in range(m)]
        yield (
            mask,
            list(itertools.compress(range(m), bits)),
            list(itertools.compress(range(m), [1 - b for b in bits])),
        )


def oracle_plan_profit(v, bids, B, rule, taken):
    """Bidder's profit when the adversary takes ``taken``, or None if he cannot."""
    if taken and not sum(bids[i] for i in taken) < B - 1e-12:
        return None
    won = [i for i in range(v.m) if i not in taken]
    if rule == "first":
        pay = sum(bids[i] for i in won)
    else:
        spent, pay = 0.0, 0.0
        for i in range(v.m):
            if i in taken:
                spent += bids[i]
            else:
                pay += max(0.0, min(bids[i], B - spent))
    return v.value(won) - pay


def oracle_best_response(v, bids, B, rule):
    profits = [oracle_plan_profit(v, bids, B, rule, taken) for _, taken, _ in masks(v.m)]
    return min(p for p in profits if p is not None)


def oracle_second_price_worst(v, B):
    g = gamma_star(v).weights
    worst = math.inf
    for _, taken, won in masks(v.m):
        cost = sum(g[i] for i in taken)
        if cost <= B + 1e-12:
            drain = min(B - cost, sum(g[i] for i in won))
            worst = min(worst, v.value(won) - drain)
    return worst


def oracle_expected_profit(v, ratios):
    g = gamma_star(v).weights
    value = 0.0
    for _, won, lost in masks(v.m):
        prob = math.prod(1.0 - ratios[i] for i in won) * math.prod(ratios[i] for i in lost)
        value += prob * v.value(won)
    return value - sum(g[i] * (1.0 - ratios[i] ** 2) / 2.0 for i in range(v.m))


def weights(m):
    return hst.lists(hst.floats(0.0, 1.0), min_size=m, max_size=m)


@hst.composite
def valuations(draw, kinds=("additive", "xos", "table"), m=None):
    m = draw(hst.integers(1, 10)) if m is None else m
    kind = draw(hst.sampled_from(kinds))
    if kind == "additive":
        return AdditiveValuation(draw(weights(m)))
    if kind == "xos":
        return XOSValuation([draw(weights(m)) for _ in range(draw(hst.integers(1, 4)))])
    seed = draw(hst.integers(0, 2**32 - 1))
    return random_subadditive_identical(m, np.random.default_rng(seed))


@hst.composite
def bid_instances(draw):
    """A valuation, bids with zeros among them, and a budget that is drawn,
    or equal to the sum of the bids on a prefix or on every item."""
    v = draw(valuations())
    bids = draw(hst.lists(hst.just(0.0) | hst.floats(0.0, 0.5),
                          min_size=v.m, max_size=v.m))
    k = draw(hst.integers(0, v.m))
    B = draw(hst.floats(0.0, 1.5) | hst.just(sum(bids[:k])) | hst.just(sum(bids)))
    return v, bids, B


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(valuations())
def test_values_all_matches_value(v):
    got = v.values_all()
    assert got.shape == (1 << v.m,)
    for mask, items, _ in masks(v.m):
        assert abs(got[mask] - v.value(items)) <= 1e-12


@SETTINGS
@given(hst.integers(0, 10).flatmap(weights))
def test_subset_sums_matches_direct_sums(w):
    got = subset_sums(w)
    for mask, items, won in masks(len(w)):
        assert abs(got[mask] - sum(w[i] for i in items)) <= 1e-12
        assert abs(got[::-1][mask] - sum(w[i] for i in won)) <= 1e-12  # complement rule


@SETTINGS
@given(bid_instances(), hst.sampled_from(["first", "second"]))
def test_best_response_matches_brute_force(instance, rule):
    v, bids, B = instance
    plan, profit = best_response_to_fixed_bids(v, bids, B, rule)
    assert abs(profit - oracle_best_response(v, bids, B, rule)) <= 1e-12
    # the plan is affordable and attains the profit
    plan_profit = oracle_plan_profit(v, bids, B, rule, list(plan))
    assert plan_profit is not None
    assert abs(plan_profit - profit) <= 1e-12


@SETTINGS
@given(valuations(kinds=("additive", "xos")), hst.floats(0.0, 1.2))
def test_second_price_worst_matches_brute_force(v, B):
    worst, plan = second_price_truthful_worst(v, B)
    assert abs(worst - oracle_second_price_worst(v, B)) <= 1e-12
    g = gamma_star(v).weights
    assert sum(g[i] for i in plan) <= B + 1e-12


@SETTINGS
@given(hst.integers(1, 10).flatmap(lambda m: hst.tuples(valuations(("xos",), m), weights(m))))
def test_exact_expected_profit_matches_brute_force(instance):
    v, ratios = instance
    assert abs(exact_xos_expected_profit(v, ratios) - oracle_expected_profit(v, ratios)) <= 1e-12


def at_size(m):
    rng = np.random.default_rng(m)
    xos = XOSValuation([rng.random(m) for _ in range(3)])
    table = SubadditiveIdenticalValuation((0.0,) + (1.0,) * m)
    return xos, table, tuple(0.5 * float(B) / m for B in rng.random(m))


def test_entry_points_run_at_the_cap():
    xos, table, bids = at_size(MAX_ENUM_M)
    assert subset_sums(bids).shape == (1 << MAX_ENUM_M,)
    for v in (xos, table, xos.clauses[0]):
        assert v.values_all().shape == (1 << MAX_ENUM_M,)
    for rule in ("first", "second"):
        _, profit = best_response_to_fixed_bids(xos, bids, 0.3, rule)
        assert math.isfinite(profit)
    assert math.isfinite(second_price_truthful_worst(xos, 0.3)[0])
    assert math.isfinite(exact_xos_expected_profit(xos, [0.5] * MAX_ENUM_M))
    assert beta_cover(table).beta == pytest.approx(1.0)


def test_entry_points_raise_above_the_cap():
    m = MAX_ENUM_M + 1
    xos, table, bids = at_size(m)
    calls = [
        lambda: subset_sums(bids),
        xos.values_all,
        table.values_all,
        xos.clauses[0].values_all,
        *(
            lambda v=v, rule=rule: best_response_to_fixed_bids(v, bids, 0.3, rule)
            for v in (xos, xos.clauses[0])  # an XOS and an additive valuation
            for rule in ("first", "second")
        ),
        lambda: second_price_truthful_worst(xos, 0.3),
        lambda: exact_xos_expected_profit(xos, [0.5] * m),
        lambda: beta_cover(table),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="capped"):
            call()


# -- the per-thread workspace ----------------------------------------------------


def instance(m, seed=0):
    """An XOS valuation, an identical-item table, bids, a budget and ratios at m."""
    rng = np.random.default_rng([m, seed])
    xos = XOSValuation([rng.random(m) * rng.uniform(0.3, 1.0) for _ in range(3)])
    table = random_subadditive_identical(m, rng)
    bids = tuple((rng.random(m) * 0.4 / m).tolist())
    return xos, table, bids, float(rng.uniform(0.05, 0.3)), tuple(rng.random(m).tolist())


def enumerate_all(m, seed=0):
    """Every enumeration entry point at m, as bytes and Python values."""
    xos, table, bids, B, ratios = instance(m, seed)
    return (
        subset_sums(bids).tobytes(),
        xos.values_all().tobytes(),
        table.values_all().tobytes(),
        xos.clauses[0].values_all().tobytes(),
        *(best_response_to_fixed_bids(v, bids, B, rule) for v in (xos, table) for rule in ("first", "second")),
        second_price_truthful_worst(xos, B),
        exact_xos_expected_profit(xos, ratios),
    )


def in_fresh_thread(call):
    got = []
    t = threading.Thread(target=lambda: got.append(call()))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive() and len(got) == 1
    return got[0]


def test_public_arrays_are_not_overwritten():
    xos, table, bids, _, _ = instance(12)
    kept = [subset_sums(bids), xos.values_all(), table.values_all(), xos.clauses[0].values_all()]
    copies = [a.copy() for a in kept]
    for m in (12, 14, 12):  # same size, larger size, same size again
        enumerate_all(m, seed=1)
    for a, c in zip(kept, copies):
        assert not np.shares_memory(a, workspace(12))
        assert a.tobytes() == c.tobytes()


def test_values_all_writes_into_out():
    xos, table, bids, _, _ = instance(10)
    row = workspace(10)[0]
    for v in (xos, table, xos.clauses[0]):
        fresh = v.values_all()
        assert v.values_all(row) is row
        assert row.tobytes() == fresh.tobytes()
    assert subset_sums(bids, row) is row
    assert row.tobytes() == subset_sums(bids).tobytes()
    with pytest.raises(ValueError, match="shape"):
        subset_sums(bids, workspace(11)[0])


def test_mixed_sizes_in_one_thread_equal_fresh_threads():
    sizes = (16, 4, 12, 16)
    serial = [enumerate_all(m) for m in sizes]
    assert serial == [in_fresh_thread(lambda m=m: enumerate_all(m)) for m in sizes]


def test_threads_interleaving_sizes_match_serial():
    sizes = (12, 14)
    want = {(m, seed): enumerate_all(m, seed) for m in sizes for seed in range(3)}

    def worker(k):
        return [((m, (k + r) % 3), enumerate_all(m, (k + r) % 3))
                for r in range(3) for m in (sizes if k % 2 else sizes[::-1])]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(worker, k) for k in range(4)]
            results = [r for f in futures for r in f.result(timeout=120)]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4 * 3 * len(sizes)
    for key, got in results:
        assert got == want[key]


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="minor-fault counts are measured on Linux with glibc",
)
def test_repeated_calls_fault_in_no_fresh_pages():
    import resource  # POSIX only

    xos, _, bids, B, _ = instance(16)
    best_response_to_fixed_bids(xos, bids, B, "second")  # the workspace grows here, once
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        best_response_to_fixed_bids(xos, bids, B, "second")
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100
