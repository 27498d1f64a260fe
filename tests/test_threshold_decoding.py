"""The simulator decides each decode event by comparing an SNR with a
threshold derived from the rate formula; trials inside a guard band around
a threshold, and rate tests without a usable threshold, fall back to the
rate formula.  These tests hold that route to the per-peel rate route of
``oracles.reference_decode`` array for array, and plant SNRs on and around
every threshold the shipped configs ask for.
"""

import math
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomarelay import montecarlo
from nomarelay.montecarlo import (BLOCK_SIZE, FamilyStats, _band, _chain,
                                  _either, _rate)
from nomarelay.network import family_key
from oracles import (drawn_alone, family_blocks, masked_chain,
                     masked_resolve, plan_chains, reference_decode,
                     shipped_scenarios)

EPS = np.finfo(float).eps
SEED = 2718


@pytest.fixture(scope="module")
def scenarios():
    """Every distinct scenario a sweep of a shipped config simulates."""
    return shipped_scenarios()


def _families(scenarios):
    """The shipped scenarios by device group (pairing and topology), each
    group by family and P0, as the simulator resolves them."""
    groups = {}
    for s in scenarios:
        groups.setdefault((s.scheme.pairing, s.topology), {}).setdefault(
            (family_key(s), s.budget.P0), []).append(s)
    return groups


def test_threshold_decoding_equals_the_rate_route(scenarios):
    # each family resolves its members at once; every member's decisions
    # equal the per-peel rate route on the SNRs of the masked route, and
    # the masked route's own decisions
    flips, resolved = 0, 0
    for (pairing, topo), families in _families(scenarios).items():
        buffers = drawn_alone(next(iter(families.values()))[0],
                              montecarlo._block_rng(SEED, 0), BLOCK_SIZE)
        blocks = {}
        for family in families.values():
            blocks.update(family_blocks(family, buffers, BLOCK_SIZE)[0])
        for s, block in blocks.items():
            masked = masked_resolve(s, buffers, BLOCK_SIZE)
            want = reference_decode(s, masked)
            for name in ("indicators", "hop_ok", "prefix_ok", "msg_ok",
                         "throughput", "supply_units"):
                assert np.array_equal(getattr(masked, name),
                                      getattr(block, name)), (s, name)
            assert all(map(np.array_equal, masked.device_ok, block.device_ok))
            for name in ("hop_ok", "prefix_ok", "msg_ok", "throughput",
                         "supply_units"):
                got = getattr(block, name)
                assert got.shape == want[name].shape, (s, name)
                flips += int(np.sum(got != want[name]))
            assert len(block.device_ok) == len(want["device_ok"])
            for got, ref in zip(block.device_ok, want["device_ok"]):
                assert got.shape == ref.shape
                flips += int(np.sum(got != ref))
            resolved += 1
    assert resolved == len(scenarios) > 150
    assert flips == 0


@pytest.fixture(scope="module")
def chains(scenarios):
    """Every distinct ``(tfs, terms)`` chain the shipped plans define, at
    every time factor, whether or not a harvest is certain."""
    return sorted(set().union(*map(plan_chains, scenarios)))


def test_plan_chains_cover_every_chain_the_simulator_asks(scenarios,
                                                          chains):
    # the simulator asks a chain at both time factors, or at the one a
    # certain harvest leaves; each is an enumerated chain or a part of one
    asked = set()

    def record(y, tf, terms, stats, bands):
        asked.add(((tf,), tuple(tuple(float(v) for v in term)
                                for term in terms)))
        return _chain(y, tf, terms, stats, bands)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_chain", record)
        for families in _families(scenarios).values():
            draws = drawn_alone(next(iter(families.values()))[0],
                                montecarlo._block_rng(SEED, 0), 16)
            for family in families.values():
                family_blocks(family, draws, 16)
    enumerated = {}
    for tfs, terms in chains:
        enumerated.setdefault(terms, []).append(set(tfs))
    assert asked and not [
        (tfs, terms) for tfs, terms in asked
        if not any(set(tfs) <= full for full in enumerated.get(terms, []))]
    # a family asks each chain at one time factor per receiver state
    assert {len(tfs) for tfs, _ in asked} == {1}


@pytest.fixture(scope="module")
def rate_tests(chains):
    """Every distinct ``(a, b, target, tf)`` rate test of the shipped plans."""
    return sorted({term + (tf,) for tfs, terms in chains
                   for term in terms for tf in tfs})


def _planted(lo, hi, rng):
    """SNRs on and around the band ``[lo, hi]``: its edges and their float
    neighbours, ``thr (1 + k eps)`` for ``|k| <= 4096`` and uniform draws
    across the band."""
    thr = 0.5 * (lo + hi)
    edges = [lo, hi, np.nextafter(lo, 0.0), np.nextafter(lo, np.inf),
             np.nextafter(hi, 0.0), np.nextafter(hi, np.inf), thr]
    ks = np.arange(-4096, 4097)
    return np.concatenate([edges, thr * (1.0 + ks * EPS),
                           rng.uniform(lo, hi, 1024)])


def test_every_shipped_rate_test_has_a_guard_band(rate_tests):
    assert len(rate_tests) > 150
    for a, b, target, tf in rate_tests:
        band = _band(a, b, target, tf)
        assert band is not None, (a, b, target, tf)
        lo, hi = band
        assert 0.0 < lo < hi < lo * (1.0 + 2e-9)


def test_planted_snrs_decide_like_the_rate_formula(rate_tests):
    rng = np.random.default_rng(SEED)
    stats, flips, inside = FamilyStats(), 0, 0
    for a, b, target, tf in rate_tests:
        lo, hi = _band(a, b, target, tf)
        y = _planted(lo, hi, rng)
        want = _rate(y, a, b, tf) >= target
        got = _chain(y, tf, [(a, b, target)], stats, {})
        flips += int(np.sum(got != want))
        inside += int(np.sum((y >= lo) & (y <= hi)))
        # the planted points straddle the threshold
        assert want.any() and not want.all()
    assert flips == 0
    assert (stats.guarded, stats.whole_row) == (inside, 0)


def test_planted_snrs_decide_whole_chains_per_time_factor(chains):
    # each recorded chain, with a random time factor per trial, against
    # every planted point of each of its tests
    rng = np.random.default_rng(SEED + 1)
    stats, flips, bands = FamilyStats(), 0, {}
    for tfs, terms in chains:
        y = np.concatenate([_planted(*_band(*term, tf), rng)[::8]
                            for term in terms for tf in tfs])
        sel = rng.random(y.size) < 0.5 if len(tfs) == 2 else None
        tf = tfs[0] if sel is None else np.where(sel, tfs[1], tfs[0])
        want = np.ones(y.size, dtype=bool)
        for a, b, target in terms:
            want &= _rate(y, a, b, tf) >= target
        # one chain per time factor, picked per trial, as a family member
        # picks its receiver state; and the masked route's chain
        got = [_chain(y, tf, list(terms), stats, bands) for tf in tfs]
        got = got[0] if sel is None else _either(sel, got)
        flips += int(np.sum(got != want))
        flips += int(np.sum(masked_chain(y, tfs, sel, list(terms),
                                         FamilyStats()) != want))
    assert flips == 0
    assert stats.guarded > 0 and stats.whole_row == 0


def _ill_conditioned():
    # a target just below the rate ceiling tf log2(1 + a/b): the threshold
    # exists but sits where a relative SNR change of 1e-11 moves the rate by
    # an ulp
    a, b, tf = 0.3, 0.6, 0.5
    tau = a / b * (1.0 - 1e-11)
    return a, b, tf * math.log2(1.0 + tau), tf


@pytest.mark.parametrize("a, b, target, tf", [
    (1.0, 0.0, 0.0, 1.0 / 3.0),     # target 0: every SNR decodes
    (0.2, 0.8, 0.5, 1.0),           # the share can never reach the target
    _ill_conditioned(),
    (1.0, 0.0, 1e-300, 0.5),        # a threshold below the normal range
], ids=["target-zero", "infeasible-share", "ill-conditioned", "subnormal"])
def test_tests_without_a_band_are_decided_by_the_rate(a, b, target, tf):
    assert _band(a, b, target, tf) is None
    y = np.concatenate([[0.0, 5e-324, 1.0, 1e300],
                        np.geomspace(1e-310, 1e-290, 512),
                        np.geomspace(1e-6, 1e15, 4096)])
    tf_row = np.where(y > 1.0, 0.5 * tf, tf)
    masked = FamilyStats()
    got = masked_chain(y, (tf, 0.5 * tf), y > 1.0, [(a, b, target)],
                       masked)
    assert np.array_equal(got, _rate(y, a, b, tf_row) >= target)
    assert (masked.guarded, masked.whole_row) == (0, 1)
    # one chain per time factor decides the test over the whole row twice
    stats = FamilyStats()
    got = _either(y > 1.0, [_chain(y, tf, [(a, b, target)], stats, {}),
                            _chain(y, 0.5 * tf, [(a, b, target)], stats,
                                   {})])
    assert np.array_equal(got, _rate(y, a, b, tf_row) >= target)
    assert (stats.guarded, stats.whole_row) == (0, 2)
    # a test without a band leaves the others on their thresholds
    chained = _chain(y, tf, [(a, b, target), (1.0, 0.0, 0.1)], stats, {})
    assert np.array_equal(chained, (_rate(y, a, b, tf) >= target)
                          & (_rate(y, 1.0, 0.0, tf) >= 0.1))
    assert (stats.guarded, stats.whole_row) == (0, 3)


@st.composite
def rate_cases(draw):
    a = draw(st.floats(min_value=1e-3, max_value=1.0))
    b = draw(st.sampled_from([0.0, draw(st.floats(min_value=0.0,
                                                  max_value=1.0))]))
    tf = draw(st.floats(min_value=1e-2, max_value=1.0))
    target = draw(st.floats(min_value=0.0, max_value=4.0))
    ys = draw(st.lists(st.floats(min_value=0.0, max_value=1e12),
                       min_size=1, max_size=32))
    ks = draw(st.lists(st.integers(min_value=-5000, max_value=5000),
                       max_size=32))
    band = _band(a, b, target, tf)
    if band is not None:
        thr = 0.5 * (band[0] + band[1])
        ys += [thr * (1.0 + k * EPS) for k in ks] + list(band)
    return a, b, target, tf, np.array(ys)


@settings(max_examples=200, deadline=None)
@given(rate_cases())
def test_chain_equals_the_rate_comparison(case):
    a, b, target, tf, y = case
    got = _chain(y, tf, [(a, b, target)], FamilyStats(), {})
    assert np.array_equal(got, _rate(y, a, b, tf) >= target)


def test_band_table_derives_each_chain_once(monkeypatch, chains):
    # a chain decided from a filled table equals its fresh derivation, and
    # the table holds one entry per (time factor, terms), derived by one
    # _band call per term
    calls, band = [], montecarlo._band

    def counted(*args):
        calls.append(args)
        return band(*args)

    monkeypatch.setattr(montecarlo, "_band", counted)
    rng = np.random.default_rng(SEED + 2)
    bands, keys, fresh_terms = {}, set(), 0
    for tfs, terms in chains:
        y = np.concatenate([_planted(*band(*term, tf), rng)[::64]
                            for term in terms for tf in tfs])
        for tf in tfs:
            fresh = _chain(y, tf, list(terms), FamilyStats(), {})
            fresh_terms += len(terms)
            for _ in range(2):
                stats = FamilyStats()
                got = _chain(y, tf, list(terms), stats, bands)
                assert np.array_equal(got, fresh)
                assert stats.guarded > 0
            keys.add((tf, *terms))
    assert bands.keys() == keys
    # once per term for each fresh table, once per key for the shared one
    assert len(calls) == fresh_terms + sum(len(key) - 1 for key in keys)
    assert len(keys) < sum(map(len, (tfs for tfs, _ in chains)))
