"""Simulator tests: determinism, oracles against the closed-form layer.

The simulator resolves exact joint events, so slot-level marginals must
sit inside binomial confidence bands around the closed forms; composed
events are compared separately in the acceptance suite where the product
approximation's documented envelope applies.
"""

import dataclasses
import logging
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomarelay import analytics, montecarlo
from nomarelay.analytics import default_allocation
from nomarelay.channel import (
    FittedGainDistribution,
    LinkBudget,
    noise_power_w,
)
from nomarelay.geometry import log_null_probability
from nomarelay.montecarlo import Estimate, simulate, simulate_plan
from nomarelay.network import NetworkTopology, Scenario, Scheme, build_policy
import oracles
from oracles import default_plan, empirical_ccdf_oracle, run_block_trial

T1 = NetworkTopology(hop_distances=(200.0, 200.0, 200.0),
                     disk_radii=(100.0, 100.0, 100.0),
                     subarea_counts=(3, 2, 1),
                     density_active=1e-2)
BUDGET = LinkBudget(P0=1e-3, sigma2=noise_power_w(1e7))
FIT100 = FittedGainDistribution(mu=0.12381469748798679,
                                theta=0.9774996210662569,
                                m=0.352367611096878,
                                fit_error=0.00016760753354505553)


def scenario(scheme, rho=0.1, topology=T1):
    policy = build_policy(scheme, topology.node_count, rho)
    plan = default_plan(scheme, topology,
                        build_policy(Scheme.TCOM, topology.node_count, rho))
    if scheme.harvesting == "BPEH":
        plan = default_plan(scheme, topology, policy)
    return Scenario(scheme=scheme, topology=topology, policy=policy,
                    budget=BUDGET, plan=plan)


TCOM = scenario(Scheme.TCOM)
TQOM = scenario(Scheme.TQOM)


def test_estimate_invariants():
    est = Estimate.from_binomial(250, 1000)
    assert est.mean == 0.25
    assert est.half_width == pytest.approx(
        1.96 * math.sqrt(0.25 * 0.75 / 1000), rel=1e-12)
    assert est.trials == 1000
    with pytest.raises(ValueError):
        Estimate.from_binomial(5, 0)


def test_block_trial_is_deterministic():
    one = run_block_trial(TCOM, 77)
    two = run_block_trial(TCOM, 77)
    assert one == two
    assert one != run_block_trial(TCOM, 78)
    assert len(one.hop_success) == 3
    assert len(one.device_success[0]) == 3
    assert all(p > 0.0 for p in one.powers_w)


def test_block_trial_success_bits_match_rates():
    # the success bits are decided by SNR thresholds, the rates come from
    # the per-peel reference route
    out = run_block_trial(TCOM, 1234)
    for t, rate in enumerate(out.hop_rates, start=1):
        assert out.hop_success[t - 1] == (rate >= TCOM.plan.relay_rate)


def test_estimates_are_replayable():
    # two independent runs: nothing is cached between calls
    first = simulate(TCOM, 40_000, 5)
    second = simulate(TCOM, 40_000, 5)
    assert first is not second
    assert first.outage(("hop", 2)) == second.outage(("hop", 2))
    c, d = first.throughput(), second.throughput()
    assert c.mean == d.mean and c.half_width == d.half_width


def test_ci_shrinks_with_trials():
    small = simulate(TCOM, 20_000, 9).throughput()
    large = simulate(TCOM, 80_000, 9).throughput()
    assert large.half_width == pytest.approx(small.half_width / 2.0, rel=0.1)


SPARSE = NetworkTopology(hop_distances=(50.0, 50.0), disk_radii=(25.0, 25.0),
                         subarea_counts=(2, 1), density_active=1e-3)
SPARSE_COM = Scenario(scheme=Scheme.TCOM, topology=SPARSE,
                      policy=build_policy(Scheme.TCOM, 3, 0.1),
                      budget=BUDGET,
                      plan=default_allocation(SPARSE,
                                              build_policy(Scheme.TCOM, 3,
                                                           0.1)))


def test_device_presence_frequency():
    est = simulate(SPARSE_COM, 200_000, 11).outage(("device", 1, 1))
    p_active = -math.expm1(log_null_probability(1e-3, 25.0))
    frac = est.trials / 200_000
    sigma = math.sqrt(p_active * (1.0 - p_active) / 200_000)
    assert abs(frac - p_active) < 3 * sigma


def test_supply_power_matches_consumption_formula():
    est = simulate(TCOM, 100_000, 13).supply_power()
    p_tol = analytics.supply_power(BUDGET, TCOM.policy)
    assert abs(est.mean - p_tol) < 3 * est.half_width / 1.96
    # without harvesting the supply power is deterministic
    noeh = scenario(Scheme.COM_NOEH, rho=0.0)
    flat = simulate(noeh, 10_000, 13).supply_power()
    assert flat.mean == pytest.approx(3.0 * BUDGET.P0, rel=1e-12)
    assert flat.half_width <= 1e-12


def _within_binomial(analytic, est):
    sigma = max(est.half_width / 1.96,
                math.sqrt(max(analytic * (1.0 - analytic), 1e-12) / est.trials))
    return abs(analytic - est.mean) <= 3.0 * sigma


def test_hop_outage_matches_closed_form():
    for s in (TCOM, scenario(Scheme.PCOM)):
        marginals = analytics.SlotMarginals(s)
        tallies = simulate(s, 150_000, 21)
        for t in (1, 3):
            ana = marginals.outage(("hop", t))
            assert _within_binomial(ana, tallies.outage(("hop", t)))


def test_com_device_outage_matches_closed_form():
    marginals = analytics.SlotMarginals(TCOM)
    tallies = simulate(TCOM, 150_000, 23)
    for t, k in ((1, 1), (1, 3), (2, 2)):
        selector = ("device", t, k)
        assert _within_binomial(marginals.outage(selector),
                                tallies.outage(selector))


def test_qom_device_outage_matches_fitted_form():
    marginals = analytics.SlotMarginals(TQOM, lambda t: FIT100)
    tallies = simulate(TQOM, 150_000, 25)
    for t in (1, 2):
        ana = marginals.outage(("device", t, None))
        est = tallies.outage(("device", t, None))
        sigma = est.half_width / 1.96
        assert abs(ana - est.mean) <= 3.0 * sigma + 2.0 * FIT100.fit_error


def test_destination_outage_matches_composition_at_low_rho():
    ana = analytics.SlotMarginals(TCOM).outage(("e2e_destination",))
    est = simulate(TCOM, 150_000, 27).outage(("e2e_destination",))
    # composed rows carry the documented product-approximation envelope
    assert abs(ana - est.mean) <= 3.0 * est.half_width / 1.96 + 0.01 * ana


def test_cnrr_reduces_to_bare_chain():
    bare = T1.without_devices()
    policy = build_policy(Scheme.CNRR, 4, 0.0)
    plan = analytics.baseline_plan(TCOM.plan, 3)
    s = Scenario(scheme=Scheme.CNRR, topology=bare, policy=policy,
                 budget=BUDGET, plan=plan)
    tallies = simulate(s, 50_000, 29)
    est = tallies.throughput()
    ana = plan.relay_rate / 3.0 * (1.0 - analytics.SlotMarginals(s).outage(
        ("e2e_destination",)))
    assert abs(ana - est.mean) <= 3.0 * est.half_width / 1.96 + 0.005 * ana
    with pytest.raises(ValueError, match="no served device"):
        simulate(s, 1_000, 29).outage(("device", 1, 1))


def test_empirical_ccdf_envelope_contains_closed_form():
    grid = np.geomspace(0.05, 50.0, 8)
    curve = empirical_ccdf_oracle(TCOM, ("X", 2), grid, 120_000, 31)
    for point, est in zip(grid, curve):
        ana = oracles.ccdf_X(float(point), 2, T1, TCOM.policy, BUDGET)
        assert _within_binomial(ana, est)
    means = [est.mean for est in curve]
    assert all(b <= a for a, b in zip(means, means[1:]))


def test_empirical_ccdf_qom_variable():
    grid = np.geomspace(0.1, 10.0, 5)
    curve = empirical_ccdf_oracle(TQOM, ("Z", 1), grid, 80_000, 33)
    for point, est in zip(grid, curve):
        ana = oracles.ccdf_Z(float(point), 1, T1, TQOM.policy, BUDGET,
                               FIT100)
        sigma = max(est.half_width / 1.96, 1e-6)
        assert abs(ana - est.mean) <= 3.0 * sigma + 2.0 * FIT100.fit_error


BARE = Scenario(scheme=Scheme.CNRR, topology=T1.without_devices(),
                policy=build_policy(Scheme.CNRR, 4, 0.0), budget=BUDGET,
                plan=analytics.baseline_plan(TCOM.plan, 3))


# another path-loss law reads the same draws through its own device gains
STEEP_TCOM = dataclasses.replace(
    TCOM, budget=LinkBudget(P0=1e-3, sigma2=noise_power_w(1e7), epsilon=3.0))


# a com device is resampled into its annulus whenever the disk is active
@pytest.mark.parametrize("group", [
    (TCOM, scenario(Scheme.PCOM), scenario(Scheme.COM_NOEH, rho=0.0),
     STEEP_TCOM),
    (TQOM, scenario(Scheme.PQOM), scenario(Scheme.QOM_NOEH, rho=0.0), BARE),
], ids=["com-resample", "qom-resample"])
def test_shared_draws_match_runs_simulated_alone(group):
    # 30,000 trials cut block 0 and 100,000 cut block 1 of the same run
    runs = [(s, 41, n) for s in group for n in (100_000, 30_000)]
    plan = simulate_plan(runs)
    for s, seed, n in runs:
        assert plan[s, seed, n] == simulate(s, n, seed)
    assert simulate_plan(runs[::-1]) == plan
    assert simulate_plan(runs[1::2] + runs[::2]) == plan


PAIRINGS = {
    "com": (TCOM, scenario(Scheme.PCOM)),
    "qom": (TQOM, scenario(Scheme.PQOM)),
    "bare": (BARE,),
}
# one trial, the partial last blocks of 200,000 and 100,000 trials, and a
# full block
PREFIX_WIDTHS = (1, 3_392, 34_464, montecarlo.BLOCK_SIZE)


ARRAY_FIELDS = [name for name in montecarlo._Block.__slots__
                if name not in ("n", "guard_counts")]


def _drawn(s, b=0):
    """A full-width buffer set for ``s`` holding block ``b`` of seed 43."""
    buffers = montecarlo._Buffers(s, montecarlo.BLOCK_SIZE)
    montecarlo._draw(buffers, montecarlo._block_rng(43, b))
    return buffers


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_prefix_resolve_equals_full_width_prefix(pairing):
    group = PAIRINGS[pairing]
    # a resolve overwrites the arrays of the last one into the same set, so
    # the full width is resolved into a second set from the same stream
    draws, whole = _drawn(group[0]), _drawn(group[0])
    for s in group:
        full = montecarlo._resolve(s, whole, montecarlo.BLOCK_SIZE)
        for n in PREFIX_WIDTHS:
            part = montecarlo._resolve(s, draws, n)
            assert part.n == n
            # a prefix holds no more band trials; whole-row tests are per row
            assert part.guard_counts[0] <= full.guard_counts[0]
            assert part.guard_counts[1] == full.guard_counts[1]
            for name in ARRAY_FIELDS:
                got, want = getattr(part, name), getattr(full, name)
                if isinstance(want, list):
                    assert len(got) == len(want), name
                    pairs = zip(got, want)
                else:
                    pairs = [(got, want)]
                for a, b in pairs:
                    assert np.array_equal(a, b[..., :n]), (s.scheme, n, name)
    # device gains are computed once per path-loss law and sliced
    assert len(draws.gains) == 1


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_credited_device_messages_nest_in_earlier_hops(pairing):
    # a credited device message implies its transmitter received it, which
    # implies every earlier hop succeeded
    group = PAIRINGS[pairing]
    draws = _drawn(group[0])
    credited = 0
    for s in group:
        for n in PREFIX_WIDTHS:
            block = montecarlo._resolve(s, draws, n)
            # a device decodes only where its disk is active, so a tally
            # counts a device event's failures as active trials less its
            # successes
            for t in range(1, s.topology.hop_count + 1):
                assert not np.any(block.device_ok[t - 1]
                                  & ~block.active[t - 1]), (s.scheme, n, t)
            for t in range(2, s.topology.hop_count + 1):
                served = block.msg_ok[t - 1] & block.device_ok[t - 1]
                assert not np.any(served & ~block.prefix_ok[t - 2]), (
                    s.scheme, n, t)
                credited += int(served.sum())
    assert (credited > 0) == (pairing != "bare")


# a gain of 1e300 at 1 m overflows the power chain to inf where nodes 2 and
# 3 both harvest, so slot 3's row takes the gate's np.where fallback
HOT_TCOM = dataclasses.replace(TCOM, budget=LinkBudget(
    P0=1e-3, sigma2=noise_power_w(1e7), G_r=-1500.0, G_t=-1500.0))
# one alternation of BTEH and PS scenarios per pairing (PS adds the power
# split); full, partial and full widths in turn
REUSE_GROUPS = {
    "com": (TCOM, scenario(Scheme.PCOM), HOT_TCOM, STEEP_TCOM),
    "qom": (TQOM, scenario(Scheme.PQOM), scenario(Scheme.QOM_NOEH, rho=0.0)),
    "bare": (BARE,),
}
REUSE_WIDTHS = (montecarlo.BLOCK_SIZE, 3_392, 34_464, montecarlo.BLOCK_SIZE)


def _spoil(arrays):
    """Stale values every refill must overwrite: NaN in each float array,
    -1 in each count, the complement of each mask."""
    for a in arrays:
        if a.dtype == bool:
            np.logical_not(a, out=a)
        else:
            a.fill(np.nan if a.dtype.kind == "f" else -1)


def _draw_arrays(buffers):
    return [buffers.u_eh, buffers.active, buffers.hop_fades,
            *buffers.device_dist, *buffers.device_fade]


@pytest.mark.parametrize("pairing", sorted(REUSE_GROUPS))
def test_reused_draw_set_and_workspace_equal_fresh_arrays(pairing):
    group = REUSE_GROUPS[pairing]
    width = montecarlo.BLOCK_SIZE
    reused = montecarlo._Buffers(group[0], width)
    for b, n in enumerate(REUSE_WIDTHS):
        _spoil(_draw_arrays(reused) + list(reused.arrays.values()))
        montecarlo._draw(reused, montecarlo._block_rng(43, b))
        for got, want in zip(_draw_arrays(reused),
                             _draw_arrays(_drawn(group[0], b))):
            assert got.tobytes() == want.tobytes(), (b, n)
        for s in group:
            _spoil(reused.arrays.values())
            with np.errstate(over="ignore"):
                got = montecarlo._resolve(s, reused, n)
                want = montecarlo._resolve(s, _drawn(s, b), n)
            assert (got.n, got.guard_counts) == (n, want.guard_counts)
            for name in ARRAY_FIELDS:
                pairs = zip(getattr(got, name), getattr(want, name)) \
                    if name in ("device_snr", "device_ok") \
                    else [(getattr(got, name), getattr(want, name))]
                for a, b_ in pairs:
                    assert a.dtype == b_.dtype and a.shape == b_.shape
                    assert a.tobytes() == b_.tobytes(), (s.scheme, n, name)
            if s is HOT_TCOM:
                assert np.isinf(got.powers[2]).any()
    # the buffer set is allocated once, at full width
    assert reused.nbytes % width == 0
    assert all(a.shape[-1] == width
               for a in _draw_arrays(reused) + list(reused.arrays.values()))


def test_each_draw_group_frees_its_buffers_before_the_next(monkeypatch):
    # a group's buffer set, and every block's views of it, are gone before
    # the next group builds its own, so two groups' buffers never coexist
    # at peak memory
    alive, built = [], []
    init, take = montecarlo._Buffers.__init__, montecarlo._Buffers.take
    resolve, gain = montecarlo._resolve, montecarlo._Buffers.device_gain

    def watch(arrays):
        alive.extend(weakref.ref(a) for a in arrays)

    def build(self, scenario, width):
        assert not [ref for ref in alive if ref() is not None], len(built)
        init(self, scenario, width)
        built.append(scenario.scheme.pairing)
        watch(_draw_arrays(self))

    def take_watched(self, *args, **kw):
        view = take(self, *args, **kw)
        watch([view, view.base])
        return view

    def gain_watched(self, budget):
        gains = gain(self, budget)
        watch(gains)
        return gains

    def resolve_watched(scenario, buffers, n, devices):
        block = resolve(scenario, buffers, n, devices)
        watch(a for name in ARRAY_FIELDS for a in (
            getattr(block, name) if name in ("device_snr", "device_ok")
            else [getattr(block, name)]))
        return block

    monkeypatch.setattr(montecarlo._Buffers, "__init__", build)
    monkeypatch.setattr(montecarlo._Buffers, "take", take_watched)
    monkeypatch.setattr(montecarlo._Buffers, "device_gain", gain_watched)
    monkeypatch.setattr(montecarlo, "_resolve", resolve_watched)
    runs = [(s, 7, n) for s in (TCOM, scenario(Scheme.PCOM), TQOM, BARE)
            for n in (1_000, 2_500)]
    plan = simulate_plan(runs)
    assert not [run for run in runs if isinstance(plan[run], Exception)]
    assert built == ["com", "qom", None]
    assert alive and not [ref for ref in alive if ref() is not None]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, allow_infinity=False),
                          st.booleans()), min_size=1, max_size=64))
def test_gate_equals_where_on_finite_non_negative_rows(cells):
    x = np.array([value for value, _ in cells])
    mask = np.array([bit for _, bit in cells])
    want = np.where(mask, x, 1.0)
    # the gate overwrites its row and hands it back
    assert montecarlo._gate(x, mask) is x
    assert x.tobytes() == want.tobytes()


def test_gate_keeps_where_on_a_row_that_is_not_finite():
    x = np.array([np.inf, np.inf, np.nan, np.nan, 2.0, 0.0])
    mask = np.array([True, False, True, False, True, False])
    # the masked product alone turns inf * 0 into NaN
    with np.errstate(invalid="ignore"):
        assert np.isnan((x * mask + ~mask)[1])
    want = np.where(mask, x, 1.0)
    assert montecarlo._gate(x, mask).tobytes() == want.tobytes()


def test_failed_run_frees_its_buffers(monkeypatch):
    # a failure is kept without the frames that raised it, which would
    # hold its group's buffer set for as long as the plan's result lives
    alive = []
    resolve = montecarlo._resolve

    def refuse_pcom(scenario, buffers, n, *devices):
        alive.extend(weakref.ref(a) for a in _draw_arrays(buffers) + [
            *buffers.arrays.values(),
            *(row for rows in buffers.gain_rows.values() for row in rows)])
        if scenario.scheme is Scheme.PCOM:
            raise FloatingPointError("refused")
        return resolve(scenario, buffers, n, *devices)

    monkeypatch.setattr(montecarlo, "_resolve", refuse_pcom)
    runs = [(s, 7, 2_000) for s in (TCOM, scenario(Scheme.PCOM), TQOM)]
    plan = simulate_plan(runs)
    assert isinstance(plan[runs[1]], FloatingPointError)
    assert plan[runs[0]].trials == plan[runs[2]].trials == 2_000
    assert alive and not [ref for ref in alive if ref() is not None]


PCOM = scenario(Scheme.PCOM)
# what each run of a plan reads: block 1 of the com and bare groups serves
# only runs that read no device event and no throughput, so the com group
# draws no device geometry there; an entry the scenario rejects, a qom
# device under com, is left out
DEMAND = {
    (TCOM, 41, 100_000): {("hop", 2), ("e2e_destination",)},
    (TCOM, 41, 30_000): {("throughput",)},
    (PCOM, 41, 30_000): {("device", 1, 2), ("e2e_device", 2, 1),
                         ("supply_power",)},
    (STEEP_TCOM, 41, 30_000): {("e2e_device", 3, 1), ("device", 1, None)},
    (TQOM, 41, 100_000): {("device", 1, None), ("hop", 3)},
    (BARE, 41, 100_000): {("supply_power",)},
    (BARE, 41, 30_000): {("throughput",), ("e2e_destination",)},
}


def _outage_selectors(s):
    hops = range(1, s.topology.hop_count + 1)
    return [("hop", t) for t in hops] + [("e2e_destination",)] + [
        (kind, t, k) for t in hops for k in s.served(t)
        for kind in ("device", "e2e_device")]


def test_plan_tallies_what_each_run_reads(caplog):
    full = (scenario(Scheme.COM_NOEH, rho=0.0), 41, 30_000)
    with caplog.at_level(logging.DEBUG, logger="nomarelay.montecarlo"):
        plan = simulate_plan([*DEMAND, full], DEMAND)
    for (s, seed, n), reads in DEMAND.items():
        got, alone = plan[s, seed, n], simulate(s, n, seed)
        assert got.trials == n
        for selector in _outage_selectors(s):
            if selector in reads:
                assert got.outage(selector) == alone.outage(selector)
            else:
                with pytest.raises(ValueError, match="not tallied"):
                    got.outage(selector)
        for moment in ("throughput", "supply_power"):
            if (moment,) in reads:
                assert getattr(got, moment)() == getattr(alone, moment)()
            else:
                with pytest.raises(ValueError, match="not tallied"):
                    getattr(got, moment)()
    with pytest.raises(ValueError, match="no served device"):
        plan[STEEP_TCOM, 41, 30_000].outage(("device", 1, None))
    # a run without an entry is tallied in full
    assert plan[full] == simulate(full[0], full[2], full[1])
    # block 1 of the 100,000-trial runs is 34,464 trials wide
    lines = {r.getMessage().split(" ", 1)[0]: r.getMessage()
             for r in caplog.records}
    assert "2 blocks drawn (1 without device geometry)" in lines["com"]
    assert "(34464 without device decoding)" in lines["com"]
    assert "2 blocks drawn (0 without device geometry)" in lines["qom"]
    assert "(0 without device decoding)" in lines["qom"]
    assert "(34464 without device decoding)" in lines["bare"]


@pytest.mark.parametrize("pairing", ["com", "qom"])
def test_block_drawn_without_devices_keeps_its_other_draws(pairing):
    s = PAIRINGS[pairing][0]
    width = montecarlo.BLOCK_SIZE
    full, part = _drawn(s, 1), montecarlo._Buffers(s, width)
    _spoil(_draw_arrays(part))
    montecarlo._draw(part, montecarlo._block_rng(43, 1), False)
    for name in ("u_eh", "active", "hop_fades"):
        assert getattr(part, name).tobytes() == getattr(full, name).tobytes()
    # the device rows keep their stale values, and no resolve reads them
    assert all(np.isnan(a).all() for a in part.device_dist + part.device_fade)
    with pytest.raises(RuntimeError, match="no device geometry"):
        montecarlo._resolve(s, part, width)
    got = montecarlo._resolve(s, part, width, False)
    want = montecarlo._resolve(s, full, width)
    for name in ARRAY_FIELDS:
        if name in ("device_snr", "device_ok", "throughput"):
            assert getattr(got, name) is None, name
        else:
            assert getattr(got, name).tobytes() \
                == getattr(want, name).tobytes(), name
    # the next block draws from its own stream, unchanged
    montecarlo._draw(part, montecarlo._block_rng(43, 2))
    for got, want in zip(_draw_arrays(part), _draw_arrays(_drawn(s, 2))):
        assert got.tobytes() == want.tobytes()


def test_plan_keeps_failures_to_their_runs():
    runs = [(TCOM, 5, 10_000), (TCOM, 5, 0), (TQOM, 5, 10_000)]
    plan = simulate_plan(runs)
    assert isinstance(plan[TCOM, 5, 0], ValueError)
    assert plan[TCOM, 5, 10_000] == simulate(TCOM, 10_000, 5)
    assert plan[TQOM, 5, 10_000].trials == 10_000


def _rejects(route, selector) -> bool:
    try:
        route.outage(selector)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("scheme", [Scheme.TCOM, Scheme.TQOM, Scheme.CNRR])
def test_both_routes_reject_the_same_selectors(scheme):
    # wrong lengths, non-integer slots and subareas, and devices the scheme
    # does not serve (k=None under com, a subarea under qom, any device
    # under cnrr, k outside 1..K_t)
    s = BARE if scheme is Scheme.CNRR else scenario(scheme)
    routes = (simulate(s, 2_000, 3),
              analytics.SlotMarginals(s, lambda t: FIT100))
    t = 2
    selectors = [("hop", t), ("e2e_destination",), ("hop",), ("hop", t, 1),
                 ("e2e_destination", t), ("device", t), ("e2e_device", t),
                 ("device", t, 1, 1), ("hop", 1.0), ("device", 1, 2.0),
                 ("e2e_device", 1, 2.0)]
    for kind in ("device", "e2e_device"):
        selectors += [(kind, t, k) for k in
                      (1, None, 0, s.topology.subarea_counts[t - 1] + 1)]
    served = []
    for selector in selectors:
        rejected = [_rejects(route, selector) for route in routes]
        assert rejected[0] == rejected[1], selector
        if not rejected[0]:
            served.append(selector)
    ks = {"com": [1], "qom": [None], None: []}[scheme.pairing]
    assert served == [("hop", t), ("e2e_destination",)] + [
        (kind, t, k) for kind in ("device", "e2e_device") for k in ks]


def test_selector_and_argument_validation():
    with pytest.raises(ValueError, match="positive"):
        simulate(TCOM, 0, 1)
    tallies = simulate(TCOM, 1_000, 1)
    # the closed form rejects the same selectors the same way
    for route in (tallies, analytics.SlotMarginals(TCOM)):
        with pytest.raises(ValueError, match="slot"):
            route.outage(("hop", 4))
        with pytest.raises(ValueError, match="unknown selector"):
            route.outage(("snr", 1))
    with pytest.raises(ValueError, match="no served device"):
        tallies.outage(("device", 1, 4))
    with pytest.raises(ValueError, match="grid"):
        empirical_ccdf_oracle(TCOM, ("X", 1), [2.0, 1.0], 1_000, 1)
    with pytest.raises(ValueError, match="com scheme"):
        empirical_ccdf_oracle(TQOM, ("Y", 1, 1), [1.0], 1_000, 1)
    with pytest.raises(ValueError, match="qom scheme"):
        empirical_ccdf_oracle(TCOM, ("Z", 1), [1.0], 1_000, 1)
