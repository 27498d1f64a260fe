"""Simulator tests: determinism, oracles against the closed-form layer.

The simulator resolves exact joint events, so slot-level marginals must
sit inside binomial confidence bands around the closed forms; composed
events are compared separately in the acceptance suite where the product
approximation's documented envelope applies.
"""

import dataclasses
import math

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


def _shared_draws(group):
    s = group[0]
    return montecarlo._draw(s.topology, s.scheme.pairing,
                            montecarlo._block_rng(43, 0),
                            montecarlo.BLOCK_SIZE)


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_prefix_resolve_equals_full_width_prefix(pairing):
    group = PAIRINGS[pairing]
    draws = _shared_draws(group)
    for s in group:
        full = montecarlo._resolve(s, draws, montecarlo.BLOCK_SIZE)
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
    draws = _shared_draws(group)
    credited = 0
    for s in group:
        for n in PREFIX_WIDTHS:
            block = montecarlo._resolve(s, draws, n)
            for t in range(2, s.topology.hop_count + 1):
                served = block.msg_ok[t - 1] & block.device_ok[t - 1]
                assert not np.any(served & ~block.prefix_ok[t - 2]), (
                    s.scheme, n, t)
                credited += int(served.sum())
    assert (credited > 0) == (pairing != "bare")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, allow_infinity=False),
                          st.booleans()), min_size=1, max_size=64))
def test_gate_equals_where_on_finite_non_negative_rows(cells):
    x = np.array([value for value, _ in cells])
    mask = np.array([bit for _, bit in cells])
    assert montecarlo._gate(x, mask).tobytes() \
        == np.where(mask, x, 1.0).tobytes()


def test_gate_keeps_where_on_a_row_that_is_not_finite():
    x = np.array([np.inf, np.inf, np.nan, np.nan, 2.0, 0.0])
    mask = np.array([True, False, True, False, True, False])
    # the masked product alone turns inf * 0 into NaN
    with np.errstate(invalid="ignore"):
        assert np.isnan((x * mask + ~mask)[1])
    assert montecarlo._gate(x, mask).tobytes() \
        == np.where(mask, x, 1.0).tobytes()


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
