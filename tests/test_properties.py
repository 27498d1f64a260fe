"""Property suites for the invariants every layer promises.

Randomized counterparts of the pointwise oracles: distribution laws stay
inside [0, 1] and close to total probability, allocations stay feasible,
the power chain honors its harvest indicators, and estimators replay.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from nomarelay import analytics
from nomarelay.analytics import decoding_thresholds, default_allocation
from nomarelay.channel import (
    FittedGainDistribution,
    LinkBudget,
    noise_power_w,
)
from nomarelay.montecarlo import Estimate
from nomarelay.network import NetworkTopology, Scenario, Scheme, build_policy
from nomarelay.power import EhPolicy, uniform_policy
import oracles
from oracles import default_plan, run_block_trial

T1 = NetworkTopology(hop_distances=(200.0, 200.0, 200.0),
                     disk_radii=(100.0, 100.0, 100.0),
                     subarea_counts=(3, 2, 1),
                     density_active=1e-2)
BUDGET = LinkBudget(P0=1e-3, sigma2=noise_power_w(1e7))
FIT100 = FittedGainDistribution(mu=0.12381469748798679,
                                theta=0.9774996210662569,
                                m=0.352367611096878,
                                fit_error=0.00016760753354505553)

rhos = st.floats(min_value=0.0, max_value=0.95)
alphas = st.floats(min_value=0.05, max_value=0.9)
log_gains = st.floats(min_value=-6.0, max_value=3.0)
slots = st.integers(min_value=1, max_value=3)
architectures = st.sampled_from(["BTEH", "BPEH"])


def _policy(architecture, rho, alpha):
    return uniform_policy(architecture, 4, rho, alpha, 0.8, 1.0)


@settings(max_examples=40, deadline=None)
@given(rhos, alphas, slots, log_gains, log_gains, architectures)
def test_gain_laws_are_distributions(rho, alpha, t, e_lo, e_hi, arch):
    policy = _policy(arch, rho, alpha)
    lo, hi = sorted((10.0 ** e_lo, 10.0 ** e_hi))
    pairs = (
        (oracles.cdf_X(lo, t, T1, policy, BUDGET),
         oracles.cdf_X(hi, t, T1, policy, BUDGET),
         oracles.ccdf_X(lo, t, T1, policy, BUDGET)),
        (oracles.cdf_Y(lo, t, 1, T1, policy, BUDGET),
         oracles.cdf_Y(hi, t, 1, T1, policy, BUDGET),
         oracles.ccdf_Y(lo, t, 1, T1, policy, BUDGET)),
        (oracles.cdf_Z(lo, t, T1, policy, BUDGET, FIT100),
         oracles.cdf_Z(hi, t, T1, policy, BUDGET, FIT100),
         oracles.ccdf_Z(lo, t, T1, policy, BUDGET, FIT100)),
    )
    for below, above, comp in pairs:
        assert 0.0 <= below <= above <= 1.0 + 1e-12
        assert abs(below + comp - 1.0) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(rhos, alphas, slots, architectures)
def test_mixture_weights_close(rho, alpha, t, arch):
    # total probability: the harvest/activity mixture must carry mass one,
    # which shows up as a unit ccdf at the origin
    policy = _policy(arch, rho, alpha)
    tiny = 1e-300
    assert abs(oracles.ccdf_X(tiny, t, T1, policy, BUDGET) - 1.0) < 1e-12
    assert abs(oracles.ccdf_Y(tiny, t, 1, T1, policy, BUDGET) - 1.0) < 1e-12
    assert abs(oracles.ccdf_Z(tiny, t, T1, policy, BUDGET, FIT100)
               - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                min_size=1, max_size=4),
       alphas, architectures)
def test_harvest_runs_carry_unit_mass(relay_rhos, alpha, arch):
    # certain (1) and impossible (0) harvests included: every state of
    # nonzero weight appears once, with one mean gain per harvested hop
    hops = len(relay_rhos) + 1
    topology = NetworkTopology(hop_distances=(200.0,) * hops,
                               disk_radii=(100.0,) * hops,
                               subarea_counts=(1,) * hops,
                               density_active=1e-2)
    policy = EhPolicy(arch, (0.0, *relay_rhos, 0.0), alpha=alpha)
    for t in range(1, hops + 1):
        runs = analytics.harvest_runs(t, topology, policy, BUDGET)
        assert abs(sum(w for w, _, _ in runs) - 1.0) <= 1e-12
        assert all(w > 0.0 and len(gains) == v for w, v, gains in runs)
        harvested = [v for _, v, _ in runs]
        assert harvested == sorted(set(harvested), reverse=True)
        assert all(0 <= v < t for v in harvested)


@settings(max_examples=40, deadline=None)
@given(rhos, alphas, architectures,
       st.sampled_from([Scheme.TCOM, Scheme.TQOM]))
def test_default_allocation_is_feasible(rho, alpha, arch, scheme):
    scheme = scheme if arch == "BTEH" else (
        Scheme.PCOM if scheme is Scheme.TCOM else Scheme.PQOM)
    policy = build_policy(scheme, 4, rho, alpha=alpha)
    plan = default_plan(scheme, T1, policy)
    assert 0.0 < plan.relay_rate <= 0.75
    for t in range(1, 4):
        shares = plan.device_shares[t - 1]
        assert all(b > a for a, b in zip(shares, shares[1:]))
        total = plan.relay_share + sum(shares)
        assert abs(total - 1.0) < 1e-12
        for rate in plan.device_rates[t - 1]:
            assert 0.0 < rate <= 0.75


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95), alphas, architectures,
       st.floats(min_value=1.05, max_value=1.8))
def test_thresholds_increase_with_rates(rho, alpha, arch, factor):
    # rho > 0 keeps the harvested-state rows live; at rho = 0 the rate
    # rule ignores them and they may sit at infinity
    policy = uniform_policy(arch, 4, rho, alpha=alpha)
    # com plans and one-device qom plans
    for scheme in (Scheme.TCOM, Scheme.TQOM):
        plan = default_plan(scheme, T1, policy)
        slow = decoding_thresholds(plan, policy)
        harder = dataclasses.replace(
            plan,
            relay_rate=plan.relay_rate * factor,
            device_rates=tuple(tuple(r * factor for r in row)
                               for row in plan.device_rates))
        fast = decoding_thresholds(harder, policy)
        for row in range(2):  # first-hop receiver vs later receivers
            for i in range(2):
                assert fast.relay[row][i] > slow.relay[row][i] > 0.0
        for t in range(3):
            for k, pair in enumerate(slow.device[t]):
                assert fast.device[t][k][0] > pair[0] > 0.0


@settings(max_examples=40, deadline=None)
@given(rhos, alphas, slots, architectures,
       st.floats(min_value=1.0, max_value=30.0))
def test_outage_improves_with_supply_power(rho, alpha, t, arch, db_step):
    scheme = Scheme.TCOM if arch == "BTEH" else Scheme.PCOM
    policy = build_policy(scheme, 4, rho, alpha=alpha)
    plan = default_allocation(T1, policy)
    boosted = dataclasses.replace(BUDGET,
                                  P0=BUDGET.P0 * 10.0 ** (db_step / 10.0))
    low, high = (
        analytics.SlotMarginals(Scenario(scheme=scheme, topology=T1,
                                         policy=policy, budget=budget,
                                         plan=plan)).outage(("hop", t))
        for budget in (BUDGET, boosted))
    assert 0.0 <= high <= low <= 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from([Scheme.TCOM, Scheme.TQOM, Scheme.CNRR]))
def test_single_trials_replay_and_nest(seed, scheme):
    topology = T1.without_devices() if scheme is Scheme.CNRR else T1
    policy = build_policy(scheme, topology.node_count, 0.3)
    reference = default_plan(
        scheme, T1, build_policy(Scheme.TCOM, T1.node_count, 0.3))
    plan = analytics.baseline_plan(reference, 3) \
        if scheme is Scheme.CNRR else reference
    config = Scenario(scheme=scheme, topology=topology, policy=policy,
                      budget=BUDGET, plan=plan)
    out = run_block_trial(config, seed)
    assert out == run_block_trial(config, seed)
    # node 1 never harvests, so slot 1 always spends the supply power
    assert out.powers_w[0] == BUDGET.P0
    for t, flag in enumerate(out.eh_indicators[:2]):
        if not flag:
            assert out.powers_w[t + 1] == BUDGET.P0
    # a successful device implies its slot served one
    for t, bits in enumerate(out.device_success):
        if any(bits):
            assert out.device_present[t]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6))
def test_estimate_bounds(successes, trials):
    successes = min(successes, trials)
    est = Estimate.from_binomial(successes, trials)
    assert 0.0 <= est.mean <= 1.0
    assert est.half_width >= 0.0
    assert est.half_width <= 1.96 * 0.5 / math.sqrt(trials) + 1e-15


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                min_size=6, max_size=6),
       st.floats(min_value=0.0, max_value=1.0))
def test_throughput_stays_in_budget(device_ops, dest_op):
    policy = build_policy(Scheme.TCOM, 4, 0.1)
    plan = default_allocation(T1, policy)
    grouped = (tuple(device_ops[0:3]), tuple(device_ops[3:5]),
               (device_ops[5],))
    value = analytics.sum_throughput(plan, dest_op, grouped)
    ceiling = plan.relay_rate + sum(sum(row) for row in plan.device_rates)
    assert 0.0 <= value <= ceiling / 3.0 + 1e-12


relay_rho = st.floats(min_value=0.05, max_value=0.95) | st.just(1.0)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.lists(st.tuples(relay_rho, relay_rho), min_size=1, max_size=3,
                unique=True),
       architectures, st.sampled_from(["com", "qom"]),
       st.sampled_from([(-10.0, 0.0), (0.0, 20.0)]))
def test_a_registered_family_equals_its_members_alone(relay_rhos, arch,
                                                      pairing, p0s_dbm):
    # the scenarios equal but for P0 and their relays' harvest
    # probabilities (interior or 1) walk every outage as one family; each
    # member's float is the one it gets alone, exact and asymptotic
    scheme = {("com", "BTEH"): Scheme.TCOM, ("qom", "BTEH"): Scheme.TQOM,
              ("com", "BPEH"): Scheme.PCOM,
              ("qom", "BPEH"): Scheme.PQOM}[pairing, arch]
    policies = [EhPolicy(arch, (0.0,) + rhos + (0.0,), alpha=0.2)
                for rhos in relay_rhos]
    plan = default_plan(scheme, T1, policies[0])
    members = [Scenario(scheme=scheme, topology=T1, policy=policy,
                        budget=dataclasses.replace(
                            BUDGET, P0=10.0 ** (p0 / 10.0) / 1e3),
                        plan=plan)
               for policy in policies for p0 in p0s_dbm]
    memo = analytics.KernelMemo()
    memo.register_families(members)
    assert memo.family_members == [len(members)]
    selectors = [("e2e_destination",)] + [("hop", t) for t in (1, 2, 3)] \
        + [("device", t, k) for t in (1, 2, 3)
           for k in members[0].served(t)]
    for s in members:
        family = analytics.SlotMarginals(s, lambda t: FIT100, memo)
        alone = analytics.SlotMarginals(s, lambda t: FIT100)
        for asymptotic in (False, True):
            assert repr(family.throughput(asymptotic)) \
                == repr(alone.throughput(asymptotic))
            for selector in selectors:
                assert repr(family.outage(selector, asymptotic)) \
                    == repr(alone.outage(selector, asymptotic)), selector
    # each walk carries the whole family
    assert set(memo.outage_walks) == {len(members)}
