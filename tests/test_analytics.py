"""Closed-form layer tests: plans, thresholds, mixtures, outage, goodput.

Mixture CCDFs are checked against direct quadrature oracles at zero
harvesting probability (where the mixture collapses to one branch) and
against manually assembled two-branch mixtures otherwise.  Threshold
anchors are frozen from exact hand evaluation of the default plan.
"""

import dataclasses
import functools
import logging
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from nomarelay import analytics
from nomarelay.analytics import (
    AllocationPlan,
    KernelMemo,
    SlotMarginals,
    annulus_small_gain_coefficient,
    baseline_plan,
    decoding_thresholds,
    default_allocation,
    mrtr,
    nearest_small_gain_coefficient,
    sum_throughput,
    supply_power,
)
from nomarelay.channel import (
    FittedGainDistribution,
    LinkBudget,
    noise_power_w,
    pathloss_linear,
)
from nomarelay.geometry import log_null_probability
from nomarelay.network import NetworkTopology, Scenario, Scheme, build_policy
from nomarelay.power import uniform_policy
from oracles import (
    annulus_bounds,
    annulus_distance_pdf,
    asymptotic_cdf_X,
    asymptotic_cdf_Y,
    asymptotic_cdf_Z,
    ccdf_X,
    ccdf_Y,
    ccdf_Z,
    cdf_X,
    cdf_Y,
    cdf_Z,
    default_plan,
    diversity_order_estimate,
    hop_outage_in_full,
    outage_in_full,
    prod_exp_ccdf,
)

T1 = NetworkTopology(hop_distances=(200.0, 200.0, 200.0),
                     disk_radii=(100.0, 100.0, 100.0),
                     subarea_counts=(3, 2, 1),
                     density_active=1e-2)
BUDGET = LinkBudget(P0=1e-3, sigma2=noise_power_w(1e7))
BTEH = uniform_policy("BTEH", 4, 0.1, alpha=0.2, eta=1.0)
BPEH = uniform_policy("BPEH", 4, 0.1, beta=0.8, eta=1.0)
NOEH = uniform_policy("BTEH", 4, 0.0, alpha=0.2, eta=1.0)
PLAN_BTEH = default_allocation(T1, BTEH)
PLAN_BPEH = default_allocation(T1, BPEH)
PLAN_NOEH = default_allocation(T1, NOEH)
# qom plans: one device, the nearest, per slot
QOM_BTEH = default_plan(Scheme.TQOM, T1, BTEH)
QOM_BPEH = default_plan(Scheme.PQOM, T1, BPEH)
QOM_NOEH = default_plan(Scheme.QOM_NOEH, T1, NOEH)
# frozen fit for the 100 m disk at density 1e-2 (fit_singh_maddala output)
FIT100 = FittedGainDistribution(mu=0.12381469748798679,
                                theta=0.9774996210662569,
                                m=0.352367611096878,
                                fit_error=0.00016760753354505553)

GOLDEN = (math.sqrt(5.0) - 1.0)  # 2^(3 * MRTR/2) - 1 under the default share


def outage(selector, scheme, policy, plan, fit=None):
    """One outage of the T1 scenario, read through a fresh SlotMarginals."""
    scenario = Scenario(scheme=scheme, topology=T1, policy=policy,
                        budget=BUDGET, plan=plan)
    nearest_fit = None if fit is None else (lambda t: fit)
    return SlotMarginals(scenario, nearest_fit).outage(selector)


# ---------------------------------------------------------------------------
# allocation plans and rate rule
# ---------------------------------------------------------------------------

def test_default_allocation_share_layout():
    assert PLAN_BTEH.relay_share == 0.8
    for row in PLAN_BTEH.device_shares:
        assert sum(row) == pytest.approx(0.2, rel=1e-12)
        assert all(b == pytest.approx(2.0 * a) for a, b in zip(row, row[1:]))
    assert len(PLAN_BTEH.device_shares[0]) == 3
    assert PLAN_BTEH.slot_count == 3


def test_default_rate_rule_anchors():
    # relay target: half the ceiling log2(1+p/(1-p)) scaled by the
    # information window (1-alpha) over M-1 slots
    assert PLAN_BTEH.relay_rate == pytest.approx(0.30959041265164833, rel=1e-14)
    assert PLAN_BPEH.relay_rate == pytest.approx(0.38698801581456044, rel=1e-14)
    # uncapped interior device: half of its own SIC ceiling
    ceiling = mrtr(PLAN_BTEH, BTEH, ("device", 1, 2))
    assert PLAN_BTEH.device_rates[0][1] == pytest.approx(0.5 * ceiling)
    # subarea-1 and nearest devices have no finite ceiling: capped
    assert PLAN_BTEH.device_rates[2][0] == 0.75
    assert QOM_BTEH.device_rates == ((0.75,),) * 3
    # the nearest device holds every share the relayed message leaves
    assert QOM_BTEH.device_shares == ((1.0 - 0.8,),) * 3
    assert QOM_BTEH.relay_rate == PLAN_BTEH.relay_rate


def test_mrtr_cases():
    assert mrtr(PLAN_NOEH, NOEH, "relay") == pytest.approx(
        math.log2(5.0) / 3.0, rel=1e-14)
    # the first device of a slot, the qom device included, has no ceiling
    assert mrtr(PLAN_BTEH, BTEH, ("device", 2, 1)) is None
    assert mrtr(QOM_BTEH, BTEH, ("device", 2, 1)) is None
    full = dataclasses.replace(PLAN_BTEH, relay_share=1.0,
                               device_shares=((),) * 3,
                               device_rates=((),) * 3)
    assert mrtr(full, BTEH, "relay") is None
    with pytest.raises(ValueError, match="unknown signal"):
        mrtr(PLAN_BTEH, BTEH, ("gadget", 1, 1))


def test_rho_zero_raises_the_relay_target():
    # no harvesting, no compressed window: the ceiling grows by 1/(1-alpha)
    assert PLAN_NOEH.relay_rate == pytest.approx(
        PLAN_BTEH.relay_rate / 0.8, rel=1e-12)


def test_baseline_plan_inherits_the_relayed_rate():
    base = baseline_plan(PLAN_BTEH, 3)
    assert base.relay_share == 1.0
    assert base.relay_rate == PLAN_BTEH.relay_rate
    assert base.device_shares == ((), (), ())


def test_plan_validation():
    with pytest.raises(ValueError, match="ascending"):
        AllocationPlan(relay_share=0.8, device_shares=((0.15, 0.05),),
                       relay_rate=0.3, device_rates=((0.1, 0.1),))
    with pytest.raises(ValueError, match="sum to one"):
        AllocationPlan(relay_share=0.8, device_shares=((0.1, 0.2),),
                       relay_rate=0.3, device_rates=((0.1, 0.1),))
    with pytest.raises(ValueError, match="relay share"):
        AllocationPlan(relay_share=0.0, device_shares=((),),
                       relay_rate=0.3, device_rates=((),))
    with pytest.raises(ValueError, match="non-negative"):
        AllocationPlan(relay_share=1.0, device_shares=((),),
                       relay_rate=-0.1, device_rates=((),))


# ---------------------------------------------------------------------------
# decoding thresholds
# ---------------------------------------------------------------------------

def test_bteh_relay_threshold_anchors():
    th = decoding_thresholds(PLAN_BTEH, BTEH)
    assert th.relay[0][0] == pytest.approx(0.9036539387158786, rel=1e-14)
    assert th.relay[0][1] == pytest.approx(1.45922632811449, rel=1e-12)
    # the harvested branch decodes in the compressed window, which lands
    # the thresholds on sqrt(5)-1 and sqrt(5) for the default plan
    assert th.relay[1][0] == pytest.approx(GOLDEN, rel=1e-14)
    assert th.relay[1][1] == pytest.approx(math.sqrt(5.0), rel=1e-14)


def test_bpeh_relay_threshold_anchors():
    th = decoding_thresholds(PLAN_BPEH, BPEH)
    assert th.relay[0][0] == pytest.approx(GOLDEN, rel=1e-14)
    assert th.relay[0][1] == pytest.approx(math.sqrt(5.0), rel=1e-14)
    # power splitting divides the decode SNR by 1-beta instead
    assert th.relay[1][0] == pytest.approx(5.0 * GOLDEN, rel=1e-14)
    assert th.relay[1][1] == pytest.approx(5.0 * math.sqrt(5.0), rel=1e-14)


def test_bpeh_device_thresholds_ignore_the_split():
    th = decoding_thresholds(PLAN_BPEH, BPEH)
    qom = decoding_thresholds(QOM_BPEH, BPEH)
    for slot in th.device + qom.device:
        for pair in slot:
            assert pair[0] == pair[1]


def test_bteh_device_thresholds_feel_the_window():
    th = decoding_thresholds(PLAN_BTEH, BTEH)
    for slot in th.device:
        for pair in slot:
            assert pair[1] > pair[0]


def test_com_thresholds_decrease_with_subarea_index():
    # higher annuli get larger power shares, and each subarea must also
    # clear every weaker-allocated message above it in the SIC order
    th = decoding_thresholds(PLAN_BTEH, BTEH)
    slot1 = [pair[0] for pair in th.device[0]]
    assert slot1[0] >= slot1[1] >= slot1[2]


# ---------------------------------------------------------------------------
# mixture CCDFs
# ---------------------------------------------------------------------------

def test_ccdf_X_supply_branch_is_exponential():
    # slot 1's transmitter never harvests: pure Rayleigh hop
    mean = BUDGET.gamma_bar0 * pathloss_linear(200.0, BUDGET)
    for x in (0.5, 2.0, 40.0):
        assert ccdf_X(x, 1, T1, BTEH, BUDGET) == pytest.approx(
            math.exp(-x / mean), rel=1e-12)
        assert cdf_X(x, 1, T1, BTEH, BUDGET) == pytest.approx(
            -math.expm1(-x / mean), rel=1e-12)


def test_ccdf_X_mixture_matches_manual_assembly():
    # slot 2: either node 2 ran on supply (w=0.9, one fade) or harvested
    # from node 1's emission (w=0.1, product of two fades)
    ell = pathloss_linear(200.0, BUDGET)
    omega = 3 * 0.2 / 0.8  # time-switching conversion factor, eta = 1
    for x in (0.3, 1.0, 10.0):
        scaled = x / BUDGET.gamma_bar0
        manual = 0.9 * prod_exp_ccdf(scaled, 1, [ell]) \
            + 0.1 * prod_exp_ccdf(scaled, 2, [omega * ell, ell])
        assert ccdf_X(x, 2, T1, BTEH, BUDGET) == pytest.approx(manual, rel=1e-12)


def test_ccdf_Y_matches_annulus_quadrature():
    y = 2.0
    for k in (1, 2):
        disk = T1.disk(1)
        lo, hi = annulus_bounds(disk, k)

        def integrand(r):
            cond = math.exp(-y / (BUDGET.gamma_bar0 * pathloss_linear(r, BUDGET)))
            return annulus_distance_pdf(k, disk, r) * cond

        oracle, err = quad(integrand, lo, hi, epsabs=1e-13, limit=200)
        assert err < 1e-10
        assert ccdf_Y(y, 1, k, T1, NOEH, BUDGET) == pytest.approx(oracle, rel=1e-9)


def test_ccdf_Y_harvested_branch_against_quadrature():
    # slot 2, both-branch mixture: condition the harvested branch on the
    # extra relay fade and integrate it out numerically
    y, k = 1.5, 2
    disk = T1.disk(2)
    lo, hi = annulus_bounds(disk, k)
    omega_ell = (3 * 0.2 / 0.8) * pathloss_linear(200.0, BUDGET)

    def supply(r):
        return math.exp(-y / (BUDGET.gamma_bar0 * pathloss_linear(r, BUDGET)))

    def harvested(r):
        inner, _ = quad(
            lambda u: math.exp(-u) * math.exp(
                -y / (BUDGET.gamma_bar0 * omega_ell * u
                      * pathloss_linear(r, BUDGET))),
            0.0, 60.0, epsabs=1e-13, limit=300)
        return inner

    oracle = 0.0
    for weight, branch in ((0.9, supply), (0.1, harvested)):
        part, _ = quad(lambda r: annulus_distance_pdf(k, disk, r) * branch(r),
                       lo, hi, epsabs=1e-12, limit=200)
        oracle += weight * part
    assert ccdf_Y(y, 2, k, T1, BTEH, BUDGET) == pytest.approx(oracle, rel=1e-6)


def test_ccdf_Z_supply_branch_is_the_fitted_law():
    for z in (0.2, 3.0, 50.0):
        u = (z / (BUDGET.gamma_bar0 * FIT100.mu)) ** FIT100.theta
        assert ccdf_Z(z, 1, T1, BTEH, BUDGET, FIT100) == pytest.approx(
            (1.0 + u) ** -FIT100.m, rel=1e-10)


def test_ccdf_Z_harvested_branch_against_quadrature():
    z = 1.0
    omega_ell = (3 * 0.2 / 0.8) * pathloss_linear(200.0, BUDGET)
    scale = BUDGET.gamma_bar0 * FIT100.mu * omega_ell

    def integrand(u):
        v = (z / (scale * u)) ** FIT100.theta
        return math.exp(-u) * (1.0 + v) ** -FIT100.m

    inner, _ = quad(integrand, 0.0, 80.0, epsabs=1e-13, limit=400)
    manual = 0.9 * (1.0 + (z / (BUDGET.gamma_bar0 * FIT100.mu))
                    ** FIT100.theta) ** -FIT100.m + 0.1 * inner
    assert ccdf_Z(z, 2, T1, BTEH, BUDGET, FIT100) == pytest.approx(
        manual, rel=1e-7)


def test_mixture_cdf_complements():
    for fn_c, fn_d, args in (
            (ccdf_X, cdf_X, (2, T1, BTEH, BUDGET)),
            (ccdf_Y, cdf_Y, (2, 1, T1, BPEH, BUDGET)),
            (ccdf_Z, cdf_Z, (2, T1, BTEH, BUDGET, FIT100))):
        for v in (1e-3, 1.0, 1e3):
            assert fn_c(v, *args) + fn_d(v, *args) == pytest.approx(1.0, abs=1e-12)


def test_mixture_argument_validation():
    # the laws check nothing themselves: SlotMarginals.outage rejects a
    # slot or subarea outside the scenario before any law is evaluated
    for selector in (("hop", 4), ("hop", 0), ("device", 4, 1),
                     ("e2e_device", 4, 1)):
        with pytest.raises(ValueError, match="slot"):
            outage(selector, Scheme.TCOM, BTEH, PLAN_BTEH)
    for selector in (("device", 1, 4), ("e2e_device", 3, 2)):
        with pytest.raises(ValueError, match="no served device"):
            outage(selector, Scheme.TCOM, BTEH, PLAN_BTEH)


# ---------------------------------------------------------------------------
# high-power asymptotes
# ---------------------------------------------------------------------------

HIGH = dataclasses.replace(BUDGET, P0=BUDGET.P0 * 1e4)  # +40 dB


def test_small_gain_coefficients():
    # whole-disk annulus: c/(c+1) with c = 2/eps
    c = 2.0 / 3.67
    assert annulus_small_gain_coefficient(1, 1, 3.67) == pytest.approx(
        c / (c + 1.0), rel=1e-12)
    with pytest.raises(ValueError):
        nearest_small_gain_coefficient(0.0, 100.0, 3.67)


@pytest.mark.parametrize("density, eps", [
    (1e-7, 3.67), (1e-4, 3.67), (1e-4, 2.5),   # pi*density*r^2 < shape + 1
    (1.3e-4, 3.67), (1e-2, 3.67), (3e-4, 2.5),  # pi*density*r^2 >= shape + 1
])
def test_nearest_small_gain_coefficient_matches_mpmath(density, eps):
    # a^(-eps/2) gamma(eps/2 + 1, a) / (1 - e^-a) with a = pi density r^2,
    # on both sides of the shape + 1 switch of incomplete-gamma routines
    radius = 100.0
    with mp.workdps(40):
        a = mp.pi * mp.mpf(density) * radius**2
        shape = mp.mpf(eps) / 2 + 1
        ref = a ** (-mp.mpf(eps) / 2) * mp.gammainc(shape, 0, a) \
            / -mp.expm1(-a)
    assert nearest_small_gain_coefficient(density, radius, eps) \
        == pytest.approx(float(ref), rel=1e-13)


def test_asymptotic_cdfs_match_exact_at_high_power():
    th = decoding_thresholds(PLAN_BTEH, BTEH)
    for t in (1, 2, 3):
        x = th.relay[0][1]
        exact = cdf_X(x, t, T1, BTEH, HIGH)
        approx = asymptotic_cdf_X(x, t, T1, BTEH, HIGH)
        assert approx == pytest.approx(exact, rel=0.05)
    y = th.device[0][1][0]
    assert asymptotic_cdf_Y(y, 1, 2, T1, BTEH, HIGH) == pytest.approx(
        cdf_Y(y, 1, 2, T1, BTEH, HIGH), rel=0.05)
    z = decoding_thresholds(QOM_BTEH, BTEH).device[0][0][0]
    assert asymptotic_cdf_Z(z, 1, T1, BTEH, HIGH) == pytest.approx(
        cdf_Z(z, 1, T1, BTEH, HIGH, FIT100), rel=0.05)


def test_asymptote_saturates_outside_its_regime():
    # at baseline power and a huge argument the residue series would
    # overshoot; the per-branch clamp must keep the mixture a probability
    value = asymptotic_cdf_X(1e8, 3, T1, BTEH, BUDGET)
    assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# outage probabilities
# ---------------------------------------------------------------------------

def test_hop_outage_reduces_to_activity_weighted_cdf():
    th = decoding_thresholds(PLAN_NOEH, NOEH)
    idle = math.exp(log_null_probability(1e-2, 100.0))
    manual = idle * cdf_X(th.relay[0][0], 1, T1, NOEH, BUDGET) \
        + (1.0 - idle) * cdf_X(th.relay[0][1], 1, T1, NOEH, BUDGET)
    got = outage(("hop", 1), Scheme.COM_NOEH, NOEH, PLAN_NOEH)
    assert got == pytest.approx(manual, rel=1e-12)


def test_hop_outage_identical_for_both_pairings():
    for t in (1, 2, 3):
        com = outage(("hop", t), Scheme.TCOM, BTEH, PLAN_BTEH)
        qom = outage(("hop", t), Scheme.TQOM, BTEH, QOM_BTEH)
        assert com == qom


# receiver harvest states and (idle, active) relay thresholds of a slot
STATES = ((0, 0.9), (1, 0.1))
RELAY = ((1.0, 2.0), (3.0, 4.0))
# the idle-disk share of a t1 disk, ~4e-137, and of the density sweep's
# sparsest point, 0.043
T1_IOTA = (math.exp(-100.0 * math.pi), -math.expm1(-100.0 * math.pi))
SPARSE_IOTA = (math.exp(-math.pi), -math.expm1(-math.pi))


def _family_outage(g0s, iota, law):
    """``SlotMarginals._outage`` of the family ``g0s``, every member in
    ``STATES``, over ``law(g0, x)``, and the (g0, threshold) of every law
    evaluation it made."""
    evaluated = []

    def evaluate(members, x):
        evaluated.extend((g0, x) for g0 in members)
        return tuple(law(g0, x) for g0 in members)
    ops = SlotMarginals._outage(
        g0s, analytics._receivers(g0s, [(range(len(g0s)), STATES)]), RELAY,
        iota, evaluate, "test")
    return ops, evaluated


@pytest.mark.parametrize("iota, skipped", [(T1_IOTA, True),
                                           (SPARSE_IOTA, False)])
def test_idle_term_is_skipped_only_where_it_cannot_move_the_float(iota,
                                                                  skipped):
    def law(g0, x):
        return min(x * 1e-3 / g0, 1.0)
    g0s = (1.0, 10.0)
    ops, evaluated = _family_outage(g0s, iota, law)
    assert ops == tuple(outage_in_full(STATES, RELAY, iota,
                                       functools.partial(law, g0))
                        for g0 in g0s)
    active = [(g0, x) for x in (2.0, 4.0) for g0 in g0s]
    idle = [(g0, x) for x in (1.0, 3.0) for g0 in g0s]
    assert sorted(evaluated) == sorted(active + ([] if skipped else idle))


def test_idle_term_is_kept_where_the_active_term_is_zero():
    # member 1e3's active laws are 0.0, so its tiny idle terms are the
    # whole outage and must be evaluated; member 1.0's are not
    def law(g0, x):
        if g0 > 1.0:
            return 0.0 if x in (2.0, 4.0) else 0.5
        return min(x * 1e-3 / g0, 1.0)
    g0s = (1.0, 1e3)
    ops, evaluated = _family_outage(g0s, T1_IOTA, law)
    want = tuple(outage_in_full(STATES, RELAY, T1_IOTA,
                                functools.partial(law, g0)) for g0 in g0s)
    assert ops == want and 0.0 < want[1] < 1e-100
    assert sorted(evaluated) == sorted(
        [(g0, x) for x in (2.0, 4.0) for g0 in g0s]
        + [(1e3, 1.0), (1e3, 3.0)])


@pytest.mark.parametrize("asymptotic", [False, True])
@pytest.mark.parametrize("density", [1e-2, 1e-4])
def test_hop_outage_equals_the_sum_of_every_term(asymptotic, density):
    # at density 1e-2 every t1 idle term is left out, at 1e-4 (idle share
    # 0.043) every one is kept; the float is the full sum's either way
    topology = dataclasses.replace(T1, density_active=density)
    for scheme, policy, plan in ((Scheme.TCOM, BTEH, PLAN_BTEH),
                                 (Scheme.PCOM, BPEH, PLAN_BPEH),
                                 (Scheme.COM_NOEH, NOEH, PLAN_NOEH)):
        for p0 in (1e-6, 1e-3, 10.0):
            s = Scenario(scheme=scheme, topology=topology, policy=policy,
                         budget=dataclasses.replace(BUDGET, P0=p0), plan=plan)
            marginals = SlotMarginals(s)
            for t in (1, 2, 3):
                assert marginals.outage(("hop", t), asymptotic) \
                    == hop_outage_in_full(s, t, asymptotic), (scheme, p0, t)


def test_op_nondecreasing_in_target_rates():
    ops = []
    for rate in (0.2, 0.3, 0.4):
        plan = dataclasses.replace(PLAN_BTEH, relay_rate=rate)
        ops.append(outage(("hop", 1), Scheme.TCOM, BTEH, plan))
    assert ops[0] < ops[1] < ops[2]
    dev = []
    for rate in (0.05, 0.15, 0.25):
        rates = ((rate,) * 3, (rate,) * 2, (rate,))
        plan = dataclasses.replace(PLAN_BTEH, device_rates=rates)
        dev.append(outage(("device", 1, 2), Scheme.TCOM, BTEH, plan))
    assert dev[0] < dev[1] < dev[2]


def test_device_op_reaches_one_at_the_rate_ceiling():
    # as the relayed target rises to its ceiling the relayed-message
    # threshold at the device diverges and the outage saturates at one
    ceiling = mrtr(QOM_NOEH, NOEH, "relay")
    ops = []
    for f in (0.9, 0.99, 0.999):
        plan = dataclasses.replace(QOM_NOEH, relay_rate=f * ceiling)
        ops.append(outage(("device", 1, None), Scheme.QOM_NOEH, NOEH, plan,
                          fit=FIT100))
    assert ops[0] < ops[1] < ops[2] <= 1.0
    at_ceiling = dataclasses.replace(QOM_NOEH, relay_rate=ceiling)
    assert outage(("device", 1, None), Scheme.QOM_NOEH, NOEH, at_ceiling,
                  fit=FIT100) == 1.0


def test_qom_exact_op_requires_a_fit():
    with pytest.raises(ValueError, match="nearest-gain fit"):
        outage(("device", 1, None), Scheme.TQOM, BTEH, QOM_BTEH)


# ---------------------------------------------------------------------------
# end-to-end composition
# ---------------------------------------------------------------------------

def test_destination_chains_every_hop():
    hops = [outage(("hop", t), Scheme.TCOM, BTEH, PLAN_BTEH)
            for t in (1, 2, 3)]
    manual = 1.0 - (1.0 - hops[0]) * (1.0 - hops[1]) * (1.0 - hops[2])
    got = outage(("e2e_destination",), Scheme.TCOM, BTEH, PLAN_BTEH)
    assert got == pytest.approx(manual, rel=1e-12)


def test_device_chain_stops_at_its_transmitter():
    # slot 1's device needs no hop at all; slot 3's needs hops 1 and 2 but
    # not the final forward hop
    d1 = outage(("device", 1, 2), Scheme.TCOM, BTEH, PLAN_BTEH)
    assert outage(("e2e_device", 1, 2), Scheme.TCOM, BTEH, PLAN_BTEH) == d1
    hops = [outage(("hop", t), Scheme.TCOM, BTEH, PLAN_BTEH) for t in (1, 2)]
    d3 = outage(("device", 3, 1), Scheme.TCOM, BTEH, PLAN_BTEH)
    manual = 1.0 - (1.0 - hops[0]) * (1.0 - hops[1]) * (1.0 - d3)
    got = outage(("e2e_device", 3, 1), Scheme.TCOM, BTEH, PLAN_BTEH)
    assert got == pytest.approx(manual, rel=1e-12)


def test_qom_e2e_uses_the_per_slot_fit():
    direct = outage(("device", 2, None), Scheme.TQOM, BTEH, QOM_BTEH,
                    fit=FIT100)
    hop1 = outage(("hop", 1), Scheme.TQOM, BTEH, QOM_BTEH)
    got = outage(("e2e_device", 2, None), Scheme.TQOM, BTEH, QOM_BTEH,
                 fit=FIT100)
    assert got == pytest.approx(1.0 - (1.0 - hop1) * (1.0 - direct), rel=1e-12)


# ---------------------------------------------------------------------------
# throughput and efficiency
# ---------------------------------------------------------------------------

def test_sum_throughput_degenerate_cases():
    plan = PLAN_BTEH
    all_fail = tuple((1.0,) * len(row) for row in plan.device_rates)
    assert sum_throughput(plan, 1.0, all_fail) == 0.0
    all_pass = tuple((0.0,) * len(row) for row in plan.device_rates)
    upper = (plan.relay_rate
             + sum(r for row in plan.device_rates for r in row)) / 3.0
    assert sum_throughput(plan, 0.0, all_pass) == pytest.approx(upper)
    # a qom plan credits its one device per slot at the device's rate
    assert sum_throughput(QOM_BTEH, 0.0, ((0.0,),) * 3) == pytest.approx(
        (QOM_BTEH.relay_rate + 3 * 0.75) / 3.0)


def test_sum_throughput_baseline_has_no_device_terms():
    base = baseline_plan(PLAN_BTEH, 3)
    tp = sum_throughput(base, 0.25, ((), (), ()))
    assert tp == pytest.approx(base.relay_rate * 0.75 / 3.0)


def test_sum_throughput_shape_mismatch():
    with pytest.raises(ValueError, match="outage values"):
        sum_throughput(PLAN_BTEH, 0.0, ((0.0,), (0.0,), (0.0,)))


def test_supply_power_skips_harvested_hops():
    assert supply_power(BUDGET, BTEH) == pytest.approx(2.8 * BUDGET.P0,
                                                       rel=1e-12)
    assert supply_power(BUDGET, NOEH) == pytest.approx(3.0 * BUDGET.P0,
                                                       rel=1e-12)
    # a bandwidth of zero is refused where the noise floor is derived,
    # before any efficiency is formed
    with pytest.raises(ValueError, match="bandwidth"):
        noise_power_w(0.0)


# ---------------------------------------------------------------------------
# diversity order
# ---------------------------------------------------------------------------

def test_diversity_slope_on_synthetic_power_laws():
    p0 = np.arange(20.0, 41.0, 2.0)
    gamma = 10.0 ** (p0 / 10.0)
    assert diversity_order_estimate(p0, 1e-2 / gamma * 1e4) == pytest.approx(
        1.0, abs=1e-6)
    assert diversity_order_estimate(p0, (1e2 / gamma) ** 2) == pytest.approx(
        2.0, abs=1e-6)


def test_diversity_excludes_floored_points():
    p0 = np.arange(0.0, 22.0, 2.0)
    ops = 1e-2 * 10.0 ** (-p0 / 10.0)
    ops[:3] = 1e-300
    with pytest.warns(RuntimeWarning, match="excluded 3"):
        slope = diversity_order_estimate(p0, ops)
    assert slope == pytest.approx(1.0, abs=1e-6)


def test_diversity_needs_enough_points():
    with pytest.raises(ValueError, match="four usable"):
        diversity_order_estimate([30.0, 35.0, 40.0], [1e-3, 1e-4, 1e-5])
    with pytest.raises(ValueError, match="align"):
        diversity_order_estimate([30.0, 35.0], [1e-3])


# ---------------------------------------------------------------------------
# kernel memo
# ---------------------------------------------------------------------------

def _marginals(scheme, kernels):
    policy = build_policy(scheme, 4, 0.3)
    scenario = Scenario(scheme=scheme, topology=T1, policy=policy,
                        budget=BUDGET, plan=default_plan(scheme, T1, policy))
    return SlotMarginals(scenario, lambda t: FIT100, kernels)


def _every_marginal(marginals, asymptotic):
    values = []
    for t in range(1, T1.hop_count + 1):
        values.append(marginals.outage(("hop", t), asymptotic))
        for k in marginals.scenario.served(t):
            values.append(marginals.outage(("device", t, k), asymptotic))
            values.append(marginals.outage(("e2e_device", t, k), asymptotic))
    values.append(marginals.outage(("e2e_destination",), asymptotic))
    values.append(marginals.throughput(asymptotic))
    return values


@pytest.mark.parametrize("asymptotic", [False, True])
def test_shared_kernel_memo_returns_the_private_floats(asymptotic):
    shared = KernelMemo()
    for scheme in (Scheme.TCOM, Scheme.PCOM, Scheme.TQOM, Scheme.PQOM):
        private = _every_marginal(_marginals(scheme, None), asymptotic)
        assert _every_marginal(_marginals(scheme, shared), asymptotic) == private
    # the four schemes share hop laws, so the shared memo saw repeats
    assert sum(shared.lookups.values()) > len(shared)


def test_standalone_evaluations_keep_no_memo_between_calls(monkeypatch):
    calls = []
    kernel = analytics.annulus_kernel_deficit
    monkeypatch.setattr(analytics, "annulus_kernel_deficit",
                        lambda *args, **kw: calls.append(args)
                        or kernel(*args, **kw))
    first = cdf_Y(1e-2, 2, 2, T1, BTEH, BUDGET)
    evaluated = len(calls)
    assert evaluated > 0
    assert cdf_Y(1e-2, 2, 2, T1, BTEH, BUDGET) == first
    assert len(calls) == 2 * evaluated
    # a standalone SlotMarginals owns its memo; a sweep hands one in
    memo = KernelMemo()
    scenario = Scenario(scheme=Scheme.TCOM, topology=T1, policy=BTEH,
                        budget=BUDGET, plan=PLAN_BTEH)
    assert SlotMarginals(scenario, kernels=memo).kernels is memo
    assert SlotMarginals(scenario).kernels is not memo


# ---------------------------------------------------------------------------
# clamping computed probabilities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.0, -0.0, 1.0, 5e-324, 1e-300, 0.25, 0.5,
                               1.0 - 2.0 ** -53])
def test_clamp_returns_a_probability_unchanged(caplog, p):
    with caplog.at_level(logging.DEBUG, logger="nomarelay.analytics"):
        got = analytics._clamp(p, "hop outage (t=1)")
    assert got.hex() == p.hex()
    assert not caplog.records


@pytest.mark.parametrize("p, want", [
    (-analytics.CLAMP_TOLERANCE, 0.0), (-1e-9, 0.0), (-5e-324, 0.0),
    (1.0 + analytics.CLAMP_TOLERANCE, 1.0), (1.0 + 1e-9, 1.0),
    (1.0 + 2.0 ** -52, 1.0)])
def test_clamp_pulls_a_rounding_excursion_into_range(caplog, p, want):
    with caplog.at_level(logging.DEBUG, logger="nomarelay.analytics"):
        got = analytics._clamp(p, "hop outage (t=1)")
    assert got.hex() == want.hex()
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert "clamped hop outage (t=1)" in record.getMessage()


@pytest.mark.parametrize("p", [
    math.nextafter(-analytics.CLAMP_TOLERANCE, -math.inf),
    math.nextafter(1.0 + analytics.CLAMP_TOLERANCE, math.inf), -0.5, 2.0,
    math.inf, -math.inf, math.nan])
def test_clamp_rejects_what_lies_past_the_tolerance(p):
    with pytest.raises(analytics.ProbabilityBoundError,
                       match=r"^hop outage \(t=1\) evaluated to "):
        analytics._clamp(p, "hop outage (t=1)")
