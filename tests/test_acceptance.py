"""Acceptance gate: one test per release criterion.

Each criterion gets one pass/fail line under ``pytest -v``.  Green
criteria assert directly.  A handful of figure-read reference values are
known-unreachable under the as-printed propagation constant; their tests
gather every pinned comparison first and then fail with the full list,
deliberately, instead of being skipped or masked.  ``tests/RED_ANCHORS.md``
names each red anchor's pinned window and what drives the miss.
"""

import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from nomarelay import analytics, montecarlo
from nomarelay.analytics import default_allocation, mrtr
from nomarelay.channel import (
    FittedGainDistribution,
    LinkBudget,
    ccdf_varphi_nearest_numeric,
    fit_singh_maddala,
    noise_power_w,
    pathloss_linear,
)
from nomarelay.experiments import RunConfig, SweepSpec, run_sweep
from nomarelay.geometry import log_null_probability
from nomarelay.network import NetworkTopology, Scenario, Scheme, build_policy
from nomarelay.power import uniform_policy
import oracles
from oracles import (
    MeijerSpec,
    as_generator,
    default_plan,
    diversity_order_estimate,
    meijer_g,
    sample_eh_process,
    singh_maddala_ccdf,
    singh_maddala_ccdf_foxh,
    transmit_power,
    transmit_power_recursive,
)

T1 = NetworkTopology(hop_distances=(200.0, 200.0, 200.0),
                     disk_radii=(100.0, 100.0, 100.0),
                     subarea_counts=(3, 2, 1),
                     density_active=1e-2)
T2 = NetworkTopology(hop_distances=(200.0, 100.0, 100.0),
                     disk_radii=(100.0, 50.0, 50.0),
                     subarea_counts=(3, 2, 1),
                     density_active=1e-2)
FIT100 = FittedGainDistribution(mu=0.12381469748798679,
                                theta=0.9774996210662569,
                                m=0.352367611096878,
                                fit_error=0.00016760753354505553)
FIT_CACHE = str(Path(__file__).resolve().parent.parent
                / "data" / "nearest_fits.json")


def _budget(p0_dbm):
    return LinkBudget(P0=10.0 ** (p0_dbm / 10.0) / 1e3,
                      sigma2=noise_power_w(1e7))


def _scenario(scheme, p0_dbm, rho=0.1):
    policy = build_policy(scheme, 4, rho)
    reference = default_plan(scheme, T1, build_policy(Scheme.TCOM, 4, rho))
    plan = default_plan(scheme, T1, policy) \
        if scheme.harvesting == "BPEH" else reference
    return Scenario(scheme=scheme, topology=T1, policy=policy,
                    budget=_budget(p0_dbm), plan=plan)


def test_criterion_1_slot_outage_oracle_equivalence():
    # every slot-level outage expression against the exact simulator at
    # one million trials, three supply powers, both harvesting designs.
    # The qom rows are exact under the fitted nearest-gain law while the
    # simulator draws the true law, so they carry twice the fit's
    # sup-norm error on top of the binomial band.
    misses = []
    points = [(p0_dbm, scheme, _scenario(scheme, p0_dbm))
              for p0_dbm in (-20.0, -10.0, 0.0)
              for scheme in (Scheme.TCOM, Scheme.PCOM, Scheme.TQOM,
                             Scheme.PQOM)]
    # one simulation plan for the 12 runs, which share a seed and a node
    # count, so one block stream feeds them all; each run's tallies are
    # those it gets simulated alone
    plan = montecarlo.simulate_plan([(s, 101, 1_000_000) for *_, s in points])
    for p0_dbm, scheme, s in points:
        qom = scheme.pairing == "qom"
        selectors = [("hop", t) for t in (1, 2, 3)]
        if qom:
            selectors += [("device", t, None) for t in (1, 2, 3)]
        else:
            selectors += [("device", t, k) for t in (1, 2, 3)
                          for k in range(1, T1.subarea_counts[t - 1] + 1)]
        # one closed form and one simulated run answer every selector
        marginals = analytics.SlotMarginals(s, lambda t: FIT100)
        tallies = plan[s, 101, 1_000_000]
        assert not isinstance(tallies, Exception), tallies
        for sel in selectors:
            ana = marginals.outage(sel)
            est = tallies.outage(sel)
            sigma = max(est.half_width / 1.96,
                        math.sqrt(max(ana * (1.0 - ana), 1e-12)
                                  / est.trials))
            bound = 3.0 * sigma + (2.0 * FIT100.fit_error if qom else 0.0)
            if abs(ana - est.mean) > bound:
                misses.append(
                    f"{scheme.value} {sel} @ {p0_dbm:+.0f} dBm: "
                    f"analytic {ana:.6g} vs simulated {est.mean:.6g} "
                    f"(bound {bound:.3g})")
    assert not misses, "\n".join(misses)


def test_criterion_2_special_function_kernel():
    # closed kernel anchor within 1e-6 of the Bessel-integral oracle,
    # and the five-digit reference value on the nose
    spec = MeijerSpec(m=2, n=0, p=0, q=2, a=(), b=(1.0, 0.0))
    anchor = meijer_g(spec, 1.0)
    assert anchor == pytest.approx(2.0 * scipy.special.kv(1, 2.0), abs=1e-6)
    assert round(anchor, 5) == 0.27973

    # product-of-exponentials tail against ten million draws
    rng = np.random.Generator(np.random.Philox(20260823))
    for n in (2, 3, 4):
        prod = np.ones(10_000_000)
        for _ in range(n):
            prod *= rng.standard_exponential(10_000_000)
        for x in np.geomspace(0.05, 5.0, 5):
            ana = oracles.prod_exp_ccdf(float(x), n, (1.0,) * n)
            mc = float((prod > x).mean())
            sigma = math.sqrt(ana * (1.0 - ana) / 10_000_000)
            assert abs(ana - mc) <= 3.0 * sigma

    # generalized-kernel route collapses onto the plain heavy-tail law
    other = FittedGainDistribution(mu=0.5, theta=1.3, m=0.7, fit_error=0.0)
    for fit in (FIT100, other):
        for phi in np.geomspace(1e-3, 1e3, 13):
            direct = singh_maddala_ccdf(float(phi), fit)
            kernel = singh_maddala_ccdf_foxh(float(phi), fit)
            assert abs(direct - kernel) <= 1e-8


def test_criterion_3_nearest_gain_fit_quality():
    budget = _budget(0.0)
    for radius in (50.0, 100.0):
        topo = dataclasses.replace(T1, disk_radii=(radius,) * 3)
        fit = fit_singh_maddala(topo.disk(1), budget)
        assert fit.fit_error <= 1e-2
        # independent spot check against the contact-law quadrature at
        # off-grid points inside the fitted span
        scale = pathloss_linear(radius, budget)
        for factor in np.geomspace(3e-4, 3e3, 13):
            phi = float(factor * scale)
            exact = ccdf_varphi_nearest_numeric(phi, topo.disk(1), budget)
            fitted = singh_maddala_ccdf(phi, fit)
            assert abs(exact - fitted) <= 1e-2


def _throughput_rows(topology, sweep, p0_dbm=0.0):
    config = RunConfig(topology=topology, sweep=sweep, p0_dbm=p0_dbm,
                       fit_cache=FIT_CACHE)
    result = run_sweep(config, source="analytic")
    assert not result.failures, result.failures
    return result.rows


def test_criterion_4a_baseline_throughput_plateau():
    sweep = SweepSpec(variable="p0_dbm", grid=(0.0,), schemes=(Scheme.CNRR,),
                      metrics=("throughput",))
    rows = _throughput_rows(T1, sweep)
    plateau = rows[0].mean
    assert 0.11 * 0.9 <= plateau <= 0.11 * 1.1


def _best_over_patterns(scheme, hops):
    topology = NetworkTopology(hop_distances=(200.0,) * hops,
                               disk_radii=(100.0,) * hops,
                               subarea_counts=(1,) * hops,
                               density_active=1e-2)
    patterns = tuple(itertools.product((1, 2, 3), repeat=hops))
    sweep = SweepSpec(variable="subarea_counts", grid=patterns,
                      schemes=(scheme,), metrics=("throughput",))
    return max(row.mean for row in _throughput_rows(topology, sweep))


def test_criterion_4b_node_scaling_com():
    best3 = _best_over_patterns(Scheme.TCOM, 2)
    best4 = _best_over_patterns(Scheme.TCOM, 3)
    drop = 100.0 * (1.0 - best4 / best3)
    assert 1.50 * 0.9 <= best3 <= 1.50 * 1.1
    assert 1.11 * 0.9 <= best4 <= 1.11 * 1.1
    assert 23.0 <= drop <= 29.0


def test_criterion_4b_node_scaling_qom():
    misses = []
    for scheme in (Scheme.TQOM, Scheme.PQOM):
        best3 = _best_over_patterns(scheme, 2)
        best4 = _best_over_patterns(scheme, 3)
        drop = 100.0 * (1.0 - best4 / best3)
        for label, value, lo, hi in (
                ("three-node peak", best3, 0.88 * 0.9, 0.88 * 1.1),
                ("four-node peak", best4, 0.64 * 0.9, 0.64 * 1.1),
                ("relative drop %", drop, 24.0, 30.0)):
            if not lo <= value <= hi:
                misses.append(f"{scheme.value} {label} {value:.4f} "
                              f"outside [{lo:.3f}, {hi:.3f}]")
    # pinned reference values; the four-node level and the drop are
    # known-unreachable under the as-printed propagation constant.
    # See tests/RED_ANCHORS.md.
    assert not misses, "\n".join(misses)


def test_criterion_4c_harvesting_share_tradeoff():
    sweep = SweepSpec(variable="rho", grid=(0.0, 0.4),
                      schemes=(Scheme.TCOM, Scheme.TQOM),
                      metrics=("throughput",))
    rows = _throughput_rows(T2, sweep)
    value = {(row.value, row.scheme): row.mean for row in rows}
    tqom0, tqom4 = value[("0.0", "tqom")], value[("0.4", "tqom")]
    tcom0, tcom4 = value[("0.0", "tcom")], value[("0.4", "tcom")]
    assert 0.86 * 0.9 <= tqom0 <= 0.86 * 1.1
    assert 1.12 * 0.9 <= tcom0 <= 1.12 * 1.1
    misses = []
    if not 0.45 * 0.9 <= tqom4 <= 0.45 * 1.1:
        misses.append(f"tqom at rho=0.4: {tqom4:.4f} outside 0.45 +/- 10%")
    flat = 100.0 * (1.0 - tcom4 / tcom0)
    if flat > 10.0:
        misses.append(f"tcom decays {flat:.1f}% over rho 0..0.4, "
                      "expected nearly flat (<= 10%)")
    # pinned reference values; known-unreachable under the as-printed
    # propagation constant.  See tests/RED_ANCHORS.md.
    assert not misses, "\n".join(misses)


def test_criterion_4d_peak_energy_efficiency_gain():
    peak = -math.inf
    sweep = SweepSpec(variable="rho", grid=(0.05, 0.25, 0.5, 0.75, 0.95),
                      schemes=(Scheme.TQOM,), metrics=("eed",))
    for p0_dbm in (-30.0, -20.0, -10.0, 0.0, 10.0):
        config = RunConfig(topology=T1, sweep=sweep, p0_dbm=p0_dbm,
                           fit_cache=FIT_CACHE)
        result = run_sweep(config, source="analytic")
        assert not result.failures, result.failures
        peak = max(peak, max(row.mean for row in result.rows))
    # pinned reference value, 2.5 Gbit/Joule within a factor of 1.5;
    # known-unreachable under the as-printed propagation constant.
    # See tests/RED_ANCHORS.md.
    assert 2.5e9 / 1.5 <= peak <= 2.5e9 * 1.5, f"peak {peak:.4g}"


def test_criterion_5_diversity_order():
    p0_grid = tuple(np.arange(20.0, 40.1, 2.5))
    reference = build_policy(Scheme.TCOM, 4, 0.1)

    def slope(scheme, selector, rho):
        policy = build_policy(scheme, 4, rho)
        plan = default_plan(scheme, T1, reference)
        ops = tuple(
            analytics.SlotMarginals(
                Scenario(scheme=scheme, topology=T1, policy=policy,
                         budget=_budget(p), plan=plan),
                lambda t: FIT100).outage(selector)
            for p in p0_grid)
        return diversity_order_estimate(p0_grid, ops)

    destination, served, nearest = (
        ("e2e_destination",), ("e2e_device", 3, 1), ("e2e_device", 3, None))
    # without harvesting every chain is supply-powered and the unit
    # slope is clean across the window
    assert abs(slope(Scheme.COM_NOEH, destination, 0.0) - 1.0) <= 0.15
    assert abs(slope(Scheme.COM_NOEH, served, 0.0) - 1.0) <= 0.15
    assert abs(slope(Scheme.QOM_NOEH, nearest, 0.0) - 1.0) <= 0.15

    misses = []
    for label, value in (
            ("destination", slope(Scheme.TCOM, destination, 0.1)),
            ("served device", slope(Scheme.TCOM, served, 0.1)),
            ("nearest device", slope(Scheme.TQOM, nearest, 0.1))):
        if not 0.85 <= value <= 1.15:
            misses.append(f"{label} slope {value:.4f} outside 1 +/- 0.15")
    # pinned reference window at the default harvesting level; the
    # harvested power chains are still outside their linear region at
    # +40 dBm under the as-printed propagation constant, so these stay
    # red.  See tests/RED_ANCHORS.md.
    assert not misses, "\n".join(misses)


def test_criterion_6_property_suites():
    # 1000 randomized draws: range and monotonicity of every gain law
    rng = as_generator(6021)
    policy_b = uniform_policy("BTEH", 4, 0.3)
    policy_p = uniform_policy("BPEH", 4, 0.3)
    budget = _budget(0.0)
    # one memo across the draws: a hit is the very float a miss computes
    memo = analytics.KernelMemo()
    for _ in range(1000):
        t = int(rng.integers(1, 4))
        policy = policy_b if rng.random() < 0.5 else policy_p
        lo, hi = np.sort(10.0 ** rng.uniform(-6.0, 3.0, size=2))
        for pair in (
                (oracles.cdf_X(lo, t, T1, policy, budget, memo=memo),
                 oracles.cdf_X(hi, t, T1, policy, budget, memo=memo)),
                (oracles.cdf_Y(lo, t, 1, T1, policy, budget, memo=memo),
                 oracles.cdf_Y(hi, t, 1, T1, policy, budget, memo=memo)),
                (oracles.cdf_Z(lo, t, T1, policy, budget, FIT100, memo=memo),
                 oracles.cdf_Z(hi, t, T1, policy, budget, FIT100,
                               memo=memo))):
            assert 0.0 <= pair[0] <= pair[1] <= 1.0 + 1e-12

    # total-probability closure, exact
    for rho in (0.1, 0.3, 0.7777, 0.95):
        policy = uniform_policy("BTEH", 4, rho)
        for j in (2, 3):
            assert policy.rho0(j) + policy.rho1(j) == 1.0
    for lam, radius in ((1e-2, 100.0), (1e-3, 25.0), (3.3e-2, 77.0)):
        ln_null = log_null_probability(lam, radius)
        assert -math.expm1(ln_null) + math.exp(ln_null) == 1.0

    # MRTR boundary: outage climbs continuously to one at the ceiling
    policy = build_policy(Scheme.COM_NOEH, 4, 0.0)
    plan = default_allocation(T1, policy)
    ceiling = mrtr(plan, policy, "relay")
    last = 0.0
    for eps in (1e-2, 1e-4, 1e-6, 1e-8, 0.0):
        harder = dataclasses.replace(plan, relay_rate=ceiling * (1.0 - eps))
        op = analytics.SlotMarginals(
            Scenario(scheme=Scheme.COM_NOEH, topology=T1, policy=policy,
                     budget=budget, plan=harder)).outage(("device", 2, 2))
        assert op >= last
        last = op
    assert last == 1.0

    # closed-form power chain equals the recursion on 10^4 realizations
    for arch in ("BTEH", "BPEH"):
        policy = uniform_policy(arch, 5, 0.5, 0.3, 0.6, 0.9)
        for _ in range(5000):
            real = sample_eh_process(policy, rng)
            gains = rng.exponential(1e-5, size=3)
            for t in (2, 4):
                assert transmit_power(t, real, gains, policy, budget) \
                    == transmit_power_recursive(t, real, gains, policy,
                                                budget)

    # deterministic replay: the tally pass is a pure function of
    # (scenario, trials, seed) however the blocks are scheduled
    scenario = _scenario(Scheme.TCOM, 0.0)
    once = montecarlo.simulate(scenario, 50_000, 9)
    again = montecarlo.simulate(scenario, 50_000, 9)
    assert once == again
