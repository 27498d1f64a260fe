"""Harvesting policy and transmit-power chain tests."""

import numpy as np
import pytest

from nomarelay.channel import LinkBudget, noise_power_w
from nomarelay.power import EhPolicy, omega_factor, uniform_policy
from oracles import (
    EhRealization,
    as_generator,
    sample_eh_process,
    transmit_power,
    transmit_power_recursive,
)

BUDGET = LinkBudget(P0=1e-3, sigma2=noise_power_w(1e7))


def test_policy_forces_endpoint_rho_to_zero():
    policy = EhPolicy(architecture="BTEH", rho=(0.7, 0.1, 0.1, 0.5))
    assert policy.rho == (0.0, 0.1, 0.1, 0.0)
    assert policy.rho1(1) == 0.0
    assert policy.rho1(4) == 0.0
    assert policy.rho0(2) == pytest.approx(0.9)


def test_uniform_policy_layout():
    policy = uniform_policy("BPEH", 5, 0.3)
    assert policy.rho == (0.0, 0.3, 0.3, 0.3, 0.0)
    assert policy.node_count == 5
    assert policy.is_harvesting
    assert not uniform_policy("BPEH", 4, 0.0).is_harvesting


def test_policy_validation():
    with pytest.raises(ValueError):
        EhPolicy(architecture="TSEH", rho=(0, 0.1, 0))
    with pytest.raises(ValueError):
        EhPolicy(architecture="BTEH", rho=(0, 1.2, 0))
    with pytest.raises(ValueError):
        EhPolicy(architecture="BTEH", rho=(0, 0.1, 0), alpha=1.0)
    with pytest.raises(ValueError):
        EhPolicy(architecture="BPEH", rho=(0, 0.1, 0), beta=1.0)
    with pytest.raises(ValueError):
        EhPolicy(architecture="BTEH", rho=(0, 0.1, 0), eta=1.5)


def test_omega_factor_values():
    bteh = uniform_policy("BTEH", 4, 0.1, alpha=0.2, eta=1.0)
    assert omega_factor(2, bteh, 4) == pytest.approx(0.75, rel=1e-12)
    bpeh = uniform_policy("BPEH", 4, 0.1, beta=0.8, eta=1.0)
    assert omega_factor(2, bpeh, 4) == pytest.approx(0.8, rel=1e-12)
    dead = uniform_policy("BTEH", 4, 0.1, alpha=0.2, eta=0.0)
    assert omega_factor(2, dead, 4) == 0.0


def test_sample_eh_process_degenerate_cases():
    never = uniform_policy("BTEH", 4, 0.0)
    always = uniform_policy("BTEH", 4, 1.0)
    for seed in range(20):
        assert sample_eh_process(never, seed).indicators == (0, 0, 0)
        drawn = sample_eh_process(always, seed).indicators
        # interior nodes always harvest; the destination stays off
        assert drawn == (1, 1, 0)


def test_sample_eh_process_frequency():
    policy = uniform_policy("BTEH", 4, 0.1)
    rng = as_generator(606)
    draws = 100_000
    ones = sum(sample_eh_process(policy, rng).indicator(2) for _ in range(draws))
    sigma = np.sqrt(0.1 * 0.9 / draws)
    assert abs(ones / draws - 0.1) < 3 * sigma


def test_transmit_power_no_harvest_branch():
    policy = uniform_policy("BTEH", 4, 0.5)
    real = EhRealization(indicators=(0, 0, 0))
    for t in (1, 2, 3):
        assert transmit_power(t, real, [1e-6, 1e-6], policy, BUDGET) == BUDGET.P0


def test_transmit_power_two_hop_chain():
    # both interior nodes harvest: P3 = P0 (0.75e-6)^2
    policy = uniform_policy("BTEH", 4, 0.5, alpha=0.2, eta=1.0)
    real = EhRealization(indicators=(1, 1, 0))
    p3 = transmit_power(3, real, [1e-6, 1e-6], policy, BUDGET)
    assert p3 == pytest.approx(BUDGET.P0 * (0.75e-6) ** 2, rel=1e-12)
    # node 2 alone: one factor
    p2 = transmit_power(2, real, [1e-6, 1e-6], policy, BUDGET)
    assert p2 == pytest.approx(BUDGET.P0 * 0.75e-6, rel=1e-12)


def test_transmit_power_chain_restarts_after_zero():
    policy = uniform_policy("BPEH", 5, 0.5, beta=0.8, eta=1.0)
    real = EhRealization(indicators=(1, 0, 1, 0))
    gains = [2.0, 3.0, 5.0]
    # node 3 does not harvest, so node 4's chain starts there
    assert transmit_power(4, real, gains, policy, BUDGET) == pytest.approx(
        BUDGET.P0 * 0.8 * 5.0, rel=1e-12)


def test_transmit_power_matches_recursion():
    rng = as_generator(12021)
    for arch in ("BTEH", "BPEH"):
        policy = uniform_policy(arch, 5, 0.5, alpha=0.3, beta=0.6, eta=0.9)
        for _ in range(2_500):
            real = sample_eh_process(policy, rng)
            gains = rng.exponential(1e-5, size=3)
            for t in (1, 2, 3, 4):
                closed = transmit_power(t, real, gains, policy, BUDGET)
                recur = transmit_power_recursive(t, real, gains, policy, BUDGET)
                assert closed == recur
                assert closed > 0.0


def test_transmit_power_marginal_supply_probability():
    policy = uniform_policy("BTEH", 4, 0.25)
    rng = as_generator(9)
    draws = 40_000
    at_supply = 0
    for _ in range(draws):
        real = sample_eh_process(policy, rng)
        gains = rng.exponential(1e-5, size=2)
        if transmit_power(3, real, gains, policy, BUDGET) == BUDGET.P0:
            at_supply += 1
    sigma = np.sqrt(0.75 * 0.25 / draws)
    assert abs(at_supply / draws - 0.75) < 3 * sigma


def test_power_decays_along_all_harvesting_chain():
    # with every factor Omega*gain < 1 the chain power shrinks hop by hop
    policy = uniform_policy("BTEH", 5, 1.0, alpha=0.2, eta=1.0)
    real = EhRealization(indicators=(1, 1, 1, 0))
    gains = [0.9, 0.5, 0.2]
    powers = [transmit_power(t, real, gains, policy, BUDGET) for t in (1, 2, 3, 4)]
    assert all(p2 < p1 for p1, p2 in zip(powers, powers[1:]))


def test_transmit_power_validation():
    policy = uniform_policy("BTEH", 4, 0.5)
    real = EhRealization(indicators=(1, 0, 0))
    with pytest.raises(ValueError):
        transmit_power(4, real, [1.0, 1.0], policy, BUDGET)
    with pytest.raises(ValueError):
        transmit_power(2, real, [-1.0], policy, BUDGET)
    with pytest.raises(ValueError):
        EhRealization(indicators=(0, 2, 0))
