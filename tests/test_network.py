"""Scheme taxonomy, chain topology, and scenario validation tests."""

import dataclasses

import pytest

from nomarelay.analytics import baseline_plan, default_allocation
from nomarelay.channel import LinkBudget, noise_power_w
from nomarelay.network import NetworkTopology, Scenario, Scheme, build_policy

T1 = NetworkTopology(hop_distances=(200.0, 200.0, 200.0),
                     disk_radii=(100.0, 100.0, 100.0),
                     subarea_counts=(3, 2, 1),
                     density_active=1e-2)
BUDGET = LinkBudget(P0=1e-3, sigma2=noise_power_w(1e7))


def test_scheme_taxonomy():
    assert Scheme.TCOM.pairing == "com" and Scheme.TCOM.harvesting == "BTEH"
    assert Scheme.PQOM.pairing == "qom" and Scheme.PQOM.harvesting == "BPEH"
    assert Scheme.COM_NOEH.harvesting is None
    assert Scheme.CNRR.pairing is None


def test_scheme_parse_accepts_labels_case_insensitively():
    assert Scheme.parse("TCoM") is Scheme.TCOM
    assert Scheme.parse(" cnrr ") is Scheme.CNRR
    with pytest.raises(ValueError, match="unknown scheme"):
        Scheme.parse("tdm")


def test_topology_counts_and_disk():
    assert T1.hop_count == 3
    assert T1.node_count == 4
    disk = T1.disk(2)
    assert disk.radius == 100.0
    assert disk.subarea_count == 2
    with pytest.raises(ValueError):
        T1.disk(4)


def test_topology_normalizes_field_types():
    topo = NetworkTopology(hop_distances=[200, 100], disk_radii=[100, 50],
                           subarea_counts=[3.0, 2.0], density_active=1e-2)
    assert topo.hop_distances == (200.0, 100.0)
    assert topo.subarea_counts == (3, 2)


def test_topology_validation():
    with pytest.raises(ValueError):
        NetworkTopology((), (), (), 1e-2)
    with pytest.raises(ValueError, match="align"):
        NetworkTopology((200.0,), (100.0, 50.0), (1,), 1e-2)
    with pytest.raises(ValueError):
        NetworkTopology((200.0,), (-1.0,), (1,), 1e-2)
    with pytest.raises(ValueError):
        NetworkTopology((200.0,), (100.0,), (0,), 1e-2)
    with pytest.raises(ValueError):
        NetworkTopology((200.0,), (100.0,), (1,), -1e-2)


def test_without_devices_only_clears_activity():
    bare = T1.without_devices()
    assert bare.density_active == 0.0
    assert bare.hop_distances == T1.hop_distances
    assert (bare.disk_radii, bare.subarea_counts) \
        == (T1.disk_radii, T1.subarea_counts)


def test_build_policy_matches_scheme():
    assert build_policy(Scheme.TCOM, 4, 0.1).architecture == "BTEH"
    assert build_policy(Scheme.PQOM, 4, 0.1).architecture == "BPEH"
    noeh = build_policy(Scheme.COM_NOEH, 4, 0.1)
    assert not noeh.is_harvesting
    assert noeh.rho == (0.0, 0.0, 0.0, 0.0)


def _scenario(scheme, rho=0.1, topology=T1):
    policy = build_policy(scheme, topology.node_count, rho)
    plan = default_allocation(topology, policy)
    return Scenario(scheme=scheme, topology=topology, policy=policy,
                    budget=BUDGET, plan=plan)


def test_scenario_accepts_consistent_bundle():
    s = _scenario(Scheme.TCOM)
    assert s.policy.node_count == 4


def test_scenario_rejects_node_count_mismatch():
    policy = build_policy(Scheme.TCOM, 5, 0.1)
    plan = default_allocation(T1, build_policy(Scheme.TCOM, 4, 0.1))
    with pytest.raises(ValueError, match="policy covers"):
        Scenario(scheme=Scheme.TCOM, topology=T1, policy=policy,
                 budget=BUDGET, plan=plan)


def test_scenario_rejects_architecture_mismatch():
    policy = build_policy(Scheme.PCOM, 4, 0.1)
    plan = default_allocation(T1, policy)
    with pytest.raises(ValueError, match="requires BTEH"):
        Scenario(scheme=Scheme.TCOM, topology=T1, policy=policy,
                 budget=BUDGET, plan=plan)


def test_scenario_rejects_harvesting_for_noeh_scheme():
    policy = build_policy(Scheme.TCOM, 4, 0.1)
    plan = default_allocation(T1, policy)
    with pytest.raises(ValueError, match="disallows harvesting"):
        Scenario(scheme=Scheme.COM_NOEH, topology=T1, policy=policy,
                 budget=BUDGET, plan=plan)


def test_scenario_rejects_a_plan_that_miscounts_devices():
    # a plan lists K_t devices per com slot, one per qom slot, none for
    # cnrr, and one entry per hop
    policy = build_policy(Scheme.TCOM, 4, 0.1)
    single = dataclasses.replace(T1, subarea_counts=(1, 1, 1))
    com, qom = default_allocation(T1, policy), default_allocation(single, policy)
    bare = baseline_plan(com, 3)
    short = dataclasses.replace(com, device_shares=com.device_shares[:2],
                                device_rates=com.device_rates[:2])
    rejected = [(Scheme.TCOM, single, com, r"\(3, 2, 1\).* \(1, 1, 1\)"),
                (Scheme.TQOM, T1, com, r"\(3, 2, 1\).* \(1, 1, 1\)"),
                (Scheme.TCOM, T1, qom, r"\(1, 1, 1\).* \(3, 2, 1\)"),
                (Scheme.CNRR, T1.without_devices(), com,
                 r"\(3, 2, 1\).* \(0, 0, 0\)"),
                (Scheme.TCOM, T1, short, r"\(3, 2\).* \(3, 2, 1\)"),
                (Scheme.TQOM, T1, bare, r"\(0, 0, 0\).* \(1, 1, 1\)")]
    for scheme, topology, plan, message in rejected:
        with pytest.raises(ValueError, match=message):
            Scenario(scheme=scheme, topology=topology,
                     policy=build_policy(scheme, 4, 0.1), budget=BUDGET,
                     plan=plan)
    for scheme, topology, plan in ((Scheme.TCOM, single, qom),
                                   (Scheme.TQOM, T1, qom),
                                   (Scheme.CNRR, T1.without_devices(), bare)):
        Scenario(scheme=scheme, topology=topology,
                 policy=build_policy(scheme, 4, 0.1), budget=BUDGET, plan=plan)
