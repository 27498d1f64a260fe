"""Simulator tests: determinism, oracles against the closed-form layer.

The simulator resolves exact joint events, so slot-level marginals must
sit inside binomial confidence bands around the closed forms; composed
events are compared separately in the acceptance suite where the product
approximation's documented envelope applies.
"""

import dataclasses
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomarelay import analytics, montecarlo, power
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


# a disk active with probability 0.957, so activity is drawn and the hop
# decodes both chains
PATCHY = dataclasses.replace(T1, density_active=1e-4)


BARE = Scenario(scheme=Scheme.CNRR, topology=T1.without_devices(),
                policy=build_policy(Scheme.CNRR, 4, 0.0), budget=BUDGET,
                plan=analytics.baseline_plan(TCOM.plan, 3))


# another path-loss law is a device group of its own: it redraws the same
# device geometry into its own path gains
STEEP_TCOM = dataclasses.replace(
    TCOM, budget=LinkBudget(P0=1e-3, sigma2=noise_power_w(1e7), epsilon=3.0))


# a com device is resampled into its annulus whenever the disk is active;
# a stream group mixes pairings and topologies of one node count, beside a
# chain of another
@pytest.mark.parametrize("group", [
    (TCOM, scenario(Scheme.PCOM), scenario(Scheme.COM_NOEH, rho=0.0),
     STEEP_TCOM),
    (TQOM, scenario(Scheme.PQOM), scenario(Scheme.QOM_NOEH, rho=0.0), BARE),
    (TCOM, TQOM, BARE, scenario(Scheme.PQOM, topology=PATCHY), SPARSE_COM),
], ids=["com-resample", "qom-resample", "stream"])
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


ARRAY_FIELDS = [name for name in montecarlo._Block.__slots__ if name != "n"]
# the decision rows a member's block shares with the masked route
DECISIONS = ("indicators", "active", "hop_ok", "prefix_ok", "msg_ok",
             "device_ok", "supply_units", "throughput")


def _drawn(s, b=0):
    """A full-width buffer set for ``s`` holding block ``b`` of seed 43."""
    return oracles.drawn_alone(s, montecarlo._block_rng(43, b),
                               montecarlo.BLOCK_SIZE)


def _resolved(family, buffers, n, reads=None):
    """Each member's block from one family resolve (copies), the family's
    :class:`montecarlo.FamilyStats`, and a copy of every candidate power
    row it built, by (slot, run); run 0 transmits at 1 and builds no
    row."""
    blocks, stats = oracles.family_blocks(family, buffers, n, reads)
    hops = family[0].topology.hop_count
    powers = {}
    for t in range(1, hops + 1):
        rows = buffers.take(("powers", t), (t,), n)
        for r in {r for s in family for r, _ in s.policy.runs(t)} - {0}:
            powers[t, r] = rows[r].copy()
    return blocks, stats, powers


def _pairs(got, want, name):
    """Pairs of arrays of field ``name`` of two blocks, one per row list
    entry."""
    a, b = getattr(got, name), getattr(want, name)
    if isinstance(b, list):
        assert len(a) == len(b), name
        return list(zip(a, b))
    return [(a, b)]


def _assert_same_decisions(got, want, names=DECISIONS):
    """Every decision row of a member's block equals that of ``want`` (a
    block or a masked-route block), byte for byte."""
    for name in names:
        if getattr(want, name) is None:
            assert getattr(got, name) is None, name
            continue
        for a, b in _pairs(got, want, name):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


def _runs_taken(s, indicators, t):
    """The harvest run node t transmits on in each trial."""
    run = np.zeros(indicators.shape[1], dtype=int)
    alive = np.ones(indicators.shape[1], dtype=bool)
    for r in range(t - 1):
        alive &= indicators[t - r - 2]
        run += alive
    return run


def _assert_candidate_powers(s, powers, masked):
    """The masked route's power chain of ``s`` is, trial by trial, the
    candidate power row of the run its indicators give."""
    for t in range(1, s.topology.hop_count + 1):
        run = _runs_taken(s, masked.indicators, t)
        picked = np.ones_like(masked.powers[t - 1])
        for r in set(np.unique(run)) - {0}:
            picked[run == r] = powers[t, r][run == r]
        assert picked.tobytes() == masked.powers[t - 1].tobytes(), (s, t)


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_prefix_resolve_equals_full_width_prefix(pairing):
    group = PAIRINGS[pairing]
    # a resolve overwrites the arrays of the last one into the same set, so
    # the full width is resolved into a second set from the same stream
    draws, whole = _drawn(group[0]), _drawn(group[0])
    for s in group:
        blocks, stats, powers = _resolved([s], whole, montecarlo.BLOCK_SIZE)
        full = blocks[s]
        masked_full = oracles.masked_resolve(s, whole, montecarlo.BLOCK_SIZE)
        for n in PREFIX_WIDTHS:
            blocks, part_stats, part_powers = _resolved([s], draws, n)
            part = blocks[s]
            assert part.n == n
            # a prefix holds no more band trials; whole-row tests are per
            # row, and so are the candidate power and decision rows
            assert part_stats.guarded <= stats.guarded
            assert (part_stats.whole_row, part_stats.power_rows,
                    part_stats.decision_rows) == (stats.whole_row,
                                                  stats.power_rows,
                                                  stats.decision_rows)
            for name in ARRAY_FIELDS:
                for a, b in _pairs(part, full, name):
                    assert np.array_equal(a, b[..., :n]), (s.scheme, n, name)
            for key, row in part_powers.items():
                assert np.array_equal(row, powers[key][:n]), (s.scheme, n)
            # the masked route's power chain and SNRs are prefixes too
            masked = oracles.masked_resolve(s, draws, n)
            for name in ("powers", "hop_snr", "device_snr"):
                for a, b in _pairs(masked, masked_full, name):
                    assert np.array_equal(a, b[..., :n]), (s.scheme, n, name)
            _assert_same_decisions(part, masked)
            _assert_candidate_powers(s, part_powers, masked)
    # every member reads the path gains of the one fill its device group
    # drew, sliced
    assert {montecarlo._device_key(s) for s in group} == {draws.devices}


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
def test_credited_device_messages_nest_in_earlier_hops(pairing):
    # a credited device message implies its transmitter received it, which
    # implies every earlier hop succeeded
    group = PAIRINGS[pairing]
    draws = _drawn(group[0])
    credited = 0
    for s in group:
        for n in PREFIX_WIDTHS:
            block = oracles.family_blocks([s], draws, n)[0][s]
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
# split), and under com two more path-loss laws, each its own device group;
# full, partial and full widths in turn
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


def _drawn_harvests(buffers):
    """The rows of ``u_eh`` a fill draws: no resolve reads the others."""
    return buffers.u_eh[~np.array(buffers.certain_eh, dtype=bool)]


def _draw_arrays(buffers):
    return [buffers.u_eh, *buffers.activity.values(), buffers.hop_fades,
            *buffers.device_gain, *buffers.device_fade]


def _read_draws(buffers):
    """The arrays of a fill that a resolve reads."""
    return [_drawn_harvests(buffers), *_draw_arrays(buffers)[1:]]


@pytest.mark.parametrize("pairing", sorted(REUSE_GROUPS))
def test_reused_draw_set_and_workspace_equal_fresh_arrays(pairing):
    group = REUSE_GROUPS[pairing]
    width = montecarlo.BLOCK_SIZE
    reused = montecarlo._Buffers(group, width)
    for b, n in enumerate(REUSE_WIDTHS):
        _spoil(_draw_arrays(reused) + list(reused.arrays.values()))
        # drawn as a plan draws a block its runs read as far as n trials,
        # with one device fill per device group
        rng = montecarlo._block_rng(43, b)
        montecarlo._draw(reused, rng, n)
        state = rng.bit_generator.state
        fills = 0
        for s in group:
            if reused.devices != montecarlo._device_key(s):
                rng.bit_generator.state = state
                montecarlo._draw_devices(reused, rng, s, n)
                fills += 1
                for got, want in zip(_read_draws(reused),
                                     _read_draws(_drawn(s, b))):
                    assert got[..., :n].tobytes() \
                        == want[..., :n].tobytes(), (b, n, s.scheme)
            _spoil(reused.arrays.values())
            fresh = _drawn(s, b)
            with np.errstate(over="ignore"):
                got, got_stats, got_powers = _resolved([s], reused, n)
                want, want_stats, want_powers = _resolved([s], fresh, n)
                masked = oracles.masked_resolve(s, fresh, n)
            got, want = got[s], want[s]
            assert (got.n, got_stats) == (n, want_stats)
            _assert_same_decisions(got, want, ARRAY_FIELDS)
            _assert_same_decisions(got, masked)
            assert got_powers.keys() == want_powers.keys()
            for key, row in got_powers.items():
                assert row.tobytes() == want_powers[key].tobytes(), key
            _assert_candidate_powers(s, got_powers, masked)
            if s is HOT_TCOM:
                # the run of two harvests overflows; the masked route
                # gates it through np.where
                assert np.isinf(got_powers[3, 2]).any()
                assert np.isinf(masked.powers[2]).any()
        # TCOM and PCOM share a fill; HOT_TCOM and STEEP_TCOM each draw one
        assert fills == {"com": 3, "qom": 1, "bare": 1}[pairing]
    # the buffer set is allocated once, at full width
    assert reused.nbytes % width == 0
    assert all(a.shape[-1] == width
               for a in _draw_arrays(reused) + list(reused.arrays.values()))


def test_each_draw_group_frees_its_buffers_before_the_next(monkeypatch):
    # a stream group's buffer set, and every block's views of it, are gone
    # before the next group builds its own, so two groups' buffers never
    # coexist at peak memory
    alive, built = [], []
    init, take = montecarlo._Buffers.__init__, montecarlo._Buffers.take
    resolve = montecarlo._resolve

    def watch(arrays):
        alive.extend(weakref.ref(a) for a in arrays)

    def build(self, scenarios, width):
        assert not [ref for ref in alive if ref() is not None], len(built)
        scenarios = list(scenarios)
        init(self, scenarios, width)
        built.append((scenarios[0].topology.node_count,
                      sorted(s.scheme.pairing or "bare" for s in scenarios)))
        watch(_draw_arrays(self))

    def take_watched(self, *args, **kw):
        view = take(self, *args, **kw)
        watch([view, view.base])
        return view

    def resolve_watched(family, buffers, n, reads, stats):
        for s, block in resolve(family, buffers, n, reads, stats):
            watch(a for name in ARRAY_FIELDS for a in (
                getattr(block, name) if name == "device_ok"
                else [getattr(block, name)]))
            yield s, block

    monkeypatch.setattr(montecarlo._Buffers, "__init__", build)
    monkeypatch.setattr(montecarlo._Buffers, "take", take_watched)
    monkeypatch.setattr(montecarlo, "_resolve", resolve_watched)
    # two seeds of 4-node chains, then two of a 3-node chain: one stream
    # group per (seed, node count), each sharing its set among pairings
    runs = [(s, seed, n)
            for s in (TCOM, scenario(Scheme.PCOM), TQOM, BARE, SPARSE_COM)
            for seed in (7, 8) for n in (1_000, 2_500)]
    plan = simulate_plan(runs)
    assert not [run for run in runs if isinstance(plan[run], Exception)]
    assert built == [(4, ["bare", "com", "com", "qom"])] * 2 \
        + [(3, ["com"])] * 2
    assert alive and not [ref for ref in alive if ref() is not None]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, allow_infinity=False),
                          st.booleans()), min_size=1, max_size=64))
def test_gate_equals_where_on_finite_non_negative_rows(cells):
    x = np.array([value for value, _ in cells])
    mask = np.array([bit for _, bit in cells])
    want = np.where(mask, x, 1.0)
    # the gate overwrites its row and hands it back
    assert oracles._gate(x, mask) is x
    assert x.tobytes() == want.tobytes()


def test_gate_keeps_where_on_a_row_that_is_not_finite():
    x = np.array([np.inf, np.inf, np.nan, np.nan, 2.0, 0.0])
    mask = np.array([True, False, True, False, True, False])
    # the masked product alone turns inf * 0 into NaN
    with np.errstate(invalid="ignore"):
        assert np.isnan((x * mask + ~mask)[1])
    want = np.where(mask, x, 1.0)
    assert oracles._gate(x, mask).tobytes() == want.tobytes()


def test_failed_run_frees_its_buffers(monkeypatch):
    # a failure is kept without the frames that raised it, which would
    # hold its group's buffer set for as long as the plan's result lives
    alive = []
    resolve = montecarlo._resolve

    def refuse_pcom(family, buffers, n, *reads):
        alive.extend(weakref.ref(a) for a in _draw_arrays(buffers)
                     + list(buffers.arrays.values()))
        if any(s.scheme is Scheme.PCOM for s in family):
            raise FloatingPointError("refused")
        return resolve(family, buffers, n, *reads)

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


def test_plan_tallies_what_each_run_reads():
    full, stats = (scenario(Scheme.COM_NOEH, rho=0.0), 41, 30_000), []
    plan = simulate_plan([*DEMAND, full], DEMAND, stats)
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
    # one stream group at seed 41 draws both blocks once, block 1 as far
    # as the 100,000-trial runs read it: 34,464 trials
    (group,) = stats
    assert (group.seed, group.nodes, group.blocks, group.trials) \
        == (41, 4, 2, 100_000)
    # STEEP_TCOM's path-loss law makes a com device group of its own, which
    # only its 30,000-trial run reads: block 0, decoding devices
    com, steep, qom, bare = group.devices
    assert [(g.pairing, g.topology) for g in group.devices] \
        == [("com", 1), ("com", 1), ("qom", 1), ("bare", 2)]
    assert (steep.blocks, steep.hop_only, steep.undecoded) == (1, 0, 0)
    assert (com.blocks, com.hop_only) == (2, 1)
    assert com.undecoded == 34_464
    assert (qom.blocks, qom.hop_only) == (2, 0)
    assert qom.undecoded == 0
    assert bare.undecoded == 34_464


def test_failed_family_adds_no_counters(monkeypatch):
    # a family whose resolve raises fails its members and, like any family
    # whose every member failed, adds nothing to its device group's
    # record; the other device group and the stream group are counted as
    # in a clean run
    runs = [(s, 41, 30_000) for s in (TCOM, PCOM, TQOM)]
    clean_stats, failed_stats = [], []
    clean = simulate_plan(runs, stats=clean_stats)
    resolve = montecarlo._resolve

    def failing(family, buffers, n, reads, stats):
        if family[0].scheme is Scheme.PCOM:
            stats.power_rows += 1
            raise RuntimeError("planted failure")
        yield from resolve(family, buffers, n, reads, stats)

    monkeypatch.setattr(montecarlo, "_resolve", failing)
    plan = simulate_plan(runs, stats=failed_stats)
    assert isinstance(plan[PCOM, 41, 30_000], RuntimeError)
    for s in (TCOM, TQOM):
        assert plan[s, 41, 30_000] == clean[s, 41, 30_000]
    (want,), (got,) = clean_stats, failed_stats
    want, got = oracles.without_seconds(want), oracles.without_seconds(got)
    assert (got.seed, got.nodes, got.blocks, got.trials, got.skipped) \
        == (want.seed, want.nodes, want.blocks, want.trials, want.skipped)
    assert got.nbytes > 0
    (com, qom), (clean_com, clean_qom) = got.devices, want.devices
    assert (com.pairing, qom.pairing) == ("com", "qom")
    assert qom == clean_qom
    assert com.families == {"tcom": clean_com.families["tcom"]}
    # a device group's trials resolved are the sum over its families
    trials = [sum(f.trials for f in g.families.values())
              for g in (com, clean_com)]
    assert trials[0] == trials[1] - clean_com.families["pcom"].trials
    assert dataclasses.replace(com, families={}) \
        == dataclasses.replace(clean_com, families={})


@pytest.mark.parametrize("pairing", ["com", "qom"])
def test_block_drawn_without_devices_keeps_its_other_draws(pairing):
    s = PAIRINGS[pairing][0]
    width = montecarlo.BLOCK_SIZE
    full, part = _drawn(s, 1), montecarlo._Buffers([s], width)
    _spoil(_draw_arrays(part))
    montecarlo._draw(part, montecarlo._block_rng(43, 1), width)
    for name in ("u_eh", "hop_fades"):
        assert getattr(part, name).tobytes() == getattr(full, name).tobytes()
    assert part.active[s.topology].tobytes() \
        == full.active[s.topology].tobytes()
    # the device rows keep their stale values, and no resolve reads them
    assert all(np.isnan(a).all() for a in part.device_gain + part.device_fade)
    failure = oracles.family_blocks([s], part, width)[0][s]
    assert isinstance(failure, RuntimeError)
    assert "no device geometry" in str(failure)
    # read for a hop event and the supply power: no device is decoded
    got = oracles.family_blocks([s], part, width,
                                [{("hop", 1), ("supply_power",)}])[0][s]
    want = oracles.family_blocks([s], full, width)[0][s]
    for name in ARRAY_FIELDS:
        if name in ("device_ok", "throughput"):
            assert getattr(got, name) is None, name
        else:
            assert getattr(got, name).tobytes() \
                == getattr(want, name).tobytes(), name
    # the next block draws from its own stream, unchanged
    rng = montecarlo._block_rng(43, 2)
    montecarlo._draw(part, rng, width)
    montecarlo._draw_devices(part, rng, s, width)
    for got, want in zip(_read_draws(part), _read_draws(_drawn(s, 2))):
        assert got.tobytes() == want.tobytes()


def test_a_fill_serves_only_its_own_path_loss_law():
    # the device rows of a fill hold the path gains of one law: reading
    # another law's devices from them raises in both routes, while its hop
    # events, which read no device row, resolve as from its own fill
    assert montecarlo._device_key(STEEP_TCOM) != montecarlo._device_key(TCOM)
    width = 4_096
    drawn, own = (oracles.drawn_alone(s, montecarlo._block_rng(43, 0), width)
                  for s in (TCOM, STEEP_TCOM))
    failure = oracles.family_blocks([STEEP_TCOM], drawn, width)[0][STEEP_TCOM]
    assert isinstance(failure, RuntimeError)
    assert "no device geometry" in str(failure)
    with pytest.raises(RuntimeError, match="no device geometry"):
        oracles.masked_resolve(STEEP_TCOM, drawn, width)
    hop_reads = [{("hop", 1), ("e2e_destination",)}]
    got, want = (oracles.family_blocks([STEEP_TCOM], buffers, width,
                                       hop_reads)[0][STEEP_TCOM]
                 for buffers in (drawn, own))
    _assert_same_decisions(got, want, ARRAY_FIELDS)
    # the two fills draw the same geometry and fades into other gains
    for a, b in zip(drawn.device_fade, own.device_fade):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(drawn.device_gain, own.device_gain):
        assert not np.array_equal(a, b)


def test_a_path_loss_failure_fails_its_device_group(monkeypatch):
    # the path gains are part of a device draw, so a path-loss failure
    # fails every member of the device group in that block, a member
    # reading only hop events too; another law's device group is untouched
    hop = scenario(Scheme.TCOM, rho=0.5)
    runs = [(TCOM, 7, 2_000), (hop, 7, 3_000), (STEEP_TCOM, 7, 2_000)]
    reads = {runs[1]: {("hop", 2), ("supply_power",)}}
    want = simulate_plan(runs, reads)
    pathloss = montecarlo.pathloss_linear

    def refuse(x, budget, out=None):
        if out is not None and budget == TCOM.budget:
            raise FloatingPointError("refused")
        return pathloss(x, budget, out=out)

    monkeypatch.setattr(montecarlo, "pathloss_linear", refuse)
    got = simulate_plan(runs, reads)
    assert all(isinstance(got[run], FloatingPointError) for run in runs[:2])
    assert got[runs[2]] == want[runs[2]]


@pytest.fixture(scope="module")
def shipped_groups():
    """One scenario of every device group a shipped sweep simulates."""
    groups = {}
    for s in oracles.shipped_scenarios():
        groups.setdefault((s.scheme.pairing, s.topology), s)
    return list(groups.values())


def _compare_draws(s, width, devices, b, trials=None):
    """The uniform rows ``_draw`` skipped drawing block ``b`` of seed 43
    for ``s`` alone as far as ``trials`` (the whole ``width`` by default),
    and the arrays of its fill whose first ``trials`` columns differ from
    ``oracles.draw_in_full`` on the same stream."""
    trials = width if trials is None else trials
    fast = montecarlo._Buffers([s], width)
    full = montecarlo._Buffers([s], width)
    _spoil(_draw_arrays(fast))
    rng = montecarlo._block_rng(43, b)
    skipped = montecarlo._draw(fast, rng, trials)
    if devices:
        montecarlo._draw_devices(fast, rng, s, trials)
    oracles.draw_in_full(full, montecarlo._block_rng(43, b), s, devices)
    names = ["u_eh", "active", "hop_fades"]
    if devices:
        names += ["device_gain", "device_fade"]
    differ = []
    for name in names:
        got, want = getattr(fast, name), getattr(full, name)
        if name == "u_eh":
            # the full draw also fills the rows of certain relays
            got, want = _drawn_harvests(fast), _drawn_harvests(full)
        if name == "active":
            got, want = got[s.topology], want[s.topology]
        if not isinstance(got, list):
            got, want = [got], [want]
        if not all(np.array_equal(x[..., :trials], y[..., :trials])
                   for x, y in zip(got, want)):
            differ.append(name)
    return skipped, differ


def _certain_rows(s):
    """The activity rows of ``s``'s disks that are certain, each skipped."""
    return sum(-math.expm1(log_null_probability(
        s.topology.density_active, r)) in (0.0, 1.0)
        for r in s.topology.disk_radii)


def _certain_harvests(s):
    """The harvest rows of ``s``'s relays whose rho is 0 or 1, each
    skipped."""
    return sum(s.policy.rho1(j) in (0.0, 1.0)
               for j in range(2, s.topology.hop_count + 1))


def test_skipped_rows_leave_every_read_draw_unchanged(shipped_groups):
    # a skip advances the stream exactly as far as drawing the row would,
    # so at any width, a multiple of 4 or not, every draw equals the full
    # draw's
    drawn_activity = skipped_harvests = 0
    for b, s in enumerate(shipped_groups):
        certain = _certain_rows(s)
        drawn_activity += certain < s.topology.hop_count
        skipped_harvests += _certain_harvests(s)
        for width in (montecarlo.BLOCK_SIZE, 4_093, 1):
            for devices in (True, False):
                assert _compare_draws(s, width, devices, b) \
                    == (1 + certain + _certain_harvests(s), []), \
                    (s.topology, width, devices)
        # and every fill from one stream is the same
        for width in (4_093, 1):
            fills = [montecarlo._Buffers([s], width) for _ in range(2)]
            for buffers in fills:
                _spoil(_draw_arrays(buffers))
                rng = montecarlo._block_rng(43, b)
                montecarlo._draw(buffers, rng, width)
                montecarlo._draw_devices(buffers, rng, s, width)
            for one, two in zip(*map(_draw_arrays, fills)):
                assert one.tobytes() == two.tobytes(), (s.topology, width)
    # the density sweep's sparsest disks draw their activity
    # (lambda pi r^2 = pi: active with probability 0.957)
    assert drawn_activity > 0
    # the bare chain's relays never harvest
    assert skipped_harvests > 0
    assert len(shipped_groups) > 20


def test_a_group_of_certain_relays_keeps_every_tally():
    # no relay of a no-harvest group harvests, so its blocks skip both
    # relays' harvest rows, and every row read equals the full draw's;
    # beside a harvesting scheme, which draws those rows, the same run
    # tallies the same counts and moments
    twin = scenario(Scheme.COM_NOEH, rho=0.0)
    assert montecarlo._Buffers([twin], 1).certain_eh == [True, True]
    assert montecarlo._Buffers([twin, TCOM], 1).certain_eh == [False, False]
    for width in (montecarlo.BLOCK_SIZE, 4_093):
        assert _compare_draws(twin, width, True, 5) \
            == (1 + _certain_rows(twin) + 2, [])
    run = (twin, 43, 70_000)
    alone = montecarlo.simulate_plan([run])[run]
    beside = montecarlo.simulate_plan([run, (TCOM, 43, 70_000)])[run]
    assert alone.trials == 70_000 and alone.decoded
    assert alone == beside


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=3 * montecarlo.BLOCK_SIZE + 7),
       st.integers(min_value=0, max_value=2 ** 63))
def test_skip_equals_drawing_the_outputs(position, k, seed):
    # from every position of the Philox buffer, skipping k outputs leaves
    # the stream where drawing them leaves it
    rngs = []
    for _ in range(2):
        rng = np.random.Generator(np.random.Philox(seed))
        rng.bit_generator.random_raw(4)
        state = rng.bit_generator.state
        state["buffer_pos"] = position
        rng.bit_generator.state = state
        rngs.append(rng)
    montecarlo._skip(rngs[0], k)
    rngs[1].bit_generator.random_raw(k)
    states = [rng.bit_generator.state for rng in rngs]
    assert states[0]["buffer_pos"] == states[1]["buffer_pos"]
    assert np.array_equal(states[0]["state"]["counter"],
                          states[1]["state"]["counter"])
    assert np.array_equal(*(rng.bit_generator.random_raw(9) for rng in rngs))
    assert np.array_equal(*(rng.random(5) for rng in rngs))


# one trial, a few around a counter step of 4 outputs, the partial last
# blocks of 200,000 and 100,000 trials, and a block one short of full
DRAW_WIDTHS = (1, 3, 4, 5, 3_392, 34_464, montecarlo.BLOCK_SIZE - 1,
               montecarlo.BLOCK_SIZE)


@pytest.mark.parametrize("s", [TCOM, TQOM, BARE,
                               scenario(Scheme.PCOM, topology=PATCHY)],
                         ids=["com", "qom", "bare", "patchy"])
def test_a_block_drawn_for_n_trials_equals_the_full_draw_there(s):
    # a block drawn only as far as n trials holds the full draw's values on
    # [:n] of every row a resolve reads, and resolves the same
    full = _drawn(s, 3)
    for n in DRAW_WIDTHS:
        for devices in (True, False):
            assert _compare_draws(s, montecarlo.BLOCK_SIZE, devices, 3, n) \
                == (1 + _certain_rows(s) + _certain_harvests(s), []), \
                (n, devices)
        part = montecarlo._Buffers([s], montecarlo.BLOCK_SIZE)
        _spoil(_draw_arrays(part))
        rng = montecarlo._block_rng(43, 3)
        montecarlo._draw(part, rng, n)
        montecarlo._draw_devices(part, rng, s, n)
        got = _resolved([s], part, n)[0][s]
        _assert_same_decisions(got, _resolved([s], full, n)[0][s],
                               ARRAY_FIELDS)


def test_a_stream_group_draws_each_pairing_as_if_alone():
    # com, qom and bare chains and another topology of the same node count
    # share steps 1-3 of one draw; each device group then draws its own
    # devices from the state they leave, into rows sized for the largest
    # device count, and reads what it would drawn alone
    group = [TCOM, TQOM, BARE, scenario(Scheme.PCOM, topology=PATCHY)]
    width = montecarlo.BLOCK_SIZE
    shared = montecarlo._Buffers(group, width)
    # T1 disks are surely active, bare disks surely idle, PATCHY's drawn
    assert len(shared.activity) == 3
    assert [len(rows) for rows in shared.device_gain] == [3, 2, 1]
    # 2 harvest and 3 hop-fade rows, the 6 device distance and 6 fade rows
    # of com, and 3 activity row sets of 3 slots: 145 bytes per trial
    # where the 4 sets drawn alone hold 412
    assert shared.nbytes == width * (8 * (2 + 3 + 2 * 6) + 3 * 3)
    assert sum(_drawn(s).nbytes for s in group) == 412 * width
    for b, trials in ((0, width), (1, 3_392)):
        _spoil(_draw_arrays(shared))
        rng = montecarlo._block_rng(43, b)
        montecarlo._draw(shared, rng, trials)
        state = rng.bit_generator.state
        for s in group:
            rng.bit_generator.state = state
            montecarlo._draw_devices(shared, rng, s, trials)
            alone = _drawn(s, b)
            # the rows of relays certain for ``s`` alone are not drawn
            drawn = ~np.array(alone.certain_eh, dtype=bool)
            assert shared.u_eh[drawn, :trials].tobytes() \
                == alone.u_eh[drawn, :trials].tobytes()
            assert shared.hop_fades[:, :trials].tobytes() \
                == alone.hop_fades[:, :trials].tobytes()
            assert shared.active[s.topology][:, :trials].tobytes() \
                == alone.active[s.topology][:, :trials].tobytes()
            for t in range(1, s.topology.hop_count + 1):
                count = len(s.served(t))
                for rows in ("device_gain", "device_fade"):
                    got = getattr(shared, rows)[t - 1][:count, :trials]
                    want = getattr(alone, rows)[t - 1][:, :trials]
                    assert got.tobytes() == want.tobytes(), (s.scheme, t)


@pytest.mark.parametrize("topology", [T1, PATCHY], ids=["active", "patchy"])
@pytest.mark.parametrize("scheme", [Scheme.TCOM, Scheme.PCOM])
@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_certain_branches_equal_the_masked_route(topology, scheme, rho):
    # an interior rho of exactly 0 or 1 takes the certain branches; its
    # twin one ulp inside [0, 1] draws the same indicators through the
    # comparison, the power gate and the masked time factor
    certain = scenario(scheme, rho=rho, topology=topology)
    near = 5e-324 if rho == 0.0 else np.nextafter(1.0, 0.0)
    twin = dataclasses.replace(certain, policy=dataclasses.replace(
        certain.policy, rho=(0.0, near, near, 0.0)))
    # one block drawn for the stream group of both, in which the twin's
    # relays draw their harvest rows
    buffers = montecarlo._Buffers([certain, twin], montecarlo.BLOCK_SIZE)
    rng = montecarlo._block_rng(43, 0)
    montecarlo._draw(buffers, rng, montecarlo.BLOCK_SIZE)
    montecarlo._draw_devices(buffers, rng, certain, montecarlo.BLOCK_SIZE)
    got, stats, _ = _resolved([certain], buffers, montecarlo.BLOCK_SIZE)
    want, twin_stats, _ = _resolved([twin], buffers, montecarlo.BLOCK_SIZE)
    got, want = got[certain], want[twin]
    masked = oracles.masked_resolve(twin, buffers, montecarlo.BLOCK_SIZE)
    assert np.all(got.indicators[:2] == bool(rho))
    # a certain harvest reaches fewer runs and receiver states, so the
    # family builds fewer candidate rows; no test is decided whole-row
    assert stats.power_rows < twin_stats.power_rows
    assert stats.decision_rows < twin_stats.decision_rows
    assert stats.whole_row == twin_stats.whole_row \
        == masked.stats.whole_row == 0
    _assert_same_decisions(got, want, ARRAY_FIELDS)
    _assert_same_decisions(got, masked)
    ref = oracles.reference_decode(
        certain, oracles.masked_resolve(certain, buffers,
                                        montecarlo.BLOCK_SIZE))
    for name in ("hop_ok", "prefix_ok", "msg_ok", "throughput",
                 "supply_units"):
        assert np.array_equal(getattr(got, name), ref[name]), name
    for a, b in zip(got.device_ok, ref["device_ok"]):
        assert np.array_equal(a, b)
    assert (topology is PATCHY) == (not got.active.all())


def test_an_underflowing_run_keeps_its_candidate_rows():
    # relays 2 and 3 harvest with probability 1e-200 each, so slot 3's
    # transmitter is on the 2-run with probability 1e-400, which underflows
    # to 0.0: the closed form drops the run, but a uniform draw of exactly
    # 0.0 lands on it, so the simulator keeps its candidate rows
    s = dataclasses.replace(TCOM, policy=dataclasses.replace(
        TCOM.policy, rho=(0.0, 1e-200, 1e-200, 0.0)))
    assert s.policy.runs(3)[0] == (2, 0.0)
    assert [v for _, v, _ in analytics.harvest_runs(
        3, s.topology, s.policy, s.budget)] == [1, 0]
    buffers, n = _drawn(s), 4_096
    buffers.u_eh[:, :n // 2] = 0.0
    blocks, _, powers = _resolved([s], buffers, n)
    masked = oracles.masked_resolve(s, buffers, n)
    assert masked.indicators[:2, :n // 2].all()
    _assert_same_decisions(blocks[s], masked)
    _assert_candidate_powers(s, powers, masked)


def test_unread_moments_are_not_built():
    buffers = _drawn(TCOM)
    for reads, devices, moments in [
            ({("hop", 2)}, False, ()),
            ({("device", 1, 2)}, True, ()),
            ({("hop", 1), ("supply_power",)}, False, ("supply_units",)),
            ({("throughput",)}, True, ("throughput",))]:
        block = oracles.family_blocks([TCOM], buffers, 1_000, [reads])[0][TCOM]
        assert (block.device_ok is not None) == devices, reads
        for name in ("throughput", "supply_units"):
            assert (getattr(block, name) is not None) == (name in moments)
    # a run reads no moment it did not tally
    tallies = simulate_plan([(TCOM, 3, 1_000)],
                            {(TCOM, 3, 1_000): {("device", 1, 2)}})
    for moment in ("throughput", "supply_power"):
        with pytest.raises(ValueError, match="not tallied"):
            getattr(tallies[TCOM, 3, 1_000], moment)()


# a node harvests surely, never, or with an interior probability
RHOS = st.one_of(st.sampled_from([0.0, 1.0]),
                 st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                           exclude_max=True))
SCHEMES = {("com", "BTEH"): Scheme.TCOM, ("com", "BPEH"): Scheme.PCOM,
           ("qom", "BTEH"): Scheme.TQOM, ("qom", "BPEH"): Scheme.PQOM,
           ("bare", "BTEH"): Scheme.TCOM, ("bare", "BPEH"): Scheme.PCOM}


@st.composite
def families(draw):
    """Runs of 2-4 scenarios equal but for their per-node harvest
    probabilities (one family), at mixed trial counts, with what each run
    reads; a bare chain is a com chain whose disks are surely idle, and
    runs beside the cnrr baseline."""
    pairing = draw(st.sampled_from(["com", "qom", "bare"]))
    architecture = draw(st.sampled_from(["BTEH", "BPEH"]))
    scheme = SCHEMES[pairing, architecture]
    topology = T1.without_devices() if pairing == "bare" else T1
    plan = default_plan(scheme, topology,
                        build_policy(scheme, topology.node_count, 0.5))
    vectors = draw(st.lists(st.tuples(RHOS, RHOS), min_size=2, max_size=4,
                            unique=True))
    members = [Scenario(scheme=scheme, topology=topology,
                        policy=power.EhPolicy(architecture,
                                              (0.0, *rho, 0.0)),
                        budget=BUDGET, plan=plan) for rho in vectors]
    if pairing == "bare":
        members.append(BARE)
    runs, reads = [], {}
    for s in members:
        for n in draw(st.lists(st.sampled_from([1, 4_000, 66_000]),
                               min_size=1, max_size=2, unique=True)):
            run = (s, 61, n)
            runs.append(run)
            wanted = _outage_selectors(s) + [("throughput",),
                                             ("supply_power",)]
            picked = draw(st.none() | st.lists(st.sampled_from(wanted),
                                               min_size=1, max_size=3))
            if picked is not None:
                reads[run] = set(picked)
    return members, runs, reads


@settings(max_examples=25, deadline=None)
@given(families())
def test_a_family_equals_its_members(case):
    members, runs, reads = case
    plan = simulate_plan(runs, reads)
    for run in runs:
        alone = simulate_plan([run], {run: reads[run]} if run in reads
                              else {})[run]
        assert plan[run] == alone
        if run not in reads:
            assert plan[run] == simulate(run[0], run[2], run[1])
    # every decision row of one family resolve equals the masked route's,
    # for what each member's runs read
    family = [s for s in members if s is not BARE]
    member_reads = [montecarlo.Tallies(s).reads
                    if any(run not in reads for run in runs if run[0] is s)
                    else set().union(*(reads[run] for run in runs
                                       if run[0] is s))
                    for s in family]
    buffers = oracles.drawn_alone(family[0], montecarlo._block_rng(61, 0),
                                  4_096)
    blocks, stats, powers = _resolved(family, buffers, 4_096, member_reads)
    assert stats.whole_row == 0 and stats.power_rows == len(powers)
    for s, r in zip(family, member_reads):
        masked = oracles.masked_resolve(s, buffers, 4_096, r)
        _assert_same_decisions(blocks[s], masked)
        _assert_candidate_powers(s, powers, masked)


@pytest.mark.parametrize("scheme", [Scheme.TCOM, Scheme.PCOM, Scheme.TQOM,
                                    Scheme.PQOM])
def test_candidate_snrs_are_the_masked_routes_rows(monkeypatch, scheme):
    # members certain to harvest, or not, at each relay take one run and
    # one receiver state per slot; so every hop SNR (after the power split)
    # and device SNR the masked route decides on is, byte for byte, a row
    # a candidate decision of the family read
    base = scenario(scheme)
    family = [dataclasses.replace(base, policy=dataclasses.replace(
        base.policy, rho=(0.0, a, b, 0.0))) for a in (0.0, 1.0)
        for b in (0.0, 1.0)]
    read, chain = set(), montecarlo._chain

    def record(y, tf, terms, stats, bands):
        read.add(y.tobytes())
        return chain(y, tf, terms, stats, bands)

    monkeypatch.setattr(montecarlo, "_chain", record)
    buffers, n = _drawn(family[0]), 4_096
    oracles.family_blocks(family, buffers, n)
    rows = 0
    for s in family:
        masked = oracles.masked_resolve(s, buffers, n)
        recv = masked.indicators[:s.topology.hop_count]
        eff = masked.hop_snr
        if s.policy.architecture == "BPEH":
            eff = np.multiply(recv, s.policy.beta)
            np.subtract(1.0, eff, out=eff)
            eff *= masked.hop_snr
        for row in [*eff, *(y for snr in masked.device_snr for y in snr)]:
            assert row.tobytes() in read, s.policy.rho
            rows += 1
    assert rows == 4 * 9 if scheme.pairing == "com" else 4 * 6


def test_shared_device_failure_fails_only_the_members_reading_devices(
        monkeypatch):
    # the device rows are shared by the members that decode devices; a
    # member reading only hop events never reads them
    hop = scenario(Scheme.TCOM, rho=0.5)
    runs = [(TCOM, 7, 2_000), (hop, 7, 3_000)]
    reads = {runs[1]: {("hop", 2), ("supply_power",)}}
    assert montecarlo._family_key(hop) == montecarlo._family_key(TCOM)
    want = simulate_plan(runs, reads)
    chain = montecarlo._chain

    def no_peel(y, tf, terms, stats, bands):
        # a hop decodes one message; a device peels the relayed one first
        if len(terms) > 1:
            raise FloatingPointError("no peel")
        return chain(y, tf, terms, stats, bands)

    monkeypatch.setattr(montecarlo, "_chain", no_peel)
    got = simulate_plan(runs, reads)
    assert isinstance(got[runs[0]], FloatingPointError)
    assert got[runs[1]] == want[runs[1]]


def test_member_failure_fails_only_that_member(monkeypatch):
    # only a member whose runs read the supply power builds its units
    quiet = scenario(Scheme.TCOM, rho=0.5)
    runs = [(TCOM, 7, 2_000), (quiet, 7, 2_000)]
    reads = {runs[1]: {("hop", 1), ("throughput",)}}
    assert montecarlo._family_key(quiet) == montecarlo._family_key(TCOM)
    want = simulate_plan(runs, reads)
    take = montecarlo._Buffers.take

    def refuse_supply(self, name, *args, **kw):
        if name == "supply_units":
            raise MemoryError("refused")
        return take(self, name, *args, **kw)

    monkeypatch.setattr(montecarlo._Buffers, "take", refuse_supply)
    got = simulate_plan(runs, reads)
    assert isinstance(got[runs[0]], MemoryError)
    assert got[runs[1]] == want[runs[1]]


@pytest.mark.parametrize("harvesting, without", [
    (Scheme.TCOM, Scheme.COM_NOEH), (Scheme.TQOM, Scheme.QOM_NOEH)])
def test_a_scheme_without_harvesting_joins_the_harvesting_family(
        monkeypatch, harvesting, without):
    # a family is keyed by what a resolve reads, not by the scheme label:
    # com-noeh shares tcom's plan and policy but for rho, so it is a member
    # of tcom's family, picks run 0 and state 0 from the rows its siblings
    # build anyway, and equals its run simulated alone
    # as in a sweep, each scheme's plan is the time-switching reference at
    # the sweep point's rho; the scheme without harvesting forces rho to 0
    family = [scenario(harvesting, rho=rho) for rho in (0.1, 0.5)] \
        + [scenario(without, rho=0.1)]
    assert not family[-1].policy.is_harvesting
    keys = {montecarlo._family_key(s) for s in family}
    assert len(keys) == 1
    # power-splitting is another architecture, so another family
    other = scenario(Scheme.PCOM if harvesting.pairing == "com"
                     else Scheme.PQOM)
    assert montecarlo._family_key(other) not in keys
    sizes, resolve = [], montecarlo._resolve

    def counted(members, *args):
        sizes.append(len(members))
        return resolve(members, *args)

    monkeypatch.setattr(montecarlo, "_resolve", counted)
    runs = [(s, 45, 70_000) for s in family + [other]]
    plan = simulate_plan(runs)
    # two blocks, each resolved once for the family and once for pcom
    assert sorted(sizes) == [1, 1, 3, 3]
    monkeypatch.setattr(montecarlo, "_resolve", resolve)
    for s, seed, n in runs:
        assert plan[s, seed, n] == simulate(s, n, seed)


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
