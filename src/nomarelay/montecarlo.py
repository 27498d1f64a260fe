"""Exact-event simulator used as ground truth for the closed-form layer.

Every random element of one relaying block is drawn explicitly - harvest
indicators, device activity, pairing distances, fades - and decode events
come from the instantaneous rate formulas, never from the analytic
thresholds.  Trials are vectorized in fixed-size blocks; block ``b`` of a
run draws from its own counter-derived stream, so estimates are
bit-identical however the blocks are distributed over workers, and a
shorter run is a prefix of a longer one with the same seed.  Each block
is drawn in full by :func:`_draw` and resolved per scenario by
:func:`_resolve`, only as far as that scenario's longest run reads it:
resolution works trial by trial, so a resolved prefix equals the same
prefix of a full-width resolve.  A sweep plans its simulation once
(:func:`simulate_plan`): shorter trial counts are tallied as prefixes of
longer ones, and scenarios sharing pairing, topology and seed resolve the
same draws, with unchanged results.
:func:`simulate` runs one scenario alone through the same plan.  Both
yield :class:`Tallies`, whose ``outage`` reads the selector tuples of
:meth:`nomarelay.analytics.SlotMarginals.outage`; nothing is cached
between calls.
Given an active disk, every com annulus holds a scheduled device.
Single-trial outcomes and empirical survival curves, which only the tests
read, live in ``tests/oracles.py``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import pathloss_linear
from .geometry import log_null_probability
from .network import Scenario
from .power import omega_factor

logger = logging.getLogger(__name__)

BLOCK_SIZE = 1 << 16
_CI_FACTOR = 1.96
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Estimate:
    mean: float
    half_width: float
    trials: int

    @classmethod
    def from_binomial(cls, successes: int, trials: int) -> "Estimate":
        if trials <= 0:
            raise ValueError("estimate needs at least one trial")
        p = successes / trials
        return cls(mean=p,
                   half_width=_CI_FACTOR * math.sqrt(p * (1.0 - p) / trials),
                   trials=trials)

    @classmethod
    def from_moments(cls, total: float, total_sq: float, trials: int) -> "Estimate":
        if trials <= 0:
            raise ValueError("estimate needs at least one trial")
        mean = total / trials
        var = max(total_sq / trials - mean * mean, 0.0)
        if trials > 1:
            var *= trials / (trials - 1)
        return cls(mean=mean,
                   half_width=_CI_FACTOR * math.sqrt(var / trials),
                   trials=trials)


class _Block:
    """Raw per-trial arrays for one simulated block."""

    __slots__ = ("n", "indicators", "active", "powers",
                 "hop_snr", "hop_rates", "hop_ok", "device_snr",
                 "device_rates", "device_ok", "prefix_ok", "msg_ok",
                 "supply_units", "throughput")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])


@dataclass(eq=False)
class _Draws:
    """Random numbers of one block: they depend only on the pairing,
    topology, seed and block index."""

    u_eh: np.ndarray
    active: np.ndarray
    hop_fades: np.ndarray
    device_dist: list
    device_fade: list
    gains: dict = field(default_factory=dict)

    def device_gain(self, budget) -> list:
        """Path gain of every drawn device distance, once per (L, eps)."""
        key = (budget.L, budget.epsilon)
        if key not in self.gains:
            self.gains[key] = [pathloss_linear(dist, budget)
                               for dist in self.device_dist]
        return self.gains[key]


def _draw(topo, pairing, rng: np.random.Generator, n: int) -> _Draws:
    """Draw every random element of ``n`` relaying blocks.

    The draw order is part of the determinism contract: harvest
    uniforms, disk activity, hop fades, then per-slot device geometry
    and fades.
    """
    m, hops = topo.node_count, topo.hop_count

    # 1. harvest uniforms of nodes 2..M, compared with rho on resolution
    u_eh = rng.random((m - 1, n))

    # 2. device activity per slot
    active = np.empty((hops, n), dtype=bool)
    for t in range(1, hops + 1):
        p_active = -math.expm1(log_null_probability(
            topo.density_active, topo.disk_radii[t - 1]))
        active[t - 1] = rng.random(n) < p_active

    # 3. hop fades; each doubles as the receiving node's harvest input
    hop_fades = rng.standard_exponential((hops, n))

    # 4. device geometry and fades
    device_dist, device_fade = [], []
    if pairing == "com":
        for t in range(1, hops + 1):
            kt = topo.subarea_counts[t - 1]
            radius = topo.disk_radii[t - 1]
            u = rng.random((kt, n))
            ks = np.arange(1, kt + 1, dtype=float)[:, None]
            device_dist.append(radius / kt * np.sqrt((ks - 1.0) ** 2
                                                     + (2.0 * ks - 1.0) * u))
            device_fade.append(rng.standard_exponential((kt, n)))
    elif pairing == "qom":
        for t in range(1, hops + 1):
            radius = topo.disk_radii[t - 1]
            a = math.pi * topo.density_active * radius * radius
            u = rng.random(n)
            # contact law truncated to the disk, valid given activity
            dist = np.sqrt(-np.log1p(-u * -math.expm1(-a))
                           / (math.pi * topo.density_active))
            device_dist.append(dist[None, :])
            device_fade.append(rng.standard_exponential((1, n)))
    else:
        device_dist = [np.zeros((0, n))] * hops
        device_fade = [np.zeros((0, n))] * hops
    return _Draws(u_eh=u_eh, active=active, hop_fades=hop_fades,
                  device_dist=device_dist, device_fade=device_fade)


def _resolve(scenario: Scenario, draws: _Draws, n: int) -> _Block:
    """Resolve every decode event of one scenario in the first ``n`` trials
    of shared draws, which it reads through views."""
    topo, policy, plan = scenario.topology, scenario.policy, scenario.plan
    budget, pairing = scenario.budget, scenario.scheme.pairing
    m, hops = topo.node_count, topo.hop_count
    g0 = budget.gamma_bar0
    bteh = policy.architecture == "BTEH"
    p_m = plan.relay_share
    active = draws.active[:, :n]
    hop_fades = draws.hop_fades[:, :n]

    indicators = np.empty((m - 1, n), dtype=bool)
    for row in range(m - 1):
        indicators[row] = draws.u_eh[row, :n] < policy.rho1(row + 2)

    # 5. transmit power chain, in units of P0
    powers = np.ones((hops, n))
    chain = np.ones(n)
    for t in range(2, hops + 1):
        gain = omega_factor(t, policy, m) \
            * pathloss_linear(topo.hop_distances[t - 2], budget) \
            * hop_fades[t - 2]
        chain = np.where(indicators[t - 2], chain * gain, 1.0)
        powers[t - 1] = chain

    # 6. receiver adjustments: harvesting at the receiving relay either
    # compresses the information window or splits the received power
    recv = indicators[:hops]
    if bteh:
        time_factor = (1.0 - policy.alpha * recv) / (m - 1)
        split = 1.0
    else:
        time_factor = np.full((hops, n), 1.0 / (m - 1))
        split = 1.0 - policy.beta * recv

    # 7. hop decoding
    ell_hop = pathloss_linear(np.asarray(topo.hop_distances), budget)[:, None]
    hop_snr = g0 * powers * ell_hop * hop_fades
    eff = hop_snr * split
    if pairing is not None and p_m < 1.0:
        sinr = np.where(active, p_m * eff / ((1.0 - p_m) * eff + 1.0), eff)
    else:
        sinr = eff
    hop_rates = time_factor * np.log1p(sinr) / _LN2
    hop_ok = hop_rates >= plan.relay_rate
    prefix_ok = hop_ok.copy()
    for t in range(1, hops):
        prefix_ok[t] &= prefix_ok[t - 1]
    # slot t serves its devices iff its transmitter holds the message,
    # i.e. hops 1..t-1 all succeeded; the slot's own hop is a separate event
    msg_ok = np.vstack([np.ones((1, n), dtype=bool), prefix_ok[:-1]])

    # 8. device decoding: the own message plus its full SIC chain
    device_snr, device_rates, device_ok = [], [], []
    throughput = plan.relay_rate * prefix_ok[-1].astype(float)
    device_gain = draws.device_gain(budget)
    for t in range(1, hops + 1):
        ell_dev = device_gain[t - 1][:, :n]
        fade = draws.device_fade[t - 1][:, :n]
        served = active[t - 1]
        count = ell_dev.shape[0]
        if count == 0:
            empty = np.zeros((0, n))
            device_snr.append(empty)
            device_rates.append(empty)
            device_ok.append(empty.astype(bool))
            continue
        snr = g0 * powers[t - 1] * ell_dev * fade
        tf = time_factor[t - 1]
        # every device first peels the relayed message off the superposition
        relayed_ok = tf * np.log1p(p_m * snr / ((1.0 - p_m) * snr + 1.0)) \
            / _LN2 >= plan.relay_rate
        rates = np.empty((count, n))
        ok = np.empty((count, n), dtype=bool)
        if pairing == "com":
            shares = plan.device_shares[t - 1]
            targets = plan.device_rates[t - 1]
            below = np.cumsum((0.0,) + shares)
            for k in range(count, 0, -1):
                y = snr[k - 1]
                rates[k - 1] = tf * np.log1p(shares[k - 1] * y
                                             / (below[k - 1] * y + 1.0)) / _LN2
                # device k peels every weaker-protected message n >= k;
                # the peel of its own message is its rate
                chain = relayed_ok[k - 1]
                for nn in range(count, k - 1, -1):
                    peel = rates[k - 1] if nn == k else tf * np.log1p(
                        shares[nn - 1] * y / (below[nn - 1] * y + 1.0)) / _LN2
                    chain = chain & (peel >= targets[nn - 1])
                ok[k - 1] = served & chain
                throughput += targets[k - 1] * (msg_ok[t - 1] & ok[k - 1])
        else:
            target = plan.nearest_rates[t - 1]
            rates[0] = tf * np.log1p((1.0 - p_m) * snr[0]) / _LN2
            ok[0] = served & relayed_ok[0] & (rates[0] >= target)
            throughput += target * (msg_ok[t - 1] & ok[0])
        device_snr.append(snr)
        device_rates.append(rates)
        device_ok.append(ok)

    throughput /= m - 1
    supply_units = hops - indicators[:hops - 1].sum(axis=0)
    return _Block(n=n, indicators=indicators, active=active, powers=powers,
                  hop_snr=hop_snr, hop_rates=hop_rates, hop_ok=hop_ok,
                  device_snr=device_snr, device_rates=device_rates,
                  device_ok=device_ok, prefix_ok=prefix_ok, msg_ok=msg_ok,
                  supply_units=supply_units, throughput=throughput)


@dataclass
class Tallies:
    """Event counts and moment sums of one simulated run of ``hops`` slots."""

    hops: int
    trials: int = 0
    hop_fail: dict = field(default_factory=dict)
    present: dict = field(default_factory=dict)
    device_fail: dict = field(default_factory=dict)
    e2e_destination_fail: int = 0
    e2e_device_fail: dict = field(default_factory=dict)
    throughput_sum: float = 0.0
    throughput_sumsq: float = 0.0
    supply_w_sum: float = 0.0
    supply_w_sumsq: float = 0.0

    def add(self, scenario: Scenario, block: _Block, used: int) -> None:
        """Count the first ``used`` trials of one resolved block."""
        cut = slice(0, used)
        self.trials += used
        for t in range(1, scenario.topology.hop_count + 1):
            row = block.hop_ok[t - 1, cut]
            self.hop_fail[t] = self.hop_fail.get(t, 0) + int((~row).sum())
            ok = block.device_ok[t - 1]
            if ok.shape[0] == 0:
                continue
            served = block.active[t - 1, cut]
            self.present[t] = self.present.get(t, 0) + int(served.sum())
            for k in range(1, ok.shape[0] + 1):
                key = (t, k if scenario.scheme.pairing == "com" else None)
                fail = served & ~ok[k - 1, cut]
                self.device_fail[key] = self.device_fail.get(key, 0) \
                    + int(fail.sum())
                e2e_fail = served & ~(ok[k - 1, cut]
                                      & block.msg_ok[t - 1, cut])
                self.e2e_device_fail[key] = self.e2e_device_fail.get(key, 0) \
                    + int(e2e_fail.sum())
        self.e2e_destination_fail += int((~block.prefix_ok[-1, cut]).sum())
        tp = block.throughput[cut]
        self.throughput_sum += float(tp.sum())
        self.throughput_sumsq += float((tp * tp).sum())
        watts = scenario.budget.P0 * block.supply_units[cut]
        self.supply_w_sum += float(watts.sum())
        self.supply_w_sumsq += float((watts * watts).sum())

    def outage(self, selector) -> Estimate:
        """Outage estimate of one decode event.

        Selectors: ``("hop", t)``, ``("device", t, k)``,
        ``("e2e_destination",)`` and ``("e2e_device", t, k)``; ``k=None``
        addresses the qom device.  Device estimates condition on the slot's
        disk being active, so their trial count is the number of
        conditioning trials.
        """
        kind, rest = selector[0], selector[1:]
        if kind == "e2e_destination":
            return Estimate.from_binomial(self.e2e_destination_fail,
                                          self.trials)
        t = rest[0]
        if not 1 <= t <= self.hops:
            raise ValueError(f"slot {t} outside 1..{self.hops}")
        if kind == "hop":
            return Estimate.from_binomial(self.hop_fail[t], self.trials)
        if kind not in ("device", "e2e_device"):
            raise ValueError(f"unknown selector {selector!r}")
        key = (t, rest[1])
        table = self.device_fail if kind == "device" else self.e2e_device_fail
        if key not in table:
            raise ValueError(f"no served device matches selector {selector!r}")
        return Estimate.from_binomial(table[key], self.present[t])

    def throughput(self) -> Estimate:
        """Mean delivered rate per block from exact joint end-to-end events."""
        return Estimate.from_moments(self.throughput_sum,
                                     self.throughput_sumsq, self.trials)

    def supply_power(self) -> Estimate:
        """Mean grid-supplied transmit power in watts; harvests are free."""
        return Estimate.from_moments(self.supply_w_sum, self.supply_w_sumsq,
                                     self.trials)


def _block_rng(seed: int, b: int) -> np.random.Generator:
    """The counter-derived stream of block ``b`` of a run."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(b,))))


def simulate_plan(runs) -> dict:
    """Tallies of every ``(scenario, seed, n_trials)`` run, as one plan.

    Scenarios of one seed that share pairing and topology read the same
    draws: each block is drawn once, resolved once per scenario and tallied
    into every trial count asked of it, in block order, so each entry
    equals its run simulated alone.  A failed run maps to its exception.
    """
    out, groups = {}, {}
    for scenario, seed, n in runs:
        if n <= 0:
            out[scenario, seed, n] = ValueError(
                f"trial count must be positive, got {n}")
        else:
            groups.setdefault((scenario.scheme.pairing, scenario.topology,
                               seed), {}).setdefault(scenario, set()).add(n)
    for (pairing, topo, seed), cuts in groups.items():
        tallies = {(s, seed, n): Tallies(topo.hop_count)
                   for s in cuts for n in cuts[s]}
        failed, spent, drawn, start = {}, {}, 0, time.perf_counter()
        # blocks are always drawn in full so a longer run extends a shorter
        # one, and resolved only as wide as the scenario's longest run
        # reads; one draw set and one resolved block are alive at a time
        for b in range(-(-max(map(max, cuts.values())) // BLOCK_SIZE)):
            draws = None
            for s in cuts:
                width = min(BLOCK_SIZE, max(cuts[s]) - b * BLOCK_SIZE)
                if s in failed or width <= 0:
                    continue
                try:
                    if draws is None:
                        draws = _draw(topo, pairing, _block_rng(seed, b),
                                      BLOCK_SIZE)
                        drawn += 1
                    tick = time.perf_counter()
                    block = _resolve(s, draws, width)
                    for n in cuts[s]:
                        if n > b * BLOCK_SIZE:
                            tallies[s, seed, n].add(
                                s, block, min(BLOCK_SIZE, n - b * BLOCK_SIZE))
                    del block
                except Exception as exc:
                    failed[s] = exc
                    continue
                secs, trials = spent.get(s.scheme.value, (0.0, 0))
                spent[s.scheme.value] = (secs + time.perf_counter() - tick,
                                         trials + width)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s draws, seed %d: %d blocks drawn, %d scenarios "
                         "resolved, %d trials resolved in %.3f s; %s",
                         pairing or "bare", seed, drawn, len(cuts),
                         sum(n for _, n in spent.values()),
                         time.perf_counter() - start,
                         ", ".join(f"{k} {t:.3f} s {n / t:.0f} trials/s"
                                   for k, (t, n) in spent.items()))
        out.update({run: failed.get(run[0], tal)
                    for run, tal in tallies.items()})
    return out


def simulate(scenario: Scenario, n_trials: int, seed: int) -> Tallies:
    """Tallies of one run, simulated alone; raises the run's failure."""
    run = (scenario, seed, n_trials)
    tallies = simulate_plan([run])[run]
    if isinstance(tallies, Exception):
        raise tallies
    return tallies
