"""Exact-event simulator used as ground truth for the closed-form layer.

Every random element of one relaying block is drawn explicitly - harvest
indicators, device activity, pairing distances, fades - and decode events
come from the instantaneous rate formulas, never from the analytic layer.
Each rate test ``tf log2(1 + a y / (b y + 1)) >= R`` holds iff the SNR ``y``
reaches ``tau / (a - tau b)`` with ``tau = 2^(R/tf) - 1``, so a hop, a
relayed message or a whole device SIC chain is decided by one
comparison with the largest of its thresholds, which :func:`_band` derives
from the rate formula.  A guard band around each threshold, wider than the
rounding of either form, sends the trials inside it back to the rate
formula (:func:`_chain`), so every decision equals the rate comparison bit
for bit.  Trials are vectorized in fixed-size blocks; block ``b`` of a
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
# guard band per unit condition number of a threshold: the rounding of the
# rate formula and of the threshold moves a decision by a few eps per unit
_GUARD = 512 * np.finfo(float).eps
_MAX_BAND = 1e-3
# thresholds stay this far inside the normal float range, where every
# rounding error is relative
_SPAN = (1e-280, 1e280)


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
    """Raw per-trial arrays for one simulated block, and the number of
    trials decided inside a guard band and of rate tests decided by
    ``_rate`` over a whole row (``guard_counts``)."""

    __slots__ = ("n", "indicators", "active", "powers", "hop_snr", "hop_ok",
                 "device_snr", "device_ok", "prefix_ok", "msg_ok",
                 "supply_units", "throughput", "guard_counts")

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


def _rate(y, a, b, tf):
    """Rate of a message holding share ``a`` of the superposition, decoded
    over interference ``b`` at SNR ``y`` within time factor ``tf``."""
    return tf * np.log1p(a * y / (b * y + 1.0)) / _LN2


def _band(a, b, target, tf):
    """SNR interval ``(lo, hi)`` around the threshold of the rate test
    ``_rate(y, a, b, tf) >= target``; outside it the test is ``y >= lo``.

    The test holds iff ``y >= tau / (a - tau b)`` with ``tau = 2^(target/tf)
    - 1``.  The band's relative half-width scales with the condition number
    of that inversion, at ``_GUARD`` per unit, and bounds the rounding of
    both forms.  None when the test has no threshold (``tau <= 0`` or
    ``a <= tau b``), or its band is wider than ``_MAX_BAND`` or leaves
    ``_SPAN``.
    """
    if not tf > 0.0:
        return None
    tau = math.expm1(min(target * _LN2 / tf, 700.0))  # overflows past 709.8
    if not (tau > 0.0 and a > tau * b):
        return None
    thr = tau / (a - tau * b)
    width = _GUARD * a / (a - tau * b) \
        * max(1.0, (1.0 + tau) * math.log1p(tau) / tau)
    lo, hi = thr * (1.0 - width), thr * (1.0 + width)
    if not (width <= _MAX_BAND and _SPAN[0] < lo and hi < _SPAN[1]):
        return None
    return lo, hi


def _pick(values, sel):
    """``values[1]`` where the mask ``sel`` holds, else ``values[0]``."""
    return values[0] if sel is None else np.where(sel, values[1], values[0])


def _either(sel, masks):
    """:func:`_pick` for boolean masks, in bit operations: ``np.where``
    branches per element and mispredicts on a random ``sel``."""
    if sel is None:
        return masks[0]
    return (sel & masks[1]) | (masks[0] & ~sel)


def _gate(x, mask):
    """``np.where(mask, x, 1.0)`` as the masked product ``x*mask + ~mask``,
    which does not branch per element on a random ``mask``.

    The two agree bit for bit where ``x`` is finite and not -0.0 (a
    product of non-negative factors never is); a row holding an inf or a
    NaN, where ``inf*0`` would give NaN, keeps ``np.where``.
    """
    if np.isfinite(x).all():
        return x * mask + ~mask
    return np.where(mask, x, 1.0)


def _holds(y, tf, terms):
    """Whether every rate test of ``terms`` holds, by the rate formula."""
    ok = np.ones(y.shape, dtype=bool)
    for a, b, target in terms:
        ok &= _rate(y, a, b, tf) >= target
    return ok


def _chain(y, tfs, sel, terms, counts):
    """Whether every rate test ``_rate(y, a, b, tf) >= target`` of ``terms``
    holds, where ``tf`` is ``tfs[1]`` in the trials the mask ``sel`` marks
    and ``tfs[0]`` elsewhere (everywhere when ``sel`` is None).

    Each test is monotone in ``y``, so the chain holds iff ``y`` clears the
    largest threshold: one comparison per trial.  Trials inside a guard
    band and tests without a band are decided by ``_rate`` itself, so the
    result equals the rate comparisons bit for bit.  ``counts`` gains the
    trials decided in a band and the tests decided over the whole row.
    """
    guarded, exact = [], []
    for term in terms:
        bands = [_band(*term, tf) for tf in tfs]
        if None in bands:
            exact.append(term)
        else:
            guarded.append((term, bands))
    if guarded:
        edges = [(max(bands[i][0] for _, bands in guarded),
                  max(bands[i][1] for _, bands in guarded))
                 for i in range(len(tfs))]
        # below the highest lower edge some test surely fails; above the
        # highest upper edge every test surely holds
        ok = _either(sel, [y >= lo for lo, _ in edges])
        near = ok & ~_either(sel, [y > hi for _, hi in edges])
        if near.any():
            near = np.flatnonzero(near)
            ok[near] = _holds(y[near],
                              _pick(tfs, None if sel is None else sel[near]),
                              [term for term, _ in guarded])
            counts[0] += near.size
    else:
        ok = np.ones(y.shape, dtype=bool)
    if exact:
        ok &= _holds(y, _pick(tfs, sel), exact)
        counts[1] += len(exact)
    return ok


def _resolve(scenario: Scenario, draws: _Draws, n: int) -> _Block:
    """Resolve every decode event of one scenario in the first ``n`` trials
    of shared draws, which it reads through views.

    The devices drawn for slot t are the device messages the plan lists
    for it, in plan order: one SIC chain decodes com and qom slots alike,
    and the pairing enters only through the draws.
    """
    topo, policy, plan = scenario.topology, scenario.policy, scenario.plan
    budget = scenario.budget
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
        gain = omega_factor(policy) \
            * pathloss_linear(topo.hop_distances[t - 2], budget) \
            * hop_fades[t - 2]
        chain = _gate(chain * gain, indicators[t - 2])
        powers[t - 1] = chain

    # 6. receiver adjustments: harvesting at the receiving relay either
    # compresses the information window, giving each trial one of two time
    # factors, or splits the received power
    recv = indicators[:hops]
    if bteh:
        tfs = (1.0 / (m - 1), (1.0 - policy.alpha) / (m - 1))
        split = 1.0
    else:
        tfs = (1.0 / (m - 1),)
        split = 1.0 - policy.beta * recv
    counts = [0, 0]

    def decode(y, t, terms):
        return _chain(y, tfs, recv[t - 1] if bteh else None, terms, counts)

    # 7. hop decoding; with devices present, the relayed message is decoded
    # over the device messages the plan lists
    ell_hop = pathloss_linear(np.asarray(topo.hop_distances), budget)[:, None]
    hop_snr = g0 * powers * ell_hop * hop_fades
    eff = hop_snr if bteh else hop_snr * split
    relayed = (p_m, 1.0 - p_m, plan.relay_rate)
    hop_ok = np.empty((hops, n), dtype=bool)
    for t in range(1, hops + 1):
        hop_ok[t - 1] = decode(eff[t - 1], t, [(1.0, 0.0, plan.relay_rate)])
        if p_m < 1.0:
            hop_ok[t - 1] = _either(active[t - 1], [
                hop_ok[t - 1], decode(eff[t - 1], t, [relayed])])
    prefix_ok = hop_ok.copy()
    for t in range(1, hops):
        prefix_ok[t] &= prefix_ok[t - 1]
    # slot t serves its devices iff its transmitter holds the message,
    # i.e. hops 1..t-1 all succeeded; the slot's own hop is a separate event
    msg_ok = np.vstack([np.ones((1, n), dtype=bool), prefix_ok[:-1]])

    # 8. device decoding: every device first peels the relayed message off
    # the superposition, then every weaker-protected message n > k the plan
    # lists, then its own; a qom slot lists its one device
    device_snr, device_ok = [], []
    throughput = plan.relay_rate * prefix_ok[-1].astype(float)
    device_gain = draws.device_gain(budget)
    for t in range(1, hops + 1):
        ell_dev = device_gain[t - 1][:, :n]
        fade = draws.device_fade[t - 1][:, :n]
        served = active[t - 1]
        count = ell_dev.shape[0]
        snr = g0 * powers[t - 1] * ell_dev * fade
        ok = np.empty((count, n), dtype=bool)
        shares = plan.device_shares[t - 1]
        targets = plan.device_rates[t - 1]
        below = np.cumsum((0.0,) + shares)
        for k in range(count, 0, -1):
            peels = [(shares[nn - 1], below[nn - 1], targets[nn - 1])
                     for nn in range(count, k - 1, -1)]
            ok[k - 1] = served & decode(snr[k - 1], t, [relayed] + peels)
            throughput += targets[k - 1] * (msg_ok[t - 1] & ok[k - 1])
        device_snr.append(snr)
        device_ok.append(ok)

    throughput /= m - 1
    supply_units = hops - indicators[:hops - 1].sum(axis=0)
    return _Block(n=n, indicators=indicators, active=active, powers=powers,
                  hop_snr=hop_snr, hop_ok=hop_ok, device_snr=device_snr,
                  device_ok=device_ok, prefix_ok=prefix_ok, msg_ok=msg_ok,
                  supply_units=supply_units, throughput=throughput,
                  guard_counts=tuple(counts))


@dataclass
class Tallies:
    """Event counts and moment sums of one simulated run of ``scenario``."""

    scenario: Scenario
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

    def add(self, block: _Block, used: int) -> None:
        """Count the first ``used`` trials of one resolved block."""
        cut = slice(0, used)
        self.trials += used
        for t in range(1, self.scenario.topology.hop_count + 1):
            row = block.hop_ok[t - 1, cut]
            self.hop_fail[t] = self.hop_fail.get(t, 0) + used \
                - int(np.count_nonzero(row))
            served = block.active[t - 1, cut]
            self.present[t] = self.present.get(t, 0) \
                + int(np.count_nonzero(served))
            for k, ok in zip(self.scenario.served(t), block.device_ok[t - 1]):
                key = (t, k)
                fail = served & ~ok[cut]
                self.device_fail[key] = self.device_fail.get(key, 0) \
                    + int(np.count_nonzero(fail))
                e2e_fail = served & ~(ok[cut] & block.msg_ok[t - 1, cut])
                self.e2e_device_fail[key] = self.e2e_device_fail.get(key, 0) \
                    + int(np.count_nonzero(e2e_fail))
        self.e2e_destination_fail += used \
            - int(np.count_nonzero(block.prefix_ok[-1, cut]))
        tp = block.throughput[cut]
        self.throughput_sum += float(tp.sum())
        self.throughput_sumsq += float((tp * tp).sum())
        watts = self.scenario.budget.P0 * block.supply_units[cut]
        self.supply_w_sum += float(watts.sum())
        self.supply_w_sumsq += float((watts * watts).sum())

    def outage(self, selector) -> Estimate:
        """Outage estimate of one decode event.

        Selectors are those of :meth:`Scenario.check_selector`; ``k=None``
        addresses the qom device.  Device estimates condition on the slot's
        disk being active, so their trial count is the number of
        conditioning trials.
        """
        kind, args = self.scenario.check_selector(selector)
        if kind == "e2e_destination":
            return Estimate.from_binomial(self.e2e_destination_fail,
                                          self.trials)
        if kind == "hop":
            return Estimate.from_binomial(self.hop_fail[args[0]], self.trials)
        table = self.device_fail if kind == "device" else self.e2e_device_fail
        return Estimate.from_binomial(table[args], self.present[args[0]])

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
        tallies = {(s, seed, n): Tallies(s)
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
                                block, min(BLOCK_SIZE, n - b * BLOCK_SIZE))
                    guarded = block.guard_counts
                    del block
                except Exception as exc:
                    failed[s] = exc
                    continue
                # seconds, trials, trials in guard bands, whole-row tests
                done = (time.perf_counter() - tick, width, *guarded)
                spent[s.scheme.value] = tuple(map(sum, zip(
                    spent.get(s.scheme.value, (0.0, 0, 0, 0)), done)))
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s draws, seed %d: %d blocks drawn, %d scenarios "
                         "resolved, %d trials resolved in %.3f s; %s",
                         pairing or "bare", seed, drawn, len(cuts),
                         sum(v[1] for v in spent.values()),
                         time.perf_counter() - start,
                         ", ".join(f"{k} {t:.3f} s {n / t:.0f} trials/s "
                                   f"({g} in guard bands, {e} whole-row rate "
                                   "tests)"
                                   for k, (t, n, g, e) in spent.items()))
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
