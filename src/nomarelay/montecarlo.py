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
is drawn by :func:`_draw` and resolved per scenario by :func:`_resolve`,
only as far as that scenario's longest run reads it: resolution works
trial by trial, so a resolved prefix equals the same prefix of a
full-width resolve.  A sweep plans its simulation once
(:func:`simulate_plan`): shorter trial counts are tallied as prefixes of
longer ones, scenarios sharing pairing, topology and seed resolve the
same draws, and each run is tallied only for what its rows read.  A
scenario decodes device messages in a block only if a run reading that
block reads a device event or the throughput, and the block draws device
geometry and fades, the last draws of its stream, only if some scenario
decodes them, so the other draws are the same either way.  A plan entry
therefore equals its run simulated alone on everything its rows read,
and raises on anything else.  Each draw group fills one buffer set
(:class:`_Buffers`), allocated at full block width, in place through
``out=`` stream calls and ufuncs in the same float order, for every block
and scenario; a partial last block reads a prefix view, and the set is
freed with its group, before the next group allocates.  :func:`simulate`
runs one scenario alone, tallied in full, through the same plan.  Both
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
from collections import Counter
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
    ``_rate`` over a whole row (``guard_counts``).  A block resolved
    without its devices holds None as ``device_snr``, ``device_ok`` and
    ``throughput``."""

    __slots__ = ("n", "indicators", "active", "powers", "hop_snr", "hop_ok",
                 "device_snr", "device_ok", "prefix_ok", "msg_ok",
                 "supply_units", "throughput", "guard_counts")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])


class _Buffers:
    """Every array one draw group fills, at the group's full ``width``: the
    random numbers of one block, which depend only on the pairing,
    topology, seed and block index (:func:`_draw`), the device path gains
    per (L, eps), and the arrays :func:`_resolve` writes, allocated on
    first use (:meth:`take`).  A group refills one set for every block and
    scenario; a resolve reads and writes ``[..., :n]`` views of it."""

    def __init__(self, scenario: Scenario, width: int):
        topo, hops = scenario.topology, scenario.topology.hop_count
        self.topology, self.pairing = topo, scenario.scheme.pairing
        self.width = width
        self.u_eh = np.empty((topo.node_count - 1, width))
        self.active = np.empty((hops, width), dtype=bool)
        self.hop_fades = np.empty((hops, width))
        counts = [len(scenario.served(t)) for t in range(1, hops + 1)]
        self.device_dist = [np.empty((k, width)) for k in counts]
        self.device_fade = [np.empty((k, width)) for k in counts]
        # whether the last fill drew the device geometry and fades
        self.devices = False
        # gains of the current fill by (L, eps), in rows allocated once
        self.gains, self.gain_rows, self.arrays = {}, {}, {}

    def take(self, name, rows: tuple, n: int, dtype=float) -> np.ndarray:
        """Array ``name`` of shape ``rows + (n,)``; its values are stale."""
        key = (name, rows, dtype)
        if key not in self.arrays:
            self.arrays[key] = np.empty(rows + (self.width,), dtype=dtype)
        return self.arrays[key][..., :n]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in [
            self.u_eh, self.active, self.hop_fades, *self.device_dist,
            *self.device_fade, *self.arrays.values(),
            *(row for rows in self.gain_rows.values() for row in rows)])

    def device_gain(self, budget) -> list:
        """Path gain of every drawn device distance, once per (L, eps) and
        fill (:func:`_draw` empties ``gains``), into rows the set owns."""
        if not self.devices:
            raise RuntimeError("this fill drew no device geometry")
        key = (budget.L, budget.epsilon)
        if key not in self.gains:
            if key not in self.gain_rows:
                self.gain_rows[key] = [np.empty_like(dist)
                                       for dist in self.device_dist]
            self.gains[key] = [
                pathloss_linear(dist, budget, out=row)
                for dist, row in zip(self.device_dist, self.gain_rows[key])]
        return self.gains[key]


def _draw(buffers: _Buffers, rng: np.random.Generator,
          devices: bool = True) -> None:
    """Draw every random element of as many relaying blocks as ``buffers``
    is wide into it, in place; the device geometry and fades only if
    ``devices``.

    The draw order is part of the determinism contract: harvest
    uniforms, disk activity, hop fades, then per-slot device geometry
    and fades.  The device draws come last in the block's own stream, so
    a fill without them draws the rest unchanged.  Each array is filled in
    place by the same stream calls and float operations, in the same
    order, as a freshly allocated one.
    """
    buffers.gains.clear()
    buffers.devices = devices
    topo, pairing = buffers.topology, buffers.pairing
    hops = topo.hop_count

    # 1. harvest uniforms of nodes 2..M, compared with rho on resolution
    rng.random(out=buffers.u_eh)

    # 2. device activity per slot; the hop fades are drawn next, so their
    # rows hold the activity uniforms meanwhile
    for t in range(1, hops + 1):
        p_active = -math.expm1(log_null_probability(
            topo.density_active, topo.disk_radii[t - 1]))
        u = buffers.hop_fades[t - 1]
        rng.random(out=u)
        np.less(u, p_active, out=buffers.active[t - 1])

    # 3. hop fades; each doubles as the receiving node's harvest input
    rng.standard_exponential(out=buffers.hop_fades)

    # 4. device geometry and fades; a bare chain draws none
    if not devices:
        return
    for t in range(1, hops + 1):
        dist = buffers.device_dist[t - 1]
        radius = topo.disk_radii[t - 1]
        if pairing == "com":
            # radius / kt * sqrt((k - 1)^2 + (2k - 1) u) in subarea k
            kt = topo.subarea_counts[t - 1]
            ks = np.arange(1, kt + 1, dtype=float)[:, None]
            rng.random(out=dist)
            dist *= 2.0 * ks - 1.0
            dist += (ks - 1.0) ** 2
            np.sqrt(dist, out=dist)
            dist *= radius / kt
        elif pairing == "qom":
            # contact law truncated to the disk, valid given activity:
            # sqrt(-log1p(-u * -expm1(-a)) / (pi lambda))
            a = math.pi * topo.density_active * radius * radius
            rng.random(out=dist)
            np.negative(dist, out=dist)
            dist *= -math.expm1(-a)
            np.log1p(dist, out=dist)
            np.negative(dist, out=dist)
            dist /= math.pi * topo.density_active
            np.sqrt(dist, out=dist)
        else:
            continue
        rng.standard_exponential(out=buffers.device_fade[t - 1])


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
    """Set ``x`` to ``np.where(mask, x, 1.0)`` in place, as the masked
    product ``x*mask + ~mask``, which does not branch per element on a
    random ``mask``; returns ``x``.

    The two agree bit for bit where ``x`` is finite and not -0.0 (a
    product of non-negative factors never is); a row holding an inf or a
    NaN, where ``inf*0`` would give NaN, keeps ``np.where``.
    """
    if np.isfinite(x).all():
        x *= mask
        x += ~mask
    else:
        x[...] = np.where(mask, x, 1.0)
    return x


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


def _resolve(scenario: Scenario, buffers: _Buffers, n: int,
             devices: bool = True) -> _Block:
    """Resolve every decode event of one scenario in the first ``n`` trials
    of shared draws, which it reads through views; the device messages and
    the throughput they add to only if ``devices``, else the block's
    ``device_snr``, ``device_ok`` and ``throughput`` are None.

    The devices drawn for slot t are the device messages the plan lists
    for it, in plan order: one SIC chain decodes com and qom slots alike,
    and the pairing enters only through the buffers.  The block's arrays and
    temporaries are views of ``buffers``, so the next resolve into them
    overwrites them; every element is written before it is read.
    """
    topo, policy, plan = scenario.topology, scenario.policy, scenario.plan
    budget = scenario.budget
    m, hops = topo.node_count, topo.hop_count
    g0 = budget.gamma_bar0
    bteh = policy.architecture == "BTEH"
    p_m = plan.relay_share
    active = buffers.active[:, :n]
    hop_fades = buffers.hop_fades[:, :n]

    indicators = buffers.take("indicators", (m - 1,), n, bool)
    for r in range(m - 1):
        np.less(buffers.u_eh[r, :n], policy.rho1(r + 2), out=indicators[r])

    # 5. transmit power chain, in units of P0: row t is row t-1 times the
    # hop gain, where node t harvested
    powers = buffers.take("powers", (hops,), n)
    powers[0] = 1.0
    for t in range(2, hops + 1):
        np.multiply(hop_fades[t - 2], omega_factor(policy)
                    * pathloss_linear(topo.hop_distances[t - 2], budget),
                    out=powers[t - 1])
        powers[t - 1] *= powers[t - 2]
        _gate(powers[t - 1], indicators[t - 2])

    # 6. receiver adjustments: harvesting at the receiving relay either
    # compresses the information window, giving each trial one of two time
    # factors, or splits the received power
    recv = indicators[:hops]
    counts = [0, 0]

    def decode(y, t, terms):
        return _chain(y, tfs, recv[t - 1] if bteh else None, terms, counts)

    # 7. hop decoding; with devices present, the relayed message is decoded
    # over the device messages the plan lists
    ell_hop = pathloss_linear(np.asarray(topo.hop_distances), budget)[:, None]
    hop_snr = buffers.take("hop_snr", (hops,), n)
    np.multiply(g0, powers, out=hop_snr)
    hop_snr *= ell_hop
    hop_snr *= hop_fades
    if bteh:
        tfs = (1.0 / (m - 1), (1.0 - policy.alpha) / (m - 1))
        eff = hop_snr
    else:
        tfs = (1.0 / (m - 1),)
        # hop_snr times the power split 1 - beta * recv
        eff = buffers.take("eff", (hops,), n)
        np.multiply(recv, policy.beta, out=eff)
        np.subtract(1.0, eff, out=eff)
        eff *= hop_snr
    relayed = (p_m, 1.0 - p_m, plan.relay_rate)
    hop_ok = buffers.take("hop_ok", (hops,), n, bool)
    for t in range(1, hops + 1):
        hop_ok[t - 1] = decode(eff[t - 1], t, [(1.0, 0.0, plan.relay_rate)])
        if p_m < 1.0:
            hop_ok[t - 1] = _either(active[t - 1], [
                hop_ok[t - 1], decode(eff[t - 1], t, [relayed])])
    prefix_ok = buffers.take("prefix_ok", (hops,), n, bool)
    np.copyto(prefix_ok, hop_ok)
    for t in range(1, hops):
        prefix_ok[t] &= prefix_ok[t - 1]
    # slot t serves its devices iff its transmitter holds the message,
    # i.e. hops 1..t-1 all succeeded; the slot's own hop is a separate event
    msg_ok = buffers.take("msg_ok", (hops,), n, bool)
    msg_ok[0] = True
    msg_ok[1:] = prefix_ok[:-1]

    # 8. device decoding: every device first peels the relayed message off
    # the superposition, then every weaker-protected message n > k the plan
    # lists, then its own; a qom slot lists its one device
    device_snr = device_ok = throughput = None
    if devices:
        device_snr, device_ok = [], []
        row = buffers.take("row", (), n)  # one row of float scratch
        throughput = buffers.take("throughput", (), n)
        np.multiply(prefix_ok[-1], plan.relay_rate, out=throughput)
        device_gain = buffers.device_gain(budget)
        for t in range(1, hops + 1):
            ell_dev = device_gain[t - 1][:, :n]
            fade = buffers.device_fade[t - 1][:, :n]
            served = active[t - 1]
            count = ell_dev.shape[0]
            snr = buffers.take(("device_snr", t), (count,), n)
            np.multiply(g0, powers[t - 1], out=row)
            np.multiply(row, ell_dev, out=snr)
            snr *= fade
            ok = buffers.take(("device_ok", t), (count,), n, bool)
            shares = plan.device_shares[t - 1]
            targets = plan.device_rates[t - 1]
            below = np.cumsum((0.0,) + shares)
            for k in range(count, 0, -1):
                peels = [(shares[nn - 1], below[nn - 1], targets[nn - 1])
                         for nn in range(count, k - 1, -1)]
                np.bitwise_and(served,
                               decode(snr[k - 1], t, [relayed] + peels),
                               out=ok[k - 1])
                np.multiply(msg_ok[t - 1] & ok[k - 1], targets[k - 1],
                            out=row)
                throughput += row
            device_snr.append(snr)
            device_ok.append(ok)
        throughput /= m - 1

    supply_units = buffers.take("supply_units", (), n, np.int64)
    np.sum(indicators[:hops - 1], axis=0, out=supply_units)
    np.subtract(hops, supply_units, out=supply_units)
    return _Block(n=n, indicators=indicators, active=active, powers=powers,
                  hop_snr=hop_snr, hop_ok=hop_ok, device_snr=device_snr,
                  device_ok=device_ok, prefix_ok=prefix_ok, msg_ok=msg_ok,
                  supply_units=supply_units, throughput=throughput,
                  guard_counts=tuple(counts))


# what a run's rows read besides its outage events: the moment sums the
# scalar metrics are built from
_MOMENTS = (("throughput",), ("supply_power",))
_DEVICE_KINDS = ("device", "e2e_device")


@dataclass
class Tallies:
    """Event counts and moment sums of one simulated run of ``scenario``,
    for what its rows read (``reads``): the successes of each decode event
    read, keyed by its outage selector ``(kind, *args)`` (``decoded``),
    the active-disk trials of each slot whose device events are read
    (``present``), and the throughput and supply-power moment sums if
    read.  A device event implies its disk is active, so its failures are
    ``present`` minus its successes.

    ``reads`` holds outage selectors in :meth:`Scenario.check_selector`
    form and the moments ``("throughput",)`` and ``("supply_power",)``;
    None reads every event the scenario has and both moments.  A selector
    the scenario rejects is left out, so reading it raises the scenario's
    error.  Reading what was not tallied raises ``ValueError``, never a
    partial count.
    """

    scenario: Scenario
    reads: frozenset = None
    trials: int = 0
    decoded: Counter = field(default_factory=Counter)
    present: Counter = field(default_factory=Counter)
    throughput_sum: float = 0.0
    throughput_sumsq: float = 0.0
    supply_w_sum: float = 0.0
    supply_w_sumsq: float = 0.0

    def __post_init__(self):
        s = self.scenario
        if self.reads is None:
            hops = range(1, s.topology.hop_count + 1)
            self.reads = [("hop", t) for t in hops] + [("e2e_destination",)] \
                + [(kind, t, k) for t in hops for k in s.served(t)
                   for kind in _DEVICE_KINDS] + list(_MOMENTS)
        reads = set()
        for read in map(tuple, self.reads):
            if read not in _MOMENTS:
                try:
                    kind, args = s.check_selector(read)
                except ValueError:
                    continue
                read = (kind, *args)
            reads.add(read)
        self.reads = frozenset(reads)

    @property
    def decodes_devices(self) -> bool:
        """Whether the run reads a device event or the throughput, which
        sums the device rates: its blocks must decode device messages."""
        return any(read[0] in _DEVICE_KINDS + ("throughput",)
                   for read in self.reads)

    def add(self, block: _Block, used: int) -> None:
        """Count what the run reads of the first ``used`` trials of one
        resolved block."""
        cut = slice(0, used)
        self.trials += used
        slots = set()
        for read in self.reads:
            kind = read[0]
            if kind == "hop":
                row = block.hop_ok[read[1] - 1, cut]
            elif kind == "e2e_destination":
                row = block.prefix_ok[-1, cut]
            elif kind in _DEVICE_KINDS:
                t, k = read[1:]
                slots.add(t)
                row = block.device_ok[t - 1][
                    self.scenario.served(t).index(k), cut]
                if kind == "e2e_device":
                    row = row & block.msg_ok[t - 1, cut]
            else:
                continue
            self.decoded[read] += int(np.count_nonzero(row))
        for t in slots:
            self.present[t] += int(np.count_nonzero(block.active[t - 1, cut]))
        if ("throughput",) in self.reads:
            tp = block.throughput[cut]
            self.throughput_sum += float(tp.sum())
            self.throughput_sumsq += float((tp * tp).sum())
        if ("supply_power",) in self.reads:
            watts = self.scenario.budget.P0 * block.supply_units[cut]
            self.supply_w_sum += float(watts.sum())
            self.supply_w_sumsq += float((watts * watts).sum())

    def _check_read(self, read: tuple, selector) -> None:
        if read not in self.reads:
            raise ValueError(f"{selector!r} was not tallied for this run")

    def outage(self, selector) -> Estimate:
        """Outage estimate of one decode event.

        Selectors are those of :meth:`Scenario.check_selector`; ``k=None``
        addresses the qom device.  Device estimates condition on the slot's
        disk being active, so their trial count is the number of
        conditioning trials.
        """
        kind, args = self.scenario.check_selector(selector)
        self._check_read((kind, *args), selector)
        base = self.present[args[0]] if kind in _DEVICE_KINDS else self.trials
        return Estimate.from_binomial(base - self.decoded[(kind, *args)], base)

    def throughput(self) -> Estimate:
        """Mean delivered rate per block from exact joint end-to-end events."""
        self._check_read(("throughput",), "throughput")
        return Estimate.from_moments(self.throughput_sum,
                                     self.throughput_sumsq, self.trials)

    def supply_power(self) -> Estimate:
        """Mean grid-supplied transmit power in watts; harvests are free."""
        self._check_read(("supply_power",), "supply_power")
        return Estimate.from_moments(self.supply_w_sum, self.supply_w_sumsq,
                                     self.trials)


def _block_rng(seed: int, b: int) -> np.random.Generator:
    """The counter-derived stream of block ``b`` of a run."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(b,))))


def simulate_plan(runs, reads=None) -> dict:
    """Tallies of every ``(scenario, seed, n_trials)`` run, as one plan.

    ``reads`` maps a run to what its rows read (see :class:`Tallies`); a
    run without an entry is tallied in full.  Scenarios of one seed that
    share pairing and topology read the same draws: each block is drawn
    once, resolved once per scenario and tallied into every trial count
    asked of it, in block order.  A block decodes a scenario's device
    messages only if a run reading that block reads a device event or the
    throughput, and draws device geometry only if some scenario decodes
    them.  So each entry equals its run simulated alone on everything the
    run reads.  A failed run maps to its exception.
    """
    reads = reads or {}
    out, groups = {}, {}
    for scenario, seed, n in runs:
        if n <= 0:
            out[scenario, seed, n] = ValueError(
                f"trial count must be positive, got {n}")
        else:
            groups.setdefault((scenario.scheme.pairing, scenario.topology,
                               seed), {}).setdefault(scenario, {})[n] = \
                Tallies(scenario, reads.get((scenario, seed, n)))
    for (_, _, seed), cuts in groups.items():
        out.update(_simulate_group(seed, cuts))
    return out


def _simulate_group(seed: int, cuts: dict) -> dict:
    """Tallies of one draw group's runs, ``cuts`` mapping each scenario to
    the tallies of its runs at ``seed`` by trial count.  Blocks are drawn
    in full, so a longer run extends a shorter one, and resolved only as
    wide as the longest run reads.  The group's buffer set and every
    block's views of it are freed on return, before the next group
    allocates its own."""
    failed, spent, start = {}, {}, time.perf_counter()
    # blocks drawn, of them without device geometry; trials resolved
    # without device decoding
    drawn, hop_only, undecoded = 0, 0, 0
    buffers = _Buffers(next(iter(cuts)), BLOCK_SIZE)
    for b in range(-(-max(map(max, cuts.values())) // BLOCK_SIZE)):
        lo = b * BLOCK_SIZE
        # a scenario decodes its devices in block b only for a run reading
        # the block that needs them; the block draws device geometry only
        # for a scenario that decodes them
        devices = {s: any(tal.decodes_devices
                          for n, tal in tallies.items() if n > lo)
                   for s, tallies in cuts.items() if s not in failed}
        geometry = any(devices.values())
        pending = True
        for s, tallies in cuts.items():
            width = min(BLOCK_SIZE, max(tallies) - lo)
            if s in failed or width <= 0:
                continue
            try:
                if pending:
                    _draw(buffers, _block_rng(seed, b), geometry)
                    drawn, hop_only = drawn + 1, hop_only + (not geometry)
                    pending = False
                tick = time.perf_counter()
                block = _resolve(s, buffers, width, devices[s])
                for n, tal in tallies.items():
                    if n > lo:
                        tal.add(block, min(BLOCK_SIZE, n - lo))
            except Exception as exc:
                # without its traceback, whose frames hold the buffer set
                failed[s] = exc.with_traceback(None)
                continue
            undecoded += 0 if devices[s] else width
            # seconds, trials, trials in guard bands, whole-row tests
            done = (time.perf_counter() - tick, width, *block.guard_counts)
            spent[s.scheme.value] = tuple(map(sum, zip(
                spent.get(s.scheme.value, (0.0, 0, 0, 0)), done)))
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("%s draws, seed %d: %d blocks drawn (%d without device "
                     "geometry), %d scenarios resolved, %d trials resolved "
                     "(%d without device decoding) in %.3f s, "
                     "%d workspace bytes allocated once; %s",
                     buffers.pairing or "bare", seed, drawn, hop_only,
                     len(cuts), sum(v[1] for v in spent.values()), undecoded,
                     time.perf_counter() - start, buffers.nbytes,
                     ", ".join(f"{k} {t:.3f} s {n / t:.0f} trials/s "
                               f"({g} in guard bands, {e} whole-row rate "
                               "tests)"
                               for k, (t, n, g, e) in spent.items()))
    return {(s, seed, n): failed.get(s, tal)
            for s, tallies in cuts.items() for n, tal in tallies.items()}


def simulate(scenario: Scenario, n_trials: int, seed: int) -> Tallies:
    """Tallies of one run, simulated alone; raises the run's failure."""
    run = (scenario, seed, n_trials)
    tallies = simulate_plan([run])[run]
    if isinstance(tallies, Exception):
        raise tallies
    return tallies
