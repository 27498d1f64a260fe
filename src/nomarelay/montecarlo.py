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
for bit.

Trials are vectorized in fixed-size blocks; block ``b`` of a run draws
from its own counter-derived stream, so a shorter run is a prefix of a
longer one with the same seed.  Blocks are tallied in block order, which
the float moment sums need to come out the same.  A sweep plans its
simulation once (:func:`simulate_plan`): the scenarios of one seed and
node count (a stream group) draw each block's relay chain once
(:func:`_draw`), each pairing, topology and path-loss law (a device
group) its device geometry, held as path gains, the only form the
decisions read (:func:`_draw_devices`), and the scenarios of a device
group of one family (:func:`nomarelay.network.family_key`) and P0, equal
but for their harvest probabilities, are resolved together on candidate
rows, one per harvest run and receiver state of the policy's
harvest-state table (:func:`_resolve`); each member picks its decisions
by its own indicators, bit for bit as if resolved alone.
Nothing certain or unread is drawn or decided per trial but the fades,
which are drawn in full, and a skipped uniform row advances the Philox
stream exactly as far as drawing it would (:func:`_skip`), so a plan
entry equals its run simulated alone on everything its rows read, and
raises on anything else.  Each stream group fills one buffer set
(:class:`_Buffers`) in place, frees it before the next group allocates,
and counts where its work went in one :class:`StreamStats`, which
:func:`simulate_plan` hands to its caller; this module counts and logs
nothing.  :func:`simulate` runs one scenario alone, tallied in full,
through the same plan.  Both yield :class:`Tallies`, whose ``outage``
reads the selector tuples of
:meth:`nomarelay.analytics.SlotMarginals.outage`; nothing is cached
between calls.  Given an active disk, every com annulus holds a
scheduled device.  Single-trial outcomes, empirical survival curves and
the per-scenario masked route, which only the tests read, live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .channel import pathloss_linear
from .geometry import log_null_probability
from .network import Scenario, family_key
from .power import omega_factor

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
    """One family member's per-trial arrays in one resolved block: its
    harvest indicators, the block's disk activity, and its hop, prefix,
    message and device successes.  A block resolved without its devices
    holds None as ``device_ok`` and ``throughput``; one whose runs read no
    throughput or no supply power holds None as ``throughput`` or
    ``supply_units``."""

    __slots__ = ("n", "indicators", "active", "hop_ok", "device_ok",
                 "prefix_ok", "msg_ok", "supply_units", "throughput")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])


class _Buffers:
    """Every array one stream group (the scenarios of one seed and node
    count) fills, at the group's full ``width``: the random numbers of one
    block (:func:`_draw`, :func:`_draw_devices`), the threshold bands per
    rate-test chain (``bands``, see :func:`_chain`), and the arrays
    :func:`_resolve` writes, allocated on first use (:meth:`take`), among
    them the candidate rows of a family.  A group refills one set for every
    block, device group and family; a draw and a resolve read and write
    ``[..., :n]`` views of it.

    ``u_eh`` holds the harvest uniforms of the relays only, and
    ``certain_eh`` marks the relays whose rho is 0 or 1 in every scenario
    of the group, whose rows are never drawn.  ``p_active``
    maps each topology of the group to the activity probability of each
    slot's disk, and ``active`` to its activity rows, one row set per
    distinct tuple of probabilities (``activity``).  The device rows of
    each slot are allocated at the group's largest device count, and a
    device group reads the ``[:count]`` rows of its own fill: the path gain
    of each drawn device distance (``device_gain``) and its fade.
    ``devices`` names the device group (pairing, topology, L, eps) whose
    rows the last fill drew, or is None."""

    def __init__(self, scenarios, width: int):
        scenarios = list(scenarios)
        hops = scenarios[0].topology.hop_count
        self.width = width
        self.u_eh = np.empty((hops - 1, width))
        self.certain_eh = [all(s.policy.rho1(j) in (0.0, 1.0)
                               for s in scenarios) for j in range(2, hops + 1)]
        self.hop_fades = np.empty((hops, width))
        self.p_active, self.active, self.activity = {}, {}, {}
        for topo in dict.fromkeys(s.topology for s in scenarios):
            p_active = tuple(
                -math.expm1(log_null_probability(topo.density_active, radius))
                for radius in topo.disk_radii)
            if p_active not in self.activity:
                self.activity[p_active] = np.empty((hops, width), dtype=bool)
            self.p_active[topo] = p_active
            self.active[topo] = self.activity[p_active]
        counts = [max(len(s.served(t)) for s in scenarios)
                  for t in range(1, hops + 1)]
        self.device_gain = [np.empty((k, width)) for k in counts]
        self.device_fade = [np.empty((k, width)) for k in counts]
        self.devices, self.arrays, self.bands = None, {}, {}

    def take(self, name, rows: tuple, n: int, dtype=float) -> np.ndarray:
        """Array ``name`` of shape ``rows + (n,)``; its values are stale."""
        key = (name, rows, dtype)
        if key not in self.arrays:
            self.arrays[key] = np.empty(rows + (self.width,), dtype=dtype)
        return self.arrays[key][..., :n]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in [
            self.u_eh, *self.activity.values(), self.hop_fades,
            *self.device_gain, *self.device_fade, *self.arrays.values()])


# 64-bit outputs Philox yields per counter step
_PHILOX_OUTPUTS = 4


def _skip(rng: np.random.Generator, k: int) -> None:
    """Advance ``rng`` past ``k`` 64-bit outputs, to the state
    ``rng.bit_generator.random_raw(k)`` leaves: the outputs left in the
    Philox buffer are used up, the counter advanced by whole steps, and
    the ``k % 4`` outputs left over drawn.  Philox is counter-based, so
    the skip costs as much at any ``k``."""
    if k <= 0:
        return
    bit_generator = rng.bit_generator
    held = _PHILOX_OUTPUTS - bit_generator.state["buffer_pos"]
    if k <= held:
        bit_generator.random_raw(k)
        return
    bit_generator.random_raw(held)
    bit_generator.advance((k - held) // _PHILOX_OUTPUTS)
    bit_generator.random_raw((k - held) % _PHILOX_OUTPUTS)


def _uniforms(rng: np.random.Generator, rows, trials: int, skip: int) -> int:
    """Fill the first ``trials`` columns of each row of ``rows`` with
    uniforms, after skipping ``skip`` outputs, as if every row were drawn
    in full; returns the outputs left to skip after the last row."""
    for row in rows:
        _skip(rng, skip)
        rng.random(out=row[:trials])
        skip = row.size - trials
    return skip


def _draw(buffers: _Buffers, rng: np.random.Generator, trials: int) -> int:
    """Draw steps 1-3 of one relaying block into ``buffers``, in place, as
    far as its first ``trials`` trials.  Returns the number of uniform
    rows skipped whole.

    The draw order is part of the determinism contract: harvest
    uniforms, disk activity, hop fades, then per-slot device geometry
    and fades.  Steps 1-3 depend on the node count alone, but for the
    activity probabilities, so every topology and pairing of a stream
    group reads one draw of them; each activity row set compares the same
    uniforms with its own probabilities.

    Every value read equals that of the block drawn in full at the set's
    width, bit for bit.  A uniform takes one 64-bit output, so a uniform
    row fills its first ``trials`` columns and skips the rest of its
    outputs (:func:`_skip`), and a row no comparison can read two ways is
    skipped whole: the destination's harvest row (rho = 0 for every
    policy), which the set does not hold, the harvest row of a relay whose
    rho is 0 or 1 in every scenario of the group (``certain_eh``), which
    keeps its stale values, and the activity row of a slot
    whose disk every topology of the group holds active with probability
    exactly 0 or 1, which is set to that outcome.  An exponential is a
    ziggurat draw that takes a variable number of outputs, so the hop
    fades are always drawn in full.  Each array is filled by the same
    stream calls and float operations, in the same order, as a freshly
    allocated one.
    """
    buffers.devices = None
    width, hops = buffers.width, buffers.hop_fades.shape[0]

    # 1. harvest uniforms of nodes 2..M-1, compared with rho on resolution;
    # the destination's row and every certain relay's are skipped
    skip, skipped = 0, 1
    for row, certain in zip(buffers.u_eh, buffers.certain_eh):
        if certain:
            skip, skipped = skip + width, skipped + 1
        else:
            skip = _uniforms(rng, [row], trials, skip)
    skip += width

    # 2. device activity per slot; the hop fades are drawn next, so their
    # rows hold the activity uniforms meanwhile
    for t in range(hops):
        if any(p_active[t] not in (0.0, 1.0)
               for p_active in buffers.activity):
            u = buffers.hop_fades[t, :trials]
            skip = _uniforms(rng, [buffers.hop_fades[t]], trials, skip)
        else:
            skip += width
            skipped += 1
        for p_active, rows in buffers.activity.items():
            if p_active[t] in (0.0, 1.0):
                rows[t, :trials] = p_active[t] == 1.0
            else:
                np.less(u, p_active[t], out=rows[t, :trials])

    # 3. hop fades; each doubles as the receiving node's harvest input
    _skip(rng, skip)
    rng.standard_exponential(out=buffers.hop_fades.reshape(-1))
    return skipped


def _device_key(scenario: Scenario) -> tuple:
    """The device group of ``scenario``: scenarios of one stream group that
    share pairing, topology and path-loss law read the same device rows."""
    budget = scenario.budget
    return scenario.scheme.pairing, scenario.topology, budget.L, \
        budget.epsilon


def _draw_devices(buffers: _Buffers, rng: np.random.Generator,
                  scenario: Scenario, trials: int) -> None:
    """Draw step 4 of one block, the device geometry and fades of the
    device group of ``scenario``, from ``rng`` left where :func:`_draw`
    ended, into the ``[:count]`` device rows of each slot, as far as
    ``trials``.  Uniform rows fill their first ``trials`` columns and
    skip the rest; the device fades, ziggurat draws like the hop fades,
    are drawn in full.  Each drawn distance becomes its path gain in place
    (``device_gain``), the only form a resolve reads, so a fill serves one
    path-loss law.  A bare chain draws none."""
    topo, pairing = scenario.topology, scenario.scheme.pairing
    hops = topo.hop_count
    buffers.devices = None
    counts = [len(scenario.served(t)) for t in range(1, hops + 1)]
    for t in range(1, hops + 1):
        if not counts[t - 1]:
            continue
        rows = buffers.device_gain[t - 1][:counts[t - 1]]
        dist = rows[:, :trials]
        _skip(rng, _uniforms(rng, rows, trials, 0))
        radius = topo.disk_radii[t - 1]
        if pairing == "com":
            # radius / kt * sqrt((k - 1)^2 + (2k - 1) u) in subarea k
            kt = topo.subarea_counts[t - 1]
            ks = np.arange(1, kt + 1, dtype=float)[:, None]
            dist *= 2.0 * ks - 1.0
            dist += (ks - 1.0) ** 2
            np.sqrt(dist, out=dist)
            dist *= radius / kt
        else:
            # contact law truncated to the disk, valid given activity:
            # sqrt(-log1p(-u * -expm1(-a)) / (pi lambda))
            a = math.pi * topo.density_active * radius * radius
            np.negative(dist, out=dist)
            dist *= -math.expm1(-a)
            np.log1p(dist, out=dist)
            np.negative(dist, out=dist)
            dist /= math.pi * topo.density_active
            np.sqrt(dist, out=dist)
        pathloss_linear(dist, scenario.budget, out=dist)
        rng.standard_exponential(
            out=buffers.device_fade[t - 1][:counts[t - 1]].reshape(-1))
    buffers.devices = _device_key(scenario)


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


def _either(sel, masks):
    """``masks[1]`` where the mask ``sel`` holds, else ``masks[0]``, in bit
    operations: ``np.where`` branches per element and mispredicts on a
    random ``sel``."""
    return masks[0] ^ ((masks[0] ^ masks[1]) & sel)


def _holds(y, tf, terms):
    """Whether every rate test of ``terms`` holds, by the rate formula."""
    ok = np.ones(y.shape, dtype=bool)
    for a, b, target in terms:
        ok &= _rate(y, a, b, tf) >= target
    return ok


def _chain(y, tf, terms, stats, bands):
    """Whether every rate test ``_rate(y, a, b, tf) >= target`` of ``terms``
    holds.

    Each test is monotone in ``y``, so the chain holds iff ``y`` clears the
    largest threshold: one comparison per trial.  Trials inside a guard
    band and tests without a band are decided by ``_rate`` itself, so the
    result equals the rate comparisons bit for bit.  The band edges and
    the split of ``terms`` into guarded and exact tests depend only on
    ``(tf, terms)``, and are derived once per key into the table
    ``bands``.  ``stats`` (a :class:`FamilyStats`) gains the trials
    decided in a band and the tests decided over the whole row.
    """
    key = (tf, *terms)
    if key not in bands:
        found = [_band(*term, tf) for term in terms]
        guarded = [term for term, band in zip(terms, found)
                   if band is not None]
        exact = [term for term, band in zip(terms, found) if band is None]
        # below the highest lower edge some test surely fails; above the
        # highest upper edge every test surely holds
        lo = hi = None
        if guarded:
            lo = max(band[0] for band in found if band is not None)
            hi = max(band[1] for band in found if band is not None)
        bands[key] = lo, hi, guarded, exact
    lo, hi, guarded, exact = bands[key]
    if guarded:
        ok = y >= lo
        near = ok & (y <= hi)
        if near.any():
            near = np.flatnonzero(near)
            ok[near] = _holds(y[near], tf, guarded)
            stats.guarded += near.size
    else:
        ok = np.ones(y.shape, dtype=bool)
    if exact:
        ok &= _holds(y, tf, exact)
        stats.whole_row += len(exact)
    return ok


def _resolve(family, buffers: _Buffers, n: int, reads, stats):
    """Resolve every decode event of each member of ``family``, scenarios
    of one :func:`nomarelay.network.family_key` and P0, so equal in all
    that a resolve reads but for ``policy.rho``, in the first ``n`` trials
    of shared draws, for what the runs reading the block read (``reads``,
    one entry per member in :class:`Tallies` form).  Yields each member
    with its :class:`_Block`, or with the exception its own part raised;
    the next member's block overwrites it.  ``stats`` (a
    :class:`FamilyStats`) gains the trials decided in a guard band, the
    rate tests decided over a whole row, and the candidate power and
    decision rows built.

    A slot's transmit power is 1 or the hop gains along the run of
    harvesting nodes behind its transmitter, and its decode events depend
    on that run and on the receiving relay's harvest state, which each
    member's :meth:`EhPolicy.runs` and :meth:`EhPolicy.states` list, read
    once per resolve.  So, per slot, the family builds one power row per
    run r >= 1 of some member, each run's hop and device SNRs in the float
    order ``((g0 P) l) fade``, and one single-time-factor :func:`_chain`
    decision per (run, receiver state) and event, kept as bool rows.  Each
    member then picks its decisions with bit operations over its own
    harvest indicators (:func:`_either`): a cascade over its runs, longest
    first ("the run passes r iff node t-r harvested"), then one over its
    receiver states.  Every decision equals that of the member resolved
    alone through per-trial masks.  A failure of the shared hop rows fails
    the whole family, one of the device rows the members that decode
    devices; a scheme without harvesting joins the family of the
    harvesting scheme whose plan and policy it shares (com-noeh that of
    tcom, qom-noeh that of tqom), so such a failure fails it too.

    A member's device messages are decoded only if its ``reads`` hold a
    device event or the throughput, else its block's ``device_ok`` and
    ``throughput`` are None; the throughput and the supply units are built
    only if read, else they are None.  The device rows read are the path
    gains and fades of the fill drawn for the family's device group
    (pairing, topology and path-loss law); a fill drawn for another group
    raises ``RuntimeError`` for the members that decode devices.  One SIC
    chain decodes com and qom slots alike over the device messages the
    plan lists, and the pairing enters only through the buffers.  Every
    element of an array is written before a result reads it.
    """
    first = family[0]
    topo, plan, budget = first.topology, first.plan, first.budget
    m, hops = topo.node_count, topo.hop_count
    g0 = budget.gamma_bar0
    bteh = first.policy.architecture == "BTEH"
    p_m = plan.relay_share
    p_actives = buffers.p_active[topo]
    active = buffers.active[topo][:, :n]
    hop_fades = buffers.hop_fades[:, :n]
    # each member's runs at slot t's transmitter and states at its receiver
    tables = [([s.policy.runs(t) for t in range(1, hops + 1)],
               [s.policy.states(t + 1) for t in range(1, hops + 1)])
              for s in family]
    runs = [sorted({r for member, _ in tables for r, _ in member[t - 1]})
            for t in range(1, hops + 1)]
    states = [sorted({i for _, member in tables for i, _ in member[t - 1]})
              for t in range(1, hops + 1)]
    # harvesting at the receiving relay compresses the information window,
    # giving time factor tfs[1], or splits the received power
    tfs = (1.0 / (m - 1),) * 2
    if bteh:
        tfs = (tfs[0], (1.0 - first.policy.alpha) / (m - 1))
    # float scratch: an SNR row, and g0 P of one run for its devices
    y, gp = buffers.take("y", (), n), buffers.take("gp", (), n)

    def decide(s, terms):
        return _chain(y, tfs[s], terms, stats, buffers.bands)

    # 5. transmit power of each run, in units of P0: run 0 is 1, which no
    # row holds, and run r of slot t is run r-1 of slot t-1 times the hop
    # gain node t harvested (the product with run 0's 1 is the gain itself)
    powers = []
    for t in range(1, hops + 1):
        rows = buffers.take(("powers", t), (t,), n) if runs[t - 1][-1] \
            else None
        for r in runs[t - 1]:
            if r == 0:
                continue
            np.multiply(hop_fades[t - 2], omega_factor(first.policy)
                        * pathloss_linear(topo.hop_distances[t - 2], budget),
                        out=rows[r])
            if r > 1:
                rows[r] *= powers[t - 2][r - 1]
            stats.power_rows += 1
        powers.append(rows)

    def snr(r, ell, fade):
        # ((g0 P) ell) fade into y, with g0 P in gp; run 0 transmits at
        # P = 1, and g0 * 1 is g0, so its SNR is (g0 ell) fade
        if r == 0:
            np.multiply(ell, g0, out=y)
        else:
            np.multiply(gp, ell, out=y)
        np.multiply(y, fade, out=y)

    # 6-7. hop decoding per run and receiver state; with devices present,
    # the relayed message is decoded over the device messages the plan lists
    ell_hop = pathloss_linear(np.asarray(topo.hop_distances), budget)
    solo, relayed = (1.0, 0.0, plan.relay_rate), \
        (p_m, 1.0 - p_m, plan.relay_rate)
    hop_rows = []
    for t in range(1, hops + 1):
        rows = buffers.take(("hop", t), (t, 2), n, bool)
        p_active = p_actives[t - 1]
        for r in runs[t - 1]:
            if r:
                np.multiply(g0, powers[t - 1][r], out=gp)
            snr(r, ell_hop[t - 1], hop_fades[t - 1])
            for s in states[t - 1]:
                if s and not bteh:
                    y *= 1.0 - first.policy.beta
                if p_m == 1.0 or p_active in (0.0, 1.0):
                    # the relayed message alone, or over the device
                    # messages of a disk certain to be active: one chain
                    rows[r, s] = decide(
                        s, [relayed if p_active == 1.0 else solo])
                else:
                    rows[r, s] = _either(active[t - 1], [
                        decide(s, [solo]), decide(s, [relayed])])
        hop_rows.append(rows)
        stats.decision_rows += len(runs[t - 1]) * len(states[t - 1])

    # 8. device decoding per run (and, under time-switching, receiver
    # state): every device first peels the relayed message off the
    # superposition, then every weaker-protected message n > k the plan
    # lists, then its own; a qom slot lists its one device
    device_rows = None
    if any(map(_decodes_devices, reads)):
        try:
            if buffers.devices != _device_key(first):
                raise RuntimeError("this fill drew no device geometry for "
                                   f"{first.scheme.value}")
            device_rows = []
            for t in range(1, hops + 1):
                count = len(first.served(t))
                ell_dev = buffers.device_gain[t - 1][:count, :n]
                fade = buffers.device_fade[t - 1][:count, :n]
                # rows of the group's largest device count, shared by every
                # pairing of the stream group
                rows = buffers.take(("device", t),
                                    (len(buffers.device_fade[t - 1]), t, 2),
                                    n, bool)[:count]
                shares = plan.device_shares[t - 1]
                targets = plan.device_rates[t - 1]
                below = np.cumsum((0.0,) + shares)
                chosen = states[t - 1] if bteh else [0]
                for r in runs[t - 1]:
                    if r:
                        np.multiply(g0, powers[t - 1][r], out=gp)
                    for k in range(count, 0, -1):
                        peels = [(shares[nn - 1], below[nn - 1],
                                  targets[nn - 1])
                                 for nn in range(count, k - 1, -1)]
                        snr(r, ell_dev[k - 1], fade[k - 1])
                        for s in chosen:
                            np.bitwise_and(active[t - 1],
                                           decide(s, [relayed] + peels),
                                           out=rows[k - 1, r, s])
                device_rows.append(rows)
                stats.decision_rows += count * len(runs[t - 1]) * len(chosen)
        except Exception as exc:
            # without its traceback, whose frames hold the buffer set
            device_rows = exc.with_traceback(None)

    def member(policy, member_runs, member_states, reads, devices):
        """The block of the member with ``policy``, runs and states, picked
        from the candidate rows by its own harvest indicators."""
        indicators = buffers.take("indicators", (m - 1,), n, bool)
        for j in range(m - 1):
            rho = policy.rho1(j + 2)
            if rho in (0.0, 1.0):
                indicators[j] = rho == 1.0
            else:
                np.less(buffers.u_eh[j, :n], rho, out=indicators[j])

        def by_run(t, rows):
            # rows[r] where node t transmits on run r, longest run first:
            # the run passes r iff node t-r harvested; a member on one run
            # needs no mask
            (r, _), *shorter = member_runs[t - 1]
            out = rows[r]
            for r, _ in shorter:
                out = _either(indicators[t - r - 2], [rows[r], out])
            return out

        def pick(t, rows):
            # rows[r, i] by run, then by the receiver's harvest state i
            (i, _), *others = member_states[t - 1]
            out = by_run(t, rows[:, i])
            for i, _ in others:
                out = _either(indicators[t - 1], [out, by_run(t, rows[:, i])])
            return out

        hop_ok = buffers.take("hop_ok", (hops,), n, bool)
        for t in range(1, hops + 1):
            hop_ok[t - 1] = pick(t, hop_rows[t - 1])
        prefix_ok = buffers.take("prefix_ok", (hops,), n, bool)
        np.copyto(prefix_ok, hop_ok)
        for t in range(1, hops):
            prefix_ok[t] &= prefix_ok[t - 1]
        # slot t serves its devices iff its transmitter holds the message,
        # i.e. hops 1..t-1 all succeeded; the slot's own hop is a separate
        # event
        msg_ok = buffers.take("msg_ok", (hops,), n, bool)
        msg_ok[0] = True
        msg_ok[1:] = prefix_ok[:-1]

        device_ok = throughput = None
        if devices:
            device_ok = []
            if ("throughput",) in reads:
                throughput = buffers.take("throughput", (), n)
                np.multiply(prefix_ok[-1], plan.relay_rate, out=throughput)
            for t in range(1, hops + 1):
                rows = device_rows[t - 1]
                count = rows.shape[0]
                ok = buffers.take(("device_ok", t),
                                  (len(buffers.device_fade[t - 1]),), n,
                                  bool)[:count]
                targets = plan.device_rates[t - 1]
                for k in range(count, 0, -1):
                    ok[k - 1] = pick(t, rows[k - 1]) if bteh \
                        else by_run(t, rows[k - 1, :, 0])
                    if throughput is not None:
                        np.multiply(msg_ok[t - 1] & ok[k - 1], targets[k - 1],
                                    out=y)
                        throughput += y
                device_ok.append(ok)
            if throughput is not None:
                throughput /= m - 1

        supply_units = None
        if ("supply_power",) in reads:
            supply_units = buffers.take("supply_units", (), n, np.int64)
            np.sum(indicators[:hops - 1], axis=0, out=supply_units)
            np.subtract(hops, supply_units, out=supply_units)
        return _Block(n=n, indicators=indicators, active=active,
                      hop_ok=hop_ok, device_ok=device_ok, prefix_ok=prefix_ok,
                      msg_ok=msg_ok, supply_units=supply_units,
                      throughput=throughput)

    for scenario, table, member_reads in zip(family, tables, reads):
        devices = _decodes_devices(member_reads)
        if devices and isinstance(device_rows, Exception):
            yield scenario, device_rows
            continue
        try:
            block = member(scenario.policy, *table, member_reads, devices)
        except Exception as exc:
            block = exc
        yield scenario, block


# what a run's rows read besides its outage events: the moment sums the
# scalar metrics are built from
_MOMENTS = (("throughput",), ("supply_power",))
_DEVICE_KINDS = ("device", "e2e_device")


def _decodes_devices(reads) -> bool:
    """Whether ``reads`` holds a device event or the throughput, which sums
    the device rates: a block read for it must decode device messages."""
    return any(read[0] in _DEVICE_KINDS + ("throughput",) for read in reads)


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


def simulate_plan(runs, reads=None, stats=None) -> dict:
    """Tallies of every ``(scenario, seed, n_trials)`` run, as one plan.

    ``reads`` maps a run to what its rows read (see :class:`Tallies`); a
    run without an entry is tallied in full.  The runs of one seed and
    node count form a stream group: each block's harvest uniforms,
    activity and hop fades are drawn once for all of them, its device
    draws once per device group (pairing, topology and path-loss law), and
    it is resolved once per family (:func:`nomarelay.network.family_key`)
    and P0 and tallied into every trial count asked of each member, in
    block order.  A block is drawn only as far as its widest run reads
    it.  A block decodes a member's device messages only if a run reading
    that block reads a device event or the throughput, builds its
    throughput and supply-power rows only if a run reading the block reads
    them, and draws a device group's geometry only if some member of it
    decodes devices.  So each entry
    equals its run simulated alone on everything the run reads.  A failed
    run maps to its exception.  A list passed as ``stats`` gains the
    :class:`StreamStats` of each stream group, in the order simulated.
    """
    reads, stats = reads or {}, [] if stats is None else stats
    out, groups = {}, {}
    for scenario, seed, n in runs:
        if n <= 0:
            out[scenario, seed, n] = ValueError(
                f"trial count must be positive, got {n}")
        else:
            groups.setdefault((seed, scenario.topology.node_count), {}) \
                .setdefault(scenario, {})[n] = \
                Tallies(scenario, reads.get((scenario, seed, n)))
    for (seed, nodes), cuts in groups.items():
        stats.append(StreamStats(seed, nodes))
        out.update(_simulate_group(cuts, stats[-1]))
    return out


@dataclass
class FamilyStats:
    """Counters of the families of one label (their schemes joined by "+")
    in one device group, summed over blocks.  Band trials and whole-row
    tests are counted on the candidate rows, once per family."""

    seconds: float = 0.0
    trials: int = 0          # resolved, summed over members
    guarded: int = 0         # trials decided in a guard band
    whole_row: int = 0       # rate tests decided over a whole row
    power_rows: int = 0      # candidate rows built
    decision_rows: int = 0

    def add(self, other: "FamilyStats") -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


@dataclass
class DeviceGroupStats:
    """Counters of one device group of a stream group; a family whose
    every member failed adds nothing.  The group's trials resolved are
    the sum of its ``families``' trials.  Groups that differ only in
    their path-loss law share ``pairing`` and ``topology`` and differ in
    ``L`` or ``epsilon``."""

    pairing: str             # "bare" for a chain without devices
    topology: int            # numbered from 1 in the stream group
    L: float                 # path gain at 1 m
    epsilon: float           # path-loss exponent
    scenarios: int
    family_count: int
    blocks: int = 0          # resolved
    hop_only: int = 0        # of them, without device decoding
    undecoded: int = 0       # trials resolved without device decoding
    families: dict = field(default_factory=dict)  # FamilyStats by label


@dataclass
class StreamStats:
    """Counters of one stream group (one seed and node count)."""

    seed: int
    nodes: int
    blocks: int = 0          # drawn
    trials: int = 0          # drawn
    skipped: int = 0         # uniform rows skipped whole
    nbytes: int = 0          # of the buffer set, allocated once
    seconds: float = 0.0
    devices: list = field(default_factory=list)  # DeviceGroupStats


def _simulate_group(cuts: dict, stats: StreamStats) -> dict:
    """Tallies of one stream group's runs, counted into ``stats``; ``cuts``
    maps each scenario to the tallies of its runs by trial count.

    Per block, steps 1-3 are drawn once, as far as the widest run reads
    the block, and the stream's state after them is kept; each device
    group (pairing, topology and path-loss law) that decodes devices there
    restores it and draws its own step 4, as far as its widest member reads
    the block, into the device rows every group shares, which then hold
    its path gains, and resolves its families before the next group draws.
    A longer run extends a shorter one, and each family resolves a block
    as wide as the longest run of a member reads it.  A failed draw, path
    loss included, fails the runs reading it: a failed device draw fails
    the members decoding devices in that block, not those reading only
    hop events.  The group's buffer set and
    every block's views of it are freed on return, before the next group
    allocates its own."""
    failed, start = {}, time.perf_counter()
    groups, topologies = {}, {}
    for s in cuts:
        # a resolve reads one reference SNR, so a family splits by P0
        groups.setdefault(_device_key(s), {}).setdefault(
            (family_key(s), s.budget.P0), []).append(s)
    records = {key: DeviceGroupStats(
        key[0] or "bare", topologies.setdefault(key[1], len(topologies) + 1),
        *key[2:], sum(map(len, families.values())), len(families))
        for key, families in groups.items()}
    stats.devices = list(records.values())
    buffers = _Buffers(cuts, BLOCK_SIZE)
    for b in range(-(-max(map(max, cuts.values())) // BLOCK_SIZE)):
        lo = b * BLOCK_SIZE
        width = {s: min(BLOCK_SIZE, max(cuts[s]) - lo) for s in cuts
                 if s not in failed and max(cuts[s]) > lo}
        if not width:
            continue
        # a scenario resolves block b for what the runs reading the block
        # read; a device group draws its geometry only if a member decodes
        # devices there, as far as its widest member reads the block
        reads = {s: frozenset().union(*(tal.reads for n, tal in
                                        cuts[s].items() if n > lo))
                 for s in width}
        present = {}
        for key, families in groups.items():
            members = [s for family in families.values() for s in family
                       if s in width]
            if members:
                present[key] = members
        decoding = {key: max(map(width.get, members)) if any(
            _decodes_devices(reads[s]) for s in members) else 0
            for key, members in present.items()}
        rng = _block_rng(stats.seed, b)
        try:
            stats.skipped += _draw(buffers, rng, max(width.values()))
        except Exception as exc:
            # without its traceback, whose frames hold the buffer set
            failed.update(dict.fromkeys(width, exc.with_traceback(None)))
            continue
        stats.blocks += 1
        stats.trials += max(width.values())
        state = rng.bit_generator.state
        for key, members in present.items():
            records[key].blocks += 1
            records[key].hop_only += not decoding[key]
            if decoding[key]:
                try:
                    rng.bit_generator.state = state
                    _draw_devices(buffers, rng, members[0], decoding[key])
                except Exception as exc:
                    # the members reading only hop events still resolve
                    exc = exc.with_traceback(None)
                    failed.update((s, exc) for s in members
                                  if _decodes_devices(reads[s]))
            _resolve_group(records[key], groups[key], cuts, buffers, lo,
                           width, reads, failed)
    stats.nbytes, stats.seconds = buffers.nbytes, time.perf_counter() - start
    return {(s, stats.seed, n): failed.get(s, tal)
            for s, tallies in cuts.items() for n, tal in tallies.items()}


def _resolve_group(stats: DeviceGroupStats, families: dict, cuts: dict,
                   buffers: _Buffers, lo: int, width: dict, reads: dict,
                   failed: dict) -> None:
    """Resolve the families of one device group in the block starting at
    trial ``lo`` and tally every run reading it; a member's failure goes
    to ``failed``."""
    for family in families.values():
        family_width = {s: width[s] for s in family
                        if s in width and s not in failed}
        if not family_width:
            continue
        members, record = list(family_width), FamilyStats()
        left = list(members)
        tick = time.perf_counter()
        try:
            for s, block in _resolve(members, buffers,
                                     max(family_width.values()),
                                     [reads[s] for s in members], record):
                left.remove(s)
                try:
                    if isinstance(block, Exception):
                        raise block
                    for n, tal in cuts[s].items():
                        if n > lo:
                            tal.add(block, min(BLOCK_SIZE, n - lo))
                except Exception as exc:
                    failed[s] = exc.with_traceback(None)
        except Exception as exc:
            # without its traceback, whose frames hold the buffer set; a
            # failure before a member's block fails it
            failed.update(dict.fromkeys(left, exc.with_traceback(None)))
        tallied = [s for s in members if s not in failed]
        if not tallied:
            continue
        record.seconds = time.perf_counter() - tick
        record.trials = sum(family_width[s] for s in tallied)
        stats.undecoded += sum(family_width[s] for s in tallied
                               if not _decodes_devices(reads[s]))
        label = "+".join(dict.fromkeys(s.scheme.value for s in family))
        stats.families.setdefault(label, FamilyStats()).add(record)


def simulate(scenario: Scenario, n_trials: int, seed: int) -> Tallies:
    """Tallies of one run, simulated alone; raises the run's failure."""
    run = (scenario, seed, n_trials)
    tallies = simulate_plan([run])[run]
    if isinstance(tallies, Exception):
        raise tallies
    return tallies
