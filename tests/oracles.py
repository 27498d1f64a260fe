"""Reference routes the tests check the library against; no sweep or CLI
path reads them.  Each is an independent or per-trial route to a quantity
the library computes another way."""

from __future__ import annotations

import copy
import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Tuple

import numpy as np
from scipy.special import gammainc

from nomarelay import analytics, experiments, montecarlo, specfun as sf
from nomarelay.channel import FitBook, FittedGainDistribution, LinkBudget, \
    pathloss_linear
from nomarelay.geometry import CoverageDisk, log_null_probability
from nomarelay.montecarlo import BLOCK_SIZE, Estimate, _block_rng
from nomarelay.network import NetworkTopology, Scenario
from nomarelay.power import EhPolicy, omega_factor
from nomarelay.specfun import UnsupportedSpecError

EULER_GAMMA = 0.5772156649015328606


# --- geometry: disk sampling and distance laws ---

_KINDS = ("active", "inactive")


def as_generator(rng_seed) -> np.random.Generator:
    """A Philox generator from a seed, a ``SeedSequence`` or a generator."""
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    if not isinstance(rng_seed, np.random.SeedSequence):
        rng_seed = np.random.SeedSequence(rng_seed)
    return np.random.Generator(np.random.Philox(rng_seed))


@dataclass(frozen=True)
class PointPattern:
    """One realization of a device process on a disk."""

    points: np.ndarray  # shape (n, 2), centred on the disk's transmitter
    parent_density: float
    kind: str
    disk: CoverageDisk = field(repr=False, default=None)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def sample_hppp_disk(disk: CoverageDisk, kind: str, rng_seed,
                     density_inactive: float = 0.0) -> PointPattern:
    """One HPPP realization on the disk, at the disk's density for active
    devices and at ``density_inactive`` for inactive ones: a Poisson count,
    then uniform points by radius inversion (r = R sqrt(u))."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    density = disk.density_active if kind == "active" else density_inactive
    rng = as_generator(rng_seed)
    count = rng.poisson(density * math.pi * disk.radius**2)
    radii = disk.radius * np.sqrt(rng.random(count))
    angles = 2.0 * math.pi * rng.random(count)
    points = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    return PointPattern(points=points, parent_density=density, kind=kind, disk=disk)


def null_probability(density: float, radius: float) -> float:
    """Probability that a disk of this radius holds no point of the process."""
    return math.exp(log_null_probability(density, radius))


def annulus_bounds(disk: CoverageDisk,
                   annulus_index: int) -> Tuple[float, float]:
    """Radial bounds [lo, hi) of the 1-based equal-width annulus."""
    k = _check_annulus(disk, annulus_index)
    width = disk.radius / disk.subarea_count
    return (k - 1) * width, k * width


def _check_annulus(disk: CoverageDisk, annulus_index: int) -> int:
    k = int(annulus_index)
    if k != annulus_index or not 1 <= k <= disk.subarea_count:
        raise ValueError(
            f"annulus index {annulus_index} outside 1..{disk.subarea_count}")
    return k


def annulus_distance_pdf(annulus_index: int, disk: CoverageDisk, distance: float) -> float:
    """Scheduled-device distance density in annulus k of K:
    ``2 K^2 r / ((2k-1) R^2)`` on ``[(k-1)R/K, kR/K)``."""
    k = _check_annulus(disk, annulus_index)
    if distance < 0.0:
        raise ValueError(f"distance must be non-negative, got {distance}")
    lo, hi = annulus_bounds(disk, k)
    if not lo <= distance < hi:
        return 0.0
    kt = disk.subarea_count
    return 2.0 * kt**2 * distance / ((2 * k - 1) * disk.radius**2)


def sample_annulus_distance(annulus_index: int, disk: CoverageDisk, rng_seed) -> float:
    """Draw one scheduled-device distance by inverting the annulus CDF:
    ``r = (R/K) sqrt((k-1)^2 + (2k-1) u)``."""
    k = _check_annulus(disk, annulus_index)
    rng = as_generator(rng_seed)
    u = rng.random()
    kt = disk.subarea_count
    return disk.radius / kt * math.sqrt((k - 1) ** 2 + (2 * k - 1) * u)


def sample_nearest_distance(disk: CoverageDisk, rng_seed):
    """Distance to the nearest active device, or ``None`` for an empty
    disk: one draw inverts the untruncated contact CDF, and a draw beyond
    the radius has exactly the null probability."""
    lam = disk.density_active
    if lam <= 0.0:
        raise ValueError("nearest-distance law needs a positive active density")
    rng = as_generator(rng_seed)
    u = rng.random()
    distance = math.sqrt(-math.log1p(-u) / (math.pi * lam))
    if distance > disk.radius:
        return None
    return distance


# --- power: one realization of the harvest chain ---

@dataclass(frozen=True)
class EhRealization:
    """Harvest indicator draws for nodes 2..M (node 1 never harvests)."""

    indicators: tuple

    def __post_init__(self):
        ind = tuple(int(i) for i in self.indicators)
        if any(i not in (0, 1) for i in ind):
            raise ValueError("indicators must be 0/1 bits")
        object.__setattr__(self, "indicators", ind)

    def indicator(self, node: int) -> int:
        if node == 1:
            return 0
        return self.indicators[node - 2]


def sample_eh_process(policy: EhPolicy, rng_seed) -> EhRealization:
    rng = as_generator(rng_seed)
    draws = rng.random(policy.node_count - 1)
    bits = tuple(int(u < policy.rho[node - 1])
                 for node, u in zip(range(2, policy.node_count + 1), draws))
    return EhRealization(indicators=bits)


def transmit_power(t: int, realization: EhRealization, hop_gains,
                   policy: EhPolicy, budget: LinkBudget) -> float:
    """Transmit power of node t, resolving the harvest chain behind it.

    ``hop_gains[j]`` is the channel gain of the link received by node
    ``j + 2``.  A harvesting node relays ``P0 * prod(Omega_i * gain_i)``
    back to the most recent non-harvesting node.
    """
    m = policy.node_count
    if not 1 <= t <= m - 1:
        raise ValueError(f"transmitter index {t} outside 1..{m - 1}")
    if realization.indicator(t) == 0:
        return budget.P0
    tau = t - 1
    while realization.indicator(tau) == 1:
        tau -= 1
    power = budget.P0
    for i in range(tau + 1, t + 1):
        gain = hop_gains[i - 2]
        if gain <= 0.0:
            raise ValueError(f"hop gain for node {i} must be positive, got {gain}")
        power *= omega_factor(policy) * gain
    return power


def transmit_power_recursive(t: int, realization: EhRealization, hop_gains,
                             policy: EhPolicy, budget: LinkBudget) -> float:
    """Same chain written as the step-by-step recursion."""
    m = policy.node_count
    if not 1 <= t <= m - 1:
        raise ValueError(f"transmitter index {t} outside 1..{m - 1}")
    power = budget.P0
    for i in range(2, t + 1):
        if realization.indicator(i) == 1:
            power = omega_factor(policy) * hop_gains[i - 2] * power
        else:
            power = budget.P0
    return power


# --- montecarlo: single trials and empirical survival curves ---

@dataclass(frozen=True)
class TrialOutcome:
    """One resolved relaying block; the device tuples hold one entry per
    served device of each slot (com: subarea order; qom: the nearest)."""

    eh_indicators: tuple
    device_present: tuple
    powers_w: tuple
    hop_rates: tuple
    hop_success: tuple
    device_rates: tuple
    device_success: tuple


def shipped_scenarios() -> list:
    """Every distinct scenario a sweep of a shipped config simulates."""
    found = {}
    configs = Path(__file__).resolve().parent.parent / "configs"
    for path in sorted(configs.glob("*.yaml")):
        config = experiments.load_config(path)
        core = experiments._SweepCore(config)
        selectors = [experiments.parse_metric(metric)
                     for metric in config.sweep.metrics]
        for _, _, scenario in experiments._points(config, {}):
            for selector in selectors:
                for s, _, _ in core.simulation_runs(scenario, selector):
                    found.setdefault(s, None)
    return list(found)


def plan_chains(scenario: Scenario) -> set:
    """Every ``(tfs, terms)`` rate-test chain a scenario's plan defines:
    the hop's relayed message decoded alone and over the device messages,
    and the SIC chain of each served device, each at every time factor of
    the policy (two under time-switching, ``tfs[1]`` where the receiving
    relay harvests).  The simulator asks each chain at one time factor
    per receiver harvest state."""
    plan, policy = scenario.plan, scenario.policy
    m = scenario.topology.node_count
    tfs = (1.0 / (m - 1),)
    if policy.architecture == "BTEH":
        tfs += ((1.0 - policy.alpha) / (m - 1),)
    relayed = (plan.relay_share, 1.0 - plan.relay_share, plan.relay_rate)
    chains = [[(1.0, 0.0, plan.relay_rate)], [relayed]]
    for t in range(1, scenario.topology.hop_count + 1):
        count = len(scenario.served(t))
        shares, targets = plan.device_shares[t - 1], plan.device_rates[t - 1]
        below = np.cumsum((0.0,) + shares)
        chains += [[relayed] + [(shares[nn - 1], below[nn - 1],
                                 targets[nn - 1])
                                for nn in range(count, k - 1, -1)]
                   for k in range(count, 0, -1)]
    return {(tfs, tuple(tuple(float(v) for v in term) for term in terms))
            for terms in chains}


def draw_in_full(buffers, rng: np.random.Generator, scenario: Scenario,
                 devices: bool = True) -> None:
    """:func:`nomarelay.montecarlo._draw`, then, if ``devices``,
    :func:`nomarelay.montecarlo._draw_devices` for the device group of
    ``scenario``, drawing every row in full at the set's width: every
    uniform row, the destination's harvest row and each certain activity
    row too, and every row of the fades, with each disk's activity
    probability derived here, and each device distance turned into its
    path gain in the same float operations."""
    buffers.devices = None
    hops = buffers.hop_fades.shape[0]
    rng.random(out=buffers.u_eh)
    # the destination's harvest row, which the set does not hold; the hop
    # fades are drawn later, so their first row holds it meanwhile
    rng.random(out=buffers.hop_fades[0])
    for t in range(1, hops + 1):
        u = buffers.hop_fades[t - 1]
        rng.random(out=u)
        for topo, rows in buffers.active.items():
            p_active = -math.expm1(log_null_probability(
                topo.density_active, topo.disk_radii[t - 1]))
            np.less(u, p_active, out=rows[t - 1])
    rng.standard_exponential(out=buffers.hop_fades)
    if not devices:
        return
    topo, pairing = scenario.topology, scenario.scheme.pairing
    for t in range(1, hops + 1):
        dist = buffers.device_gain[t - 1][:len(scenario.served(t))]
        radius = topo.disk_radii[t - 1]
        if pairing == "com":
            kt = topo.subarea_counts[t - 1]
            ks = np.arange(1, kt + 1, dtype=float)[:, None]
            rng.random(out=dist)
            dist *= 2.0 * ks - 1.0
            dist += (ks - 1.0) ** 2
            np.sqrt(dist, out=dist)
            dist *= radius / kt
        elif pairing == "qom":
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
        pathloss_linear(dist, scenario.budget, out=dist)
        rng.standard_exponential(out=buffers.device_fade[t - 1][:len(dist)])
    buffers.devices = montecarlo._device_key(scenario)


def drawn_alone(scenario: Scenario, rng: np.random.Generator, width: int,
                trials: int = None, devices: bool = True):
    """A buffer set of ``width`` for ``scenario`` alone holding one block of
    ``rng`` drawn as far as ``trials`` (the whole width by default), with
    its device draws if ``devices``, as a stream group of one scenario
    draws it."""
    trials = width if trials is None else trials
    buffers = montecarlo._Buffers([scenario], width)
    montecarlo._draw(buffers, rng, trials)
    if devices:
        montecarlo._draw_devices(buffers, rng, scenario, trials)
    return buffers


def _pick(values, sel):
    """``values[1]`` where the mask ``sel`` holds, else ``values[0]``
    (everywhere when ``sel`` is None)."""
    return values[0] if sel is None else np.where(sel, values[1], values[0])


def _masked_either(sel, masks):
    """:func:`nomarelay.montecarlo._either`, or ``masks[0]`` when ``sel`` is
    None."""
    return masks[0] if sel is None else montecarlo._either(sel, masks)


def masked_chain(y, tfs, sel, terms, stats):
    """:func:`nomarelay.montecarlo._chain` at a time factor per trial:
    ``tfs[1]`` in the trials the mask ``sel`` marks and ``tfs[0]``
    elsewhere (everywhere when ``sel`` is None), through one guard band per
    time factor.  ``stats`` (a :class:`montecarlo.FamilyStats`) gains the
    trials decided in a band and the tests decided over the whole row, a
    test being whole-row if it has no band at some time factor."""
    guarded, exact = [], []
    for term in terms:
        bands = [montecarlo._band(*term, tf) for tf in tfs]
        if None in bands:
            exact.append(term)
        else:
            guarded.append((term, bands))
    if guarded:
        edges = [(max(bands[i][0] for _, bands in guarded),
                  max(bands[i][1] for _, bands in guarded))
                 for i in range(len(tfs))]
        ok = _masked_either(sel, [y >= lo for lo, _ in edges])
        near = ok & ~_masked_either(sel, [y > hi for _, hi in edges])
        if near.any():
            near = np.flatnonzero(near)
            ok[near] = montecarlo._holds(
                y[near], _pick(tfs, None if sel is None else sel[near]),
                [term for term, _ in guarded])
            stats.guarded += near.size
    else:
        ok = np.ones(y.shape, dtype=bool)
    if exact:
        ok &= montecarlo._holds(y, _pick(tfs, sel), exact)
        stats.whole_row += len(exact)
    return ok


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


@dataclass
class MaskedBlock:
    """One scenario's per-trial arrays from :func:`masked_resolve`: the
    fields of :class:`nomarelay.montecarlo._Block`, the power chain and
    the hop and device SNRs each trial saw, and ``stats``, a
    :class:`montecarlo.FamilyStats` holding the trials decided in a guard
    band and the rate tests decided over a whole row."""

    n: int
    indicators: np.ndarray
    active: np.ndarray
    powers: np.ndarray
    hop_snr: np.ndarray
    hop_ok: np.ndarray
    device_snr: list
    device_ok: list
    prefix_ok: np.ndarray
    msg_ok: np.ndarray
    supply_units: np.ndarray
    throughput: np.ndarray
    stats: montecarlo.FamilyStats


def masked_resolve(scenario: Scenario, buffers, n: int,
                   reads=None) -> MaskedBlock:
    """Every decode event of one scenario in the first ``n`` trials of the
    draws in ``buffers``, resolved alone through per-trial masks: the
    power chain gated by each relay's harvest indicator, and each decode
    at the time factor its receiver's indicator selects, in fresh arrays.
    This is the per-scenario route that the simulator's family resolve
    (:func:`nomarelay.montecarlo._resolve`) replaces, and it decides every
    event the same bit for bit.  ``reads`` gates device decoding and the
    moments as there (None: what :class:`nomarelay.montecarlo.Tallies`
    reads of a run tallied in full); a harvest indicator whose probability
    is 0 or 1 is written, and a hop whose disk is certainly idle or active
    is decoded by one chain.  It walks the harvest indicators node by node
    and reads no harvest-state table of the policy, so it stays a
    reference for one."""
    topo, policy, plan = scenario.topology, scenario.policy, scenario.plan
    budget = scenario.budget
    m, hops = topo.node_count, topo.hop_count
    g0 = budget.gamma_bar0
    bteh = policy.architecture == "BTEH"
    p_m = plan.relay_share
    active = buffers.active[topo][:, :n]
    hop_fades = buffers.hop_fades[:, :n]
    if reads is None:
        reads = montecarlo.Tallies(scenario).reads
    devices = montecarlo._decodes_devices(reads)

    indicators = np.empty((m - 1, n), dtype=bool)
    for r in range(m - 1):
        rho = policy.rho1(r + 2)
        if rho in (0.0, 1.0):
            indicators[r] = rho == 1.0
        else:
            np.less(buffers.u_eh[r, :n], rho, out=indicators[r])

    # the transmit power chain, in units of P0: row t is row t-1 times the
    # hop gain, where node t harvested
    powers = np.empty((hops, n))
    powers[0] = 1.0
    for t in range(2, hops + 1):
        rho = policy.rho1(t)
        if rho == 0.0:
            powers[t - 1] = 1.0
            continue
        np.multiply(hop_fades[t - 2], omega_factor(policy)
                    * pathloss_linear(topo.hop_distances[t - 2], budget),
                    out=powers[t - 1])
        powers[t - 1] *= powers[t - 2]
        if rho < 1.0:
            _gate(powers[t - 1], indicators[t - 2])

    # harvesting at the receiving relay either compresses the information
    # window, giving each trial one of two time factors, or splits the
    # received power
    recv = indicators[:hops]
    stats = montecarlo.FamilyStats()
    if bteh:
        tfs = (1.0 / (m - 1), (1.0 - policy.alpha) / (m - 1))
    else:
        tfs = (1.0 / (m - 1),)

    def decode(y, t, terms):
        rho = policy.rho1(t + 1)
        if not bteh or rho not in (0.0, 1.0):
            return masked_chain(y, tfs, recv[t - 1] if bteh else None,
                                terms, stats)
        return masked_chain(y, (tfs[int(rho)],), None, terms, stats)

    ell_hop = pathloss_linear(np.asarray(topo.hop_distances), budget)[:, None]
    hop_snr = np.multiply(g0, powers)
    hop_snr *= ell_hop
    hop_snr *= hop_fades
    if bteh:
        eff = hop_snr
    else:
        # hop_snr times the power split 1 - beta * recv
        eff = np.multiply(recv, policy.beta)
        np.subtract(1.0, eff, out=eff)
        eff *= hop_snr
    solo, relayed = (1.0, 0.0, plan.relay_rate), \
        (p_m, 1.0 - p_m, plan.relay_rate)
    hop_ok = np.empty((hops, n), dtype=bool)
    for t in range(1, hops + 1):
        p_active = buffers.p_active[topo][t - 1]
        if p_m == 1.0 or p_active in (0.0, 1.0):
            hop_ok[t - 1] = decode(eff[t - 1], t,
                                   [relayed if p_active == 1.0 else solo])
        else:
            hop_ok[t - 1] = _masked_either(active[t - 1], [
                decode(eff[t - 1], t, [solo]),
                decode(eff[t - 1], t, [relayed])])
    prefix_ok = hop_ok.copy()
    for t in range(1, hops):
        prefix_ok[t] &= prefix_ok[t - 1]
    msg_ok = np.empty((hops, n), dtype=bool)
    msg_ok[0] = True
    msg_ok[1:] = prefix_ok[:-1]

    # every device first peels the relayed message off the superposition,
    # then every weaker-protected message n > k the plan lists, then its own
    device_snr = device_ok = throughput = None
    if devices:
        device_snr, device_ok = [], []
        if ("throughput",) in reads:
            throughput = np.multiply(prefix_ok[-1], plan.relay_rate)
        if buffers.devices != montecarlo._device_key(scenario):
            raise RuntimeError("this fill drew no device geometry for "
                               f"{scenario.scheme.value}")
        for t in range(1, hops + 1):
            count = len(scenario.served(t))
            ell_dev = buffers.device_gain[t - 1][:count, :n]
            fade = buffers.device_fade[t - 1][:count, :n]
            served = active[t - 1]
            row = np.multiply(g0, powers[t - 1])
            snr = np.multiply(row, ell_dev)
            snr *= fade
            ok = np.empty((count, n), dtype=bool)
            shares = plan.device_shares[t - 1]
            targets = plan.device_rates[t - 1]
            below = np.cumsum((0.0,) + shares)
            for k in range(count, 0, -1):
                peels = [(shares[nn - 1], below[nn - 1], targets[nn - 1])
                         for nn in range(count, k - 1, -1)]
                np.bitwise_and(served,
                               decode(snr[k - 1], t, [relayed] + peels),
                               out=ok[k - 1])
                if throughput is not None:
                    np.multiply(msg_ok[t - 1] & ok[k - 1], targets[k - 1],
                                out=row)
                    throughput += row
            device_snr.append(snr)
            device_ok.append(ok)
        if throughput is not None:
            throughput /= m - 1

    supply_units = None
    if ("supply_power",) in reads:
        supply_units = hops - np.sum(indicators[:hops - 1], axis=0)
    return MaskedBlock(n=n, indicators=indicators, active=active,
                       powers=powers, hop_snr=hop_snr, hop_ok=hop_ok,
                       device_snr=device_snr, device_ok=device_ok,
                       prefix_ok=prefix_ok, msg_ok=msg_ok,
                       supply_units=supply_units, throughput=throughput,
                       stats=stats)


def family_blocks(family, buffers, n: int, reads=None):
    """Each member of ``family`` with a copy of its block from one family
    resolve of the first ``n`` trials in ``buffers`` (a member's arrays
    are overwritten by the next member's), and the family's
    :class:`montecarlo.FamilyStats`: guard-band trials, whole-row tests,
    candidate power and decision rows.
    ``reads`` holds one entry per member, or None for what each member's
    run tallied in full reads; a member whose resolve failed maps to its
    exception."""
    stats = montecarlo.FamilyStats()
    reads = [montecarlo.Tallies(s).reads for s in family] if reads is None \
        else list(reads)
    blocks = {}
    for s, block in montecarlo._resolve(list(family), buffers, n, reads,
                                        stats):
        if not isinstance(block, Exception):
            block = montecarlo._Block(**{
                name: _copied(getattr(block, name))
                for name in montecarlo._Block.__slots__})
        blocks[s] = block
    return blocks, stats


def without_seconds(record):
    """A deep copy of a statistics record (a sweep's, a stream group's or
    a device group's) with every ``seconds`` field zeroed: what is left
    is the same on every rerun."""
    record = copy.deepcopy(record)
    stack = [record]
    while stack:
        item = stack.pop()
        if dataclasses.is_dataclass(item):
            if hasattr(item, "seconds"):
                item.seconds = 0.0
            stack.extend(vars(item).values())
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
    return record


def _copied(value):
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return [row.copy() for row in value]
    return value


def _simulate_block(scenario: Scenario, rng: np.random.Generator, n: int):
    """Draw ``n`` independent relaying blocks and resolve them through the
    masked route."""
    return masked_resolve(scenario, drawn_alone(scenario, rng, n), n)


_LN2 = math.log(2.0)


def reference_decode(scenario: Scenario, block) -> dict:
    """Every decode event of a resolved block, recomputed from its hop and
    device SNRs by evaluating the rate of each hop, relayed message and SIC
    peel and comparing it with its target: the per-peel route that the
    simulator's threshold decoding replaces.  Returns the rates and the
    event arrays of :class:`nomarelay.montecarlo._Block`."""
    topo, policy, plan = scenario.topology, scenario.policy, scenario.plan
    pairing = scenario.scheme.pairing
    m, hops, n = topo.node_count, topo.hop_count, block.n
    p_m = plan.relay_share
    active = block.active
    recv = block.indicators[:hops]
    if policy.architecture == "BTEH":
        time_factor = (1.0 - policy.alpha * recv) / (m - 1)
        split = 1.0
    else:
        time_factor = np.full((hops, n), 1.0 / (m - 1))
        split = 1.0 - policy.beta * recv

    eff = block.hop_snr * split
    if pairing is not None and p_m < 1.0:
        sinr = np.where(active, p_m * eff / ((1.0 - p_m) * eff + 1.0), eff)
    else:
        sinr = eff
    hop_rates = time_factor * np.log1p(sinr) / _LN2
    hop_ok = hop_rates >= plan.relay_rate
    prefix_ok = hop_ok.copy()
    for t in range(1, hops):
        prefix_ok[t] &= prefix_ok[t - 1]
    msg_ok = np.vstack([np.ones((1, n), dtype=bool), prefix_ok[:-1]])

    device_rates, device_ok = [], []
    throughput = plan.relay_rate * prefix_ok[-1].astype(float)
    for t in range(1, hops + 1):
        snr = block.device_snr[t - 1]
        served = active[t - 1]
        count = snr.shape[0]
        rates = np.empty((count, n))
        ok = np.empty((count, n), dtype=bool)
        if count == 0:
            device_rates.append(rates)
            device_ok.append(ok)
            continue
        tf = time_factor[t - 1]
        # every device first peels the relayed message off the superposition
        relayed_ok = tf * np.log1p(p_m * snr / ((1.0 - p_m) * snr + 1.0)) \
            / _LN2 >= plan.relay_rate
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
            # the qom device holds the whole non-relayed share
            target = plan.device_rates[t - 1][0]
            rates[0] = tf * np.log1p((1.0 - p_m) * snr[0]) / _LN2
            ok[0] = served & relayed_ok[0] & (rates[0] >= target)
            throughput += target * (msg_ok[t - 1] & ok[0])
        device_rates.append(rates)
        device_ok.append(ok)
    throughput /= m - 1
    supply_units = hops - block.indicators[:hops - 1].sum(axis=0)
    return dict(hop_rates=hop_rates, hop_ok=hop_ok, prefix_ok=prefix_ok,
                msg_ok=msg_ok, device_rates=device_rates, device_ok=device_ok,
                throughput=throughput, supply_units=supply_units)


def run_block_trial(config: Scenario, rng_seed) -> TrialOutcome:
    """Resolve a single relaying block from the given seed or generator;
    its rates come from :func:`reference_decode`."""
    block = _simulate_block(config, as_generator(rng_seed), 1)
    rates = reference_decode(config, block)
    hops = config.topology.hop_count
    return TrialOutcome(
        eh_indicators=tuple(int(v) for v in block.indicators[:, 0]),
        device_present=tuple(bool(v) for v in block.active[:, 0]),
        powers_w=tuple(config.budget.P0 * float(p)
                       for p in block.powers[:, 0]),
        hop_rates=tuple(float(r) for r in rates["hop_rates"][:, 0]),
        hop_success=tuple(bool(v) for v in block.hop_ok[:, 0]),
        device_rates=tuple(tuple(float(r) for r in row[:, 0])
                           for row in rates["device_rates"]),
        device_success=tuple(tuple(bool(v) for v in block.device_ok[t][:, 0])
                             for t in range(hops)),
    )


def empirical_ccdf_oracle(config: Scenario, variable, grid, n_trials: int,
                          seed: int) -> tuple:
    """One Estimate per grid point of the survival curve of ``("X", t)``,
    the hop SNR, ``("Y", t, k)``, the com device SNR, or ``("Z", t)``, the
    nearest-device SNR; device variables condition on an active slot."""
    if n_trials <= 0:
        raise ValueError(f"trial count must be positive, got {n_trials}")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.any(grid <= 0.0) \
            or np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be positive and strictly increasing")
    kind = variable[0]
    t = variable[1]
    hops = config.topology.hop_count
    if not 1 <= t <= hops:
        raise ValueError(f"slot {t} outside 1..{hops}")
    if kind not in ("X", "Y", "Z"):
        raise ValueError(f"unknown variable {variable!r}")
    pairing = config.scheme.pairing
    if kind == "Y" and pairing != "com":
        raise ValueError("Y requires a com scheme")
    if kind == "Z" and pairing != "qom":
        raise ValueError("Z requires a qom scheme")
    above = np.zeros(grid.size, dtype=np.int64)
    count = 0
    for b in range(-(-n_trials // BLOCK_SIZE)):
        block = _simulate_block(config, _block_rng(seed, b), BLOCK_SIZE)
        cut = slice(0, min(BLOCK_SIZE, n_trials - b * BLOCK_SIZE))
        if kind == "X":
            samples = block.hop_snr[t - 1, cut]
        else:
            row = variable[2] - 1 if kind == "Y" else 0
            samples = block.device_snr[t - 1][row, cut]
            samples = samples[block.active[t - 1, cut]]
        count += samples.size
        above += (samples[None, :] > grid[:, None]).sum(axis=1)
    return tuple(Estimate.from_binomial(int(a), count) for a in above)


# --- channel: dB forms, fixed-distance and annulus gain laws, Fox-H route ---

def watts_to_dbm(watts: float) -> float:
    if watts <= 0.0:
        raise ValueError(f"power must be positive, got {watts}")
    return 10.0 * math.log10(watts) + 30.0


def pathloss_db(x: float, budget: LinkBudget) -> float:
    """Path gain in dB at distance x (negative of the UMi loss expression)."""
    if x <= 0.0:
        raise ValueError(f"distance must be positive, got {x}")
    return (-budget.G_r - budget.G_t + 22.7 + 26.0 * math.log10(budget.f_c)
            - 10.0 * budget.epsilon * math.log10(x))


def lower_incomplete_gamma(a: float, x: float) -> float:
    """gamma(a, x) = int_0^x u^(a-1) e^(-u) du for a > 0, x >= 0, as
    :func:`nomarelay.analytics.nearest_small_gain_coefficient` forms it."""
    return float(gammainc(a, x)) * math.gamma(a)


def cdf_phi(phi, hop_distance: float, budget: LinkBudget):
    """CDF of a fixed-distance hop gain: exponential with mean l(d)."""
    mean = pathloss_linear(hop_distance, budget)
    phi = np.asarray(phi, dtype=float)
    out = -np.expm1(-np.maximum(phi, 0.0) / mean)
    return float(out) if out.ndim == 0 else out


def ccdf_varphi_annulus(phi: float, k: int, disk: CoverageDisk,
                        budget: LinkBudget) -> float:
    """Survival function of the annulus-device gain (distance-mixed fade).

    With c = phi / l(r_t) and a = 2/epsilon,

        Fbar = [2 K^2 / ((2k-1) eps)] c^-a [g(a, c (k/K)^eps) - g(a, c ((k-1)/K)^eps)]

    where g is the lower incomplete gamma function.
    """
    k = _check_annulus(disk, k)
    if phi < 0.0:
        raise ValueError(f"gain must be non-negative, got {phi}")
    if phi == 0.0:
        return 1.0
    eps = budget.epsilon
    kt = disk.subarea_count
    c = phi / pathloss_linear(disk.radius, budget)
    a = 2.0 / eps
    upper = lower_incomplete_gamma(a, c * (k / kt) ** eps)
    lower = lower_incomplete_gamma(a, c * ((k - 1) / kt) ** eps) if k > 1 else 0.0
    return 2.0 * kt**2 / ((2 * k - 1) * eps) * c ** (-a) * (upper - lower)


def cdf_varphi_annulus(phi: float, k: int, disk: CoverageDisk,
                       budget: LinkBudget) -> float:
    if phi < 0.0:
        raise ValueError(f"gain must be non-negative, got {phi}")
    if phi == 0.0:
        return 0.0
    return 1.0 - ccdf_varphi_annulus(phi, k, disk, budget)


def singh_maddala_ccdf(phi, fit: FittedGainDistribution):
    phi = np.maximum(np.asarray(phi, dtype=float), 0.0)
    out = (1.0 + (phi / fit.mu) ** fit.theta) ** (-fit.m)
    return float(out) if out.ndim == 0 else out


def singh_maddala_ccdf_foxh(phi: float, fit: FittedGainDistribution) -> float:
    """Same survival function through its Fox-H layout:
    H^{1,1}_{1,1}[(phi/mu)^-theta | (1,1); (m,1)] / Gamma(m)."""
    if phi <= 0.0:
        raise ValueError(f"gain must be positive, got {phi}")
    spec = FoxSpec(1, 1, 1, 1, ((1.0, 1.0),), ((fit.m, 1.0),))
    x = (phi / fit.mu) ** (-fit.theta)
    return fox_h(spec, x) / math.gamma(fit.m)


def fit_singh_maddala_cached(disk: CoverageDisk, budget: LinkBudget,
                             cache_path: str) -> FittedGainDistribution:
    """One fit through a fresh fit book backed by the sidecar."""
    return FitBook(cache_path).fit(disk, budget)


# --- specfun: Meijer-G / Fox-H symbols dispatched onto the kernel families ---

# tolerance for recognising the restricted parameter layouts
_LAYOUT_ATOL = 1e-9


@dataclass(frozen=True)
class MeijerSpec:
    """Orders and parameter lists of a Meijer-G symbol G^{m,n}_{p,q}[. | a; b]."""
    m: int
    n: int
    p: int
    q: int
    a: Tuple[float, ...]
    b: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        _check_orders(self)


@dataclass(frozen=True)
class FoxSpec:
    """Orders and (coefficient, scale) pairs of a Fox-H symbol."""
    m: int
    n: int
    p: int
    q: int
    a: Tuple[Tuple[float, float], ...]
    b: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "a", tuple((float(u), float(v)) for u, v in self.a))
        object.__setattr__(
            self, "b", tuple((float(u), float(v)) for u, v in self.b))
        _check_orders(self)


def _check_orders(spec) -> None:
    if len(spec.a) != spec.p or len(spec.b) != spec.q:
        raise UnsupportedSpecError(
            f"parameter list lengths ({len(spec.a)}, {len(spec.b)}) do not "
            f"match orders p={spec.p}, q={spec.q}")
    if not (0 <= spec.n <= spec.p and 0 <= spec.m <= spec.q):
        raise UnsupportedSpecError(f"inconsistent orders in {spec}")


def _near(value: float, target: float) -> bool:
    return abs(value - target) <= _LAYOUT_ATOL


def _classify_meijer(spec: MeijerSpec):
    """Map a MeijerSpec onto one of the supported families.

    Returns ("ccdf", n) for G^{n,0}_{0,n}[x | 1,..,1,0]   (product CCDF),
            ("pdf", n)  for G^{n,0}_{0,n}[x | 0,..,0]     (product PDF),
            ("annulus", v, c) for G^{v+1,1}_{1,v+2}[x | 1-c; 1,..,1,0,-c].
    """
    if spec.p == 0 and spec.n == 0 and spec.m == spec.q and spec.q >= 1:
        low = sorted(spec.b)
        n = spec.q
        if all(_near(v, 0.0) for v in low):
            return ("pdf", n)
        if n >= 2 and _near(low[0], 0.0) and all(_near(v, 1.0) for v in low[1:]):
            return ("ccdf", n)
    if (spec.p == 1 and spec.n == 1 and spec.q >= 2 and spec.m == spec.q - 1):
        c = -spec.b[-1]
        v = spec.q - 2
        body = sorted(spec.b[:-1])
        if (0.0 < c < 1.0 and _near(spec.a[0], 1.0 - c)
                and _near(body[0], 0.0)
                and all(_near(u, 1.0) for u in body[1:])):
            return ("annulus", v, c)
    raise UnsupportedSpecError(
        f"Meijer-G layout not in the supported families: {spec}")


def _classify_fox(spec: FoxSpec):
    """Map a FoxSpec onto ("sm_cdf", m) or ("z_kernel", v, theta, m)."""
    if spec.m == 1 and spec.n == 1 and spec.p == 1 and spec.q == 1:
        (a1, alpha1), = spec.a
        (b1, beta1), = spec.b
        if _near(a1, 1.0) and _near(alpha1, 1.0) and _near(beta1, 1.0) and b1 > 0:
            return ("sm_cdf", b1)
    if spec.n == 1 and spec.p == 1 and spec.q == spec.m and spec.q >= 1:
        (a1, alpha1), = spec.a
        if _near(alpha1, 1.0) and a1 < 1.0:
            shape = 1.0 - a1
            anchor = [pr for pr in spec.b if _near(pr[0], 0.0) and _near(pr[1], 1.0)]
            blocks = [pr for pr in spec.b if _near(pr[0], 1.0)]
            if len(anchor) == 1 and len(anchor) + len(blocks) == spec.q:
                if not blocks:
                    return ("z_kernel", 0, 1.0, shape)
                thetas = {round(pr[1], 12) for pr in blocks}
                theta = blocks[0][1]
                if len(thetas) == 1 and theta > 0:
                    return ("z_kernel", len(blocks), theta, shape)
    raise UnsupportedSpecError(
        f"Fox-H layout not in the supported families: {spec}")


def family(kind) -> sf.Family:
    """:func:`nomarelay.specfun._family`, plus the layouts that only
    :func:`meijer_g` and :func:`fox_h` read: the product PDF ("pdf", n),
    whose ladder starts at the pole s=0, and the Singh-Maddala CDF
    ("sm_cdf", m), which the contour alone evaluates."""
    if kind[0] == "pdf":
        return sf.Family(kind, ((0.0, 1.0),) * kind[1], (), (0.0, None),
                         ((0.0, 1.0),))
    if kind[0] == "sm_cdf":
        m = kind[1]
        return sf.Family(kind, ((m, 1.0), (0.0, -1.0)), (), (-m, 0.0), ())
    return sf._family(kind)


def _value(kind, x: float, total: float, tol: float, table) -> float:
    """The value of a family at x > 0, ``total`` minus the library's
    deficit: ``total`` plus the left residues below the crossover, the
    contour value above it."""
    if table is None:
        table = sf.LogGammaTable()
    if x < sf.RESIDUE_CROSSOVER:
        return total + sf._residue_sum(family(kind), x, table)
    return sf._contour_value(family(kind), x, tol, table)


def prod_exp_ccdf(z: float, n: int, means, *, table=None) -> float:
    """Pr[prod of n independent exponentials >= z], means as given:
    G^{n,0}_{0,n}[z/prod(means) | 1,..,1,0]."""
    if z <= 0:
        return 1.0
    x = z / math.prod(means)
    if n == 1:
        return math.exp(-x)
    return _value(("ccdf", n), x, 1.0, 1e-9, table)


def annulus_kernel(x: float, v: int, c_exp: float, *, table=None) -> float:
    """G^{v+1,1}_{1,v+2}[x | 1-c; 1,..,1,0,-c] with c = c_exp = 2/epsilon."""
    if x <= 0:
        raise ValueError(f"annulus_kernel requires x > 0, got x={x!r}")
    return _value(("annulus", v, c_exp), x, 1.0 / c_exp, 1e-9, table)


def nearest_kernel(x: float, v: int, theta: float, m: float, *,
                   table=None) -> float:
    """H^{v+1,1}_{1,v+1}[x | (1-m,1); (0,1),(1,theta)^v]."""
    if x <= 0:
        raise ValueError(f"nearest_kernel requires x > 0, got x={x!r}")
    return _value(("z_kernel", v, theta, m), x, math.gamma(m), 1e-8, table)


def _pdf_kernel(x: float, n: int, tol: float = 1e-9) -> float:
    """G^{n,0}_{0,n}[x | 0,..,0]: PDF of a product of n unit exponentials."""
    if n == 1:
        return math.exp(-x)
    return _value(("pdf", n), x, 0.0, tol, None)


def meijer_g(spec: MeijerSpec, x: float) -> float:
    """Evaluate a supported Meijer-G symbol at x > 0."""
    if x <= 0:
        raise ValueError(f"meijer_g requires x > 0, got x={x!r}")
    kind = _classify_meijer(spec)
    if kind[0] == "ccdf":
        return prod_exp_ccdf(x, kind[1], (1.0,) * kind[1])
    if kind[0] == "pdf":
        return _pdf_kernel(x, kind[1])
    return annulus_kernel(x, kind[1], kind[2])


def fox_h(spec: FoxSpec, x: float) -> float:
    """Evaluate a supported Fox-H symbol at x > 0."""
    if x <= 0:
        raise ValueError(f"fox_h requires x > 0, got x={x!r}")
    kind = _classify_fox(spec)
    if kind[0] == "sm_cdf":
        return sf._contour_value(family(kind), x, 1e-8, sf.LogGammaTable())
    return nearest_kernel(x, kind[1], kind[2], kind[3])


def residue_asymptote(x: float, n: int) -> float:
    """Two-pole approximation of the n+1 factor product CCDF kernel, x -> 0.

    Keeps the residues at s=0 and the order-(n+1) pole at s=-1 only: one
    minus its CDF side, :func:`nomarelay.specfun.residue_asymptote_cdf`.
    """
    if n < 0:
        raise ValueError(f"residue_asymptote requires n >= 0, got n={n}")
    if x <= 0:
        raise ValueError(f"residue_asymptote requires x > 0, got x={x!r}")
    return 1.0 - sf.residue_asymptote_cdf(x, n)


# --- specfun: the pole ladder at once, the contour scan one candidate and
# one panel at a time ---

def pick_abscissa_by_candidate(num, den, window, logx, table) -> float:
    """:func:`nomarelay.specfun._pick_abscissa` scoring each candidate on
    its own scalar grid ``("candidate", c)``."""
    lo, hi = window
    if hi is None:
        cands = [lo + d for d in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0)]
    else:
        width = hi - lo
        cands = list(lo + width * np.linspace(0.05, 0.95, 19))
    best, best_val = cands[0], math.inf
    for c in cands:
        val = sf._log_integrand(complex(c, 0.0), num, den, logx, table,
                                ("candidate", c)).real
        if val < best_val:
            best, best_val = c, val
    return best


def cluster_eagerly(rungs) -> list:
    """:func:`nomarelay.specfun._cluster` as one list: every rung's first
    ``_MAX_POLES`` poles, merged by a set and a sort and clustered at once."""
    poles = [-(first + j) / slope for first, slope in rungs
             for j in range(sf._MAX_POLES)]
    if len(rungs) > 1:
        poles = sorted(set(poles), reverse=True)[:sf._MAX_POLES]
    clusters = [[poles[0]]]
    for p in poles[1:]:
        if clusters[-1][-1] - p < sf._CLUSTER_GAP:
            clusters[-1].append(p)
        else:
            clusters.append([p])
    return clusters


def contour_value_by_panel(family, x: float, tol: float, table=None) -> float:
    """:func:`nomarelay.specfun._contour_value` evaluating one panel
    ``("panel", c, h, k)`` per integrand call."""
    if table is None:
        table = sf.LogGammaTable()
    num, den, window = family.num, family.den, family.window
    logx = math.log(x)
    c = pick_abscissa_by_candidate(num, den, window, logx, table)
    decay = 0.5 * math.pi * (sum(abs(sl) for _, sl in num)
                             - sum(abs(sl) for _, sl in den))
    h = min(1.0, 30.0 / max(1.0, abs(logx)))
    u_cap = max(80.0, 420.0 / decay)
    total = 0.0
    last = math.inf
    quiet = 0
    u = 0.0
    k = 0
    while u < u_cap:
        nodes = u + 0.5 * h * (sf._GL_NODES + 1.0)
        s = c + 1j * nodes
        vals = np.exp(sf._log_integrand(s, num, den, logx, table,
                                        ("panel", c, h, k))).real
        last = 0.5 * h * float(np.dot(sf._GL_WEIGHTS, vals))
        total += last
        u += h
        k += 1
        if abs(last) < tol / 16.0:
            quiet += 1
            if quiet >= 2:
                return total / math.pi
        else:
            quiet = 0
    raise sf.KernelConvergenceError(
        f"Mellin-Barnes contour did not settle for family {family.kind!r} at x={x}",
        achieved=abs(last), target=tol / 16.0)


# --- analytics: the default plan of each pairing ---

def default_plan(scheme, topology: NetworkTopology,
                 policy: EhPolicy) -> analytics.AllocationPlan:
    """``default_allocation`` for the devices ``scheme`` serves, as a sweep
    builds it: one per subarea under com, one (the nearest) per slot under
    qom, through a topology of one subarea per slot."""
    if scheme.pairing == "qom":
        topology = dataclasses.replace(
            topology, subarea_counts=(1,) * topology.hop_count)
    return analytics.default_allocation(topology, policy)


# --- analytics: the diversity slope of an outage curve ---

def diversity_order_estimate(p0_dbm, op_values, floor: float = 1e-290) -> float:
    """Negative log-log outage slope over the last decade of transmit SNR.

    Points at or below the numeric floor are excluded (reported via a
    warning); at least four usable points must remain in the top 10 dB.
    """
    p0 = np.asarray(p0_dbm, dtype=float)
    ops = np.asarray(op_values, dtype=float)
    if p0.shape != ops.shape:
        raise ValueError("grid and outage arrays must align")
    usable = np.isfinite(ops) & (ops > floor)
    if not np.all(usable):
        warnings.warn(f"excluded {int((~usable).sum())} outage points at the "
                      "numeric floor", RuntimeWarning)
    p0, ops = p0[usable], ops[usable]
    if p0.size:
        window = p0 >= p0.max() - 10.0
        p0, ops = p0[window], ops[window]
    if p0.size < 4:
        raise ValueError("need at least four usable points in the last decade")
    slope = np.polyfit(p0 / 10.0, np.log10(ops), 1)[0]
    return -slope


# --- analytics: the mixture laws of the hop, com device and qom device SNRs,
# one argument at a time ---

def _value_mixture(runs, branch) -> float:
    """``branch(w, v, gains)`` summed over harvest runs in run order, then
    clipped to [0,1]."""
    total = 0.0
    for w, v, gains in runs:
        total += branch(w, v, gains)
    return min(max(total, 0.0), 1.0)


def ccdf_X(x: float, t: int, topology: NetworkTopology, policy: EhPolicy,
           budget: LinkBudget) -> float:
    """Survival function of the hop SNR received by node t+1."""
    ell_next = pathloss_linear(topology.hop_distances[t - 1], budget)
    return _value_mixture(
        analytics.harvest_runs(t, topology, policy, budget),
        lambda w, v, gains: w * prod_exp_ccdf(
            x / budget.gamma_bar0, v + 1, gains + (ell_next,)))


def ccdf_Y(y: float, t: int, k: int, topology: NetworkTopology,
           policy: EhPolicy, budget: LinkBudget) -> float:
    """Survival function of the com device SNR in subarea k of slot t."""
    kt = topology.subarea_counts[t - 1]
    eps, c_exp = budget.epsilon, 2.0 / budget.epsilon
    chi_hi = k * k / (2.0 * k - 1.0)
    chi_lo = (k - 1.0) ** 2 / (2.0 * k - 1.0)
    ell_edge = pathloss_linear(topology.disk_radii[t - 1], budget)

    def branch(w, v, gains):
        c_tau = y / (budget.gamma_bar0 * ell_edge * math.prod(gains))
        term = chi_hi * annulus_kernel(c_tau * (k / kt) ** eps, v, c_exp)
        if k > 1:
            term -= chi_lo * annulus_kernel(c_tau * ((k - 1) / kt) ** eps,
                                            v, c_exp)
        return w * c_exp * term
    return _value_mixture(analytics.harvest_runs(t, topology, policy, budget),
                          branch)


def ccdf_Z(z: float, t: int, topology: NetworkTopology, policy: EhPolicy,
           budget: LinkBudget, fit: FittedGainDistribution) -> float:
    """Survival function of the qom (nearest-device) SNR in slot t."""
    def branch(w, v, gains):
        scale = budget.gamma_bar0 * fit.mu * math.prod(gains)
        return w / math.gamma(fit.m) * nearest_kernel(
            (z / scale) ** fit.theta, v, fit.theta, fit.m)
    return _value_mixture(analytics.harvest_runs(t, topology, policy, budget),
                          branch)


def _law(law, t, topology, policy, budget, ell, *args) -> float:
    """A library mixture law, through a private kernel memo, with the
    path gain ``ell`` it reads."""
    return law(analytics.KernelMemo(),
               analytics.harvest_runs(t, topology, policy, budget), t,
               budget, ell, *args)


def _law_at_edge(law, t, topology, policy, budget, *args) -> float:
    """A device law of slot t, which reads its disk-edge path gain."""
    return _law(law, t, topology, policy, budget,
                pathloss_linear(topology.disk_radii[t - 1], budget),
                topology, *args)


def _law_at_hop(t, topology, policy, budget, *args) -> float:
    """The hop law of slot t, which reads its hop's path gain."""
    return _law(analytics._hop_law, t, topology, policy, budget,
                pathloss_linear(topology.hop_distances[t - 1], budget), *args)


def cdf_X(x, t, topology, policy, budget):
    return _law_at_hop(t, topology, policy, budget, False, x)


def cdf_Y(y, t, k, topology, policy, budget):
    return _law_at_edge(analytics._com_law, t, topology, policy, budget, k,
                        False, y)


def cdf_Z(z, t, topology, policy, budget, fit):
    return _law_at_edge(analytics._nearest_law, t, topology, policy, budget,
                        fit, False, z)


def asymptotic_cdf_X(x, t, topology, policy, budget):
    """Residue-series approximation of cdf_X, accurate at high power."""
    return _law_at_hop(t, topology, policy, budget, True, x)


def asymptotic_cdf_Y(y, t, k, topology, policy, budget):
    return _law_at_edge(analytics._com_law, t, topology, policy, budget, k,
                        True, y)


def asymptotic_cdf_Z(z, t, topology, policy, budget):
    return _law_at_edge(analytics._nearest_law, t, topology, policy, budget,
                        None, True, z)
