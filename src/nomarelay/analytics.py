"""Closed-form performance layer: thresholds, mixture CDFs, outage, throughput.

The received SNR on any link is a product of independent pieces: the
supply-or-harvested power chain behind the transmitter, one exponential
fade, and (for device links) a random-distance path gain.  Conditioning on
the run length of consecutive harvesting nodes turns every distribution
into a finite mixture whose branches are the product-distribution kernels
from :mod:`nomarelay.specfun`; :func:`harvest_runs` adds hop gains to a
transmitter's runs in the policy's harvest-state table, which the
simulator reads too, and the hop, com and qom laws of its slot read them.
Outage assembles those mixtures in CDF-deficit space so small
probabilities keep relative accuracy, and the small-argument residue
expansions provide the high-power asymptotes.

Every outage of a scenario, and its sum throughput, is read through one
:class:`SlotMarginals`: ``outage`` takes the same selector tuples as
:meth:`nomarelay.montecarlo.Tallies.outage`, so the closed form and the
simulator answer one question the same way.

Every kernel call goes through a :class:`KernelMemo`, which also carries
what P0 and rho do not touch (allocation plans, thresholds, and each
slot's harvest runs, path gains, disk-idle shares and receiver states)
in its ``tables``.  A sweep shares one memo across all its
:class:`SlotMarginals`, so each distinct kernel argument is evaluated
once per sweep.  It also registers each family there (the scenarios of
one :func:`nomarelay.network.family_key`, equal but for P0 and rho): the
family derives its shared state once, and each of its outages is one
walk over the mixtures, which evaluates each unweighted branch once per
run length and reference SNR; each member then adds its own runs'
weights and receiver-state probabilities, its sum kept in its own
float.  An unregistered scenario is a family of one.  A standalone
``SlotMarginals`` gets a private memo, and nothing outlives its owner.
The memo also owns the sweep's :class:`specfun.LogGammaTable`, so the
kernels it evaluates share their gamma factors on the fixed quadrature
grids, and the table goes with the memo.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

from .channel import LinkBudget, pathloss_linear
from .geometry import log_null_probability
from .network import NetworkTopology, Scenario, family_key
from .power import EhPolicy, omega_factor
from .specfun import (  # noqa: F401 - KernelMemo calls the kernels by name
    LogGammaTable,
    annulus_kernel_deficit,
    nearest_kernel_deficit,
    prod_exp_cdf,
    residue_asymptote_cdf,
)

logger = logging.getLogger(__name__)

CLAMP_TOLERANCE = 1e-6


class ProbabilityBoundError(RuntimeError):
    """A computed probability left [0,1] by more than the clamp tolerance."""


def _clamp(p: float, label: str) -> float:
    if 0.0 <= p <= 1.0:
        return p
    if not math.isfinite(p) or p < -CLAMP_TOLERANCE or p > 1.0 + CLAMP_TOLERANCE:
        raise ProbabilityBoundError(f"{label} evaluated to {p!r}")
    if p < 0.0 or p > 1.0:
        logger.debug("clamped %s by %.3e", label, max(-p, p - 1.0))
    return min(max(p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# allocation plans and rate policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AllocationPlan:
    """Superposition power shares and target rates.

    ``device_shares[t-1]`` lists the power share of every device message
    slot ``t`` superposes on the relayed message, in ascending order
    (weakest-allocated device first, peeled last); together with the
    relayed-message share they sum to one.  ``device_rates[t-1]`` holds
    their targets.  A com slot lists one device per subarea, a qom slot
    one (the nearest), a baseline slot none.
    """

    relay_share: float
    device_shares: tuple
    relay_rate: float
    device_rates: tuple

    def __post_init__(self):
        if not 0.0 < self.relay_share <= 1.0:
            raise ValueError(f"relay share must lie in (0,1], got {self.relay_share}")
        shares = tuple(tuple(float(p) for p in row) for row in self.device_shares)
        rates = tuple(tuple(float(r) for r in row) for row in self.device_rates)
        if len(shares) != len(rates):
            raise ValueError("per-slot plan fields must align")
        for row in shares:
            if any(p < 0.0 for p in row):
                raise ValueError("power shares must be non-negative")
            if any(b < a for a, b in zip(row, row[1:])):
                raise ValueError("device shares must be ascending")
            if abs(self.relay_share + sum(row) - 1.0) > 1e-9:
                raise ValueError("shares must sum to one per slot")
        if self.relay_rate < 0.0 or any(r < 0.0 for row in rates for r in row):
            raise ValueError("target rates must be non-negative")
        object.__setattr__(self, "device_shares", shares)
        object.__setattr__(self, "device_rates", rates)

    @property
    def slot_count(self) -> int:
        return len(self.device_shares)


def _time_scale(policy: EhPolicy) -> float:
    """Fraction of a slot carrying information in the worst harvest state."""
    if policy.architecture == "BTEH" and policy.is_harvesting:
        return 1.0 - policy.alpha
    return 1.0


def mrtr(plan: AllocationPlan, policy: EhPolicy, signal):
    """Largest target rate that keeps the decode event possible.

    ``signal`` selects the message: ``"relay"`` for the relayed message,
    ``("device", t, n)`` for the ``n``-th device message of slot ``t``.
    Returns ``None`` where no finite ceiling exists: full relay share
    (nothing left to interfere) or the first device of a slot (all
    interference cancelled by the SIC order, as for the qom device).
    """
    scale = _time_scale(policy) / (policy.node_count - 1)
    if signal == "relay":
        if plan.relay_share >= 1.0:
            return None
        ratio = plan.relay_share / (1.0 - plan.relay_share)
        return scale * math.log2(1.0 + ratio)
    kind, t, n = signal
    if kind != "device":
        raise ValueError(f"unknown signal {signal!r}")
    if n == 1:
        return None
    shares = plan.device_shares[t - 1]
    interference = sum(shares[:n - 1])
    return scale * math.log2(1.0 + shares[n - 1] / interference)


def default_allocation(topology: NetworkTopology, policy: EhPolicy,
                       relay_share: float = 0.8, rate_fraction: float = 0.5,
                       rate_cap: float = 0.75) -> AllocationPlan:
    """Geometric com shares plus the half-MRTR-capped rate rule.

    Device shares follow powers of two (weakest first) normalized to the
    non-relayed budget, which respects the ascending-share constraint.
    Every target rate is ``min(rate_fraction * MRTR, rate_cap)``; signals
    without a finite MRTR take the cap.  A topology with one subarea per
    slot gives the qom plan: one device on the whole non-relayed share.
    """
    shares = []
    for kt in topology.subarea_counts:
        raw = [2.0 ** (k - 1) for k in range(1, kt + 1)]
        total = sum(raw)
        shares.append(tuple((1.0 - relay_share) * w / total for w in raw))
    plan = AllocationPlan(
        relay_share=relay_share,
        device_shares=tuple(shares),
        relay_rate=0.0,
        device_rates=tuple(tuple(0.0 for _ in row) for row in shares),
    )

    def pick(signal):
        ceiling = mrtr(plan, policy, signal)
        if ceiling is None:
            return rate_cap
        return min(rate_fraction * ceiling, rate_cap)

    device_rates = tuple(
        tuple(pick(("device", t, n)) for n in range(1, len(row) + 1))
        for t, row in enumerate(plan.device_shares, start=1))
    return replace(plan, relay_rate=pick("relay"), device_rates=device_rates)


def baseline_plan(reference: AllocationPlan, hop_count: int) -> AllocationPlan:
    """Conventional-relaying plan: full share on the relayed message.

    The target rate is inherited from the reference plan so the baseline
    competes at the same rate the harvesting schemes aim for.
    """
    return AllocationPlan(
        relay_share=1.0,
        device_shares=((),) * hop_count,
        relay_rate=reference.relay_rate,
        device_rates=((),) * hop_count,
    )


# ---------------------------------------------------------------------------
# decoding thresholds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdSet:
    """SNR thresholds; +inf marks a decode event that cannot happen.

    ``relay[i][j]``: threshold on the hop SNR given harvest state ``i`` of
    the receiving node and device-activity state ``j`` of the transmitter's
    disk.  ``device[t-1][k-1]`` holds the ``(i=0, i=1)`` threshold pair of
    the ``k``-th device message the plan lists for slot ``t`` (a com
    subarea, or the qom device at ``k=1``); power-splitting leaves device
    decoding untouched, so there the two entries coincide.
    """

    relay: tuple
    device: tuple


def _rate_threshold(rate: float, node_count: int, time_scale: float) -> float:
    return 2.0 ** ((node_count - 1) * rate / time_scale) - 1.0


def _noma_threshold(tau0: float, relay_share: float) -> float:
    """Invert the relayed-message SINR through the superposed interference."""
    denom = 1.0 - (tau0 + 1.0) * (1.0 - relay_share)
    if denom <= 0.0:
        return math.inf
    return tau0 / denom


def decoding_thresholds(plan: AllocationPlan, policy: EhPolicy) -> ThresholdSet:
    bteh = policy.architecture == "BTEH"
    alpha, beta = policy.alpha, policy.beta

    def device_rate_threshold(rate: float, i: int) -> float:
        # harvesting at the next relay compresses the information window
        # under time-switching; power-splitting does not touch the device
        scale = 1.0 - alpha if (bteh and i == 1) else 1.0
        return _rate_threshold(rate, policy.node_count, scale)

    def relay_threshold(i: int, j: int) -> float:
        tau0 = device_rate_threshold(plan.relay_rate, i)
        base = tau0 if j == 0 else _noma_threshold(tau0, plan.relay_share)
        # a power-splitting relay keeps 1-beta of the power for decoding
        return base / (1.0 - beta) if (i == 1 and not bteh) else base

    relay = tuple(tuple(relay_threshold(i, j) for j in (0, 1)) for i in (0, 1))

    def device_relayed_threshold(i: int) -> float:
        # the device must also peel off the relayed message, at its own
        # (split-free) receive chain
        tau0 = device_rate_threshold(plan.relay_rate, i)
        return _noma_threshold(tau0, plan.relay_share)

    def device_pair(t: int, k: int):
        shares = plan.device_shares[t - 1]
        rates = plan.device_rates[t - 1]
        out = []
        for i in (0, 1):
            best = device_relayed_threshold(i)
            for n in range(k, len(shares) + 1):
                tau0 = device_rate_threshold(rates[n - 1], i)
                denom = shares[n - 1] - tau0 * sum(shares[:n - 1])
                best = max(best, tau0 / denom if denom > 0.0 else math.inf)
            out.append(best)
        return tuple(out)

    device = tuple(tuple(device_pair(t, k) for k in range(1, len(row) + 1))
                   for t, row in enumerate(plan.device_shares, start=1))
    return ThresholdSet(relay=relay, device=device)


# ---------------------------------------------------------------------------
# kernel memo
# ---------------------------------------------------------------------------

_KERNEL_FAMILY = {
    "prod_exp_cdf": "prod_exp", "annulus_kernel_deficit": "annulus",
    "nearest_kernel_deficit": "nearest",
    "residue_asymptote_cdf": "residue_asymptote"}


class KernelMemo(dict):
    """Kernel values keyed by ``(kernel name, *arguments)``.

    The kernels are pure, so a hit returns the very float a miss computes.
    ``lookups`` counts calls and ``evaluations`` misses per kernel family,
    ``outage_walks`` the outage walks of the :class:`SlotMarginals`
    reading the memo by the members each carried, and ``family_members``
    the members of each registered family, for the sweep's statistics
    record.  Every quadrature kernel evaluated here reads and fills
    ``table``, one :class:`specfun.LogGammaTable` that lives as long as
    the memo.  ``tables`` holds what P0 and rho do not touch, keyed by what it
    reads: the sweep's policies, layouts and allocation plans, the
    decoding thresholds and harvest-state tables of every
    ``SlotMarginals`` reading the memo, and the family and position of
    each registered scenario.
    """

    def __init__(self):
        super().__init__()
        self.lookups = collections.Counter()
        self.evaluations = collections.Counter()
        self.outage_walks = collections.Counter()
        self.family_members = []
        self.table = LogGammaTable()
        self.tables = {}

    def __call__(self, name: str, *args) -> float:
        family = _KERNEL_FAMILY[name]
        self.lookups[family] += 1
        key = (name,) + args
        value = self.get(key)
        if value is None:
            # resolved by name only on a miss, so a wrapper installed on
            # this module sees real evaluations only
            kernel = globals()[name]
            value = self[key] = (kernel(*args) if family == "residue_asymptote"
                                 else kernel(*args, table=self.table))
            self.evaluations[family] += 1
        return value

    def register_families(self, scenarios) -> None:
        """Group ``scenarios`` into families by
        :func:`nomarelay.network.family_key`, each member at its position
        in the order given; the :class:`SlotMarginals` of a member then
        walk the whole family at once.  Register before any of them is
        read."""
        families = {}
        for s in scenarios:
            families.setdefault(family_key(s), {})[s] = None
        for key, members in families.items():
            family = _Family(key, tuple(members))
            for position, s in enumerate(family.members):
                self.tables["member", s] = (family, position)
            self.family_members.append(len(family.members))


class _Family:
    """The members of one family, by position, and what they share.

    ``key`` is the family's :func:`nomarelay.network.family_key`; ``g0s``
    holds each member's reference SNR, ``policies`` the members' distinct
    policies and ``group`` the index of each member's there.  ``values``
    keeps each computation's float (or failure) per member, and ``slots``
    each slot's state (:meth:`SlotMarginals._slot`).  ``walks[t, ms]`` and
    ``receivers[t, ms]`` hold the mixture walk (:func:`_members_walk`) and
    receiver states (:func:`_receivers`) of slot t for the member
    positions ``ms``, built on first use.
    """

    def __init__(self, key: tuple, members: tuple):
        self.key, self.members = key, members
        self.positions = tuple(range(len(members)))
        self.g0s = tuple([s.budget.gamma_bar0 for s in members])
        policies = {}
        self.group = tuple([policies.setdefault(s.policy, len(policies))
                            for s in members])
        self.policies = tuple(policies)
        self.values, self.slots = {}, {}
        # the builders hold the family's fields, not the family: no
        # reference cycle keeps it alive
        self.walks = _Built(functools.partial(
            _members_walk, self.slots, self.group, self.g0s))
        self.receivers = _Built(functools.partial(
            _members_receivers, self.slots, self.group, self.g0s))


def _policy_groups(group, g0s, ms) -> tuple:
    """``(ns, g, g0s)`` of each policy g of the member positions ``ms`` of
    a family, in order of first use: the indices of its members in ``ms``
    and their reference SNRs."""
    groups = {}
    for n, m in enumerate(ms):
        ns, g0s_g = groups.setdefault(group[m], ([], []))
        ns.append(n)
        g0s_g.append(g0s[m])
    return tuple((tuple(ns), g, tuple(g0s_g))
                 for g, (ns, g0s_g) in groups.items())


def _members_walk(slots, group, g0s, key) -> tuple:
    """The walk of slot t's mixtures (see :func:`_mix`) for the member
    positions ``ms`` of a family, ``key`` being ``(t, ms)``: per policy
    of theirs, its members' indices in ``ms``, its harvest runs and their
    reference SNRs."""
    t, ms = key
    return len(ms), tuple((ns, slots[t][g][3], g0s_g)
                          for ns, g, g0s_g in _policy_groups(group, g0s, ms))


def _members_receivers(slots, group, g0s, key) -> tuple:
    """:func:`_receivers` of slot t for the member positions ``ms`` of a
    family, each policy's at once; ``key`` is ``(t, ms)``."""
    t, ms = key
    slot = slots[t]
    return _receivers(ms, [(ns, slot[g][4])
                           for ns, g, _ in _policy_groups(group, g0s, ms)])


def built(tables: dict, build, *args, key=None):
    """``build(*args)``, built once per ``tables``: kept there by ``key``,
    or by ``build`` and its inputs."""
    key = (build,) + args if key is None else key
    if key not in tables:
        tables[key] = build(*args)
    return tables[key]


class _Built(dict):
    """``build(key)`` of each key asked for, built on first use."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


# ---------------------------------------------------------------------------
# harvest-run mixtures of the normalized received powers
# ---------------------------------------------------------------------------

def harvest_runs(t: int, topology: NetworkTopology, policy: EhPolicy,
                 budget: LinkBudget) -> tuple:
    """``(w, v, gains)`` of every harvest run ``(v, w)`` of
    :meth:`EhPolicy.runs` whose weight ``w`` is nonzero, longest first.

    Run ``v`` means the last ``v`` hops into transmitter t were harvested;
    the weights of all runs sum to one.  ``gains`` are those hops' mean
    gains.
    """
    return tuple(
        (w, v, tuple(omega_factor(policy)
                     * pathloss_linear(topology.hop_distances[i - 2], budget)
                     for i in range(t - v + 1, t + 1)))
        for v, w in policy.runs(t) if w != 0.0)


def _receivers(ms, groups) -> tuple:
    """``(i, members, ns, ps)`` of each receiver harvest state i a member
    of ``ms`` takes, in order: those members (``ms`` itself where all
    take it), their indices in ``ms`` and their probabilities of i.
    ``groups`` lists ``(ns, states)``: the indices in ``ms`` of members
    whose receiver takes the states ``states`` (:meth:`EhPolicy.states`).
    """
    out = []
    for i in (0, 1):
        ns, ps = [], []
        for group_ns, states in groups:
            for j, p in states:
                if j == i:
                    ns += group_ns
                    ps += [p] * len(group_ns)
        if ns:
            ns = tuple(ns)
            members = tuple([ms[n] for n in ns])
            out.append((i, ms if members == ms else members, ns, tuple(ps)))
    return tuple(out)


def _mix(walk, branch, weight, label: str) -> tuple:
    """Mixture of the unweighted ``branch(v, gains, g0s)`` over ``walk``,
    clamped, for each of its members.

    ``walk`` is ``(size, groups)``: the member count and, per run table
    (one policy), ``(ns, runs, g0s)``, the indices of its members among
    them, the table's harvest runs (:func:`harvest_runs`) and their
    reference SNRs.  The members on one run table walk it together: one
    branch per run carrying their reference SNRs, whose values a later
    table with the same run length and SNRs reads again.  Each member
    adds ``weight(w) * value`` (``w`` itself where ``weight`` is None)
    over its own runs, so each law keeps the float association of its own
    product, in run order on every interpreter; ``sum()`` compensates
    float sums from Python 3.12 on.
    """
    size, groups = walk
    if len(groups) > 1:
        branch = functools.partial(_shared, {}, branch)
    out = [0.0] * size
    for ns, runs, g0s in groups:
        totals = [0.0] * len(g0s)
        for w, v, gains in runs:
            values = branch(v, gains, g0s)
            if weight is not None:
                w = weight(w)
            totals = [total + w * value
                      for total, value in zip(totals, values)]
        for n, total in zip(ns, totals):
            out[n] = _clamp(total, label)
    return tuple(out)


def _shared(known, branch, v, gains, g0s):
    """``branch(v, gains, g0s)``, kept in ``known`` for the later run
    tables of a walk with the same run length and reference SNRs."""
    values = known.get((v, g0s))
    if values is None:
        values = known[v, g0s] = branch(v, gains, g0s)
    return values


def _residue_branch(memo, x, ell, coeff):
    """Branch of the high-power asymptote of a gain with edge gain ``ell``."""
    def branch(v, gains, g0s):
        scaled, gain = coeff * x, math.prod(gains)
        # branches still outside their small-argument regime saturate at
        # certain outage instead of overshooting
        return [min(max(memo("residue_asymptote_cdf",
                             scaled / (g0 * ell * gain), v), 0.0), 1.0)
                for g0 in g0s]
    return branch


def _hop_law(memo, walks, t, ell_next, asymptotic, members, x):
    """CDF of the hop SNR X_t received by node t+1, whose hop has path gain
    ``ell_next``, or its asymptote, for each of ``members``, over their
    walk ``walks[t, members]``."""
    def branch(v, gains, g0s):
        means = gains + (ell_next,)
        return [memo("prod_exp_cdf", x / g0, v + 1, means) for g0 in g0s]
    if asymptotic:
        branch = _residue_branch(memo, x, ell_next, 1.0)
    return _mix(walks[t, members], branch, None, f"cdf_X(t={t})")


def _annulus_chi(k: int) -> tuple:
    """Weights of the outer and inner disk terms of the subarea-k law."""
    return k * k / (2.0 * k - 1.0), (k - 1.0) ** 2 / (2.0 * k - 1.0)


def _com_law(memo, walks, t, ell_edge, topology, eps, k, asymptotic,
             members, y):
    """CDF of the com device SNR Y_{t,k} in subarea k of slot t, whose disk
    edge has path gain ``ell_edge``, or its asymptote, for each of
    ``members``, over their walk ``walks[t, members]``."""
    kt = topology.subarea_counts[t - 1]
    c_exp = 2.0 / eps
    chi_hi, chi_lo = _annulus_chi(k)
    outer, inner = (k / kt) ** eps, ((k - 1) / kt) ** eps

    def branch(v, gains, g0s):
        gain, terms = math.prod(gains), []
        for g0 in g0s:
            c_tau = y / (g0 * ell_edge * gain)
            term = chi_hi * memo("annulus_kernel_deficit", c_tau * outer, v,
                                 c_exp)
            if k > 1:
                term -= chi_lo * memo("annulus_kernel_deficit",
                                      c_tau * inner, v, c_exp)
            terms.append(term)
        return terms
    # each run weighs w * c_exp (c_exp's bound method), an asymptote's w
    weight = c_exp.__rmul__
    if asymptotic:
        weight, branch = None, _residue_branch(
            memo, y, ell_edge, annulus_small_gain_coefficient(k, kt, eps))
    return _mix(walks[t, members], branch, weight, f"cdf_Y(t={t},k={k})")


def _nearest_law(memo, walks, t, ell_edge, topology, eps, fit, asymptotic,
                 members, z):
    """CDF of the qom (nearest-device) SNR Z_t, or its asymptote, which
    needs no fit but the disk-edge path gain ``ell_edge``, for each of
    ``members``, over their walk ``walks[t, members]``."""
    def branch(v, gains, g0s):
        gain = math.prod(gains)
        return [memo("nearest_kernel_deficit",
                     (z / (g0 * fit.mu * gain)) ** fit.theta, v, fit.theta,
                     fit.m)
                for g0 in g0s]
    if asymptotic:
        weight, branch = None, _residue_branch(
            memo, z, ell_edge, nearest_small_gain_coefficient(
                topology.density_active, topology.disk_radii[t - 1], eps))
    else:
        # each run weighs w / gamma(m) (gamma(m)'s bound method)
        weight = math.gamma(fit.m).__rtruediv__
    return _mix(walks[t, members], branch, weight, f"cdf_Z(t={t})")


# ---------------------------------------------------------------------------
# high-power asymptotes
# ---------------------------------------------------------------------------

def annulus_small_gain_coefficient(k: int, kt: int, eps: float) -> float:
    """Leading slope constant of the subarea-k gain CDF near zero."""
    c = 2.0 / eps
    chi_hi, chi_lo = _annulus_chi(k)
    return c / (c + 1.0) * (chi_hi * (k / kt) ** eps - chi_lo * ((k - 1) / kt) ** eps)


def nearest_small_gain_coefficient(density: float, radius: float,
                                   eps: float) -> float:
    """Leading slope constant of the nearest-device gain CDF near zero."""
    a = math.pi * density * radius**2
    if a <= 0.0:
        raise ValueError("needs a positive active density")
    from scipy.special import gammainc  # on first use, like loggamma
    shape = eps / 2.0 + 1.0
    lower = float(gammainc(shape, a)) * math.gamma(shape)
    return a ** (-eps / 2.0) * lower / -math.expm1(-a)


# ---------------------------------------------------------------------------
# outage probabilities
# ---------------------------------------------------------------------------

class SlotMarginals:
    """Outage marginals of one scenario, each evaluated at most once.

    The scenario belongs to a family: the scenarios of one
    :func:`nomarelay.network.family_key` that
    :meth:`KernelMemo.register_families` registered in the kernel memo's
    ``tables``, which also hold what P0 and rho do not touch (the decoding
    thresholds by plan and policy with rho cleared, each policy's harvest
    runs and receiver states per slot).  Every outage and the sum
    throughput are computed per (event, ``asymptotic``) in one walk for
    the whole family, which evaluates each unweighted mixture branch once
    per run length and reference SNR and keeps each member's float, summed
    over its own runs and receiver states; members on one policy (a power
    family) walk its run table together.  An unregistered scenario is a
    family of one, and a standalone ``SlotMarginals`` has a private kernel
    memo as well.  ``nearest_fit(t)`` returns the nearest-gain fit of slot
    ``t``; it is called only when an exact qom device outage first needs
    it.
    """

    def __init__(self, scenario: Scenario, nearest_fit=None,
                 kernels: Optional["KernelMemo"] = None):
        self.scenario = scenario
        self._nearest_fit = nearest_fit
        self.kernels = KernelMemo() if kernels is None else kernels
        self._family, self._index = (
            self.kernels.tables.get(("member", scenario))
            or (_Family(family_key(scenario), (scenario,)), 0))

    @functools.cached_property
    def thresholds(self) -> ThresholdSet:
        # thresholds do not read rho: one derivation per plan (whose slot
        # count fixes the node count) and the policy's other fields, last
        # in the family key
        s, key = self.scenario, self._family.key
        return built(self.kernels.tables, decoding_thresholds, s.plan,
                     s.policy, key=("thresholds", s.plan, key[-1]))

    def _once(self, ms, compute, *args) -> tuple:
        """``compute(ms, *args)``: one float per member position of ``ms``,
        each computed once per family.  A walk over several members that
        raises is redone member by member, so a failure reaches only the
        members whose own walk raises; it is kept like a value, and raised
        to every reader."""
        known = self._family.values.setdefault((compute.__name__, *args),
                                               {})
        missing = tuple([m for m in ms if m not in known])
        if len(missing) > 1:
            with contextlib.suppress(Exception):
                known.update(zip(missing, compute(missing, *args)))
        for m in missing:
            if m not in known:
                try:
                    known[m], = compute((m,), *args)
                except Exception as exc:
                    # without its traceback, whose frames hold the memo
                    known[m] = exc.with_traceback(None)
        values = [known[m] for m in ms]
        for value in values:
            if isinstance(value, Exception):
                raise value
        return tuple(values)

    def _read(self, compute, *args) -> float:
        """This scenario's float of a family computation: one lookup once
        the family has been walked, its own failure raised as such."""
        value = self._family.values.get((compute.__name__, *args),
                                        {}).get(self._index)
        if isinstance(value, Exception):
            raise value
        if value is not None:
            return value
        try:
            return self._once(self._family.positions, compute,
                              *args)[self._index]
        except Exception:
            # another member failed; this one may not have
            return self._once((self._index,), compute, *args)[0]

    def outage(self, selector, asymptotic: bool = False) -> float:
        """Outage probability of the decode event ``selector`` names.

        ``("hop", t)``: the relayed message at the receiver of slot t, the
        same for com and qom pairing because the relayed message sees the
        same total interference share either way.  ``("device", t, k)``:
        the com device in subarea k of slot t (``k=None``: the qom device),
        given it is served.  ``("e2e_destination",)`` and
        ``("e2e_device", t, k)``: end to end, under the rare-harvest product
        approximation; a device is reached once its slot's transmitter
        holds the message, so its chain covers hops 1..t-1 plus the
        device's own decode, and the slot's forward hop is a separate event.
        :meth:`Scenario.check_selector` rejects what the scenario does not
        serve, as it does for the simulated tallies.
        """
        kind, args = self.scenario.check_selector(selector)
        return self._read(getattr(self, "_" + kind), *args, asymptotic)

    def throughput(self, asymptotic: bool = False) -> float:
        """Sum throughput over the relayed message and every served device."""
        return self._read(self._throughput, asymptotic)

    def _slot(self, t):
        """Per policy of the family, in order, :meth:`_state` of slot t,
        kept in the memo's tables by what it reads.  The path gains and
        disk shares read neither P0 nor rho, so the first policy's serve
        every member."""
        family, s = self._family, self.scenario
        if t not in family.slots:
            family.slots[t] = tuple(
                built(self.kernels.tables, self._state, t, policy,
                      key=(t, s.topology, policy, s.budget.L,
                           s.budget.epsilon))
                for policy in family.policies)
        return family.slots[t]

    def _state(self, t, policy):
        """``(ell_hop, ell_edge, iota, runs, states)`` of slot t under
        ``policy``: the hop and disk-edge path gains, the idle and active
        shares of the disk, the transmitter's harvest runs
        (:func:`harvest_runs`) and the receiver's harvest states."""
        topo, budget = self.scenario.topology, self.scenario.budget
        log_idle = log_null_probability(topo.density_active,
                                        topo.disk_radii[t - 1])
        return (pathloss_linear(topo.hop_distances[t - 1], budget),
                pathloss_linear(topo.disk_radii[t - 1], budget),
                (math.exp(log_idle), -math.expm1(log_idle)),
                harvest_runs(t, topo, policy, budget), policy.states(t + 1))

    def _walked(self, ms, t, thresholds, iota, law, args, label):
        """:meth:`_outage` of slot t for the member positions ``ms`` over
        ``law(memo, walks, t, *args, members, x)``, counted in the memo's
        outage walks."""
        family = self._family
        self.kernels.outage_walks[len(ms)] += 1
        return self._outage(ms, family.receivers[t, ms], thresholds, iota,
                            functools.partial(law, self.kernels, family.walks,
                                              t, *args), label)

    def _hop(self, ms, t, asymptotic):
        ell_hop, _, iota, _, _ = self._slot(t)[0]
        return self._walked(ms, t, self.thresholds.relay, iota, _hop_law,
                            (ell_hop, asymptotic), f"hop outage (t={t})")

    def _device(self, ms, t, k, asymptotic):
        ell_edge = self._slot(t)[0][1]
        thresholds = self.thresholds.device[t - 1][0 if k is None else k - 1]
        if k is None:
            label = f"qom device outage (t={t})"
            if not asymptotic and self._nearest_fit is None:
                raise ValueError("exact qom outage needs the nearest-gain fit")
            fit = None if asymptotic else self._nearest_fit(t)
            law, arg = _nearest_law, fit
        else:
            label = f"com device outage (t={t},k={k})"
            law, arg = _com_law, k
        # a served device's disk is active
        return self._walked(ms, t, tuple((th, th) for th in thresholds),
                            (0.0, 1.0), law,
                            (ell_edge, self.scenario.topology,
                             self.scenario.budget.epsilon, arg, asymptotic),
                            label)

    @staticmethod
    def _outage(ms, receivers, thresholds, iota, evaluate, label):
        """CDF deficit at ``thresholds[i][j]``, mixed over the receiver's
        harvest states i (``receivers``, from :func:`_receivers`) and the
        sender's disk states j, idle (0) and active (1), weighted by
        ``iota``, for each member of ``ms``; ``evaluate(members, x)`` gives
        the law at ``x`` of each of ``members``, a tuple drawn from ``ms``.
        Each member's sum adds its own terms in (i, j) order, but leaves
        out an idle term that cannot move it."""
        def terms(members, ps, share, threshold):
            # a threshold at or below zero never fails; +inf always does
            if share == 0.0 or threshold <= 0.0:
                return [0.0] * len(ps)
            if math.isinf(threshold):
                return [p * share for p in ps]
            return [p * share * f
                    for p, f in zip(ps, evaluate(members, threshold))]

        ops, (idle, active) = [0.0] * len(ms), iota
        for i, members, ns, ps in receivers:
            t1 = terms(members, ps, active, thresholds[i][1])
            # every law is clamped to [0, 1], so the idle term lies in
            # [0, p * idle], and rounding is monotone: where that bound
            # cannot move op + t1, no idle term can
            moved = [k for k, (n, p, term) in enumerate(zip(ns, ps, t1))
                     if (ops[n] + p * idle) + term != ops[n] + term]
            t0 = dict(zip(moved, terms(
                tuple(members[k] for k in moved), [ps[k] for k in moved],
                idle, thresholds[i][0]))) if moved else {}
            for k, (n, term) in enumerate(zip(ns, t1)):
                ops[n] = (ops[n] + t0[k]) + term if k in t0 \
                    else ops[n] + term
        return tuple(_clamp(op, label) for op in ops)

    def _e2e_destination(self, ms, asymptotic):
        hops = [self._once(ms, self._hop, t, asymptotic)
                for t in range(1, self.scenario.topology.hop_count + 1)]
        return tuple(_clamp(_success_product(ops), "e2e outage (destination)")
                     for ops in zip(*hops))

    def _e2e_device(self, ms, t, k, asymptotic):
        device = self._once(ms, self._device, t, k, asymptotic)
        chain = [self._once(ms, self._hop, i, asymptotic)
                 for i in range(1, t)]
        return tuple(_clamp(_success_product(ops),
                            f"e2e outage (t={t},k={k})")
                     for ops in zip(*chain, device))

    def _throughput(self, ms, asymptotic):
        s = self.scenario
        destination = self._once(ms, self._e2e_destination, asymptotic)
        devices = [[self._once(ms, self._e2e_device, t, k, asymptotic)
                    for k in s.served(t)]
                   for t in range(1, s.topology.hop_count + 1)]
        return tuple(
            sum_throughput(s.plan, destination[n],
                           tuple(tuple(ops[n] for ops in slot)
                                 for slot in devices))
            for n in range(len(ms)))


def _success_product(ops) -> float:
    log_success = sum(math.log1p(-min(op, 1.0)) if op < 1.0 else -math.inf
                      for op in ops)
    return -math.expm1(log_success) if math.isfinite(log_success) else 1.0


# ---------------------------------------------------------------------------
# throughput and supply power
# ---------------------------------------------------------------------------

def sum_throughput(plan: AllocationPlan, destination_e2e: float,
                   device_e2e: tuple) -> float:
    """Aggregate goodput per block, normalized by the slot count.

    ``device_e2e[t-1]`` lists the end-to-end outage of every device the
    plan lists for slot ``t``, in plan order.
    """
    total = plan.relay_rate * (1.0 - destination_e2e)
    for t, ops in enumerate(device_e2e, start=1):
        rates = plan.device_rates[t - 1]
        if len(ops) != len(rates):
            raise ValueError(f"slot {t}: {len(ops)} outage values for "
                             f"{len(rates)} served devices")
        total += sum(r * (1.0 - op) for r, op in zip(rates, ops))
    return total / plan.slot_count


def supply_power(budget: LinkBudget, policy: EhPolicy) -> float:
    """Consumed supply power P_tol: harvested hops cost no supply power."""
    return budget.P0 * sum(policy.rho0(j) for j in range(1, policy.node_count))
