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
what P0 does not touch (allocation plans, thresholds, and each slot's
harvest runs, path gains, disk-idle shares and receiver states) in its
``tables``.  A sweep shares one memo across all its
:class:`SlotMarginals`, so each distinct kernel argument is evaluated
once per sweep.  It also registers each power family there (the
scenarios equal but for P0): the family derives its P0-free state once,
and each of its outages is one walk over the mixtures that carries every
member's reference SNR, each member's sum kept in its own float; an
unregistered scenario is a family of one.  A standalone
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
from .network import NetworkTopology, Scenario
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
    for the sweep's statistics record.  Every quadrature kernel evaluated
    here reads and fills ``table``, one :class:`specfun.LogGammaTable`
    that lives as long as the memo.  ``tables`` holds what P0 does not
    touch, keyed by what it reads: the sweep's policies, layouts and
    allocation plans, the decoding thresholds and slot states of every
    :class:`SlotMarginals` reading the memo, and the members and shared
    memo of each registered power family.
    """

    def __init__(self):
        super().__init__()
        self.lookups = collections.Counter()
        self.evaluations = collections.Counter()
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
        """Group ``scenarios`` into power families, the scenarios equal but
        for ``budget.P0``, and give each a shared memo in ``tables``, with
        its members' reference SNRs in the order given; the
        :class:`SlotMarginals` of a member then walk the whole family at
        once.  Register before any of them is read."""
        families = {}
        for s in scenarios:
            members = families.setdefault(_power_family(s), {})
            members[s.budget.gamma_bar0] = None
        for key, members in families.items():
            self.tables[key] = (tuple(members), {})


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


def _mix(runs, g0s, branch, label: str) -> tuple:
    """Mixture of ``branch(w, v, gains)`` over ``runs``, clamped, for each
    reference SNR of ``g0s``.

    ``branch`` returns the whole weighted term of every member, so each law
    keeps the float association of its own product.  Each member's sum
    adds in run order on every interpreter; ``sum()`` compensates float
    sums from Python 3.12 on.
    """
    totals = [0.0] * len(g0s)
    for w, v, gains in runs:
        totals = [total + term
                  for total, term in zip(totals, branch(w, v, gains))]
    return tuple(_clamp(total, label) for total in totals)


def _residue_branch(memo, g0s, x, ell, coeff):
    """Branch of the high-power asymptote of a gain with edge gain ``ell``."""
    def branch(w, v, gains):
        scaled, gain = coeff * x, math.prod(gains)
        # branches still outside their small-argument regime saturate at
        # certain outage instead of overshooting
        return [w * min(max(memo("residue_asymptote_cdf",
                                 scaled / (g0 * ell * gain), v), 0.0), 1.0)
                for g0 in g0s]
    return branch


def _hop_law(memo, runs, t, ell_next, asymptotic, g0s, x):
    """CDF of the hop SNR X_t received by node t+1, whose hop has path gain
    ``ell_next``, or its asymptote, at each reference SNR of ``g0s``."""
    def branch(w, v, gains):
        means = gains + (ell_next,)
        return [w * memo("prod_exp_cdf", x / g0, v + 1, means) for g0 in g0s]
    if asymptotic:
        branch = _residue_branch(memo, g0s, x, ell_next, 1.0)
    return _mix(runs, g0s, branch, f"cdf_X(t={t})")


def _annulus_chi(k: int) -> tuple:
    """Weights of the outer and inner disk terms of the subarea-k law."""
    return k * k / (2.0 * k - 1.0), (k - 1.0) ** 2 / (2.0 * k - 1.0)


def _com_law(memo, runs, t, ell_edge, topology, eps, k, asymptotic, g0s, y):
    """CDF of the com device SNR Y_{t,k} in subarea k of slot t, whose disk
    edge has path gain ``ell_edge``, or its asymptote, at each reference
    SNR of ``g0s``."""
    kt = topology.subarea_counts[t - 1]
    c_exp = 2.0 / eps
    chi_hi, chi_lo = _annulus_chi(k)
    outer, inner = (k / kt) ** eps, ((k - 1) / kt) ** eps

    def branch(w, v, gains):
        gain, terms = math.prod(gains), []
        for g0 in g0s:
            c_tau = y / (g0 * ell_edge * gain)
            term = chi_hi * memo("annulus_kernel_deficit", c_tau * outer, v,
                                 c_exp)
            if k > 1:
                term -= chi_lo * memo("annulus_kernel_deficit",
                                      c_tau * inner, v, c_exp)
            terms.append(w * c_exp * term)
        return terms
    if asymptotic:
        branch = _residue_branch(memo, g0s, y, ell_edge,
                                 annulus_small_gain_coefficient(k, kt, eps))
    return _mix(runs, g0s, branch, f"cdf_Y(t={t},k={k})")


def _nearest_law(memo, runs, t, ell_edge, topology, eps, fit, asymptotic,
                 g0s, z):
    """CDF of the qom (nearest-device) SNR Z_t, or its asymptote, which
    needs no fit but the disk-edge path gain ``ell_edge``, at each
    reference SNR of ``g0s``."""
    def branch(w, v, gains):
        gain, weight = math.prod(gains), w / math.gamma(fit.m)
        return [weight * memo("nearest_kernel_deficit",
                              (z / (g0 * fit.mu * gain)) ** fit.theta, v,
                              fit.theta, fit.m)
                for g0 in g0s]
    if asymptotic:
        branch = _residue_branch(
            memo, g0s, z, ell_edge, nearest_small_gain_coefficient(
                topology.density_active, topology.disk_radii[t - 1], eps))
    return _mix(runs, g0s, branch, f"cdf_Z(t={t})")


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

    The scenario belongs to a power family: the scenarios equal but for
    ``budget.P0`` that :meth:`KernelMemo.register_families` registered in
    the kernel memo's ``tables``, which also hold what P0 does not touch
    (the decoding thresholds by plan and policy, each slot's state
    (:meth:`_slot`) by topology, policy and path-loss law).  Every
    outage and the sum throughput are computed per (event,
    ``asymptotic``) in one walk for the whole family, whose shared memo
    keeps each member's float; an unregistered scenario is a family of
    one, and a standalone ``SlotMarginals`` has a private kernel memo as
    well.  ``nearest_fit(t)`` returns the nearest-gain fit of slot ``t``;
    it is called only when an exact qom device outage first needs it.
    """

    def __init__(self, scenario: Scenario, nearest_fit=None,
                 kernels: Optional["KernelMemo"] = None):
        self.scenario = scenario
        self._nearest_fit = nearest_fit
        self.kernels = KernelMemo() if kernels is None else kernels
        self._g0 = scenario.budget.gamma_bar0
        family = self.kernels.tables.get(_power_family(scenario))
        if family is None or self._g0 not in family[0]:
            family = ((self._g0,), {})
        self._g0s, self._memo = family
        self._index = self._g0s.index(self._g0)

    @functools.cached_property
    def thresholds(self) -> ThresholdSet:
        key = (self.scenario.plan, self.scenario.policy)
        tables = self.kernels.tables
        if key not in tables:
            tables[key] = decoding_thresholds(*key)
        return tables[key]

    def _once(self, g0s, compute, *args) -> tuple:
        """``compute(g0s, *args)``: one float per member of ``g0s``, each
        computed once per family.  A walk over several members that raises
        is redone member by member, so a failure reaches only the members
        whose own walk raises; it is kept like a value, and raised to
        every reader."""
        known = self._memo.setdefault((compute.__name__,) + args, {})
        missing = tuple(g0 for g0 in g0s if g0 not in known)
        if len(missing) > 1:
            with contextlib.suppress(Exception):
                known.update(zip(missing, compute(missing, *args)))
        for g0 in g0s:
            if g0 not in known:
                try:
                    known[g0], = compute((g0,), *args)
                except Exception as exc:
                    # without its traceback, whose frames hold the memo
                    known[g0] = exc.with_traceback(None)
        values = tuple(known[g0] for g0 in g0s)
        for value in values:
            if isinstance(value, Exception):
                raise value
        return values

    def _read(self, compute, *args) -> float:
        """This scenario's float of a family computation."""
        try:
            return self._once(self._g0s, compute, *args)[self._index]
        except Exception:
            # another member failed; this one may not have
            return self._once((self._g0,), compute, *args)[0]

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
        """``(runs, ell_hop, ell_edge, iota, states)`` of slot t: the
        transmitter's harvest runs (:func:`harvest_runs`), the hop and
        disk-edge path gains, the idle and active shares of its disk, and
        the receiver's harvest states, none of which reads P0."""
        s, tables = self.scenario, self.kernels.tables
        topo, budget = s.topology, s.budget
        key = (t, topo, s.policy, budget.L, budget.epsilon)
        if key not in tables:
            log_idle = log_null_probability(topo.density_active,
                                            topo.disk_radii[t - 1])
            tables[key] = (
                harvest_runs(t, topo, s.policy, budget),
                pathloss_linear(topo.hop_distances[t - 1], budget),
                pathloss_linear(topo.disk_radii[t - 1], budget),
                (math.exp(log_idle), -math.expm1(log_idle)),
                s.policy.states(t + 1))
        return tables[key]

    def _hop(self, g0s, t, asymptotic):
        runs, ell_hop, _, iota, states = self._slot(t)
        evaluate = functools.partial(_hop_law, self.kernels, runs, t, ell_hop,
                                     asymptotic)
        return self._outage(g0s, states, self.thresholds.relay, iota,
                            evaluate, f"hop outage (t={t})")

    def _device(self, g0s, t, k, asymptotic):
        runs, _, ell_edge, _, states = self._slot(t)
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
        evaluate = functools.partial(
            law, self.kernels, runs, t, ell_edge, self.scenario.topology,
            self.scenario.budget.epsilon, arg, asymptotic)
        # a served device's disk is active
        return self._outage(g0s, states, tuple((th, th) for th in thresholds),
                            (0.0, 1.0), evaluate, label)

    @staticmethod
    def _outage(g0s, states, thresholds, iota, evaluate, label):
        """CDF deficit at ``thresholds[i][j]``, mixed over the receiver's
        harvest states ``(i, p)`` (:meth:`EhPolicy.states`) and the sender's
        disk states j, idle (0) and active (1), weighted by ``iota``, for
        each member of ``g0s``; ``evaluate(members, x)`` gives the law at
        ``x`` of each of ``members``.  Each member's sum adds the terms in
        (i, j) order, but leaves out an idle term that cannot move it."""
        def terms(g0s, p, share, threshold):
            # a threshold at or below zero never fails; +inf always does
            if share == 0.0 or threshold <= 0.0:
                return (0.0,) * len(g0s)
            if math.isinf(threshold):
                return (p * share,) * len(g0s)
            return [p * share * f for f in evaluate(g0s, threshold)]

        ops, (idle, active) = [0.0] * len(g0s), iota
        for i, p in states:
            t1 = terms(g0s, p, active, thresholds[i][1])
            # every law is clamped to [0, 1], so the idle term lies in
            # [0, p * idle], and rounding is monotone: where that bound
            # cannot move op + t1, no idle term can
            bound = p * idle
            moved = [m for m, (op, term) in enumerate(zip(ops, t1))
                     if (op + bound) + term != op + term]
            t0 = dict(zip(moved, terms(tuple(g0s[m] for m in moved), p, idle,
                                       thresholds[i][0]))) if moved else {}
            ops = [(op + t0[m]) + term if m in t0 else op + term
                   for m, (op, term) in enumerate(zip(ops, t1))]
        return tuple(_clamp(op, label) for op in ops)

    def _e2e_destination(self, g0s, asymptotic):
        hops = [self._once(g0s, self._hop, t, asymptotic)
                for t in range(1, self.scenario.topology.hop_count + 1)]
        return tuple(_clamp(_success_product(ops), "e2e outage (destination)")
                     for ops in zip(*hops))

    def _e2e_device(self, g0s, t, k, asymptotic):
        device = self._once(g0s, self._device, t, k, asymptotic)
        chain = [self._once(g0s, self._hop, i, asymptotic)
                 for i in range(1, t)]
        return tuple(_clamp(_success_product(ops),
                            f"e2e outage (t={t},k={k})")
                     for ops in zip(*chain, device))

    def _throughput(self, g0s, asymptotic):
        s = self.scenario
        destination = self._once(g0s, self._e2e_destination, asymptotic)
        devices = [[self._once(g0s, self._e2e_device, t, k, asymptotic)
                    for k in s.served(t)]
                   for t in range(1, s.topology.hop_count + 1)]
        return tuple(
            sum_throughput(s.plan, destination[m],
                           tuple(tuple(ops[m] for ops in slot)
                                 for slot in devices))
            for m in range(len(g0s)))


def _power_family(scenario: Scenario) -> tuple:
    """What the marginals of ``scenario`` read besides ``budget.P0``: the
    scenarios of one key form a power family."""
    return ("power family", scenario.scheme, scenario.topology,
            scenario.policy, scenario.plan, replace(scenario.budget, P0=1.0))


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
