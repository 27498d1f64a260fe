"""Closed-form performance layer: thresholds, mixture CCDFs, outage, throughput.

The received SNR on any link is a product of independent pieces: the
supply-or-harvested power chain behind the transmitter, one exponential
fade, and (for device links) a random-distance path gain.  Conditioning on
the run length of consecutive harvesting nodes turns every distribution
into a finite mixture whose branches are the product-distribution kernels
from :mod:`nomarelay.specfun`.  Outage assembles those mixtures in
CDF-deficit space so small probabilities keep relative accuracy, and the
small-argument residue expansions provide the high-power asymptotes and
diversity slopes.

Every kernel call goes through a :class:`KernelMemo`.  A sweep shares one
memo across all its :class:`SlotMarginals`, so each distinct kernel
argument is evaluated once per sweep; a standalone ``SlotMarginals`` or
public mixture call gets a private memo, and nothing outlives its owner.
"""

from __future__ import annotations

import collections
import functools
import logging
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .channel import (
    FittedGainDistribution,
    LinkBudget,
    pathloss_linear,
)
from .geometry import log_null_probability
from .network import NetworkTopology, Scheme
from .power import EhPolicy, omega_factor
from .specfun import (  # noqa: F401 - KernelMemo calls the kernels by name
    annulus_kernel,
    annulus_kernel_deficit,
    lower_incomplete_gamma,
    nearest_kernel,
    nearest_kernel_deficit,
    prod_exp_ccdf,
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

    ``device_shares[t-1]`` lists the com power shares of slot ``t`` in
    ascending order (weakest-allocated device first); together with the
    relayed-message share they sum to one.  ``device_rates`` are the com
    targets, ``nearest_rates`` the qom target for the single served device.
    """

    relay_share: float
    device_shares: tuple
    relay_rate: float
    device_rates: tuple
    nearest_rates: tuple

    def __post_init__(self):
        if not 0.0 < self.relay_share <= 1.0:
            raise ValueError(f"relay share must lie in (0,1], got {self.relay_share}")
        shares = tuple(tuple(float(p) for p in row) for row in self.device_shares)
        rates = tuple(tuple(float(r) for r in row) for row in self.device_rates)
        nearest = tuple(float(r) for r in self.nearest_rates)
        if len(shares) != len(rates) or len(shares) != len(nearest):
            raise ValueError("per-slot plan fields must align")
        for row in shares:
            if any(p < 0.0 for p in row):
                raise ValueError("power shares must be non-negative")
            if any(b < a for a, b in zip(row, row[1:])):
                raise ValueError("device shares must be ascending")
            if abs(self.relay_share + sum(row) - 1.0) > 1e-9:
                raise ValueError("shares must sum to one per slot")
        if self.relay_rate < 0.0 or any(r < 0.0 for row in rates for r in row) \
                or any(r < 0.0 for r in nearest):
            raise ValueError("target rates must be non-negative")
        object.__setattr__(self, "device_shares", shares)
        object.__setattr__(self, "device_rates", rates)
        object.__setattr__(self, "nearest_rates", nearest)

    @property
    def slot_count(self) -> int:
        return len(self.device_shares)

    def subarea_count(self, t: int) -> int:
        return len(self.device_shares[t - 1])


def _time_scale(policy: EhPolicy) -> float:
    """Fraction of a slot carrying information in the worst harvest state."""
    if policy.architecture == "BTEH" and policy.is_harvesting:
        return 1.0 - policy.alpha
    return 1.0


def mrtr(plan: AllocationPlan, policy: EhPolicy, node_count: int, signal):
    """Largest target rate that keeps the decode event possible.

    ``signal`` selects the message: ``"relay"`` for the relayed message,
    ``("device", t, n)`` for the com device in subarea ``n`` of slot ``t``,
    ``"nearest"`` for the qom-served device.  Returns ``None`` where no
    finite ceiling exists: full relay share (nothing left to interfere), a
    subarea-1 device (all interference cancelled by the SIC order), or the
    qom device (sole superposed message).
    """
    scale = _time_scale(policy) / (node_count - 1)
    if signal == "relay":
        if plan.relay_share >= 1.0:
            return None
        ratio = plan.relay_share / (1.0 - plan.relay_share)
        return scale * math.log2(1.0 + ratio)
    if signal == "nearest":
        return None
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
    without a finite MRTR take the cap.
    """
    m = topology.node_count
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
        nearest_rates=(0.0,) * topology.hop_count,
    )

    def pick(signal):
        ceiling = mrtr(plan, policy, m, signal)
        if ceiling is None:
            return rate_cap
        return min(rate_fraction * ceiling, rate_cap)

    device_rates = tuple(
        tuple(pick(("device", t, n)) for n in range(1, len(row) + 1))
        for t, row in enumerate(plan.device_shares, start=1))
    return replace(plan, relay_rate=pick("relay"), device_rates=device_rates,
                   nearest_rates=(pick("nearest"),) * topology.hop_count)


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
        nearest_rates=(0.0,) * hop_count,
    )


# ---------------------------------------------------------------------------
# decoding thresholds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdSet:
    """SNR thresholds; +inf marks a decode event that cannot happen.

    ``relay[i][j]``: threshold on the hop SNR given harvest state ``i`` of
    the receiving node and device-activity state ``j`` of the transmitter's
    disk.  ``com_device[t-1][k-1]`` and ``qom_device[t-1]`` hold the
    ``(i=0, i=1)`` threshold pair for the device served in slot ``t``;
    power-splitting leaves device decoding untouched, so there the two
    entries coincide.
    """

    relay: tuple
    com_device: tuple
    qom_device: tuple


def _rate_threshold(rate: float, node_count: int, time_scale: float) -> float:
    return 2.0 ** ((node_count - 1) * rate / time_scale) - 1.0


def _noma_threshold(tau0: float, relay_share: float) -> float:
    """Invert the relayed-message SINR through the superposed interference."""
    denom = 1.0 - (tau0 + 1.0) * (1.0 - relay_share)
    if denom <= 0.0:
        return math.inf
    return tau0 / denom


def decoding_thresholds(plan: AllocationPlan, policy: EhPolicy,
                        node_count: int, scheme: Scheme) -> ThresholdSet:
    if policy.node_count != node_count:
        raise ValueError("policy and node count disagree")
    if scheme.harvesting is not None and scheme.harvesting != policy.architecture:
        raise ValueError(f"{scheme.value} expects {scheme.harvesting}")
    bteh = policy.architecture == "BTEH"
    alpha, beta = policy.alpha, policy.beta

    def device_rate_threshold(rate: float, i: int) -> float:
        # harvesting at the next relay compresses the information window
        # under time-switching; power-splitting does not touch the device
        scale = 1.0 - alpha if (bteh and i == 1) else 1.0
        return _rate_threshold(rate, node_count, scale)

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

    def com_pair(t: int, k: int):
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

    def qom_pair(t: int):
        own_share = 1.0 - plan.relay_share
        out = []
        for i in (0, 1):
            tau0 = device_rate_threshold(plan.nearest_rates[t - 1], i)
            own = tau0 / own_share if own_share > 0.0 else math.inf
            out.append(max(device_relayed_threshold(i), own))
        return tuple(out)

    com_device = tuple(
        tuple(com_pair(t, k) for k in range(1, len(plan.device_shares[t - 1]) + 1))
        for t in range(1, plan.slot_count + 1))
    qom_device = tuple(qom_pair(t) for t in range(1, plan.slot_count + 1))
    return ThresholdSet(relay=relay, com_device=com_device, qom_device=qom_device)


# ---------------------------------------------------------------------------
# kernel memo
# ---------------------------------------------------------------------------

_KERNEL_FAMILY = {
    "prod_exp_ccdf": "prod_exp", "prod_exp_cdf": "prod_exp",
    "annulus_kernel": "annulus", "annulus_kernel_deficit": "annulus",
    "nearest_kernel": "nearest", "nearest_kernel_deficit": "nearest",
    "residue_asymptote_cdf": "residue_asymptote"}


class KernelMemo(dict):
    """Kernel values keyed by ``(kernel name, *arguments)``.

    The kernels are pure, so a hit returns the very float a miss computes.
    ``lookups`` counts calls per kernel family; each key is one evaluation.
    """

    def __init__(self):
        super().__init__()
        self.lookups = collections.Counter()

    def __call__(self, name: str, *args) -> float:
        self.lookups[_KERNEL_FAMILY[name]] += 1
        key = (name,) + args
        value = self.get(key)
        if value is None:
            # resolved by name only on a miss, so a wrapper installed on
            # this module sees real evaluations only
            value = self[key] = globals()[name](*args)
        return value

    def log_summary(self) -> None:
        """One DEBUG line: lookups, evaluations and hit ratio per family."""
        evaluations = collections.Counter(_KERNEL_FAMILY[key[0]] for key in self)
        logger.debug("kernel memo: %s", "; ".join(
            f"{family} {n} lookups, {evaluations[family]} evaluations, "
            f"hit ratio {1.0 - evaluations[family] / n:.3f}"
            for family, n in sorted(self.lookups.items())) or "no lookups")


# ---------------------------------------------------------------------------
# mixture CCDFs of the normalized received powers
# ---------------------------------------------------------------------------

def _chain_gains(tau: int, t: int, topology: NetworkTopology, policy: EhPolicy,
                 budget: LinkBudget) -> tuple:
    """Mean gains of the harvested hops tau+1..t."""
    return tuple(omega_factor(i, policy, topology.node_count)
                 * pathloss_linear(topology.hop_distances[i - 2], budget)
                 for i in range(tau + 1, t + 1))


def _check_argument(x: float, t: int, topology: NetworkTopology) -> None:
    if not 1 <= t <= topology.hop_count:
        raise ValueError(f"slot {t} outside 1..{topology.hop_count}")
    if x <= 0.0:
        raise ValueError(f"argument must be positive, got {x}")


def _mix(t, topology, policy, budget, branch, label: str) -> float:
    """Mixture over the harvest-run states of transmitter t, clamped.

    Branch ``tau`` means node ``tau`` ran on supply power and every node
    ``tau+1..t`` harvested; the weights sum to one.  Each branch with a
    nonzero weight ``w`` adds ``branch(w, v, gains)``, where ``v = t - tau``
    and ``gains`` are the mean gains of the harvested hops.  ``branch``
    returns the whole weighted term, so each law keeps the float
    association of its own product.
    """
    total = 0.0
    for tau in range(1, t + 1):
        w = policy.rho0(tau)
        for j in range(tau + 1, t + 1):
            w *= policy.rho1(j)
        if w != 0.0:
            total += branch(w, t - tau,
                            _chain_gains(tau, t, topology, policy, budget))
    return _clamp(total, label)


def _residue_branch(memo, x, budget, ell, coeff):
    """Branch of the high-power asymptote of a gain with edge gain ``ell``."""
    def branch(w, v, gains):
        scaled = coeff * x / (budget.gamma_bar0 * ell * math.prod(gains))
        # branches still outside their small-argument regime saturate at
        # certain outage instead of overshooting
        return w * min(max(memo("residue_asymptote_cdf", scaled, v), 0.0), 1.0)
    return branch


def _hop_mix(memo, form, t, topology, policy, budget, x):
    """``form`` ("ccdf", "cdf" or "asymptotic_cdf") of the hop SNR X_t."""
    _check_argument(x, t, topology)
    ell_next = pathloss_linear(topology.hop_distances[t - 1], budget)
    kernel = "prod_exp_cdf" if form == "cdf" else "prod_exp_ccdf"

    def branch(w, v, gains):
        return w * memo(kernel, x / budget.gamma_bar0, v + 1, gains + (ell_next,))
    if form == "asymptotic_cdf":
        branch = _residue_branch(memo, x, budget, ell_next, 1.0)
    return _mix(t, topology, policy, budget, branch, f"{form}_X(t={t})")


def _com_mix(memo, form, t, k, topology, policy, budget, y):
    """``form`` of the com device SNR Y_{t,k} in subarea k of slot t."""
    _check_argument(y, t, topology)
    kt = topology.subarea_counts[t - 1]
    if not 1 <= k <= kt:
        raise ValueError(f"subarea {k} outside 1..{kt}")
    eps, c_exp = budget.epsilon, 2.0 / budget.epsilon
    chi_hi = k * k / (2.0 * k - 1.0)
    chi_lo = (k - 1.0) ** 2 / (2.0 * k - 1.0)
    ell_edge = pathloss_linear(topology.disk_radii[t - 1], budget)
    kernel = "annulus_kernel_deficit" if form == "cdf" else "annulus_kernel"

    def branch(w, v, gains):
        c_tau = y / (budget.gamma_bar0 * ell_edge * math.prod(gains))
        term = chi_hi * memo(kernel, c_tau * (k / kt) ** eps, v, c_exp)
        if k > 1:
            term -= chi_lo * memo(kernel, c_tau * ((k - 1) / kt) ** eps, v, c_exp)
        return w * c_exp * term
    if form == "asymptotic_cdf":
        branch = _residue_branch(memo, y, budget, ell_edge,
                                 annulus_small_gain_coefficient(k, kt, eps))
    return _mix(t, topology, policy, budget, branch, f"{form}_Y(t={t},k={k})")


def _nearest_mix(memo, form, t, topology, policy, budget, fit, z):
    """``form`` of the qom (nearest-device) SNR Z_t; asymptotes need no fit."""
    _check_argument(z, t, topology)
    kernel = "nearest_kernel_deficit" if form == "cdf" else "nearest_kernel"

    def branch(w, v, gains):
        scale = budget.gamma_bar0 * fit.mu * math.prod(gains)
        return w / math.gamma(fit.m) * memo(kernel, (z / scale) ** fit.theta, v,
                                            fit.theta, fit.m)
    if form == "asymptotic_cdf":
        radius = topology.disk_radii[t - 1]
        branch = _residue_branch(
            memo, z, budget, pathloss_linear(radius, budget),
            nearest_small_gain_coefficient(topology.density_active, radius,
                                           budget.epsilon))
    return _mix(t, topology, policy, budget, branch, f"{form}_Z(t={t})")


def ccdf_X(x: float, t: int, topology: NetworkTopology, policy: EhPolicy,
           budget: LinkBudget) -> float:
    """Survival function of the hop SNR received by node t+1."""
    return _hop_mix(KernelMemo(), "ccdf", t, topology, policy, budget, x)


def cdf_X(x: float, t: int, topology: NetworkTopology, policy: EhPolicy,
          budget: LinkBudget) -> float:
    return _hop_mix(KernelMemo(), "cdf", t, topology, policy, budget, x)


def ccdf_Y(y: float, t: int, k: int, topology: NetworkTopology, policy: EhPolicy,
           budget: LinkBudget) -> float:
    """Survival function of the com device SNR in subarea k of slot t."""
    return _com_mix(KernelMemo(), "ccdf", t, k, topology, policy, budget, y)


def cdf_Y(y: float, t: int, k: int, topology: NetworkTopology, policy: EhPolicy,
          budget: LinkBudget) -> float:
    return _com_mix(KernelMemo(), "cdf", t, k, topology, policy, budget, y)


def ccdf_Z(z: float, t: int, topology: NetworkTopology, policy: EhPolicy,
           budget: LinkBudget, fit: FittedGainDistribution) -> float:
    """Survival function of the qom (nearest-device) SNR in slot t."""
    return _nearest_mix(KernelMemo(), "ccdf", t, topology, policy, budget, fit, z)


def cdf_Z(z: float, t: int, topology: NetworkTopology, policy: EhPolicy,
          budget: LinkBudget, fit: FittedGainDistribution) -> float:
    return _nearest_mix(KernelMemo(), "cdf", t, topology, policy, budget, fit, z)


# ---------------------------------------------------------------------------
# high-power asymptotes
# ---------------------------------------------------------------------------

def annulus_small_gain_coefficient(k: int, kt: int, eps: float) -> float:
    """Leading slope constant of the subarea-k gain CDF near zero."""
    c = 2.0 / eps
    chi_hi = k * k / (2.0 * k - 1.0)
    chi_lo = (k - 1.0) ** 2 / (2.0 * k - 1.0)
    return c / (c + 1.0) * (chi_hi * (k / kt) ** eps - chi_lo * ((k - 1) / kt) ** eps)


def nearest_small_gain_coefficient(density: float, radius: float,
                                   eps: float) -> float:
    """Leading slope constant of the nearest-device gain CDF near zero."""
    a = math.pi * density * radius**2
    if a <= 0.0:
        raise ValueError("needs a positive active density")
    return a ** (-eps / 2.0) * lower_incomplete_gamma(eps / 2.0 + 1.0, a) \
        / -math.expm1(-a)


def asymptotic_cdf_X(x: float, t: int, topology: NetworkTopology,
                     policy: EhPolicy, budget: LinkBudget) -> float:
    """Residue-series approximation of cdf_X, accurate at high power."""
    return _hop_mix(KernelMemo(), "asymptotic_cdf", t, topology, policy,
                    budget, x)


def asymptotic_cdf_Y(y: float, t: int, k: int, topology: NetworkTopology,
                     policy: EhPolicy, budget: LinkBudget) -> float:
    return _com_mix(KernelMemo(), "asymptotic_cdf", t, k, topology, policy,
                    budget, y)


def asymptotic_cdf_Z(z: float, t: int, topology: NetworkTopology,
                     policy: EhPolicy, budget: LinkBudget) -> float:
    return _nearest_mix(KernelMemo(), "asymptotic_cdf", t, topology, policy,
                        budget, None, z)


# ---------------------------------------------------------------------------
# outage probabilities
# ---------------------------------------------------------------------------

class SlotMarginals:
    """Outage marginals of one scenario, each evaluated at most once.

    The decoding thresholds are derived on construction.  Hop outage,
    served-device outage, end-to-end outage and sum throughput are
    memoized per (event, ``asymptotic``), so every composition of the same
    scenario reuses one value per slot.  ``nearest_fit(t)`` returns the
    nearest-gain fit of slot ``t``; it is called only when an exact qom
    device outage first needs it.
    """

    def __init__(self, scheme: Scheme, topology: NetworkTopology,
                 policy: EhPolicy, budget: LinkBudget, plan: AllocationPlan,
                 nearest_fit=None, kernels: Optional["KernelMemo"] = None):
        self.scheme = scheme
        self.topology = topology
        self.policy = policy
        self.budget = budget
        self.plan = plan
        self.thresholds = decoding_thresholds(plan, policy, topology.node_count,
                                              scheme)
        self._nearest_fit = nearest_fit
        self.kernels = KernelMemo() if kernels is None else kernels
        self._memo = {}

    def _once(self, compute, *args):
        key = (compute.__name__,) + args
        if key not in self._memo:
            self._memo[key] = compute(*args)
        return self._memo[key]

    def hop(self, t: int, asymptotic: bool = False) -> float:
        """Outage of the relayed message at the receiver of slot t."""
        return self._once(self._hop, t, asymptotic)

    def device(self, t: int, k: Optional[int],
               asymptotic: bool = False) -> float:
        """Outage of the device served in slot t (``k=None``: qom device)."""
        return self._once(self._device, t, k, asymptotic)

    def e2e(self, node, asymptotic: bool = False) -> float:
        """End-to-end outage of ``node``, as in :func:`e2e_op`."""
        return self._once(self._e2e, node, asymptotic)

    def throughput(self, asymptotic: bool = False) -> float:
        """Sum throughput over the relayed message and every served device."""
        return self._once(self._throughput, asymptotic)

    def _hop(self, t, asymptotic):
        topology, policy, budget = self.topology, self.policy, self.budget
        log_idle = log_null_probability(topology.density_active,
                                        topology.disk_radii[t - 1])
        iota = (math.exp(log_idle), -math.expm1(log_idle))
        form = "asymptotic_cdf" if asymptotic else "cdf"
        evaluate = functools.partial(_hop_mix, self.kernels, form, t,
                                     topology, policy, budget)
        return self._outage(t, self.thresholds.relay, iota, evaluate,
                            f"op_typeI(t={t})")

    def _device(self, t, k, asymptotic):
        topology, policy, budget = self.topology, self.policy, self.budget
        form = "asymptotic_cdf" if asymptotic else "cdf"
        if k is None:
            thresholds = self.thresholds.qom_device[t - 1]
            label = f"op_typeII_qom(t={t})"
            if not asymptotic and self._nearest_fit is None:
                raise ValueError("exact qom outage needs the nearest-gain fit")
            fit = None if asymptotic else self._nearest_fit(t)
            evaluate = functools.partial(_nearest_mix, self.kernels, form, t,
                                         topology, policy, budget, fit)
        else:
            thresholds = self.thresholds.com_device[t - 1][k - 1]
            label = f"op_typeII_com(t={t},k={k})"
            evaluate = functools.partial(_com_mix, self.kernels, form, t, k,
                                         topology, policy, budget)
        return self._outage(t, tuple((th,) for th in thresholds), (1.0,),
                            evaluate, label)

    def _outage(self, t, thresholds, iota, evaluate, label):
        """CDF deficit at ``thresholds[i][j]``, mixed over the receiver's
        harvest state i and the sender's states j, weighted by ``iota``."""
        rho = (self.policy.rho0(t + 1), self.policy.rho1(t + 1))
        op = 0.0
        for i in (0, 1):
            for j, share in enumerate(iota):
                threshold = thresholds[i][j]
                # a threshold at or below zero never fails; +inf always does
                if rho[i] == 0.0 or share == 0.0 or threshold <= 0.0:
                    continue
                op += rho[i] * share * (1.0 if math.isinf(threshold)
                                        else evaluate(threshold))
        return _clamp(op, label)

    def _e2e(self, node, asymptotic):
        if node == "destination":
            return _clamp(_success_product(
                self.hop(t, asymptotic)
                for t in range(1, self.topology.hop_count + 1)),
                "e2e_op(destination)")
        t, k = node
        device = self.device(t, k, asymptotic)
        chain = [self.hop(i, asymptotic) for i in range(1, t)] + [device]
        return _clamp(_success_product(chain), f"e2e_op(t={t},k={k})")

    def _throughput(self, asymptotic):
        pairing = self.scheme.pairing
        destination = self.e2e("destination", asymptotic)
        devices = []
        for t in range(1, self.topology.hop_count + 1):
            if pairing == "com":
                kt = self.topology.subarea_counts[t - 1]
                devices.append(tuple(self.e2e((t, k), asymptotic)
                                     for k in range(1, kt + 1)))
            elif pairing == "qom":
                devices.append((self.e2e((t, None), asymptotic),))
            else:
                devices.append(())
        return sum_throughput(self.plan, destination, tuple(devices), pairing,
                              self.topology.node_count)


def op_typeI(t: int, scheme: Scheme, topology: NetworkTopology,
             policy: EhPolicy, budget: LinkBudget, plan: AllocationPlan,
             asymptotic: bool = False) -> float:
    """Outage of the relayed message at the receiver of slot t.

    Mixes the hop-SNR CDF over the receiver's harvest state and the
    transmitter disk's device-activity state; identical for com and qom
    pairing because the relayed message sees the same total interference
    share either way.
    """
    return SlotMarginals(scheme, topology, policy, budget, plan).hop(
        t, asymptotic)


def op_typeII_com(t: int, k: int, scheme: Scheme, topology: NetworkTopology,
                  policy: EhPolicy, budget: LinkBudget, plan: AllocationPlan,
                  asymptotic: bool = False) -> float:
    """Outage of the com device in subarea k of slot t (given it is served)."""
    return SlotMarginals(scheme, topology, policy, budget, plan).device(
        t, k, asymptotic)


def op_typeII_qom(t: int, scheme: Scheme, topology: NetworkTopology,
                  policy: EhPolicy, budget: LinkBudget, plan: AllocationPlan,
                  fit: Optional[FittedGainDistribution] = None,
                  asymptotic: bool = False) -> float:
    """Outage of the nearest served device in slot t (given one exists)."""
    nearest_fit = None if fit is None else (lambda _t: fit)
    return SlotMarginals(scheme, topology, policy, budget, plan,
                         nearest_fit).device(t, None, asymptotic)


def _success_product(ops) -> float:
    log_success = sum(math.log1p(-min(op, 1.0)) if op < 1.0 else -math.inf
                      for op in ops)
    return -math.expm1(log_success) if math.isfinite(log_success) else 1.0


def e2e_op(node, scheme: Scheme, topology: NetworkTopology, policy: EhPolicy,
           budget: LinkBudget, plan: AllocationPlan,
           fits: Optional[tuple] = None, asymptotic: bool = False) -> float:
    """End-to-end outage under the rare-harvest product approximation.

    ``node`` is ``"destination"`` for the relayed message, or ``(t, k)``
    for the device served in slot ``t`` (``k=None`` selects the qom
    device).  A device is reached once its slot's transmitter holds the
    message, so its chain covers hops 1..t-1 plus the device's own
    decode; the slot's forward hop is a separate event.
    """
    nearest_fit = None if fits is None else (lambda t: fits[t - 1])
    return SlotMarginals(scheme, topology, policy, budget, plan,
                         nearest_fit).e2e(node, asymptotic)


# ---------------------------------------------------------------------------
# throughput and energy efficiency
# ---------------------------------------------------------------------------

def sum_throughput(plan: AllocationPlan, destination_e2e: float,
                   device_e2e: tuple, pairing: Optional[str],
                   node_count: int) -> float:
    """Aggregate goodput per block, normalized by the slot count.

    ``device_e2e[t-1]`` lists the end-to-end outage of every device served
    in slot ``t`` (com: one per subarea, in subarea order; qom: a single
    entry; baseline: empty).
    """
    slots = node_count - 1
    total = plan.relay_rate * (1.0 - destination_e2e)
    for t, ops in enumerate(device_e2e, start=1):
        if pairing == "com":
            rates = plan.device_rates[t - 1]
        elif pairing == "qom":
            rates = (plan.nearest_rates[t - 1],)
        else:
            rates = ()
        if len(ops) != len(rates):
            raise ValueError(f"slot {t}: {len(ops)} outage values for "
                             f"{len(rates)} served devices")
        total += sum(r * (1.0 - op) for r, op in zip(rates, ops))
    return total / slots


def energy_efficiency(throughput: float, budget: LinkBudget, policy: EhPolicy,
                      bandwidth_hz: float):
    """(EE, consumed supply power): harvested hops cost no supply power."""
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    p_tol = budget.P0 * sum(policy.rho0(j)
                            for j in range(1, policy.node_count))
    return bandwidth_hz * throughput / p_tol, p_tol


# ---------------------------------------------------------------------------
# diversity order
# ---------------------------------------------------------------------------

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
