"""Bernoulli energy harvesting and the relay transmit-power chain.

Relay nodes either transmit at the fixed supply power or, when their
harvest indicator fires, recycle the energy captured from the previous
hop.  Under time-switching (BTEH) a node diverts a fraction ``alpha`` of
its receive slot to harvesting; under power-splitting (BPEH) it taps a
fraction ``beta`` of the received power.  Either way the harvested
transmit power is the previous hop's received power scaled by a
per-architecture gain factor, which makes the power at hop ``t`` a product
over the run of consecutive harvesting nodes behind it.  This module holds
the policy and that gain factor; the simulator resolves the chain per
trial and the closed-form layer mixes over its harvest-run states.
"""

from __future__ import annotations

from dataclasses import dataclass

ARCHITECTURES = ("BTEH", "BPEH")


@dataclass(frozen=True)
class EhPolicy:
    """Harvesting architecture and per-node harvest probabilities.

    ``rho[t-1]`` is the probability node ``t`` harvests (1-indexed nodes).
    The chain endpoints never harvest: the source has no upstream hop and
    the destination never transmits, so ``rho`` is forced to zero there.
    """

    architecture: str
    rho: tuple
    alpha: float = 0.2
    beta: float = 0.8
    eta: float = 1.0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"architecture must be one of {ARCHITECTURES}, got {self.architecture!r}")
        rho = tuple(float(r) for r in self.rho)
        if len(rho) < 2:
            raise ValueError("need at least a source and a destination node")
        if any(not 0.0 <= r <= 1.0 for r in rho):
            raise ValueError(f"harvest probabilities must lie in [0,1], got {rho}")
        rho = (0.0,) + rho[1:-1] + (0.0,)
        object.__setattr__(self, "rho", rho)
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0,1), got {self.alpha}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0,1), got {self.beta}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0,1], got {self.eta}")

    @property
    def node_count(self) -> int:
        return len(self.rho)

    def rho1(self, t: int) -> float:
        """Probability node t harvests."""
        return self.rho[t - 1]

    def rho0(self, t: int) -> float:
        """Probability node t runs on supply power."""
        return 1.0 - self.rho[t - 1]

    @property
    def is_harvesting(self) -> bool:
        return any(r > 0.0 for r in self.rho)


def uniform_policy(architecture: str, node_count: int, rho: float,
                   alpha: float = 0.2, beta: float = 0.8,
                   eta: float = 1.0) -> EhPolicy:
    """Policy with one interior harvest probability for every relay."""
    if node_count < 2:
        raise ValueError("need at least a source and a destination node")
    vector = (0.0,) + (rho,) * (node_count - 2) + (0.0,)
    return EhPolicy(architecture=architecture, rho=vector, alpha=alpha,
                    beta=beta, eta=eta)


def omega_factor(t: int, policy: EhPolicy, node_count: int) -> float:
    """Power gain applied per harvested hop.

    Time-switching spreads one receive slot's harvest over the shorter
    transmit window, giving ``(M-1) alpha eta / (1 - alpha)``;
    power-splitting simply passes ``beta eta`` through.
    """
    if policy.architecture == "BTEH":
        if policy.alpha >= 1.0:
            raise ValueError("alpha = 1 leaves no transmit window")
        return (node_count - 1) * policy.alpha * policy.eta / (1.0 - policy.alpha)
    return policy.beta * policy.eta
