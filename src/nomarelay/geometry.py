"""Spatial model for the device deployment around each relay.

Type-II devices form a homogeneous Poisson point process (HPPP) on a disk
centred at their serving transmitter.  The disk is split into equal-width
annuli used as NOMA scheduling subareas.  This module holds the disk and
its null probability; the simulator draws the scheduled-device and
nearest-device distances itself, and the closed-form layer mixes over
their laws.  The annulus bounds and distance laws, which only the tests
read, live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CoverageDisk:
    """Coverage region of one relay: radius, active density, subarea count."""

    radius: float
    density_active: float
    subarea_count: int = 1

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.density_active < 0.0:
            raise ValueError("densities must be non-negative")
        if int(self.subarea_count) != self.subarea_count or self.subarea_count < 1:
            raise ValueError(f"subarea_count must be a positive integer, got {self.subarea_count}")


def log_null_probability(density: float, radius: float) -> float:
    """Log-probability that a disk of this radius holds no point of the
    process: -lambda*pi*r^2, kept in log form because dense Type-II
    deployments push the probability to ~1e-137 and beyond."""
    if density < 0.0:
        raise ValueError(f"density must be non-negative, got {density}")
    if radius <= 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    return -density * math.pi * radius**2
