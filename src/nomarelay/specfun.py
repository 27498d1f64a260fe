"""Numerical kernel for the restricted Meijer-G / Fox-H families of the model.

The outage analysis reads three kernel families, each on its CDF side
only: the product-of-exponentials tail, the annulus mixed-gain kernel and
the nearest-gain product kernel.  One :class:`Family` per kernel holds its
gamma factor rows, its pole-free contour window and the rungs of its left
pole ladder.  A kernel's CDF-side deficit comes from Mellin-Barnes contour
quadrature on a vertical line, switched below a small-argument crossover
to a residue series evaluated by circle integrals around the left pole
ladder, so that tiny CDF values keep *relative* accuracy (needed for the
high-power diversity slope).

Everything here is pure and thread-safe.  The one piece of state is a
:class:`LogGammaTable` of gamma factors: a caller may create one and pass
it to the public kernels (``table=``) to share it across calls; it then
owns the table, decides how long it lives and must not share it between
threads.  Without one, each call fills a private table.  A table changes
no result: a kernel returns the very float it returns without one.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
from functools import lru_cache
from typing import NamedTuple, Sequence, Tuple

import numpy as np

# contour -> residue-series switch point for the CDF-side kernels
RESIDUE_CROSSOVER = 1e-3

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_NODES.setflags(write=False)
_GL_WEIGHTS.setflags(write=False)

# contour panels per integrand evaluation; the stopping rule still walks
# them one by one, so a chunk may hold a few panels past the last one summed
_PANEL_CHUNK = 8

# abscissa candidates: offsets right of an open window's left edge, or
# fractions of a bounded window's width
_OPEN_OFFSETS = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0])
_OPEN_OFFSETS.setflags(write=False)
_WINDOW_FRACTIONS = np.linspace(0.05, 0.95, 19)
_WINDOW_FRACTIONS.setflags(write=False)

# points of every residue circle: exp(i theta) at the midpoint angles
_RING_NODES = 192
_UNIT_RING = np.exp(1j * (2.0 * math.pi * (np.arange(_RING_NODES) + 0.5)
                          / _RING_NODES))
_UNIT_RING.setflags(write=False)

# residue series: ladder length, relative stopping tolerance, and the pole
# spacing below which neighbouring poles share one circle
_MAX_POLES = 60
_RESIDUE_REL_TOL = 1e-11
_CLUSTER_GAP = 0.1


class UnsupportedSpecError(ValueError):
    """Parameter layout outside the restricted families."""


class KernelConvergenceError(RuntimeError):
    """Quadrature or residue summation failed to reach its tolerance."""

    def __init__(self, message: str, *, achieved: float | None = None,
                 target: float | None = None):
        if achieved is not None and target is not None:
            message = f"{message} (achieved {achieved:.3e}, target {target:.3e})"
        super().__init__(message)
        self.achieved = achieved
        self.target = target


# ---------------------------------------------------------------------------
# Mellin-Barnes machinery
# ---------------------------------------------------------------------------

class Family(NamedTuple):
    """One kernel family as the integrand  exp(sum loggamma(beta_j + B_j s)
    - sum loggamma(delta_j + D_j s) - s log x)  of its Mellin-Barnes
    contour.  Factor rows are tuples of (shift, slope)."""

    kind: tuple    # family tag and parameters, as errors report it
    num: tuple     # numerator gamma factors
    den: tuple     # denominator gamma factors
    window: tuple  # pole-free abscissa window (lo, hi); hi None is open
    rungs: tuple   # (first, slope): left poles -(first + j)/slope, j >= 0


def _family(kind) -> Family:
    """The family of a kernel the model reads, by tag and parameters."""
    tag = kind[0]
    if tag == "ccdf":
        n = kind[1]
        num = ((1.0, 1.0),) * (n - 1) + ((0.0, 1.0),)
        return Family(kind, num, (), (0.0, None), ((1.0, 1.0),))
    if tag == "annulus":
        v, c = kind[1], kind[2]
        num = ((1.0, 1.0),) * v + ((0.0, 1.0), (c, -1.0))
        return Family(kind, num, ((1.0 + c, -1.0),), (0.0, c), ((1.0, 1.0),))
    if tag == "z_kernel":
        v, theta, m = kind[1], kind[2], kind[3]
        num = ((0.0, 1.0),) + ((1.0, theta),) * v + ((m, -1.0),)
        return Family(kind, num, (), (0.0, m), ((1.0, 1.0), (1.0, theta)))
    raise UnsupportedSpecError(f"unknown kernel family {kind!r}")


def loggamma(z):
    """``scipy.special.loggamma``, imported on first use, so that importing
    the package or simulating loads no scipy module."""
    from scipy.special import loggamma as scipy_loggamma
    return scipy_loggamma(z)


class LogGammaTable(dict):
    """``loggamma(shift + slope*s)`` of the quadrature grids, computed once.

    Every point where a kernel integrand is evaluated is fixed by its grid,
    not by the kernel argument: a chunk of ``chunk`` contour panels, the
    first of them panel ``index``, by ``("panels", c, h, index, chunk)``;
    a residue circle by ``("ring", center, radius)``; and the abscissa
    candidates of a pole-free window by ``("window", lo, hi)``.  So each
    gamma factor's array is keyed by ``(grid, shift, slope)`` and computed
    once for as long as the table lives.  Each factor keeps its own array,
    so a hit adds exactly the terms a fresh evaluation adds, in the same
    order.  ``lookups`` counts lookups, ``arrays`` misses, per grid kind.
    """

    def __init__(self):
        super().__init__()
        self.lookups = collections.Counter()
        self.arrays = collections.Counter()

    def factor(self, grid, shift: float, slope: float, s):
        """``loggamma(shift + slope*s)`` with ``s`` the points of ``grid``."""
        self.lookups[grid[0]] += 1
        key = (grid, shift, slope)
        value = self.get(key)
        if value is None:
            value = self[key] = loggamma(shift + slope * s)
            self.arrays[grid[0]] += 1
        return value


def _log_integrand(s, num, den, logx, table, grid):
    """-s log x plus the numerator and minus the denominator log-gammas,
    each factor looked up in ``table`` on the grid that names the points s."""
    out = -s * logx
    for beta, slope in num:
        out = out + table.factor(grid, beta, slope, s)
    for beta, slope in den:
        out = out - table.factor(grid, beta, slope, s)
    return out


def _pick_abscissa(num, den, window, logx, table) -> float:
    """Scan the pole-free window for the abscissa with the flattest peak.

    All candidates are scored in one integrand evaluation; the first
    strict minimum wins, and a NaN score never does.
    """
    lo, hi = window
    if hi is None:
        cands = lo + _OPEN_OFFSETS
    else:
        cands = lo + (hi - lo) * _WINDOW_FRACTIONS
    vals = _log_integrand(cands.astype(complex), num, den, logx, table,
                          ("window", lo, hi)).real
    cands = cands.tolist()
    best, best_val = cands[0], math.inf
    for c, val in zip(cands, vals.tolist()):
        if val < best_val:
            best, best_val = c, val
    return best


def _contour_value(family: Family, x: float, tol: float, table) -> float:
    """(1/pi) * int_0^inf Re[integrand(c + iu)] du by Gauss-Legendre panels.

    Panel ``k`` spans ``[u, u + h]`` with ``u`` the sum of ``k`` steps
    ``h``, so its nodes are fixed by ``(c, h, k)``.  The integrand is
    evaluated ``_PANEL_CHUNK`` panels at a time; the panels of a chunk are
    then summed one by one, in order, until the tail goes quiet.
    """
    num, den, window = family.num, family.den, family.window
    logx = math.log(x)
    c = _pick_abscissa(num, den, window, logx, table)
    decay = 0.5 * math.pi * (sum(abs(sl) for _, sl in num)
                             - sum(abs(sl) for _, sl in den))
    h = min(1.0, 30.0 / max(1.0, abs(logx)))
    u_cap = max(80.0, 420.0 / decay)
    offsets = 0.5 * h * (_GL_NODES + 1.0)
    steps = np.full(_PANEL_CHUNK, h)
    total = 0.0
    last = math.inf
    quiet = 0
    u = 0.0
    k = 0
    while u < u_cap:
        # the same running sum u += h as the walk below
        steps[0] = u
        starts = np.add.accumulate(steps)
        s = c + 1j * (starts[:, None] + offsets)
        vals = np.exp(_log_integrand(s, num, den, logx, table,
                                     ("panels", c, h, k, _PANEL_CHUNK))).real
        for panel in vals:
            if not u < u_cap:
                break
            last = 0.5 * h * float(np.dot(_GL_WEIGHTS, panel))
            total += last
            u += h
            k += 1
            if abs(last) < tol / 16.0:
                quiet += 1
                if quiet >= 2:
                    return total / math.pi
            else:
                quiet = 0
    raise KernelConvergenceError(
        f"Mellin-Barnes contour did not settle for family {family.kind!r} at x={x}",
        achieved=abs(last), target=tol / 16.0)


# --- residue series ---------------------------------------------------------

def _cluster(rungs):
    """The first ``_MAX_POLES`` left poles, descending (closest to zero
    first), in runs of neighbours closer than ``_CLUSTER_GAP``, yielded one
    run at a time so that a walk which settles early builds no more."""
    # each generator binds its own rung as it is created
    ladders = [(-(first + j) / slope for first, slope in [rung]
                for j in range(_MAX_POLES)) for rung in rungs]
    poles = ladders[0]
    if len(ladders) > 1:  # one rung is already distinct and descending
        poles = itertools.islice(
            (p for p, _ in itertools.groupby(heapq.merge(*ladders,
                                                         reverse=True))),
            _MAX_POLES)
    run = [next(poles)]
    for p in poles:
        if run[-1] - p < _CLUSTER_GAP:
            run.append(p)
        else:
            yield run
            run = [p]
    yield run


def _circle_residue_sum(num, den, logx, center, radius, table) -> float:
    """(1/2 pi i) closed-circle integral of the integrand = sum of residues."""
    ring = radius * _UNIT_RING
    vals = np.exp(_log_integrand(center + ring, num, den, logx, table,
                                 ("ring", center, radius)))
    return float((np.add.reduce(vals * ring) / _RING_NODES).real)


def _residue_sum(family: Family, x: float, table) -> float:
    """Sum of the integrand residues over the left pole ladder.

    The poles are walked in clusters away from zero until the running total
    stops moving; each cluster is integrated on a circle small enough to
    bound the x^{-s} amplification (radius <= 3/|log x|).
    """
    num, den = family.num, family.den
    logx = math.log(x)
    clusters = _cluster(family.rungs)
    # distances to whatever lies outside each cluster (neighbours and s=0),
    # reading one cluster ahead
    acc = 0.0
    quiet = 0
    before, cl = None, next(clusters)
    for after in itertools.chain(clusters, [None]):
        center = 0.5 * (cl[0] + cl[-1])
        span = cl[0] - cl[-1]
        out_dist = -cl[0] if cl[0] != 0.0 else math.inf
        if before is not None:
            out_dist = min(out_dist, before[-1] - cl[0])
        if after is not None:
            out_dist = min(out_dist, cl[-1] - after[0])
        margin = min(0.2, 3.0 / max(1.0, abs(logx)), 0.45 * out_dist)
        if margin <= 1e-9:
            raise KernelConvergenceError(
                f"pole cluster too crowded for family {family.kind!r} near s={center}")
        contrib = _circle_residue_sum(num, den, logx, center,
                                      0.5 * span + margin, table)
        acc += contrib
        if abs(contrib) <= _RESIDUE_REL_TOL * max(abs(acc), 1e-300):
            quiet += 1
            if quiet >= 2:
                return acc
        else:
            quiet = 0
        before, cl = cl, after
    raise KernelConvergenceError(
        f"residue ladder did not converge for family {family.kind!r} at x={x}",
        achieved=abs(contrib), target=_RESIDUE_REL_TOL * max(abs(acc), 1e-300))


def _deficit(kind, x: float, total: float, tol: float, table) -> float:
    """``total`` minus the value of a family at x > 0: the residue series
    below the crossover, for relative accuracy; else the contour value.
    Without a ``table`` the call fills a private one."""
    if table is None:
        table = LogGammaTable()
    if x < RESIDUE_CROSSOVER:
        return -_residue_sum(_family(kind), x, table)
    return total - _contour_value(_family(kind), x, tol, table)


# ---------------------------------------------------------------------------
# public entry points
#
# Each takes an optional keyword-only ``table``, a LogGammaTable the caller
# owns, that the kernel reads and fills; the result is the same without one.
# ---------------------------------------------------------------------------

def prod_exp_cdf(z: float, n: int, means: Sequence[float], *,
                 table: LogGammaTable | None = None) -> float:
    """Pr[prod of n independent exponentials < z], means as given: the
    deficit of G^{n,0}_{0,n}[z/prod(means) | 1,..,1,0], small-z accurate."""
    if n < 1 or len(means) != n:
        raise ValueError(f"need n >= 1 factor means, got n={n}, {len(means)} means")
    if any(m <= 0 for m in means):
        raise ValueError("factor means must be positive")
    if z <= 0:
        return 0.0
    x = z / math.prod(means)
    if n == 1:
        return -math.expm1(-x)
    return _deficit(("ccdf", n), x, 1.0, 1e-9, table)


def annulus_kernel_deficit(x: float, v: int, c_exp: float, *,
                           table: LogGammaTable | None = None) -> float:
    """1/c - G^{v+1,1}_{1,v+2}[x | 1-c; 1,..,1,0,-c] with c = c_exp =
    2/epsilon: the CDF-side remainder, small-x accurate."""
    if not (0.0 < c_exp < 1.0):
        raise UnsupportedSpecError(f"annulus exponent must be in (0,1), got {c_exp}")
    if v < 0:
        raise UnsupportedSpecError(f"annulus kernel needs v >= 0, got {v}")
    if x <= 0:
        return 0.0
    return _deficit(("annulus", v, c_exp), x, 1.0 / c_exp, 1e-9, table)


def nearest_kernel_deficit(x: float, v: int, theta: float, m: float, *,
                           table: LogGammaTable | None = None) -> float:
    """Gamma(m) - H^{v+1,1}_{1,v+1}[x | (1-m,1); (0,1),(1,theta)^v]: the
    CDF-side remainder, small-x accurate."""
    if theta <= 0 or m <= 0 or v < 0:
        raise UnsupportedSpecError(
            f"nearest kernel needs theta > 0, m > 0, v >= 0; got {theta}, {m}, {v}")
    if x <= 0:
        return 0.0
    return _deficit(("z_kernel", v, theta, m), x, math.gamma(m), 1e-8, table)


# --- small-argument residue asymptote (Lemma-2 building block) --------------

@lru_cache(maxsize=64)
def _depoled_taylor(n: int) -> Tuple[float, ...]:
    """Taylor coefficients at u=0 of Gamma(1+u)^(n+1) / (u-1).

    This is the product-CCDF integrand with the order-(n+1) pole at s=-1
    factored out (s = -1 + u); the coefficients play the role of the
    log-power weights in the residue expansion.  Extracted numerically by a
    circle FFT -- they are not available in closed form.
    """
    nodes = 64
    radius = 0.5
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    u = radius * np.exp(1j * theta)
    f = np.exp((n + 1) * loggamma(1.0 + u)) / (u - 1.0)
    coef = np.fft.fft(f) / nodes
    cj = coef[: n + 1] / radius ** np.arange(n + 1)
    return tuple(float(v) for v in cj.real)


def residue_asymptote_cdf(x: float, n: int) -> float:
    """Two-pole approximation of the CDF of an n+1 factor product, x -> 0.

    Keeps the residues at s=0 and the order-(n+1) pole at s=-1 of the
    product CCDF kernel only, cancellation-free; this is the building
    block of the high-power CDF asymptotes.
    """
    if n < 0:
        raise ValueError(f"residue_asymptote_cdf requires n >= 0, got n={n}")
    if x <= 0:
        return 0.0
    if n == 0:
        return x
    # minus the residue of Gamma(1+s)^n Gamma(s) x^{-s} at s=-1
    cj = _depoled_taylor(n)
    lx = math.log(x)
    total = 0.0
    for r in range(n + 1):
        total += cj[n - r] * (-lx) ** r / math.factorial(r)
    return -x * total
