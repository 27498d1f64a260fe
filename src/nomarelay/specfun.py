"""Numerical kernel for the restricted Meijer-G / Fox-H families of the model.

Only the parameter layouts that actually occur in the outage analysis are
evaluated: the product-of-exponentials CCDF kernel, the annulus mixed-gain
kernel and the nearest-gain product kernel, each with its CDF-side
deficit.  The product PDF and Singh-Maddala CDF layouts keep their factor
rows so their known closed forms can check the same machinery.  Values
come from Mellin-Barnes contour quadrature on a vertical line, switched
below a small-argument crossover to a residue series evaluated by circle
integrals around the left pole ladder, so that tiny CDF values keep
*relative* accuracy (needed for the high-power diversity slope).

Everything here is pure and thread-safe.  The one piece of state is a
:class:`LogGammaTable` of gamma factors: a caller may create one and pass
it to the public kernels (``table=``) to share it across calls; it then
owns the table, decides how long it lives and must not share it between
threads.  Without one, each call fills a private table.  A table changes
no result: a kernel returns the very float it returns without one.
"""

from __future__ import annotations

import collections
import math
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np
from scipy.special import loggamma

# contour -> residue-series switch point for the CDF-side kernels
RESIDUE_CROSSOVER = 1e-3

# incomplete-gamma iteration controls (series / Lentz continued fraction)
_MAX_ITER = 500
_GAMMA_EPS = 1e-15

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_NODES.setflags(write=False)
_GL_WEIGHTS.setflags(write=False)

# points of every residue circle: exp(i theta) at the midpoint angles
_RING_NODES = 192
_UNIT_RING = np.exp(1j * (2.0 * math.pi * (np.arange(_RING_NODES) + 0.5)
                          / _RING_NODES))
_UNIT_RING.setflags(write=False)


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
# lower incomplete gamma
# ---------------------------------------------------------------------------

def lower_incomplete_gamma(a: float, x: float) -> float:
    """gamma(a, x) = int_0^x u^(a-1) e^(-u) du  for a > 0, x >= 0.

    Series for x < a+1, Lentz continued fraction for the upper tail
    otherwise; relative error ~1e-14.
    """
    if a <= 0:
        raise ValueError(f"lower_incomplete_gamma requires a > 0, got a={a!r}")
    if x < 0:
        raise ValueError(f"lower_incomplete_gamma requires x >= 0, got x={x!r}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        # gamma(a,x) = x^a e^-x * sum_n x^n / (a(a+1)...(a+n))
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _GAMMA_EPS:
                return math.exp(-x + a * math.log(x)) * total
        raise KernelConvergenceError(
            f"incomplete-gamma series stalled at a={a}, x={x}",
            achieved=abs(term / total), target=_GAMMA_EPS)
    # continued fraction for Gamma(a, x), then subtract from Gamma(a)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            upper = math.exp(-x + a * math.log(x)) * h
            return math.gamma(a) - upper
    raise KernelConvergenceError(
        f"incomplete-gamma continued fraction stalled at a={a}, x={x}",
        achieved=abs(delta - 1.0), target=_GAMMA_EPS)


# ---------------------------------------------------------------------------
# Mellin-Barnes machinery
#
# Each family is reduced to an integrand  exp(sum loggamma(beta_j + B_j s)
# - sum loggamma(delta_j + D_j s) - s log x)  with a pole-free vertical
# window for the contour abscissa.  Factor lists are tuples of (shift, slope).
# ---------------------------------------------------------------------------

def _family_factors(kind):
    """Numerator/denominator gamma factors and the contour window."""
    tag = kind[0]
    if tag == "ccdf":
        n = kind[1]
        num = ((1.0, 1.0),) * (n - 1) + ((0.0, 1.0),)
        return num, (), (0.0, None)
    if tag == "pdf":
        n = kind[1]
        return ((0.0, 1.0),) * n, (), (0.0, None)
    if tag == "annulus":
        v, c = kind[1], kind[2]
        num = ((1.0, 1.0),) * v + ((0.0, 1.0), (c, -1.0))
        return num, ((1.0 + c, -1.0),), (0.0, c)
    if tag == "sm_cdf":
        m = kind[1]
        return ((m, 1.0), (0.0, -1.0)), (), (-m, 0.0)
    if tag == "z_kernel":
        v, theta, m = kind[1], kind[2], kind[3]
        num = ((0.0, 1.0),) + ((1.0, theta),) * v + ((m, -1.0),)
        return num, (), (0.0, m)
    raise UnsupportedSpecError(f"unknown kernel family {kind!r}")


class LogGammaTable(dict):
    """``loggamma(shift + slope*s)`` of the quadrature grids, computed once.

    Every point where a kernel integrand is evaluated is fixed by its grid,
    not by the kernel argument: a contour panel by ``("panel", c, h,
    index)``, a residue circle by ``("ring", center, radius)`` and an
    abscissa candidate by ``("candidate", c)``.  So each gamma factor's
    array is keyed by ``(grid, shift, slope)`` and computed once for as
    long as the table lives.  Each factor keeps its own array, so a hit
    adds exactly the terms a fresh evaluation adds, in the same order.
    ``lookups`` counts lookups per grid kind.
    """

    def __init__(self):
        super().__init__()
        self.lookups = collections.Counter()

    def factor(self, grid, shift: float, slope: float, s):
        """``loggamma(shift + slope*s)`` with ``s`` the points of ``grid``."""
        self.lookups[grid[0]] += 1
        key = (grid, shift, slope)
        value = self.get(key)
        if value is None:
            value = self[key] = loggamma(shift + slope * s)
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
    """Scan the pole-free window for the abscissa with the flattest peak."""
    lo, hi = window
    if hi is None:
        cands = [lo + d for d in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0)]
    else:
        width = hi - lo
        cands = list(lo + width * np.linspace(0.05, 0.95, 19))
    best, best_val = cands[0], math.inf
    for c in cands:
        val = _log_integrand(complex(c, 0.0), num, den, logx, table,
                             ("candidate", c)).real
        if val < best_val:
            best, best_val = c, val
    return best


def _contour_value(kind, x: float, tol: float, table=None) -> float:
    """(1/pi) * int_0^inf Re[integrand(c + iu)] du by Gauss-Legendre panels.

    Panel ``k`` spans ``[u, u + h]`` with ``u`` the sum of ``k`` steps
    ``h``, so its nodes are fixed by ``(c, h, k)``.
    """
    if table is None:
        table = LogGammaTable()
    num, den, window = _family_factors(kind)
    logx = math.log(x)
    c = _pick_abscissa(num, den, window, logx, table)
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
        nodes = u + 0.5 * h * (_GL_NODES + 1.0)
        s = c + 1j * nodes
        vals = np.exp(_log_integrand(s, num, den, logx, table,
                                     ("panel", c, h, k))).real
        last = 0.5 * h * float(np.dot(_GL_WEIGHTS, vals))
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
        f"Mellin-Barnes contour did not settle for family {kind!r} at x={x}",
        achieved=abs(last), target=tol / 16.0)


# --- residue series ---------------------------------------------------------

def _left_poles(kind, count: int):
    """First `count` poles left of 0, descending (closest to zero first)."""
    tag = kind[0]
    if tag in ("ccdf", "annulus"):
        return [-float(k) for k in range(1, count + 1)]
    if tag == "pdf":
        return [-float(k) for k in range(0, count)]
    if tag == "z_kernel":
        theta = kind[2]
        poles = {-float(k) for k in range(1, count + 1)}
        poles.update(-(1.0 + j) / theta for j in range(count))
        return sorted(poles, reverse=True)[:count]
    raise UnsupportedSpecError(f"no residue ladder for family {kind!r}")


def _cluster(poles, gap: float = 0.1):
    clusters = [[poles[0]]]
    for p in poles[1:]:
        if clusters[-1][-1] - p < gap:
            clusters[-1].append(p)
        else:
            clusters.append([p])
    return clusters


def _circle_residue_sum(num, den, logx, center, radius, table) -> float:
    """(1/2 pi i) closed-circle integral of the integrand = sum of residues."""
    ring = radius * _UNIT_RING
    vals = np.exp(_log_integrand(center + ring, num, den, logx, table,
                                 ("ring", center, radius)))
    return float((vals * ring).mean().real)


def _residue_sum(kind, x: float, rel_tol: float = 1e-11,
                 max_poles: int = 60, table=None) -> float:
    """Sum of the integrand residues over the left pole ladder.

    The poles are walked in clusters away from zero until the running total
    stops moving; each cluster is integrated on a circle small enough to
    bound the x^{-s} amplification (radius <= 3/|log x|).
    """
    if table is None:
        table = LogGammaTable()
    num, den, _ = _family_factors(kind)
    logx = math.log(x)
    ladder = _left_poles(kind, max_poles)
    clusters = _cluster(ladder)
    # distances to whatever lies outside each cluster (neighbours and s=0)
    acc = 0.0
    quiet = 0
    for i, cl in enumerate(clusters):
        center = 0.5 * (cl[0] + cl[-1])
        span = cl[0] - cl[-1]
        out_dist = -cl[0] if kind[0] != "pdf" or cl[0] != 0.0 else math.inf
        if i > 0:
            out_dist = min(out_dist, clusters[i - 1][-1] - cl[0])
        if i + 1 < len(clusters):
            out_dist = min(out_dist, cl[-1] - clusters[i + 1][0])
        margin = min(0.2, 3.0 / max(1.0, abs(logx)), 0.45 * out_dist)
        if margin <= 1e-9:
            raise KernelConvergenceError(
                f"pole cluster too crowded for family {kind!r} near s={center}")
        contrib = _circle_residue_sum(num, den, logx, center,
                                      0.5 * span + margin, table)
        acc += contrib
        if abs(contrib) <= rel_tol * max(abs(acc), 1e-300):
            quiet += 1
            if quiet >= 2:
                return acc
        else:
            quiet = 0
    raise KernelConvergenceError(
        f"residue ladder did not converge for family {kind!r} at x={x}",
        achieved=abs(contrib), target=rel_tol * max(abs(acc), 1e-300))


# ---------------------------------------------------------------------------
# family evaluators: value and CDF-side deficit from one crossover branch
# ---------------------------------------------------------------------------

def _sides(kind, x: float, total: float, tol: float, table) -> tuple:
    """(value, deficit) of a family at x > 0, where the two sum to ``total``.

    Below the crossover the residue series gives the deficit with relative
    accuracy; above it the contour gives the value.
    """
    if x < RESIDUE_CROSSOVER:
        r = -_residue_sum(kind, x, table=table)
        return total - r, r
    c = _contour_value(kind, x, tol, table)
    return c, total - c


def _ccdf_sides(x: float, n: int, table=None) -> tuple:
    """G^{n,0}_{0,n}[x | 1,..,1,0], the CCDF of a product of n unit
    exponentials, and its deficit 1 - G."""
    if n == 1:
        return math.exp(-x), -math.expm1(-x)
    return _sides(("ccdf", n), x, 1.0, 1e-9, table)


# ---------------------------------------------------------------------------
# public entry points
#
# Each takes an optional keyword-only ``table``, a LogGammaTable the caller
# owns, that the kernel reads and fills; the result is the same without one.
# ---------------------------------------------------------------------------

def _check_means(n: int, means: Sequence[float]) -> None:
    if n < 1 or len(means) != n:
        raise ValueError(f"need n >= 1 factor means, got n={n}, {len(means)} means")
    if any(m <= 0 for m in means):
        raise ValueError("factor means must be positive")


def prod_exp_ccdf(z: float, n: int, means: Sequence[float], *,
                  table: LogGammaTable | None = None) -> float:
    """Pr[prod of n independent exponentials >= z], means as given."""
    _check_means(n, means)
    if z <= 0:
        return 1.0
    scale = math.prod(means)
    return _ccdf_sides(z / scale, n, table)[0]


def prod_exp_cdf(z: float, n: int, means: Sequence[float], *,
                 table: LogGammaTable | None = None) -> float:
    """1 - prod_exp_ccdf, computed on the deficit path for small arguments."""
    _check_means(n, means)
    if z <= 0:
        return 0.0
    scale = math.prod(means)
    return _ccdf_sides(z / scale, n, table)[1]


def _check_annulus(v: int, c_exp: float) -> None:
    if not (0.0 < c_exp < 1.0):
        raise UnsupportedSpecError(f"annulus exponent must be in (0,1), got {c_exp}")
    if v < 0:
        raise UnsupportedSpecError(f"annulus kernel needs v >= 0, got {v}")


def annulus_kernel(x: float, v: int, c_exp: float, *,
                   table: LogGammaTable | None = None) -> float:
    """G^{v+1,1}_{1,v+2}[x | 1-c; 1,..,1,0,-c] with c = c_exp = 2/epsilon."""
    _check_annulus(v, c_exp)
    if x <= 0:
        raise ValueError(f"annulus_kernel requires x > 0, got x={x!r}")
    return _sides(("annulus", v, c_exp), x, 1.0 / c_exp, 1e-9, table)[0]


def annulus_kernel_deficit(x: float, v: int, c_exp: float, *,
                           table: LogGammaTable | None = None) -> float:
    """1/c - annulus_kernel(x): the CDF-side remainder, small-x accurate."""
    _check_annulus(v, c_exp)
    if x <= 0:
        return 0.0
    return _sides(("annulus", v, c_exp), x, 1.0 / c_exp, 1e-9, table)[1]


def _check_nearest(v: int, theta: float, m: float) -> None:
    if theta <= 0 or m <= 0 or v < 0:
        raise UnsupportedSpecError(
            f"nearest kernel needs theta > 0, m > 0, v >= 0; got {theta}, {m}, {v}")


def nearest_kernel(x: float, v: int, theta: float, m: float, *,
                   table: LogGammaTable | None = None) -> float:
    """H^{v+1,1}_{1,v+1}[x | (1-m,1); (0,1),(1,theta)^v]."""
    _check_nearest(v, theta, m)
    if x <= 0:
        raise ValueError(f"nearest_kernel requires x > 0, got x={x!r}")
    return _sides(("z_kernel", v, theta, m), x, math.gamma(m), 1e-8, table)[0]


def nearest_kernel_deficit(x: float, v: int, theta: float, m: float, *,
                           table: LogGammaTable | None = None) -> float:
    """Gamma(m) - nearest_kernel(x): CDF-side remainder, small-x accurate."""
    _check_nearest(v, theta, m)
    if x <= 0:
        return 0.0
    return _sides(("z_kernel", v, theta, m), x, math.gamma(m), 1e-8, table)[1]


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


def _leading_residue(x: float, n: int) -> float:
    """Residue of Gamma(1+s)^n Gamma(s) x^{-s} at the s=-1 pole."""
    cj = _depoled_taylor(n)
    lx = math.log(x)
    total = 0.0
    for r in range(n + 1):
        total += cj[n - r] * (-lx) ** r / math.factorial(r)
    return x * total


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
    return -_leading_residue(x, n)
