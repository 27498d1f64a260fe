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
:class:`LogGammaTable` of gamma factors and the grids they are computed
on: a caller may create one and pass it to the public kernels
(``table=``) to share it across calls; it then owns the table, decides
how long it lives and must not share it between threads.  Without one,
each call fills a private table.  A table changes no result: a kernel
returns the very float it returns without one.
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
# and its size changes no value.  Two in five contour walks of the shipped
# sweeps stop after nine or ten panels; of chunks of 4, 6, 8, 10, 12 and 16
# panels, ten ran their kernels fastest
_PANEL_CHUNK = 10

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
    return _scipy_loggamma()(z)


def _scipy_loggamma():
    from scipy.special import loggamma as scipy_loggamma
    return scipy_loggamma


_OWN_LOGGAMMA = loggamma


class _Grid:
    """What a table keeps of one grid: its points, their negation, what
    its walk reads besides (``aux``: a window's candidates as a list, a
    circle's offsets from its centre) and, per ``(num, den)``, the
    numerator and the denominator factor arrays, each in order."""

    __slots__ = ("points", "neg", "aux", "rows")

    def __init__(self, points, aux=None):
        self.points = points
        self.neg = -points
        self.aux = aux
        self.rows = {}


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
    order.  ``lookups`` counts lookups, one per factor, and ``arrays``
    misses, per grid kind.

    Besides its items the table keeps, per grid, what does not depend on
    the kernel argument (``grids``: a :class:`_Grid`), and per family, by
    its ``kind``, its :class:`Family` (``families``), the contour's cap
    (``u_caps``) and the pole clusters its residue walks have built
    (``ladders``).  It resolves the ``loggamma`` it computes with on its
    first miss: this module's, so that a caller may replace it, and
    scipy's itself while that is the module's own.
    """

    def __init__(self):
        super().__init__()
        self.lookups = collections.Counter()
        self.arrays = collections.Counter()
        self.grids = {}
        self.families = {}
        self.u_caps = {}
        self.ladders = {}
        self.loggamma = None

    def clear(self):
        super().clear()
        self.grids.clear()
        self.families.clear()
        self.u_caps.clear()
        self.ladders.clear()

    def factor(self, grid, shift: float, slope: float, s):
        """``loggamma(shift + slope*s)`` with ``s`` the points of ``grid``."""
        self.lookups[grid[0]] += 1
        key = (grid, shift, slope)
        value = self.get(key)
        if value is None:
            if self.loggamma is None:
                self.loggamma = (_scipy_loggamma()
                                 if loggamma is _OWN_LOGGAMMA else loggamma)
            value = self[key] = self.loggamma(shift + slope * s)
            self.arrays[grid[0]] += 1
        return value

    def rows(self, grid, s, num, den):
        """The negated points of ``grid`` and its numerator and
        denominator factor arrays, in order; ``s``, the grid's points, is
        read only where the table does not hold the grid yet."""
        state = self.grids.get(grid)
        if state is None:
            state = self.grids[grid] = _Grid(s)
        rows = state.rows.get((num, den))
        if rows is None:
            points = state.points
            rows = state.rows[num, den] = (
                tuple([self.factor(grid, beta, slope, points)
                       for beta, slope in num]),
                tuple([self.factor(grid, beta, slope, points)
                       for beta, slope in den]))
        else:
            self.lookups[grid[0]] += len(num) + len(den)
        return state.neg, rows


def _log_integrand(s, num, den, logx, table, grid):
    """-s log x plus the numerator and minus the denominator log-gammas,
    each factor read from ``table`` on the grid that names the points s,
    summed in order into the one array ``-s log x`` makes."""
    neg, (num_rows, den_rows) = table.rows(grid, s, num, den)
    out = neg * logx
    for row in num_rows:
        out += row
    for row in den_rows:
        out -= row
    return out


def _pick_abscissa(num, den, window, logx, table) -> float:
    """Scan the pole-free window for the abscissa with the flattest peak.

    All candidates are scored in one integrand evaluation; the first
    strict minimum wins, and a NaN score never does.
    """
    lo, hi = window
    grid = ("window", lo, hi)
    state = table.grids.get(grid)
    if state is None:
        if hi is None:
            cands = lo + _OPEN_OFFSETS
        else:
            cands = lo + (hi - lo) * _WINDOW_FRACTIONS
        state = table.grids[grid] = _Grid(cands.astype(complex),
                                          cands.tolist())
    vals = _log_integrand(state.points, num, den, logx, table, grid).real
    cands = state.aux
    best, best_val = cands[0], math.inf
    for c, val in zip(cands, vals.tolist()):
        if val < best_val:
            best, best_val = c, val
    return best


def _contour_value(family: Family, x: float, tol: float, table) -> float:
    """(1/pi) * int_0^inf Re[integrand(c + iu)] du by Gauss-Legendre panels.

    Panel ``k`` spans ``[u, u + h]`` with ``u`` the sum of ``k`` steps
    ``h``, so its nodes are fixed by ``(c, h, k)``.  The integrand is
    evaluated ``_PANEL_CHUNK`` panels at a time, each panel's quadrature
    sum taken in one ``vecdot`` over the chunk; the panel sums are then
    added one by one, in order, until the tail goes quiet.
    """
    num, den = family.num, family.den
    logx = math.log(x)
    c = _pick_abscissa(num, den, family.window, logx, table)
    u_cap = table.u_caps.get(family.kind)
    if u_cap is None:
        decay = 0.5 * math.pi * (sum(abs(sl) for _, sl in num)
                                 - sum(abs(sl) for _, sl in den))
        u_cap = table.u_caps[family.kind] = max(80.0, 420.0 / decay)
    h = min(1.0, 30.0 / max(1.0, abs(logx)))
    chunk = _PANEL_CHUNK
    offsets = steps = None
    total = 0.0
    last = math.inf
    quiet = 0
    u = 0.0
    k = 0
    while u < u_cap:
        grid = ("panels", c, h, k, chunk)
        state = table.grids.get(grid)
        if state is None:
            if offsets is None:
                offsets = 0.5 * h * (_GL_NODES + 1.0)
                steps = np.full(chunk, h)
            # the same running sum u += h as the walk below
            steps[0] = u
            starts = np.add.accumulate(steps)
            state = table.grids[grid] = _Grid(
                c + 1j * (starts[:, None] + offsets))
        vals = _log_integrand(state.points, num, den, logx, table, grid)
        # one ddot per panel, as np.dot of each row would be
        sums = np.vecdot(np.exp(vals, out=vals).real, _GL_WEIGHTS)
        for value in sums.tolist():
            if not u < u_cap:
                break
            last = 0.5 * h * value
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


def _clusters(family: Family, table):
    """The pole clusters of ``family`` in order: those the walks on
    ``table`` built already, then more from :func:`_cluster` as this walk
    reads them."""
    ladder = table.ladders.get(family.kind)
    if ladder is None:
        ladder = table.ladders[family.kind] = ([], _cluster(family.rungs))
    built, rest = ladder
    i = 0
    while True:
        if i == len(built):
            cl = next(rest, None)
            if cl is None:
                return
            built.append(cl)
        yield built[i]
        i += 1


def _circle_residue_sum(num, den, logx, center, radius, table) -> float:
    """(1/2 pi i) closed-circle integral of the integrand = sum of residues."""
    grid = ("ring", center, radius)
    state = table.grids.get(grid)
    if state is None:
        ring = radius * _UNIT_RING
        state = table.grids[grid] = _Grid(center + ring, ring)
    vals = _log_integrand(state.points, num, den, logx, table, grid)
    vals = np.exp(vals, out=vals)
    vals *= state.aux
    return float((np.add.reduce(vals) / _RING_NODES).real)


def _residue_sum(family: Family, x: float, table) -> float:
    """Sum of the integrand residues over the left pole ladder.

    The poles are walked in clusters away from zero until the running total
    stops moving; each cluster is integrated on a circle small enough to
    bound the x^{-s} amplification (radius <= 3/|log x|).
    """
    num, den = family.num, family.den
    logx = math.log(x)
    clusters = _clusters(family, table)
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
    family = table.families.get(kind)
    if family is None:
        family = table.families[kind] = _family(kind)
    if x < RESIDUE_CROSSOVER:
        return -_residue_sum(family, x, table)
    return total - _contour_value(family, x, tol, table)


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
