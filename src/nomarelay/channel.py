"""Link budget, UMi path loss, and the fading-gain distributions.

Small-scale fading is Rayleigh, so a hop gain (fade power times path gain)
is exponential with mean equal to the path gain at the hop distance.  For
device links the distance itself is random, which mixes the exponential
over the annulus or nearest-device distance law.  The annulus mixture has
a closed form in lower incomplete gamma functions; the nearest-device
mixture only has an integral form, which we evaluate by quadrature and
approximate with a fitted Singh-Maddala (Burr XII) distribution whose
Fox-H representation the analytical layer consumes; the annulus mixture
enters that layer directly as a kernel.  The path gain at 1 m is the
constant ``LinkBudget.L``.

Note: the printed dB path-loss convention yields gains above one at short
range; we keep the formula exactly as given rather than re-deriving it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import CoverageDisk
from .specfun import KernelConvergenceError

logger = logging.getLogger(__name__)

REFERENCE_NOISE_DBM_PER_HZ = -174.0

# absolute error target of the nearest-gain quadrature
_QUAD_TOL = 1e-9
_FIT_GRID = (1e-4, 1e4, 200)
_MAX_FIT_ERROR = 1e-2


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def noise_power_w(bandwidth_hz: float) -> float:
    """Thermal noise floor: -174 dBm/Hz plus 10*log10(bandwidth)."""
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    return dbm_to_watts(REFERENCE_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz))


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power, noise floor, and UMi path-loss parameters.

    ``L`` is the path gain at 1 m, derived once per budget, and the
    reference SNR ``gamma_bar0 = P0 / sigma2`` is derived from the fields.
    """

    P0: float          # W
    sigma2: float      # W
    f_c: float = 3.0   # GHz
    G_r: float = 5.0   # dBi
    G_t: float = 5.0   # dBi
    epsilon: float = 3.67

    def __post_init__(self):
        if self.P0 <= 0.0 or self.sigma2 <= 0.0:
            raise ValueError("P0 and sigma2 must be positive")
        if self.f_c <= 0.0:
            raise ValueError("f_c must be positive")
        if self.epsilon <= 2.0:
            raise ValueError(
                f"path-loss exponent must exceed 2 for finite moments, got {self.epsilon}")

    @functools.cached_property
    def L(self) -> float:
        # 10^(0.1 (22.7 + 26 log10 f_c - G_r - G_t)); equivalently
        # 10^2.27 f_c^2.6 / 10^(0.1 (G_r + G_t))
        exponent = 0.1 * (22.7 + 26.0 * math.log10(self.f_c) - self.G_r - self.G_t)
        return 10.0 ** exponent

    @property
    def gamma_bar0(self) -> float:
        return self.P0 / self.sigma2


def pathloss_linear(x: float, budget: LinkBudget, out=None) -> float:
    """Linear path gain L (1/x)^epsilon at distance x in metres; for an
    array ``x``, written into ``out`` when given, in the same operations."""
    # a float skips the array round trip; NaN passes either way
    bad = x <= 0.0 if isinstance(x, float) else np.any(np.asarray(x) <= 0.0)
    if bad:
        raise ValueError(f"distance must be positive, got {x}")
    if out is None:
        return budget.L * (1.0 / x) ** budget.epsilon
    np.divide(1.0, x, out=out)
    out **= budget.epsilon
    np.multiply(budget.L, out, out=out)
    return out


def ccdf_varphi_nearest_numeric(phi: float, disk: CoverageDisk,
                                budget: LinkBudget) -> float:
    """Survival function of the nearest-device gain, by quadrature.

    Conditioning the exponential fade on the truncated contact distance and
    substituting w = (r/r_t)^2 turns the mixture into

        Fbar = a/(1-e^-a) * int_0^1 exp(-a w - c w^(eps/2)) dw

    with a = pi lambda r_t^2 and c = phi / l(r_t).  The integrand is smooth
    on [0,1], so adaptive quadrature reaches 1e-9 easily; this is both the
    fitting target and the oracle the fitted form is judged against.
    """
    # imported on first use: a sweep answered by the fit sidecar never
    # integrates, and the import costs a fresh interpreter ~0.1 s
    from scipy.integrate import quad

    if disk.density_active <= 0.0:
        raise ValueError("nearest-device law needs a positive active density")
    if phi < 0.0:
        raise ValueError(f"gain must be non-negative, got {phi}")
    if phi == 0.0:
        return 1.0
    a = math.pi * disk.density_active * disk.radius**2
    c = phi / pathloss_linear(disk.radius, budget)
    half_eps = 0.5 * budget.epsilon

    # at large phi the mass sits in a layer near w = 0 of width c^(-2/eps);
    # without explicit breakpoints the adaptive rule can sample past it and
    # report ~0 with a clean error estimate
    layer = min(1.0, c ** (-1.0 / half_eps)) if c > 1.0 else 1.0
    breaks = sorted({w for w in (layer, 10.0 * layer, 1.0 / a if a > 1.0 else 1.0)
                     if 0.0 < w < 1.0})
    value, err = quad(lambda w: math.exp(-a * w - c * w**half_eps), 0.0, 1.0,
                      points=breaks or None,
                      epsabs=_QUAD_TOL * 1e-2, epsrel=1e-12, limit=200)
    if err > _QUAD_TOL:
        raise KernelConvergenceError(
            "nearest-gain quadrature did not converge", achieved=err,
            target=_QUAD_TOL)
    return a / -math.expm1(-a) * value


def cdf_varphi_nearest_numeric(phi: float, disk: CoverageDisk,
                               budget: LinkBudget) -> float:
    if phi < 0.0:
        raise ValueError(f"gain must be non-negative, got {phi}")
    if phi == 0.0:
        return 0.0
    return 1.0 - ccdf_varphi_nearest_numeric(phi, disk, budget)


# ---------------------------------------------------------------------------
# Singh-Maddala approximation of the nearest-device gain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FittedGainDistribution:
    """Singh-Maddala parameters approximating the nearest-device gain CDF."""

    mu: float
    theta: float
    m: float
    fit_error: float

    def __post_init__(self):
        if self.mu <= 0.0 or self.theta <= 0.0 or self.m <= 0.0:
            raise ValueError("Singh-Maddala parameters must be positive")


class FitError(RuntimeError):
    """Raised when the Singh-Maddala fit cannot reach the required accuracy."""


def singh_maddala_cdf(phi, fit: FittedGainDistribution):
    phi = np.maximum(np.asarray(phi, dtype=float), 0.0)
    out = 1.0 - (1.0 + (phi / fit.mu) ** fit.theta) ** (-fit.m)
    return float(out) if out.ndim == 0 else out


def _quantile_matched_start(m: float, grid: np.ndarray, target: np.ndarray):
    """Initial (mu, theta) for a fixed shape m by matching two quantiles."""
    probs = (0.25, 0.75)
    logs = []
    for p in probs:
        idx = np.searchsorted(target, p)
        idx = min(max(idx, 1), grid.size - 1)
        f0, f1 = target[idx - 1], target[idx]
        x0, x1 = math.log(grid[idx - 1]), math.log(grid[idx])
        frac = 0.0 if f1 == f0 else (p - f0) / (f1 - f0)
        logs.append(x0 + frac * (x1 - x0))
    # Singh-Maddala quantile: log phi_p = log mu + (1/theta) log((1-p)^(-1/m) - 1)
    g = [math.log((1.0 - p) ** (-1.0 / m) - 1.0) for p in probs]
    inv_theta = (logs[1] - logs[0]) / (g[1] - g[0])
    if inv_theta <= 0.0:
        inv_theta = 0.5
    log_mu = logs[0] - inv_theta * g[0]
    return log_mu, math.log(1.0 / inv_theta)


def fit_singh_maddala(disk: CoverageDisk,
                      budget: LinkBudget) -> FittedGainDistribution:
    """Fit the Singh-Maddala CDF to the nearest-device gain distribution.

    The objective is the sup-norm CDF deviation on a log-spaced gain grid
    spanning ``_FIT_GRID = (lo_factor, hi_factor, points)`` times the edge
    path gain l(r_t) — sup-norm because downstream outage errors are
    CDF-level deviations.  Derivative-free simplex minimization over
    (log mu, log theta, log m), restarted from quantile-matched guesses for
    several shape values; raises :class:`FitError` rather than returning a
    fit worse than ``_MAX_FIT_ERROR``.
    """
    from scipy.optimize import minimize  # on first use, like quad

    lo, hi, points = _FIT_GRID
    scale = pathloss_linear(disk.radius, budget)
    grid = np.geomspace(lo * scale, hi * scale, points)
    target = np.array([cdf_varphi_nearest_numeric(g, disk, budget) for g in grid])

    def objective(params):
        log_mu, log_theta, log_m = params
        if abs(log_mu) > 60.0 or abs(log_theta) > 6.0 or abs(log_m) > 6.0:
            return 2.0
        fit = FittedGainDistribution(math.exp(log_mu), math.exp(log_theta),
                                     math.exp(log_m), 0.0)
        return float(np.max(np.abs(singh_maddala_cdf(grid, fit) - target)))

    best = None
    for m0 in (0.5, 1.0, 2.0, 4.0):
        x0 = (*_quantile_matched_start(m0, grid, target), math.log(m0))
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"xatol": 1e-7, "fatol": 1e-11, "maxiter": 4000})
        if best is None or res.fun < best.fun:
            best = res
    # the sup-norm surface stalls simplex steps; fresh-simplex restarts at the
    # incumbent pin the minimax point down to ~1e-4 in each parameter
    for _ in range(6):
        simplex = best.x + np.vstack([np.zeros(3), 0.02 * np.eye(3)])
        res = minimize(objective, best.x, method="Nelder-Mead",
                       options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 4000,
                                "initial_simplex": simplex})
        if res.fun < best.fun:
            best = res

    error = float(best.fun)
    if error > _MAX_FIT_ERROR:
        raise FitError(
            f"Singh-Maddala fit stalled: sup-norm {error:.3e} exceeds "
            f"{_MAX_FIT_ERROR:.1e} (best params {np.exp(best.x)})")
    log_mu, log_theta, log_m = best.x
    return FittedGainDistribution(mu=math.exp(log_mu), theta=math.exp(log_theta),
                                  m=math.exp(log_m), fit_error=error)


# ---------------------------------------------------------------------------
# fit cache sidecar
# ---------------------------------------------------------------------------

def fit_cache_key(disk: CoverageDisk, budget: LinkBudget) -> str:
    """Cache key covering everything the fit depends on."""
    return "|".join(repr(v) for v in (
        disk.density_active, disk.radius, budget.epsilon,
        pathloss_linear(disk.radius, budget)))


def load_fit_cache(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return {key: FittedGainDistribution(**params) for key, params in raw.items()}


def save_fit_cache(path: str, cache: dict) -> None:
    """Write the sidecar atomically.

    The payload goes to a temporary file in the sidecar's directory, which
    then replaces the sidecar in one rename, so a concurrent reader or an
    interrupted write never sees a torn file.
    """
    payload = {
        key: {"mu": fit.mu, "theta": fit.theta, "m": fit.m,
              "fit_error": fit.fit_error}
        for key, fit in cache.items()
    }
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class FitBook:
    """Nearest-gain fits memoized by geometry, backed by an optional sidecar.

    Each geometry is resolved at most once per book: the sidecar at
    ``cache_path`` is read on the first lookup, a fit it lacks is computed
    and written back, and a fit that fails is remembered and its
    :class:`FitError` raised again on every later lookup.  A sidecar that
    cannot be written costs a warning, not the fit.
    """

    def __init__(self, cache_path: Optional[str] = None):
        self.cache_path = cache_path
        self._sidecar = None
        self._fits = {}

    def fit(self, disk: CoverageDisk, budget: LinkBudget) -> FittedGainDistribution:
        key = fit_cache_key(disk, budget)
        if key not in self._fits:
            self._fits[key] = self._resolve(key, disk, budget)
        entry = self._fits[key]
        if isinstance(entry, FitError):
            raise entry
        return entry

    def _resolve(self, key, disk, budget):
        if self._sidecar is None:
            self._sidecar = ({} if self.cache_path is None
                             else load_fit_cache(self.cache_path))
        if key in self._sidecar:
            return self._sidecar[key]
        try:
            fit = fit_singh_maddala(disk, budget)
        except FitError as exc:
            return exc
        if self.cache_path is not None:
            self._sidecar[key] = fit
            try:
                save_fit_cache(self.cache_path, self._sidecar)
            except OSError as exc:
                logger.warning("fit sidecar %s not saved: %s",
                               self.cache_path, exc)
        return fit

