"""Channel tests: path loss, fade CDFs, nearest-gain fit."""

import dataclasses
import math
import os

import numpy as np
import pytest

from nomarelay.channel import (
    FitError,
    FittedGainDistribution,
    LinkBudget,
    cdf_varphi_nearest_numeric,
    ccdf_varphi_nearest_numeric,
    dbm_to_watts,
    fit_cache_key,
    fit_singh_maddala,
    load_fit_cache,
    save_fit_cache,
    noise_power_w,
    pathloss_linear,
    singh_maddala_cdf,
)
from nomarelay import channel
from nomarelay.geometry import CoverageDisk
from oracles import (
    cdf_phi,
    cdf_varphi_annulus,
    fit_singh_maddala_cached,
    pathloss_db,
    singh_maddala_ccdf,
    singh_maddala_ccdf_foxh,
    watts_to_dbm,
)


def default_budget(p0_dbm=0.0):
    return LinkBudget(P0=dbm_to_watts(p0_dbm), sigma2=noise_power_w(1e7))


def make_disk(radius, lam=1e-2, subareas=1):
    return CoverageDisk(radius=radius, density_active=lam,
                        subarea_count=subareas)


# ---------------------------------------------------------------------------
# link budget and path loss
# ---------------------------------------------------------------------------

def test_reference_gain_value():
    b = default_budget()
    # two algebraic routes to the same constant
    assert b.L == pytest.approx(10**2.27 * 3.0**2.6 / 10.0, rel=1e-9)
    assert b.L == pytest.approx(323.97780768255484, rel=1e-12)


def test_noise_floor_and_reference_snr():
    b = default_budget()
    assert watts_to_dbm(b.sigma2) == pytest.approx(-104.0, abs=1e-9)
    assert b.sigma2 == pytest.approx(3.9810717055349693e-14, rel=1e-12)
    assert b.gamma_bar0 == pytest.approx(1e-3 / 3.9810717055349693e-14, rel=1e-12)


def test_pathloss_reference_distance_identity():
    b = default_budget()
    assert pathloss_linear(1.0, b) == b.L


def test_pathloss_values():
    b = default_budget()
    expected = {25.0: 2.399249596541588e-3, 50.0: 1.8849305197930478e-4,
                100.0: 1.4808642958901521e-5, 200.0: 1.163416391116107e-6}
    for x, val in expected.items():
        assert pathloss_linear(x, b) == pytest.approx(val, rel=1e-12)


def test_pathloss_db_linear_agree():
    b = default_budget()
    for x in (1.0, 50.0, 200.0):
        linear = pathloss_linear(x, b)
        from_db = 10.0 ** (pathloss_db(x, b) / 10.0)
        assert abs(linear - from_db) / linear < 1e-9


def test_pathloss_into_given_rows():
    b = default_budget()
    x = np.array([[1.0, 25.0, 200.0], [3.5, 77.0, 1e3]])
    out = np.full_like(x, np.nan)
    assert pathloss_linear(x, b, out=out) is out
    assert out.tobytes() == pathloss_linear(x, b).tobytes()
    with pytest.raises(ValueError, match="distance must be positive"):
        pathloss_linear(np.array([50.0, 0.0]), b, out=np.empty(2))


def test_pathloss_exceeds_unity_at_short_range():
    # the dB convention comes out as a gain > 1 near the transmitter; we keep
    # the formula as printed instead of patching it
    b = default_budget()
    assert pathloss_linear(1.0, b) > 1.0
    assert pathloss_linear(4.0, b) > 1.0


def test_pathloss_domain_error():
    b = default_budget()
    for bad in (0.0, -1.0, np.float64(-2.0), 0, np.array([50.0, 0.0])):
        with pytest.raises(ValueError, match="distance must be positive"):
            pathloss_linear(bad, b)
    # NaN passes the check, as a float and inside an array alike
    assert math.isnan(pathloss_linear(math.nan, b))
    assert np.isnan(pathloss_linear(np.array([math.nan]), b)).all()
    with pytest.raises(ValueError):
        pathloss_db(-3.0, b)


def test_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(P0=0.0, sigma2=1e-14)
    with pytest.raises(ValueError):
        LinkBudget(P0=1e-3, sigma2=-1e-14)
    with pytest.raises(ValueError):
        LinkBudget(P0=1e-3, sigma2=1e-14, epsilon=2.0)


def test_with_p0_rescales_reference_snr():
    b = default_budget()
    b10 = dataclasses.replace(b, P0=dbm_to_watts(10.0))
    assert b10.gamma_bar0 == pytest.approx(10.0 * b.gamma_bar0, rel=1e-12)
    assert b10.L == b.L


# ---------------------------------------------------------------------------
# fixed-distance hop gain
# ---------------------------------------------------------------------------

def test_cdf_phi_endpoints():
    b = default_budget()
    assert cdf_phi(0.0, 100.0, b) == 0.0
    mean = pathloss_linear(100.0, b)
    assert cdf_phi(mean, 100.0, b) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert cdf_phi(mean, 100.0, b) == pytest.approx(0.63212, abs=5e-6)


def test_cdf_phi_against_rayleigh_draws():
    b = default_budget()
    d = 80.0
    mean = pathloss_linear(d, b)
    rng = np.random.default_rng(2024)
    # |h|^2 for Rayleigh h is exponential; scale by the path gain
    gains = np.sort(rng.exponential(mean, size=1_000_000))
    probs = np.arange(1, gains.size + 1) / gains.size
    ks = np.max(np.abs(cdf_phi(gains, d, b) - probs))
    assert ks < 0.002


# ---------------------------------------------------------------------------
# annulus-device gain
# ---------------------------------------------------------------------------

def test_annulus_gain_cdf_limits():
    b = default_budget()
    disk = make_disk(100.0)
    assert cdf_varphi_annulus(0.0, 1, disk, b) == 0.0
    scale = pathloss_linear(100.0, b)
    assert cdf_varphi_annulus(1e10 * scale, 1, disk, b) > 1.0 - 1e-5
    with pytest.raises(ValueError):
        cdf_varphi_annulus(-1.0, 1, disk, b)


def test_annulus_gain_cdf_monotone_and_bounded():
    b = default_budget()
    disk = make_disk(100.0, subareas=3)
    scale = pathloss_linear(100.0, b)
    for k in (1, 2, 3):
        vals = [cdf_varphi_annulus(p, k, disk, b)
                for p in np.geomspace(1e-6 * scale, 1e8 * scale, 100)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_annulus_gain_cdf_whole_disk_vs_monte_carlo():
    b = default_budget()
    disk = make_disk(100.0)
    rng = np.random.default_rng(42)
    n = 1_000_000
    radii = 100.0 * np.sqrt(rng.random(n))
    gains = rng.exponential(pathloss_linear(radii, b))
    scale = pathloss_linear(100.0, b)
    for mult in (0.1, 1.0, 10.0):
        emp = float(np.mean(gains <= mult * scale))
        ana = cdf_varphi_annulus(mult * scale, 1, disk, b)
        assert abs(ana - emp) < 0.003


def test_annulus_gain_cdf_subarea_vs_monte_carlo():
    # distance from the middle annulus of three, then exponential fade
    b = default_budget()
    disk = make_disk(100.0, subareas=3)
    rng = np.random.default_rng(43)
    n = 500_000
    k, kt = 2, 3
    radii = 100.0 / kt * np.sqrt((k - 1) ** 2 + (2 * k - 1) * rng.random(n))
    gains = rng.exponential(pathloss_linear(radii, b))
    scale = pathloss_linear(100.0, b)
    for mult in (0.3, 1.0, 3.0):
        emp = float(np.mean(gains <= mult * scale))
        ana = cdf_varphi_annulus(mult * scale, k, disk, b)
        assert abs(ana - emp) < 0.004


def test_annulus_gain_small_value_slope():
    # leading behaviour is phi * coeff / l(r_t) with the known shape constant
    b = default_budget()
    disk = make_disk(100.0)
    eps = b.epsilon
    coeff = (2.0 / eps) / (2.0 / eps + 1.0)
    scale = pathloss_linear(100.0, b)
    phi = 1e-3 * scale
    assert cdf_varphi_annulus(phi, 1, disk, b) == pytest.approx(1e-3 * coeff, rel=0.02)


# ---------------------------------------------------------------------------
# nearest-device gain (numeric)
# ---------------------------------------------------------------------------

def test_nearest_gain_cdf_endpoints_and_monotone():
    b = default_budget()
    disk = make_disk(50.0)
    assert cdf_varphi_nearest_numeric(0.0, disk, b) == 0.0
    scale = pathloss_linear(50.0, b)
    vals = [cdf_varphi_nearest_numeric(p, disk, b)
            for p in np.geomspace(1e-5 * scale, 1e7 * scale, 100)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_nearest_gain_cdf_vs_monte_carlo():
    lam, rt = 1e-2, 50.0
    b = default_budget()
    disk = make_disk(rt, lam=lam)
    rng = np.random.default_rng(7)
    n = 1_000_000
    radii = np.sqrt(-np.log1p(-rng.random(n)) / (math.pi * lam))
    radii = radii[radii <= rt]  # conditioning on a non-empty disk
    gains = np.sort(rng.exponential(pathloss_linear(radii, b)))
    grid = np.geomspace(gains[int(0.001 * gains.size)],
                        gains[int(0.999 * gains.size)] , 40)
    emp = np.searchsorted(gains, grid, side="right") / gains.size
    ana = np.array([cdf_varphi_nearest_numeric(g, disk, b) for g in grid])
    assert np.max(np.abs(emp - ana)) < 0.005


def test_nearest_gain_requires_active_devices():
    b = default_budget()
    with pytest.raises(ValueError):
        cdf_varphi_nearest_numeric(1.0, make_disk(50.0, lam=0.0), b)


# ---------------------------------------------------------------------------
# Singh-Maddala fit
# ---------------------------------------------------------------------------

def test_singh_maddala_cdf_scale_point():
    fit = FittedGainDistribution(mu=0.3, theta=2.0, m=1.0, fit_error=0.0)
    assert singh_maddala_cdf(0.3, fit) == pytest.approx(0.5, rel=1e-12)
    assert singh_maddala_ccdf(0.3, fit) == pytest.approx(0.5, rel=1e-12)


def test_fox_h_route_matches_elementary_form():
    # 100-point reduction identity validating the H-kernel
    fit = FittedGainDistribution(mu=0.1238, theta=0.9775, m=0.3524, fit_error=0.0)
    for phi in np.geomspace(1e-3 * fit.mu, 1e3 * fit.mu, 100):
        direct = singh_maddala_ccdf(phi, fit)
        through_kernel = singh_maddala_ccdf_foxh(phi, fit)
        assert abs(direct - through_kernel) < 1e-8


def test_fit_reaches_required_accuracy():
    b = default_budget()
    for rt in (50.0, 100.0):
        fit = fit_singh_maddala(make_disk(rt), b)
        assert fit.fit_error <= 1e-2
        # spot-check the fit against the quadrature oracle off-grid
        scale = pathloss_linear(rt, b)
        for mult in (3e-4, 0.3, 30.0, 3e3):
            oracle = cdf_varphi_nearest_numeric(mult * scale, make_disk(rt), b)
            assert abs(singh_maddala_cdf(mult * scale, fit) - oracle) < 1.5e-2


def test_fit_grid_refinement_stability(monkeypatch):
    b = default_budget()
    disk = make_disk(100.0)
    monkeypatch.setattr(channel, "_FIT_GRID", (1e-4, 1e4, 200))
    coarse = fit_singh_maddala(disk, b)
    monkeypatch.setattr(channel, "_FIT_GRID", (1e-4, 1e4, 400))
    fine = fit_singh_maddala(disk, b)
    for a, c in ((coarse.mu, fine.mu), (coarse.theta, fine.theta), (coarse.m, fine.m)):
        assert abs(a - c) / a < 0.01


def test_fit_refuses_unreachable_bound(monkeypatch):
    b = default_budget()
    monkeypatch.setattr(channel, "_MAX_FIT_ERROR", 1e-6)
    with pytest.raises(FitError):
        fit_singh_maddala(make_disk(50.0), b)


def test_fit_cache_roundtrip(tmp_path):
    b = default_budget()
    disk = make_disk(50.0)
    path = os.path.join(tmp_path, "geom.fitcache.json")
    first = fit_singh_maddala_cached(disk, b, path)
    assert os.path.exists(path)
    second = fit_singh_maddala_cached(disk, b, path)
    assert first == second
    cache = load_fit_cache(path)
    assert fit_cache_key(disk, b) in cache
    assert cache[fit_cache_key(disk, b)] == first


def test_save_fit_cache_never_leaves_a_torn_sidecar(tmp_path, monkeypatch):
    path = os.path.join(tmp_path, "fits.json")
    fit = FittedGainDistribution(mu=0.1, theta=1.0, m=0.5, fit_error=1e-4)
    save_fit_cache(path, {"a": fit})
    before = open(path, encoding="utf-8").read()

    def dump_half(payload, fh, **kw):
        fh.write('{"a": {"mu"')
        raise KeyboardInterrupt

    monkeypatch.setattr(channel.json, "dump", dump_half)
    with pytest.raises(KeyboardInterrupt):
        save_fit_cache(path, {"a": fit, "b": fit})
    assert open(path, encoding="utf-8").read() == before
    assert os.listdir(tmp_path) == ["fits.json"]
    monkeypatch.undo()
    save_fit_cache(path, {"a": fit, "b": fit})
    assert load_fit_cache(path) == {"a": fit, "b": fit}
    assert os.listdir(tmp_path) == ["fits.json"]


def test_fit_cache_key_distinguishes_geometry():
    b = default_budget()
    keys = {fit_cache_key(make_disk(rt, lam=lam), b)
            for rt in (50.0, 100.0) for lam in (1e-2, 2e-2)}
    assert len(keys) == 4
    # but the key ignores transmit power, which the fit does not depend on
    assert fit_cache_key(make_disk(50.0), b) == fit_cache_key(
        make_disk(50.0), dataclasses.replace(b, P0=1e-2))


def test_ccdf_cdf_complement():
    b = default_budget()
    disk = make_disk(50.0)
    scale = pathloss_linear(50.0, b)
    for mult in (1e-3, 1.0, 1e3):
        total = (cdf_varphi_nearest_numeric(mult * scale, disk, b)
                 + ccdf_varphi_nearest_numeric(mult * scale, disk, b))
        assert total == pytest.approx(1.0, abs=1e-9)
