"""Geometry tests: disk sampling, null probabilities, distance laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chisquare

from nomarelay.geometry import CoverageDisk, log_null_probability
from oracles import (
    as_generator,
    annulus_distance_pdf,
    null_probability,
    sample_annulus_distance,
    sample_hppp_disk,
    sample_nearest_distance,
)


def make_disk(radius=100.0, lam_active=1e-2, subareas=1):
    return CoverageDisk(radius=radius, density_active=lam_active,
                        subarea_count=subareas)


# ---------------------------------------------------------------------------
# disk sampling
# ---------------------------------------------------------------------------

def test_zero_density_gives_empty_pattern():
    disk = make_disk(lam_active=0.0)
    pattern = sample_hppp_disk(disk, "active", 7)
    assert len(pattern) == 0
    assert pattern.points.shape == (0, 2)


def test_sample_count_mean_matches_intensity():
    # mean count lambda*pi*r^2 = 314.16; sample mean over many draws within 1%
    disk = make_disk(radius=100.0, lam_active=1e-2)
    rng = as_generator(20240811)
    draws = 30_000
    counts = np.array([len(sample_hppp_disk(disk, "active", rng)) for _ in range(draws)])
    expected = 1e-2 * math.pi * 100.0**2
    assert counts.mean() == pytest.approx(expected, rel=0.01)


def test_sample_points_inside_disk_and_uniform():
    disk = make_disk(radius=50.0, lam_active=5e-3)
    rng = as_generator(99)
    pts = np.vstack([sample_hppp_disk(disk, "active", rng).points for _ in range(2_000)])
    radii2 = (pts**2).sum(axis=1)
    assert np.all(radii2 <= 50.0**2 * (1 + 1e-12))
    # uniform on the disk means r^2/R^2 is uniform on [0,1]
    u = radii2 / 50.0**2
    observed, _ = np.histogram(u, bins=10, range=(0.0, 1.0))
    assert chisquare(observed).pvalue > 1e-3


def test_empty_pattern_frequency_matches_null_probability():
    disk = make_disk(radius=10.0, lam_active=1e-4)
    rng = as_generator(5)
    draws = 100_000
    empty = sum(len(sample_hppp_disk(disk, "active", rng)) == 0 for _ in range(draws))
    p = math.exp(-1e-4 * math.pi * 10.0**2)
    sigma = math.sqrt(p * (1 - p) / draws)
    assert abs(empty / draws - p) < 3 * sigma


def test_inactive_kind_uses_other_density():
    disk = make_disk(radius=100.0, lam_active=1e-2)
    rng = as_generator(11)
    counts = np.array([len(sample_hppp_disk(disk, "inactive", rng,
                                            density_inactive=1e-3))
                       for _ in range(5_000)])
    assert counts.mean() == pytest.approx(1e-3 * math.pi * 100.0**2, rel=0.05)


def test_sampling_is_deterministic_for_fixed_seed():
    disk = make_disk()
    a = sample_hppp_disk(disk, "active", 1234)
    b = sample_hppp_disk(disk, "active", 1234)
    c = sample_hppp_disk(disk, "active", 1235)
    np.testing.assert_array_equal(a.points, b.points)
    assert len(a) != len(c) or not np.array_equal(a.points, c.points)


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        sample_hppp_disk(make_disk(), "dormant", 0)


# ---------------------------------------------------------------------------
# null probability
# ---------------------------------------------------------------------------

def test_null_probability_values():
    assert null_probability(0.0, 5.0) == 1.0
    assert null_probability(1e-4, 10.0) == pytest.approx(0.9690724263048106, rel=1e-12)
    # dense deployment: tiny but still representable; log form is exact
    assert null_probability(1e-2, 100.0) == pytest.approx(3.487e-137, rel=1e-3)
    assert log_null_probability(1e-2, 100.0) == pytest.approx(-100.0 * math.pi, rel=1e-15)


def test_null_probability_domain_errors():
    with pytest.raises(ValueError):
        null_probability(-1e-3, 10.0)
    with pytest.raises(ValueError):
        null_probability(1e-3, 0.0)
    with pytest.raises(ValueError):
        log_null_probability(1e-3, -5.0)


# ---------------------------------------------------------------------------
# annulus distance law
# ---------------------------------------------------------------------------

def test_annulus_pdf_single_subarea_value():
    disk = make_disk(radius=100.0, subareas=1)
    assert annulus_distance_pdf(1, disk, 50.0) == pytest.approx(0.01, rel=1e-12)


def test_annulus_pdf_support():
    disk = make_disk(radius=100.0, subareas=3)
    lo, hi = disk.annulus_bounds(2)
    assert (lo, hi) == (100.0 / 3, 200.0 / 3)
    assert annulus_distance_pdf(2, disk, lo - 1.0) == 0.0
    assert annulus_distance_pdf(2, disk, hi + 1.0) == 0.0
    assert annulus_distance_pdf(2, disk, 0.5 * (lo + hi)) > 0.0


def test_annulus_pdf_normalizes_middle_annulus():
    # the (K=3, k=2) case from the calibration sheet, by quadrature
    disk = make_disk(radius=100.0, subareas=3)
    lo, hi = disk.annulus_bounds(2)
    total, err = quad(lambda r: annulus_distance_pdf(2, disk, r), lo, hi)
    assert err < 1e-10
    assert total == pytest.approx(1.0, abs=1e-10)


def test_annulus_pdf_normalizes_every_annulus():
    disk = make_disk(radius=80.0, subareas=4)
    for k in range(1, 5):
        lo, hi = disk.annulus_bounds(k)
        total, _ = quad(lambda r: annulus_distance_pdf(k, disk, r), lo, hi)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_annulus_index_out_of_range():
    disk = make_disk(subareas=3)
    with pytest.raises(ValueError):
        annulus_distance_pdf(0, disk, 10.0)
    with pytest.raises(ValueError):
        annulus_distance_pdf(4, disk, 10.0)
    with pytest.raises(ValueError):
        sample_annulus_distance(5, disk, 0)


@settings(max_examples=40, deadline=None)
@given(subareas=st.integers(1, 6), radius=st.floats(1.0, 500.0))
def test_annulus_pdf_always_normalized(subareas, radius):
    disk = make_disk(radius=radius, subareas=subareas)
    for k in range(1, subareas + 1):
        lo, hi = disk.annulus_bounds(k)
        total, _ = quad(lambda r: annulus_distance_pdf(k, disk, r), lo, hi)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_annulus_sampler_matches_pdf():
    disk = make_disk(radius=100.0, subareas=3)
    rng = as_generator(404)
    draws = np.array([sample_annulus_distance(2, disk, rng) for _ in range(20_000)])
    lo, hi = disk.annulus_bounds(2)
    assert np.all((draws >= lo) & (draws < hi))
    # closed-form annulus CDF for the KS comparison
    kt, k = 3, 2
    cdf = ((kt * np.sort(draws) / 100.0) ** 2 - (k - 1) ** 2) / (2 * k - 1)
    ks = np.max(np.abs(cdf - np.arange(1, draws.size + 1) / draws.size))
    assert ks < 0.015


# ---------------------------------------------------------------------------
# nearest active device
# ---------------------------------------------------------------------------

def test_nearest_distance_cdf_matches_quadrature():
    lam, rt = 1e-3, 50.0
    disk = make_disk(radius=rt, lam_active=lam)
    rng = as_generator(8080)
    draws = [sample_nearest_distance(disk, rng) for _ in range(100_000)]
    hits = np.sort([d for d in draws if d is not None])
    assert hits.size > 0 and hits[-1] <= rt

    norm = 1.0 - math.exp(-math.pi * lam * rt**2)

    def density(r):
        return 2 * math.pi * lam * r * math.exp(-math.pi * lam * r**2) / norm

    grid = np.linspace(1.0, rt - 1.0, 25)
    cdf_ref = np.array([quad(density, 0.0, x)[0] for x in grid])
    cdf_emp = np.searchsorted(hits, grid, side="right") / hits.size
    assert np.max(np.abs(cdf_emp - cdf_ref)) < 0.01


def test_nearest_distance_median():
    lam = 1e-3
    disk = make_disk(radius=50.0, lam_active=lam)
    rng = as_generator(31337)
    draws = np.array([d for d in (sample_nearest_distance(disk, rng)
                                  for _ in range(20_000)) if d is not None])
    target = math.sqrt(math.log(2.0) / (math.pi * lam))  # 14.8538...
    assert np.median(draws) == pytest.approx(target, rel=0.02)


def test_nearest_distance_none_frequency():
    lam, rt = 1e-4, 10.0
    disk = make_disk(radius=rt, lam_active=lam)
    rng = as_generator(62)
    draws = 100_000
    nones = sum(sample_nearest_distance(disk, rng) is None for _ in range(draws))
    p = math.exp(-lam * math.pi * rt**2)
    sigma = math.sqrt(p * (1 - p) / draws)
    assert abs(nones / draws - p) < 3 * sigma


def test_nearest_distance_needs_active_density():
    disk = make_disk(lam_active=0.0)
    with pytest.raises(ValueError):
        sample_nearest_distance(disk, 3)


# ---------------------------------------------------------------------------
# process-level invariants
# ---------------------------------------------------------------------------

def test_thinned_superposition_matches_parent():
    # K patterns at density lambda/K superpose to one pattern at lambda
    lam, rt, kt = 6e-3, 40.0, 3
    thin = make_disk(radius=rt, lam_active=lam / kt)
    rng = as_generator(777)
    draws = 3_000
    counts = np.empty(draws)
    pooled = []
    for i in range(draws):
        parts = [sample_hppp_disk(thin, "active", rng) for _ in range(kt)]
        counts[i] = sum(len(p) for p in parts)
        if i < 600:
            pooled.append(np.vstack([p.points for p in parts]))
    mean = lam * math.pi * rt**2
    sigma = math.sqrt(mean / draws)  # Poisson variance
    assert abs(counts.mean() - mean) < 3 * sigma
    # superposed points still uniform on the disk
    u = (np.vstack(pooled) ** 2).sum(axis=1) / rt**2
    observed, _ = np.histogram(u, bins=10, range=(0.0, 1.0))
    assert chisquare(observed).pvalue > 1e-3


def test_annulus_process_null_probability():
    # each scheduling subarea behaves like a lambda/K process on the disk
    lam, rt, kt = 1e-3, 30.0, 3
    thin = make_disk(radius=rt, lam_active=lam / kt)
    rng = as_generator(515)
    draws = 20_000
    empty = sum(len(sample_hppp_disk(thin, "active", rng)) == 0 for _ in range(draws))
    p = math.exp(-(lam / kt) * math.pi * rt**2)
    sigma = math.sqrt(p * (1 - p) / draws)
    assert abs(empty / draws - p) < 3 * sigma


def test_disk_validation():
    with pytest.raises(ValueError):
        make_disk(radius=-1.0)
    with pytest.raises(ValueError):
        make_disk(lam_active=-1e-3)
    with pytest.raises(ValueError):
        make_disk(subareas=0)
