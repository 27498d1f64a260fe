"""Kernel tests: incomplete gamma, Meijer-G/Fox-H families, residue series.

Oracles are computed live where a trustworthy independent route exists
(scipy Bessel/quad, mpmath.meijerg, closed-form reductions); a few anchor
values are frozen from high-precision runs.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import kv, loggamma

from nomarelay import specfun as sf
from nomarelay.specfun import (
    UnsupportedSpecError,
    annulus_kernel_deficit,
    nearest_kernel_deficit,
    prod_exp_cdf,
    residue_asymptote_cdf,
)
from oracles import (
    EULER_GAMMA,
    FoxSpec,
    MeijerSpec,
    annulus_kernel,
    cluster_eagerly,
    contour_value_by_panel,
    family,
    fox_h,
    lower_incomplete_gamma,
    meijer_g,
    nearest_kernel,
    pick_abscissa_by_candidate,
    prod_exp_ccdf,
    residue_asymptote,
)

mp.mp.dps = 30

EPSILON = 3.67
C_EXP = 2.0 / EPSILON


# ---------------------------------------------------------------------------
# lower incomplete gamma
# ---------------------------------------------------------------------------

def test_incgamma_exponential_reduction():
    # gamma(1, x) = 1 - e^-x
    assert lower_incomplete_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert lower_incomplete_gamma(1.0, 1.0) == pytest.approx(0.632121, abs=5e-7)


def test_incgamma_zero_argument():
    assert lower_incomplete_gamma(0.7, 0.0) == 0.0
    assert lower_incomplete_gamma(5.0, 0.0) == 0.0


def test_incgamma_model_exponent_point():
    # a = 2/epsilon with the UMi exponent; quadrature oracle at 1e-10
    a = C_EXP
    oracle, err = quad(lambda u: u ** (a - 1.0) * math.exp(-u), 0.0, 2.0,
                       epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-10
    val = lower_incomplete_gamma(a, 2.0)
    assert val == pytest.approx(oracle, rel=1e-10)
    assert val == pytest.approx(1.5459895133936941, rel=1e-12)


def test_incgamma_matches_mpmath_both_branches():
    # either side of x = a+1, where incomplete-gamma routines switch from the
    # series to the continued fraction
    for a, x in [(0.3, 0.1), (2.5, 1.0), (0.5449, 6.0), (4.0, 40.0), (1.2, 2.3)]:
        ref = float(mp.gammainc(a, 0, x))
        assert lower_incomplete_gamma(a, x) == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# Meijer-G: product-of-exponentials CCDF / PDF families
# ---------------------------------------------------------------------------

def test_meijer_exp_identity():
    spec = MeijerSpec(1, 0, 0, 1, (), (0.0,))
    assert meijer_g(spec, 0.5) == pytest.approx(0.606531, abs=5e-7)
    assert meijer_g(spec, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_meijer_two_factor_bessel_anchor():
    # G^{2,0}_{0,2}[1 | 1,0] = Pr[E1 E2 >= 1] = int_0^inf e^{-u-1/u} du
    oracle, err = quad(lambda u: math.exp(-u - 1.0 / u), 0.0, np.inf,
                       limit=300, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    spec = MeijerSpec(2, 0, 0, 2, (), (1.0, 0.0))
    val = meijer_g(spec, 1.0)
    assert val == pytest.approx(oracle, abs=1e-6)
    assert val == pytest.approx(0.27973176363304485, abs=1e-9)
    # same thing through the closed Bessel form 2 sqrt(x) K1(2 sqrt(x))
    assert val == pytest.approx(2.0 * kv(1, 2.0), abs=1e-9)


def test_meijer_ccdf_family_vs_bessel_grid():
    spec = MeijerSpec(2, 0, 0, 2, (), (1.0, 0.0))
    for x in [1e-4, 1e-2, 0.1, 1.0, 10.0, 100.0]:
        ref = 2.0 * math.sqrt(x) * kv(1, 2.0 * math.sqrt(x))
        assert meijer_g(spec, x) == pytest.approx(ref, abs=1e-9)


def test_meijer_ccdf_three_factors_vs_quadrature():
    # CCDF_3(x) = E_E[CCDF_2(x/E)] by conditioning on the third factor
    spec3 = MeijerSpec(3, 0, 0, 3, (), (1.0, 1.0, 0.0))

    def ccdf2(x):
        return 2.0 * math.sqrt(x) * kv(1, 2.0 * math.sqrt(x))

    for x in [0.01, 0.3, 2.0]:
        oracle, err = quad(lambda e: math.exp(-e) * ccdf2(x / e), 0.0, np.inf,
                           limit=300, epsabs=1e-11, epsrel=1e-11)
        assert err < 1e-9
        assert meijer_g(spec3, x) == pytest.approx(oracle, abs=1e-8)


def test_meijer_pdf_family_vs_mpmath():
    for n in (2, 3):
        spec = MeijerSpec(n, 0, 0, n, (), (0.0,) * n)
        for x in (0.0005, 0.3, 1.0, 3.0):
            ref = float(mp.meijerg([[], []], [[0.0] * n, []], x))
            assert meijer_g(spec, x) == pytest.approx(ref, abs=1e-9)


def test_prod_exp_ccdf_basics():
    assert prod_exp_ccdf(2.0, 1, [1.0]) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert prod_exp_ccdf(1.0, 2, [1.0, 1.0]) == pytest.approx(0.27973176363304485, abs=1e-9)
    # scale folds into the argument: z / prod(means)
    assert prod_exp_ccdf(6.0, 2, [2.0, 3.0]) == pytest.approx(
        prod_exp_ccdf(1.0, 2, [1.0, 1.0]), abs=1e-12)


def test_prod_exp_ccdf_monotone_n3():
    grid = np.logspace(-3, 2, 100)
    vals = [prod_exp_ccdf(z, 3, [1.0, 1.0, 1.0]) for z in grid]
    assert all(v1 >= v2 - 1e-9 for v1, v2 in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 + 1e-9 for v in vals)


def test_prod_exp_cdf_complements_ccdf():
    for z in (1e-4, 0.1, 1.0, 5.0):
        total = prod_exp_cdf(z, 2, [1.0, 1.0]) + prod_exp_ccdf(z, 2, [1.0, 1.0])
        assert total == pytest.approx(1.0, abs=1e-9)


def test_prod_exp_cdf_small_argument_relative_accuracy():
    # high-precision reference from mpmath: 1 - G^{2,0}[x|1,0]
    for x in (1e-8, 1e-6, 1e-4):
        ref = float(1 - mp.meijerg([[], []], [[1.0, 0.0], []], x))
        val = prod_exp_cdf(x, 2, [1.0, 1.0])
        assert val == pytest.approx(ref, rel=1e-8)


def test_prod_exp_argument_validation():
    with pytest.raises(ValueError):
        prod_exp_cdf(1.0, 2, [1.0])
    with pytest.raises(ValueError):
        prod_exp_cdf(1.0, 1, [-1.0])


# ---------------------------------------------------------------------------
# annulus kernel G^{v+1,1}_{1,v+2}
# ---------------------------------------------------------------------------

def test_annulus_v0_incomplete_gamma_identity():
    # G^{1,1}_{1,2}[x | 1-c; 0,-c] = x^-c gamma(c, x)
    for x in (1e-4, 0.01, 0.5, 2.0, 20.0):
        ref = x ** (-C_EXP) * lower_incomplete_gamma(C_EXP, x)
        assert annulus_kernel(x, 0, C_EXP) == pytest.approx(ref, abs=1e-9)


def test_annulus_vs_mpmath():
    for v in (1, 2):
        for x in (5e-4, 0.05, 1.0, 8.0):
            ref = float(mp.meijerg([[1.0 - C_EXP], []],
                                   [[1.0] * v + [0.0], [-C_EXP]], x))
            assert annulus_kernel(x, v, C_EXP) == pytest.approx(ref, abs=1e-9)


def test_annulus_meijer_spec_dispatch():
    # the printed layout: a = (1-2/eps,), b = (1,..,1, 0, -2/eps)
    spec = MeijerSpec(2, 1, 1, 3, (1.0 - C_EXP,), (1.0, 0.0, -C_EXP))
    assert meijer_g(spec, 0.7) == pytest.approx(annulus_kernel(0.7, 1, C_EXP), abs=1e-12)


def test_annulus_deficit_consistency():
    for x in (1e-6, 1e-4, 0.3):
        total = annulus_kernel(x, 1, C_EXP) + annulus_kernel_deficit(x, 1, C_EXP)
        assert total == pytest.approx(1.0 / C_EXP, rel=1e-10)


# ---------------------------------------------------------------------------
# Fox-H families
# ---------------------------------------------------------------------------

def test_fox_h_singh_maddala_scale_point():
    # (m, theta, mu) = (1, 2, 1): CDF at phi=1 must be 0.5
    spec = FoxSpec(1, 1, 1, 1, ((1.0, 1.0),), ((1.0, 1.0),))
    phi = 1.0
    x = (phi / 1.0) ** (-2.0)
    cdf = 1.0 - fox_h(spec, x) / math.gamma(1.0)
    assert cdf == pytest.approx(0.5, abs=1e-8)


def test_fox_h_singh_maddala_reduction_grid():
    # H^{1,1}_{1,1}[(phi/mu)^-theta | (1,1);(m,1)] / Gamma(m) = Singh-Maddala CCDF
    mu, theta, m = 2.0, 1.6, 1.3
    spec = FoxSpec(1, 1, 1, 1, ((1.0, 1.0),), ((m, 1.0),))
    for phi in np.logspace(-2, 2, 50) * mu:
        ref = (1.0 + (phi / mu) ** theta) ** (-m)
        val = fox_h(spec, (phi / mu) ** (-theta)) / math.gamma(m)
        assert val == pytest.approx(ref, abs=1e-8)


def test_fox_h_z_kernel_v0_reduction():
    # v=0 collapses to Gamma(m) (1+y)^-m (the no-harvest branch shape)
    for m in (1.0, 1.7):
        spec = FoxSpec(1, 1, 1, 1, ((1.0 - m, 1.0),), ((0.0, 1.0),))
        for y in (1e-3, 0.03, 1.0, 50.0):
            ref = math.gamma(m) * (1.0 + y) ** (-m)
            assert fox_h(spec, y) == pytest.approx(ref, abs=1e-8)


def test_fox_h_z_kernel_v1_vs_quadrature():
    # one harvested hop: CCDF of SM(mu=1,theta,m) * Exp(1)
    for theta, m in [(2.0, 1.0), (1.3, 2.1)]:
        spec = FoxSpec(2, 1, 1, 2, ((1.0 - m, 1.0),),
                       ((0.0, 1.0), (1.0, theta)))
        for z in (1e-3, 0.05, 0.7, 4.0, 40.0):
            oracle, err = quad(
                lambda e: math.exp(-e) * (1.0 + (z / e) ** theta) ** (-m),
                0.0, np.inf, limit=400, epsabs=1e-12, epsrel=1e-12)
            assert err < 1e-9
            val = fox_h(spec, z ** theta) / math.gamma(m)
            assert val == pytest.approx(oracle, abs=1e-7)


def test_nearest_kernel_coincident_poles():
    # theta = 1 puts the Gamma(1+theta s) ladder on top of the Gamma(s) one;
    # the cluster integration has to survive that
    theta, m = 1.0, 1.5
    for z in (1e-4, 1e-3):
        oracle, _ = quad(
            lambda e: math.exp(-e) * (1.0 + (z / e) ** theta) ** (-m),
            0.0, np.inf, limit=400, epsabs=1e-13, epsrel=1e-12)
        val = nearest_kernel(z ** theta, 1, theta, m) / math.gamma(m)
        assert val == pytest.approx(oracle, rel=1e-9)


def test_nearest_kernel_deficit_consistency():
    theta, m = 1.9, 1.2
    for x in (1e-5, 1e-3, 0.5):
        total = nearest_kernel(x, 1, theta, m) + nearest_kernel_deficit(x, 1, theta, m)
        assert total == pytest.approx(math.gamma(m), rel=1e-9)


# ---------------------------------------------------------------------------
# residue series and asymptote
# ---------------------------------------------------------------------------

def test_residue_asymptote_n1_leading_term():
    # exact expansion: 1 + x (ln x + 2*gamma - 1); the kernel itself agrees
    # to well under 0.5% at x = 1e-5
    x = 1e-5
    exact = 1.0 + x * (math.log(x) + 2.0 * EULER_GAMMA - 1.0)
    assert residue_asymptote(x, 1) == pytest.approx(exact, rel=1e-12)
    kernel = 2.0 * math.sqrt(x) * kv(1, 2.0 * math.sqrt(x))
    assert residue_asymptote(x, 1) == pytest.approx(kernel, rel=0.005)


def test_residue_asymptote_vs_kernel_n2():
    x = 1e-6
    spec = MeijerSpec(3, 0, 0, 3, (), (1.0, 1.0, 0.0))
    assert residue_asymptote(x, 2) == pytest.approx(meijer_g(spec, x), rel=0.01)
    # CDF side keeps relative accuracy
    cdf = prod_exp_cdf(x, 3, [1.0, 1.0, 1.0])
    assert residue_asymptote_cdf(x, 2) == pytest.approx(cdf, rel=0.01)


def test_residue_asymptote_crossover_calibration():
    # at the configured crossover the asymptote still tracks the kernel
    x = sf.RESIDUE_CROSSOVER
    spec = MeijerSpec(2, 0, 0, 2, (), (1.0, 0.0))
    assert abs(residue_asymptote(x, 1) - meijer_g(spec, x)) < 1e-4


def test_crossover_continuity_all_families():
    xc = sf.RESIDUE_CROSSOVER
    lo, hi = xc * (1.0 - 1e-9), xc * (1.0 + 1e-9)
    cases = [
        lambda x: prod_exp_ccdf(x, 2, (1.0, 1.0)),
        lambda x: prod_exp_ccdf(x, 3, (1.0, 1.0, 1.0)),
        lambda x: annulus_kernel(x, 0, C_EXP),
        lambda x: annulus_kernel(x, 2, C_EXP),
        lambda x: nearest_kernel(x, 1, 2.0, 1.3),
    ]
    for f in cases:
        assert abs(f(lo) - f(hi)) < 1e-4


# ---------------------------------------------------------------------------
# loggamma table: shared gamma factors change no bit
# ---------------------------------------------------------------------------

# both branches of every family, plus the grid edge cases: contour steps
# h < 1 (|log x| > 30), residue circles narrower than 0.2 (|log x| > 15)
# and, for theta = 0.95, Gamma(1 + theta s) poles clustered with Gamma(s)'s
TABLE_XS = (3e-8, 2e-4, 0.4, 7.0, 1e14)
TABLE_CASES = (
    [(kernel, (x, n, (1.0,) * n)) for kernel in (prod_exp_ccdf, prod_exp_cdf)
     for n in (2, 3) for x in TABLE_XS]
    + [(kernel, (x, v, C_EXP))
       for kernel in (annulus_kernel, annulus_kernel_deficit)
       for v in (0, 2) for x in TABLE_XS]
    + [(kernel, (x, v, theta, 1.3))
       for kernel in (nearest_kernel, nearest_kernel_deficit)
       for v, theta in ((1, 0.95), (2, 1.7)) for x in TABLE_XS])


def _grid_points(grid):
    """The points s that a table key's grid names."""
    kind, *where = grid
    if kind == "window":
        lo, hi = where
        if hi is None:
            cands = [lo + d for d in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0,
                                      32.0, 50.0)]
        else:
            cands = lo + (hi - lo) * np.linspace(0.05, 0.95, 19)
        return np.array([complex(c, 0.0) for c in cands])
    if kind == "ring":
        center, radius = where
        return center + radius * sf._UNIT_RING
    c, h, index, chunk = where
    u = 0.0
    for _ in range(index):
        u += h
    panels = []
    for _ in range(chunk):
        panels.append(c + 1j * (u + 0.5 * h * (sf._GL_NODES + 1.0)))
        u += h
    return np.array(panels)


class _Uncached(sf.LogGammaTable):
    """Computes every gamma factor afresh, as before there was a table."""

    def factor(self, grid, shift, slope, s):
        return loggamma(shift + slope * s)


def test_shared_table_values_equal_fresh_evaluations():
    fresh = [kernel(*args, table=_Uncached()) for kernel, args in TABLE_CASES]
    # a call without a table fills a private one
    assert [kernel(*args) for kernel, args in TABLE_CASES] == fresh
    forward = sf.LogGammaTable()
    assert [kernel(*args, table=forward)
            for kernel, args in TABLE_CASES] == fresh
    reverse = sf.LogGammaTable()
    assert [kernel(*args, table=reverse)
            for kernel, args in reversed(TABLE_CASES)] == fresh[::-1]
    # a warm table gives the same floats again
    assert [kernel(*args, table=forward)
            for kernel, args in TABLE_CASES] == fresh
    assert forward.keys() == reverse.keys()
    # the cases reach every grid kind and both grid edge cases
    grids = [grid for grid, _, _ in forward]
    assert {grid[0] for grid in grids} == {"window", "panels", "ring"}
    assert min(grid[2] for grid in grids if grid[0] == "panels") < 1.0
    assert min(grid[2] for grid in grids if grid[0] == "ring") < 0.2
    # clustered poles share one circle, wider than any single pole's
    assert max(grid[2] for grid in grids if grid[0] == "ring") > 0.2


def test_table_key_names_its_array():
    table = sf.LogGammaTable()
    for kernel, args in TABLE_CASES[::7]:
        kernel(*args, table=table)
    assert table and sum(table.lookups.values()) > len(table)
    for (grid, shift, slope), stored in table.items():
        expected = loggamma(shift + slope * _grid_points(grid))
        assert np.array_equal(stored, expected), (grid, shift, slope)


# ---------------------------------------------------------------------------
# array scan and chunked contour: the per-candidate, per-panel floats
# ---------------------------------------------------------------------------

# every contour family with the tolerance its callers pass
CONTOUR_KINDS = (
    (("ccdf", 2), 1e-9), (("ccdf", 3), 1e-9),
    (("pdf", 2), 1e-9), (("pdf", 3), 1e-9),
    (("annulus", 0, C_EXP), 1e-9), (("annulus", 2, C_EXP), 1e-9),
    (("sm_cdf", 1.3), 1e-8),
    (("z_kernel", 1, 0.95, 1.3), 1e-8), (("z_kernel", 2, 1.7, 1.3), 1e-8),
)


def test_table_cases_equal_per_panel_reference(monkeypatch):
    arrays = [kernel(*args) for kernel, args in TABLE_CASES]
    monkeypatch.setattr(sf, "_contour_value", contour_value_by_panel)
    assert [kernel(*args) for kernel, args in TABLE_CASES] == arrays


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(CONTOUR_KINDS),
       exponent=st.floats(min_value=-3.0, max_value=14.0))
def test_contour_equals_per_panel_reference(case, exponent):
    kind, tol = case
    x = 10.0 ** exponent
    fam = family(kind)
    num, den, window = fam.num, fam.den, fam.window
    logx = math.log(x)
    assert sf._pick_abscissa(num, den, window, logx, sf.LogGammaTable()) \
        == pick_abscissa_by_candidate(num, den, window, logx,
                                      sf.LogGammaTable())
    assert sf._contour_value(fam, x, tol, sf.LogGammaTable()) \
        == contour_value_by_panel(fam, x, tol)


@pytest.mark.parametrize("x", [0.4, 1e14])
def test_contour_stops_at_the_per_panel_cap(x):
    # with tol = 0 no panel is quiet, so both walk to u_cap and fail on the
    # same last panel
    for kind, _ in CONTOUR_KINDS:
        with pytest.raises(sf.KernelConvergenceError) as chunked:
            sf._contour_value(family(kind), x, 0.0, sf.LogGammaTable())
        with pytest.raises(sf.KernelConvergenceError) as by_panel:
            contour_value_by_panel(family(kind), x, 0.0)
        assert str(chunked.value) == str(by_panel.value)
        assert chunked.value.achieved == by_panel.value.achieved


# one rung; two rungs whose poles coincide (theta 1, 2), interleave (0.95,
# 1.7, 0.5) or crowd within the cluster gap (0.97); the product PDF's
# ladder starts at the pole s = 0
@pytest.mark.parametrize("rungs", [
    ((1.0, 1.0),), ((0.0, 1.0),),
    *[((1.0, 1.0), (1.0, theta)) for theta in (1.0, 2.0, 0.95, 1.7, 0.5,
                                                0.97, 0.9774996210662569)]])
def test_lazy_cluster_walk_equals_the_eager_ladder(rungs):
    walk = list(sf._cluster(rungs))
    assert walk == cluster_eagerly(rungs)
    assert [p for cl in walk for p in cl] \
        == [p for cl in cluster_eagerly(rungs) for p in cl]


def test_residue_walk_builds_clusters_one_ahead(monkeypatch):
    # a walk that settles after a few clusters builds one more, not all
    built = []
    real = sf._cluster

    def counted(rungs):
        for cl in real(rungs):
            built.append(cl)
            yield cl

    monkeypatch.setattr(sf, "_cluster", counted)
    table = sf.LogGammaTable()
    for kind in (("ccdf", 3), ("annulus", 2, C_EXP),
                 ("z_kernel", 2, 0.95, 1.3)):
        fam = family(kind)
        built.clear()
        sf._residue_sum(fam, 2e-4, table)
        integrated = {key[0][1] for key in table if key[0][0] == "ring"}
        assert len(built) <= len(integrated) + 1 < len(
            cluster_eagerly(fam.rungs)), kind
        table.clear()


def test_circle_reduction_equals_the_mean_bit_for_bit(monkeypatch):
    # a residue circle reduces its nodes with the pairwise sum that
    # ``ndarray.mean`` runs, then divides by the node count as it does
    rng = np.random.default_rng(24)
    for _ in range(2_000):
        ring = (rng.standard_normal(sf._RING_NODES)
                + 1j * rng.standard_normal(sf._RING_NODES)) \
            * 10.0 ** rng.uniform(-200.0, 200.0)
        got = np.add.reduce(ring) / sf._RING_NODES
        assert got.tobytes() == ring.mean().tobytes()
    # and on the circles a residue walk integrates
    circles = []
    real = sf._circle_residue_sum
    monkeypatch.setattr(sf, "_circle_residue_sum", lambda *args: (
        circles.append(args) or real(*args)))
    table = sf.LogGammaTable()
    for kind in (("ccdf", 3), ("annulus", 2, C_EXP),
                 ("z_kernel", 2, 0.95, 1.3)):
        sf._residue_sum(family(kind), 2e-4, table)
    assert len(circles) > 6
    for num, den, logx, center, radius, table in circles:
        ring = radius * sf._UNIT_RING
        vals = np.exp(sf._log_integrand(center + ring, num, den, logx, table,
                                        ("ring", center, radius)))
        assert real(num, den, logx, center, radius, table) \
            == float((vals * ring).mean().real)


def test_pick_abscissa_evaluates_the_integrand_once(monkeypatch):
    calls = []
    real = sf._log_integrand
    monkeypatch.setattr(sf, "_log_integrand",
                        lambda *args: calls.append(args[-1]) or real(*args))
    for kind, _ in CONTOUR_KINDS:
        fam = family(kind)
        calls.clear()
        sf._pick_abscissa(fam.num, fam.den, fam.window, math.log(0.4),
                          sf.LogGammaTable())
        assert calls == [("window",) + fam.window]


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_unsupported_meijer_layouts_rejected():
    with pytest.raises(UnsupportedSpecError):
        meijer_g(MeijerSpec(1, 1, 1, 1, (0.5,), (0.5,)), 1.0)
    with pytest.raises(UnsupportedSpecError):
        # lower list not the 1,..,1,0 pattern
        meijer_g(MeijerSpec(2, 0, 0, 2, (), (2.0, 0.0)), 1.0)
    with pytest.raises(UnsupportedSpecError):
        # annulus layout with a broken pairing between a1 and the tail entry
        meijer_g(MeijerSpec(2, 1, 1, 3, (0.3,), (1.0, 0.0, -0.9)), 1.0)


def test_unsupported_fox_layouts_rejected():
    with pytest.raises(UnsupportedSpecError):
        fox_h(FoxSpec(1, 1, 1, 1, ((0.5, 2.0),), ((1.0, 1.0),)), 1.0)
    with pytest.raises(UnsupportedSpecError):
        # mixed theta blocks are outside the repeated-(1,theta) family
        fox_h(FoxSpec(3, 1, 1, 3, ((-0.5, 1.0),),
                      ((0.0, 1.0), (1.0, 2.0), (1.0, 3.0))), 1.0)


def test_spec_length_mismatch_rejected():
    with pytest.raises(UnsupportedSpecError):
        MeijerSpec(2, 0, 0, 2, (), (1.0,))
    with pytest.raises(UnsupportedSpecError):
        FoxSpec(1, 1, 1, 1, (), ((1.0, 1.0),))


def test_positive_argument_required():
    spec = MeijerSpec(2, 0, 0, 2, (), (1.0, 0.0))
    with pytest.raises(ValueError):
        meijer_g(spec, 0.0)
    with pytest.raises(ValueError):
        fox_h(FoxSpec(1, 1, 1, 1, ((1.0, 1.0),), ((1.0, 1.0),)), -1.0)
