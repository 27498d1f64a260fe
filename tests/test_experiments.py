"""Runner tests: config parsing, sweep loop, emission contract, CLI."""

import dataclasses
import functools
import hashlib
import json
import logging
import math
import shutil
import sys
from pathlib import Path

import pytest

from nomarelay import analytics, channel, cli, experiments, montecarlo, specfun
from nomarelay.experiments import (
    RESULT_COLUMNS,
    RunConfig,
    SweepSpec,
    load_config,
    parse_metric,
    read_results,
    render_results,
    run_sweep,
)
from nomarelay.geometry import log_null_probability
from nomarelay.network import NetworkTopology, Scheme
import oracles

T3 = NetworkTopology(hop_distances=(50.0, 50.0), disk_radii=(25.0, 25.0),
                     subarea_counts=(2, 2), density_active=1e-2)


def small_config(**kw):
    sweep = kw.pop("sweep", None) or SweepSpec(
        variable="p0_dbm", grid=(0.0,), schemes=(Scheme.TCOM,),
        metrics=("hop_op:1", "throughput"))
    defaults = dict(topology=T3, sweep=sweep, trials_outage=20_000,
                    trials_throughput=20_000, seed=7)
    defaults.update(kw)
    return RunConfig(**defaults)


# ---------------------------------------------------------------------------
# metric grammar
# ---------------------------------------------------------------------------

def test_parse_metric_grammar():
    assert parse_metric("hop_op:2") == ("hop", 2)
    assert parse_metric("device_op:1:3") == ("device", 1, 3)
    assert parse_metric("device_op:2:nearest") == ("device", 2, None)
    assert parse_metric("e2e_op:destination") == ("e2e_destination",)
    assert parse_metric("e2e_op:device:3:1") == ("e2e_device", 3, 1)
    assert parse_metric("e2e_op:device:2:nearest") == ("e2e_device", 2, None)
    for name in ("throughput", "ee", "eed", "p_tol"):
        assert parse_metric(name) == (name,)


@pytest.mark.parametrize("bad", [
    "hop_op", "hop_op:x", "hop_op:1:2", "device_op:2", "device_op:a:1",
    "e2e_op", "e2e_op:relay", "e2e_op:device:2", "snr", "throughput:1", "",
])
def test_parse_metric_rejects(bad):
    with pytest.raises(ValueError, match="unknown metric"):
        parse_metric(bad)


# ---------------------------------------------------------------------------
# sweep spec validation
# ---------------------------------------------------------------------------

def test_sweep_spec_parses_scheme_strings():
    spec = SweepSpec(variable="rho", grid=(0.1, 0.2), schemes=("TCoM", "pqom"),
                     metrics=("throughput",))
    assert spec.schemes == (Scheme.TCOM, Scheme.PQOM)


def test_sweep_spec_validation():
    ok = dict(grid=(1.0, 2.0), schemes=(Scheme.TCOM,), metrics=("ee",))
    with pytest.raises(ValueError, match="unknown sweep variable"):
        SweepSpec(variable="bandwidth", **ok)
    with pytest.raises(ValueError, match="nonempty"):
        SweepSpec(variable="rho", grid=(), schemes=(Scheme.TCOM,),
                  metrics=("ee",))
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepSpec(variable="rho", grid=(0.2, 0.2), schemes=(Scheme.TCOM,),
                  metrics=("ee",))
    with pytest.raises(ValueError, match="unique"):
        SweepSpec(variable="subarea_counts", grid=((2, 2), (2, 2)),
                  schemes=(Scheme.TCOM,), metrics=("ee",))
    with pytest.raises(ValueError, match="scheme list"):
        SweepSpec(variable="rho", grid=(0.1,), schemes=(), metrics=("ee",))
    with pytest.raises(ValueError, match="metric list"):
        SweepSpec(variable="rho", grid=(0.1,), schemes=(Scheme.TCOM,),
                  metrics=())
    with pytest.raises(ValueError, match="unknown metric"):
        SweepSpec(variable="rho", grid=(0.1,), schemes=(Scheme.TCOM,),
                  metrics=("outage",))


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

FULL_YAML = """\
topology: t2
densities: {active: 2.0e-2}
budget: {p0_dbm: -10.0, bandwidth_hz: 2.0e7, epsilon: 3.0}
policy: {rho: 0.3, alpha: 0.25, beta: 0.7, eta: 0.9}
plan: {relay_share: 0.75, rate_fraction: 0.4, rate_cap: 0.6}
sweep:
  variable: rho
  grid: [0.1, 0.2]
  schemes: [tcom, tqom]
  metrics: ["hop_op:1", throughput]
  include_asymptotic: true
trials: {outage: 5000, throughput: 4000}
seed: 99
"""


def test_load_config_full(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(FULL_YAML)
    config = load_config(path)
    assert config.topology.hop_distances == (200.0, 100.0, 100.0)
    assert config.topology.density_active == 2e-2
    assert config.p0_dbm == -10.0
    assert config.bandwidth_hz == 2e7
    assert config.epsilon == 3.0
    assert (config.rho, config.alpha, config.beta, config.eta) \
        == (0.3, 0.25, 0.7, 0.9)
    assert (config.relay_share, config.rate_fraction, config.rate_cap) \
        == (0.75, 0.4, 0.6)
    assert config.sweep.variable == "rho"
    assert config.sweep.schemes == (Scheme.TCOM, Scheme.TQOM)
    assert config.sweep.include_asymptotic is True
    assert (config.trials_outage, config.trials_throughput) == (5000, 4000)
    assert config.seed == 99


def test_load_config_defaults(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("sweep:\n  variable: p0_dbm\n  grid: [0]\n"
                    "  schemes: [cnrr]\n  metrics: [throughput]\n")
    config = load_config(path)
    assert config.topology.hop_distances == (200.0, 200.0, 200.0)
    assert config.p0_dbm == 0.0
    assert config.rho == 0.1
    assert config.trials_outage == 1_000_000
    assert config.seed == 1
    assert config.fit_cache is None


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(FULL_YAML + "extra_knob: 1\n")
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(path)


@pytest.mark.parametrize("section, written, replaced, problem, key", [
    ("budget", "p0_dbm: -10.0", "p0dbm: -10.0", "unknown", "p0dbm"),
    ("policy", "alpha: 0.25", "alfa: 0.25", "unknown", "alfa"),
    ("plan", "rate_cap: 0.6", "rate_capp: 0.6", "unknown", "rate_capp"),
    ("densities", "active: 2.0e-2", "activ: 2.0e-2", "unknown", "activ"),
    ("densities", "active: 2.0e-2", "active: 2.0e-2, inactive: 5.0e-4",
     "unknown", "inactive"),
    ("sweep", "include_asymptotic: true", "include_asymtotic: true",
     "unknown", "include_asymtotic"),
    ("trials", "outage: 5000", "outages: 5000", "unknown", "outages"),
    ("topology", "topology: t2", "topology: {hop_distances: [50.0], "
     "disk_radii: [25.0], subarea_count: [1]}", "unknown", "subarea_count"),
    ("topology", "topology: t2", "topology: {hop_distances: [50.0], "
     "disk_radii: [25.0]}", "missing", "subarea_counts"),
], ids=["budget", "policy", "plan", "densities", "densities-inactive",
        "sweep", "trials", "topology", "topology-missing"])
def test_load_config_rejects_unknown_nested_keys(tmp_path, section, written,
                                                 replaced, problem, key):
    path = tmp_path / "run.yaml"
    path.write_text(FULL_YAML.replace(written, replaced))
    with pytest.raises(ValueError,
                       match=rf"{section}: {problem} config keys \['{key}'\]"):
        load_config(path)


def test_load_config_rejects_unknown_preset(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("topology: t9\nsweep:\n  variable: p0_dbm\n  grid: [0]\n"
                    "  schemes: [tcom]\n  metrics: [ee]\n")
    with pytest.raises(ValueError, match="unknown topology preset"):
        load_config(path)


@pytest.mark.parametrize("section, written, replaced", [
    ("sweep", "grid: [0.1, 0.2]", "grid: 0.5"),
    ("seed", "seed: 99", "seed: [1]"),
    ("topology", "topology: t2", "topology: {hop_distances: 200, "
     "disk_radii: [100.0], subarea_counts: [1]}"),
    ("topology_by_node_count", "seed: 99", "seed: 99\n"
     "topology_by_node_count: [1, 2]"),
], ids=["grid", "seed", "topology", "topology_by_node_count"])
def test_cli_reports_a_value_of_the_wrong_type(tmp_path, capfd, section,
                                              written, replaced):
    path = tmp_path / "run.yaml"
    path.write_text(FULL_YAML.replace(written, replaced))
    assert cli.main(["sweep", "--config", str(path)]) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: ") and f"run.yaml {section}: malformed" in err


def test_load_config_subarea_grid_and_by_node_count(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("""\
topology: t4
topology_by_node_count:
  4: t4
  5: t5
sweep:
  variable: subarea_counts
  grid: [[1, 1, 1], [2, 2, 2]]
  schemes: [tcom]
  metrics: [throughput]
""")
    config = load_config(path)
    assert config.sweep.grid == ((1, 1, 1), (2, 2, 2))
    assert set(config.topology_by_node_count) == {4, 5}
    assert config.topology_by_node_count[5].hop_count == 4


# ---------------------------------------------------------------------------
# the sweep loop
# ---------------------------------------------------------------------------

def test_analytic_only_rows():
    result = run_sweep(small_config(), source="analytic")
    assert result.clean
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.source == "analytic"
        assert row.trials == 0
        assert row.ci_half_width == 0.0
        assert row.seed == 7
        assert math.isfinite(row.mean)
    assert [r.metric for r in result.rows] == ["hop_op:1", "throughput"]


def test_asymptotic_rows_follow_analytic():
    sweep = SweepSpec(variable="p0_dbm", grid=(0.0,), schemes=(Scheme.TCOM,),
                      metrics=("hop_op:1",), include_asymptotic=True)
    result = run_sweep(small_config(sweep=sweep), source="analytic")
    assert [r.source for r in result.rows] == ["analytic", "asymptotic"]


def test_source_validation():
    with pytest.raises(ValueError, match="unknown source"):
        run_sweep(small_config(), source="exact")


def test_overrides_reach_rows():
    result = run_sweep(small_config(), source="mc", trials=4096, seed=123)
    hop = result.rows[0]
    assert hop.trials == 4096
    assert hop.seed == 123


def test_both_sources_agree_within_margin():
    result = run_sweep(small_config(), source="both")
    assert result.clean
    assert [r.source for r in result.rows] \
        == ["analytic", "mc", "analytic", "mc"]
    hop_ana, hop_mc = result.rows[0], result.rows[1]
    assert hop_ana.metric == hop_mc.metric == "hop_op:1"
    assert abs(hop_ana.mean - hop_mc.mean) <= 3e-3 + hop_mc.ci_half_width


def test_subarea_sweep_value_format():
    sweep = SweepSpec(variable="subarea_counts", grid=((1, 1), (2, 2)),
                      schemes=(Scheme.TCOM,), metrics=("throughput",))
    result = run_sweep(small_config(sweep=sweep), source="analytic")
    assert [r.value for r in result.rows] == ["(1, 1)", "(2, 2)"]
    # more subareas means more rate mass in the slot sum
    assert result.rows[1].mean > result.rows[0].mean


def test_failures_abort_row_not_run():
    # slot 2 of this topology has two subareas; subarea 3 does not exist
    sweep = SweepSpec(variable="p0_dbm", grid=(0.0,), schemes=(Scheme.TCOM,),
                      metrics=("device_op:2:3", "throughput"))
    result = run_sweep(small_config(sweep=sweep), source="both")
    assert len(result.failures) == 2  # analytic and mc route both refuse
    assert not result.flagged
    value, scheme, metric, message = result.failures[0]
    assert (scheme, metric) == ("tcom", "device_op:2:3")
    bad = [r for r in result.rows if r.metric == "device_op:2:3"]
    assert bad and all(math.isnan(r.mean) for r in bad)
    good = [r for r in result.rows if r.metric == "throughput"]
    assert good and all(math.isfinite(r.mean) for r in good)


def test_baseline_scheme_has_no_device_rows():
    sweep = SweepSpec(variable="p0_dbm", grid=(0.0,), schemes=(Scheme.CNRR,),
                      metrics=("throughput",))
    result = run_sweep(small_config(sweep=sweep), source="analytic")
    assert result.clean
    plateau = result.rows[0].mean
    assert 0.0 < plateau <= 0.75 / 2.0 + 1e-12
    sweep = SweepSpec(variable="p0_dbm", grid=(0.0,), schemes=(Scheme.CNRR,),
                      metrics=("device_op:1:1",))
    result = run_sweep(small_config(sweep=sweep), source="both")
    assert len(result.failures) == 2


def test_efficiency_rows_divide_throughput_by_supply_power():
    sweep = SweepSpec(variable="p0_dbm", grid=(0.0,), schemes=(Scheme.TCOM,),
                      metrics=("throughput", "ee", "p_tol"))
    config = small_config(sweep=sweep)
    rows = {(r.metric, r.source): r for r in run_sweep(config).rows}
    p_tol, scale = rows["p_tol", "analytic"].mean, config.bandwidth_hz
    for source in ("analytic", "mc"):
        tp, ee = rows["throughput", source], rows["ee", source]
        assert (ee.mean, ee.ci_half_width) \
            == (scale * tp.mean / p_tol, scale * tp.ci_half_width / p_tol)


def test_flag_plumbing(monkeypatch):
    monkeypatch.setattr(experiments._SweepCore, "declared_margin",
                        lambda self, scenario, selector, ana, est: -1.0)
    result = run_sweep(small_config(), source="both")
    assert not result.clean
    assert len(result.flagged) == 2
    value, scheme, metric, ana, mc, gap, margin = result.flagged[0]
    assert (value, scheme, metric) == (0.0, "tcom", "hop_op:1")
    assert gap == abs(ana - mc)
    assert margin == -1.0


def test_a_point_that_cannot_be_built_fails_each_scheme(monkeypatch):
    # each grid value's config is derived once for all its schemes; a value
    # without a topology fails the whole point of every scheme, and
    # fill_fit_cache raises the error of a qom point only
    sweep = SweepSpec(variable="node_count", grid=(3, 5),
                      schemes=(Scheme.TCOM, Scheme.TQOM),
                      metrics=("hop_op:1",))
    config = small_config(sweep=sweep, topology_by_node_count={3: T3})
    derived, derive = [], experiments._point_config
    monkeypatch.setattr(experiments, "_point_config", lambda config, value: (
        derived.append(value) or derive(config, value)))
    result = run_sweep(config, source="analytic")
    assert derived == [3, 5]
    assert [(r.value, r.scheme) for r in result.rows] \
        == [("3", "tcom"), ("3", "tqom")]
    assert result.failures == [
        (5, scheme, "*", "ValueError: no topology configured for node count 5")
        for scheme in ("tcom", "tqom")]
    with pytest.raises(ValueError, match="node count 5"):
        experiments.fill_fit_cache(config)
    com_only = dataclasses.replace(
        config, sweep=dataclasses.replace(sweep, schemes=(Scheme.TCOM,)))
    assert experiments.fill_fit_cache(com_only) == 0


# ---------------------------------------------------------------------------
# one evaluation core per sweep: lazy fits, shared marginals
# ---------------------------------------------------------------------------

def _count_fits(monkeypatch, fit=channel.fit_singh_maddala):
    calls = []

    def counted(disk, budget, **kw):
        calls.append(channel.fit_cache_key(disk, budget))
        return fit(disk, budget, **kw)

    for module in (channel, experiments):
        if hasattr(module, "fit_singh_maddala"):
            monkeypatch.setattr(module, "fit_singh_maddala", counted)
    return calls


def test_destination_sweep_fits_nothing(monkeypatch):
    calls = _count_fits(monkeypatch)
    sweep = SweepSpec(variable="p0_dbm", grid=(-10.0, 0.0),
                      schemes=(Scheme.TQOM, Scheme.PQOM, Scheme.QOM_NOEH),
                      metrics=("e2e_op:destination",),
                      include_asymptotic=True)
    result = run_sweep(small_config(sweep=sweep), source="analytic")
    assert result.clean and len(result.rows) == 12
    assert calls == []


@pytest.mark.parametrize("sidecar", [False, True])
def test_nearest_fit_once_per_geometry(monkeypatch, tmp_path, sidecar):
    calls = _count_fits(monkeypatch)
    loads = []
    load = channel.load_fit_cache
    monkeypatch.setattr(channel, "load_fit_cache",
                        lambda path: loads.append(path) or load(path))
    path = str(tmp_path / "fits.json") if sidecar else None
    sweep = SweepSpec(variable="p0_dbm", grid=(-10.0, 0.0, 10.0),
                      schemes=(Scheme.TQOM, Scheme.PQOM),
                      metrics=("device_op:1:nearest",))
    result = run_sweep(small_config(sweep=sweep, fit_cache=path),
                       source="analytic")
    assert result.clean and len(result.rows) == 6
    assert len(calls) == 1
    assert loads == ([path] if sidecar else [])
    if sidecar:
        assert list(channel.load_fit_cache(path)) == calls
        # a second sweep reads the stored fit and fits nothing
        run_sweep(small_config(sweep=sweep, fit_cache=path),
                  source="analytic")
        assert len(calls) == 1


def test_fit_error_fails_only_rows_that_read_the_fit(monkeypatch):
    def refuse(disk, budget, **kw):
        raise channel.FitError("refused")

    calls = _count_fits(monkeypatch, fit=refuse)
    sweep = SweepSpec(variable="p0_dbm", grid=(-10.0, 0.0),
                      schemes=(Scheme.TQOM,),
                      metrics=("e2e_op:destination", "device_op:1:nearest",
                               "throughput"))
    result = run_sweep(small_config(sweep=sweep), source="analytic")
    by_metric = {}
    for row in result.rows:
        by_metric.setdefault(row.metric, []).append(row.mean)
    assert all(math.isfinite(v) for v in by_metric["e2e_op:destination"])
    assert all(math.isnan(v) for v in by_metric["device_op:1:nearest"])
    assert all(math.isnan(v) for v in by_metric["throughput"])
    assert sorted((value, metric) for value, _, metric, _ in result.failures) \
        == [(-10.0, "device_op:1:nearest"), (-10.0, "throughput"),
            (0.0, "device_op:1:nearest"), (0.0, "throughput")]
    assert all(message == "FitError: refused"
               for *_, message in result.failures)
    assert len(calls) == 1  # the failure is remembered, not retried


def test_a_qom_device_margin_reads_only_its_own_slot_fit(monkeypatch):
    # t2 serves a 100 m disk at slot 1 and 50 m disks at slots 2 and 3;
    # with the 50 m fit refused, slot 2's nearest-device row fails, while
    # slot 1's row, whose value, estimate and margin read the 100 m fit
    # alone, stands
    fit100 = channel.FittedGainDistribution(
        mu=0.12381469748798679, theta=0.9774996210662569,
        m=0.352367611096878, fit_error=0.00016760753354505553)

    def fit(disk, budget, **kw):
        if disk.radius != 100.0:
            raise channel.FitError("refused")
        return fit100

    calls = _count_fits(monkeypatch, fit=fit)
    margins, declared = [], experiments._SweepCore.declared_margin

    def recorded(self, scenario, selector, *args):
        margins.append((selector, declared(self, scenario, selector, *args)))
        return margins[-1][1]

    monkeypatch.setattr(experiments._SweepCore, "declared_margin", recorded)
    t2 = NetworkTopology(**experiments.TOPOLOGY_PRESETS["t2"],
                         density_active=1e-2)
    sweep = SweepSpec(variable="p0_dbm", grid=(0.0,), schemes=(Scheme.TQOM,),
                      metrics=("device_op:1:nearest", "device_op:2:nearest"))
    result = run_sweep(small_config(topology=t2, sweep=sweep), source="both")
    assert result.failures == [
        (0.0, "tqom", "device_op:2:nearest", "FitError: refused")]
    means = {(row.metric, row.source): row.mean for row in result.rows}
    assert all(math.isfinite(means["device_op:1:nearest", source])
               for source in ("analytic", "mc"))
    assert math.isnan(means["device_op:2:nearest", "analytic"])
    # the one margin declared carries twice slot 1's fit error
    (selector, margin), = margins
    assert selector == ("device", 1, None)
    assert margin > 2.0 * fit100.fit_error
    assert len(calls) == 2  # one fit per disk radius, none retried


def test_unwritable_sidecar_warns_and_keeps_the_fit(monkeypatch, tmp_path,
                                                  caplog):
    calls = _count_fits(monkeypatch)
    path = tmp_path / "missing" / "fits.json"
    sweep = SweepSpec(variable="p0_dbm", grid=(-10.0, 0.0),
                      schemes=(Scheme.TQOM, Scheme.PQOM),
                      metrics=("device_op:1:nearest", "device_op:2:nearest"))
    with caplog.at_level(logging.WARNING, logger="nomarelay.channel"):
        result = run_sweep(small_config(sweep=sweep, fit_cache=str(path)),
                           source="analytic")
    assert result.clean and len(result.rows) == 8
    assert all(math.isfinite(row.mean) for row in result.rows)
    assert len(calls) == 1  # memoized although the sidecar was not written
    warnings = [r for r in caplog.records if r.name == "nomarelay.channel"]
    assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
    assert str(path) in warnings[0].getMessage()
    assert not path.parent.exists()


ROOT = Path(__file__).resolve().parent.parent


def test_relative_fit_cache_resolves_against_the_config(monkeypatch,
                                                        tmp_path):
    calls = _count_fits(monkeypatch)
    copy = tmp_path / "copy"
    (copy / "data").mkdir(parents=True)
    shutil.copyfile(ROOT / "configs" / "validate_devices_qom.yaml",
                    copy / "run.yaml")
    shutil.copyfile(ROOT / "data" / "nearest_fits.json",
                    copy / "data" / "nearest_fits.json")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    config = load_config(copy / "run.yaml")
    assert config.fit_cache == "data/nearest_fits.json"  # as written
    result = run_sweep(config, source="analytic")
    assert result.clean and not calls
    assert not list(work.iterdir())
    assert (copy / "data" / "nearest_fits.json").read_bytes() \
        == (ROOT / "data" / "nearest_fits.json").read_bytes()
    # every shipped config reaches the shipped sidecar from any directory
    for path in (ROOT / "configs").glob("*.yaml"):
        config = load_config(path)
        if config.fit_cache is not None:
            assert Path(config.fit_cache_path).samefile(
                ROOT / "data" / "nearest_fits.json")
    # fit-cache --out stays a path from the working directory
    rc = cli.main(["fit-cache", "--config", str(copy / "run.yaml"),
                   "--out", "fits.json"])
    assert rc == 0 and sorted(p.name for p in work.iterdir()) == ["fits.json"]
    assert sorted(p.name for p in (copy / "data").iterdir()) \
        == ["nearest_fits.json"]


def _shipped(tmp_path, name, **overrides):
    """A shipped config, its fit sidecar (if it names one) copied to tmp."""
    config = load_config(ROOT / "configs" / f"{name}.yaml")
    if config.fit_cache is not None:
        sidecar = tmp_path / "fits.json"
        shutil.copyfile(ROOT / config.fit_cache, sidecar)
        config = dataclasses.replace(config, fit_cache=str(sidecar))
    return dataclasses.replace(config, **overrides)


# sha256 of the analytic table of every shipped config, as emitted before
# the sweep core shared marginals and fits across points and before the
# sweep shared one kernel memo
GOLDEN_ANALYTIC = {
    "alpha_share":
        "b7289df5b3cc22787067621cee9c8082a9ec748ef1883836ad562a782d0df903",
    "density":
        "fb5c93af4cba29fa0bcfa5a66ab04351a03239ad467fcd286703460ebbede669",
    "destination_op_p0":
        "691f1d23624064eb667ab8a7516b94d13d7e6122b5cacfd9e9792ea5540ff1a8",
    "efficiency_rho":
        "8432410e127e6810c2293f6abafb99be859651615fa9ec7243d38e2e59833c70",
    "rho_tradeoff":
        "7f78b3e1368235685d88f039c15198599a7c3952eb7e414684bbefc9e1666c60",
    "scaling_com":
        "6be50823a15ebb9bd6de7e8e30b2780f53a20d1a50a79ff896b5547c65eed7fc",
    "scaling_qom":
        "364bb69af1c77e3b69156f0aef3352e8477900a1aa7d4057f46676548751bcff",
    "throughput_p0":
        "9513bc6c6190ebacd0caaf76cded6919275f984cd67eb1e6edeef35d3d7d6337",
    "validate_chain":
        "b18e3600486bfd4d30a6053cdb9441f3e83e77ddb64105a8227721cdc94b012b",
    "validate_devices_com":
        "4bafd44dbe34b0c4e6a24cb8c1b6eeb7883437cef47efc38bc81db221800b663",
    "validate_devices_qom":
        "50e33e9cfea128386c637f970cf2b2c8fa66ae70f27f865345d06aa124f68302",
}


def test_every_shipped_config_has_a_golden_analytic_table():
    shipped = sorted(path.stem for path in (ROOT / "configs").glob("*.yaml"))
    assert shipped == sorted(GOLDEN_ANALYTIC)


# per shipped config under source="both" at 70,000 trials: the sha256 of
# the whole table, and the sorted (value, scheme, metric) of its flagged rows
GOLDEN_BOTH = {
    "alpha_share": (
        "220f735fdb8362e192db404f1ec259c4bc65762f876e2787d81841c10d89343c",
        []),
    "density": (
        "cb68ad1afff15bdde45a198982c444a374b7688ba2f9513693e3e4c1e3663647",
        [(0.0001, "tcom", "throughput"), (0.0001, "tqom", "throughput")]),
    "destination_op_p0": (
        "90e02117b09e920c645713e49af33d8a09e4d4f91b38e408334a00457120c705",
        []),
    "efficiency_rho": (
        "2641b5c46466d82b47b1e65f7b13dfba8c75e28646e379ec0fe5416e5850372d",
        []),
    "rho_tradeoff": (
        "83de9f613a0af53170160df4593c3ae6874b5ea7a7756deaee0f4d09d883bc0e",
        [(rho, "tcom", "throughput")
         for rho in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]),
    "scaling_com": (
        "18529d942669e9275ea65745228570eedba9c0e8dca010d95d9c7b6592cf109b",
        []),
    "scaling_qom": (
        "99a68cce8a5a37ea3448f416a2d67c7c7b2b228226a43e54dec018592deb9143",
        []),
    "throughput_p0": (
        "891c753ae2ba72bf0a7bb247a61f00a7f90e828f95167b5b1698604c3f2cc2cd",
        [(-30, "pcom", "throughput"), (-30, "pqom", "throughput")]),
    "validate_chain": (
        "b5fcaa9c0dfb4e734246b36a1e2a42dfc10009c1b0782309b22eb591aef51f0d",
        []),
    "validate_devices_com": (
        "4a64c45043e8704a518c42f549689eebdb235fd9a1ea48311fe37e71de48920b",
        []),
    "validate_devices_qom": (
        "33d843ba004d1be21ab6bd7b58899a6d36c77ff2c491959760ed86f31f80db9d",
        [(0.9, "pqom", "device_op:3:nearest"),
         (0.9, "tqom", "device_op:3:nearest")]),
}


def test_every_shipped_config_has_a_golden_both_table():
    shipped = sorted(path.stem for path in (ROOT / "configs").glob("*.yaml"))
    assert shipped == sorted(GOLDEN_BOTH)


@pytest.mark.parametrize("name", sorted(GOLDEN_BOTH))
def test_shipped_both_tables_are_byte_identical(tmp_path, name):
    result = run_sweep(_shipped(tmp_path, name), source="both",
                       trials=70_000)
    text = render_results(result.rows, "csv")
    table, flagged = GOLDEN_BOTH[name]
    assert hashlib.sha256(text.encode()).hexdigest() == table
    assert sorted({(value, scheme, metric)
                   for value, scheme, metric, *_ in result.flagged}) \
        == flagged


# sparse points of the density sweep, each scheme without harvesting, so
# no harvest-product bias enters the throughput; the qom points are fitted
# in the shipped sidecar
ACTIVITY_POINTS = ((Scheme.COM_NOEH, (1e-4, 2e-4)),
                   (Scheme.QOM_NOEH, (1e-4, 3e-4)))


@pytest.mark.parametrize("scheme, grid", ACTIVITY_POINTS,
                         ids=[s.value for s, _ in ACTIVITY_POINTS])
def test_throughput_gap_is_the_disk_activity_term(tmp_path, scheme, grid):
    # the simulator earns a device's rate only in trials where its disk is
    # active, while the analytic sum weights it by its end-to-end outage
    # given an active disk; so analytic - mc throughput is
    # sum_t sum_k r_tk iota_t (1 - op_e2e,tk) / slots, with iota_t the
    # probability that slot t's disk is idle, within 3 sigma of the
    # estimate, and the term itself lies beyond 3 sigma
    config = _shipped(tmp_path, "density", p0_dbm=0.0,
                      trials_throughput=100_000,
                      sweep=SweepSpec(variable="density_active", grid=grid,
                                      schemes=(scheme,),
                                      metrics=("throughput",)))
    result = run_sweep(config, source="both")
    assert not result.failures, result.failures
    rows = {(row.value, row.source): row for row in result.rows}
    book = channel.FitBook(config.fit_cache)
    for value, _, s in experiments._points(config, {}):
        topo = s.topology
        marginals = analytics.SlotMarginals(
            s, lambda t: book.fit(topo.disk(t), s.budget))
        term = sum(
            r * math.exp(log_null_probability(topo.density_active,
                                              topo.disk_radii[t - 1]))
            * (1.0 - marginals.outage(("e2e_device", t, k)))
            for t in range(1, topo.hop_count + 1)
            for r, k in zip(s.plan.device_rates[t - 1], s.served(t))) \
            / s.plan.slot_count
        ana, mc = rows[repr(value), "analytic"], rows[repr(value), "mc"]
        assert ana.mean == marginals.throughput()
        assert mc.trials == 100_000
        sigma = mc.ci_half_width / 1.96
        assert abs(ana.mean - mc.mean - term) <= 3.0 * sigma, value
        assert term > 3.0 * sigma, value


@pytest.mark.parametrize("name", sorted(GOLDEN_ANALYTIC))
def test_shipped_analytic_tables_are_byte_identical(tmp_path, caplog, name):
    config = _shipped(tmp_path, name)
    # debug logging reports the sweep's record without touching the table
    with caplog.at_level(logging.DEBUG, logger="nomarelay.experiments"):
        result = run_sweep(config, source="analytic")
    text = render_results(result.rows, "csv")
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_ANALYTIC[name]
    if config.fit_cache is not None:
        assert (tmp_path / "fits.json").read_bytes() \
            == (ROOT / "data" / "nearest_fits.json").read_bytes()
    # the record counts the sweep's kernel lookups, and no stream group
    stats = result.stats
    assert not stats.streams and sum(stats.kernel_lookups.values()) > 0
    assert len([r for r in caplog.records
                if r.name == "nomarelay.experiments"]) == 1


def test_sweep_derives_thresholds_once_per_plan_and_policy(monkeypatch,
                                                           tmp_path):
    calls, built = [], []
    derive = analytics.decoding_thresholds
    init = analytics.SlotMarginals.__init__

    def counted(plan, policy):
        calls.append((plan, policy))
        return derive(plan, policy)

    def build(self, scenario, *args):
        built.append(scenario)
        init(self, scenario, *args)

    monkeypatch.setattr(analytics, "decoding_thresholds", counted)
    monkeypatch.setattr(analytics.SlotMarginals, "__init__", build)
    shared = 0
    for name in sorted(GOLDEN_ANALYTIC):
        calls.clear(), built.clear()
        result = run_sweep(_shipped(tmp_path, name), source="analytic")
        text = render_results(result.rows, "csv")
        assert hashlib.sha256(text.encode()).hexdigest() \
            == GOLDEN_ANALYTIC[name]
        # one derivation per distinct (plan, policy) of the sweep
        assert len(calls) == len(set(calls)) \
            == len({(s.plan, s.policy) for s in built}), name
        shared += len(built) - len(calls)
    # the points of a power sweep share one plan and policy
    assert shared > 0


# the analytic layer reads CDF deficits and asymptotes only
KERNELS = ("prod_exp_cdf", "annulus_kernel_deficit", "nearest_kernel_deficit",
           "residue_asymptote_cdf")


def _count_kernels(monkeypatch):
    """Record every kernel evaluation the analytic layer makes."""
    calls = []
    for name in KERNELS:
        def counted(*args, name=name, fn=getattr(analytics, name), **kw):
            calls.append((name,) + args)
            return fn(*args, **kw)
        monkeypatch.setattr(analytics, name, counted)
    return calls


def test_sweep_evaluates_each_kernel_argument_once(monkeypatch, tmp_path):
    calls = _count_kernels(monkeypatch)
    config = _shipped(tmp_path, "rho_tradeoff")
    result = run_sweep(config, source="analytic")
    first = render_results(result.rows, "csv")
    evaluated = list(calls)
    assert evaluated and len(set(evaluated)) == len(evaluated)
    # the record counts the same evaluations, and a hit for every repeat
    stats = result.stats
    assert sorted(stats.kernel_lookups) == ["annulus", "nearest", "prod_exp"]
    for family, lookups in stats.kernel_lookups.items():
        evaluations = stats.kernel_evaluations[family]
        assert evaluations == sum(1 for name, *_ in evaluated
                                  if name.startswith(family))
        assert lookups > evaluations
    # the memo is scoped to one call: a second sweep pays its own cost
    calls.clear()
    second = render_results(run_sweep(config, source="analytic").rows, "csv")
    assert sorted(map(repr, calls)) == sorted(map(repr, evaluated))
    assert first == second


def test_sweep_computes_each_gamma_factor_once(monkeypatch, tmp_path):
    calls = []
    real = specfun.loggamma
    monkeypatch.setattr(specfun, "loggamma",
                        lambda z: calls.append(z) or real(z))
    memos = []

    class Recorded(analytics.KernelMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)
    monkeypatch.setattr(analytics, "KernelMemo", Recorded)
    config = _shipped(tmp_path, "density")
    result = run_sweep(config, source="analytic")
    first = render_results(result.rows, "csv")
    (memo,) = memos
    # one loggamma call per distinct (grid, shift, slope), none outside it
    assert calls and len(calls) == len(memo.table)
    assert sum(memo.table.lookups.values()) > 2 * len(memo.table)
    stats = result.stats
    assert sorted(stats.grid_lookups) == ["panels", "ring", "window"]
    assert sum(stats.grid_arrays.values()) == len(calls)
    # the table lives for one sweep: a second sweep pays the same cost
    evaluated = len(calls)
    calls.clear()
    second = render_results(run_sweep(config, source="analytic").rows, "csv")
    assert len(calls) == evaluated and len(memos) == 2
    assert first == second


def test_sweep_enumerates_harvest_runs_once_per_scenario_slot(monkeypatch,
                                                               tmp_path):
    calls, mixed = [], []
    real_runs, real_mix = analytics.harvest_runs, analytics._mix

    def counted(t, topology, policy, budget):
        # the SlotMarginals that asked sits one frame up, in its memo
        scenario = sys._getframe(1).f_locals["self"].scenario
        assert (topology, policy, budget) \
            == (scenario.topology, scenario.policy, scenario.budget)
        runs = real_runs(t, topology, policy, budget)
        calls.append(((scenario, t), runs))
        return runs
    monkeypatch.setattr(analytics, "harvest_runs", counted)
    monkeypatch.setattr(analytics, "_mix", lambda runs, *rest: (
        mixed.append(id(runs)) or real_mix(runs, *rest)))
    text = render_results(run_sweep(_shipped(tmp_path, "density"),
                                    source="analytic").rows, "csv")
    assert hashlib.sha256(text.encode()).hexdigest() \
        == GOLDEN_ANALYTIC["density"]
    pairs = [pair for pair, _ in calls]
    assert len({scenario for scenario, _ in pairs}) > 1
    assert len(set(pairs)) == len(pairs)
    # every mixture reads an enumerated table, and every table is read
    assert {id(runs) for _, runs in calls} == set(mixed)


@pytest.mark.parametrize("name", ["destination_op_p0", "throughput_p0"])
def test_power_family_rows_equal_standalone_marginals(tmp_path, name):
    # every point of a power sweep reads the plans, thresholds and slot
    # states its family derived once; a standalone SlotMarginals, a family
    # of one with private tables and memo, gives every row's very float
    config = _shipped(tmp_path, name)
    rows = run_sweep(config, source="analytic").rows
    book = channel.FitBook(config.fit_cache_path)
    want = []
    for value, scheme, scenario in experiments._points(config, {}):
        alone = analytics.SlotMarginals(scenario, functools.partial(
            experiments._nearest_fit, book, scenario))
        for metric in config.sweep.metrics:
            selector = parse_metric(metric)
            for asymptotic in (False, True)[
                    :1 + config.sweep.include_asymptotic]:
                want.append((repr(value), scheme.value, metric,
                             "asymptotic" if asymptotic else "analytic",
                             repr(alone.throughput(asymptotic)
                                  if selector == ("throughput",)
                                  else alone.outage(selector, asymptotic))))
    assert [(r.value, r.scheme, r.metric, r.source, repr(r.mean))
            for r in rows] == want


# per sweep: distinct allocation plans and (slot, topology, policy,
# path-loss law) harvest-run tables
PLAN_AND_RUN_COUNTS = {"destination_op_p0": (4, 12), "throughput_p0": (4, 12),
                       "validate_chain": (12, 24)}


@pytest.mark.parametrize("name", sorted(PLAN_AND_RUN_COUNTS))
def test_no_table_outlives_its_sweep(monkeypatch, tmp_path, name):
    # a power sweep's 9 points share 4 plans and 12 run tables, where
    # each point of each scheme derived its own; a second sweep in the
    # same process derives them all again
    counts = {}
    for fn in ("default_allocation", "harvest_runs"):
        def counted(*args, fn=fn, real=getattr(analytics, fn), **kw):
            counts[fn] += 1
            return real(*args, **kw)
        monkeypatch.setattr(analytics, fn, counted)
    config = _shipped(tmp_path, name)
    tables = []
    for _ in range(2):
        counts.update(default_allocation=0, harvest_runs=0)
        result = run_sweep(config, source="analytic")
        assert not result.failures
        tables.append(render_results(result.rows, "csv"))
        assert (counts["default_allocation"], counts["harvest_runs"]) \
            == PLAN_AND_RUN_COUNTS[name]
    assert hashlib.sha256(tables[0].encode()).hexdigest() \
        == GOLDEN_ANALYTIC[name]
    assert tables[0] == tables[1]


# sha256 of the simulated validate_chain table at 140,000 outage and 70,000
# throughput trials (three blocks, partial cuts in blocks 1 and 2), as
# emitted before a sweep planned its simulation
GOLDEN_MC = "8ab2b6eb4eb6533352bbddecf5c698795160698196407a740949d12033d6ae80"


def test_shipped_mc_table_is_byte_identical(tmp_path):
    config = _shipped(tmp_path, "validate_chain", trials_outage=140_000,
                      trials_throughput=70_000)
    result = run_sweep(config, source="mc")
    text = render_results(result.rows, "csv")
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MC
    # one stream group at the config's seed: every scheme's 4-node chain
    # shares the draws of three blocks, the last drawn only as far as the
    # 140,000-trial runs read it; it holds the com, qom and bare-chain
    # device groups, and every scenario is resolved as far as its
    # 140,000-trial run reads: 7 com, 7 qom and 1 bare scenario
    (stream,) = result.stats.streams
    assert (stream.seed, stream.nodes, stream.blocks, stream.trials) \
        == (51, 4, 3, 140_000)
    groups = {g.pairing: g for g in stream.devices}
    assert len(groups) == len(stream.devices) == 3
    assert all(g.blocks == 3 and g.families for g in groups.values())
    assert {k: sum(f.trials for f in g.families.values())
            for k, g in groups.items()} \
        == {"com": 980_000, "qom": 980_000, "bare": 140_000}
    # block 2 serves only the outage runs, which read no device event: it
    # draws no device geometry and its 8,928 trials decode no device
    assert (groups["com"].hop_only, groups["com"].undecoded) \
        == (groups["qom"].hop_only, groups["qom"].undecoded) == (1, 7 * 8_928)
    # every block skips the destination's harvest row and the activity row
    # of each of its 3 slots, certainly active for com and qom and
    # certainly idle for the bare chain, so no topology draws it
    assert stream.skipped == 12
    # every family reports its guard-band trials and whole-row rate tests;
    # com-noeh and qom-noeh resolve in the families of tcom and tqom; every
    # rate test of a shipped plan has a threshold
    assert {k: list(g.families) for k, g in groups.items()} \
        == {"com": ["tcom+com-noeh", "pcom"], "qom": ["tqom+qom-noeh", "pqom"],
            "bare": ["cnrr"]}
    assert all(f.whole_row == 0 for g in groups.values()
               for f in g.families.values())
    # the group allocates one buffer set, at full block width, with the
    # device rows of its largest device count (com), which hold the path
    # gains, and an activity row set per topology: 264 block widths, 3 more
    # than the com draw group's set alone and under half the 562 of the
    # com, qom and bare sets allocated one after another
    assert stream.nbytes == 264 * montecarlo.BLOCK_SIZE


def test_sweep_statistics_are_deterministic(tmp_path, caplog):
    # a rerun gives an equal record but for its seconds, and logging the
    # record at DEBUG leaves the table as it is
    config = _shipped(tmp_path, "validate_chain", trials_outage=140_000,
                      trials_throughput=70_000)
    results = []
    for level in (logging.DEBUG, logging.WARNING):
        with caplog.at_level(level, logger="nomarelay.experiments"):
            results.append(run_sweep(config, source="both"))
        simulated = [row for row in results[-1].rows if row.source == "mc"]
        text = render_results(simulated, "csv")
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MC
    debug, warning = results
    assert render_results(debug.rows, "csv") \
        == render_results(warning.rows, "csv")
    assert debug.stats.streams and debug.stats.kernel_lookups
    assert oracles.without_seconds(debug.stats) \
        == oracles.without_seconds(warning.stats)
    # only the DEBUG run logs its record, in one line
    logged = [r for r in caplog.records if r.name == "nomarelay.experiments"]
    assert len(logged) == 1


# sha256 of the simulated device cross-check tables at 140,000 outage and
# 70,000 throughput trials, as emitted while a qom plan carried its device
# rate in a field of its own
GOLDEN_MC_DEVICES = {
    "validate_devices_com":
        "f36743b6bac9e7ec69f503d3d03a0fd68be4d922604dc5ac53ea1fce871bf161",
    "validate_devices_qom":
        "d13ebcdeb8b94a079513904b3eed09d1a1fd1c05f47abb042bdd698214944a24",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MC_DEVICES))
def test_shipped_mc_device_tables_are_byte_identical(tmp_path, name):
    config = _shipped(tmp_path, name, trials_outage=140_000,
                      trials_throughput=70_000)
    result = run_sweep(config, source="mc")
    assert not result.failures
    text = render_results(result.rows, "csv")
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MC_DEVICES[name]


def test_twin_group_skips_the_harvest_rows_of_its_relays(tmp_path):
    # the eed no-harvest twins draw at their own seed, and no relay of the
    # group harvests: each of its 2 blocks skips both relays' harvest rows
    # besides the destination's and the 3 certain activity rows, and the
    # table keeps its bytes
    config = _shipped(tmp_path, "validate_devices_com",
                      trials_outage=140_000, trials_throughput=70_000)
    result = run_sweep(config, source="mc")
    text = render_results(result.rows, "csv")
    assert hashlib.sha256(text.encode()).hexdigest() \
        == GOLDEN_MC_DEVICES["validate_devices_com"]
    skipped = {g.seed: g.skipped for g in result.stats.streams
               if g.nodes == 4}
    twin = config.seed + experiments._TWIN_SEED_OFFSET
    # the main group's 3 blocks skip the destination and activity rows only
    assert skipped == {config.seed: 12, twin: 12}


def test_sweep_draws_once_and_resolves_each_scenario_once(monkeypatch,
                                                         tmp_path):
    draws, widths, families, devices = [], [], [], {}

    def draw(buffers, rng, trials, draw=montecarlo._draw):
        draws.append((buffers, trials))
        return draw(buffers, rng, trials)

    def draw_devices(buffers, rng, scenario, trials,
                     draw=montecarlo._draw_devices):
        devices.setdefault(scenario.scheme.pairing, []).append(
            (len(draws) - 1, trials))
        return draw(buffers, rng, scenario, trials)

    def resolve(family, buffers, n, reads, stats,
                resolve=montecarlo._resolve):
        # every member of a family reads the block as wide as the family
        families.append(len(family))
        widths.extend([n] * len(family))
        return resolve(family, buffers, n, reads, stats)

    monkeypatch.setattr(montecarlo, "_draw", draw)
    monkeypatch.setattr(montecarlo, "_draw_devices", draw_devices)
    monkeypatch.setattr(montecarlo, "_resolve", resolve)
    result = run_sweep(_shipped(tmp_path, "validate_chain"), source="mc")
    assert not result.failures
    # 200,000 outage trials are 4 blocks and the 100,000 throughput trials
    # are their prefix; every scheme runs the same 4-node chain at one
    # seed, so each block's relay chain is drawn once for the com, qom and
    # bare-chain scenarios alike, and tcom/tqom/pcom/pqom at 3 rho values
    # plus the rho-free com-noeh/qom-noeh/cnrr make 15 scenarios
    assert (len(draws), len(widths)) == (4, 15 * 4)
    # the scenarios that differ only in what a resolve does not read are
    # one family: tcom and tqom each resolve their 3 rho values with
    # com-noeh and qom-noeh at once, pcom and pqom their 3, cnrr alone
    assert sorted(families) == sorted([4] * 2 * 4 + [3] * 2 * 4 + [1] * 4)
    # the group allocates one buffer set and refills it for its 4 blocks
    assert len({id(buffers) for buffers, _ in draws}) == 1
    # the last block is drawn and resolved only as far as the
    # 200,000-trial runs read it
    tail = 200_000 - 3 * montecarlo.BLOCK_SIZE
    assert [trials for _, trials in draws] \
        == [montecarlo.BLOCK_SIZE] * 3 + [tail]
    assert sorted(set(widths)) == [tail, montecarlo.BLOCK_SIZE]
    assert widths.count(tail) == 15
    assert sum(widths) == 15 * 200_000
    # blocks 2 and 3 serve only the outage runs, which read hop_op:2 and
    # e2e_op:destination, so no scenario decodes devices there, and no
    # device group draws
    assert devices == {pairing: [(0, montecarlo.BLOCK_SIZE),
                                 (1, montecarlo.BLOCK_SIZE)]
                       for pairing in ("com", "qom", None)}


def test_simulation_failure_fails_only_its_scheme(monkeypatch):
    sweep = SweepSpec(variable="p0_dbm", grid=(0.0,),
                      schemes=(Scheme.TCOM, Scheme.PCOM, Scheme.COM_NOEH),
                      metrics=("hop_op:1", "throughput"))
    config = small_config(sweep=sweep)
    clean = run_sweep(config, source="both")
    resolve = montecarlo._resolve

    def refuse_pcom(family, draws, n, *work):
        if any(scenario.scheme is Scheme.PCOM for scenario in family):
            raise FloatingPointError("refused")
        return resolve(family, draws, n, *work)

    monkeypatch.setattr(montecarlo, "_resolve", refuse_pcom)
    result = run_sweep(config, source="both")
    assert result.failures == [
        (0.0, "pcom", metric, "FloatingPointError: refused")
        for metric in sweep.metrics]
    assert len(result.rows) == len(clean.rows) == 12
    for row, before in zip(result.rows, clean.rows):
        if (row.scheme, row.source) == ("pcom", "mc"):
            assert math.isnan(row.mean) and row.trials == 0
        else:
            assert row == before


# ---------------------------------------------------------------------------
# emission contract
# ---------------------------------------------------------------------------

def test_csv_contract_and_byte_identity(tmp_path):
    config = small_config()
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    experiments.emit_results(run_sweep(config, source="both").rows, "csv",
                             first)
    experiments.emit_results(run_sweep(config, source="both").rows, "csv",
                             second)
    text = first.read_text()
    assert text == second.read_text()
    header, *lines = text.splitlines()
    assert header == ",".join(RESULT_COLUMNS)
    assert all(line.count(",") == len(RESULT_COLUMNS) - 1 for line in lines)
    assert text.endswith("\n")


def test_json_lines_mirror_csv(tmp_path):
    import json

    result = run_sweep(small_config(), source="both")
    csv_text = render_results(result.rows, "csv")
    json_text = render_results(result.rows, "json-lines")
    csv_lines = csv_text.splitlines()[1:]
    for line, record_text in zip(csv_lines, json_text.splitlines()):
        record = json.loads(record_text)
        cells = line.split(",")
        assert [record[c] for c in RESULT_COLUMNS[:5]] == cells[:5]
        assert repr(record["mean"]) == cells[5]
        assert repr(record["ci_half_width"]) == cells[6]
        assert record["trials"] == int(cells[7])
        assert record["seed"] == int(cells[8])


def test_read_results_round_trip(tmp_path):
    result = run_sweep(small_config(), source="both")
    path = tmp_path / "rows.csv"
    experiments.emit_results(result.rows, "csv", path)
    assert read_results(path) == result.rows


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_read_results_parses_both_formats(tmp_path, fmt):
    rows = run_sweep(small_config(), source="both").rows
    rows.append(dataclasses.replace(rows[0], mean=math.nan,
                                    ci_half_width=math.nan, trials=0))
    path = tmp_path / "rows.out"
    experiments.emit_results(rows, fmt, path)
    back = read_results(path)
    assert back[:-1] == rows[:-1]
    assert math.isnan(back[-1].mean) and math.isnan(back[-1].ci_half_width)
    assert render_results(back, fmt) == path.read_text()


def test_read_results_rejects_foreign_tables(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unexpected header"):
        read_results(path)


def test_render_results_rejects_empty_and_unknown():
    result = run_sweep(small_config(), source="analytic")
    with pytest.raises(ValueError, match="empty"):
        render_results([], "csv")
    with pytest.raises(ValueError, match="unknown format"):
        render_results(result.rows, "parquet")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

SMALL_YAML = """\
topology: t3
sweep:
  variable: p0_dbm
  grid: [0.0]
  schemes: [tcom]
  metrics: ["hop_op:1", throughput]
trials: {outage: 20000, throughput: 20000}
seed: 7
"""


def _write_config(tmp_path, text=SMALL_YAML):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return path


def test_cli_sweep_writes_table(tmp_path, capfd):
    config = _write_config(tmp_path)
    out = tmp_path / "rows.csv"
    rc = cli.main(["sweep", "--config", str(config), "--source", "analytic",
                   "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith(",".join(RESULT_COLUMNS))
    err = capfd.readouterr().err
    assert "2 rows, 0 flagged, 0 failed" in err


def test_cli_sweep_stdout_and_json(tmp_path, capfd):
    config = _write_config(tmp_path)
    rc = cli.main(["sweep", "--config", str(config), "--source", "analytic",
                   "--format", "json-lines"])
    assert rc == 0
    out = capfd.readouterr().out
    assert out.splitlines()[0].startswith("{")


def test_cli_validate_cross_checks(tmp_path, capfd):
    config = _write_config(tmp_path)
    rc = cli.main(["validate", "--config", str(config), "--trials", "20000"])
    assert rc == 0
    assert "0 flagged, 0 failed" in capfd.readouterr().err


def test_cli_validate_reports_failures(tmp_path, capfd):
    config = _write_config(tmp_path, SMALL_YAML.replace(
        'metrics: ["hop_op:1", throughput]', 'metrics: ["device_op:2:3"]'))
    rc = cli.main(["validate", "--config", str(config), "--trials", "4096"])
    assert rc == 1
    err = capfd.readouterr().err
    assert "ERROR tcom device_op:2:3" in err


def test_cli_fit_cache(tmp_path, capfd):
    text = SMALL_YAML.replace("schemes: [tcom]", "schemes: [tqom]")
    config = _write_config(tmp_path, text)
    rc = cli.main(["fit-cache", "--config", str(config)])
    assert rc == 1
    assert "no fit_cache" in capfd.readouterr().err
    cache = tmp_path / "fits.json"
    rc = cli.main(["fit-cache", "--config", str(config), "--out", str(cache)])
    assert rc == 0
    assert cache.exists()
    assert "2 disk fits" in capfd.readouterr().err
    # both slots of t3 share one disk geometry, stored once
    assert len(json.loads(cache.read_text())) == 1


def test_cli_error_exit_code(tmp_path, capfd):
    rc = cli.main(["sweep", "--config", str(tmp_path / "missing.yaml")])
    assert rc == 2
    assert "error:" in capfd.readouterr().err
    config = _write_config(tmp_path, SMALL_YAML + "bogus: 1\n")
    rc = cli.main(["validate", "--config", str(config)])
    assert rc == 2
    config = _write_config(tmp_path, SMALL_YAML.replace(
        "topology: t3",
        "topology: {hop_distances: [50.0], disk_radii: [25.0]}"))
    rc = cli.main(["sweep", "--config", str(config)])
    assert rc == 2
    assert "topology: missing config keys ['subarea_counts']" \
        in capfd.readouterr().err
