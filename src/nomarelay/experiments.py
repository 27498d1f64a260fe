"""Sweep runner: configs to deterministic result tables.

A run config (YAML) names a topology, link budget, harvesting policy,
allocation rule, and one swept variable; the runner evaluates each
requested metric per grid point and scheme through the closed-form layer,
its high-power asymptote, and/or the exact simulator, then emits rows
with a fixed column contract.  Analytic and simulated rows for the same
point are compared against a declared margin and disagreements are
flagged: slot-level outage and supply power are exact so their margin is
purely statistical, while end-to-end compositions carry a documented
correlation envelope that grows with the harvesting probability.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import yaml

from . import analytics, montecarlo
from .channel import FitBook, LinkBudget, dbm_to_watts, noise_power_w
from .network import NetworkTopology, Scenario, Scheme, build_policy

logger = logging.getLogger(__name__)

TOPOLOGY_PRESETS = {
    "t1": {"hop_distances": (200.0, 200.0, 200.0),
           "disk_radii": (100.0, 100.0, 100.0),
           "subarea_counts": (3, 2, 1)},
    "t2": {"hop_distances": (200.0, 100.0, 100.0),
           "disk_radii": (100.0, 50.0, 50.0),
           "subarea_counts": (3, 2, 1)},
    "t3": {"hop_distances": (50.0, 50.0),
           "disk_radii": (25.0, 25.0),
           "subarea_counts": (2, 2)},
    "t4": {"hop_distances": (200.0, 200.0, 200.0),
           "disk_radii": (100.0, 100.0, 100.0),
           "subarea_counts": (2, 2, 2)},
    "t5": {"hop_distances": (200.0, 200.0, 200.0, 200.0),
           "disk_radii": (100.0, 100.0, 100.0, 100.0),
           "subarea_counts": (2, 2, 2, 2)},
}

RESULT_COLUMNS = ("sweep_var", "value", "scheme", "metric", "source",
                  "mean", "ci_half_width", "trials", "seed")

SWEEP_VARIABLES = ("p0_dbm", "rho", "alpha", "beta", "density_active",
                   "node_count", "subarea_counts")

_SCALAR_METRICS = ("throughput", "ee", "eed", "p_tol")

# offset separating the no-harvest twin's stream from the main run
_TWIN_SEED_OFFSET = 1_000_003


def _simulated_read(selector) -> tuple:
    """What a simulated row of ``selector`` reads of each of its runs: its
    outage event, or the moment its scalar metric is built from."""
    if selector[0] not in _SCALAR_METRICS:
        return selector
    return ("supply_power",) if selector[0] == "p_tol" else ("throughput",)


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable with its grid, scheme list, and metric list."""

    variable: str
    grid: tuple
    schemes: tuple
    metrics: tuple
    include_asymptotic: bool = False

    def __post_init__(self):
        object.__setattr__(self, "schemes", tuple(
            Scheme.parse(s) if isinstance(s, str) else s
            for s in self.schemes))
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if len(self.grid) == 0:
            raise ValueError("sweep grid must be nonempty")
        if self.variable == "subarea_counts":
            if len(set(self.grid)) != len(self.grid):
                raise ValueError("subarea patterns must be unique")
        else:
            diffs = [b - a for a, b in zip(self.grid, self.grid[1:])]
            if any(d <= 0 for d in diffs):
                raise ValueError("sweep grid must be strictly increasing")
        if not self.schemes:
            raise ValueError("scheme list must be nonempty")
        for metric in self.metrics:
            parse_metric(metric)
        if not self.metrics:
            raise ValueError("metric list must be nonempty")


@dataclass(frozen=True)
class RunConfig:
    topology: NetworkTopology
    sweep: SweepSpec
    p0_dbm: float = 0.0
    bandwidth_hz: float = 1.0e7
    f_c_ghz: float = 3.0
    gain_rx_dbi: float = 5.0
    gain_tx_dbi: float = 5.0
    epsilon: float = 3.67
    rho: float = 0.1
    alpha: float = 0.2
    beta: float = 0.8
    eta: float = 1.0
    relay_share: float = 0.8
    rate_fraction: float = 0.5
    rate_cap: float = 0.75
    trials_outage: int = 1_000_000
    trials_throughput: int = 100_000
    seed: int = 1
    fit_cache: Optional[str] = None
    topology_by_node_count: Optional[dict] = None
    # directory a relative fit_cache resolves against (the working
    # directory when None); load_config sets the config file's directory
    config_dir: Optional[str] = None

    @property
    def fit_cache_path(self) -> Optional[str]:
        """``fit_cache`` as a path from the working directory."""
        if self.fit_cache is None:
            return None
        return str(Path(self.config_dir or "") / self.fit_cache)


@dataclass(frozen=True)
class ResultRow:
    sweep_var: str
    value: str
    scheme: str
    metric: str
    source: str
    mean: float
    ci_half_width: float
    trials: int
    seed: int


@dataclass
class SweepStats:
    """Where one sweep's work went, counted as it runs: a
    :class:`montecarlo.StreamStats` per stream group simulated, in order,
    kernel lookups and evaluations per kernel family, and loggamma lookups
    and arrays computed per grid kind.  A rerun of the sweep gives an
    equal record but for its seconds."""

    streams: list
    kernel_lookups: dict
    kernel_evaluations: dict
    grid_lookups: dict
    grid_arrays: dict


@dataclass
class SweepResult:
    rows: list
    flagged: list
    failures: list
    stats: Optional[SweepStats] = None

    @property
    def clean(self) -> bool:
        return not self.flagged and not self.failures


def parse_metric(metric: str):
    """Translate a metric string into an event selector tuple."""
    parts = metric.split(":")
    try:
        if parts[0] == "hop_op" and len(parts) == 2:
            return ("hop", int(parts[1]))
        if parts[0] == "device_op" and len(parts) == 3:
            k = None if parts[2] == "nearest" else int(parts[2])
            return ("device", int(parts[1]), k)
        if parts[0] == "e2e_op":
            if parts[1:] == ["destination"]:
                return ("e2e_destination",)
            if parts[1] == "device" and len(parts) == 4:
                k = None if parts[3] == "nearest" else int(parts[3])
                return ("e2e_device", int(parts[2]), k)
        if len(parts) == 1 and parts[0] in _SCALAR_METRICS:
            return (parts[0],)
    except (ValueError, IndexError):
        pass
    raise ValueError(f"unknown metric {metric!r}")


# the keys of each config section; each sets the RunConfig field of the
# same name, prefixed with ``trials_`` under ``trials``
_SECTIONS = {
    "budget": ("p0_dbm", "bandwidth_hz", "f_c_ghz", "gain_rx_dbi",
               "gain_tx_dbi", "epsilon"),
    "policy": ("rho", "alpha", "beta", "eta"),
    "plan": ("relay_share", "rate_fraction", "rate_cap"),
    "trials": ("outage", "throughput"),
}
_SWEEP_KEYS = ("variable", "grid", "schemes", "metrics", "include_asymptotic")
_TOPOLOGY_KEYS = ("hop_distances", "disk_radii", "subarea_counts")


def _checked(mapping, known, where: str) -> dict:
    """``mapping`` after rejecting every key outside ``known``."""
    if not isinstance(mapping, dict):
        raise ValueError(f"{where}: expected a mapping, got {mapping!r}")
    extra = set(mapping) - set(known)
    if extra:
        raise ValueError(f"{where}: unknown config keys {sorted(extra)}")
    return mapping


@contextlib.contextmanager
def _section(where: str):
    """Turn a config value of the wrong type into a ValueError at ``where``."""
    try:
        yield
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{where}: malformed value ({exc})") from None


def _topology_from_spec(spec, density_active: float, where: str) -> NetworkTopology:
    if isinstance(spec, str):
        try:
            spec = TOPOLOGY_PRESETS[spec.lower()]
        except KeyError:
            raise ValueError(f"unknown topology preset {spec!r}") from None
    spec = _checked(spec, _TOPOLOGY_KEYS, where)
    missing = [key for key in _TOPOLOGY_KEYS if key not in spec]
    if missing:
        raise ValueError(f"{where}: missing config keys {missing}")
    with _section(where):
        return NetworkTopology(
            hop_distances=tuple(float(d) for d in spec["hop_distances"]),
            disk_radii=tuple(float(r) for r in spec["disk_radii"]),
            subarea_counts=tuple(int(k) for k in spec["subarea_counts"]),
            density_active=density_active,
        )


def load_config(path) -> RunConfig:
    """Parse a YAML run config; unknown keys are rejected in every section.

    Only the keys present are passed on, so the defaults of
    :class:`RunConfig` and :class:`SweepSpec` apply to the rest.  A value
    of the wrong type is a ValueError naming the file and its section.
    """
    raw = _checked(yaml.safe_load(Path(path).read_text()),
                   ("topology", "densities", "topology_by_node_count",
                    "sweep", "seed", "fit_cache", *_SECTIONS), path)
    with _section(f"{path} densities"):
        density = float(_checked(raw.get("densities", {}), ("active",),
                                 f"{path} densities").get("active", 1e-2))
    topology = _topology_from_spec(raw.get("topology", "t1"), density,
                                   f"{path} topology")
    sweep = dict(_checked(raw.get("sweep", {}), _SWEEP_KEYS, f"{path} sweep"))
    sweep.setdefault("variable", "p0_dbm")
    grid = sweep.get("grid", ())
    with _section(f"{path} sweep"):
        if sweep["variable"] == "subarea_counts":
            sweep["grid"] = tuple(tuple(int(k) for k in row) for row in grid)
        else:
            sweep["grid"] = tuple(float(v) if not isinstance(v, int) else v
                                  for v in grid)
        sweep["schemes"] = tuple(Scheme.parse(s)
                                 for s in sweep.get("schemes", ()))
        sweep["metrics"] = tuple(sweep.get("metrics", ()))
        if "include_asymptotic" in sweep:
            sweep["include_asymptotic"] = bool(sweep["include_asymptotic"])
        sweep = SweepSpec(**sweep)
    fields = {}
    for section, keys in _SECTIONS.items():
        given = _checked(raw.get(section, {}), keys, f"{path} {section}")
        with _section(f"{path} {section}"):
            if section == "trials":
                fields.update({f"trials_{k}": int(v) for k, v in given.items()})
            else:
                fields.update({k: float(v) for k, v in given.items()})
    with _section(f"{path} seed"):
        if "seed" in raw:
            fields["seed"] = int(raw["seed"])
    if "fit_cache" in raw:
        fields["fit_cache"] = raw["fit_cache"]
    by_m = raw.get("topology_by_node_count")
    if by_m is not None:
        with _section(f"{path} topology_by_node_count"):
            fields["topology_by_node_count"] = {
                int(m): _topology_from_spec(
                    spec, density, f"{path} topology_by_node_count {m}")
                for m, spec in by_m.items()}
    return RunConfig(topology=topology, sweep=sweep,
                     config_dir=str(Path(path).parent), **fields)


# ---------------------------------------------------------------------------
# scenario construction per (grid value, scheme)
# ---------------------------------------------------------------------------

def _point_config(config: RunConfig, value) -> RunConfig:
    """``config`` with its swept field set to ``value``."""
    var = config.sweep.variable
    if var == "node_count":
        topology = (config.topology_by_node_count or {}).get(int(value))
        if topology is None:
            raise ValueError(f"no topology configured for node count {value}")
        if topology.node_count != int(value):
            raise ValueError(f"topology for node count {value} has "
                             f"{topology.node_count} nodes")
        return dataclasses.replace(config, topology=topology)
    if var in ("density_active", "subarea_counts"):
        return dataclasses.replace(config, topology=dataclasses.replace(
            config.topology, **{var: value}))
    return dataclasses.replace(config, **{var: value})


def _build_scenario(config: RunConfig, scheme: Scheme,
                    plans: dict) -> Scenario:
    """The scenario of ``scheme`` at the point ``config``; it carries no
    fits.  Its plan is read from ``plans``, filled on a miss."""
    topology, m = config.topology, config.topology.node_count
    budget = LinkBudget(P0=dbm_to_watts(config.p0_dbm),
                        sigma2=noise_power_w(config.bandwidth_hz),
                        f_c=config.f_c_ghz, G_r=config.gain_rx_dbi,
                        G_t=config.gain_tx_dbi, epsilon=config.epsilon)

    def policy_of(scheme):
        return build_policy(scheme, m, config.rho, alpha=config.alpha,
                            beta=config.beta, eta=config.eta)
    policy = policy_of(scheme)
    # every scheme competes at the rates the time-switching reference
    # can sustain; the baseline inherits only the relayed-message rate.  A
    # qom slot superposes one device, as a com slot of one subarea does
    layout = topology
    if scheme.pairing == "qom":
        layout = dataclasses.replace(
            topology, subarea_counts=(1,) * topology.hop_count)

    def allocate(policy):
        key = (layout, policy, config.relay_share, config.rate_fraction,
               config.rate_cap)
        if key not in plans:
            plans[key] = analytics.default_allocation(*key)
        return plans[key]
    reference = allocate(policy_of(Scheme.TCOM))
    if scheme is Scheme.CNRR:
        topology = topology.without_devices()
        plan = analytics.baseline_plan(reference, topology.hop_count)
    elif scheme.harvesting == "BPEH":
        plan = allocate(policy)
    else:
        plan = reference
    return Scenario(scheme=scheme, topology=topology, policy=policy,
                    budget=budget, plan=plan)


def _points(config: RunConfig, plans: dict):
    """Yield ``(value, scheme, scenario)`` for every point of the sweep, in
    row order; a point that cannot be built yields its exception as the
    scenario.  Each grid value's config is derived once for its schemes,
    and plans are read from ``plans`` (:func:`_build_scenario`)."""
    for value in config.sweep.grid:
        try:
            point = _point_config(config, value)
        except Exception as exc:
            point = exc
        for scheme in config.sweep.schemes:
            scenario = point
            if not isinstance(point, Exception):
                try:
                    scenario = _build_scenario(point, scheme, plans)
                except Exception as exc:
                    scenario = exc
            yield value, scheme, scenario


class _SweepCore:
    """State shared by every point of one sweep, dropped with it, and the
    evaluation of each (scenario, metric) of the sweep's ``config``.

    Scenarios equal in value share one :class:`analytics.SlotMarginals`, so
    slot outages and throughput are computed once per sweep (the
    no-harvest twin of a rho sweep is the same scenario at every grid
    point), and one eed twin.  Every ``SlotMarginals`` reads one
    :class:`analytics.KernelMemo`, whose ``tables`` also hold the
    allocation plans (:func:`_build_scenario`), so what P0 does not touch
    is derived once per sweep.  Nearest-gain fits are resolved lazily
    through one :class:`FitBook`.  Simulated rows read ``tallies``, filled
    by one :func:`montecarlo.simulate_plan` over every run the sweep needs.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.fits = FitBook(config.fit_cache_path)
        self.kernels = analytics.KernelMemo()
        self._marginals, self._twins = {}, {}
        self.tallies = {}

    def marginals(self, scenario: Scenario) -> analytics.SlotMarginals:
        if scenario not in self._marginals:
            # the fit source binds the book, not the core, so no reference
            # cycle keeps a finished sweep's memo alive until a full collection
            self._marginals[scenario] = analytics.SlotMarginals(
                scenario, functools.partial(_nearest_fit, self.fits, scenario),
                self.kernels)
        return self._marginals[scenario]

    def twin(self, scenario: Scenario) -> Scenario:
        """Same scheme with harvesting disabled; reference point for EED."""
        if scenario not in self._twins:
            policy = build_policy(scenario.scheme, scenario.policy.node_count,
                                  0.0, alpha=scenario.policy.alpha,
                                  beta=scenario.policy.beta,
                                  eta=scenario.policy.eta)
            self._twins[scenario] = dataclasses.replace(scenario,
                                                        policy=policy)
        return self._twins[scenario]

    # -- analytic side ----------------------------------------------------

    def _per_watt(self, scenario, rate: float) -> float:
        """Energy efficiency of ``rate``: bits per joule of supply power."""
        return self.config.bandwidth_hz * rate / analytics.supply_power(
            scenario.budget, scenario.policy)

    def _efficiency(self, scenario, asymptotic=False) -> float:
        return self._per_watt(
            scenario, self.marginals(scenario).throughput(asymptotic))

    def analytic(self, s: Scenario, selector, asymptotic=False) -> float:
        kind = selector[0]
        if kind == "throughput":
            return self.marginals(s).throughput(asymptotic)
        if kind == "ee":
            return self._efficiency(s, asymptotic)
        if kind == "eed":
            if not s.policy.is_harvesting:
                return 0.0
            return (self._efficiency(s, asymptotic)
                    - self._efficiency(self.twin(s), asymptotic))
        if kind == "p_tol":
            return analytics.supply_power(s.budget, s.policy)
        return self.marginals(s).outage(selector, asymptotic)

    # -- simulated side ---------------------------------------------------

    def simulation_runs(self, s: Scenario, selector) -> list:
        """The ``(scenario, seed, trials)`` runs a simulated row reads."""
        cfg = self.config
        if selector[0] not in _SCALAR_METRICS:
            return [(s, cfg.seed, cfg.trials_outage)]
        runs = [(s, cfg.seed, cfg.trials_throughput)]
        if selector[0] == "eed" and s.policy.is_harvesting:
            runs.append((self.twin(s), cfg.seed + _TWIN_SEED_OFFSET,
                         cfg.trials_throughput))
        return runs

    def simulated(self, s: Scenario, selector) -> montecarlo.Estimate:
        kind = selector[0]
        tallies = [self.tallies[run]
                   for run in self.simulation_runs(s, selector)]
        for tal in tallies:
            if isinstance(tal, Exception):
                raise tal
        if kind not in _SCALAR_METRICS:
            return tallies[0].outage(selector)
        if kind == "p_tol":
            return tallies[0].supply_power()
        tp = tallies[0].throughput()
        if kind == "throughput":
            return tp
        if kind == "ee":
            return montecarlo.Estimate(mean=self._per_watt(s, tp.mean),
                                       half_width=self._per_watt(
                                           s, tp.half_width),
                                       trials=tp.trials)
        if kind == "eed":
            if not s.policy.is_harvesting:
                return montecarlo.Estimate(0.0, 0.0, tp.trials)
            twin = self.twin(s)
            scale = self.config.bandwidth_hz
            p_tol = analytics.supply_power(s.budget, s.policy)
            p0 = analytics.supply_power(twin.budget, twin.policy)
            tp0 = tallies[1].throughput()
            hw = scale * math.hypot(tp.half_width / p_tol, tp0.half_width / p0)
            return montecarlo.Estimate(
                mean=scale * (tp.mean / p_tol - tp0.mean / p0),
                half_width=hw, trials=tp.trials)
        raise ValueError(f"unknown selector {selector!r}")

    def declared_margin(self, s: Scenario, selector, analytic_value: float,
                        estimate: montecarlo.Estimate) -> float:
        """Disagreement threshold beyond which a row is flagged."""
        sigma = estimate.half_width / 1.96
        kind = selector[0]
        if kind not in _SCALAR_METRICS and estimate.trials > 0:
            # rare-event rows can report an empirical deviation of zero;
            # the binomial deviation at the analytic value is the honest one
            p = min(max(analytic_value, 0.0), 1.0)
            sigma = max(sigma, math.sqrt(p * (1.0 - p) / estimate.trials))
        sigma3 = 3.0 * sigma
        floor = 1e-9 * abs(analytic_value)
        if kind in ("hop", "p_tol"):
            return sigma3 + floor
        if kind == "device":
            allowance = 0.0
            if selector[2] is None:
                allowance = 2.0 * _nearest_fit(self.fits, s,
                                               selector[1]).fit_error
            return sigma3 + allowance + floor
        # end-to-end compositions multiply per-slot marginals; the simulator
        # resolves the exact joint events, where a harvesting node reuses the
        # fade it later relays over, so composed rows carry a correlation
        # envelope that grows with the harvesting probability.  The nearest-
        # device surrogate adds a tail bias for qom schemes, measured at
        # up to 6% of the composed value near rho = 0.7.
        rho = max((s.policy.rho1(j) for j in range(2, s.policy.node_count)),
                  default=0.0)
        qom = s.scheme.pairing == "qom"
        scale = abs(analytic_value)
        if kind in ("e2e_destination", "e2e_device"):
            return sigma3 + (0.05 + 0.45 * rho) * scale + floor
        if kind == "eed":
            # a difference of two efficiencies inherits the error of the
            # larger one, so the envelope tracks their magnitudes instead
            scale = (abs(self._efficiency(s))
                     + abs(self._efficiency(self.twin(s))))
        envelope = (0.01 + 0.12 * rho) if qom else (0.005 + 0.02 * rho)
        return sigma3 + envelope * scale + floor


def _nearest_fit(book: FitBook, scenario: Scenario, t: int):
    return book.fit(scenario.topology.disk(t), scenario.budget)


# ---------------------------------------------------------------------------
# the sweep loop
# ---------------------------------------------------------------------------

def fill_fit_cache(config: RunConfig) -> int:
    """Fit every qom slot geometry the sweep reads into its fit sidecar.

    Walks the grid as :func:`run_sweep` does, through one fit book, so
    each distinct geometry is fitted at most once; a qom point that cannot
    be built raises.  Returns the number of (grid value, scheme, slot)
    fits covered.
    """
    book, covered = FitBook(config.fit_cache_path), 0
    for _, scheme, scenario in _points(config, {}):
        if scheme.pairing != "qom":
            continue
        if isinstance(scenario, Exception):
            raise scenario
        for t in range(1, scenario.topology.hop_count + 1):
            book.fit(scenario.topology.disk(t), scenario.budget)
            covered += 1
    return covered


def run_sweep(config: RunConfig, *, source: str = "both",
              trials: Optional[int] = None,
              seed: Optional[int] = None) -> SweepResult:
    """Evaluate the config's sweep into result rows.

    ``source`` selects which rows are produced; with ``both``, analytic
    and simulated rows for the same point are compared and disagreements
    beyond the declared margin are flagged.  Numeric failures abort the
    affected row only; a nearest-gain fit is resolved only for rows that
    read it, so a fit that fails fails just those rows.  Every analytic
    quantity is computed once per call, from the first row that asks, and
    every simulated row reads one simulation plan run before the first row.
    """
    if source not in ("analytic", "mc", "both"):
        raise ValueError(f"unknown source {source!r}")
    if trials is not None:
        config = dataclasses.replace(config, trials_outage=trials,
                                     trials_throughput=trials)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    result = SweepResult(rows=[], flagged=[], failures=[])
    core, streams = _SweepCore(config), []
    selectors = [parse_metric(metric) for metric in config.sweep.metrics]
    points = list(_points(config, core.kernels.tables))
    if source in ("mc", "both"):
        # one plan for the whole sweep: shorter runs are prefixes of longer
        # ones, scenarios sharing pairing and topology share draws, and each
        # run is tallied only for what its rows read
        reads = {}
        for *_, scenario in points:
            if isinstance(scenario, Scenario):
                for selector in selectors:
                    for run in core.simulation_runs(scenario, selector):
                        reads.setdefault(run, set()).add(
                            _simulated_read(selector))
        core.tallies = montecarlo.simulate_plan(reads, reads, streams)
    for value, scheme, scenario in points:
        if isinstance(scenario, Exception):
            result.failures.append((value, scheme.value, "*",
                                    f"{type(scenario).__name__}: {scenario}"))
            continue
        for metric, selector in zip(config.sweep.metrics, selectors):
            _emit_point(core, value, scenario, metric, selector, source,
                        result)
    memo = core.kernels
    result.stats = SweepStats(streams, memo.lookups, memo.evaluations,
                              memo.table.lookups, memo.table.arrays)
    # the one place the record is formatted: its repr, at DEBUG
    logger.debug("sweep statistics: %r", result.stats)
    return result


def _emit_point(core: _SweepCore, value, scenario: Scenario, metric: str,
                selector, source: str, result: SweepResult) -> None:
    scheme = scenario.scheme.value
    base = dict(sweep_var=core.config.sweep.variable, value=repr(value),
                scheme=scheme, metric=metric, seed=core.config.seed)

    def row(row_source, mean, half_width=0.0, trials=0):
        result.rows.append(ResultRow(source=row_source, mean=mean,
                                     ci_half_width=half_width, trials=trials,
                                     **base))

    def fail(exc, row_source=None):
        # a failed value keeps its row in the table, as NaN
        if row_source is not None:
            row(row_source, math.nan, math.nan)
        result.failures.append((value, scheme, metric,
                                f"{type(exc).__name__}: {exc}"))

    analytic_value = None
    if source in ("analytic", "both"):
        try:
            analytic_value = core.analytic(scenario, selector)
            row("analytic", analytic_value)
        except Exception as exc:
            fail(exc, "analytic")
        if core.config.sweep.include_asymptotic:
            try:
                row("asymptotic",
                    core.analytic(scenario, selector, asymptotic=True))
            except Exception as exc:
                fail(exc, "asymptotic")
    if source in ("mc", "both"):
        try:
            estimate = core.simulated(scenario, selector)
        except Exception as exc:
            fail(exc, "mc")
            return
        row("mc", estimate.mean, estimate.half_width, estimate.trials)
        if analytic_value is not None and math.isfinite(analytic_value):
            try:
                margin = core.declared_margin(scenario, selector,
                                              analytic_value, estimate)
            except Exception as exc:
                # the margin of a qom device row reads its slot's fit
                fail(exc)
                return
            gap = abs(analytic_value - estimate.mean)
            if gap > margin:
                result.flagged.append(
                    (value, scheme, metric, analytic_value,
                     estimate.mean, gap, margin))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _row_cells(row: ResultRow):
    return (row.sweep_var, row.value, row.scheme, row.metric, row.source,
            repr(row.mean), repr(row.ci_half_width), str(row.trials),
            str(row.seed))


def render_results(rows, fmt: str) -> str:
    """Serialize rows as CSV or JSON lines; reruns are byte-identical."""
    if not rows:
        raise ValueError("result table is empty")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow(_row_cells(row))
        return buf.getvalue()
    if fmt == "json-lines":
        lines = []
        for row in rows:
            cells = _row_cells(row)
            record = dict(zip(RESULT_COLUMNS, cells[:5]))
            record["mean"] = row.mean
            record["ci_half_width"] = row.ci_half_width
            record["trials"] = row.trials
            record["seed"] = row.seed
            lines.append(json.dumps(record))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def emit_results(rows, fmt: str, path) -> None:
    payload = render_results(rows, fmt)
    path = Path(path)
    try:
        path.write_text(payload)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def read_results(path) -> list:
    """Parse an emitted CSV or JSON-lines table back into ResultRow objects.

    The format is told by the first character: JSON lines open with
    ``{``.  Both formats carry shortest-roundtrip floats, so the parse is
    lossless.
    """
    with open(path, newline="") as handle:
        text = handle.read()
    if text.startswith("{"):
        records = [json.loads(line) for line in text.splitlines() if line]
        for record in records:
            if tuple(record) != RESULT_COLUMNS:
                raise ValueError(f"unexpected record fields {tuple(record)!r}")
        table = [[record[c] for c in RESULT_COLUMNS] for record in records]
    else:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = tuple(next(reader, ()))
        if header != RESULT_COLUMNS:
            raise ValueError(f"unexpected header {header!r}")
        table = list(reader)
    return [ResultRow(sweep_var=cells[0], value=cells[1], scheme=cells[2],
                      metric=cells[3], source=cells[4], mean=float(cells[5]),
                      ci_half_width=float(cells[6]), trials=int(cells[7]),
                      seed=int(cells[8]))
            for cells in table]
