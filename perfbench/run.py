#!/usr/bin/env python3
"""Benchmark of the nomarelay sweep runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; every path is resolved from the repository root, which
is the parent of this directory.  One process, no workers, BLAS thread
pools pinned to one thread.

Workloads (each a closed loop with one caller: the next config starts
when the previous one has returned; every pass visits the configs in an
order drawn from ``--seed``, and every config runs at its shipped seed and
its own grid and trial counts):

* ``analytic-cached``: the ten shipped configs other than
  ``destination_op_p0`` under ``source="analytic"``.  The fit sidecar
  answers every qom fit, so the time goes to the ``specfun`` kernels and
  the ``analytics`` mixing.
* ``analytic-refit``: ``destination_op_p0`` under ``source="analytic"``
  with its asymptotic rows.  It names no ``fit_cache``, so nearly all of
  its time goes to Singh-Maddala fits that share one cache key.
* ``validate-both``: the three ``validate_*`` configs under
  ``source="both"`` (the ``nomarelay validate`` path).  Most of its time
  goes to the ``montecarlo`` simulator; it also carries the cross-check
  verdict.

The library is driven only through ``experiments.load_config``,
``experiments.run_sweep`` and ``experiments.render_results``.  Each
config's CSV is checked against the sha256 pinned in ``reference.json``
and against the earlier passes of the same run, and its flagged rows
against the pinned list.  Configs that name a ``fit_cache`` are pointed at
a private copy of the sidecar, staged afresh before every pass, and the
run fails if any file of the repository changed.

Each set-up and each config of each pass runs under
``speedclock.SpeedClock``, which interleaves a fixed reference kernel with
the library and rescales wall time to a fixed machine speed, so that the
drift of a shared host cancels.  ``sweep_s`` and ``setup_s`` are these
scaled seconds; the raw wall medians are printed beside them as
``sweep_wall_s`` and ``setup_wall_s``.  The clock also runs in traced
passes, so the tracer's span times include its kernel's interruptions.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced passes with passes in which
``tracer.Tracer`` times the library's public functions from outside, and
reports the per-layer metrics.  The last line of standard output is one
JSON object; the lines before it give every metric by name and unit, and
``perfbench/out/`` receives the full record of the run.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speedclock import SpeedClock  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SKIP_DIRS = {".git", "__pycache__", ".bench_build"}

WORKLOADS = {
    "analytic-cached": ("analytic", (
        "alpha_share", "density", "efficiency_rho", "rho_tradeoff",
        "scaling_com", "scaling_qom", "throughput_p0", "validate_chain",
        "validate_devices_com", "validate_devices_qom")),
    "analytic-refit": ("analytic", ("destination_op_p0",)),
    "validate-both": ("both", (
        "validate_chain", "validate_devices_com", "validate_devices_qom")),
}
SETUP_PROBES = 5
OUTAGE_METRICS = ("hop_op", "device_op", "e2e_op")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# set-up: imports, config loading and sidecar staging
# ---------------------------------------------------------------------------

def setup(workload, stage_dir):
    """Import the library, load the workload's configs, stage the sidecar."""
    if not (SRC / "nomarelay" / "__init__.py").is_file():
        raise BenchError(f"no nomarelay package under {SRC}")
    sys.path.insert(0, str(SRC))
    import nomarelay
    import nomarelay.experiments as experiments

    if Path(nomarelay.__file__).resolve().parent != SRC / "nomarelay":
        raise BenchError(f"imported nomarelay from {nomarelay.__file__}")
    configs = {}
    sidecars = {}
    for name in WORKLOADS[workload][1]:
        path = ROOT / "configs" / f"{name}.yaml"
        if not path.is_file():
            raise BenchError(f"missing config {path}")
        config = experiments.load_config(path)
        if config.fit_cache is not None:
            # the library resolves fit_cache against the working directory;
            # the staged copy is absolute and private to this run
            staged = stage_dir / config.fit_cache
            sidecars[staged] = ROOT / config.fit_cache
            config = dataclasses.replace(config, fit_cache=str(staged))
        configs[name] = config
    restage(sidecars)
    return nomarelay, configs, sidecars


def timed_setup(workload, stage_dir, clock):
    """``setup`` under ``clock``; returns its result and (raw, scaled) seconds.

    numpy and scipy are imported first, as the clock's kernel needs them,
    and their import is timed as part of the set-up.
    """
    t0 = perf_counter()
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    clock.start(carried=perf_counter() - t0)
    result = setup(workload, stage_dir)
    return result, clock.stop()


def restage(sidecars):
    """Copy each shipped sidecar over its staged copy."""
    for staged, original in sidecars.items():
        staged.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(original, staged)


def probe_setup(workload):
    """Time one set-up in this fresh interpreter; print raw and scaled seconds."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as stage:
        _, seconds = timed_setup(workload, Path(stage), SpeedClock())
        print(json.dumps(seconds))


def setup_samples(workload):
    """(raw, scaled) set-up seconds of ``SETUP_PROBES`` fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return samples


# ---------------------------------------------------------------------------
# the repository must come out of a run unchanged
# ---------------------------------------------------------------------------

def tree_digest():
    digests = {}
    for folder, dirs, files in os.walk(ROOT):
        here = Path(folder)
        dirs[:] = [d for d in dirs
                   if d not in SKIP_DIRS and here / d != OUT]
        for name in files:
            path = here / name
            digests[str(path.relative_to(ROOT))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


# ---------------------------------------------------------------------------
# passes and output checks
# ---------------------------------------------------------------------------

def requested_trials(config, rows):
    """Simulated trials the mc rows of one table asked for."""
    return sum(config.trials_outage if row.metric.startswith(OUTAGE_METRICS)
               else config.trials_throughput
               for row in rows if row.source == "mc")


class Checker:
    """Compares each emitted table with the pinned reference and earlier passes."""

    def __init__(self, reference, workload):
        self.tables = reference["tables"][workload]
        self.flags = {}
        for config, value, scheme, metric in reference["flagged"].get(
                workload, ()):
            self.flags.setdefault(config, []).append(
                [value, scheme, metric])
        self.first = {}
        self.changed = set()
        self.attempted = 0
        self.failed = 0
        self.failures = 0
        self.flagged = 0
        self.mismatched_passes = 0
        self.flag_mismatches = 0

    def check(self, name, result, text):
        pinned = self.tables.get(name)
        digest = hashlib.sha256(text.encode()).hexdigest()
        bad = False
        if pinned is None or digest != pinned["sha256"]:
            self.changed.add(name)
            bad = True
        if self.first.setdefault(name, digest) != digest:
            self.mismatched_passes += 1
            bad = True
        flags = sorted([repr(value), scheme, metric]
                       for value, scheme, metric, *_ in result.flagged)
        if flags != sorted(self.flags.get(name, [])):
            self.flag_mismatches += 1
            bad = True
        rows = pinned["rows"] if pinned is not None else len(result.rows)
        self.attempted += rows
        self.failures += len(result.failures)
        self.failed += rows if bad else len(result.failures)
        self.flagged += len(result.flagged)


def run_pass(experiments, configs, order, source, checker, clock):
    """One closed-loop pass.

    Returns (raw, scaled) seconds per config and the mc trials requested.
    """
    seconds = {}
    trials = 0
    for name in order:
        config = configs[name]
        clock.start()
        result = experiments.run_sweep(config, source=source,
                                       seed=config.seed)
        text = experiments.render_results(result.rows, "csv")
        seconds[name] = clock.stop()
        checker.check(name, result, text)
        trials += requested_trials(config, result.rows)
    return seconds, trials


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ[var] for var in
           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run(args):
    source, names = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())
    declared = declared_metrics(args.trace)
    before = tree_digest()
    setups = setup_samples(args.workload)

    OUT.mkdir(exist_ok=True)
    stage = Path(tempfile.mkdtemp(dir=OUT))
    try:
        clock = SpeedClock()
        (nomarelay, configs, sidecars), seconds = timed_setup(
            args.workload, stage, clock)
        setups.append(seconds)
        experiments = nomarelay.experiments
        env = environment()

        order = list(names)
        random.Random(args.seed).shuffle(order)
        checker = Checker(reference, args.workload)
        times = {False: [], True: []}
        walls = {False: [], True: []}
        config_s = {False: [], True: []}
        layers = []
        trials = 0
        absent = []
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(times[False]) > len(times[True])
            restage(sidecars)
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                seconds, trials = run_pass(experiments, configs, order,
                                           source, checker, clock)
            finally:
                if tracer is not None:
                    tracer.close()
            walls[traced].append(sum(raw for raw, _ in seconds.values()))
            times[traced].append(sum(s for _, s in seconds.values()))
            config_s[traced].append(seconds)
            if tracer is not None:
                layers.append(layer_metrics(tracer))
                absent = tracer.absent
            done = len(walls[False]) + len(walls[True])
            following = not traced and bool(args.trace)
            estimate = statistics.median(walls[following] or walls[traced])
            if (done >= 1 + args.trace
                    and perf_counter() - start + estimate > args.seconds):
                break
        sidecar_rewritten = sorted(
            str(original.relative_to(ROOT))
            for staged, original in sidecars.items()
            if staged.read_bytes() != original.read_bytes())
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    after = tree_digest()
    tree_changed = sorted(k for k in before.keys() | after.keys()
                          if before.get(k) != after.get(k))

    sweep_s = statistics.median(times[False])
    passes = len(walls[False]) + len(walls[True])
    extras = {
        "sweep_s_samples": (len(times[False]), "count"),
        "sweep_wall_s": (statistics.median(walls[False]), "s"),
        "setup_wall_s": (statistics.median(raw for raw, _ in setups), "s"),
        "speedclock_kernel_ms": (
            1e3 * statistics.median(clock.kernel_s), "ms"),
        "row_fail_ratio": (checker.failures / checker.attempted, "ratio"),
        "tables_changed": (len(checker.changed), "count"),
        "flagged_rows": (checker.flagged / passes, "count"),
    }
    if source == "both":
        extras["mc_trials_per_s"] = (trials / sweep_s, "1/s")
    tail = tail_percentile(times[False])
    if tail is not None:
        extras[f"sweep_s_p{tail[0]:g}"] = (tail[1], "s")
    if args.trace:
        metrics = {name: (statistics.median(pass_[name][0] for pass_ in layers),
                          unit)
                   for name, (_, unit) in layers[0].items()}
        metrics["trace.overhead_ratio"] = (
            statistics.median(times[True]) / sweep_s, "ratio")
    else:
        metrics = {
            "sweep_s": (sweep_s, "s"),
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        raise BenchError(f"metrics {sorted(got.items())} do not match "
                         f"BENCHMARK.json {sorted(declared.items())}")

    correct = checker.failed == 0 and not tree_changed
    summary = {
        "correct": correct, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "order": order,
        "environment": env, "setup_samples_s": setups,
        "untraced_pass_s": times[False],
        "untraced_pass_wall_s": walls[False], "traced_pass_wall_s": walls[True],
        "untraced_config_s": config_s[False],
        "traced_config_s": config_s[True],
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "tables_changed": sorted(checker.changed),
        "passes_differing_from_earlier": checker.mismatched_passes,
        "flag_mismatches": checker.flag_mismatches,
        "sidecar_rewritten": sidecar_rewritten,
        "repo_files_changed": tree_changed, "absent": absent,
        "result": summary,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name in absent:
        print(f"absent {name}")
    for name in tree_changed:
        print(f"changed {name}")
    for name in sidecar_rewritten:
        print(f"sidecar_rewritten {name}")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            probe_setup(args.workload)
        else:
            run(args)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
