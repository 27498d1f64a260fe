"""The library holds only what a sweep, the CLI or a library user reads:
test-only oracles live in ``tests/oracles.py`` and unread options are gone.
The README's library example runs as documented."""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
import textwrap
from collections.abc import MutableMapping, MutableSequence, MutableSet
from pathlib import Path

import numpy as np

import oracles
from nomarelay import (analytics, channel, cli, experiments, montecarlo,
                       power, specfun)
from nomarelay.channel import FitBook, LinkBudget
from nomarelay.geometry import CoverageDisk
from nomarelay.network import NetworkTopology, Scenario, Scheme, build_policy

MOVED = {
    "geometry": ("as_generator", "PointPattern", "sample_hppp_disk",
                 "null_probability", "annulus_distance_pdf",
                 "sample_annulus_distance", "sample_nearest_distance"),
    "analytics": ("diversity_order_estimate", "ccdf_X", "ccdf_Y", "ccdf_Z",
                  "cdf_X", "cdf_Y", "cdf_Z", "asymptotic_cdf_X",
                  "asymptotic_cdf_Y", "asymptotic_cdf_Z"),
    "power": ("EhRealization", "sample_eh_process", "transmit_power",
              "transmit_power_recursive"),
    # the masked gate of the per-scenario power chain, which the family
    # resolve replaced by one power row per harvest run
    "montecarlo": ("TrialOutcome", "_simulate_block", "run_block_trial",
                   "empirical_ccdf_oracle", "_gate"),
    "channel": ("watts_to_dbm", "pathloss_db", "cdf_phi",
                "ccdf_varphi_annulus", "cdf_varphi_annulus",
                "singh_maddala_ccdf", "singh_maddala_ccdf_foxh",
                "fit_singh_maddala_cached"),
    "specfun": ("MeijerSpec", "FoxSpec", "_near", "_classify_meijer",
                "_classify_fox", "meijer_g", "fox_h", "_pdf_kernel",
                "residue_asymptote", "EULER_GAMMA",
                # the value side of each family; the model reads the CDF side
                "prod_exp_ccdf", "annulus_kernel", "nearest_kernel",
                "lower_incomplete_gamma"),
}
# value/deficit twins, now one CDF-side path per family read from one
# family table
MERGED = ("_ccdf_kernel", "_ccdf_kernel_deficit", "_annulus_value",
          "_annulus_deficit", "_z_kernel_value", "_z_kernel_deficit",
          "_sides", "_ccdf_sides", "_family_factors", "_left_poles",
          "_leading_residue")
# second ways into one route: per-call wrappers around SlotMarginals and
# around a process-global cache of simulated runs; per-threshold harvest-run
# enumeration and argument checks, now one run table per slot; the
# simulator's own harvest-run and receiver-state walks, now the policy's
# harvest-state table (``EhPolicy.runs`` and ``states``); a second
# selector grammar, now read from the scenario by both routes; a draw set
# and a resolve workspace, now one buffer set per stream group; a failure
# table per event kind, now one success count per selector; counters
# formatted into log strings, now one statistics record per sweep; a
# per-point wrapper around the sweep core, which takes the scenario; a
# per-law cache of device path gains, now held by the device rows
DELETED = {
    "analytics": ("op_typeI", "op_typeII_com", "op_typeII_qom", "e2e_op",
                  "energy_efficiency", "_chain_gains", "_check_argument",
                  "_SELECTOR_ARITY", "KernelMemo.log_summary"),
    "montecarlo": ("estimate_outage", "estimate_throughput",
                   "estimate_supply_power", "_accumulate", "_Tallies",
                   "lru_cache", "_Draws", "_Workspace", "Tallies.hop_fail",
                   "Tallies.device_fail", "Tallies.e2e_destination_fail",
                   "Tallies.e2e_device_fail", "_runs", "_states",
                   "_GroupStats", "_Buffers.device_gain"),
    "experiments": ("_PointContext",),
}
REMOVED_PARAMETERS = {
    "empty_annulus": (montecarlo.simulate, montecarlo.simulate_plan,
                      montecarlo._draw),
    "grid_spec": (FitBook.fit, channel.fit_singh_maddala),
    "max_error": (FitBook.fit, channel.fit_singh_maddala),
    # one value each in use, now module constants
    "rel_tol": (specfun._residue_sum,),
    "max_poles": (specfun._residue_sum,),
    "gap": (specfun._cluster,),
    "tol": (channel.ccdf_varphi_nearest_numeric,
            channel.cdf_varphi_nearest_numeric),
    "out_path": (experiments.run_sweep,),
    "fmt": (experiments.run_sweep,),
    # a qom slot is a one-device superposition: the plan carries the
    # device count, the policy the node count
    "pairing": (analytics.sum_throughput,),
    "node_count": (analytics.sum_throughput, analytics.decoding_thresholds,
                   analytics.mrtr),
    "scheme": (analytics.decoding_thresholds,),
    "t": (power.omega_factor,),
    # a stream group fills and resolves into its one buffer set
    "n": (montecarlo._draw,),
    "draws": (montecarlo._draw,),
    "work": (montecarlo._resolve,),
    # a resolve builds what the runs reading its block read, and a draw
    # draws its fades in full whether or not device draws follow
    "devices": (montecarlo._resolve, montecarlo._draw),
    # a resolve takes a family; a scenario alone is a family of one
    "scenario": (montecarlo._resolve,),
    # counters go to named fields of a statistics record, not a list
    "counts": (montecarlo._chain, montecarlo._resolve),
}


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def _defines(library, name) -> bool:
    """Whether ``library`` holds ``name``, or, for ``Class.field``, whether
    ``Class`` has that field if it is a dataclass, else that attribute."""
    owner, _, field = name.rpartition(".")
    if owner:
        cls = getattr(library, owner)
        if dataclasses.is_dataclass(cls):
            return field in _fields(cls)
        return hasattr(cls, field)
    return hasattr(library, name)


def test_library_holds_only_the_model():
    for module, names in DELETED.items():
        library = importlib.import_module(f"nomarelay.{module}")
        for name in names:
            assert not _defines(library, name), f"{module}.{name}"
    # no process-global memo keeps simulated runs between calls
    assert not [name for name, value in vars(montecarlo).items()
                if hasattr(value, "cache_info")]
    # one way into each route: a scenario in, fits through one callable,
    # and the sweep's kernel memo, which carries its P0-free tables
    assert list(inspect.signature(analytics.SlotMarginals).parameters) \
        == ["scenario", "nearest_fit", "kernels"]
    assert not {"hop", "device", "e2e"} & set(vars(analytics.SlotMarginals))
    assert not hasattr(analytics.AllocationPlan, "subarea_count")
    # no qom copy of the device fields: a qom plan lists its one device
    assert "nearest_rates" not in _fields(analytics.AllocationPlan)
    assert _fields(analytics.ThresholdSet) == {"relay", "device"}
    assert "_served" not in vars(analytics.SlotMarginals)
    assert "stream" not in inspect.signature(cli._report).parameters
    assert not {"annulus_bounds", "_check_annulus"} & set(vars(CoverageDisk))
    assert hasattr(oracles, "annulus_bounds")
    for module, names in MOVED.items():
        library = importlib.import_module(f"nomarelay.{module}")
        for name in names:
            assert not hasattr(library, name), f"{module}.{name}"
            assert hasattr(oracles, name), name
    assert not [name for name in MERGED if hasattr(specfun, name)]
    # the product PDF and Singh-Maddala CDF layouts are test-only
    assert not re.search(r"\b(pdf|sm_cdf)\b", inspect.getsource(specfun))
    for parameter, functions in REMOVED_PARAMETERS.items():
        for function in functions:
            assert parameter not in inspect.signature(function).parameters, \
                (function.__qualname__, parameter)
    # the laws take ``asymptotic``; no value/deficit ``form`` switch is left
    functions = [value for value in vars(analytics).values()
                 if inspect.isfunction(value)
                 and value.__module__ == analytics.__name__]
    for cls in (value for value in vars(analytics).values()
                if inspect.isclass(value)
                and value.__module__ == analytics.__name__):
        functions += [value for value in vars(cls).values()
                      if inspect.isfunction(value)]
    assert analytics.harvest_runs in functions
    assert not [function.__qualname__ for function in functions
                if "form" in inspect.signature(function).parameters]
    assert "density_inactive" not in _fields(NetworkTopology)
    assert not {"density_inactive", "center"} & _fields(CoverageDisk)
    assert "d0" not in _fields(LinkBudget)
    assert not hasattr(LinkBudget, "with_p0")
    assert not hasattr(Scheme, "serves_devices")
    assert "com_present" not in montecarlo._Block.__slots__
    assert "com_present" not in inspect.getsource(montecarlo._Buffers)
    # device rows hold path gains: no gain cache, second row set or
    # distance views beside them, and no method computes the gains
    topology = NetworkTopology(hop_distances=(50.0, 50.0),
                               disk_radii=(25.0, 25.0),
                               subarea_counts=(2, 2), density_active=1e-2)
    policy = build_policy(Scheme.TCOM, 3, 0.1)
    buffers = montecarlo._Buffers([Scenario(
        scheme=Scheme.TCOM, topology=topology, policy=policy,
        budget=LinkBudget(P0=1e-3, sigma2=1e-13),
        plan=analytics.default_allocation(topology, policy))], 1)
    assert not {"gains", "gain_rows", "dist"} & set(vars(buffers))
    assert not inspect.isfunction(
        inspect.getattr_static(montecarlo._Buffers, "device_gain", None))
    assert [len(rows) for rows in buffers.device_gain] == [2, 2]
    # a device group's trials are the sum over its families
    assert "trials" not in _fields(montecarlo.DeviceGroupStats)
    # decode events are threshold comparisons; no tally reads a rate
    assert not {"hop_rates", "device_rates"} & set(montecarlo._Block.__slots__)
    assert hasattr(oracles, "reference_decode")
    # one SIC chain decodes every slot; the pairing shapes only the draws
    resolve = ast.parse(textwrap.dedent(inspect.getsource(montecarlo._resolve)))
    assert not [node for node in ast.walk(resolve)
                if isinstance(node, ast.Attribute) and node.attr == "pairing"]
    # the masked route walks the harvest indicators node by node, so it
    # stays a reference for the policy's harvest-state table
    masked = ast.parse(inspect.getsource(oracles.masked_resolve))
    assert not [node for node in ast.walk(masked)
                if isinstance(node, ast.Attribute)
                and node.attr in ("runs", "states")]


def test_specfun_keeps_no_module_level_cache():
    # kernels read and fill only a table their caller owns and passes in
    module_level = {name: value for name, value in vars(specfun).items()
                    if not name.startswith("__")}
    assert [name for name, value in module_level.items()
            if hasattr(value, "cache_info")] == ["_depoled_taylor"]
    assert not [name for name, value in module_level.items()
                if isinstance(value, (MutableMapping, MutableSequence,
                                      MutableSet))
                or (isinstance(value, np.ndarray) and value.flags.writeable)]


def test_montecarlo_keeps_no_module_level_buffer():
    # a buffer set lives only as long as its stream group, and no allocator
    # setting is made
    module_level = {name: value for name, value in vars(montecarlo).items()
                    if not name.startswith("__")}
    assert not [name for name, value in module_level.items()
                if isinstance(value, (MutableMapping, MutableSequence,
                                      MutableSet, montecarlo._Buffers))
                or (isinstance(value, np.ndarray) and value.flags.writeable)]
    assert not re.search(r"\b(ctypes|mallopt)\b",
                         Path(montecarlo.__file__).read_text())


def test_simulator_derives_its_own_thresholds():
    # the simulator stays a route independent of the closed-form layer
    tree = ast.parse(Path(montecarlo.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert imported and not [name for name in imported
                             if "analytics" in name]


def test_cli_import_leaves_the_fitting_modules_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; import nomarelay.cli; "
             "print(sorted({'scipy.optimize', 'scipy.integrate'} "
             "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.split() == ["[]"]


def test_mc_path_leaves_scipy_unloaded():
    # scipy.special loads on first use by the analytic layer; importing the
    # CLI or simulating a sweep reads no special function
    root = Path(__file__).resolve().parent.parent
    probe = ("import sys\n"
             "def scipy(): return sorted(m for m in sys.modules\n"
             "                           if m.split('.')[0] == 'scipy')\n"
             "import nomarelay.cli\n"
             "print(scipy())\n"
             "from nomarelay import experiments\n"
             "config = experiments.load_config(sys.argv[1])\n"
             "result = experiments.run_sweep(config, source='mc', "
             "trials=2000)\n"
             "assert result.rows and not result.failures\n"
             "print(scipy())\n")
    out = subprocess.run(
        [sys.executable, "-c", probe,
         str(root / "configs" / "validate_chain.yaml")],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src"))).stdout
    assert out.split() == ["[]", "[]"]


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library use", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    expected = block.rsplit("# prints:", 1)[1].split()
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == expected
