"""The library holds only what a sweep, the CLI or a library user reads:
test-only oracles live in ``tests/oracles.py`` and unread options are gone."""

import dataclasses
import importlib
import inspect

import oracles
from nomarelay import channel, experiments, montecarlo
from nomarelay.channel import FitBook, LinkBudget
from nomarelay.geometry import CoverageDisk
from nomarelay.network import NetworkTopology, Scheme

MOVED = {
    "geometry": ("as_generator", "PointPattern", "sample_hppp_disk",
                 "null_probability", "annulus_distance_pdf",
                 "sample_annulus_distance", "sample_nearest_distance"),
    "power": ("EhRealization", "sample_eh_process", "transmit_power",
              "transmit_power_recursive"),
    "montecarlo": ("TrialOutcome", "_simulate_block", "run_block_trial",
                   "empirical_ccdf_oracle"),
    "channel": ("watts_to_dbm", "pathloss_db", "cdf_phi",
                "ccdf_varphi_annulus", "cdf_varphi_annulus",
                "singh_maddala_ccdf", "singh_maddala_ccdf_foxh",
                "fit_singh_maddala_cached"),
    "specfun": ("MeijerSpec", "FoxSpec", "_near", "_classify_meijer",
                "_classify_fox", "meijer_g", "fox_h", "_pdf_kernel",
                "residue_asymptote", "EULER_GAMMA"),
}
# value/deficit twins, now one crossover evaluation per family
MERGED = ("_ccdf_kernel", "_ccdf_kernel_deficit", "_annulus_value",
          "_annulus_deficit", "_z_kernel_value", "_z_kernel_deficit")
REMOVED_PARAMETERS = {
    "empty_annulus": (montecarlo.estimate_outage, montecarlo.estimate_throughput,
                      montecarlo.estimate_supply_power, montecarlo.simulate_plan,
                      montecarlo._accumulate, montecarlo._draw),
    "grid_spec": (FitBook.fit,),
    "max_error": (FitBook.fit,),
    "tol": (channel.ccdf_varphi_nearest_numeric,
            channel.cdf_varphi_nearest_numeric),
    "out_path": (experiments.run_sweep,),
    "fmt": (experiments.run_sweep,),
}


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_library_holds_only_the_model():
    for module, names in MOVED.items():
        library = importlib.import_module(f"nomarelay.{module}")
        for name in names:
            assert not hasattr(library, name), f"{module}.{name}"
            assert hasattr(oracles, name), name
    specfun = importlib.import_module("nomarelay.specfun")
    assert not [name for name in MERGED if hasattr(specfun, name)]
    for parameter, functions in REMOVED_PARAMETERS.items():
        for function in functions:
            assert parameter not in inspect.signature(function).parameters, \
                (function.__qualname__, parameter)
    assert "density_inactive" not in _fields(NetworkTopology)
    assert not {"density_inactive", "center"} & _fields(CoverageDisk)
    assert "d0" not in _fields(LinkBudget)
    assert not hasattr(LinkBudget, "with_p0")
    assert not hasattr(Scheme, "serves_devices")
    assert "com_present" not in montecarlo._Block.__slots__
    assert "com_present" not in _fields(montecarlo._Draws)
