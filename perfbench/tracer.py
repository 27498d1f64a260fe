"""Tracing from outside the library, for the benchmark's traced run.

Every span is recorded from outside the library: the tracer replaces a
public function, by name, at every module attribute a caller can resolve
(for example ``analytics.prod_exp_cdf``, the name ``analytics`` imported
from ``specfun``, as well as ``specfun.prod_exp_cdf`` itself) with a
timing wrapper, and puts the originals back on ``close``.  A name that a
refactor removed is reported as absent and the run keeps going, so the
same benchmark still runs after functions are merged or renamed.

Self time of a span is its duration minus the time covered by wrapped
calls made inside it.
"""

from __future__ import annotations

import functools
import math
import sys
from time import perf_counter

SCHEMES = ("tcom", "tqom", "pcom", "pqom", "com-noeh", "qom-noeh", "cnrr")
KERNEL_FAMILIES = {
    "prod_exp": ("prod_exp_ccdf", "prod_exp_cdf"),
    "annulus": ("annulus_kernel", "annulus_kernel_deficit"),
    "nearest": ("nearest_kernel", "nearest_kernel_deficit"),
}
BRANCHES = ("closed", "residue", "contour")
# branches that no workload reaches report their call count only, so that
# no per-call time reads zero on every run
UNTIMED_BRANCHES = {("prod_exp", "residue"), ("annulus", "closed"),
                    ("nearest", "closed")}
ANALYTICS_FUNCTIONS = ("op_typeI", "op_typeII_com", "op_typeII_qom",
                       "e2e_op", "decoding_thresholds")


class Bucket:
    """Calls, inclusive and self seconds, distinct keys and work units."""

    __slots__ = ("calls", "total_s", "self_s", "keys", "units")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.keys = set()
        self.units = 0

    def add(self, dt, self_dt, key=None, units=0):
        self.calls += 1
        self.total_s += dt
        self.self_s += self_dt
        self.units += units
        if key is not None:
            self.keys.add(key)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _call_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    """Wraps the library's public functions for one traced pass."""

    def __init__(self):
        self.buckets = {}
        self.absent = []
        self.rows_rendered = 0
        self._stack = []
        self._undo = []

    def bucket(self, name):
        if name not in self.buckets:
            self.buckets[name] = Bucket()
        return self.buckets[name]

    def wrap(self, name, on_call, before=None):
        """Wrap ``name`` in every loaded nomarelay module that binds it.

        ``on_call(args, kwargs, dt, self_dt, token)`` runs after each call,
        with ``token`` the value ``before()`` returned ahead of it.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "nomarelay" or n.startswith("nomarelay."))
                   and callable(getattr(m, name, None))]
        if not modules:
            self.absent.append(name)
        for module in modules:
            fn = getattr(module, name)
            setattr(module, name, self._traced(fn, on_call, before))
            self._undo.append((module, name, fn))

    def _traced(self, fn, on_call, before):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before() if before is not None else None
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                on_call(args, kwargs, dt, dt - frame[0], token)
        return traced

    def constant(self, module, name):
        """``nomarelay.<module>.<name>``, or None reported as absent."""
        value = getattr(sys.modules.get(f"nomarelay.{module}"), name, None)
        if value is None:
            self.absent.append(f"nomarelay.{module}.{name}")
        return value

    def close(self):
        while self._undo:
            module, name, fn = self._undo.pop()
            setattr(module, name, fn)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced layer of the already imported nomarelay."""
        try:
            self._install_specfun()
            self._install_analytics()
            self._install_channel()
            self._install_montecarlo()
            self._install_experiments()
        except BaseException:
            self.close()
            raise

    def _install_specfun(self):
        crossover = self.constant("specfun", "RESIDUE_CROSSOVER")
        if crossover is None:
            crossover = -math.inf

        def prod_exp_branch(args, kwargs):
            z, n = _arg(args, kwargs, 0, "z"), _arg(args, kwargs, 1, "n")
            means = _arg(args, kwargs, 2, "means")
            if n == 1 or z <= 0:
                return "closed"
            return "residue" if z / math.prod(means) < crossover else "contour"

        def kernel_branch(args, kwargs):
            x = _arg(args, kwargs, 0, "x")
            if x <= 0:
                return "closed"
            return "residue" if x < crossover else "contour"

        for family, names in KERNEL_FAMILIES.items():
            branch_of = prod_exp_branch if family == "prod_exp" else kernel_branch
            for name in names:
                def on_call(args, kwargs, dt, self_dt, token,
                            family=family, branch_of=branch_of):
                    branch = branch_of(args, kwargs)
                    self.bucket(f"specfun.{family}.{branch}").add(dt, self_dt)
                self.wrap(name, on_call)
        for name in ("residue_asymptote", "residue_asymptote_cdf"):
            self.wrap(name, lambda a, k, dt, sdt, tok:
                      self.bucket("specfun.residue_asymptote").add(dt, sdt))

    def _install_analytics(self):
        for name in ANALYTICS_FUNCTIONS:
            def on_call(args, kwargs, dt, self_dt, token, name=name):
                self.bucket(f"analytics.{name}").add(
                    dt, self_dt, _call_key(args, kwargs))
            self.wrap(name, on_call)

    def _install_channel(self):
        cache_key = self.constant("channel", "fit_cache_key")
        fits = self.bucket("channel.fit")

        def on_fit(args, kwargs, dt, self_dt, token):
            key = None
            if cache_key is not None:
                key = cache_key(_arg(args, kwargs, 0, "disk"),
                                _arg(args, kwargs, 1, "budget"))
            fits.add(dt, self_dt, key)

        def on_cached(args, kwargs, dt, self_dt, fits_before):
            if fits.calls > fits_before:
                self.bucket("channel.fit_cache.miss").add(dt, self_dt)
            else:
                self.bucket("channel.fit_cache.hit").add(dt, self_dt)

        self.wrap("fit_singh_maddala", on_fit)
        self.wrap("fit_singh_maddala_cached", on_cached,
                  before=lambda: fits.calls)

    def _install_montecarlo(self):
        block = self.constant("montecarlo", "BLOCK_SIZE")
        accumulate = self.constant("montecarlo", "_accumulate")
        cache_info = getattr(accumulate, "cache_info", None)
        if accumulate is not None and cache_info is None:
            self.absent.append("nomarelay.montecarlo._accumulate.cache_info")

        def hits():
            return cache_info().hits if cache_info is not None else 0

        def make(n_index):
            def on_call(args, kwargs, dt, self_dt, hits_before):
                if hits() > hits_before:
                    self.bucket("montecarlo.cached").add(dt, self_dt)
                    return
                scheme = _arg(args, kwargs, 0, "config").scheme.value
                n = _arg(args, kwargs, n_index, "n_trials")
                blocks = -(-n // block) if block else 0
                self.bucket(f"montecarlo.{scheme}").add(dt, self_dt,
                                                        units=blocks)
                self.bucket("montecarlo.simulated").add(dt, self_dt, units=n)
            return on_call

        for name, n_index in (("estimate_outage", 2),
                              ("estimate_throughput", 1),
                              ("estimate_supply_power", 1)):
            self.wrap(name, make(n_index), before=hits)

    def _install_experiments(self):
        self.wrap("run_sweep", lambda a, k, dt, sdt, tok:
                  self.bucket("experiments.run_sweep").add(dt, sdt))

        def on_render(args, kwargs, dt, self_dt, token):
            self.rows_rendered += len(_arg(args, kwargs, 0, "rows"))
            self.bucket("experiments.render_results").add(dt, self_dt)
        self.wrap("render_results", on_render)

def _per_call(bucket, scale):
    return scale * bucket.total_s / bucket.calls if bucket.calls else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass: ``{name: (value, unit)}``."""
    b = tracer.buckets.get
    empty = Bucket()
    out = {}
    for family in KERNEL_FAMILIES:
        for branch in BRANCHES:
            k = b(f"specfun.{family}.{branch}", empty)
            out[f"specfun.{family}.{branch}.calls"] = (k.calls, "count")
            if (family, branch) not in UNTIMED_BRANCHES:
                out[f"specfun.{family}.{branch}.us_per_call"] = (
                    _per_call(k, 1e6), "us")
    out["specfun.residue_asymptote.calls"] = (
        b("specfun.residue_asymptote", empty).calls, "count")
    for name in ANALYTICS_FUNCTIONS:
        k = b(f"analytics.{name}", empty)
        out[f"analytics.{name}.calls"] = (k.calls, "count")
        out[f"analytics.{name}.distinct"] = (len(k.keys), "count")
        out[f"analytics.{name}.ms_per_call"] = (_per_call(k, 1e3), "ms")
        out[f"analytics.{name}.useful_ratio"] = (
            len(k.keys) / k.calls if k.calls else 0.0, "ratio")
    fit = b("channel.fit", empty)
    out["channel.fit.calls"] = (fit.calls, "count")
    out["channel.fit.distinct_keys"] = (len(fit.keys), "count")
    out["channel.fit.s_per_call"] = (_per_call(fit, 1.0), "s")
    out["channel.fit.total_s"] = (fit.total_s, "s")
    hit = b("channel.fit_cache.hit", empty)
    miss = b("channel.fit_cache.miss", empty)
    out["channel.fit_cache.calls"] = (hit.calls + miss.calls, "count")
    out["channel.fit_cache.misses"] = (miss.calls, "count")
    out["channel.fit_cache.ms_per_hit"] = (_per_call(hit, 1e3), "ms")
    blocks = 0
    for scheme in SCHEMES:
        k = b(f"montecarlo.{scheme}", empty)
        blocks += k.units
        out[f"montecarlo.{scheme}.ms_per_block"] = (
            1e3 * k.total_s / k.units if k.units else 0.0, "ms")
    simulated = b("montecarlo.simulated", empty)
    cached = b("montecarlo.cached", empty)
    calls = simulated.calls + cached.calls
    out["montecarlo.blocks"] = (blocks, "count")
    out["montecarlo.cache_hit_ratio"] = (
        cached.calls / calls if calls else 0.0, "ratio")
    out["montecarlo.trials_per_s"] = (
        simulated.units / simulated.total_s if simulated.total_s else 0.0,
        "1/s")
    out["experiments.run_sweep.self_s"] = (
        b("experiments.run_sweep", empty).self_s, "s")
    render = b("experiments.render_results", empty)
    out["experiments.render_results.ms_per_row"] = (
        1e3 * render.total_s / tracer.rows_rendered
        if tracer.rows_rendered else 0.0, "ms")
    return out
