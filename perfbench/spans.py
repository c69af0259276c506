"""Per-layer tracing of one ``localradon`` run, installed from outside the
package.

Each layer is a module of ``src/localradon``.  Its public entry points are
replaced by wrappers in every namespace that binds them: ``cli`` and
``stability`` import ``synthesize_sinogram`` by name, ``cli.COMMANDS``
holds the subcommand functions, and ``KernelFamily._extend_to`` looks up
the module-global ``compose``.  Calls per line or per family open a span;
the hot per-point entry points (``PhantomSpec.__call__``,
``Weight.__call__``, ``TestFunction.derivative_values``) only add to
counters and to an accumulated time.  A span's self time is its duration
minus the time of the spans and hot calls inside it, so the layer self
times plus the unattributed time add up to the traced run time.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "transform", "phantoms", "weights", "kernels", "stability",
          "means", "legendre", "bumps")

# the layer self times; with trace.unattributed_s they sum to trace.run_s
SELF_TIMES = ["cli.self_s", "transform.synth_s", "phantoms.busy_s",
              "weights.busy_s", "kernels.self_s", "stability.self_s",
              "means.self_s", "legendre.self_s", "bumps.self_s"]

clock = time.perf_counter


class Tracer:
    """Span stack plus counters for one traced run."""

    def __init__(self):
        self.stack = []                      # child seconds of each open span
        self.self_s = defaultdict(float)     # layer -> self seconds
        self.key_self = defaultdict(float)   # span key -> self seconds
        self.key_total = defaultdict(float)  # span key -> outermost seconds
        self.counts = defaultdict(float)
        self.line_ms = []                    # duration of each integrated line
        self.hot_totals = {}                 # layer -> [calls, points, s]
        self._open = defaultdict(int)

    def _timed(self, layer, key, fn, args, kwargs):
        """Call ``fn`` as a span; return (result, seconds)."""
        frame = [0.0]
        self.stack.append(frame)
        self._open[key] += 1
        t0 = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            self.stack.pop()
            self._open[key] -= 1
            own = dt - frame[0]
            self.self_s[layer] += own
            self.key_self[key] += own
            if self._open[key] == 0:
                self.key_total[key] += dt
            if self.stack:
                self.stack[-1][0] += dt
        return out, dt

    def span(self, layer, key, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` may add counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out, _ = self._timed(layer, key, fn, args, kwargs)
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def hot(self, layer, fn):
        """Wrap a per-point method: calls, points and busy time only.

        A nested call of the same layer (the oscillatory phantom evaluates
        its base bump) is part of the outer call and is not counted again.
        """
        totals = self.hot_totals[layer] = [0, 0, 0.0]  # calls, points, s
        stack = self.stack
        active = [False]

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            if active[0]:
                return fn(obj, *args, **kwargs)
            active[0] = True
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(obj, *args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[0] = False
                if stack:
                    stack[-1][0] += dt
                totals[2] += dt - frame[0]
            totals[0] += 1
            totals[1] += getattr(out, "size", 1)
            return out

        return wrapper

    # -- transform: per-line statistics --------------------------------

    def radon(self, fn):
        def wrapper(*args, **kwargs):
            quads = self.counts["transform.quad_calls"]
            out, dt = self._timed("transform", "transform.radon", fn, args,
                                  kwargs)
            self.counts["transform.lines"] += 1
            if self.counts["transform.quad_calls"] > quads:
                self.counts["transform.integrated_lines"] += 1
                self.counts["transform.nonzero_lines"] += out != 0.0
                self.line_ms.append(1e3 * dt)
            return out

        return functools.wraps(fn)(wrapper)

    def counting_integrate(self, module):
        """A stand-in for ``scipy.integrate`` that counts ``quad`` calls and
        integrand evaluations."""
        tracer = self

        class CountingIntegrate:
            def __getattr__(self, name):
                return getattr(module, name)

            def quad(self, func, *args, **kwargs):
                tracer.counts["transform.quad_calls"] += 1
                evals = [0]

                def counted(x):
                    evals[0] += 1
                    return func(x)

                try:
                    return module.quad(counted, *args, **kwargs)
                finally:
                    tracer.counts["transform.nodes"] += evals[0]

        return CountingIntegrate()

    # -- kernels ---------------------------------------------------------

    def compose(self, fn):
        def wrapper(S, T, *args, **kwargs):
            self.counts["kernels.compose_calls"] += 1
            if S.is_zero() or T.is_zero():
                self.counts["kernels.zero_composes"] += 1
            else:
                n = S.eta.size
                n_nodes = kwargs.get("n_nodes", args[0] if args else 16)
                slices = sum(bool(np.any(c != 0)) for c in S.coeffs) \
                    + sum(bool(np.any(c != 0)) for c in T.coeffs)
                self.counts["kernels.lattice_points"] += n * n * n_nodes \
                    * slices
            out, _ = self._timed("kernels", "kernels.compose", fn,
                                 (S, T) + args, kwargs)
            return out

        return functools.wraps(fn)(wrapper)

    def note_family(self, fam):
        k = max(k for _, k in fam.kernels)
        self.counts["kernels.max_k"] = max(self.counts["kernels.max_k"], k)


def modules():
    """Every module of the ``localradon`` package, by short name."""
    import localradon

    return {info.name: importlib.import_module(f"localradon.{info.name}")
            for info in pkgutil.iter_modules(localradon.__path__)}


def rebind(mods, module, name, make_wrapper):
    """Wrap ``module.name`` in every namespace of the package that binds
    it, ``cli.COMMANDS`` included."""
    original = getattr(mods[module], name)
    wrapper = make_wrapper(original)
    namespaces = [vars(m) for m in mods.values()] + [mods["cli"].COMMANDS]
    for ns in namespaces:
        for key, value in list(ns.items()):
            if value is original:
                ns[key] = wrapper


def install(tracer: Tracer):
    """Install every wrapper; the process is meant to exit afterwards."""
    mods = modules()
    t = tracer

    def spans(layer, key, names, after=None):
        """Spans around functions of the module named ``layer``."""
        for name in names:
            rebind(mods, layer, name,
                   lambda fn: t.span(layer, key, fn, after))

    # cli: subcommands, builders and artifact I/O
    for fn in list(mods["cli"].COMMANDS.values()):
        rebind(mods, "cli", fn.__name__,
               lambda fn: t.span("cli", "cli.command", fn))
    spans("cli", "cli.build",
          ["build_phantom", "build_weight", "build_test_function",
           "build_grids", "build_constants"])
    spans("cli", "cli.io",
          ["load_config", "write_sinogram_csv", "_write_rows_csv",
           "write_manifest"])

    # transform
    spans("transform", "transform.synth",
          ["synthesize_sinogram"])
    rebind(mods, "transform", "radon", t.radon)
    mods["transform"].integrate = t.counting_integrate(
        mods["transform"].integrate)

    # hot per-point entry points
    phantom_cls = mods["phantoms"].PhantomSpec
    phantom_cls.__call__ = t.hot("phantoms", phantom_cls.__call__)
    weight_cls = mods["weights"].Weight
    weight_cls.__call__ = t.hot("weights", weight_cls.__call__)
    tf_cls = mods["bumps"].TestFunction
    tf_cls.derivative_values = t.hot("bumps", tf_cls.derivative_values)

    # kernels
    fam_cls = mods["kernels"].KernelFamily
    fam_cls._extend_to = t.span("kernels", "kernels.family",
                                fam_cls._extend_to,
                                after=lambda out, args: t.note_family(args[0]))
    spans("kernels", "kernels.family", ["sjk_family"],
          after=lambda fam, args: t.note_family(fam))
    spans("kernels", "kernels.base", ["base_kernels"])
    rebind(mods, "kernels", "compose", t.compose)
    spans("kernels", "kernels.verify", ["verify_kernel_bounds"])
    spans("kernels", "kernels.apply", ["apply_kernel"])

    # stability
    spans("stability", "stability.calibrate",
          ["calibrate_constants"])
    spans("stability", "stability.moments",
          ["moments_from_sinogram_unweighted",
           "moments_from_sinogram_weighted"])
    spans("stability", "stability.reconstruct",
          ["reconstruct_mean"])
    spans("stability", "stability.data_norm", ["data_norm"])
    spans("stability", "stability.other",
          ["stability_curve", "counterexample_experiment",
           "moment_bound_audit", "with_noise", "profile_errors",
           "reconstruct_slice"])

    # means, legendre, bumps
    def count_profile(prof, args):
        t.counts["means.points"] += prof.x.size

    spans("means", "means.mean_profile", ["mean_profile"],
          after=count_profile)
    spans("legendre", "legendre.map",
          ["moments_to_coefficients"])
    series_cls = mods["legendre"].LegendreSeries
    series_cls.__call__ = t.span("legendre", "legendre.eval",
                                 series_cls.__call__)
    spans("bumps", "bumps.certify", ["verify_derivative_bounds"])
    spans("bumps", "bumps.build",
          ["hormander_sequence", "gevrey_bump"])


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(t: Tracer, run_s: float) -> dict:
    """The per-layer metrics of one traced run, by name."""
    self_s = defaultdict(float, t.self_s)
    c = defaultdict(float, t.counts)
    busy = defaultdict(float)
    for layer, (calls, points, seconds) in t.hot_totals.items():
        self_s[layer] += seconds
        busy[layer] = seconds
        c[layer + ".calls"] = calls
        c[layer + ".points"] = points
    lines = c["transform.lines"]
    integrated = max(c["transform.integrated_lines"], 1.0)
    synth_total = t.key_total["transform.synth"]
    attributed = sum(self_s[layer] for layer in LAYERS)
    m = {
        "cli.self_s": self_s["cli"],
        "cli.io_s": t.key_total["cli.io"],
        "transform.synth_s": self_s["transform"],
        "transform.lines": lines,
        "transform.lines_per_s": lines / synth_total if synth_total else 0.0,
        "transform.line_ms_p50": _percentile(t.line_ms, 50),
        "transform.line_ms_p98": _percentile(t.line_ms, 98),
        "transform.quad_calls_per_line": c["transform.quad_calls"]
        / integrated,
        "transform.nodes_per_line": c["transform.nodes"] / integrated,
        "transform.nonzero_line_ratio": c["transform.nonzero_lines"]
        / integrated,
        "phantoms.calls": c["phantoms.calls"],
        "phantoms.points": c["phantoms.points"],
        "phantoms.busy_s": self_s["phantoms"],
        "weights.calls": c["weights.calls"],
        "weights.points": c["weights.points"],
        "weights.busy_s": self_s["weights"],
        "kernels.self_s": self_s["kernels"],
        "kernels.family_s": t.key_total["kernels.family"],
        "kernels.base_s": t.key_total["kernels.base"],
        "kernels.compose_calls": c["kernels.compose_calls"],
        "kernels.compose_s": t.key_total["kernels.compose"],
        "kernels.zero_compose_ratio": c["kernels.zero_composes"]
        / max(c["kernels.compose_calls"], 1.0),
        "kernels.lattice_points": c["kernels.lattice_points"],
        "kernels.max_k": c["kernels.max_k"],
        "kernels.verify_s": t.key_total["kernels.verify"],
        "stability.self_s": self_s["stability"],
        "stability.calibrate_s": t.key_self["stability.calibrate"],
        "stability.moments_s": t.key_total["stability.moments"],
        "stability.reconstruct_s": t.key_self["stability.reconstruct"],
        "stability.data_norm_s": t.key_total["stability.data_norm"],
        "means.self_s": self_s["means"],
        "means.mean_profile_s": t.key_total["means.mean_profile"],
        "means.points": c["means.points"],
        "legendre.self_s": self_s["legendre"],
        "legendre.map_s": t.key_total["legendre.map"],
        "legendre.eval_s": t.key_total["legendre.eval"],
        "bumps.self_s": self_s["bumps"],
        "bumps.derivative_s": busy["bumps"],
        "bumps.certify_s": t.key_total["bumps.certify"],
        "trace.run_s": run_s,
        "trace.unattributed_s": run_s - attributed,
    }
    return {k: float(v) for k, v in m.items()}


def negative_times(metrics: dict) -> list:
    """Self times that came out negative, which a span counted twice would
    cause; the unattributed time takes up any such slack, so it is listed
    too."""
    return [n for n in SELF_TIMES + ["trace.unattributed_s"]
            if metrics[n] < -1e-6]
