"""Experiment harness.

Subcommands synthesize sinograms, run the reconstruction pipelines, sweep
noise levels, run the counterexample, certify kernels, and verify the
library's invariants.  Every run writes its artifacts plus a manifest
(config hash, seed, package versions) so results are traceable.

Config is a YAML file; see ``localradon --help`` for the key list.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from .bumps import gevrey_bump, hormander_sequence, verify_derivative_bounds
from .kernels import sjk_family, verify_kernel_bounds
from .legendre import MomentVector, fl_coefficients, moments_to_coefficients
from .means import mean_profile
from .phantoms import smooth_bump, tabulated_phantom
from .stability import (
    BoundConstants,
    calibrate_constants,
    counterexample_experiment,
    order_cap,
    profile_errors,
    reconstruct_mean,
    reconstruct_slice,
    stability_curve,
)
from .transform import Sinogram, check_transport_identity, synthesize_sinogram
from .weights import (
    constant_weight,
    field_from_spec,
    weight_from_ab,
    zero_field,
)

CONFIG_KEYS = """\
Config file keys (YAML):
  phantom:        kind (smooth_bump | polynomial_times_bump | tabulated),
                  center [x, y], width, amplitude, support_constant,
                  poly_coeffs (polynomial kind: [i, j, c] rows, terms
                  c (x-cx)^i (y-cy)^j), path (tabulated)
  weight:         kind (constant | from_ab); level (constant kind, > 0),
                  a / b (from_ab kind: field spec strings, e.g. "one",
                  "0.5*sin_xi"; the weight is 1 on xi = 0)
  grid:           xi [min, max, n], eta [min, max, n] (min < max, n >= 2)
  test_function:  kind (hormander | gevrey), param (integer N or sigma),
                  k_max (gevrey: highest derivative order, integer)
  eps, gamma, eps0: positive numbers
  noise_sigma:    Gaussian noise sigma of the data (>= 0, default 0)
  noise_levels:   list of Gaussian sigmas (each >= 0; sweep)
  seed:           integer (overridable with --seed)
  constants:      alpha, c0, a0, c_env, sigma (optional positive numbers;
                  c0/alpha default to the phantom's Hölder data; c_env is
                  calibrated when absent; sigma > 1 selects the Gevrey
                  truncation rule and bound, its absence the analytic ones)
  kernels:        k_max (integer >= 1; read only by the kernels subcommand,
                  the pipeline builds the family to its weighted order
                  cap), grid_n (integer >= 2: number of Chebyshev-Lobatto
                  points of the kernel eta grid)
  tolerance:      forward-quadrature tolerance (> 0): each line integral stops
                  when its embedded error estimate is at most
                  max(tolerance, tolerance*|value|)
  out_dir:        artifact directory (overridable with --out)
Numbers may carry an exponent without a dot: 1e-8 reads as a float.
"""


class ConfigError(Exception):
    pass


def _need(cfg: dict, key: str, ctx: str = ""):
    if key not in cfg:
        raise ConfigError(f"missing config key: {ctx}{key}")
    return cfg[key]


def _integer(spec: dict, key: str, default: int, ctx: str, low: int) -> int:
    """``spec[key]`` (or ``default``) as an int of at least ``low``; a
    fractional or smaller value is a config error, never truncated."""
    value = spec.get(key, default)
    try:
        ok = float(value).is_integer() and value >= low
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(
            f"{ctx}{key} must be an integer >= {low}, not {value!r}")
    return int(value)


@contextmanager
def _config_key(key: str):
    """Report a builder's ValueError or TypeError as a config error that
    names ``key``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


class _ConfigLoader(yaml.SafeLoader):
    """The safe loader, also reading exponent numbers without a dot
    (``1e-6``, which YAML 1.1 leaves a string) as floats."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.load(fh, Loader=_ConfigLoader)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    if "mode" in cfg:
        raise ConfigError("mode is not a config key: constants.sigma > 1 "
                          "selects the Gevrey rule")
    for key in ("eps", "gamma", "eps0", "tolerance"):
        if key in cfg and not _number(cfg[key], positive=True):
            raise ConfigError(
                f"{key} must be a positive number, not {cfg[key]!r}")
    if "noise_sigma" in cfg and not _number(cfg["noise_sigma"]):
        raise ConfigError(f"noise_sigma must be a number >= 0, "
                          f"not {cfg['noise_sigma']!r}")
    levels = cfg.get("noise_levels", [])
    if not (isinstance(levels, list) and all(map(_number, levels))):
        raise ConfigError(
            f"noise_levels must be a list of numbers >= 0, not {levels!r}")
    return cfg


def _number(value, positive=False) -> bool:
    """``value`` is a finite real number (not a bool), > 0 or >= 0."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value)
            and (value > 0 if positive else value >= 0))


def build_phantom(cfg: dict):
    spec = _need(cfg, "phantom")
    kind = _need(spec, "kind", "phantom.")
    with _config_key("phantom"):
        common = dict(
            center=tuple(spec.get("center", (0.0, 0.5))),
            width=spec.get("width", 0.3),
            amplitude=spec.get("amplitude", 1.0),
            support_constant=spec.get("support_constant", 1.0),
        )
        if kind == "smooth_bump":
            return smooth_bump(**common)
        if kind == "polynomial_times_bump":
            return smooth_bump(
                poly_coeffs=_need(spec, "poly_coeffs", "phantom."), **common)
        if kind == "tabulated":
            xs, ys, vals, _ = read_grid_csv(_need(spec, "path", "phantom."))
            return tabulated_phantom(
                xs, ys, vals, support_constant=common["support_constant"]
            )
    raise ConfigError(f"unknown phantom.kind: {kind}")


def build_weight(cfg: dict):
    spec = cfg.get("weight", {"kind": "constant"})
    kind = spec.get("kind", "constant")
    if kind == "constant":
        with _config_key("weight.level"):
            return constant_weight(spec.get("level", 1.0))
    if kind == "from_ab":
        with _config_key("weight.a"):
            a = field_from_spec(spec.get("a", "zero"))
        with _config_key("weight.b"):
            b = field_from_spec(spec.get("b", "zero"))
        return weight_from_ab(a, b)
    raise ConfigError(f"unknown weight.kind: {kind}")


def build_test_function(cfg: dict):
    spec = cfg.get("test_function", {"kind": "hormander", "param": 12})
    kind = spec.get("kind", "hormander")
    with _config_key("test_function.param"):
        if kind == "hormander":
            return hormander_sequence(
                _integer(spec, "param", 12, "test_function.", 1))
        if kind == "gevrey":
            return gevrey_bump(
                float(spec.get("param", 2.0)),
                derivative_order_max=_integer(spec, "k_max", 14,
                                              "test_function.", 0))
    raise ConfigError(f"unknown test_function.kind: {kind}")


def build_grids(cfg: dict):
    grid = _need(cfg, "grid")
    axes = []
    for name in ("xi", "eta"):
        try:
            lo, hi, n = _need(grid, name, "grid.")
            ok = math.isfinite(lo) and math.isfinite(hi) and lo < hi
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ConfigError(
                f"grid.{name} must be [min, max, n] with finite min < max")
        n = _integer({"n": n}, "n", 0, f"grid.{name}.", 2)
        axes.append(np.linspace(lo, hi, n))
    return tuple(axes)


def build_constants(cfg: dict, phantom) -> BoundConstants:
    spec = cfg.get("constants", {})
    for key in ("c0", "alpha", "a0", "c_env", "sigma"):
        if key in spec and not _number(spec[key], positive=True):
            raise ConfigError(f"constants.{key} must be a positive number, "
                              f"not {spec[key]!r}")
    with _config_key("constants"):
        return BoundConstants(
            c0=spec.get("c0", phantom.holder_bound),
            alpha=spec.get("alpha", phantom.holder_alpha),
            a0=spec.get("a0", 3.0),
            c_env=spec.get("c_env", 2.0),
            sigma=spec.get("sigma"),
        )


def write_sinogram_csv(path, g: Sinogram):
    with open(path, "w") as fh:
        fh.write(f"# xi: {g.xi[0]:.17g} {g.xi[-1]:.17g} {g.xi.size}\n")
        fh.write(f"# eta: {g.eta[0]:.17g} {g.eta[-1]:.17g} {g.eta.size}\n")
        fh.write(f"# noise_sigma: {g.noise_sigma:.17g}\n")
        fh.write(f"# seed: {g.provenance.get('seed', 0)}\n")
        if g.failed is not None and g.failed.any():
            cells = " ".join(f"{i},{j}" for i, j in np.argwhere(g.failed))
            fh.write(f"# failed: {cells}\n")
        for row in g.values:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_grid_csv(path):
    """Parse the sinogram/phantom grid CSV format; returns
    (xi, eta, values, header dict)."""
    header = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, rest = line[1:].partition(":")
                header[key.strip()] = rest.split()
            else:
                rows.append([float(v) for v in line.split(",")])
    try:
        xlo, xhi, xn = header["xi"]
        elo, ehi, en = header["eta"]
    except KeyError as exc:
        raise ConfigError(f"grid CSV missing header line {exc}")
    xi = np.linspace(float(xlo), float(xhi), int(xn))
    eta = np.linspace(float(elo), float(ehi), int(en))
    values = np.asarray(rows)
    if values.shape != (xi.size, eta.size):
        raise ConfigError(
            f"grid CSV shape {values.shape} does not match header "
            f"({xi.size}, {eta.size})"
        )
    return xi, eta, values, header


def read_sinogram_csv(path) -> Sinogram:
    xi, eta, values, header = read_grid_csv(path)
    sigma = float(header.get("noise_sigma", ["0"])[0])
    seed = int(header.get("seed", ["0"])[0])
    failed = None
    if "failed" in header:
        cells = np.array([c.split(",") for c in header["failed"]], dtype=int)
        failed = np.zeros(values.shape, dtype=bool)
        failed[cells[:, 0], cells[:, 1]] = True
    return Sinogram(xi=xi, eta=eta, values=values, noise_sigma=sigma,
                    provenance={"seed": seed, "source": str(path)},
                    failed=failed)


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_manifest(out: Path, cfg: dict, seed: int, artifacts, extra=None):
    manifest = {
        "config_hash": _config_hash(cfg),
        "seed": seed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "localradon": __version__,
        },
        "artifacts": [str(a) for a in artifacts],
    }
    if extra:
        manifest.update(extra)
    path = out / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def _write_rows_csv(path, fieldnames, rows):
    with open(path, "w") as fh:
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            fh.write(",".join(f"{row[k]:.17g}" if isinstance(row[k], float)
                              else str(row[k]) for k in fieldnames) + "\n")


def _sinogram_from_config(cfg, seed):
    f = build_phantom(cfg)
    m = build_weight(cfg)
    xi, eta = build_grids(cfg)
    sigma = cfg.get("noise_sigma", 0.0)
    tol = cfg.get("tolerance", 1e-9)
    g = synthesize_sinogram(f, m, xi, eta, noise_sigma=sigma, seed=seed,
                            tol=tol)
    return f, m, g


def _family_from_config(cfg, m, gamma, k_max):
    """The ``S_{j,k}`` family (``k <= k_max``) of a ``from_ab`` weight; None
    for a constant.  A pipeline run passes the weighted order cap, the
    deepest level that calibration and reconstruction read."""
    if m.a is None:
        return None
    return sjk_family(m.a, m.b, gamma, k_max, grid_n=_integer(
        cfg.get("kernels", {}), "grid_n", 96, "kernels.", 2))


def cmd_sinogram(cfg, out, seed, quiet):
    _, _, g = _sinogram_from_config(cfg, seed)
    path = out / "sinogram.csv"
    write_sinogram_csv(path, g)
    if not quiet:
        print(f"wrote {path} ({g.values.shape[0]}x{g.values.shape[1]})")
    return [path], {}


def _calibrated(cfg, g, f, phi, eps, gamma, fam):
    consts = build_constants(cfg, f)
    if "c_env" not in cfg.get("constants", {}):
        n_cal = min(8, order_cap(phi, weighted=fam is not None))
        consts = calibrate_constants(g, phi, eps, gamma, n_cal, consts,
                                     fam=fam)
    return consts


def _pipeline(cfg, seed, eps):
    """What ``reconstruct``, ``slice`` and ``sweep`` share: the data, gamma,
    test function, the kernel family (to the weighted order cap) and the
    constants calibrated at ``eps``."""
    f, m, g = _sinogram_from_config(cfg, seed)
    gamma = _need(cfg, "gamma")
    phi = build_test_function(cfg)
    fam = _family_from_config(cfg, m, gamma, order_cap(phi, weighted=True))
    consts = _calibrated(cfg, g, f, phi, eps, gamma, fam)
    return f, m, g, gamma, phi, fam, consts


def cmd_reconstruct(cfg, out, seed, quiet):
    eps = _need(cfg, "eps")
    f, m, g, gamma, phi, fam, consts = _pipeline(cfg, seed, eps)
    rec = reconstruct_mean(g, phi, eps, gamma, consts, fam=fam)
    true = mean_profile(f, m, rec.profile.test_function, eps, gamma,
                        x_grid=rec.profile.x)
    l2, sup = profile_errors(rec.profile, true)
    path = out / "reconstruction.csv"
    _write_rows_csv(path, ["x", "estimate", "truth"],
                    [{"x": x, "estimate": v, "truth": t} for x, v, t in
                     zip(rec.profile.x, rec.profile.values, true.values)])
    extra = {"H": rec.H, "N": rec.N, "l2_error": l2, "sup_error_half": sup,
             "bound": rec.bound, "c_env": consts.c_env}
    if not quiet:
        print(f"N={rec.N} H={rec.H:.3e} l2={l2:.3e} bound={rec.bound:.3e}")
    if l2 > rec.bound:
        raise RuntimeError("reconstruct: error exceeds the estimate bound")
    return [path], extra


def cmd_slice(cfg, out, seed, quiet):
    eps0 = _need(cfg, "eps0")
    _, _, g, gamma, phi, fam, consts = _pipeline(
        cfg, seed, min(eps0, 0.5 * eps0 + 0.05))
    rec = reconstruct_slice(g, phi, gamma, consts, eps0, fam=fam)
    path = out / "slice.csv"
    _write_rows_csv(path, ["x", "estimate"],
                    [{"x": x, "estimate": v}
                     for x, v in zip(rec.profile.x, rec.profile.values)])
    eps = rec.profile.eps
    extra = {"eps": eps, "N": rec.N, "H": rec.H, "bound": rec.bound}
    if not quiet:
        print(f"eps={eps:.4f} N={rec.N} H={rec.H:.3e} bound={rec.bound:.3e}")
    return [path], extra


def cmd_sweep(cfg, out, seed, quiet):
    eps = _need(cfg, "eps")
    levels = _need(cfg, "noise_levels")
    f, m, g, gamma, phi, fam, consts = _pipeline(cfg, seed, eps)
    report = stability_curve(g, f, m, phi, levels, eps, gamma, consts,
                             fam=fam, seed=seed)
    path = out / "sweep.csv"
    fields = ["sigma", "H", "N", "l2_error", "sup_error_half", "bound"]
    _write_rows_csv(path, fields, report.rows)
    jpath = out / "sweep.json"
    with open(jpath, "w") as fh:
        json.dump({"rows": report.rows, "alpha_hat": report.alpha_hat,
                   "fit": report.fit}, fh, indent=2)
    if not quiet:
        for r in report.rows:
            print(f"sigma={r['sigma']:.1e} H={r['H']:.3e} N={r['N']} "
                  f"l2={r['l2_error']:.3e} bound={r['bound']:.3e}")
        print(f"alpha_hat={report.alpha_hat:.4f}")
    if any(r["l2_error"] > r["bound"] for r in report.rows):
        raise RuntimeError("sweep: some row exceeds the estimate bound")
    return [path, jpath], {"alpha_hat": report.alpha_hat}


def cmd_counterexample(cfg, out, seed, quiet):
    q = build_phantom(cfg)
    lambdas = cfg.get("lambdas", [1, 10, 20, 40, 80])
    xi, eta = build_grids(cfg)
    rows, slopes = counterexample_experiment(q, lambdas, xi, eta,
                                             tol=cfg.get("tolerance", 1e-10))
    path = out / "counterexample.csv"
    _write_rows_csv(path, ["lambda", "f_norm", "data_norm"], rows)
    if not quiet:
        for r in rows:
            print(f"lambda={r['lambda']:<4} |f|={r['f_norm']:.4e} "
                  f"|Rf|={r['data_norm']:.4e}")
        print("slopes:", " ".join(f"{s:.2f}" for s in slopes))
    return [path], {"slopes": slopes}


def cmd_kernels(cfg, out, seed, quiet):
    m = build_weight(cfg)
    if m.a is None:
        m = weight_from_ab(zero_field(), zero_field())
    k_max = _integer(cfg.get("kernels", {}), "k_max", 4, "kernels.", 1)
    fam = _family_from_config(cfg, m, _need(cfg, "gamma"), k_max)
    rep = verify_kernel_bounds(fam, cfg.get("eps", 0.1) / 2.0, k_max)
    path = out / "kernels.csv"
    rows = [{"j": j, "k": k, "ratio": r} for (j, k), r in
            sorted(rep.ratios.items(), key=lambda t: (t[0][1], t[0][0]))]
    _write_rows_csv(path, ["j", "k", "ratio"], rows)
    if not quiet:
        print(f"certified C={rep.constant:.4f} worst ratio={rep.worst:.4f}")
    if rep.worst > 1.0:
        raise RuntimeError("kernel bound ratio exceeds one")
    return [path], {"C": rep.constant, "worst_ratio": rep.worst}


def cmd_verify(cfg, out, seed, quiet):
    """Small invariant suite over the configured corpus."""
    results = {}
    f, m, g = _sinogram_from_config(cfg, seed)
    eps = cfg.get("eps", 0.1)
    gamma = cfg.get("gamma", 0.3)
    phi = build_test_function(cfg)

    # test function certification
    rep = verify_derivative_bounds(phi, min(8, phi.derivative_order_max))
    results["bump_ratio_max"] = float(rep.ratios.max())

    # transport identity (weighted case only)
    if m.a is not None:
        pts = [(0.02, 0.1), (-0.03, 0.2), (0.0, 0.25)]
        results["transport_residual"] = check_transport_identity(
            f, m, m.a, m.b, pts)

    # moment oracle at k = 0..2
    from .stability import moments_from_sinogram_unweighted
    from .weights import gauss_nodes
    if m.a is None:
        mom = moments_from_sinogram_unweighted(g, phi, eps, gamma, 2)
        prof = mean_profile(f, m, phi, eps, gamma)
        sp = prof.interpolant()
        t, w = gauss_nodes(200)
        oracle = [float(np.sum(w * t**k * sp(t))) for k in range(3)]
        scale = max(abs(v) for v in oracle)
        results["moment_oracle_rel"] = float(
            max(abs(mv - ov) for mv, ov in zip(mom.values, oracle)) / scale)

    # legendre round trip on the extracted moments
    series = moments_to_coefficients(MomentVector(np.array([0.5, 0.1, 0.2])))
    back = fl_coefficients(series, 2)
    results["legendre_roundtrip"] = float(
        np.abs(series.coeffs - back.coeffs).max())

    # zero data soundness
    zero = Sinogram(xi=g.xi, eta=g.eta, values=np.zeros_like(g.values))
    consts = build_constants(cfg, f)
    rec0 = reconstruct_mean(zero, phi, eps, gamma, consts)
    results["zero_data"] = float(np.abs(rec0.profile.values).max())

    ok = (
        results["bump_ratio_max"] <= 1.0 + 1e-12
        and results.get("transport_residual", 0.0) <= 1e-4
        and results.get("moment_oracle_rel", 0.0) <= 1e-4
        and results["legendre_roundtrip"] <= 1e-10
        and results["zero_data"] == 0.0
    )
    path = out / "verify.json"
    with open(path, "w") as fh:
        json.dump({"results": results, "ok": ok}, fh, indent=2)
    if not quiet:
        for k, v in results.items():
            print(f"{k}: {v:.3e}")
        print("ok" if ok else "FAILED")
    if not ok:
        raise RuntimeError("verification suite failed")
    return [path], {"verify": results}


COMMANDS = {
    "sinogram": cmd_sinogram,
    "reconstruct": cmd_reconstruct,
    "slice": cmd_slice,
    "sweep": cmd_sweep,
    "counterexample": cmd_counterexample,
    "kernels": cmd_kernels,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="localradon",
        description=__doc__,
        epilog=CONFIG_KEYS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="YAML config path")
    parser.add_argument("--out", default=None, help="artifact directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override config seed")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out = Path(args.out or cfg.get("out_dir", "."))
        out.mkdir(parents=True, exist_ok=True)
        seed = args.seed if args.seed is not None \
            else _integer(cfg, "seed", 0, "", 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        artifacts, extra = COMMANDS[args.subcommand](cfg, out, seed,
                                                     args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"{args.subcommand} failed: {exc}", file=sys.stderr)
        return 1
    write_manifest(out, cfg, seed, artifacts, extra={"results": extra})
    return 0


if __name__ == "__main__":
    sys.exit(main())
