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
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .bumps import gevrey_bump, hormander_sequence, verify_derivative_bounds
from .kernels import sjk_family, verify_kernel_bounds
from .legendre import MomentVector, fl_coefficients, moments_to_coefficients
from .means import mean_profile
from .phantoms import polynomial_times_bump, smooth_bump, tabulated_phantom
from .stability import (
    BoundConstants,
    calibrate_constants,
    counterexample_experiment,
    data_norm,
    order_cap,
    reconstruct_mean,
    reconstruct_slice,
    stability_curve,
)
from .transform import Sinogram, check_transport_identity, synthesize_sinogram
from .weights import (
    attenuation_weight,
    constant_weight,
    field_from_spec,
    weight_from_ab,
    zero_field,
)

CONFIG_KEYS = """\
Config file keys (YAML):
  phantom:        kind (smooth_bump | polynomial_times_bump | tabulated),
                  center [x, y], width, amplitude, support_constant,
                  poly_coeffs (matrix, polynomial kind), path (tabulated)
  weight:         kind (constant | from_ab | attenuation), level,
                  a / b (field spec strings, e.g. "one", "0.5*sin_xi")
  grid:           xi [min, max, n], eta [min, max, n]
  test_function:  kind (hormander | gevrey), param (N or sigma)
  eps, gamma, eps0, mode (analytic | gevrey)
  noise_levels:   list of Gaussian sigmas
  seed:           integer (overridable with --seed)
  constants:      alpha, c0, a0, c_env, sigma, rho (all optional; c0/alpha
                  default to the phantom's Hölder data; c_env is
                  calibrated when absent)
  kernels:        k_max, grid_n (number of Chebyshev-Lobatto points of
                  the kernel eta grid)
  tolerance:      forward-quadrature tolerance: each line integral stops
                  when its embedded error estimate is at most
                  max(tolerance, tolerance*|value|)
  out_dir:        artifact directory (overridable with --out)
"""


class ConfigError(Exception):
    pass


def _need(cfg: dict, key: str, ctx: str = ""):
    if key not in cfg:
        raise ConfigError(f"missing config key: {ctx}{key}")
    return cfg[key]


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def build_phantom(cfg: dict):
    spec = _need(cfg, "phantom")
    kind = _need(spec, "kind", "phantom.")
    common = dict(
        center=tuple(spec.get("center", (0.0, 0.5))),
        width=spec.get("width", 0.3),
        amplitude=spec.get("amplitude", 1.0),
        support_constant=spec.get("support_constant", 1.0),
    )
    if kind == "smooth_bump":
        return smooth_bump(**common)
    if kind == "polynomial_times_bump":
        coeffs = np.asarray(_need(spec, "poly_coeffs", "phantom."))
        return polynomial_times_bump(coeffs, **common)
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
        return constant_weight(spec.get("level", 1.0)), None, None
    if kind == "from_ab":
        a = field_from_spec(spec.get("a", "zero"))
        b = field_from_spec(spec.get("b", "zero"))
        return weight_from_ab(a, b), a, b
    if kind == "attenuation":
        mu_cfg = dict(cfg)
        mu_cfg["phantom"] = _need(spec, "mu", "weight.")
        return attenuation_weight(build_phantom(mu_cfg)), None, None
    raise ConfigError(f"unknown weight.kind: {kind}")


def build_test_function(cfg: dict):
    spec = cfg.get("test_function", {"kind": "hormander", "param": 12})
    kind = spec.get("kind", "hormander")
    if kind == "hormander":
        return hormander_sequence(int(spec.get("param", 12)))
    if kind == "gevrey":
        return gevrey_bump(float(spec.get("param", 2.0)),
                           derivative_order_max=int(spec.get("k_max", 14)))
    raise ConfigError(f"unknown test_function.kind: {kind}")


def build_grids(cfg: dict):
    grid = _need(cfg, "grid")
    try:
        xlo, xhi, xn = _need(grid, "xi", "grid.")
        elo, ehi, en = _need(grid, "eta", "grid.")
    except (TypeError, ValueError):
        raise ConfigError("grid.xi / grid.eta must be [min, max, n]")
    return np.linspace(xlo, xhi, int(xn)), np.linspace(elo, ehi, int(en))


def build_constants(cfg: dict, phantom) -> BoundConstants:
    spec = cfg.get("constants", {})
    return BoundConstants(
        c0=spec.get("c0", phantom.holder_bound),
        alpha=spec.get("alpha", phantom.holder_alpha),
        a0=spec.get("a0", 3.0),
        c_env=spec.get("c_env", 2.0),
        sigma=spec.get("sigma"),
        rho=spec.get("rho"),
    )


def write_sinogram_csv(path, g: Sinogram):
    with open(path, "w") as fh:
        fh.write(f"# xi: {g.xi[0]:.17g} {g.xi[-1]:.17g} {g.xi.size}\n")
        fh.write(f"# eta: {g.eta[0]:.17g} {g.eta[-1]:.17g} {g.eta.size}\n")
        fh.write(f"# noise_sigma: {g.noise_sigma:.17g}\n")
        fh.write(f"# seed: {g.provenance.get('seed', 0)}\n")
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
    return Sinogram(xi=xi, eta=eta, values=values, noise_sigma=sigma,
                    provenance={"seed": seed, "source": str(path)})


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
            "localradon": __version__,
        },
        "artifacts": [str(a) for a in artifacts],
    }
    try:
        import scipy
        manifest["versions"]["scipy"] = scipy.__version__
    except ImportError:
        pass
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
    m, a, b = build_weight(cfg)
    xi, eta = build_grids(cfg)
    sigma = cfg.get("noise_sigma", 0.0)
    tol = cfg.get("tolerance", 1e-9)
    g = synthesize_sinogram(f, m, xi, eta, noise_sigma=sigma, seed=seed,
                            tol=tol)
    return f, m, a, b, g


def _family_from_config(cfg, a, b, gamma):
    if a is None:
        return None
    kspec = cfg.get("kernels", {})
    return sjk_family(a, b, gamma, int(kspec.get("k_max", 4)),
                      grid_n=int(kspec.get("grid_n", 96)))


def cmd_sinogram(cfg, out, seed, quiet):
    _, _, _, _, g = _sinogram_from_config(cfg, seed)
    path = out / "sinogram.csv"
    write_sinogram_csv(path, g)
    if not quiet:
        print(f"wrote {path} ({g.values.shape[0]}x{g.values.shape[1]})")
    return [path], {}


def _calibrated(cfg, g, f, phi, eps, gamma, fam, mode):
    consts = build_constants(cfg, f)
    if "c_env" not in cfg.get("constants", {}):
        n_cal = min(8, order_cap(phi, weighted=fam is not None))
        consts = calibrate_constants(g, phi, eps, gamma, n_cal, consts,
                                     fam=fam, mode=mode)
    return consts


def cmd_reconstruct(cfg, out, seed, quiet):
    f, m, a, b, g = _sinogram_from_config(cfg, seed)
    eps = _need(cfg, "eps")
    gamma = _need(cfg, "gamma")
    mode = cfg.get("mode", "analytic")
    phi = build_test_function(cfg)
    fam = _family_from_config(cfg, a, b, gamma)
    consts = _calibrated(cfg, g, f, phi, eps, gamma, fam, mode)
    prof, N = reconstruct_mean(g, phi, eps, gamma, consts, mode=mode, fam=fam)
    true = mean_profile(f, m if fam is not None else None, phi, eps, gamma,
                        x_grid=prof.x)
    from .stability import H_FLOOR, mean_bound, profile_errors
    H = max(data_norm(g, eps, gamma), H_FLOOR)
    l2, sup = profile_errors(prof, true)
    path = out / "reconstruction.csv"
    _write_rows_csv(path, ["x", "estimate", "truth"],
                    [{"x": x, "estimate": v, "truth": t}
                     for x, v, t in zip(prof.x, prof.values, true.values)])
    extra = {"H": H, "N": N, "l2_error": l2, "sup_error_half": sup,
             "bound": mean_bound(H, consts, eps, mode),
             "c_env": consts.c_env}
    if not quiet:
        print(f"N={N} H={H:.3e} l2={l2:.3e} bound={extra['bound']:.3e}")
    if l2 > extra["bound"]:
        raise RuntimeError("reconstruct: error exceeds the estimate bound")
    return [path], extra


def cmd_slice(cfg, out, seed, quiet):
    f, m, a, b, g = _sinogram_from_config(cfg, seed)
    gamma = _need(cfg, "gamma")
    eps0 = _need(cfg, "eps0")
    mode = cfg.get("mode", "analytic")
    phi = build_test_function(cfg)
    fam = _family_from_config(cfg, a, b, gamma)
    consts = _calibrated(cfg, g, f, phi, min(eps0, 0.5 * eps0 + 0.05),
                         gamma, fam, mode)
    res = reconstruct_slice(g, phi, gamma, consts, eps0, mode=mode, fam=fam)
    path = out / "slice.csv"
    _write_rows_csv(path, ["x", "estimate"],
                    [{"x": x, "estimate": v}
                     for x, v in zip(res.profile.x, res.profile.values)])
    extra = {"eps": res.eps, "N": res.N, "H": res.H, "bound": res.bound}
    if not quiet:
        print(f"eps={res.eps:.4f} N={res.N} H={res.H:.3e} "
              f"bound={res.bound:.3e}")
    return [path], extra


def cmd_sweep(cfg, out, seed, quiet):
    f, m, a, b, g = _sinogram_from_config(cfg, seed)
    eps = _need(cfg, "eps")
    gamma = _need(cfg, "gamma")
    mode = cfg.get("mode", "analytic")
    levels = _need(cfg, "noise_levels")
    phi = build_test_function(cfg)
    fam = _family_from_config(cfg, a, b, gamma)
    consts = _calibrated(cfg, g, f, phi, eps, gamma, fam, mode)
    true = mean_profile(f, m if fam is not None else None, phi, eps, gamma)
    report = stability_curve(g, true, phi, levels, eps, gamma, consts,
                             mode=mode, fam=fam, seed=seed)
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
    m, a, b = build_weight(cfg)
    if a is None:
        a, b = zero_field(), zero_field()
    gamma = _need(cfg, "gamma")
    kspec = cfg.get("kernels", {})
    k_max = int(kspec.get("k_max", 4))
    fam = sjk_family(a, b, gamma, k_max, grid_n=int(kspec.get("grid_n", 96)))
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
    f, m, a, b, g = _sinogram_from_config(cfg, seed)
    eps = cfg.get("eps", 0.1)
    gamma = cfg.get("gamma", 0.3)
    phi = build_test_function(cfg)

    # test function certification
    rep = verify_derivative_bounds(phi, min(8, phi.derivative_order_max))
    results["bump_ratio_max"] = float(rep.ratios.max())

    # transport identity (weighted case only)
    if a is not None:
        pts = [(0.02, 0.1), (-0.03, 0.2), (0.0, 0.25)]
        results["transport_residual"] = check_transport_identity(
            f, m, a, b, pts)

    # moment oracle at k = 0..2
    from .stability import moments_from_sinogram_unweighted
    from .weights import gauss_nodes
    if a is None:
        mom = moments_from_sinogram_unweighted(g, phi, eps, gamma, 2)
        prof = mean_profile(f, None, phi, eps, gamma)
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
    prof0, n0 = reconstruct_mean(zero, phi, eps, gamma, consts)
    results["zero_data"] = float(np.abs(prof0.values).max())

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
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
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
