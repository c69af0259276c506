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
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import __version__
from .bumps import gevrey_bump, hormander_sequence, verify_derivative_bounds
from .kernels import sjk_family, verify_kernel_bounds
from .legendre import moments_to_coefficients
from .means import mean_profile
from .phantoms import smooth_bump, tabulated_phantom
from .stability import (
    BoundConstants,
    counterexample_experiment,
    moments_from_sinogram_unweighted,
    moments_from_sinogram_weighted,
    order_cap,
    profile_errors,
    reconstruct_mean,
    reconstruct_slice,
    stability_curve,
)
from .transform import Sinogram, check_transport_identity, synthesize_sinogram
from .weights import Weight, constant_weight, field_from_spec, gauss_nodes


class ConfigError(Exception):
    pass


def _real(value) -> bool:
    """``value`` is a finite real number, not a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


class Check(NamedTuple):
    """A test of a config value, the text ``--help`` prints for it, and the
    conversion of a value that passes, or of the default."""
    test: Callable[[object], bool]
    text: str
    cast: Callable[[object], object] = lambda value: value


def _whole(low: int) -> Check:
    """An integer-valued number; a fraction is refused, never truncated."""
    return Check(lambda v: _real(v) and v >= low and float(v).is_integer(),
                 f"an integer >= {low}", int)


def _numbers(n: int, text: str, test=lambda v: True) -> Check:
    """A list of ``n`` numbers (``n`` 0: one or more) that passes ``test``."""
    return Check(lambda v: isinstance(v, list) and len(v) == (n or len(v))
                 and len(v) > 0 and all(map(_real, v)) and test(v), text)


POSITIVE = Check(lambda v: _real(v) and v > 0, "a number > 0")
NONNEGATIVE = Check(lambda v: _real(v) and v >= 0, "a number >= 0")
TEXT = Check(lambda v: isinstance(v, str), "a string")
SECTION = Check(lambda v: isinstance(v, dict), "a mapping")
AXIS = _numbers(3, "[min, max, n], min < max, integer n >= 2",
                lambda v: v[0] < v[1] and _whole(2).test(v[2]))
POLY_ROWS = Check(lambda v: isinstance(v, list) and len(v) > 0 and all(
    isinstance(r, list) and len(r) == 3 and _whole(0).test(r[0])
    and _whole(0).test(r[1]) and _real(r[2]) for r in v),
    "[i, j, c] rows, i and j integers >= 0, c a number")
BUMPS = ("smooth_bump", "polynomial_times_bump")


class Key(NamedTuple):
    """A config key, its check, its default (``...``: none, the key is
    required where it is read) and the kinds of its section that read it
    (empty: every kind)."""
    name: str
    check: Check
    default: object = ...
    kinds: tuple = ()


SCHEMA = {
    "": [Key("phantom", SECTION), Key("grid", SECTION)] + [
        Key(name, SECTION, {}) for name in ("weight", "test_function",
                                            "constants", "kernels")] + [
        Key(name, POSITIVE) for name in ("eps", "gamma", "eps0",
                                         "tolerance")] + [
        Key("noise_sigma", NONNEGATIVE, 0.0),
        Key("noise_levels", _numbers(0, "a list of numbers >= 0",
                                     lambda v: min(v) >= 0)),
        Key("lambdas", _numbers(0, "an increasing list of numbers > 0",
                                lambda v: 0 < v[0] and all(
                                    a < b for a, b in zip(v, v[1:]))),
            (1, 10, 20, 40, 80)),
        Key("seed", _whole(0), 0),
        Key("out_dir", TEXT, "."),
    ],
    "phantom": [
        Key("kind", Check(lambda v: v in (*BUMPS, "tabulated"),
                          "smooth_bump | polynomial_times_bump | tabulated")),
        Key("center", _numbers(2, "[x, y]")._replace(cast=tuple), (0.0, 0.5),
            BUMPS),
        Key("width", POSITIVE, 0.3, BUMPS),
        Key("amplitude", Check(_real, "a number"), 1.0, BUMPS),
        Key("support_constant", Check(lambda v: _real(v) and v >= 1,
                                      "a number >= 1"), 1.0),
        Key("poly_coeffs", POLY_ROWS, kinds=BUMPS[1:]),
        Key("path", TEXT, kinds=("tabulated",)),
    ],
    "weight": [
        Key("kind", Check(lambda v: v in ("constant", "from_ab"),
                          "constant | from_ab"), "constant"),
        Key("level", POSITIVE, 1.0, ("constant",)),
        Key("a", TEXT, "zero", ("from_ab",)),
        Key("b", TEXT, "zero", ("from_ab",)),
    ],
    "grid": [Key("xi", AXIS), Key("eta", AXIS)],
    "test_function": [
        Key("kind", Check(lambda v: v in ("hormander", "gevrey"),
                          "hormander | gevrey"), "hormander"),
        Key("param", _whole(1), 12, ("hormander",)),
        Key("param", POSITIVE._replace(cast=float), 2.0, ("gevrey",)),
        Key("k_max", _whole(0), 14, ("gevrey",)),
    ],
    "constants": [
        Key("c0", POSITIVE, None),
        Key("alpha", Check(lambda v: _real(v) and 0 < v <= 1,
                           "a number in (0, 1]"), None),
        Key("sigma", POSITIVE, None)],
    "kernels": [Key("k_max", _whole(1), 4), Key("grid_n", _whole(2), 96)],
}

HELP = """\
Config keys (YAML), each with its check, (its default; none: required where
it is read) and [the kinds of its section that read it]:
{}
constants.c0 defaults to the phantom's Lipschitz bound, computed when first
read, and .alpha to 1; sigma > 1 selects the Gevrey rule.  The envelope
constant c_env is not a config key: it is the proof floor of the test
function at the order the pipeline allows, and a run whose moments exceed
it fails.  weight.a and .b are field specs such as "0.5*sin_xi".
Only the kernels subcommand reads kernels.k_max.  A line integral stops
when its error estimate is at most max(tolerance, tolerance*|value|).  An
exponent needs no dot: 1e-8.
"""


def _help() -> str:
    """``HELP`` with one line per ``SCHEMA`` key."""
    lines = []
    for name, keys in SCHEMA.items():
        prefix = f"{name}." if name else ""
        lines += [f"  {prefix}{k.name}: {k.check.text}"
                  + ("" if k.default is ... else f" ({k.default!r})")
                  + (f" [{prefix}kind {' | '.join(k.kinds)}]" if k.kinds
                     else "")
                  for k in keys]
    return HELP.format("\n".join(lines))


class _Values(dict):
    """Checked config values; reading an absent required key is a config
    error that names it."""
    prefix = ""

    def __missing__(self, key):
        raise ConfigError(f"missing config key: {self.prefix}{key}")


def _check(spec: dict, name: str = "") -> _Values:
    """``spec``, the config (``name`` "") or its section ``name``, checked
    against ``SCHEMA``: every key known, read by the section's kind and
    passing its check.  Returns its values with the defaults filled in and
    each section checked in turn."""
    keys, values = SCHEMA[name], _Values()
    values.prefix = prefix = f"{name}." if name else ""
    for key in spec:
        if key not in {k.name for k in keys}:
            raise ConfigError(f"{prefix}{key} is not a config key")
    for key in keys:
        if key.kinds and values["kind"] not in key.kinds:
            continue
        if key.name in spec and not key.check.test(spec[key.name]):
            raise ConfigError(f"{prefix}{key.name} must be "
                              f"{key.check.text}, not {spec[key.name]!r}")
        if key.name in spec or key.default is not ...:
            value = key.check.cast(spec.get(key.name, key.default))
            values[key.name] = _check(value, key.name) \
                if key.check is SECTION else value
    for key in spec:
        if key not in values:
            kinds = next(k.kinds for k in keys if k.name == key)
            raise ConfigError(f"{prefix}{key} is read only with "
                              f"{prefix}kind {' | '.join(kinds)}")
    return values


@contextmanager
def _config_key(key: str):
    """Report a builder's ValueError, TypeError or OSError (a file it
    cannot read) as a config error that names ``key``."""
    try:
        yield
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


class _ConfigLoader(yaml.CSafeLoader):
    """The safe loader on libyaml's parser, also reading exponent numbers
    without a dot (``1e-6``, which YAML 1.1 leaves a string) as floats."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def load_config(path: str) -> _Values:
    """The config's values, checked against ``SCHEMA`` once, with the
    defaults filled in; every builder and subcommand reads them."""
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
    return _check(cfg)


def build_phantom(cfg: _Values):
    spec = cfg["phantom"]
    with _config_key("phantom"):
        if spec["kind"] == "tabulated":
            with _config_key("phantom.path"):
                xs, ys, vals, _ = read_grid_csv(spec["path"])
            return tabulated_phantom(
                xs, ys, vals, support_constant=spec["support_constant"])
        poly = spec["poly_coeffs"] if spec["kind"] in BUMPS[1:] else ()
        return smooth_bump(spec["center"], spec["width"], spec["amplitude"],
                           spec["support_constant"], poly_coeffs=poly)


def build_weight(cfg: _Values):
    spec = cfg["weight"]
    if spec["kind"] == "constant":
        return constant_weight(spec["level"])
    with _config_key("weight.a"):
        a = field_from_spec(spec["a"])
    with _config_key("weight.b"):
        b = field_from_spec(spec["b"])
    return Weight(a, b)


def build_test_function(cfg: _Values):
    spec = cfg["test_function"]
    with _config_key("test_function.param"):
        if spec["kind"] == "hormander":
            return hormander_sequence(spec["param"])
        return gevrey_bump(spec["param"], derivative_order_max=spec["k_max"])


def build_grids(cfg: _Values):
    grid = cfg["grid"]
    return tuple(np.linspace(lo, hi, int(n))
                 for lo, hi, n in (grid["xi"], grid["eta"]))


def build_constants(cfg: _Values, phantom) -> BoundConstants:
    """The constants as configured; c0 defaults to the phantom's Lipschitz
    bound, read only then, the rest to ``BoundConstants``' defaults.  A
    tabulated phantom has no bound, so its c0 is asked for under
    ``constants.c0``; a bump whose bound overflows is refused under
    ``phantom``."""
    spec = cfg["constants"]
    given = {k: v for k, v in spec.items() if v is not None}
    if "c0" not in given:
        key = "constants.c0" if phantom.grid is not None else "phantom"
        with _config_key(key):
            given["c0"] = phantom.holder_bound
    with _config_key("constants"):
        return BoundConstants(**given)


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
            # no run loads scipy; an oracle in the same process may
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
            "localradon": __version__,
        },
        "artifacts": [str(a) for a in artifacts],
    }
    if extra:
        manifest.update(extra)
    path = out / "manifest.json"
    with open(path, "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def _write_rows_csv(path, fieldnames, rows):
    """A header and one line per row, floats as ``%.17g`` and anything else
    as ``str``: each row formatted by one format string, the file written
    at once."""
    columns = [[row[k] for row in rows] for k in fieldnames]
    formats = []
    for i, column in enumerate(columns):
        if all(isinstance(v, float) for v in column):
            formats.append("%.17g")
        else:
            formats.append("%s")
            columns[i] = [f"{v:.17g}" if isinstance(v, float) else str(v)
                          for v in column]
    line = ",".join(formats) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(fieldnames) + "\n"
                 + "".join(line % values for values in zip(*columns)))


def _sinogram_from_config(cfg, seed):
    f = build_phantom(cfg)
    m = build_weight(cfg)
    xi, eta = build_grids(cfg)
    g = synthesize_sinogram(f, m, xi, eta, noise_sigma=cfg["noise_sigma"],
                            seed=seed, tol=cfg["tolerance"])
    return f, m, g


def cmd_sinogram(cfg, out, seed, quiet):
    _, _, g = _sinogram_from_config(cfg, seed)
    path = out / "sinogram.csv"
    write_sinogram_csv(path, g)
    if not quiet:
        print(f"wrote {path} ({g.values.shape[0]}x{g.values.shape[1]})")
    return [path], {}


def _pipeline(cfg, seed):
    """What ``reconstruct``, ``slice``, ``sweep`` and ``verify`` share: the
    data, gamma, test function, the top rows of the ``S_{j,k}`` family of a
    ``from_ab`` weight (None for a constant) to the weighted order cap, the
    deepest level that reconstruction reads, and the configured constants,
    the phantom's class; each estimate derives its own ``c_env``."""
    f, m, g = _sinogram_from_config(cfg, seed)
    gamma, phi = cfg["gamma"], build_test_function(cfg)
    fam = None if m.a is None else sjk_family(
        m.a, m.b, gamma, order_cap(phi, weighted=True),
        grid_n=cfg["kernels"]["grid_n"], rows=[-1])
    return f, m, g, gamma, phi, fam, build_constants(cfg, f)


def _scored(name, path, rec, truth, quiet):
    """Write the estimate of ``rec`` and its ``truth`` to ``path`` and
    refuse an L2 error over the bound; returns the manifest results."""
    prof = rec.profile
    l2, sup = profile_errors(prof, replace(prof, values=truth))
    _write_rows_csv(path, ["x", "estimate", "truth"],
                    [{"x": x, "estimate": v, "truth": t}
                     for x, v, t in zip(prof.x.tolist(), prof.values.tolist(),
                                        truth.tolist())])
    if not quiet:
        print(f"eps={prof.eps:.4f} N={rec.N} H={rec.H:.3e} l2={l2:.3e} "
              f"bound={rec.bound:.3e}")
    if l2 > rec.bound:
        raise RuntimeError(f"{name}: error exceeds the estimate bound")
    return {"H": rec.H, "N": rec.N, "l2_error": l2, "sup_error_half": sup,
            "bound": rec.bound}


def cmd_reconstruct(cfg, out, seed, quiet):
    eps = cfg["eps"]
    f, m, g, gamma, phi, fam, consts = _pipeline(cfg, seed)
    rec = reconstruct_mean(g, phi, eps, gamma, consts, fam=fam)
    true = mean_profile(f, m, rec.profile.test_function, eps, gamma,
                        x_grid=rec.profile.x)
    path = out / "reconstruction.csv"
    return [path], dict(_scored("reconstruct", path, rec, true.values, quiet),
                        c_env=rec.c_env)


def cmd_slice(cfg, out, seed, quiet):
    f, m, g, gamma, phi, fam, consts = _pipeline(cfg, seed)
    rec = reconstruct_slice(g, phi, gamma, consts, cfg["eps0"], fam=fam)
    # the slice f(., gamma) m_gamma, with m_gamma(x, gamma) = m(x, 0, gamma)
    x = rec.profile.x
    path = out / "slice.csv"
    return [path], dict(_scored("slice", path, rec,
                                f(x, gamma) * m(x, 0.0, gamma), quiet),
                        eps=rec.profile.eps)


def cmd_sweep(cfg, out, seed, quiet):
    eps, levels = cfg["eps"], cfg["noise_levels"]
    f, m, g, gamma, phi, fam, consts = _pipeline(cfg, seed)
    report = stability_curve(g, f, m, phi, levels, eps, gamma, consts,
                             fam=fam, seed=seed)
    path = out / "sweep.csv"
    fields = ["sigma", "H", "N", "l2_error", "sup_error_half", "bound"]
    _write_rows_csv(path, fields, report.rows)
    jpath = out / "sweep.json"
    with open(jpath, "w") as fh:
        fh.write(json.dumps({"rows": report.rows,
                             "alpha_hat": report.alpha_hat,
                             "fit": report.fit}, indent=2))
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
    xi, eta = build_grids(cfg)
    rows, slopes = counterexample_experiment(q, cfg["lambdas"], xi, eta,
                                             tol=cfg["tolerance"])
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
        m = Weight(field_from_spec("zero"), field_from_spec("zero"))
    k_max = cfg["kernels"]["k_max"]
    fam = sjk_family(m.a, m.b, cfg["gamma"], k_max,
                     grid_n=cfg["kernels"]["grid_n"])
    rep = verify_kernel_bounds(fam, cfg["eps"] / 2.0, k_max)
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
    f, m, g, gamma, phi, fam, consts = _pipeline(cfg, seed)
    eps = cfg["eps"]

    # test function certification, to the order the pipeline may use
    results["phi_constant"] = verify_derivative_bounds(
        phi, order_cap(phi, fam is not None))

    # transport identity (weighted case only)
    if fam is not None:
        pts = [(0.02, 0.1), (-0.03, 0.2), (0.0, 0.25)]
        results["transport_residual"] = check_transport_identity(
            f, m, m.a, m.b, pts)

    # moments k = 0..2 (weighted: from the top rows of the pipeline's
    # family) against those of the mean profile
    mom = (moments_from_sinogram_unweighted(g, phi, eps, gamma, 2)
           if fam is None else
           moments_from_sinogram_weighted(g, fam, phi, eps, gamma, 2))
    t, w = gauss_nodes(200)

    def moments(values):
        return np.array([np.sum(w * t**k * values) for k in range(3)])

    def rel(a, b):
        return float(np.abs(a - b).max() / np.abs(b).max())

    truth = mean_profile(f, m, phi, eps, gamma).interpolant(t)
    results["moment_oracle_rel"] = rel(mom.values, moments(truth))

    # legendre map: the moments of the series against the extracted ones
    back = moments(moments_to_coefficients(mom)(t))
    results["legendre_roundtrip"] = rel(back, mom.values)

    # zero data soundness
    zero = Sinogram(xi=g.xi, eta=g.eta, values=np.zeros_like(g.values))
    rec0 = reconstruct_mean(zero, phi, eps, gamma, consts, fam=fam)
    results["zero_data"] = float(np.abs(rec0.profile.values).max())

    ok = (
        results.get("transport_residual", 0.0) <= 1e-4
        and results["moment_oracle_rel"] <= 1e-4
        and results["legendre_roundtrip"] <= 1e-10
        and results["zero_data"] == 0.0
    )
    path = out / "verify.json"
    with open(path, "w") as fh:
        fh.write(json.dumps({"results": results, "ok": ok}, indent=2))
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
        epilog=_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="YAML config path")
    parser.add_argument("--out", default=None, help="artifact directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override config seed")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be an integer >= 0, not {args.seed}")

    try:
        cfg = load_config(args.config)
        out = Path(args.out or cfg["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        seed = cfg["seed"] if args.seed is None else args.seed
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
