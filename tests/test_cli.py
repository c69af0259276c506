import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localradon.cli import (
    ConfigError,
    _ConfigLoader,
    _check,
    _config_hash,
    build_constants,
    build_phantom,
    build_test_function,
    build_weight,
    load_config,
    main,
    read_sinogram_csv,
    write_sinogram_csv,
)
import localradon
from localradon import cli, phantoms
from localradon.bumps import hormander_sequence, verify_derivative_bounds
from localradon.legendre import LegendreSeries
from localradon.means import MeanProfile, mean_profile
from localradon.stability import WEIGHTED_K_MAX, data_norm, order_cap
from localradon.transform import Sinogram

FROM_AB = {"kind": "from_ab", "a": "one", "b": "zero"}
BASE_CONFIG = {
    "phantom": {"kind": "smooth_bump", "center": [0.0, 0.45], "width": 0.3},
    "weight": {"kind": "constant"},
    "grid": {"xi": [-0.13, 0.13, 21], "eta": [-0.35, 0.35, 29]},
    "test_function": {"kind": "hormander", "param": 8},
    "eps": 0.1,
    "gamma": 0.3,
    "seed": 3,
    "tolerance": 1e-8,
}
SWEEP = {"noise_levels": [1.0e-8, 1.0e-6]}
# data_norm reads the xi grid on [-eps0, eps0]
SLICE = {"grid": {"xi": [-0.35, 0.35, 57], "eta": [-0.35, 0.35, 29]},
         "eps0": 0.3}
COUNTEREXAMPLE = {
    "phantom": {"kind": "smooth_bump", "center": [0.0, 0.5], "width": 0.4},
    "grid": {"xi": [-0.5, 0.5, 7], "eta": [-0.1, 1.2, 20]},
    "lambdas": [10, 20, 40],
}


def write_config(tmp_path, overrides=None, name="config.yaml"):
    cfg = dict(BASE_CONFIG)
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def run_cli(tmp_path, subcommand, overrides=None):
    """Run ``subcommand`` in-process on the base config with ``overrides``;
    returns its artifact directory and its manifest results."""
    cfg = write_config(tmp_path, overrides, name=f"{subcommand}.yaml")
    out = tmp_path / subcommand
    assert main([subcommand, "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    return out, json.loads((out / "manifest.json").read_text())["results"]


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(str(bad))
    bad.write_text("a: [1, 2\n")
    with pytest.raises(ConfigError, match="parse error"):
        load_config(str(bad))


def test_builders():
    cfg = _check(BASE_CONFIG)
    f = build_phantom(cfg)
    assert f.kind == "smooth-bump"
    m = build_weight(cfg)
    assert m.a is None and m.label == "const(1.0)"
    m2 = build_weight(_check({"weight": FROM_AB}))
    assert m2.a is not None and m2.label == "from_ab(one,zero)"
    phi = build_test_function(cfg)
    assert phi.kind == "hormander" and phi.param == 8
    consts = build_constants(cfg, f)
    assert consts.c0 == f.holder_bound
    with pytest.raises(ConfigError, match="phantom.kind"):
        build_phantom(_check({"phantom": {"kind": "torus"}}))
    with pytest.raises(ConfigError, match="missing config key"):
        build_phantom(_check({}))


def test_sinogram_csv_roundtrip(tmp_path):
    xi = np.linspace(-0.2, 0.2, 7)
    eta = np.linspace(0.0, 0.5, 5)
    rng = np.random.default_rng(0)
    g = Sinogram(xi=xi, eta=eta, values=rng.normal(size=(7, 5)),
                 noise_sigma=1e-3, provenance={"seed": 11})
    path = tmp_path / "g.csv"
    write_sinogram_csv(path, g)
    back = read_sinogram_csv(path)
    assert np.array_equal(back.values, g.values)
    assert np.allclose(back.xi, xi) and np.allclose(back.eta, eta)
    assert back.noise_sigma == 1e-3
    assert back.provenance["seed"] == 11
    assert back.failed is None
    assert "failed" not in path.read_text()


def test_sinogram_csv_keeps_failed_cells(tmp_path):
    xi = np.linspace(-0.2, 0.2, 3)
    eta = np.linspace(0.0, 0.5, 4)
    failed = np.zeros((3, 4), dtype=bool)
    failed[1, 2] = failed[2, 0] = True
    g = Sinogram(xi=xi, eta=eta, values=np.where(failed, 0.0, 1.0),
                 failed=failed)
    path = tmp_path / "g.csv"
    write_sinogram_csv(path, g)
    back = read_sinogram_csv(path)
    assert np.array_equal(back.failed, failed)
    with pytest.raises(ValueError, match="2 failed"):
        data_norm(back, 0.1, 0.2)


def test_config_hash_stable():
    h1 = _config_hash({"a": 1, "b": [2, 3]})
    h2 = _config_hash({"b": [2, 3], "a": 1})
    assert h1 == h2 and len(h1) == 16
    assert _config_hash({"a": 2}) != h1


def test_config_hash_of_the_checked_values(tmp_path):
    # the manifest hashes the checked config, so writing out the defaults
    # (and an integer as a whole float) keeps the hash; BASE_CONFIG sets
    # seed 3, so its twin here leaves the seed at its default 0
    base = {k: v for k, v in BASE_CONFIG.items() if k != "seed"}
    twin = dict(base, seed=0, noise_sigma=0.0,
                weight={"kind": "constant", "level": 1.0},
                test_function={"kind": "hormander", "param": 8.0})
    hashes = []
    for name, cfg in (("base", base), ("twin", twin), ("seeded", BASE_CONFIG)):
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / name
        assert main(["sinogram", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        hashes.append(
            json.loads((out / "manifest.json").read_text())["config_hash"])
    assert hashes[0] == hashes[1] != hashes[2]


@pytest.mark.parametrize("subcommand, overrides", [
    ("reconstruct", None),
    ("sweep", SWEEP),
    ("verify", None),
    ("kernels", {"weight": FROM_AB, "kernels": {"k_max": 2, "grid_n": 24}}),
], ids=["reconstruct", "sweep", "verify", "kernels"])
def test_cli_checks_config_once(tmp_path, monkeypatch, subcommand,
                                overrides):
    # load_config checks the whole config once; the builders and the
    # subcommand read the checked values
    roots, check = [], cli._check

    def spy(spec, name=""):
        if not name:
            roots.append(spec)
        return check(spec, name)

    monkeypatch.setattr(cli, "_check", spy)
    run_cli(tmp_path, subcommand, overrides)
    assert len(roots) == 1


def test_cli_sinogram_deterministic(tmp_path):
    cfg = write_config(tmp_path, {"noise_sigma": 1e-4})
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["sinogram", "--config", str(cfg), "--out", str(out1),
                 "--quiet"]) == 0
    assert main(["sinogram", "--config", str(cfg), "--out", str(out2),
                 "--quiet"]) == 0
    assert (out1 / "sinogram.csv").read_text() == \
        (out2 / "sinogram.csv").read_text()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert "localradon" in manifest["versions"]
    assert any("sinogram.csv" in a for a in manifest["artifacts"])


def test_cli_seed_override_changes_noise(tmp_path):
    cfg = write_config(tmp_path, {"noise_sigma": 1e-4})
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["sinogram", "--config", str(cfg), "--out", str(out1), "--quiet"])
    main(["sinogram", "--config", str(cfg), "--out", str(out2),
          "--seed", "9", "--quiet"])
    assert (out1 / "sinogram.csv").read_text() != \
        (out2 / "sinogram.csv").read_text()


def test_cli_reconstruct(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "rec"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    res = manifest["results"]
    assert res["l2_error"] <= res["bound"]
    # the truth is the mean under the test function of the estimate,
    # phi_N, not the configured phi_8
    rows = np.loadtxt(out / "reconstruction.csv", delimiter=",",
                      skiprows=1)
    assert res["N"] != BASE_CONFIG["test_function"]["param"]
    checked = _check(BASE_CONFIG)
    truth = mean_profile(build_phantom(checked), build_weight(checked),
                         hormander_sequence(res["N"]), 0.1, 0.3,
                         x_grid=rows[:, 0])
    assert np.array_equal(rows[:, 2], truth.values)


def test_constants_sigma_selects_the_gevrey_rule(tmp_path):
    cfg = write_config(tmp_path, {"constants": {"sigma": 2.0, "c0": 50.0}})
    out = tmp_path / "gevrey"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    res = json.loads((out / "manifest.json").read_text())["results"]
    # the Gevrey mean bound 4 M (log(C/eps) log t / t)^alpha, t = log(M/H)
    M, alpha = 4.0 * 3.0 * 50.0, 1.0
    t = math.log(M / res["H"])
    gevrey = 4.0 * M * (math.log(res["c_env"] / 0.1) * math.log(t) / t) \
        ** alpha
    assert res["bound"] == pytest.approx(gevrey, rel=1e-12)
    assert res["N"] >= 1 and res["l2_error"] <= res["bound"]


def calibrations(monkeypatch):
    """The ``(N, eps)`` of every calibration the CLI runs from now on."""
    calls, calibrate = [], cli.calibrate_constants

    def spy(phi, eps, gamma, N, consts):
        calls.append((N, eps))
        return calibrate(phi, eps, gamma, N, consts)

    monkeypatch.setattr(cli, "calibrate_constants", spy)
    return calls


PHI12 = {"test_function": {"kind": "hormander", "param": 12}}


def test_calibration_obeys_weighted_cap(monkeypatch, phi12):
    # phi12 allows N = 12, but a weighted run may not pass WEIGHTED_K_MAX:
    # the pipeline's family stops there, and calibration stays inside it
    assert order_cap(phi12, weighted=True) == WEIGHTED_K_MAX
    calls = calibrations(monkeypatch)
    fam = cli._pipeline(_check(dict(BASE_CONFIG, weight=FROM_AB,
                                    kernels={"grid_n": 24}, **PHI12)),
                        3, 0.1)[5]
    assert calls == [(WEIGHTED_K_MAX, 0.1)]
    assert max(k for _, k in fam.kernels) <= WEIGHTED_K_MAX
    with pytest.raises(KeyError, match="k_max"):
        fam[(0, WEIGHTED_K_MAX + 1)]


def test_calibration_at_the_pipelines_order(monkeypatch, phi12):
    # an unweighted phi12 run may reconstruct up to N = 12, so calibration,
    # and the C_phi it certifies, must reach N = 12 too
    calls = calibrations(monkeypatch)
    cli._pipeline(_check(dict(BASE_CONFIG, **PHI12)), 3, 0.1)
    assert calls == [(order_cap(phi12, weighted=False), 0.1)] == [(12, 0.1)]


def test_slice_calibrates_at_its_eps(tmp_path, monkeypatch):
    # slice reconstructs at the eps its rule picks from the data, and the
    # envelope constant is calibrated at that same eps
    calls = calibrations(monkeypatch)
    _, res = run_cli(tmp_path, "slice", SLICE)
    assert [eps for _, eps in calls] == [res["eps"]]


@pytest.mark.parametrize("subcommand, overrides, reads", [
    ("sinogram", None, 0),
    ("counterexample", COUNTEREXAMPLE, 0),
    ("reconstruct", None, 1),
    ("sweep", SWEEP, 1),
], ids=["sinogram", "counterexample", "reconstruct", "sweep"])
def test_phantom_bound_computed_only_where_read(tmp_path, monkeypatch,
                                                subcommand, overrides, reads):
    calls = []
    bound = phantoms.lipschitz_bound

    def counted(p):
        calls.append(p.kind)
        return bound(p)

    monkeypatch.setattr(phantoms, "lipschitz_bound", counted)
    run_cli(tmp_path, subcommand, overrides)
    assert calls == ["smooth-bump"] * reads


def test_cli_sweep(tmp_path):
    out, res = run_cli(tmp_path, "sweep", SWEEP)
    with open(out / "sweep.csv") as fh:
        assert fh.readline().strip() == \
            "sigma,H,N,l2_error,sup_error_half,bound"
    rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
    assert sorted(rows[:, 0]) == SWEEP["noise_levels"]
    assert np.all(rows[:, 3] <= rows[:, 5])
    assert json.loads((out / "sweep.json").read_text())["alpha_hat"] == \
        res["alpha_hat"]


def test_cli_slice(tmp_path):
    f = build_phantom(_check(BASE_CONFIG))
    for level in (1.0, 2.0):
        (tmp_path / str(level)).mkdir()
        out, res = run_cli(tmp_path / str(level), "slice", dict(
            SLICE, weight={"kind": "constant", "level": level}))
        assert 0 < res["eps"] < SLICE["eps0"]
        assert res["N"] >= 1 and res["bound"] > 0
        rows = np.loadtxt(out / "slice.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows))
        # scored against the slice f(., gamma) m_gamma, m_gamma = level
        assert np.array_equal(rows[:, 2],
                              level * f(rows[:, 0], np.full(len(rows), 0.3)))
        gap = MeanProfile(x=rows[:, 0], values=rows[:, 1] - rows[:, 2],
                          eps=res["eps"], gamma=0.3)
        assert res["l2_error"] == pytest.approx(gap.l2_norm(), rel=1e-12)
        assert res["l2_error"] <= res["bound"]


def test_cli_slice_refuses_an_error_over_its_bound(tmp_path, monkeypatch,
                                                   capsys):
    slice_ = cli.reconstruct_slice

    def shifted(*args, **kwargs):
        rec = slice_(*args, **kwargs)
        return replace(rec, profile=replace(
            rec.profile, values=rec.profile.values + rec.bound))

    monkeypatch.setattr(cli, "reconstruct_slice", shifted)
    cfg = write_config(tmp_path, SLICE)
    assert main(["slice", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 1
    assert "error exceeds the estimate bound" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["reconstruct", "sweep"])
def test_readme_gevrey_alternative(tmp_path, subcommand):
    # the README example config with its "# or" Gevrey test function, on
    # its 21-point xi grid: the run reads moments only to the N it picks,
    # not to the order cap of 14, so the xi-spacing rule holds
    out, res = run_cli(tmp_path, subcommand, dict(
        SWEEP, test_function={"kind": "gevrey", "param": 2.0}))
    if subcommand == "reconstruct":
        assert res["N"] >= 1 and res["l2_error"] <= res["bound"]
        return
    rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
    assert len(rows) == 2 and np.all(rows[:, 2] >= 1)
    assert np.all(rows[:, 3] <= rows[:, 5])


def test_cli_counterexample(tmp_path):
    _, res = run_cli(tmp_path, "counterexample", COUNTEREXAMPLE)
    slopes = res["slopes"]
    assert len(slopes) == 2
    assert slopes[1] < slopes[0] and slopes[-1] < -3


def verify_orders(tmp_path, monkeypatch, overrides):
    """``verify`` on the base config with ``overrides``: its results and
    the orders it certified the test function to."""
    orders = []
    certify = cli.verify_derivative_bounds

    def recorded(phi, order):
        orders.append(order)
        return certify(phi, order)

    monkeypatch.setattr(cli, "verify_derivative_bounds", recorded)
    out, res = run_cli(tmp_path, "verify", overrides)
    assert json.loads((out / "verify.json").read_text())["ok"]
    return res["verify"], orders


def test_cli_verify_generic_weight(tmp_path, monkeypatch):
    # the weighted moments, from the top rows of the family, are checked
    # against the mean profile's, and the test function is certified to the
    # order the weighted pipeline may reconstruct at
    res, orders = verify_orders(tmp_path, monkeypatch, {"weight": {
        "kind": "from_ab", "a": "0.5*sin_xi", "b": "0.5*cos_eta"}})
    assert res["transport_residual"] <= 1e-4
    assert res["moment_oracle_rel"] <= 1e-4
    assert orders == [order_cap(hormander_sequence(8), weighted=True)] == [6]


def test_cli_verify_certifies_to_order_cap(tmp_path, monkeypatch):
    res, orders = verify_orders(
        tmp_path, monkeypatch,
        {"test_function": {"kind": "hormander", "param": 12}})
    assert res["moment_oracle_rel"] <= 1e-4
    assert orders == [order_cap(hormander_sequence(12), weighted=False)] \
        == [12]


def test_cli_verify(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["ok"]
    assert report["results"]["zero_data"] == 0.0
    # the test function's certified constant, at the pipeline's order cap
    assert report["results"]["phi_constant"] == verify_derivative_bounds(
        hormander_sequence(8), 8) > 0


def test_cli_verify_fails_a_wrong_legendre_map(tmp_path, monkeypatch):
    # the series is taken back to moments, so a map that returns wrong
    # coefficients fails; projecting its own series would return them
    right = cli.moments_to_coefficients
    monkeypatch.setattr(cli, "moments_to_coefficients", lambda mom: (
        LegendreSeries(right(mom).coeffs * [1.0, -3.0, 7.0])))
    cfg = write_config(tmp_path)
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 1
    report = json.loads((out / "verify.json").read_text())
    assert not report["ok"] and report["results"]["legendre_roundtrip"] > 1


def test_constant_level_scored_against_its_truth(tmp_path):
    # data of the weight 2 are 2 R[f], so both columns must double
    columns = {}
    for level in (1, 2):
        cfg = write_config(tmp_path, {"weight": {"kind": "constant",
                                                 "level": level}},
                           name=f"level{level}.yaml")
        out = tmp_path / f"rec{level}"
        assert main(["reconstruct", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        rows = np.loadtxt(out / "reconstruction.csv", delimiter=",",
                          skiprows=1)
        columns[level] = rows[:, 1:]
        assert main(["verify", "--config", str(cfg), "--out",
                     str(tmp_path / f"ver{level}"), "--quiet"]) == 0
    assert np.array_equal(columns[2], 2.0 * columns[1])


def test_cli_kernels(tmp_path):
    cfg = write_config(tmp_path, {
        "weight": FROM_AB,
        "kernels": {"k_max": 3, "grid_n": 64},
    })
    out = tmp_path / "ker"
    assert main(["kernels", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["worst_ratio"] <= 1.0


def test_exponent_numbers_without_a_dot(tmp_path):
    # YAML 1.1 reads 1e-6 as a string; the config loader reads a float
    path = tmp_path / "c.yaml"
    path.write_text(
        "phantom: {kind: smooth_bump, center: [0.0, 0.45], width: 0.3}\n"
        "grid: {xi: [-0.13, 0.13, 21], eta: [-0.35, 0.35, 29]}\n"
        "noise_sigma: 1e-6\n"
        "tolerance: 1e-8\n")
    cfg = load_config(str(path))
    assert cfg["noise_sigma"] == 1e-6 and cfg["tolerance"] == 1e-8
    other = yaml.load("[1E+3, -2e2, .5e1, 0.5*sin_xi]", Loader=_ConfigLoader)
    assert other == [1e3, -2e2, 5.0, "0.5*sin_xi"]
    assert yaml.safe_load("a: 1e-6") == {"a": "1e-6"}
    assert main(["sinogram", "--config", str(path), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 0


def test_cli_missing_config_exits_2(tmp_path):
    assert main(["sinogram", "--config", str(tmp_path / "none.yaml"),
                 "--quiet"]) == 2


def test_cli_bad_key_exits_2(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    del cfg["grid"]
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["sinogram", "--config", str(path), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 2
    assert "grid" in capsys.readouterr().err


def test_cli_missing_tabulated_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    cfg = write_config(tmp_path, {"phantom": {"kind": "tabulated",
                                              "path": str(missing)}})
    assert main(["sinogram", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: phantom.path: ")
    assert str(missing) in err


def test_tabulated_phantom_needs_c0(tmp_path, capsys):
    # samples carry no Lipschitz bound: a run that reads c0 must be given it
    f = build_phantom(_check(BASE_CONFIG))
    xs, ys = np.linspace(-0.4, 0.4, 17), np.linspace(0.1, 0.8, 15)
    values = np.asarray(f(xs[:, None], ys[None, :]), dtype=float)
    path = tmp_path / "phantom.csv"
    with open(path, "w") as fh:
        fh.write("# xi: -0.4 0.4 17\n# eta: 0.1 0.8 15\n")
        for row in values:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    tab = {"phantom": {"kind": "tabulated", "path": str(path)}}
    run_cli(tmp_path, "sinogram", tab)
    for subcommand, extra in (("reconstruct", {}), ("sweep", SWEEP),
                              ("slice", SLICE)):
        cfg = write_config(tmp_path, dict(tab, **extra),
                           name=f"{subcommand}.yaml")
        assert main([subcommand, "--config", str(cfg), "--out",
                     str(tmp_path / subcommand), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: constants.c0: ")
    run_cli(tmp_path, "reconstruct", dict(tab, constants={"c0": 16.0}))


@pytest.mark.parametrize("overrides, key, subcommand", [
    ({"weight": {"kind": "from_ab", "a": "bogus"}}, "weight.a",
     "reconstruct"),
    ({"weight": {"kind": "from_ab", "a": "x*one"}}, "weight.a",
     "reconstruct"),
    ({"weight": {"kind": "constant", "level": 0}}, "weight.level",
     "reconstruct"),
    ({"test_function": {"kind": "hormander", "param": 30}},
     "test_function.param", "reconstruct"),
    ({"test_function": {"kind": "gevrey", "param": 1.0}},
     "test_function.param", "reconstruct"),
    # the bump's mass underflows to 0 for sigma below about 1.2112
    ({"test_function": {"kind": "gevrey", "param": 1.2}},
     "test_function.param", "reconstruct"),
    ({"phantom": dict(BASE_CONFIG["phantom"], width=-1)}, "phantom.width",
     "reconstruct"),
    ({"grid": {"xi": [-0.13, 0.13, 20.5], "eta": [-0.35, 0.35, 29]}},
     "grid.xi", "reconstruct"),
    ({"mode": "bogus"}, "mode", "reconstruct"),
    ({"eps": -0.1}, "eps", "reconstruct"),
    ({"gamma": -0.3}, "gamma", "reconstruct"),
    ({"eps0": 0.0}, "eps0", "reconstruct"),
    ({"tolerance": 0.0}, "tolerance", "reconstruct"),
    ({"tolerance": -1e-8}, "tolerance", "reconstruct"),
    ({"test_function": {"kind": "hormander", "param": 4.9}},
     "test_function.param", "reconstruct"),
    ({"test_function": {"kind": "gevrey", "param": 2.0, "k_max": 8.5}},
     "test_function.k_max", "reconstruct"),
    ({"weight": FROM_AB, "kernels": {"grid_n": 1}}, "kernels.grid_n",
     "reconstruct"),
    # only the kernels subcommand reads kernels.k_max
    ({"weight": FROM_AB, "kernels": {"k_max": 2.7}}, "kernels.k_max",
     "kernels"),
    ({"weight": {"kind": "attenuation"}}, "weight.kind", "reconstruct"),
    ({"seed": 2.5}, "seed", "reconstruct"),
    ({"noise_sigma": -1e-6}, "noise_sigma", "reconstruct"),
    ({"noise_levels": [-1e-6, 1e-8]}, "noise_levels", "sweep"),
    ({"noise_levels": [1e-8, "small"]}, "noise_levels", "sweep"),
    # non-finite and degenerate values
    ({"weight": {"kind": "constant", "level": math.nan}}, "weight.level",
     "reconstruct"),
    ({"weight": {"kind": "constant", "level": math.inf}}, "weight.level",
     "reconstruct"),
    ({"weight": {"kind": "from_ab", "a": "nan*one"}}, "weight.a",
     "reconstruct"),
    ({"eps": math.inf}, "eps", "reconstruct"),
    ({"gamma": math.inf}, "gamma", "reconstruct"),
    ({"tolerance": math.inf}, "tolerance", "reconstruct"),
    ({"noise_sigma": math.inf}, "noise_sigma", "reconstruct"),
    ({"grid": {"xi": [0.13, -0.13, 21], "eta": [-0.35, 0.35, 29]}},
     "grid.xi", "reconstruct"),
    ({"grid": {"xi": [-0.13, 0.13, 1], "eta": [-0.35, 0.35, 29]}},
     "grid.xi", "reconstruct"),
    ({"grid": {"xi": [-0.13, 0.13, 21], "eta": [-0.35, 0.35, 0]}},
     "grid.eta", "reconstruct"),
    # constants.sigma, not a mode key, selects the Gevrey rule
    ({"mode": "gevrey"}, "constants.sigma", "reconstruct"),
    ({"constants": {"alpha": math.nan}}, "constants.alpha", "reconstruct"),
    # a Hölder exponent above 1 would lower the bound
    ({"constants": {"alpha": 2.0}}, "constants.alpha", "reconstruct"),
    # the envelope constant is always calibrated, never configured
    ({"constants": {"c_env": 3.0}}, "constants.c_env is not a config key",
     "reconstruct"),
    # the Jackson constant is stability.A0, not a config key
    ({"constants": {"a0": 3.0}}, "constants.a0 is not a config key",
     "reconstruct"),
    ({"constants": {"sigma": 0.5}}, "constants: sigma", "reconstruct"),
    ({"phantom": dict(BASE_CONFIG["phantom"], amplitude=math.nan)},
     "phantom.amplitude", "reconstruct"),
    ({"phantom": dict(BASE_CONFIG["phantom"], center=[math.nan, 0.45])},
     "phantom.center", "reconstruct"),
    ({"phantom": dict(BASE_CONFIG["phantom"], width=math.inf)},
     "phantom.width", "reconstruct"),
    # keys the run would ignore: misspelt, or read only by another kind
    ({"noise_sgima": 1.0e-3}, "noise_sgima", "reconstruct"),
    ({"constants": {"simga": 2.0}}, "constants.simga", "reconstruct"),
    ({"gama": 0.2}, "gama", "reconstruct"),
    ({"weight": {"a": "0.5*sin_xi", "b": "0.5*cos_eta"}}, "weight.a",
     "reconstruct"),
    ({"test_function": {"kind": "hormander", "param": 8, "k_max": 8}},
     "test_function.k_max", "reconstruct"),
    ({"phantom": dict(BASE_CONFIG["phantom"], poly_coeffs=[[0, 0, 1.0]])},
     "phantom.poly_coeffs", "reconstruct"),
    # a bool is not a number
    ({"test_function": {"kind": "hormander", "param": True}},
     "test_function.param", "reconstruct"),
    ({"weight": {"kind": "constant", "level": True}}, "weight.level",
     "reconstruct"),
    ({"seed": True}, "seed", "reconstruct"),
    ({"test_function": {"kind": "gevrey", "param": "2"}},
     "test_function.param", "reconstruct"),
    # every section is checked, also where this run does not read it
    ({"kernels": {"grid_n": 1}}, "kernels.grid_n", "reconstruct"),
    # sections that are not mappings
    ({"constants": 2.0}, "constants", "reconstruct"),
    ({"phantom": 3}, "phantom", "reconstruct"),
    ({"test_function": 8}, "test_function", "reconstruct"),
    ({"weight": "constant"}, "weight", "reconstruct"),
    ({"weight": FROM_AB, "kernels": 3}, "kernels", "reconstruct"),
    ({"lambdas": [80, 10]}, "lambdas", "counterexample"),
    ({"lambdas": "many"}, "lambdas", "counterexample"),
    ({"lambdas": [-1, 10]}, "lambdas", "counterexample"),
    ({"noise_levels": []}, "noise_levels", "sweep"),
    ({"phantom": dict(BASE_CONFIG["phantom"], support_constant=math.nan)},
     "phantom.support_constant", "reconstruct"),
    # an exponent is a nonnegative integer, never truncated or wrapped
    ({"phantom": dict(BASE_CONFIG["phantom"], kind="polynomial_times_bump",
                      poly_coeffs=[[1.7, 0, 3.0]])},
     "phantom.poly_coeffs", "sinogram"),
    ({"phantom": dict(BASE_CONFIG["phantom"], kind="polynomial_times_bump",
                      poly_coeffs=[[-1, 0, 2.0], [1, 0, 3.0]])},
     "phantom.poly_coeffs", "sinogram"),
    # each row is [i, j, c]
    *[({"phantom": dict(BASE_CONFIG["phantom"], kind="polynomial_times_bump",
                        poly_coeffs=rows)}, "phantom.poly_coeffs", "sinogram")
      for rows in ([[True, 0, 1.0]], [1, 0, 1.0], [[1, 0]],
                   [[1, 0, 1.0], [0, 1]], [["a", 0, 1.0]])],
], ids=["field", "coef", "level", "hormander", "gevrey",
        "gevrey_underflow", "width", "grid_n",
        "mode", "eps", "gamma", "eps0", "tolerance", "tolerance_negative",
        "param_fraction", "gevrey_k_max", "kernels_grid_n", "kernels_k_max",
        "attenuation", "seed", "noise_sigma", "noise_levels",
        "noise_levels_text", "level_nan", "level_inf", "coef_nan", "eps_inf",
        "gamma_inf", "tolerance_inf", "noise_sigma_inf", "grid_reversed",
        "grid_n_one", "grid_n_zero", "mode_gevrey", "alpha_nan",
        "alpha_two", "c_env_not_a_key", "a0_not_a_key", "sigma_half", "amplitude_nan",
        "center_nan", "width_inf", "noise_sgima", "constants_simga", "gama",
        "from_ab_without_kind", "hormander_k_max", "smooth_bump_poly",
        "param_bool", "level_bool", "seed_bool", "gevrey_param_text",
        "grid_n_constant_weight", "constants_scalar", "phantom_scalar",
        "test_function_scalar", "weight_scalar", "kernels_scalar",
        "lambdas_decreasing", "lambdas_text", "lambdas_negative",
        "noise_levels_empty", "support_constant_nan", "poly_fraction",
        "poly_negative", "poly_bool", "poly_flat", "poly_short",
        "poly_ragged", "poly_text"])
def test_cli_invalid_value_exits_2(tmp_path, capsys, overrides, key,
                                   subcommand):
    cfg = write_config(tmp_path, overrides)
    assert main([subcommand, "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_cli_negative_seed_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sinogram", "--config", str(cfg), "--out", str(tmp_path / "o"),
              "--seed", "-1", "--quiet"])
    assert exc.value.code == 2 and "--seed" in capsys.readouterr().err


def test_help_names_every_schema_key(capsys):
    from localradon.cli import SCHEMA
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for section, keys in SCHEMA.items():
        for key in keys:
            path = f"{section}.{key.name}" if section else key.name
            assert f"\n  {path}: {key.check.text}" in out, path


# invalid mutations of BASE_CONFIG, each with the path it must name
VALUE_PATHS = [("phantom", "kind"), ("phantom", "center"),
               ("phantom", "width"), ("weight", "kind"), ("grid", "xi"),
               ("grid", "eta"), ("test_function", "kind"),
               ("test_function", "param"), (None, "eps"), (None, "gamma"),
               (None, "seed"), (None, "tolerance")]
OTHER_KIND = [("weight", {"kind": "constant", "a": "one"}, "a"),
              ("weight", {"kind": "from_ab", "level": 2.0}, "level"),
              ("test_function", {"kind": "hormander", "k_max": 4}, "k_max"),
              ("phantom", dict(BASE_CONFIG["phantom"], path="f.csv"),
               "path"),
              ("phantom", dict(BASE_CONFIG["phantom"],
                               poly_coeffs=[[0, 0, 1.0]]), "poly_coeffs")]


@st.composite
def invalid_configs(draw):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    how = draw(st.sampled_from(["misspelt", "scalar", "value", "kind"]))
    if how == "misspelt":
        section = draw(st.sampled_from([None, "phantom", "grid",
                                        "test_function"]))
        spec = cfg[section] if section else cfg
        key = draw(st.sampled_from(sorted(spec)))
        i = draw(st.integers(0, len(key) - 1))
        typo = draw(st.sampled_from([key[:i] + key[i + 1:],
                                     key[:i] + "x" + key[i:],
                                     key[:i] + key[i] * 2 + key[i + 1:]]))
        assume(typo and typo not in spec and typo != "mode"
               and typo not in ("eps0", "lambdas"))
        spec[typo] = spec.pop(key)
        path = typo
    elif how == "scalar":
        section = draw(st.sampled_from(["phantom", "weight", "grid",
                                        "test_function", "constants",
                                        "kernels"]))
        cfg[section] = draw(st.sampled_from([2.0, 3, "text", True, [1.0]]))
        return cfg, section
    elif how == "value":
        section, key = draw(st.sampled_from(VALUE_PATHS))
        spec = cfg[section] if section else cfg
        spec[key] = draw(st.sampled_from([True, False, "text", math.nan,
                                          [1.0]]))
        path = key
    else:
        section, spec, path = draw(st.sampled_from(OTHER_KIND))
        cfg[section] = spec
    return cfg, f"{section}.{path}" if section else path


@settings(max_examples=60, deadline=None)
@given(invalid_configs())
def test_invalid_config_mutations_exit_2(case):
    cfg, path = case
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "c.yaml")
        with open(config, "w") as fh:
            yaml.safe_dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["reconstruct", "--config", config, "--out",
                         os.path.join(tmp, "o"), "--quiet"])
    # every message names the key first: "config error: <path> ..."
    assert code == 2, err.getvalue()
    assert err.getvalue().startswith(f"config error: {path} "), path


def test_cli_runtime_failure_exits_1(tmp_path):
    # eps larger than the grid makes the reconstruction unrunnable
    cfg = write_config(tmp_path, {"eps": 0.5})
    assert main(["reconstruct", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 1


def test_cli_runs_leave_out_scipy(tmp_path):
    # the pipeline is plain numpy: importing scipy.interpolate or
    # scipy.integrate costs a process 0.6-0.9 s and about 50 MB,
    # scipy.linalg 0.35 s, and scipy.stats a third of the CLI's import
    small = {"grid": {"xi": [-0.13, 0.13, 11], "eta": [-0.35, 0.35, 9]},
             "test_function": {"kind": "hormander", "param": 4},
             "tolerance": 1e-6}
    runs = [("reconstruct", small),
            ("reconstruct", dict(small, weight={
                "kind": "from_ab", "a": "0.5*sin_xi", "b": "0.5*cos_eta"},
                test_function={"kind": "gevrey", "param": 2.0},
                grid={"xi": [-0.13, 0.13, 21], "eta": [-0.35, 0.35, 9]})),
            ("sweep", dict(small, **SWEEP))]
    argvs = [[sub, "--config", str(write_config(tmp_path, cfg, f"{i}.yaml")),
              "--out", str(tmp_path / str(i)), "--quiet"]
             for i, (sub, cfg) in enumerate(runs)]
    code = ("import json, sys; from localradon import cli; "
            f"codes = [cli.main(a) for a in {argvs!r}]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules "
            "if m.startswith('scipy.'))]))")
    src = os.path.dirname(os.path.dirname(localradon.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    codes, loaded = json.loads(run.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0], run.stderr
    for name in ("scipy.interpolate", "scipy.integrate", "scipy.linalg",
                 "scipy.special", "scipy.stats"):
        assert name not in loaded, loaded
