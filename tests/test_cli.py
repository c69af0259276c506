import json

import numpy as np
import pytest
import yaml

from localradon.cli import (
    ConfigError,
    _calibrated,
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
from localradon.kernels import sjk_family
from localradon.stability import WEIGHTED_K_MAX
from localradon.transform import Sinogram
from localradon.weights import field_from_spec, zero_field

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


def write_config(tmp_path, overrides=None, name="config.yaml"):
    cfg = dict(BASE_CONFIG)
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "nope.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(str(bad))


def test_builders():
    f = build_phantom(BASE_CONFIG)
    assert f.kind == "smooth-bump"
    m, a, b = build_weight(BASE_CONFIG)
    assert m.kind == "constant" and a is None
    m2, a2, b2 = build_weight(
        {"weight": {"kind": "from_ab", "a": "one", "b": "zero"}})
    assert m2.kind == "from_ab" and a2 is not None
    phi = build_test_function(BASE_CONFIG)
    assert phi.kind == "hormander" and phi.param == 8
    consts = build_constants(BASE_CONFIG, f)
    assert consts.c0 == f.holder_bound
    with pytest.raises(ConfigError, match="phantom.kind"):
        build_phantom({"phantom": {"kind": "torus"}})
    with pytest.raises(ConfigError, match="missing config key"):
        build_phantom({})


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


def test_config_hash_stable():
    h1 = _config_hash({"a": 1, "b": [2, 3]})
    h2 = _config_hash({"b": [2, 3], "a": 1})
    assert h1 == h2 and len(h1) == 16
    assert _config_hash({"a": 2}) != h1


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
    assert (out / "reconstruction.csv").exists()


def test_calibration_obeys_weighted_cap(sino_weighted, f_main, phi12):
    # phi12 allows N = 12, but a weighted run may not pass WEIGHTED_K_MAX,
    # so calibration may not extend the family beyond it either
    fam = sjk_family(field_from_spec("one"), zero_field(), 0.3, 2, grid_n=24)
    _calibrated({}, sino_weighted, f_main, phi12, 0.1, 0.3, fam, "analytic")
    assert max(k for _, k in fam.kernels) <= WEIGHTED_K_MAX


def test_cli_verify(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["ok"]
    assert report["results"]["zero_data"] == 0.0


def test_cli_kernels(tmp_path):
    cfg = write_config(tmp_path, {
        "weight": {"kind": "from_ab", "a": "one", "b": "zero"},
        "kernels": {"k_max": 3, "grid_n": 64},
    })
    out = tmp_path / "ker"
    assert main(["kernels", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["results"]["worst_ratio"] <= 1.0


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


def test_cli_runtime_failure_exits_1(tmp_path):
    # eps larger than the grid makes the reconstruction unrunnable
    cfg = write_config(tmp_path, {"eps": 0.5})
    assert main(["reconstruct", "--config", str(cfg), "--out",
                 str(tmp_path / "o"), "--quiet"]) == 1
