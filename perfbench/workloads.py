"""The benchmark's workloads: one CLI subcommand and one YAML config each.

Every config uses ``eps: 0.1`` and ``gamma: 0.3``.  The seed is passed on
the command line, never written into the config.  The gated configs are
sized so that one CLI run takes one to four seconds on a 2-core Xeon VM,
so that a run of the benchmark takes the median of many short samples
(README.md, Noise).  ``SMOKE`` holds the
small-grid variants that the smoke test runs in seconds; they exercise the
same code paths and the same checks.  README.md says why each workload
exists and which layer it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass

BUMP_045 = {"kind": "smooth_bump", "center": [0.0, 0.45], "width": 0.3}
BUMP_050 = {"kind": "smooth_bump", "center": [0.0, 0.5], "width": 0.4}


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: dict
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sweep_const",
            subcommand="sweep",
            config={
                "phantom": BUMP_045,
                "weight": {"kind": "constant"},
                "grid": {"xi": [-0.13, 0.13, 15], "eta": [-0.35, 0.35, 15]},
                "test_function": {"kind": "hormander", "param": 8},
                "eps": 0.1, "gamma": 0.3, "tolerance": 1e-10,
                "noise_levels": [1e-10, 1e-8, 1e-6, 1e-4],
            },
            why="unweighted certified sweep; scalar quad line integrals "
                "dominate, no kernel family is built",
        ),
        Workload(
            name="recon_generic",
            subcommand="reconstruct",
            config={
                "phantom": BUMP_045,
                "weight": {"kind": "from_ab", "a": "0.5*sin_xi",
                           "b": "0.5*cos_eta"},
                "grid": {"xi": [-0.13, 0.13, 11], "eta": [-0.35, 0.35, 9]},
                "test_function": {"kind": "hormander", "param": 4},
                "eps": 0.1, "gamma": 0.3, "tolerance": 1e-8,
                "noise_sigma": 1e-6,
                "kernels": {"k_max": 2, "grid_n": 24},
            },
            why="generic xi-dependent from_ab weight; the S_jk kernel family "
                "and its calibration dominate, weights do real work",
        ),
        # run by hand, not gated: its run time spreads too widely between
        # runs on a shared 2-core machine (README.md, Workloads)
        Workload(
            name="counterexample_osc",
            subcommand="counterexample",
            config={
                "phantom": BUMP_050,
                "grid": {"xi": [-0.5, 0.5, 21], "eta": [-0.1, 1.2, 27]},
                "lambdas": [10, 20, 40, 80],
                "eps": 0.1, "gamma": 0.3, "tolerance": 1e-9,
            },
            why="oscillatory integrands on wide-xi lines; the line-integral "
                "engine must refine, with no kernels or moments",
        ),
    )
}

SMOKE = {
    "sweep_const": {
        "grid": {"xi": [-0.13, 0.13, 15], "eta": [-0.35, 0.35, 15]},
        "tolerance": 1e-7,
    },
    "recon_generic": {
        "grid": {"xi": [-0.13, 0.13, 11], "eta": [-0.35, 0.35, 15]},
        "tolerance": 1e-6,
        "kernels": {"k_max": 1, "grid_n": 24},
    },
    "counterexample_osc": {
        "grid": {"xi": [-0.5, 0.5, 7], "eta": [-0.1, 1.2, 20]},
        "tolerance": 1e-8,
    },
}


def config_for(name: str, smoke: bool = False) -> dict:
    """The YAML config of workload ``name`` as a dict."""
    cfg = dict(WORKLOADS[name].config)
    if smoke:
        cfg.update(SMOKE[name])
    return cfg
