import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localradon.bumps import hormander_sequence
from localradon.means import mean_profile
from localradon.phantoms import (
    PhantomSpec,
    holder_seminorm_estimate,
    lipschitz_bound,
    oscillatory_phantom,
    polynomial_times_bump,
    smooth_bump,
    tabulated_phantom,
)


def test_center_value_is_amplitude():
    f = smooth_bump(center=(0.1, 0.45), width=0.3, amplitude=2.5)
    assert float(f(0.1, 0.45)) == pytest.approx(2.5, rel=1e-14)


def test_support_inside_parabola(f_main):
    xs = np.linspace(-1.5, 1.5, 101)
    ys = np.linspace(-0.5, 1.5, 101)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = np.asarray(f_main(X, Y))
    below = Y < f_main.support_constant * X * X
    assert np.all(vals[below] == 0.0)


def test_support_constant_validation():
    with pytest.raises(ValueError):
        smooth_bump(support_constant=0.5)
    f = smooth_bump(support_constant=2.0, center=(0.0, 0.6))
    assert float(f(0.4, 0.3)) == 0.0    # below y = 2 x^2


def test_x_extent(f_main):
    ext = f_main.x_extent()
    xs = np.array([-ext - 0.01, ext + 0.01])
    assert np.all(np.asarray(f_main(xs, np.full_like(xs, 0.45))) == 0.0)


def test_frozen_point_values(f_main):
    # frozen from direct evaluation of the defining formula
    assert float(f_main(0.0, 0.3)) == pytest.approx(0.19674959465099456,
                                                    rel=1e-12)
    assert float(f_main(0.1, 0.45)) == pytest.approx(1.0, rel=1e-12)


def test_holder_bound_respects_quotients(f_main):
    emp = holder_seminorm_estimate(f_main, 1.0, budget=4000, seed=3)
    assert emp <= f_main.holder_bound
    assert emp > 0.1 * f_main.holder_bound   # bound is not absurdly loose


def test_lipschitz_bound_positive(f_main):
    assert lipschitz_bound(f_main) > 0


def test_polynomial_times_bump():
    # p(x, y) = (x - cx): odd factor kills the center value
    f = polynomial_times_bump([(1, 0, 1.0)], center=(0.0, 0.5), width=0.3)
    assert float(f(0.0, 0.5)) == 0.0
    assert float(f(0.1, 0.5)) != 0.0
    assert float(f(-0.1, 0.5)) == pytest.approx(-float(f(0.1, 0.5)),
                                                rel=1e-12)


def test_tabulated_roundtrip(f_main):
    xs = np.linspace(-0.5, 0.7, 161)
    ys = np.linspace(0.0, 1.0, 161)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    tab = tabulated_phantom(xs, ys, np.asarray(f_main(X, Y)),
                            holder_bound=f_main.holder_bound)
    pts_x = np.linspace(-0.2, 0.4, 23)
    pts_y = np.linspace(0.2, 0.7, 23)
    dev = np.abs(np.asarray(tab(pts_x, pts_y))
                 - np.asarray(f_main(pts_x, pts_y))).max()
    assert dev < 2e-3


def test_tabulated_scalar_call_and_mean_profile(f_main):
    xs = np.linspace(-0.5, 0.7, 61)
    ys = np.linspace(0.0, 1.0, 61)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    tab = tabulated_phantom(xs, ys, np.asarray(f_main(X, Y)),
                            holder_bound=f_main.holder_bound)
    v = tab(0.0, 0.5)
    assert isinstance(v, float)
    assert v == pytest.approx(float(f_main(0.0, 0.5)), abs=2e-2)
    prof = mean_profile(tab, None, hormander_sequence(4), 0.1, 0.3,
                        x_grid=np.linspace(-0.3, 0.3, 7))
    assert np.all(np.isfinite(prof.values))
    assert prof.values[3] == pytest.approx(float(tab(0.0, 0.3)), rel=1e-12)


def test_cutoff_subnormal_gap_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = smooth_bump()(np.array([0.0]), np.array([5e-324]))
    assert v.tolist() == [0.0]


def test_oscillatory_scaling():
    q = smooth_bump(center=(0.0, 0.5), width=0.35)
    f10 = oscillatory_phantom(q, 10.0)
    assert float(f10(0.0, 0.5)) == pytest.approx(float(q(0.0, 0.5)) / 10.0,
                                                 rel=1e-12)
    with pytest.raises(ValueError):
        oscillatory_phantom(q, -1.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        PhantomSpec(kind="pyramid")


@given(x=st.floats(-1.2, 1.2), y=st.floats(-0.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_values_finite_and_bounded(f_main, x, y):
    v = float(f_main(x, y))
    assert np.isfinite(v)
    # amplitude is the center value; the cutoff normalization caps the sup
    gap = f_main.center[1] - f_main.support_constant * f_main.center[0] ** 2
    assert 0.0 <= v <= f_main.amplitude * np.exp(1.0 / gap) + 1e-12
