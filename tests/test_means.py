import math

import numpy as np
import pytest

from localradon.means import (
    chebyshev_grid,
    convergence_gap,
    holder_check_of_mean,
    mean_profile,
    support_halfwidth,
)
from localradon.weights import constant_weight, gauss_nodes

EPS = 0.1
GAMMA = 0.3


def test_chebyshev_grid_shape():
    x = chebyshev_grid(257)
    assert x[0] == -1.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0)
    assert 0.0 in x


@pytest.mark.parametrize("n", [24, 41, 96, 257])
def test_chebyshev_grid_exactly_symmetric(n):
    x = chebyshev_grid(n)
    assert np.array_equal(x, -x[::-1])


def test_support_halfwidth_solves_quadratic():
    x = support_halfwidth(EPS, GAMMA, 1.0)
    assert x * x == pytest.approx(EPS * x + GAMMA, rel=1e-13)
    # wider parabola shrinks the chord
    assert support_halfwidth(EPS, GAMMA, 2.0) < x


def test_mean_frozen_values(f_main, phi12):
    # frozen against independent adaptive quadrature of the defining
    # y-integral (scipy.integrate.quad, tol 1e-12)
    prof = mean_profile(f_main, constant_weight(), phi12, EPS, GAMMA,
                        x_grid=np.array([-0.15, 0.0, 0.2]))
    assert prof.values[2] == pytest.approx(0.11796797792060691, rel=1e-10)
    assert prof.values[0] == pytest.approx(6.817436383014705e-08,
                                           rel=1e-8)


def _scalar_loop_profile(f, m, phi, eps, gamma, xs, nodes_per_panel=14):
    """Reference: the profile one x-point and one panel at a time, with
    the weight in line coordinates ``m(x, (y - gamma)/x, gamma)``."""
    t, w = gauss_nodes(nodes_per_panel)
    bp = phi.breakpoints
    u_edges = np.append(
        np.concatenate([np.linspace(lo, hi, 3)[:-1]
                        for lo, hi in zip(bp[:-1], bp[1:])]), bp[-1])
    out = []
    for x in xs:
        half_width = eps * abs(x)
        edges = gamma + half_width * u_edges
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            ys = mid + half * t
            fy = np.asarray(f(np.full_like(ys, x), ys), dtype=float)
            fy = fy * m(np.full_like(ys, x), (ys - gamma) / x, gamma)
            phy = phi((gamma - ys) / half_width) / half_width
            total += half * np.sum(w * fy * phy)
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("weighted", [False, True])
def test_mean_profile_matches_scalar_loop(f_main, m_exp, phi12, weighted):
    m = m_exp if weighted else constant_weight()
    xs = chebyshev_grid(41)
    xs = xs[xs != 0.0]
    prof = mean_profile(f_main, m, phi12, EPS, GAMMA, x_grid=xs)
    assert np.array_equal(
        prof.values, _scalar_loop_profile(f_main, m, phi12, EPS, GAMMA, xs))


def test_mean_evaluates_the_weight_only_where_f_is_nonzero(
        record, f_main, m_generic, phi12):
    f, m = record(f_main), record(m_generic)
    xs = chebyshev_grid(41)
    gap, _ = convergence_gap(f, m, phi12, EPS, GAMMA, x_grid=xs)
    # the weight sees the x of every point where f is nonzero, in order
    needed = np.concatenate([np.asarray(x)[f_main(x, y) != 0].ravel()
                             for x, y in f.calls])
    seen = np.concatenate([x.ravel() for x, _, _ in m.calls])
    assert np.array_equal(seen, needed)
    assert 0 < seen.size < sum(x.size for x, _ in f.calls)

    # the same profile and gap as with the weight on every node
    prof = mean_profile(f_main, m_generic, phi12, EPS, GAMMA, x_grid=xs)
    off = xs != 0.0
    assert np.array_equal(prof.values[off], _scalar_loop_profile(
        f_main, m_generic, phi12, EPS, GAMMA, xs[off]))
    assert prof.values[~off] == \
        f_main(0.0, GAMMA) * m_generic(0.0, 0.0, GAMMA)
    target = f_main(xs, np.full_like(xs, GAMMA)) * m_generic(xs, 0.0, GAMMA)
    assert gap == np.abs(prof.values - target).max()


def test_mean_point_value_at_origin(f_main, phi12):
    prof = mean_profile(f_main, constant_weight(), phi12, EPS, GAMMA)
    i0 = np.argmin(np.abs(prof.x))
    assert prof.x[i0] == 0.0
    assert prof.values[i0] == pytest.approx(0.19674959465099456, rel=1e-12)


def test_weighted_mean_origin_value(f_main, m_exp, phi12):
    prof = mean_profile(f_main, m_exp, phi12, EPS, GAMMA)
    i0 = np.argmin(np.abs(prof.x))
    # m_gamma(0, gamma) = m(0, 0, gamma) = 1 for m = exp(x xi)
    assert prof.values[i0] == pytest.approx(0.19674959465099456, rel=1e-12)


def test_mean_vanishes_outside_halfwidth(f_main, phi12):
    prof = mean_profile(f_main, constant_weight(), phi12, EPS, GAMMA)
    xmax = support_halfwidth(EPS, GAMMA, f_main.support_constant)
    outside = np.abs(prof.x) > xmax + 1e-12
    assert np.all(np.abs(prof.values[outside]) < 1e-12)


def test_mean_gevrey_agrees_with_hormander(f_main, phi12, phi_gevrey2):
    # different unit-mass bumps give means within the Holder envelope
    p1 = mean_profile(f_main, constant_weight(), phi12, EPS, GAMMA)
    p2 = mean_profile(f_main, constant_weight(), phi_gevrey2, EPS, GAMMA)
    gap = np.abs(p1.values - p2.values)
    env = 2 * f_main.holder_bound * (EPS * np.abs(p1.x)) ** 1.0
    assert np.all(gap <= env + 1e-12)


def test_convergence_gap_respects_envelope(f_main, phi12):
    for eps in (0.1, 0.05, 0.02):
        gap, ratio = convergence_gap(f_main, constant_weight(), phi12, eps,
                                     GAMMA)
        assert ratio <= 1.0
    # the gap itself shrinks as eps does
    g1, _ = convergence_gap(f_main, constant_weight(), phi12, 0.1, GAMMA)
    g2, _ = convergence_gap(f_main, constant_weight(), phi12, 0.02, GAMMA)
    assert g2 < g1


def test_gamma_floor_refused(f_main, phi12):
    with pytest.raises(ValueError, match="eps\\^2/4"):
        mean_profile(f_main, constant_weight(), phi12, 0.4, 0.01)


def test_eps_validation(f_main, phi12):
    with pytest.raises(ValueError):
        mean_profile(f_main, constant_weight(), phi12, -0.1, GAMMA)


def test_l2_norm_positive(f_main, phi12):
    prof = mean_profile(f_main, constant_weight(), phi12, EPS, GAMMA)
    v = prof.l2_norm()
    assert 0.0 < v < math.sqrt(2.0) * np.abs(prof.values).max()


def test_holder_check_of_mean(f_main, phi12):
    prof = mean_profile(f_main, constant_weight(), phi12, EPS, GAMMA)
    q = holder_check_of_mean(prof, 1.0)
    assert q <= math.sqrt(2.0) * f_main.holder_bound
