import contextlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from localradon import transform
from localradon.bumps import hormander_sequence
from localradon.means import chebyshev_grid, mean_profile
from localradon.phantoms import (
    oscillatory_phantom,
    smooth_bump,
    tabulated_phantom,
)
from localradon.transform import (
    QuadratureError,
    Sinogram,
    check_adjoint,
    check_moment_identity,
    check_transport_identity,
    fd_weights,
    radon,
    radon_moment,
    synthesize_sinogram,
)
from localradon.weights import Weight, constant_weight, field_from_spec

# Frozen line-integral values for the reference phantom under m = 1,
# computed independently with dense composite Simpson quadrature along
# the chord (20001 samples, converged to 1e-12).
FROZEN_LINES = [
    ((0.0, 0.45), 0.33634733196569144),
    ((0.05, 0.3), 0.06325848702805781),
    ((-0.1, 0.2), 0.00029147307820345905),
]
FROZEN_MOMENT1 = [
    ((0.0, 0.45), 0.028473755192515365),
    ((0.05, 0.3), 0.005629502115996068),
]


def test_radon_frozen_values(f_main, m_const):
    for (xi, eta), ref in FROZEN_LINES:
        assert radon(f_main, m_const, xi, eta, tol=1e-11) == \
            pytest.approx(ref, rel=1e-9)


def test_radon_moment_frozen_values(f_main, m_const):
    for (xi, eta), ref in FROZEN_MOMENT1:
        assert radon_moment(f_main, m_const, 1, xi, eta, tol=1e-11) == \
            pytest.approx(ref, rel=1e-9)


def test_radon_vanishes_off_support(f_main, m_const):
    # the line y = 0.3 x + 0.1 misses the bump entirely
    assert radon(f_main, m_const, 0.3, 0.1, tol=1e-10) == 0.0
    # any line with eta below the dual parabola misses {y >= x^2}
    assert radon(f_main, m_const, 0.2, -0.2, tol=1e-10) == 0.0


def test_radon_weight_scaling(f_main, m_const):
    v1 = radon(f_main, m_const, 0.05, 0.3, tol=1e-11)
    v3 = radon(f_main, constant_weight(3.0), 0.05, 0.3, tol=1e-11)
    assert v3 == pytest.approx(3.0 * v1, rel=1e-10)


def test_a_constant_weight_is_applied_bit_for_bit(f_main, record):
    # the engine multiplies by a constant Weight's level on every node (not
    # at all at level 1); evaluating the weight per node gives the same
    # bits: m = exp(0) = 1 exactly, and the level through a wrapper that
    # the engine cannot read.  Against 2.5 times the level-1 values they
    # agree only to the tolerance, since the stop rule reads |value|
    xi, eta = np.linspace(-0.13, 0.13, 11), np.linspace(-0.35, 0.35, 15)
    zero = Weight(field_from_spec("zero"), field_from_spec("zero"))
    for m, per_node in ((constant_weight(), zero),
                        (constant_weight(2.5), record(constant_weight(2.5)))):
        assert np.array_equal(
            synthesize_sinogram(f_main, m, xi, eta, tol=1e-10).values,
            synthesize_sinogram(f_main, per_node, xi, eta, tol=1e-10).values)
        assert np.array_equal(
            radon_moment(f_main, m, 1, xi[:, None], eta, 1e-10),
            radon_moment(f_main, per_node, 1, xi[:, None], eta, 1e-10))
    assert per_node.points() > 0


def test_radon_moment_on_arrays_matches_sinogram(f_main, m_const, m_exp):
    xi = np.linspace(-0.13, 0.13, 5)
    eta = np.linspace(0.2, 0.7, 6)
    for m in (m_const, m_exp):
        g = synthesize_sinogram(f_main, m, xi, eta, tol=1e-10)
        values = radon_moment(f_main, m, 0, xi[:, None], eta[None, :], 1e-10)
        assert values.shape == (5, 6)
        assert np.array_equal(values, g.values)


@pytest.mark.parametrize("m", [
    constant_weight(),
    Weight(field_from_spec("0.5*sin_xi"),
                   field_from_spec("0.5*cos_eta")),
], ids=["constant", "from_ab"])
@settings(max_examples=20, deadline=None)
@given(c1=st.floats(-3.0, 3.0), c2=st.floats(-3.0, 3.0))
def test_radon_is_linear_in_f(m, c1, c2):
    # p1 = x and p2 = (y - 0.45)^2, each times the README bump.  Each line
    # stops at error max(tol, tol |value|) with |value| < 1, so the three
    # transforms differ from exact ones by a few tol at most
    tol = 1e-10
    xi = np.linspace(-0.13, 0.13, 5)[:, None]
    eta = np.linspace(0.2, 0.7, 6)[None, :]

    def transform(*terms):
        f = smooth_bump(center=(0.0, 0.45), width=0.3, poly_coeffs=terms)
        return radon_moment(f, m, 0, xi, eta, tol)

    combined = transform((1, 0, c1), (0, 2, c2))
    parts = c1 * transform((1, 0, 1.0)) + c2 * transform((0, 2, 1.0))
    assert np.abs(combined - parts).max() <= \
        10 * tol * (1 + abs(c1) + abs(c2))


@pytest.mark.parametrize("m", [
    constant_weight(),
    Weight(field_from_spec("0.5*sin_xi"),
                   field_from_spec("0.5*cos_eta")),
], ids=["constant", "from_ab"])
@settings(max_examples=15, deadline=None)
@given(n_xi=st.integers(1, 4), n_eta=st.integers(1, 6),
       n_x=st.integers(2, 9), cx=st.floats(-0.2, 0.2),
       cy=st.floats(0.3, 0.6), width=st.floats(0.1, 0.4),
       eps=st.floats(0.05, 0.3), gamma=st.floats(0.1, 0.5))
def test_zero_data_gives_exact_zeros(record, m, n_xi, n_eta, n_x, cx, cy,
                                     width, eps, gamma):
    # with f = 0 every integrand value is an exact zero; the weight may be
    # called on empty input, but it is evaluated at no point
    f = smooth_bump(center=(cx, cy), width=width, amplitude=0.0)
    rec = record(m)
    g = synthesize_sinogram(f, rec, np.linspace(-0.13, 0.13, n_xi),
                            np.linspace(-0.35, 0.35, n_eta), tol=1e-10)
    prof = mean_profile(f, rec, hormander_sequence(4), eps, gamma,
                        x_grid=chebyshev_grid(n_x))
    assert np.all(g.values == 0.0) and np.all(prof.values == 0.0)
    assert rec.points() == 0


def _spy_on_panels(monkeypatch):
    """The line engine's panel evaluation, and a list that receives
    ``(a, b, line, (values, estimates))`` of each of its calls."""
    engine = transform._embedded_panels
    calls = []

    def spy(integrand, a, b, line):
        out = engine(integrand, a, b, line)
        calls.append((a, b, line, out))
        return out

    monkeypatch.setattr(transform, "_embedded_panels", spy)
    return engine, calls


@pytest.mark.parametrize("k", [0, 1])
def test_line_engine_evaluates_the_weight_only_where_needed(
        monkeypatch, record, m_generic, k):
    f = smooth_bump(center=(0.0, 0.45), width=0.3)
    m = record(m_generic)
    xi = np.linspace(-0.13, 0.13, 7)[:, None]
    eta = np.linspace(-0.35, 0.35, 9)[None, :]
    engine, calls = _spy_on_panels(monkeypatch)
    if k == 0:
        synthesize_sinogram(f, m, xi[:, 0], eta[0], tol=1e-10)
    else:
        radon_moment(f, m, k, xi, eta, 1e-10)
    x, xl, el = (np.concatenate([c[i].ravel() for c in m.calls])
                 for i in range(3))
    assert x.size > 0 and np.all(x**k * f(x, xl * x + el) != 0)

    # the weight on every node gives every panel the same value and
    # estimate, and was needed on exactly the points it saw
    lines_xi, lines_eta = (v.ravel() for v in np.broadcast_arrays(xi, eta))
    nonzero, nodes = [], []

    def everywhere(x, line):
        xl, el = lines_xi[line], lines_eta[line]
        v = x**k * f(x, xl * x + el) * m_generic(x, xl, el)
        nonzero.append(np.count_nonzero(v))
        nodes.append(v.size)
        return v

    for a, b, line, (values, estimates) in calls:
        ref_values, ref_estimates = engine(everywhere, a, b, line)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(estimates, ref_estimates)
    assert x.size == sum(nonzero) < sum(nodes)


class _CountingWeight(Weight):
    """A weight that counts the points it is evaluated on."""

    points = 0

    def __call__(self, x, xi, eta):
        self.points += np.broadcast(x, xi, eta).size
        return super().__call__(x, xi, eta)


def test_from_ab_weight_runs_only_where_f_is_nonzero():
    # the chord [0.293, 0.3] of (2.0, -0.5) misses the bump, so the weight
    # sees no node of it and the line is exactly 0; (3.0, 0.3) crosses it,
    # along characteristics as long as xi = 3 for 20 sin(s)
    f = smooth_bump(center=(0.0, 0.45), width=0.3)
    m = _CountingWeight(field_from_spec("20*sin_xi"), field_from_spec("zero"))
    assert radon(f, m, 2.0, -0.5) == 0.0 and m.points == 0
    value = radon(f, m, 3.0, 0.3, tol=1e-10)
    assert m.points > 0 and math.isfinite(value)
    ref = _quad_line(f, m, 3.0, 0.3, 1e-12)
    assert abs(value - ref) <= 1e-10 * max(1.0, abs(ref))


# the gated benchmark grids (perfbench/workloads.py) with their tolerances
GATED = {
    "sweep_const": (np.linspace(-0.13, 0.13, 15)[:, None],
                    np.linspace(-0.35, 0.35, 15)[None, :], 1e-10),
    "recon_generic": (np.linspace(-0.13, 0.13, 11)[:, None],
                      np.linspace(-0.35, 0.35, 9)[None, :], 1e-8),
}


def _tangent_lines(f, offsets=(-1e-6, -1e-9, 0.0, 1e-9, 2e-9, 1e-6)):
    """Lines at ``width * (1 + t)`` from the center of ``f``, above and
    below it, for each offset ``t`` and five slopes."""
    cx, cy = f.center
    xi = np.linspace(-0.5, 0.5, 5)[:, None, None]
    dist = f.width * (1.0 + np.asarray(offsets))[None, :, None]
    side = np.array([1.0, -1.0])[None, None, :]
    eta = cy - xi * cx + side * dist * np.sqrt(1.0 + xi * xi)
    return np.broadcast_arrays(xi, eta)


@contextlib.contextmanager
def _no_disc_test(monkeypatch):
    """Every line's chord left at its parabola crossing, as before lines
    that miss a bump's disc were skipped."""
    with monkeypatch.context() as patch:
        patch.setattr(transform, "_MISS_MARGIN", np.inf)
        yield


@pytest.mark.parametrize("lines", ["sweep_const", "recon_generic",
                                   "tangent", "tangent_k1"])
@pytest.mark.parametrize("m", [constant_weight(), Weight(
    field_from_spec("0.5*sin_xi"), field_from_spec("0.5*cos_eta"))],
    ids=["constant", "from_ab"])
def test_lines_that_miss_the_disc_skip_quadrature_bit_for_bit(
        monkeypatch, lines, m):
    # every node of a skipped line is off the disc, where f is exactly 0:
    # the line keeps the value +0.0, the error 0.0 and failed False that
    # its panels summed to, and every other line keeps its panels
    k = 1 if lines == "tangent_k1" else 0
    if lines in GATED:
        f = smooth_bump(center=(0.0, 0.45), width=0.3)
        xi, eta, tol = GATED[lines]
    else:
        f = smooth_bump(center=(0.1, 0.45), width=0.3)
        (xi, eta), tol = _tangent_lines(f), 1e-10
    xi, eta = np.broadcast_arrays(xi, eta)
    fast = transform._line_integrals(f, m, k, xi, eta, tol)
    lo, hi = transform._chords(f, xi, eta)
    with _no_disc_test(monkeypatch):
        slow = transform._line_integrals(f, m, k, xi, eta, tol)
        lo_all, hi_all = transform._chords(f, xi, eta)
    for new, old in zip(fast, slow):
        assert np.array_equal(new, old)
        assert np.array_equal(np.signbit(new), np.signbit(old))
    # the test skipped lines that the parabola alone would integrate
    assert np.count_nonzero(lo < hi) < np.count_nonzero(lo_all < hi_all)


def test_a_line_that_misses_the_disc_evaluates_no_node(record, m_const):
    # y = 0.8 passes 0.05 above the disc and crosses the parabola region on
    # (-0.89, 0.89); y = 0.74 crosses the disc
    f = record(smooth_bump(center=(0.0, 0.45), width=0.3))
    values, errors, failed = transform._line_integrals(
        f, m_const, 0, 0.0, np.array([0.74, 0.8]), 1e-10)
    y = np.concatenate([args[1].ravel() for args in f.calls])
    assert y.size > 0 and np.all(y == 0.74)
    assert values[1] == 0.0 and not np.signbit(values[1])
    assert errors[1] == 0.0 and not failed[1]
    assert values[0] > 0.0


def test_tabulated_chords_ignore_the_disc(monkeypatch, record, m_const):
    # a tabulated phantom's center and width are its grid's box, not a
    # disc: lines 0.5 from its center, inside the width 1, cross the box
    # and keep their chords; lines 1.1 and 1.6 from it pass the box and
    # lose theirs, and y = 1.6 (xi = 0), above the box, evaluates no node
    # and is +0.0 with error 0
    xs, ys = np.linspace(-0.5, 0.5, 5), np.linspace(0.0, 1.0, 5)
    tab = tabulated_phantom(xs, ys, np.ones((5, 5)))
    xi, eta = _tangent_lines(tab, offsets=(-0.5, 0.1, 0.6))
    lo, hi = transform._chords(tab, xi, eta)
    with _no_disc_test(monkeypatch):
        lo_all, hi_all = transform._chords(tab, xi, eta)
    cross = lo_all[:, 0] < hi_all[:, 0]
    assert cross.any() and np.array_equal(lo, lo_all)
    assert np.array_equal(hi[:, 0][cross], hi_all[:, 0][cross])
    assert np.all(lo[:, 1:] >= hi[:, 1:])
    assert np.any(lo_all[:, 1:] < hi_all[:, 1:])
    f = record(tab)
    values, errors, failed = transform._line_integrals(f, m_const, 0, 0.0,
                                                       1.6, 1e-10)
    assert f.points() == 0
    assert values == 0.0 and not np.signbit(values)
    assert errors == 0.0 and not failed


def test_radon_input_validation(f_main, m_const):
    with pytest.raises(ValueError):
        radon_moment(f_main, m_const, -1, 0.0, 0.3)
    with pytest.raises(ValueError):
        radon(f_main, m_const, 0.0, 0.3, tol=0.0)


def _quad_line(f, m, xi, eta, tol):
    """Reference line integral by scipy ``quad`` over the line's crossing
    of the phantom's bump disk, outside which the integrand vanishes."""
    cx, cy = f.center
    a = 1.0 + xi * xi
    b = 2.0 * (xi * (eta - cy) - cx)
    c = cx * cx + (eta - cy) ** 2 - f.width ** 2
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            lambda x: float(f(x, xi * x + eta)) * float(m(x, xi, eta)),
            (-b - root) / (2 * a), (-b + root) / (2 * a),
            epsabs=tol, epsrel=tol, limit=1000)
    return val


def _oracle_cases():
    main = smooth_bump(center=(0.0, 0.45), width=0.3)
    q = smooth_bump(center=(0.0, 0.5), width=0.4)
    generic = Weight(field_from_spec("0.5*sin_xi"),
                             field_from_spec("0.5*cos_eta"))
    # (phantom, weight, xi grid, eta grid, tol, extra cells); on the extra
    # lambda = 10 line (xi 0.25, eta 0.35) scipy quad asked for 1e-9
    # errs by 9e-9
    return {
        "constant": (main, constant_weight(), np.linspace(-0.13, 0.13, 15),
                     np.linspace(-0.35, 0.35, 15), 1e-10, []),
        "from_ab": (main, generic, np.linspace(-0.13, 0.13, 11),
                    np.linspace(-0.35, 0.35, 9), 1e-8, []),
        "oscillatory": (oscillatory_phantom(q, 10.0), constant_weight(),
                        np.linspace(-0.5, 0.5, 21),
                        np.linspace(-0.1, 1.2, 27), 1e-9, [(15, 9)]),
    }


@pytest.mark.parametrize("case", ["constant", "from_ab", "oscillatory"])
def test_sinogram_matches_quad_oracle(case):
    f, m, xi, eta, tol, extra = _oracle_cases()[case]
    g = synthesize_sinogram(f, m, xi, eta, tol=tol)
    assert g.failed is None
    rng = np.random.default_rng(2014)
    cells = [(i, j) for i in range(xi.size) for j in range(eta.size)]
    picks = [cells[p] for p in rng.choice(len(cells), 40, replace=False)]
    checked = 0
    for i, j in picks + extra:
        ref = _quad_line(f, m, xi[i], eta[j], tol / 100)
        if ref is None:
            continue
        checked += 1
        assert abs(g.values[i, j] - ref) <= tol * max(1.0, abs(ref)), \
            (xi[i], eta[j])
    assert checked >= 5


def test_refinement_budget_failure_is_flagged(f_main):
    # a weight that is pure noise never converges, so the line exhausts
    # the refinement budget
    rng = np.random.default_rng(0)

    class NoisyWeight:
        label = "noise"

        def __call__(self, x, xi, eta):
            return 1.0 + rng.random(np.broadcast_shapes(
                np.shape(x), np.shape(xi), np.shape(eta)))

    noisy = NoisyWeight()
    with pytest.raises(QuadratureError):
        radon(f_main, noisy, 0.0, 0.45, tol=1e-10)
    with pytest.raises(QuadratureError):
        radon_moment(f_main, noisy, 0, 0.0, np.array([-0.2, 0.45]), 1e-10)
    g = synthesize_sinogram(f_main, noisy, [0.0], [-0.2, 0.45], tol=1e-10)
    assert g.failed is not None
    assert g.failed.tolist() == [[False, True]]
    assert g.values[0, 1] == 0.0


def test_sinogram_validation():
    with pytest.raises(ValueError):
        Sinogram(xi=np.array([0.0, -0.1]), eta=np.array([0.0, 0.1]),
                 values=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Sinogram(xi=np.array([0.0, 0.1]), eta=np.array([0.0, 0.1]),
                 values=np.array([[0.0, np.nan], [0.0, 0.0]]))
    # mis-shaped values or masks would otherwise fail later, in the spline
    xi, eta = np.linspace(-0.1, 0.1, 5), np.linspace(0.0, 0.3, 7)
    for values in (np.zeros((7, 5)), np.zeros(35)):
        with pytest.raises(ValueError, match=re.escape(
                f"values have shape {values.shape}, not the grid's (5, 7)")):
            Sinogram(xi=xi, eta=eta, values=values)
    with pytest.raises(ValueError, match=re.escape(
            "failed have shape (7, 5), not the grid's (5, 7)")):
        Sinogram(xi=xi, eta=eta, values=np.zeros((5, 7)),
                 failed=np.zeros((7, 5), dtype=bool))
    g = Sinogram(xi=xi, eta=eta, values=np.zeros((5, 7)),
                 failed=np.zeros((5, 7), dtype=bool))
    assert g.values.shape == g.failed.shape == (5, 7)


def test_sinogram_interpolant_matches_samples(sino_clean):
    j = 30
    row = sino_clean.interpolant(sino_clean.xi, [sino_clean.eta[j]])[:, 0]
    assert np.allclose(row, sino_clean.values[:, j], atol=1e-12)


def test_synthesize_noise_is_seeded(f_main, m_const):
    xi = np.linspace(-0.05, 0.05, 5)
    eta = np.linspace(0.3, 0.5, 7)
    g1 = synthesize_sinogram(f_main, m_const, xi, eta, noise_sigma=1e-3,
                             seed=11, tol=1e-8)
    g2 = synthesize_sinogram(f_main, m_const, xi, eta, noise_sigma=1e-3,
                             seed=11, tol=1e-8)
    g3 = synthesize_sinogram(f_main, m_const, xi, eta, noise_sigma=1e-3,
                             seed=12, tol=1e-8)
    assert np.array_equal(g1.values, g2.values)
    assert not np.array_equal(g1.values, g3.values)


def test_adjoint_identity(f_main, m_const, m_exp, phi12):
    phi = hormander_sequence(4)

    def phi_xi(xi):
        return phi(xi / 0.1) / 0.1

    def phi_eta(eta):
        return phi((eta - 0.45) / 0.2) / 0.2

    for m in (m_const, m_exp):
        res = check_adjoint(f_main, m, phi_xi, phi_eta,
                            (-0.1, 0.1), (0.25, 0.65))
        assert res < 1e-5


def test_fd_weights_exact_on_polynomials():
    offs, wts = fd_weights(2, 7, 0.05)
    # d^2/dx^2 x^4 at 0.3 equals 12 * 0.09
    vals = (0.3 + offs) ** 4
    assert np.dot(wts, vals) == pytest.approx(12 * 0.09, rel=1e-9)


def test_moment_identity(f_main):
    points = [(0.0, 0.4), (0.05, 0.35)]
    assert check_moment_identity(f_main, 1, points) < 1e-5
    assert check_moment_identity(f_main, 2, points) < 1e-5
    with pytest.raises(ValueError):
        check_moment_identity(f_main, 5, points)


def test_transport_identity(f_main, m_exp):
    a = field_from_spec("one")
    b = field_from_spec("zero")
    points = [(0.0, 0.4), (0.04, 0.35), (-0.06, 0.45)]
    assert check_transport_identity(f_main, m_exp, a, b, points) < 1e-6
