import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyder, polyval2d

from localradon import phantoms
from localradon.bumps import hormander_sequence
from localradon.means import mean_profile
from localradon.phantoms import (
    PhantomSpec,
    holder_seminorm_estimate,
    lipschitz_bound,
    oscillatory_phantom,
    smooth_bump,
    tabulated_phantom,
)
from localradon.weights import constant_weight


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


def central_difference_max(p, n=401, h=1e-6):
    """Oracle: ``max |grad f|`` from central differences of ``p`` itself on
    an ``n x n`` grid over the square ``lipschitz_bound`` uses."""
    cx, cy = p.center
    xs = np.linspace(cx - 1.2 * p.width, cx + 1.2 * p.width, n)
    ys = np.linspace(cy - 1.2 * p.width, cy + 1.2 * p.width, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fx = (p(X + h, Y) - p(X - h, Y)) / (2 * h)
    fy = (p(X, Y + h) - p(X, Y - h)) / (2 * h)
    return float(np.sqrt(fx**2 + fy**2).max())


def central_difference_bound(p):
    """The oracle on the grid ``lipschitz_bound`` uses, padded 5% the same
    way."""
    return 1.05 * central_difference_max(p)


BOUND_SPECS = [
    dict(center=(0.0, 0.45), width=0.3),
    dict(center=(0.0, 0.5), width=0.4),
    dict(center=(0.1, 0.45), width=0.3, amplitude=2.0),
    dict(center=(0.0, 0.5), width=0.3,
         poly_coeffs=[(1, 0, 1.0), (0, 2, 3.0), (2, 1, -1.5)]),
    # near the vertex: gaps down to subnormal, a bound of about 9e7
    dict(center=(0.0, 0.05), width=0.3, support_constant=2.0),
]
BOUND_IDS = ["gated", "wide", "shifted_amplitude", "polynomial", "vertex"]


@pytest.mark.parametrize("spec", BOUND_SPECS, ids=BOUND_IDS)
def test_lipschitz_bound_matches_central_differences(spec):
    p = smooth_bump(**spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = lipschitz_bound(p)
    assert bound == pytest.approx(central_difference_bound(p), rel=1e-8)


def whole_grid_values(p):
    """``lipschitz_bound``'s per-point quantity as one pass over the whole
    401 x 401 grid: the same per-point expressions, on every support point
    at once.  Returns the grid indices ``(i, j)`` of the support points and
    the quantity there, ``|grad f|^2`` or the oscillatory bound."""
    cx, cy = p.center
    xs = np.linspace(cx - 1.2 * p.width, cx + 1.2 * p.width, 401)
    ys = np.linspace(cy - 1.2 * p.width, cy + 1.2 * p.width, 401)
    u, v, w2 = xs - cx, ys - cy, p.width**2
    s = 1.0 - (u[:, None] ** 2 + v**2) / w2
    gap = ys - p.support_constant * xs[:, None] ** 2
    i, j = np.nonzero((s > 0) & (gap > 0))
    x, u, v, s, gap = xs[i], u[i], v[j], s[i, j], gap[i, j]
    with np.errstate(over="ignore"):        # subnormal gaps: exp(-inf) = 0
        e = np.exp(1.0 - 1.0 / s - 1.0 / gap)
    nz = e > 0                              # and 1/gap^2 would be inf
    i, j, x, u, v, s, gap = i[nz], j[nz], x[nz], u[nz], v[nz], s[nz], gap[nz]
    norm = float(np.exp(-1.0 / (cy - p.support_constant * cx * cx)))
    f = p.amplitude / norm * e[nz]
    dr, dgap = -2.0 / (w2 * s * s), 1.0 / (gap * gap)
    fx = f * (dr * u - 2.0 * p.support_constant * x * dgap)
    fy = f * (dr * v + dgap)
    if p._poly is not None:
        poly = polyval2d(u, v, p._poly)
        fx = poly * fx + f * polyval2d(u, v, polyder(p._poly, axis=0))
        fy = poly * fy + f * polyval2d(u, v, polyder(p._poly, axis=1))
        f = poly * f
    g = fx**2 + fy**2
    if p.oscillation > 0:
        g = np.sqrt(g) / p.oscillation + np.abs(f)
    return i, j, g


def whole_grid_bound(p):
    """``lipschitz_bound`` as one pass over the whole 401 x 401 grid."""
    g = whole_grid_values(p)[2].max(initial=0.0)
    return 1.05 * float(g if p.oscillation > 0 else np.sqrt(g))


TILED_SPECS = BOUND_SPECS + [
    dict(center=(0.2, 0.3), width=0.25, support_constant=1.5),
    *[dict(center=(0.0, 0.45), width=0.3, oscillation=lam)
      for lam in (1.0, 10.0, 20.0, 40.0, 80.0, 300.0)],
    dict(center=(0.0, 0.45), width=0.3, oscillation=80.0,
         poly_coeffs=[(0, 0, 2.0), (1, 0, 1.0), (0, 2, 3.0)]),
    # narrow (the grid scales with the width, so its bounding box is still
    # 333 x 333) and a negative amplitude off the axis
    dict(center=(0.0, 0.45), width=0.01),
    dict(center=(0.15, 0.4), width=0.2, amplitude=-3.0),
]
TILED_IDS = BOUND_IDS + ["off_axis", "osc_1", "osc_10", "osc_20", "osc_40",
                         "osc_80", "osc_300", "osc_polynomial_80", "narrow",
                         "negative_off_axis"]


def tiled_spec(spec):
    spec = dict(spec)
    poly = np.asarray(spec.pop("poly_coeffs", ()), dtype=float).ravel()
    return PhantomSpec(poly_coeffs=tuple(poly), **spec)


@pytest.mark.parametrize("spec", TILED_SPECS, ids=TILED_IDS)
def test_lipschitz_bound_in_row_blocks_is_the_whole_grid_max(spec,
                                                             monkeypatch):
    # the walk skips only tiles whose bound is below a max it has already
    # found, and max is exact, so every tile size gives the whole grid's
    # bound bit for bit; exp may differ by an ulp between CPUs, so the
    # reference is recomputed rather than frozen
    p = tiled_spec(spec)
    ref = whole_grid_bound(p)
    for size in (1, 7, 8, 401):
        monkeypatch.setattr(phantoms, "_TILE", size)
        assert lipschitz_bound(p) == ref, size


@pytest.mark.parametrize("spec", TILED_SPECS, ids=TILED_IDS)
@pytest.mark.parametrize("size", [1, 8])
def test_tile_bound_holds_at_every_grid_point(spec, size, monkeypatch):
    # the float value at each support point, formed as lipschitz_bound
    # forms it, is at most its tile's bound, which is what lets the walk
    # skip a tile; one-point tiles leave the bound only its pad (the point
    # values exceed it unpadded by up to 5.7e-14 relative)
    monkeypatch.setattr(phantoms, "_TILE", size)
    p = tiled_spec(spec)
    i, j, g = whole_grid_values(p)
    # the first row and column of the support's bounding box in the grid
    i0, j0 = (np.flatnonzero((np.linspace(c - 1.2 * p.width, c + 1.2 * p.width,
                                          401) - c) ** 2 < p.width**2)[0]
              for c in p.center)
    bounds = phantoms._tiles(p)[1]
    tile = bounds[(i - i0) // phantoms._TILE, (j - j0) // phantoms._TILE]
    assert g.size > 0 and not np.any(g > tile)


def test_lipschitz_bound_peak_allocation():
    # the whole-grid pass held about 10.6 MB of temporaries at its peak
    for spec, name in zip(BOUND_SPECS, BOUND_IDS):
        p = smooth_bump(**spec)
        lipschitz_bound(p)
        tracemalloc.start()
        try:
            lipschitz_bound(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, name


@pytest.mark.parametrize("center, c", [
    ((0.0, 0.001), 1.0), ((0.0, 5e-324), 1.0), ((0.5, 0.5), 2.0),
    ((0.0, -0.1), 1.0),
], ids=["underflow", "subnormal", "on_parabola", "below"])
def test_center_next_to_the_parabola_refused(center, c):
    # exp(-1/gap) at the center, which f is divided by, underflowed to 0
    # within about 1/708 of y = c x^2, and f evaluated to inf
    with pytest.raises(ValueError, match="gap"):
        smooth_bump(center=center, support_constant=c)
    assert np.isfinite(smooth_bump(center=(0.0, 0.0015))(0.0, 0.0015))
    xs = np.linspace(-0.5, 0.5, 5)
    tab = tabulated_phantom(xs, xs, np.ones((5, 5)), support_constant=c)
    assert tab.center == (0.0, 0.0)         # samples are not normalized


def test_lipschitz_bound_refuses_an_overflow():
    # 0.0015 above the vertex f reaches about 2e286 away from its center,
    # and |grad f|^2 overflowed to c0 = inf with only a RuntimeWarning
    p = smooth_bump(center=(0.0, 0.0015))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"gap y - c x\^2 = 0\.0015"):
            lipschitz_bound(p)


def test_lipschitz_bound_only_of_bumps():
    # samples have no formula to differentiate; their c0 is declared as
    # constants.c0
    tab = tabulated_phantom(np.linspace(-0.5, 0.5, 5),
                            np.linspace(0.0, 1.0, 5), np.ones((5, 5)))
    with pytest.raises(ValueError, match="tabulated"):
        lipschitz_bound(tab)


def test_lipschitz_bound_evaluates_no_phantom(monkeypatch):
    calls = []
    call = PhantomSpec.__call__

    def counted(self, x, y):
        calls.append(np.size(x))
        return call(self, x, y)

    monkeypatch.setattr(PhantomSpec, "__call__", counted)
    p = smooth_bump(center=(0.0, 0.45), width=0.3)
    lipschitz_bound(p)
    assert calls == []
    central_difference_bound(p)             # the wrapper does count
    assert calls == [401 * 401] * 4


def test_holder_bound_computed_on_first_read(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p.kind)
        return lipschitz_bound(p)

    monkeypatch.setattr(phantoms, "lipschitz_bound", counted)
    p = smooth_bump()
    assert calls == []
    assert p.holder_bound == p.holder_bound == lipschitz_bound(p)
    assert calls == ["smooth-bump"]


@pytest.mark.parametrize("lam, poly", [
    (1.0, ()), (10.0, ()), (80.0, ()), (300.0, ()),
    (80.0, (0, 0, 2.0, 1, 0, 1.0, 0, 2, 3.0)),
], ids=["1", "10", "80", "300", "polynomial_80"])
def test_oscillatory_holder_bound_bounds_its_gradient(lam, poly):
    # grad f = grad q cos(lam x) / lam - q sin(lam x) e_x reaches about
    # |grad q| / lam + |q|; max |q| alone is 0.09 of it at lam = 1 and
    # 0.92 at lam = 10 (the README bump)
    p = PhantomSpec(center=(0.0, 0.45), width=0.3, poly_coeffs=poly,
                    oscillation=lam)
    assert p.holder_bound >= central_difference_max(p, n=801)


def test_tabulated_holder_bound_must_be_declared():
    xs = np.linspace(-0.5, 0.5, 5)
    p = PhantomSpec(grid=(xs, xs + 0.5, np.ones((5, 5))))
    with pytest.raises(ValueError, match="tabulated"):
        p.holder_bound


def test_poly_exponents_are_nonnegative_integers():
    # a fraction was truncated and a negative index wrapped, so both rows
    # silently evaluated as [(1, 0, 3.0)]
    for rows in ([(-1, 0, 2.0), (1, 0, 3.0)], [(1.7, 0, 3.0)]):
        with pytest.raises(ValueError, match="nonnegative integers"):
            smooth_bump(poly_coeffs=rows)
    f = smooth_bump(poly_coeffs=[(1, 0, 3.0)])
    assert float(f(0.1, 0.5)) == 0.2541605485196375


def test_polynomial_times_bump():
    # p(x, y) = (x - cx): odd factor kills the center value
    f = smooth_bump(center=(0.0, 0.5), width=0.3, poly_coeffs=[(1, 0, 1.0)])
    assert f.kind == "polynomial-times-bump"
    assert float(f(0.0, 0.5)) == 0.0
    assert float(f(0.1, 0.5)) != 0.0
    assert float(f(-0.1, 0.5)) == pytest.approx(-float(f(0.1, 0.5)),
                                                rel=1e-12)


def test_tabulated_roundtrip(f_main):
    xs = np.linspace(-0.5, 0.7, 161)
    ys = np.linspace(0.0, 1.0, 161)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    tab = tabulated_phantom(xs, ys, np.asarray(f_main(X, Y)))
    pts_x = np.linspace(-0.2, 0.4, 23)
    pts_y = np.linspace(0.2, 0.7, 23)
    dev = np.abs(np.asarray(tab(pts_x, pts_y))
                 - np.asarray(f_main(pts_x, pts_y))).max()
    assert dev < 2e-3


def test_tabulated_scalar_call_and_mean_profile(f_main):
    xs = np.linspace(-0.5, 0.7, 61)
    ys = np.linspace(0.0, 1.0, 61)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    tab = tabulated_phantom(xs, ys, np.asarray(f_main(X, Y)))
    v = tab(0.0, 0.5)
    assert isinstance(v, float)
    assert v == pytest.approx(float(f_main(0.0, 0.5)), abs=2e-2)
    prof = mean_profile(tab, constant_weight(), hormander_sequence(4), 0.1,
                        0.3, x_grid=np.linspace(-0.3, 0.3, 7))
    assert np.all(np.isfinite(prof.values))
    assert prof.values[3] == pytest.approx(float(tab(0.0, 0.3)), rel=1e-12)


@pytest.mark.parametrize("nx, ny", [(17, 15), (101, 101), (2, 2), (3, 5)])
@pytest.mark.parametrize("flip_x, flip_y", [(False, False), (True, False),
                                            (False, True), (True, True)])
def test_tabulated_matches_regular_grid_interpolator(nx, ny, flip_x, flip_y):
    # scipy's interpolant, 0 outside the box and then below the parabola,
    # is the oracle; a descending axis is flipped by both
    from scipy.interpolate import RegularGridInterpolator

    rng = np.random.default_rng(nx * ny)
    xs, ys = np.linspace(-0.4, 0.4, nx), np.linspace(0.1, 0.8, ny)
    values = rng.normal(size=(nx, ny))
    if flip_x:
        xs, values = xs[::-1], values[::-1]
    if flip_y:
        ys, values = ys[::-1], values[:, ::-1]
    tab = tabulated_phantom(xs, ys, values, support_constant=1.5)
    oracle = RegularGridInterpolator((xs, ys), values, bounds_error=False,
                                     fill_value=0.0)
    # random points over a larger box, the nodes, and points on the cells'
    # x and y edges, the box's sides among them; many lie outside the box
    # or below the parabola
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    x = np.concatenate([rng.uniform(-0.6, 0.6, 20000), gx.ravel(),
                        rng.choice(xs, 4000), rng.uniform(-0.5, 0.5, 4000)])
    y = np.concatenate([rng.uniform(-0.1, 1.0, 20000), gy.ravel(),
                        rng.uniform(0.0, 0.9, 4000), rng.choice(ys, 4000)])
    ref = np.where(y >= 1.5 * x * x, oracle(np.stack([x, y], -1)), 0.0)
    got = tab(x, y)
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(values).max()
    assert (ref == 0).sum() > 10000 and (ref != 0).sum() > 5000
    for px, py in ((0.0, 0.45), (xs[0], ys[-1]), (0.7, 0.5), (0.1, 0.0)):
        v = tab(px, py)
        assert isinstance(v, float)
        assert abs(v - float(np.where(py >= 1.5 * px * px, oracle(
            [px, py])[0], 0.0))) <= 1e-15 * np.abs(values).max()


@pytest.mark.parametrize("xs, ys, values, match", [
    ([0.0], np.linspace(0.1, 0.8, 3), np.ones((1, 3)), "x axis"),
    (np.linspace(-0.4, 0.4, 3), [0.5], np.ones((3, 1)), "y axis"),
    ([-0.4, np.nan, 0.4], np.linspace(0.1, 0.8, 3), np.ones((3, 3)),
     "x axis"),
    (np.linspace(-0.4, 0.4, 3), [0.1, 0.5, np.inf], np.ones((3, 3)),
     "y axis"),
    ([-0.4, 0.4, 0.0], np.linspace(0.1, 0.8, 3), np.ones((3, 3)), "x axis"),
    (np.linspace(-0.4, 0.4, 3), [0.1, 0.1, 0.8], np.ones((3, 3)), "y axis"),
    (np.linspace(-0.4, 0.4, 3), np.linspace(0.1, 0.8, 3), np.ones((3, 4)),
     "values"),
    (np.linspace(-0.4, 0.4, 3), np.linspace(0.1, 0.8, 3),
     [[1.0, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, 0.0]], "values"),
    (np.linspace(-0.4, 0.4, 3), np.linspace(0.1, 0.8, 3),
     [[1.0, 0.0, 0.0], [0.0, -np.inf, 0.0], [0.0, 0.0, 0.0]], "values"),
], ids=["one_x", "one_y", "x_nan", "y_inf", "x_unordered", "y_repeated",
        "shape", "value_nan", "value_inf"])
def test_tabulated_table_refused_at_construction(xs, ys, values, match):
    # refused when the phantom is built: an axis of one point (no cell), a
    # non-finite axis value or sample (every line through its cells would
    # carry it), and, as scipy refused them, an axis that is not strictly
    # monotone and values not of the axes' shape
    with pytest.raises(ValueError, match=f"tabulated {match}"):
        tabulated_phantom(xs, ys, values)
    with pytest.raises(ValueError, match=f"tabulated {match}"):
        PhantomSpec(grid=(xs, ys, values))


def test_tabulated_box_is_its_center_and_width():
    xs, ys = np.linspace(-0.4, 0.4, 17), np.linspace(0.1, 0.8, 15)
    values = np.ones((17, 15))
    up = tabulated_phantom(xs, ys, values)
    down = PhantomSpec(center=(9.0, 9.0), width=9.0,
                       grid=(xs[::-1], ys[::-1], values))
    assert up.center == down.center == (0.0, 0.45)
    assert up.width == down.width == 0.8
    assert up.x_extent() == down.x_extent() == 0.4


def test_cutoff_subnormal_gap_is_silent():
    # (0, 5e-324) lies inside the bump's disc, so the cutoff is taken there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = smooth_bump(center=(0.0, 0.1))(np.array([0.0]),
                                           np.array([5e-324]))
    assert v.tolist() == [0.0]


def two_factor_product(center, width, amplitude, c, poly, lam, x, y):
    """``f`` as the bump on every point of its disc times the cutoff on
    every point above the parabola, each a factor of its own; ``poly`` is
    the ``polyval2d`` matrix or None."""
    cx, cy = center
    r2 = ((x - cx) ** 2 + (y - cy) ** 2) / width**2
    bump = np.zeros_like(r2)
    inside = r2 < 1.0
    bump[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    gap = y - c * x * x
    cutoff = np.zeros_like(gap)
    pos = gap > 0
    with np.errstate(over="ignore"):
        cutoff[pos] = np.exp(-1.0 / gap[pos])
    scale = amplitude if poly is None \
        else amplitude * polyval2d(x - cx, y - cy, poly)
    out = scale * bump * cutoff
    out /= np.exp(-1.0 / (cy - c * cx * cx))
    return out * np.cos(lam * x) / lam if lam > 0 else out


@pytest.mark.parametrize("amplitude, triples, lam", [
    (-1.3, [(0, 0, 1.0), (1, 0, -2.0), (0, 1, 0.5), (2, 1, 3.0)], 0.0),
    (1.0, [], 0.0),
    (-0.7, [], 30.0),
], ids=["negative_polynomial", "bump", "oscillatory"])
def test_envelope_only_where_both_factors_are_positive(amplitude, triples,
                                                       lam):
    # the disc reaches below the parabola y = 1.5 x^2, so the points cover
    # the disc above it, the disc below it, and both outside the disc
    center, width, c = (0.1, 0.2), 0.35, 1.5
    q = smooth_bump(center, width, amplitude, c, poly_coeffs=triples)
    f = oscillatory_phantom(q, lam) if lam > 0 else q
    poly = np.zeros((3, 2)) if triples else None
    for i, j, coef in triples:
        poly[i, j] = coef
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-0.5, 0.7, 100_000),
                        np.zeros(5), [1e-170, -1e-170]])
    y = np.concatenate([rng.uniform(-0.3, 0.7, 100_000),
                        [5e-324, 1e-310, 2.2e-308, 0.0, -0.0], [0.0, 0.0]])
    got = f(x, y)
    ref = two_factor_product(center, width, amplitude, c, poly, lam, x, y)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))
    zero = ref == 0
    assert zero.sum() > 50_000
    assert np.signbit(ref[zero]).any() == (amplitude < 0)
    assert np.all(got[-7:] == 0.0)


@pytest.mark.parametrize("name", ["support_constant", "oscillation"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_values_refused(name, value):
    # a NaN passes no comparison, so each range check alone lets it through
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PhantomSpec(**{name: value})
    if name == "oscillation":
        with pytest.raises(ValueError, match="oscillation must be finite"):
            oscillatory_phantom(smooth_bump(), value)


def test_oscillatory_scaling():
    q = smooth_bump(center=(0.0, 0.5), width=0.35)
    f10 = oscillatory_phantom(q, 10.0)
    assert float(f10(0.0, 0.5)) == pytest.approx(float(q(0.0, 0.5)) / 10.0,
                                                 rel=1e-12)
    with pytest.raises(ValueError):
        oscillatory_phantom(q, -1.0)


def test_kind_follows_the_factors():
    q = smooth_bump()
    assert q.kind == "smooth-bump"
    assert oscillatory_phantom(q, 2.0).kind == "oscillatory"
    assert smooth_bump(poly_coeffs=[(0, 1, 2.0)]).kind == \
        "polynomial-times-bump"
    xs = np.linspace(-0.5, 0.5, 5)
    tab = tabulated_phantom(xs, xs + 0.5, np.ones((5, 5)))
    assert tab.kind == "tabulated"
    with pytest.raises(TypeError):
        PhantomSpec(kind="pyramid")
    with pytest.raises(ValueError):
        PhantomSpec(oscillation=-1.0)
    with pytest.raises(ValueError):
        oscillatory_phantom(tab, 2.0)


@given(x=st.floats(-1.2, 1.2), y=st.floats(-0.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_values_finite_and_bounded(f_main, x, y):
    v = float(f_main(x, y))
    assert np.isfinite(v)
    # amplitude is the center value; the cutoff normalization caps the sup
    gap = f_main.center[1] - f_main.support_constant * f_main.center[0] ** 2
    assert 0.0 <= v <= f_main.amplitude * np.exp(1.0 / gap) + 1e-12
