import numpy as np
import pytest

from localradon.bumps import gevrey_bump, hormander_sequence
from localradon.kernels import sjk_family
from localradon.phantoms import smooth_bump
from localradon.transform import synthesize_sinogram
from localradon.weights import Weight, constant_weight, field_from_spec

EPS = 0.1
GAMMA = 0.3


@pytest.fixture(scope="session")
def f_main():
    return smooth_bump(center=(0.1, 0.45), width=0.3)


@pytest.fixture(scope="session")
def m_const():
    return constant_weight()


@pytest.fixture(scope="session")
def m_exp():
    # m = e^{x xi}: a = 1, b = 0
    return Weight(field_from_spec("one"), field_from_spec("zero"))


@pytest.fixture(scope="session")
def phi12():
    return hormander_sequence(12)


@pytest.fixture(scope="session")
def phi_gevrey2():
    return gevrey_bump(2.0, derivative_order_max=14)


@pytest.fixture(scope="session")
def f_sym():
    # even phantom: odd moments of its means vanish identically
    return smooth_bump(center=(0.0, 0.45), width=0.35)


@pytest.fixture(scope="session")
def phi8():
    return hormander_sequence(8)


@pytest.fixture(scope="session")
def sino_sym(f_sym, m_const):
    # fine eta grid and tight tolerance for the moment-oracle comparisons
    xi = np.linspace(-0.13, 0.13, 41)
    eta = np.linspace(-0.35, 0.35, 169)
    return synthesize_sinogram(f_sym, m_const, xi, eta, tol=1e-12)


@pytest.fixture(scope="session")
def sino_sym_weighted(f_sym, m_exp):
    xi = np.linspace(-0.13, 0.13, 41)
    eta = np.linspace(-0.35, 0.35, 169)
    return synthesize_sinogram(f_sym, m_exp, xi, eta, tol=1e-12)


@pytest.fixture(scope="session")
def m_generic():
    # generic xi-dependent fields: d_xi psi and S_{0,1} = Q - d_xi P matter
    return Weight(field_from_spec("0.5*sin_xi"),
                          field_from_spec("0.5*cos_eta"))


@pytest.fixture(scope="session")
def sino_sym_generic(f_sym, m_generic):
    xi = np.linspace(-0.13, 0.13, 41)
    eta = np.linspace(-0.35, 0.35, 169)
    return synthesize_sinogram(f_sym, m_generic, xi, eta, tol=1e-12)


@pytest.fixture(scope="session")
def sino_clean(f_main, m_const):
    xi = np.linspace(-0.13, 0.13, 41)
    eta = np.linspace(-0.35, 0.35, 57)
    return synthesize_sinogram(f_main, m_const, xi, eta, tol=1e-10)


@pytest.fixture(scope="session")
def sino_weighted(f_main, m_exp):
    xi = np.linspace(-0.13, 0.13, 41)
    eta = np.linspace(-0.35, 0.35, 57)
    return synthesize_sinogram(f_main, m_exp, xi, eta, tol=1e-10)


@pytest.fixture(scope="session")
def sino_wide(f_main, m_const):
    xi = np.linspace(-0.3, 0.3, 93)
    eta = np.linspace(-0.35, 0.35, 57)
    return synthesize_sinogram(f_main, m_const, xi, eta, tol=1e-10)


@pytest.fixture(scope="session")
def fam_exp():
    # kernels for the m = e^{x xi} weight family
    return sjk_family(field_from_spec("one"), field_from_spec("zero"),
                      GAMMA, 6)


@pytest.fixture(scope="session")
def fam_zero():
    return sjk_family(field_from_spec("zero"), field_from_spec("zero"),
                      GAMMA, 4)


@pytest.fixture(scope="session")
def fam_generic():
    return sjk_family(field_from_spec("0.5*sin_xi"),
                      field_from_spec("0.5*cos_eta"), GAMMA, 4)


class Recorder:
    """Stands in for a phantom or a weight: delegates every call and
    attribute to ``inner`` and keeps the broadcast arguments of each call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __call__(self, *args):
        self.calls.append(np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in args)))
        return self.inner(*args)

    def points(self) -> int:
        """The number of points evaluated over every call."""
        return sum(args[0].size for args in self.calls)


@pytest.fixture(scope="session")
def record():
    """``record(obj)`` wraps a phantom or a weight in a :class:`Recorder`."""
    return Recorder
