import numpy as np
import pytest

import kerrcav as kc
from kerrcav import experiments as ex

G = 1e8  # the reference cavity Rabi frequency used throughout


@pytest.fixture(scope="session")
def fig3b_p1():
    return ex.fig3b_params(1)


@pytest.fixture(scope="session")
def fig3b_result():
    return ex.run_fig3b()


@pytest.fixture(scope="session")
def fig3b_result_shared():
    return ex.run_fig3b(frame_calibration="n1_shared")


@pytest.fixture(scope="session")
def fig3a_result():
    return ex.run_fig3a()


@pytest.fixture(scope="session")
def cross_result():
    return ex.run_cross_kerr("polarization")


@pytest.fixture(scope="session")
def pulse_calibration(fig3b_p1):
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    return kc.calibrate_pulse_phase(space, fig3b_p1)


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
