import numpy as np
import pytest

from kerrcav import numerics
from kerrcav.errors import ValidationError

from conftest import random_hermitian
from oracles import max_abs_diff

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def test_zero_generator_gives_identity():
    for dim in (1, 2, 5):
        u = numerics.expm_hermitian(np.zeros((dim, dim)), t=3.7)
        assert max_abs_diff(u, np.eye(dim)) < 1e-14


def test_pauli_x_half_pi():
    # analytic: e^{-i (pi/2) sx} = cos(pi/2) I - i sin(pi/2) sx = -i sx
    u = numerics.expm_hermitian(SX, t=np.pi / 2)
    assert max_abs_diff(u, -1j * SX) < 1e-12


def test_diagonal_case():
    w = 2.3
    t = 0.81
    u = numerics.expm_hermitian(np.diag([0.0, w]), t)
    assert max_abs_diff(u, np.diag([1.0, np.exp(-1j * w * t)])) < 1e-12


def test_non_hermitian_rejected_with_defect():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValidationError, match="defect"):
        numerics.expm_hermitian(bad, 1.0)


def test_nonfinite_time_rejected():
    with pytest.raises(ValidationError):
        numerics.expm_hermitian(SX, np.inf)


def test_antihermitian_zero():
    # exp(A) for anti-Hermitian A is exp(-i (iA) * 1)
    u = numerics.expm_hermitian(1j * np.zeros((3, 3)), 1.0)
    assert max_abs_diff(u, np.eye(3)) < 1e-14


def test_antihermitian_rotation():
    # A = mu(|+><-| - |-><+|) in the ordered basis (|+>, |->)
    mu = 0.1
    a = mu * np.array([[0, 1], [-1, 0]], dtype=complex)
    u = numerics.expm_hermitian(1j * a, 1.0)
    assert abs(u[1, 1] - np.cos(mu)) < 1e-12      # <-|e^A|->
    assert abs(u[0, 1] - np.sin(mu)) < 1e-12      # <+|e^A|->
    assert numerics.unitarity_defect(u) < 1e-10


def test_antihermitian_rejects_hermitian_input():
    # the Hermiticity check on iA is the anti-Hermitian check on A
    with pytest.raises(ValidationError, match="not Hermitian"):
        numerics.expm_hermitian(1j * SX, 1.0)


def test_unitarity_defect_values():
    assert numerics.unitarity_defect(np.eye(4)) == 0
    phi = 1.234
    assert numerics.unitarity_defect(np.diag([1, np.exp(1j * phi)])) < 1e-15
    defect = numerics.unitarity_defect(np.diag([1.01, 1.0]))
    assert abs(defect - (1.01**2 - 1)) < 1e-12


def test_semigroup_and_inverse_properties(rng):
    for dim in (2, 7, 33, 64):
        h = random_hermitian(rng, dim)
        t1, t2 = 0.37, 1.21
        u12 = numerics.expm_hermitian(h, t1 + t2)
        u1 = numerics.expm_hermitian(h, t1)
        u2 = numerics.expm_hermitian(h, t2)
        assert max_abs_diff(u12, u1 @ u2) < 1e-9
        uinv = numerics.expm_hermitian(h, -t1)
        assert max_abs_diff(u1 @ uinv, np.eye(dim)) < 1e-9


def test_propagator_eigenvalues_on_unit_circle(rng):
    for dim in (3, 16, 64):
        h = random_hermitian(rng, dim)
        u = numerics.expm_hermitian(h, 0.9)
        eig = np.linalg.eigvals(u)
        assert np.abs(np.abs(eig) - 1).max() < 1e-9


def test_eigensystem_reuse_matches_direct(rng):
    h = random_hermitian(rng, 9)
    eig = numerics.HermitianEigensystem(h)
    for t in (0.1, 2.0, -0.7):
        assert max_abs_diff(
            eig.propagator(t), numerics.expm_hermitian(h, t)) < 1e-12


def test_as_matrix_rejects_non_square():
    with pytest.raises(ValidationError):
        numerics.as_matrix(np.zeros((2, 3)))


def test_stack_matches_its_blocks(rng):
    blocks = np.array([random_hermitian(rng, 4) for _ in range(3)])
    eig = numerics.HermitianEigensystem(blocks)
    assert eig.dim == 4
    u = eig.propagator(0.7)
    for h, block in zip(blocks, u):
        assert max_abs_diff(block, numerics.expm_hermitian(h, 0.7)) < 1e-12
    dense = numerics.block_diagonal(blocks)
    assert max_abs_diff(
        numerics.block_diagonal(u), numerics.expm_hermitian(dense, 0.7)) < 1e-12
    # a stack's defect is the worst of its blocks
    u[1] *= 1.01
    assert abs(numerics.unitarity_defect(u) - (1.01**2 - 1)) < 1e-12
    with pytest.raises(ValidationError):
        numerics.as_matrix(np.zeros((2, 3, 4)))
