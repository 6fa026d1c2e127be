import numpy as np
import pytest

import kerrcav as kc
from kerrcav import hilbert, models, numerics
from kerrcav.errors import ValidationError

from oracles import index, max_abs_diff


def test_space_dimensions():
    assert kc.build_space(n_max=4, n_atoms=2, levels=3,
                          representation="product").dim == 45
    assert kc.build_space(n_max=4, n_atoms=2, levels=3,
                          representation="symmetric").dim == 30
    assert kc.build_space(n_max=0, n_atoms=1, levels=2).dim == 2


def test_dimension_guard_reports_size():
    with pytest.raises(ValidationError, match=r"\d+ exceeds"):
        kc.build_space(n_max=100, n_atoms=12, levels=3,
                       representation="product")


def test_auto_representation():
    assert kc.build_space(n_max=1, n_atoms=3, levels=2).representation == "product"
    assert kc.build_space(n_max=1, n_atoms=4, levels=2).representation == "symmetric"


def test_annihilation_action():
    space = kc.build_space(n_max=3, n_atoms=1, levels=2)
    a = kc.annihilation(space)
    ket2 = kc.basis_state(space, 2, "0")
    ket1 = kc.basis_state(space, 1, "0")
    assert max_abs_diff(a @ ket2, np.sqrt(2) * ket1) < 1e-14
    ket0 = kc.basis_state(space, 0, "0")
    assert np.abs(a @ ket0).max() == 0


def test_truncated_commutator_identity_on_inner_sectors():
    # brute-force [a, a^dag] on dims <= 10: diagonal 1 for n < n_max
    space = kc.build_space(n_max=4, n_atoms=1, levels=2)
    a = kc.annihilation(space)
    comm = a @ a.conj().T - a.conj().T @ a
    for n in range(space.n_max):
        i = index(space, n, 0)
        assert abs(comm[i, i] - 1.0) < 1e-14
    # the edge of the truncation is the only deviation
    i = index(space, space.n_max, 0)
    assert abs(comm[i, i] - (1 - (space.n_max + 1))) < 1e-12


def test_number_operator_diagonal():
    space = kc.build_space(n_max=3, n_atoms=2, levels=2)
    a = kc.annihilation(space)
    n = a.conj().T @ a
    assert max_abs_diff(n, np.diag(np.diag(n))) < 1e-14
    expected = np.repeat(np.arange(space.n_max + 1), space.atomic_dim)
    assert max_abs_diff(np.diag(n).real, expected) < 1e-12
    assert max_abs_diff(kc.number_op(space), n) < 1e-14


def test_collective_flip_on_two_atoms():
    space = kc.build_space(n_max=0, n_atoms=2, levels=2)
    spm = kc.collective(space, "+", "-")
    minus2 = kc.basis_state(space, 0, "--")
    expected = (kc.basis_state(space, 0, "+-") + kc.basis_state(space, 0, "-+"))
    assert max_abs_diff(spm @ minus2, expected) < 1e-14


def test_s3_single_atom():
    space = kc.build_space(n_max=0, n_atoms=1, levels=2)
    s3 = kc.s3(space)
    minus = kc.basis_state(space, 0, "-")
    assert max_abs_diff(s3 @ minus, -minus) < 1e-14


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("representation", ["product", "symmetric"])
@pytest.mark.parametrize("levels", [2, 3])
def test_su2_commutators(n_atoms, representation, levels):
    space = kc.build_space(n_max=1, n_atoms=n_atoms, levels=levels,
                           representation=representation)
    spm = kc.collective(space, "+", "-")
    smp = kc.collective(space, "-", "+")
    s3 = kc.s3(space)
    assert max_abs_diff(
        spm @ smp - smp @ spm, s3) < 1e-12
    # with S3 = sum(|+><+| - |-><-|) the raising constant is 2, not 1
    assert max_abs_diff(
        s3 @ spm - spm @ s3, 2 * spm) < 1e-12


def test_adjoint_exact():
    space = kc.build_space(n_max=2, n_atoms=3, levels=2,
                           representation="symmetric")
    spm = kc.collective(space, "+", "-")
    smp = kc.collective(space, "-", "+")
    assert np.array_equal(spm.conj().T, smp)


def test_basis_state_first_vector():
    space = kc.build_space(n_max=2, n_atoms=2, levels=3)
    v = kc.basis_state(space, 0, "00")
    expected = np.zeros(space.dim)
    expected[0] = 1
    assert max_abs_diff(v, expected) == 0


def test_minus_state_single_atom():
    space = kc.build_space(n_max=0, n_atoms=1, levels=2)
    v = kc.basis_state(space, 0, "-")
    expected = np.array([1, -1]) / np.sqrt(2)
    assert max_abs_diff(v, expected) < 1e-15


def test_minus_state_symmetric_two_atoms():
    # (|0> - |1>)^(x2)/2 over occupations (2,0), (1,1), (0,2)
    space = kc.build_space(n_max=0, n_atoms=2, levels=2,
                           representation="symmetric")
    v = kc.basis_state(space, 0, "--")
    expected = np.array([0.5, -1 / np.sqrt(2), 0.5])
    assert max_abs_diff(v, expected) < 1e-14


def test_symmetric_occupation_state():
    space = kc.build_space(n_max=1, n_atoms=3, levels=2,
                           representation="symmetric")
    v = kc.basis_state(space, 1, (2, 1))
    i = index(space, 1, space.atomic_basis.index((2, 1)))
    assert v[i] == 1.0 and abs(np.linalg.norm(v) - 1) < 1e-15


def test_symmetric_rejects_nonuniform_labels():
    space = kc.build_space(n_max=0, n_atoms=2, levels=2,
                           representation="symmetric")
    with pytest.raises(ValidationError):
        kc.basis_state(space, 0, "+-")


def test_level_validation():
    space2 = kc.build_space(n_max=0, n_atoms=1, levels=2)
    with pytest.raises(ValidationError):
        kc.collective(space2, 2, 0)
    with pytest.raises(ValidationError):
        kc.basis_state(space2, 0, "2")
    with pytest.raises(ValidationError):
        kc.collective(space2, "x", 0)


def test_photon_bounds_checked():
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    with pytest.raises(ValidationError):
        kc.basis_state(space, 3, "0")


def test_two_mode_operators_commute():
    space = kc.build_space(n_max=2, n_atoms=1, levels=2, n_modes=2)
    na = kc.number_op(space, 0)
    nb = kc.number_op(space, 1)
    assert max_abs_diff(na @ nb, nb @ na) < 1e-14
    b = kc.annihilation(space, 1)
    ket = kc.basis_state(space, (0, 2), "0")
    out = b @ ket
    assert abs(np.linalg.norm(out) - np.sqrt(2)) < 1e-14


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_representation_agreement(n_atoms):
    # identical overlap dynamics in the product and symmetric representations
    g = 1e8
    p = kc.SchemeParams(g=g, delta1=10 * g, theta=g,
                        omega=100 * g, n_atoms=n_atoms)
    times = np.linspace(0, 40 / g, 7)
    series = {}
    for rep in ("product", "symmetric"):
        space = kc.build_space(n_max=2, n_atoms=n_atoms, levels=2,
                               representation=rep)
        h = models.effective_hamiltonian(space, p, "h1int")
        psi = kc.basis_state(space, 1, "-" * n_atoms)
        eig = numerics.HermitianEigensystem(h)
        series[rep] = np.array([
            psi.conj() @ (eig.propagator(t) @ psi) for t in times])
    assert np.abs(series["product"] - series["symmetric"]).max() < 1e-8



def test_public_names_resolve():
    for name in kc.__all__:
        assert hasattr(kc, name), name
    assert not {"Operator", "FrameSpec"} & set(kc.__all__)
    assert not hasattr(hilbert, "Operator")
    assert not hasattr(models, "FrameSpec")


# -- the per-space operator cache -------------------------------------------

def _cached_builds(space):
    """Every cached builder once, on ``space``."""
    out = {"S01": kc.collective(space, 0, 1),
           "S+-": kc.collective(space, "+", "-"),
           "n": kc.number_op(space), "a": kc.annihilation(space),
           "psi": kc.basis_state(space, (1,) * space.n_modes,
                                 "-" * space.n_atoms)}
    if space.n_modes == 2:
        out["n_b"] = kc.number_op(space, 1)
        out["a_b"] = kc.annihilation(space, 1)
    if space.levels == 3:
        out["S20"] = kc.collective(space, 2, 0)
    return out


SPACE_ARGS = [dict(n_max=2, n_atoms=1, levels=2),
              dict(n_max=1, n_atoms=2, levels=3, representation="product"),
              dict(n_max=2, n_atoms=4, levels=3, representation="symmetric"),
              dict(n_max=1, n_atoms=1, levels=2, n_modes=2)]


@pytest.mark.parametrize("kwargs", SPACE_ARGS)
def test_cached_operators_are_read_only(kwargs):
    for name, op in _cached_builds(kc.build_space(**kwargs)).items():
        assert not op.flags.writeable, name
        with pytest.raises(ValueError):
            op[(0,) * op.ndim] = 1.0
        with pytest.raises(ValueError):
            op += 1.0


@pytest.mark.parametrize("kwargs", SPACE_ARGS)
def test_cached_operator_equals_a_fresh_build_on_an_equal_space(kwargs):
    space, twin = kc.build_space(**kwargs), kc.build_space(**kwargs)
    assert space == twin and hash(space) == hash(twin)
    first = _cached_builds(space)
    again = _cached_builds(space)
    fresh = _cached_builds(twin)
    for name, op in first.items():
        assert again[name] is op, name                 # served from the cache
        assert fresh[name] is not op, name             # each space its own
        assert np.array_equal(fresh[name], op), name


def test_cache_keys_name_the_operator_not_the_spelling():
    space = kc.build_space(n_max=2, n_atoms=2, levels=2,
                           representation="product")
    assert kc.collective(space, 0, 1) is kc.collective(space, "0", "1")
    assert kc.basis_state(space, 1, "0-") is kc.basis_state(space, [1],
                                                            ["0", "-"])
    assert kc.basis_state(space, 1, "0-") is not kc.basis_state(space, 1, "-0")
    sym = kc.build_space(n_max=1, n_atoms=2, levels=3,
                         representation="symmetric")
    occ = kc.basis_state(sym, 0, (1, 1, 0))
    assert kc.basis_state(sym, 0, [1, 1, 0]) is occ
    assert not np.array_equal(kc.basis_state(sym, 0, "00"), occ)


def test_a_failed_build_is_not_cached():
    space = kc.build_space(n_max=1, n_atoms=1, levels=2)
    for _ in range(2):
        with pytest.raises(ValidationError, match="two-level"):
            kc.collective(space, 2, 0)
        with pytest.raises(ValidationError, match="mode index"):
            kc.number_op(space, 1)
        with pytest.raises(ValidationError, match="outside"):
            kc.basis_state(space, 2, "-")
    assert not space._built


def test_the_cache_is_freed_with_its_space():
    import gc
    import weakref

    space = kc.build_space(n_max=3, n_atoms=6, levels=3,
                           representation="symmetric")
    refs = [weakref.ref(op) for op in _cached_builds(space).values()]
    assert all(r() is not None for r in refs)
    del space
    gc.collect()
    assert all(r() is None for r in refs)
