import math

import numpy as np
import pytest

import kerrcav as kc
from kerrcav import hilbert, models
from kerrcav.errors import ValidationError

from oracles import (h1int_representation_gap, index, max_abs_diff,
                     occupation_isometry, product_collective, product_state)


def test_space_dimensions():
    # (n_max + 1)^modes * C(N + levels - 1, levels - 1)
    assert kc.build_space(n_max=4, n_atoms=2, levels=3).dim == 30
    assert kc.build_space(n_max=4, n_atoms=2, levels=2).dim == 15
    assert kc.build_space(n_max=1, n_atoms=3, levels=3, n_modes=2).dim == 40
    assert kc.build_space(n_max=0, n_atoms=1, levels=2).dim == 2


def test_dimension_guard_reports_size():
    with pytest.raises(ValidationError, match=r"1127251 exceeds"):
        kc.build_space(n_max=0, n_atoms=1500, levels=3)


def test_dimension_guard_fires_before_the_basis_is_enumerated(monkeypatch):
    def enumerate_nothing(n_atoms, levels):
        raise AssertionError(f"enumerated {n_atoms} atoms, {levels} levels")

    monkeypatch.setattr(hilbert, "_symmetric_basis", enumerate_nothing)
    with pytest.raises(ValidationError, match="exceeds the guard"):
        kc.build_space(n_max=0, n_atoms=15000, levels=3)
    with pytest.raises(ValidationError, match="exceeds the guard"):
        kc.build_space(n_max=10**6, n_atoms=1, levels=2)


@pytest.mark.parametrize("kwargs, what", [
    (dict(n_max=2.5, n_atoms=1), "n_max"),
    (dict(n_max=True, n_atoms=1), "n_max"),
    (dict(n_max=2, n_atoms=1.5), "n_atoms"),
    (dict(n_max=2, n_atoms=True), "n_atoms"),
    (dict(n_max=2, n_atoms=1, levels=2.0), "levels_per_atom"),
    (dict(n_max=2, n_atoms=1, levels=False), "levels_per_atom"),
    (dict(n_max=2, n_atoms=1, n_modes=1.0), "n_modes"),
    (dict(n_max="2", n_atoms=1), "n_max"),
])
def test_build_space_rejects_non_integral_sizes_by_name(kwargs, what):
    with pytest.raises(ValidationError, match=f"{what} must be an integer"):
        kc.build_space(**kwargs)


@pytest.mark.parametrize("call", [
    lambda s: kc.annihilation(s, 0.5),
    lambda s: kc.number_op(s, 0.5),
    lambda s: kc.annihilation(s, True),
    lambda s: kc.basis_state(s, 1.5, "-"),
    lambda s: kc.basis_state(s, (1.9,), "-"),
    lambda s: kc.basis_state(s, "2", "-"),
    lambda s: kc.basis_state(s, True, "-"),
    lambda s: kc.basis_state(s, 0, (True, False)),
], ids=["a-mode", "n-mode", "a-bool-mode", "n-float", "n-tuple-float",
        "n-str", "n-bool", "occupation-bool"])
def test_non_integral_indices_are_named_errors(call):
    space = kc.build_space(n_max=2, n_atoms=1, levels=2)
    with pytest.raises(ValidationError, match="must be an integer"):
        call(space)


def test_numpy_integers_are_accepted():
    space = kc.build_space(n_max=np.int64(2), n_atoms=np.int32(2),
                           levels=np.int8(2), n_modes=np.uint8(1))
    assert space == kc.build_space(n_max=2, n_atoms=2, levels=2)
    assert type(space.n_max) is int and space.dim == 9
    assert _same_bits(kc.number_op(space, np.int64(0)), kc.number_op(space, 0))
    assert _same_bits(kc.basis_state(space, np.int64(1), (np.int64(1), 1)),
                      kc.basis_state(space, 1, (1, 1)))


def test_an_integer_sequence_is_always_an_occupation():
    space = kc.build_space(n_max=0, n_atoms=2, levels=2)
    expected = np.zeros(space.dim)
    expected[space.atomic_basis.index((1, 1))] = 1
    for atoms in ((1, 1), [1, 1], (np.int64(1), 1)):
        assert np.array_equal(kc.basis_state(space, 0, atoms), expected)
    # the uniform label "11" is both atoms in level 1, occupation (0, 2)
    assert kc.basis_state(space, 0, "11")[space.atomic_basis.index((0, 2))] == 1


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
    # S+- |--> = |+-> + |-+>, the symmetric state with one atom flipped
    space = kc.build_space(n_max=0, n_atoms=2, levels=2)
    spm = kc.collective(space, "+", "-")
    minus2 = kc.basis_state(space, 0, "--")
    w = occupation_isometry(space)
    expected = w.T @ (product_state(2, "+-") + product_state(2, "-+"))
    assert max_abs_diff(spm @ minus2, expected) < 1e-14


def test_s3_single_atom():
    space = kc.build_space(n_max=0, n_atoms=1, levels=2)
    s3 = kc.s3(space)
    minus = kc.basis_state(space, 0, "-")
    assert max_abs_diff(s3 @ minus, -minus) < 1e-14


def _su2_triple(n_atoms, representation, levels):
    """(S+-, S-+, S3) on the package's symmetric space or on the oracle's
    Kronecker-product space of distinguishable atoms."""
    if representation == "product":
        spm, smp, spp, smm = (
            product_collective(n_atoms, levels, bra, ket)
            for bra, ket in (("+", "-"), ("-", "+"), ("+", "+"), ("-", "-")))
        return spm, smp, spp - smm
    space = kc.build_space(n_max=1, n_atoms=n_atoms, levels=levels)
    return (kc.collective(space, "+", "-"), kc.collective(space, "-", "+"),
            kc.s3(space))


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("representation", ["product", "symmetric"])
@pytest.mark.parametrize("levels", [2, 3])
def test_su2_commutators(n_atoms, representation, levels):
    spm, smp, s3 = _su2_triple(n_atoms, representation, levels)
    assert max_abs_diff(
        spm @ smp - smp @ spm, s3) < 1e-12
    # with S3 = sum(|+><+| - |-><-|) the raising constant is 2, not 1
    assert max_abs_diff(
        s3 @ spm - spm @ s3, 2 * spm) < 1e-12


def test_adjoint_exact():
    space = kc.build_space(n_max=2, n_atoms=3, levels=2)
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


@pytest.mark.parametrize("label, sign", [("-", -1), ("+", 1)],
                         ids=["minus", "plus"])
def test_pm_state_past_the_float_range_of_the_binomial(label, sign):
    # C(1100, 550) ~ 1e330 overflows a float; the amplitudes are
    # sign^m1 sqrt(C(N, m1) / 2^N), taken here to 40 digits
    from decimal import Decimal, localcontext

    N = 1100
    space = kc.build_space(n_max=0, n_atoms=N, levels=2)
    v = kc.basis_state(space, 0, label * N)
    with localcontext() as ctx:
        ctx.prec = 40
        expected = [sign**m1 * float((Decimal(math.comb(N, m1))
                                      / Decimal(2)**N).sqrt())
                    for _, m1 in space.atomic_basis]
    assert np.allclose(v, expected, rtol=1e-11, atol=0)
    assert abs(np.linalg.norm(v) - 1) < 1e-12


def test_minus_state_symmetric_two_atoms():
    # (|0> - |1>)^(x2)/2 over occupations (2,0), (1,1), (0,2)
    space = kc.build_space(n_max=0, n_atoms=2, levels=2)
    v = kc.basis_state(space, 0, "--")
    expected = np.array([0.5, -1 / np.sqrt(2), 0.5])
    assert max_abs_diff(v, expected) < 1e-14


def test_symmetric_occupation_state():
    space = kc.build_space(n_max=1, n_atoms=3, levels=2)
    v = kc.basis_state(space, 1, (2, 1))
    i = index(space, 1, space.atomic_basis.index((2, 1)))
    assert v[i] == 1.0 and abs(np.linalg.norm(v) - 1) < 1e-15


def test_symmetric_rejects_nonuniform_labels():
    space = kc.build_space(n_max=0, n_atoms=3, levels=3)
    for atoms in ("--+", "0-+", ["0", "-", "-"]):
        with pytest.raises(ValidationError, match="not uniform"):
            kc.basis_state(space, 0, atoms)


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
    # identical overlap dynamics on the symmetric space and on the oracle's
    # product space of distinguishable atoms
    g = 1e8
    p = kc.SchemeParams(g=g, delta1=10 * g, theta=g,
                        omega=100 * g, n_atoms=n_atoms)
    times = np.linspace(0, 40 / g, 7)
    space = kc.build_space(n_max=2, n_atoms=n_atoms, levels=2)
    assert h1int_representation_gap(space, p, times) < 1e-8


LEVEL_NAMES = {2: ("0", "1", "+", "-"), 3: ("0", "1", "2", "+", "-")}


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("levels", [2, 3])
def test_symmetric_space_is_the_product_space_restricted(n_atoms, levels):
    # collective = W^dag S_prod W and basis_state = W^dag psi_prod, with W
    # the occupation basis inside the Kronecker product of N atoms
    space = kc.build_space(n_max=1, n_atoms=n_atoms, levels=levels)
    w = occupation_isometry(space)
    assert max_abs_diff(w.T @ w, np.eye(space.atomic_dim)) < 1e-12
    lift = np.kron(np.eye(space.photon_dim), w)
    for bra in LEVEL_NAMES[levels]:
        for ket in LEVEL_NAMES[levels]:
            s_prod = product_collective(n_atoms, levels, bra, ket)
            assert max_abs_diff(kc.collective(space, bra, ket),
                                lift.T @ np.kron(np.eye(2), s_prod) @ lift
                                ) < 1e-12, (bra, ket)
        psi_prod = product_state(levels, bra * n_atoms)
        # the uniform product state lies in the symmetric sector
        assert max_abs_diff(w @ (w.T @ psi_prod), psi_prod) < 1e-12
        for n in (0, 1):
            expected = np.kron(np.eye(2)[n], w.T @ psi_prod)
            assert max_abs_diff(kc.basis_state(space, n, bra * n_atoms),
                                expected) < 1e-12, bra
    for j, occ in enumerate(space.atomic_basis):
        assert np.array_equal(kc.basis_state(space, 0, occ)[:space.atomic_dim],
                              np.eye(space.atomic_dim)[j])



def test_public_names_resolve():
    for name in kc.__all__:
        assert hasattr(kc, name), name
    assert not {"Operator", "FrameSpec"} & set(kc.__all__)
    assert not hasattr(hilbert, "Operator")
    assert not hasattr(models, "FrameSpec")


# -- builders return fresh arrays -------------------------------------------

def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and \
        x.tobytes() == y.tobytes()


def _builds(space):
    """Every operator and state builder once, on ``space``."""
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
              dict(n_max=1, n_atoms=2, levels=3),
              dict(n_max=2, n_atoms=4, levels=3),
              dict(n_max=1, n_atoms=1, levels=2, n_modes=2)]


@pytest.mark.parametrize("kwargs", SPACE_ARGS)
def test_cached_operators_are_read_only(kwargs):
    """No caller's in-place write reaches an array another call returns:
    each returned array is the caller's own to write."""
    space = kc.build_space(**kwargs)
    first, again = _builds(space), _builds(space)
    for name, op in first.items():
        assert not np.shares_memory(again[name], op), name
        assert op.flags.writeable, name
        op[(0,) * op.ndim] += 1.0
        op *= 2.0
        assert _same_bits(_builds(space)[name], again[name]), name


@pytest.mark.parametrize("kwargs", SPACE_ARGS)
def test_cached_operator_equals_a_fresh_build_on_an_equal_space(kwargs):
    space, twin = kc.build_space(**kwargs), kc.build_space(**kwargs)
    assert space == twin and hash(space) == hash(twin)
    first, again, on_twin = _builds(space), _builds(space), _builds(twin)
    for name, op in first.items():
        assert again[name] is not op, name
        assert _same_bits(again[name], op), name
        assert _same_bits(on_twin[name], op), name


def test_every_spelling_of_an_operator_builds_the_same_bits():
    space = kc.build_space(n_max=2, n_atoms=2, levels=2)
    assert _same_bits(kc.collective(space, 0, 1),
                      kc.collective(space, "0", "1"))
    assert _same_bits(kc.basis_state(space, 1, "--"),
                      kc.basis_state(space, [1], ["-", "-"]))
    assert not _same_bits(kc.basis_state(space, 1, "--"),
                          kc.basis_state(space, 1, "++"))
    sym = kc.build_space(n_max=1, n_atoms=2, levels=3)
    occ = kc.basis_state(sym, 0, (1, 1, 0))
    assert _same_bits(kc.basis_state(sym, 0, [1, 1, 0]), occ)
    assert not np.array_equal(kc.basis_state(sym, 0, "00"), occ)


def test_a_failed_build_raises_its_named_error_every_time():
    space = kc.build_space(n_max=1, n_atoms=1, levels=2)
    for _ in range(2):
        with pytest.raises(ValidationError, match="two-level"):
            kc.collective(space, 2, 0)
        with pytest.raises(ValidationError, match="mode index"):
            kc.number_op(space, 1)
        with pytest.raises(ValidationError, match="outside"):
            kc.basis_state(space, 2, "-")
