import math

import numpy as np
import pytest

from blockspin.lattice_ops import (
    SHARP,
    SMOOTH,
    AveragingProfile,
    apply_heat,
    backward_difference,
    block_average,
    block_average_adjoint,
    fine_average,
    fine_average_adjoint,
    forward_difference,
    from_next_scale,
    laplacian,
    operator_matrix,
    to_next_scale,
)
from blockspin.torus import (
    Field,
    TorusShape,
    fiber_momenta,
    fiber_split,
    inner_product,
    make_shape,
    to_modes,
)
from blockspin.symbols import averaging_symbol, commutator_average_norm


def test_forward_difference_kills_constants():
    s = make_shape(1, 3, 2, 2)
    c = Field.constant(s, "fine", 2.5 + 1j)
    for axis in range(4):
        assert np.max(np.abs(forward_difference(c, axis).values)) == 0.0


def test_forward_difference_plane_wave_symbol():
    s = make_shape(1, 3, 2, 2)
    f = Field.plane_wave(s, "fine", (3, 1, 0, 2))
    eps = s.spacings("fine")
    ext = s.fine_extents
    for axis, mode in enumerate((3, 1, 0, 2)):
        k = 2 * np.pi * mode / s.unit_extents[axis]
        expected = (np.exp(1j * k * eps[axis]) - 1.0) / eps[axis]
        out = forward_difference(f, axis)
        np.testing.assert_allclose(out.values, expected * f.values, atol=1e-12)


def test_summation_by_parts():
    rng = np.random.default_rng(0)
    s = make_shape(1, 3, 2, 2)
    f = Field.random(s, "fine", rng)
    g = Field.random(s, "fine", rng)
    for axis in range(4):
        lhs = inner_product(forward_difference(f, axis), g)
        rhs = -inner_product(f, backward_difference(g, axis))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_heat_kills_constants_and_plane_wave_symbol():
    s = make_shape(1, 3, 2, 2)
    c = Field.constant(s, "fine", 1.0)
    assert np.max(np.abs(apply_heat(c, d=1.3).values)) == 0.0
    modes = (1, 2, 0, 1)
    f = Field.plane_wave(s, "fine", modes)
    d = 0.7
    k = 2 * np.pi * np.array(modes) / np.array(s.unit_extents)
    eps_t, eps_x = s.eps_t, s.eps_x
    eig = -d * (np.exp(1j * eps_t * k[0]) - 1.0) / eps_t + sum(
        (2.0 - 2.0 * np.cos(eps_x * k[i])) / eps_x**2 for i in (1, 2, 3)
    )
    np.testing.assert_allclose(apply_heat(f, d=d).values, eig * f.values, rtol=1e-12)


def test_heat_symbol_small_k_approaches_parabolic_form():
    # relative error against -i*d*k0 + |k|^2 vanishes under k refinement
    d = 1.0
    s = make_shape(2, 3, 2, 2)
    errs = []
    for scale in (0.2, 0.1, 0.05):
        k = np.array([scale, scale / 2, scale / 3, scale / 5])
        eps_t, eps_x = s.eps_t, s.eps_x
        sym = -d * (np.exp(1j * eps_t * k[0]) - 1.0) / eps_t + sum(
            (2.0 - 2.0 * np.cos(eps_x * k[i])) / eps_x**2 for i in (1, 2, 3)
        )
        target = -1j * d * k[0] + np.dot(k[1:], k[1:])
        errs.append(abs(sym - target) / abs(target))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-3


def test_translation_invariance_of_operators():
    rng = np.random.default_rng(1)
    s = make_shape(1, 3, 9, 3)
    f = Field.random(s, "fine", rng)
    shift = (5, 2, 7, 1)

    def shifted(vals, sh):
        out = vals
        for ax, v in enumerate(sh):
            out = np.roll(out, v, axis=ax)
        return out

    for op in (lambda g: forward_difference(g, 0), laplacian, lambda g: apply_heat(g, 1.2)):
        a = op(f.with_values(shifted(f.values, shift))).values
        b = shifted(op(f).values, shift)
        np.testing.assert_allclose(a, b, atol=1e-12)
    # block/fine averages commute with block-compatible shifts
    u = Field.random(s, "unit", rng)
    Lsq, L = 9, 3
    ush = (Lsq * 1, L * 2, L * 1, 0)
    a = block_average(u.with_values(shifted(u.values, ush)), SMOOTH).values
    b = shifted(block_average(u, SMOOTH).values, (1, 2, 1, 0))
    np.testing.assert_allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH])
def test_block_average_constant(profile):
    s = make_shape(0, 3, 9, 3)
    c = Field.constant(s, "unit", 3.25 - 0.5j)
    out = block_average(c, profile)
    np.testing.assert_allclose(out.values, c.values[0, 0, 0, 0], atol=1e-13)


def test_block_average_sharp_matches_block_mean_oracle():
    # field = site index along time on a 9x3^3 unit torus
    s = make_shape(0, 3, 9, 3)
    vals = np.broadcast_to(np.arange(9, dtype=float)[:, None, None, None], (9, 3, 3, 3)).copy()
    out = block_average(Field(s, "unit", vals), SHARP)
    # blocks are centered: the time block around t=0 wraps {-4..4} = {5..8,0..4}
    expected = np.mean([v % 9 for v in range(-4, 5)])
    np.testing.assert_allclose(out.values, expected, atol=1e-12)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH])
def test_block_average_adjoint_identity(profile):
    rng = np.random.default_rng(2)
    s = make_shape(0, 3, 9, 3)
    psi = Field.random(s, "unit", rng)
    theta = Field.random(s, "coarse", rng)
    lhs = inner_product(theta, block_average(psi, profile))
    rhs = inner_product(block_average_adjoint(theta, profile), psi)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
@pytest.mark.parametrize("L, ext, sample", [(3, (9, 3, 3, 3), None), (3, (18, 3, 3, 3), None),
                                            (5, (25, 5, 5, 5), 64)])
def test_block_average_matrix_is_adjoint_transpose_over_box_volume(L, ext, sample, profile):
    # the dense step oracle takes Q = Q*^T / L^5 from the adjoint's few columns:
    # check it against Q's own roll loops, column by column.  All 3125 columns at
    # L = 5 take 3 s (SHARP) to 11 s (SMOOTH): there a sample, and a random probe
    shape = TorusShape(0, L, ext[0], ext[1])
    sites = math.prod(ext)
    want = operator_matrix(lambda f: block_average_adjoint(f, profile), shape, "coarse", "unit").T / L**5
    tol = 1e-15 * np.max(np.abs(want))
    rng = np.random.default_rng(7)
    if sample is None:
        cols = slice(None)
        got = operator_matrix(lambda f: block_average(f, profile), shape, "unit", "coarse")
    else:
        cols = np.sort(rng.choice(sites, sample, replace=False))
        got = np.stack([block_average(Field(shape, "unit", np.eye(1, sites, j).reshape(ext)), profile).values
                        .reshape(-1) for j in cols], axis=1)
        psi = Field.random(shape, "unit", rng)
        np.testing.assert_allclose(block_average(psi, profile).values.reshape(-1), want @ psi.values.reshape(-1),
                                   rtol=1e-13)
    np.testing.assert_allclose(got, want[:, cols], rtol=1e-14, atol=tol)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH])
def test_fine_average_constant_and_adjoint(profile):
    rng = np.random.default_rng(3)
    s = make_shape(1, 3, 2, 2)
    c = Field.constant(s, "fine", -1.5 + 2j)
    np.testing.assert_allclose(fine_average(c, profile).values, c.values[0, 0, 0, 0], atol=1e-13)
    psi = Field.random(s, "unit", rng)
    f = Field.random(s, "fine", rng)
    lhs = inner_product(psi, fine_average(f, profile))
    rhs = inner_product(fine_average_adjoint(psi, profile), f)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
@pytest.mark.parametrize("L", [3, 5])
@pytest.mark.parametrize("n", [0, 2])
def test_block_average_is_fine_average_of_the_one_step_shape(n, L, profile):
    # block averaging at any scale is fine averaging on the one-step torus over
    # the coarse torus, with the unit field read as that torus's fine field
    rng = np.random.default_rng(10 * L + n)
    s = make_shape(n, L, 2 * L * L, 2 * L)
    step = make_shape(1, L, s.Nt // (L * L), s.Nx // L)
    u = Field.random(s, "unit", rng)
    theta = Field.random(s, "coarse", rng)
    assert np.array_equal(block_average(u, profile).values,
                          fine_average(Field(step, "fine", u.values), profile).values)
    assert np.array_equal(block_average_adjoint(theta, profile).values,
                          fine_average_adjoint(Field(step, "unit", theta.values), profile).values)


def test_fine_average_of_adjoint_fixes_constants():
    s = make_shape(1, 3, 2, 2)
    one = Field.constant(s, "unit", 1.0)
    emb = fine_average_adjoint(one, SHARP)
    np.testing.assert_allclose(emb.values, 1.0, atol=1e-13)  # constants embed as constants
    back = fine_average(emb, SHARP)
    np.testing.assert_allclose(back.values, 1.0, atol=1e-13)


def test_fine_average_momentum_action_matches_symbol():
    rng = np.random.default_rng(4)
    s = make_shape(1, 3, 2, 2)
    f = Field.random(s, "fine", rng)
    out = fine_average(f, SHARP)
    out_modes = to_modes(out.values).reshape(-1)
    fib = fiber_split(to_modes(f.values), s)
    expect = np.sum(averaging_symbol(fiber_momenta(s), s, SHARP).reshape(fib.shape) * fib, axis=1)
    np.testing.assert_allclose(out_modes, expect, atol=1e-10)


def test_scaling_maps_inverse_and_inner_product_rule():
    rng = np.random.default_rng(5)
    s = make_shape(1, 3, 9, 3)
    nxt = s.next_scale()
    for level in ("unit", "fine"):
        f = Field.random(nxt, level, rng)
        round_trip = to_next_scale(from_next_scale(f))
        np.testing.assert_allclose(round_trip.values, f.values, atol=1e-12)
    # (1/L^2) <S^-1 a, S^-1 b>_{-1} = <a, b>_0 exactly on random pairs
    a = Field.random(nxt, "unit", rng)
    b = Field.random(nxt, "unit", rng)
    lhs = inner_product(from_next_scale(a), from_next_scale(b)) / s.L**2
    rhs = inner_product(a, b)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH])
def test_composite_average_telescopes_across_scales(profile):
    # block average of the fine average, relabeled, equals the next-scale fine average
    rng = np.random.default_rng(6)
    s = make_shape(1, 3, 9, 3)
    nxt = s.next_scale()
    phi_next = Field.random(nxt, "fine", rng)
    phi = from_next_scale(phi_next)
    lhs = to_next_scale(block_average(fine_average(phi, profile), profile))
    rhs = fine_average(phi_next, profile)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-10)


def test_profiles_agree_on_constants():
    s = make_shape(0, 3, 9, 3)
    c = Field.constant(s, "unit", 1.0 + 1.0j)
    a = block_average(c, SHARP).values
    b = block_average(c, SMOOTH).values
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_commutator_smaller_for_smooth_profile():
    # at (9, 3) the coarse torus is one site, where both norms are round-off;
    # the comparison is made on (18, 6), where they are 0.06 to 0.94
    for n in (0, 1):
        s = make_shape(n, 3, 9, 3)
        wide = make_shape(n, 3, 18, 6)
        for axis in range(4):
            assert commutator_average_norm(s, axis, SHARP) <= 1e-13
            assert commutator_average_norm(s, axis, SMOOTH) <= 1e-13
            assert commutator_average_norm(wide, axis, SMOOTH) < commutator_average_norm(wide, axis, SHARP)


def test_commutator_norm_on_a_wider_coarse_torus():
    # at (9, 3) the coarse torus is one site and both norms are round-off;
    # on (18, 6) they are not.  Reference values from the direct mode-grid
    # transform over the unit torus, before the fiber-layout evaluation.
    want = {SHARP: (0.6285393610547102, 0.9428090415820656), SMOOTH: (0.05740467984504484, 0.16433447606992582)}
    for n in (0, 1):
        s = make_shape(n, 3, 18, 6)
        for profile, (time, space) in want.items():
            got = [commutator_average_norm(s, axis, profile) for axis in range(4)]
            np.testing.assert_allclose(got, [time, space, space, space], rtol=1e-13)


def test_operator_matrix_matches_apply():
    rng = np.random.default_rng(7)
    s = make_shape(0, 3, 2, 2)
    M = operator_matrix(lambda f: apply_heat(f, 1.0), s, "unit", "unit")
    f = Field.random(s, "unit", rng)
    np.testing.assert_allclose(M @ f.values.reshape(-1), apply_heat(f, 1.0).values.reshape(-1), atol=1e-12)


def test_profile_validation():
    with pytest.raises(Exception):
        AveragingProfile(0)
