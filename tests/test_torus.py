import numpy as np
import pytest

from blockspin.torus import (
    Field,
    FieldPair,
    LatticeError,
    TorusShape,
    fft_mode_grid,
    fiber_merge,
    fiber_momenta,
    fiber_split,
    from_modes,
    inner_product,
    make_shape,
    negate_modes,
    radians_for_modes,
    to_modes,
)


def test_identity_scale_shape():
    s = make_shape(0, 3, 4, 4)
    assert s.fine_extents == s.unit_extents
    assert s.eps_t == 1.0 and s.eps_x == 1.0


def test_scale_one_shape():
    s = make_shape(1, 3, 4, 4)
    assert s.fine_extents == (36, 12, 12, 12)
    assert s.eps_t == pytest.approx(1.0 / 9.0)
    assert s.eps_x == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("bad", [dict(L=2), dict(L=4), dict(L=1), dict(Nt=0), dict(Nx=-1), dict(n=-1),
                                 dict(Nt=2.5), dict(L=3.0), dict(n=True), dict(Nx=np.float64(4)), dict(Nt="4")])
def test_shape_rejects_invalid(bad):
    kwargs = dict(n=1, L=3, Nt=4, Nx=4)
    kwargs.update(bad)
    with pytest.raises(LatticeError) as info:
        make_shape(**kwargs)
    ((name, value),) = bad.items()
    if type(value) is not int:
        assert f"{name} must be an integer" in str(info.value)


def test_shape_keeps_numpy_integers_as_python_ints():
    assert make_shape(np.int64(1), np.int32(3), np.int64(4), np.uint8(4)) == make_shape(1, 3, 4, 4)
    assert make_shape(np.int64(20), np.int64(3), 1, 1).mt == 3**40  # L^(2n) does not wrap at 64 bits


def test_site_count_bookkeeping():
    for n in (0, 1, 2):
        s = make_shape(n, 3, 2, 2)
        assert s.sites("fine") == 3 ** (5 * n) * s.sites("unit")


def test_block_step_divisibility():
    s = make_shape(0, 3, 9, 3)
    assert s.can_block_step
    assert s.next_scale() == TorusShape(1, 3, 1, 1)
    with pytest.raises(LatticeError):
        make_shape(0, 3, 4, 4).coarse_extents  # noqa: B018


def test_inner_product_constants_unit():
    s = make_shape(0, 3, 4, 4)
    one = Field.constant(s, "unit", 1.0)
    assert inner_product(one, one) == pytest.approx(256.0)


def test_inner_product_constants_fine_weight_cancels():
    s = make_shape(1, 3, 4, 4)
    one = Field.constant(s, "fine", 1.0)
    # L^-5 * 36 * 12^3 = 256: the weight cancels the site-count ratio
    assert inner_product(one, one) == pytest.approx(256.0)


def test_inner_product_bilinear():
    rng = np.random.default_rng(7)
    s = make_shape(0, 3, 2, 2)
    a = Field.random(s, "unit", rng)
    b = Field.random(s, "unit", rng)
    c = Field.random(s, "unit", rng)
    lhs = inner_product(a, b.with_values(b.values + c.values))
    assert lhs == pytest.approx(inner_product(a, b) + inner_product(a, c), rel=1e-14)


def test_inner_product_level_mismatch():
    s = make_shape(1, 3, 9, 3)
    with pytest.raises(LatticeError):
        inner_product(Field.zeros(s, "unit"), Field.zeros(s, "fine"))


def test_dual_lattice_two_point():
    s = make_shape(0, 3, 2, 2)
    rad = radians_for_modes(s, fft_mode_grid(s.unit_extents).reshape(-1, 4))
    assert rad.shape == (16, 4)
    assert set(np.abs(rad).ravel()) == {0.0, np.pi}


def test_dual_lattice_contains_zero_and_negation():
    s = make_shape(0, 3, 4, 4)
    modes = {tuple(m) for m in fft_mode_grid(s.unit_extents).reshape(-1, 4)}
    assert (0, 0, 0, 0) in modes
    for m in modes:
        # negation lands back in the set after reduction to (-N/2, N/2]
        red = []
        for i, v in enumerate(m):
            N = s.unit_extents[i]
            r = (-v) % N
            red.append(r - N if r > N // 2 else r)
        assert tuple(red) in modes


def test_fine_dual_is_unit_plus_block():
    s = make_shape(1, 3, 2, 2)
    fine = fft_mode_grid(s.fine_extents).reshape(-1, 4)
    assert fine.shape[0] == s.sites("fine")
    p = np.stack(np.broadcast_arrays(*fiber_momenta(s)), axis=-1).reshape(s.sites("unit"), -1, 4)
    assert p.shape == (16, 3**5, 4)
    # every fine momentum appears once, as its symmetric fine representative
    fine_rad = {tuple(np.round(r, 10)) for r in radians_for_modes(s, fine)}
    assert {tuple(np.round(r, 10)) for r in p.reshape(-1, 4)} == fine_rad
    # row r is unit momentum r plus every block momentum 2*pi*j (mod the fine period)
    k_unit = radians_for_modes(s, fft_mode_grid(s.unit_extents).reshape(-1, 4))
    blocks = np.array([s.mt, s.mx, s.mx, s.mx])
    for k, row in zip(k_unit, p):
        steps = (row - k) / (2 * np.pi)
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)
        residues = {tuple(r) for r in np.round(steps).astype(int) % blocks}
        assert len(residues) == 3**5


def test_plane_wave_dft_is_single_spike():
    s = make_shape(0, 3, 4, 4)
    f = Field.plane_wave(s, "unit", (1, 2, 0, 3))
    c = to_modes(f.values)
    idx = np.unravel_index(np.argmax(np.abs(c)), c.shape)
    assert idx == (1, 2, 0, 3)
    assert c[idx] == pytest.approx(1.0)
    c2 = c.copy()
    c2[idx] = 0.0
    assert np.max(np.abs(c2)) < 1e-12


def test_modes_roundtrip():
    rng = np.random.default_rng(3)
    s = make_shape(1, 3, 2, 2)
    f = Field.random(s, "fine", rng)
    np.testing.assert_allclose(from_modes(to_modes(f.values)), f.values, atol=1e-12)
    # trailing axes ride along untransformed: a stacked pair is two transforms
    pair = np.stack([f.values, 2.0 * f.values], axis=-1)
    np.testing.assert_allclose(to_modes(pair)[..., 1], 2.0 * to_modes(f.values), rtol=0, atol=1e-15)
    np.testing.assert_allclose(from_modes(to_modes(pair)), pair, atol=1e-12)


def test_parseval_bilinear_all_levels():
    rng = np.random.default_rng(11)
    s = make_shape(1, 3, 9, 3)
    for level in ("unit", "fine", "coarse"):
        a = Field.random(s, level, rng)
        b = Field.random(s, level, rng)
        direct = inner_product(a, b)
        ca, cb = to_modes(a.values), to_modes(b.values)
        # pair mode m with -m
        spectral = s.weight(level) * a.sites * np.sum(ca * negate_modes(cb))
        assert abs(direct - spectral) / max(abs(direct), 1e-30) < 1e-10


def test_fiber_split_merge_roundtrip():
    rng = np.random.default_rng(5)
    s = make_shape(1, 3, 2, 2)
    f = Field.random(s, "fine", rng)
    c = to_modes(f.values)
    fib = fiber_split(c, s)
    assert fib.shape == (16, 243)
    np.testing.assert_allclose(fiber_split(c, s), fib)
    np.testing.assert_allclose(fiber_merge(fib, s), c, atol=0)


@pytest.mark.parametrize("dims", [(1, 3, 2, 2), (1, 5, 1, 2)])
def test_fiber_split_merge_roundtrip_keeps_trailing_axes(dims):
    # the well solve merges its (unit sites, blocks, 2) solution in one call
    rng = np.random.default_rng(6)
    s = make_shape(*dims)
    c = rng.standard_normal(s.fine_extents + (2,)) + 1j * rng.standard_normal(s.fine_extents + (2,))
    fib = fiber_split(c, s)
    assert fib.shape == (s.sites("unit"), s.mt * s.mx**3, 2)
    assert np.array_equal(fiber_merge(fib, s), c)
    for j in (0, 1):
        assert np.array_equal(fiber_merge(fib[..., j], s), c[..., j])


def test_fiber_momenta_match_split_indexing():
    # a plane wave at fine mode j*N + i must land in fiber row i, column j, and
    # fiber_momenta must give that entry the wave's own momentum; unit index
    # i = 2 of extent 3 is the negative unit mode -1
    cases = [
        ((1, 3, 2, 2), (5, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)),  # 5 = 2*2 + 1
        ((1, 3, 3, 1), (5, 0, 0, 0), (2, 0, 0, 0), (1, 0, 0, 0)),  # 5 = 1*3 + 2
        ((1, 3, 1, 3), (0, 5, 0, 7), (0, 2, 0, 1), (0, 1, 0, 2)),
    ]
    for dims, modes, unit_index, block_index in cases:
        s = make_shape(*dims)
        p = np.stack(np.broadcast_arrays(*fiber_momenta(s)), axis=-1).reshape(s.sites("unit"), -1, 4)
        f = Field.plane_wave(s, "fine", modes)
        fib = fiber_split(to_modes(f.values), s)
        row = int(np.argmax(np.abs(fib).sum(axis=1)))
        col = int(np.argmax(np.abs(fib[row])))
        assert row == np.ravel_multi_index(unit_index, s.unit_extents)
        assert col == np.ravel_multi_index(block_index, (s.mt, s.mx, s.mx, s.mx))
        ext = np.array(s.fine_extents)
        rep = np.where(np.array(modes) > ext // 2, np.array(modes) - ext, modes)
        np.testing.assert_allclose(p[row, col], radians_for_modes(s, rep), atol=1e-12)


def test_field_pair_not_conjugate_constrained():
    rng = np.random.default_rng(2)
    s = make_shape(0, 3, 2, 2)
    p = FieldPair.random(s, "unit", rng)
    assert not np.allclose(p.starred.values, np.conj(p.plain.values))


def test_field_values_frozen():
    s = make_shape(0, 3, 2, 2)
    f = Field.zeros(s, "unit")
    with pytest.raises(ValueError):
        f.values[0, 0, 0, 0] = 1.0


def test_fine_site_cap_enforced():
    s = make_shape(2, 3, 9, 9)  # fine lattice would be 729 * 27^3 sites
    with pytest.raises(LatticeError):
        Field.zeros(s, "fine")
