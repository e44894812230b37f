import numpy as np
import pytest

from blockspin import symbols
from blockspin.lattice_ops import (
    SHARP,
    SMOOTH,
    apply_heat,
    fine_average,
    fine_average_adjoint,
    operator_matrix,
    _axis_weights,
    _axis_offsets,
)
from blockspin.symbols import (
    NumericalError,
    SmallKFit,
    averaging_symbol,
    classify_regime,
    delta_identity_check,
    fiber_resolvent,
    fit_window_momenta,
    heat_symbol,
    momentum_bound_report,
    small_k_fit,
    well_fiber_dense,
    well_matrix,
    well_resolvent,
    well_symbol,
    zero_field_symbol,
    zero_field_symbol_dense,
)
from blockspin.torus import (Field, LatticeError, fft_mode_grid, fiber_momenta, fiber_momenta_at, make_shape,
                             radians_for_modes)


def _block_momenta(shape):
    """The (blocks, 4) block momenta 2*pi*j, rows row-major over the block indices."""
    return 2.0 * np.pi * fft_mode_grid((shape.mt, shape.mx, shape.mx, shape.mx)).reshape(-1, 4)


def direct_profile_transform(p, shape, profile):
    """Oracle: explicit finite sum over the box profile weights."""
    out = np.ones(())
    blens = (shape.mt, shape.mx, shape.mx, shape.mx)
    spac = shape.spacings("fine")
    total = 1.0
    for axis in range(4):
        w = _axis_weights(blens[axis], profile.exponent)
        offs = _axis_offsets(blens[axis], profile.exponent)
        total = total * np.sum(w * np.exp(-1j * p[axis] * spac[axis] * offs))
    return total


def test_averaging_symbol_normalized_at_zero():
    for n in (0, 1, 2):
        s = make_shape(n, 3, 2, 2)
        assert averaging_symbol((0.0,) * 4, s, SHARP) == pytest.approx(1.0)
        assert averaging_symbol((0.0,) * 4, s, SMOOTH) == pytest.approx(1.0)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH])
def test_averaging_symbol_matches_direct_sum(profile):
    rng = np.random.default_rng(0)
    s = make_shape(1, 3, 2, 2)
    for _ in range(20):
        p = rng.uniform(-3.0, 3.0, size=4)
        got = averaging_symbol(tuple(p), s, profile)
        want = direct_profile_transform(p, s, profile)
        assert abs(got - want.real) < 1e-10
        assert abs(want.imag) < 1e-12  # even profile: real transform


def test_averaging_symbol_nonzero_block_momentum_bound():
    # |u(k+l)| <= prod_{l_nu != 0} |k_nu| * prod_nu 24/(|l_nu| + pi), l != 0
    for n in (1, 2):
        s = make_shape(n, 3, 2, 2)
        ell = _block_momenta(s)
        ell = ell[np.any(ell != 0.0, axis=1)]
        rng = np.random.default_rng(1)
        ell = ell[rng.choice(len(ell), size=min(200, len(ell)), replace=False)]
        kvals = np.array([0.0, np.pi / 2, np.pi])
        for k0 in kvals:
            for k1 in kvals:
                k = np.array([k0, k1, 0.0, np.pi / 3])
                u = np.abs(averaging_symbol(tuple((k[None, :] + ell).T), s, SHARP))
                bound = np.ones(len(ell))
                for nu in range(4):
                    lnz = ell[:, nu] != 0.0
                    bound *= np.where(lnz, np.abs(k[nu]), 1.0)
                    bound *= 24.0 / (np.abs(ell[:, nu]) + np.pi)
                assert np.all(u <= bound + 1e-10)


def test_zero_field_symbol_vanishes_at_origin():
    s = make_shape(1, 3, 2, 2)
    assert zero_field_symbol(np.zeros(4), 0.0, 1.0, s, "discrete") == 0.0
    assert zero_field_symbol(np.zeros(4), 0.0, 1.0, s, "continuum") == 0.0


def test_zero_field_symbol_matches_dense_fiber_n1():
    rng = np.random.default_rng(2)
    s = make_shape(1, 3, 2, 2)
    for mode in ("discrete", "continuum"):
        for _ in range(10):
            k = rng.uniform(-np.pi, np.pi, size=4)
            fast = zero_field_symbol(k, 0.0, 1.0, s, mode)
            dense = zero_field_symbol_dense(k, 0.0, 1.0, s, mode)
            assert abs(fast - dense) < 1e-8 * max(1.0, abs(dense))


def test_zero_field_symbol_matches_dense_fiber_n2_sparse_momenta():
    # at n=2 use grid momenta with >= 2 vanishing components so the coupled
    # sub-fiber stays small enough for dense inversion
    s = make_shape(2, 3, 4, 4)
    ks = [
        np.array([np.pi, 0.0, 0.0, 0.0]),
        np.array([np.pi / 2, 0.0, 0.0, 0.0]),
        np.array([np.pi, np.pi / 2, 0.0, 0.0]),
        np.array([np.pi / 2, 0.0, np.pi, 0.0]),
    ]
    for k in ks:
        fast = zero_field_symbol(k, 0.0, 1.0, s, "discrete")
        dense = zero_field_symbol_dense(k, 0.0, 1.0, s, "discrete")
        assert abs(fast - dense) < 1e-8 * max(1.0, abs(dense))


def test_zero_field_symbol_against_direct_space_dense_operator():
    # apply the dense direct-space operator to the plane wave at k
    s = make_shape(1, 3, 1, 1)
    d = 1.0
    lin = operator_matrix(
        lambda f: fine_average_adjoint(fine_average(f, SHARP), SHARP).with_values(
            fine_average_adjoint(fine_average(f, SHARP), SHARP).values + apply_heat(f, d).values
        ),
        s,
        "fine",
        "fine",
        max_sites=300,
    )
    Qmat = operator_matrix(lambda f: fine_average(f, SHARP), s, "fine", "unit", max_sites=300)
    Qstar = operator_matrix(lambda f: fine_average_adjoint(f, SHARP), s, "unit", "fine", max_sites=300)
    dense_unit = np.eye(1) - Qmat @ np.linalg.solve(lin, Qstar)
    # single unit momentum k = 0 is the excluded point; add a chemical shift
    lin_mu = lin - 0.3 * np.eye(lin.shape[0])
    dense_unit_mu = np.eye(1) - Qmat @ np.linalg.solve(lin_mu, Qstar)
    sym = zero_field_symbol(np.zeros(4), 0.3, d, s, "discrete")
    assert abs(complex(dense_unit_mu[0, 0]) - sym) < 1e-8
    assert dense_unit.shape == (1, 1)


def test_zero_field_symbol_singular_resolvent_raises():
    s = make_shape(1, 3, 2, 2)
    # mu exactly on a decoupled fiber value: heat symbol at a momentum with
    # vanishing averaging weight
    ell = _block_momenta(s)
    k = np.array([0.0, 0.0, 0.0, 0.0])
    p = k + ell[5]
    u = averaging_symbol(tuple(p), s, SHARP)
    mu = complex(heat_symbol(tuple(p), s, 1.0, "discrete"))
    if abs(u) < 1e-12 and abs(mu.imag) < 1e-15:
        with pytest.raises(NumericalError):
            zero_field_symbol(k, mu.real, 1.0, s, "discrete")


def test_parabolic_small_k_fit():
    # d=1, mu=0, continuum mode, sharp profile: coefficients of -i*k0 and
    # |kvec|^2 within 5%, residual shrinking >= 4x when the window halves
    s = make_shape(1, 3, 2, 2)
    sym = lambda ks: zero_field_symbol(ks, 0.0, 1.0, s, "continuum")
    fit1 = small_k_fit(sym, 0.1)
    fit2 = small_k_fit(sym, 0.05)
    assert 0.95 <= fit1.first_order_time.real <= 1.05
    assert 0.95 <= fit1.spatial.real <= 1.05
    assert abs(fit1.mass) < 1e-3
    assert fit2.residual * 4.0 <= fit1.residual


def test_small_k_fit_exact_polynomial():
    f = lambda ks: -1j * ks[:, 0] + np.sum(ks[:, 1:] ** 2, axis=1)
    fit = small_k_fit(f, 0.2)
    assert fit.mass == pytest.approx(0.0, abs=1e-12)
    assert fit.first_order_time == pytest.approx(1.0)
    assert fit.second_order_time == pytest.approx(0.0, abs=1e-12)
    assert fit.spatial == pytest.approx(1.0)
    assert fit.residual < 1e-12


def test_small_k_fit_constant():
    f = lambda ks: np.full(len(ks), 0.7 - 0.1j)
    fit = small_k_fit(f, 0.2)
    assert fit.mass == pytest.approx(0.7 - 0.1j)
    assert fit.residual < 1e-12


def test_small_k_fit_window_refinement_drift():
    # cubic contamination: coefficient drift shrinks with the window
    f = lambda ks: -1j * ks[:, 0] + np.sum(ks[:, 1:] ** 2, axis=1) + 0.5 * ks[:, 0] ** 3 * 1j
    f1 = small_k_fit(f, 0.2)
    f2 = small_k_fit(f, 0.1)
    drift1 = abs(f1.first_order_time - 1.0)
    drift2 = abs(f2.first_order_time - 1.0)
    assert drift2 < drift1
    assert drift2 / max(drift1, 1e-300) < 0.5 + 0.2  # about the window ratio squared


def test_classify_regime_trivial():
    fit = small_k_fit(lambda ks: ks[:, 0] ** 2 + np.sum(ks[:, 1:] ** 2, axis=1), 0.2)
    assert classify_regime(fit) == "elliptic"


def test_classify_regime_parabolic_and_elliptic_presets():
    s = make_shape(1, 3, 2, 2)
    fit_p = small_k_fit(lambda ks: zero_field_symbol(ks, 1e-3, 1.0, s, "continuum"), 0.1)
    assert classify_regime(fit_p) == "parabolic"
    d, mu = 1000.0, 0.5e6
    fit_e = small_k_fit(lambda ks: well_symbol(ks, mu, d, s, "continuum")[..., 1, 1], 0.1)
    assert classify_regime(fit_e) == "elliptic"


def test_delta_identity_random_momenta():
    rng = np.random.default_rng(3)
    s = make_shape(1, 3, 2, 2)
    for _ in range(10):
        k = rng.uniform(-np.pi, np.pi, size=4)
        lhs, rhs, diff = delta_identity_check(k, s)
        assert diff <= 1e-10 * max(1.0, abs(rhs))


def test_delta_identity_small_k_limit():
    # both sides approach 1 as k -> 0, so 1 - symbol -> 0
    s = make_shape(1, 3, 2, 2)
    vals = []
    for scale in (0.1, 0.01, 0.001):
        k = np.array([scale, scale / 2, 0.0, scale / 3])
        lhs, rhs, diff = delta_identity_check(k, s)
        assert diff < 1e-10
        vals.append(abs(lhs - 1.0))
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] < 1e-2


def test_delta_identity_excluded_point():
    s = make_shape(1, 3, 2, 2)
    with pytest.raises(NumericalError):
        delta_identity_check(np.zeros(4), s)


def test_well_matrix_continuum_form():
    s = make_shape(1, 3, 2, 2)
    p = np.array([0.3, 0.1, -0.2, 0.05])
    M = well_matrix(tuple(p), 2.0, 3.0, s, "continuum")
    sp = np.sum(p[1:] ** 2)
    np.testing.assert_allclose(M, [[4.0 + sp, 3.0 * p[0]], [-3.0 * p[0], sp]], atol=1e-14)


def test_well_matrix_discrete_reduces_to_continuum():
    p = np.array([0.1, 0.05, -0.08, 0.02])
    mu, d = 0.7, 2.0
    errs = []
    for n in (1, 2, 3):
        s = make_shape(n, 3, 2, 2)
        M = well_matrix(tuple(p), mu, d, s, "discrete")
        C = well_matrix(tuple(p), mu, d, s, "continuum")
        errs.append(np.max(np.abs(M - C)))
    assert errs[2] < errs[1] < errs[0]


def test_well_symbol_matches_dense_fiber():
    rng = np.random.default_rng(4)
    s = make_shape(1, 3, 2, 2)
    for mode in ("continuum", "discrete"):
        for _ in range(5):
            k = rng.uniform(-np.pi, np.pi, size=4)
            fast = well_symbol(k, 0.8, 2.0, s, mode)
            _, dense = well_fiber_dense(k, 0.8, 2.0, s, mode)
            np.testing.assert_allclose(fast, dense, atol=1e-10)


def test_well_fiber_identity():
    # fiber_matrix @ fiber_matrix^{-1} = identity at random k
    rng = np.random.default_rng(5)
    s = make_shape(1, 3, 2, 2)
    k = rng.uniform(-np.pi, np.pi, size=4)
    M, _ = well_fiber_dense(k, 0.8, 2.0, s, "continuum")
    Minv = np.linalg.inv(M)
    np.testing.assert_allclose(M @ Minv, np.eye(M.shape[0]), atol=1e-10)


def test_well_radial_value_at_zero_momentum():
    # leading radial entry 2mu/(1+2mu), tangential flat direction
    s = make_shape(1, 3, 2, 2)
    for mu in (0.5, 2.0, 5000.0):
        W = well_symbol(np.zeros(4), mu, 1.0 if mu < 100 else 100.0, s, "continuum")
        assert W[0, 0] == pytest.approx(2 * mu / (1 + 2 * mu), rel=1e-12)
        assert abs(W[1, 1]) < 1e-12
        assert abs(W[0, 1]) < 1e-12 and abs(W[1, 0]) < 1e-12


def test_well_symbol_elliptic_regime_fit():
    # d >> 1, mu/d^2 = 0.5: tangential entry fits k0^2/(2mu/d^2) + |kvec|^2
    s = make_shape(1, 3, 2, 2)
    d = 100.0
    mu = 0.5 * d * d
    fit = small_k_fit(lambda ks: well_symbol(ks, mu, d, s, "continuum")[..., 1, 1], 0.1)
    assert fit.second_order_time.real == pytest.approx(1.0 / (2 * mu / d**2), rel=0.1)
    assert fit.spatial.real == pytest.approx(1.0, rel=0.1)
    rad = well_symbol(np.zeros(4), mu, d, s, "continuum")[0, 0]
    assert rad.real == pytest.approx(2 * mu / (1 + 2 * mu), rel=0.01)


def test_well_symbol_parabolic_eigenvalues():
    # d=1, mu << 1: eigenvalues of the small-k matrix near +-i*k0 + k0^2 + |kvec|^2
    s = make_shape(1, 3, 2, 2)
    k = np.array([0.05, 0.03, 0.02, 0.01])
    W = well_symbol(k, 1e-4, 1.0, s, "continuum")
    eigs = np.linalg.eigvals(W)
    target = k[0] ** 2 + np.sum(k[1:] ** 2)
    expected = np.array([target + 1j * k[0], target - 1j * k[0]])
    got = eigs[np.argsort(eigs.imag)]
    want = expected[np.argsort(expected.imag)]
    np.testing.assert_allclose(got, want, rtol=0.15)


def test_scalar_symbol_conjugation_symmetry():
    rng = np.random.default_rng(6)
    s = make_shape(1, 3, 2, 2)
    for _ in range(5):
        k = rng.uniform(-np.pi, np.pi, size=4)
        a = zero_field_symbol(k, 0.1, 1.0, s, "discrete")
        b = zero_field_symbol(-k, 0.1, 1.0, s, "discrete")
        assert b == pytest.approx(np.conj(a), rel=1e-12)


def test_momentum_bound_report_finite_and_feedback_offdiagonal_zero():
    s = make_shape(1, 3, 2, 2)
    rep = momentum_bound_report(s, mu=0.5 * 4.0, d=2.0, mode="continuum", rng=np.random.default_rng(7))
    for part in "abcd":
        assert np.isfinite(rep[part])
    W0 = well_symbol(np.zeros(4), 2.0, 2.0, s, "continuum")
    assert abs(W0[0, 1]) < 1e-14


def test_momentum_bound_report_stable_under_doubling():
    # the scaling envelopes hold for d >> 1; start the sweep there
    s = make_shape(1, 3, 2, 2)
    ratio = 0.5
    prev = None
    for d in (8.0, 16.0, 32.0, 64.0):
        rep = momentum_bound_report(s, mu=ratio * d * d, d=d, mode="continuum", rng=np.random.default_rng(8))
        if prev is not None:
            for part in "abcd":
                lo, hi = sorted((rep[part], prev[part]))
                assert hi / max(lo, 1e-300) < 2.0
        prev = rep


# the report at (1,3,2,2), mu = d^2/2, continuum mode: exact values, so that a
# rewrite of its loops cannot move the rng draws or the parts
_BOUND_REPORTS = {
    (7, 1.0): {"a": 0.7549526505477653, "b": 0.282105765565361, "c": 0.991858649170602, "d": 0.14103143275003435},
    (7, 8.0): {"a": 0.9501096537083246, "b": 0.6362145240356113, "c": 1.9474081274687725, "d": 0.6264372288608141},
    (8, 1.0): {"a": 0.776345328659606, "b": 0.039560555537272266, "c": 0.991858649170602, "d": 0.019776429922683383},
    (8, 8.0): {"a": 0.9547738241431788, "b": 0.6362145240356113, "c": 1.9474081274687725, "d": 0.6264372288608141},
}


@pytest.mark.parametrize("seed, d", sorted(_BOUND_REPORTS))
def test_momentum_bound_report_pinned_values(seed, d):
    rep = momentum_bound_report(make_shape(1, 3, 2, 2), mu=0.5 * d * d, d=d, mode="continuum",
                                rng=np.random.default_rng(seed))
    assert list(rep) == ["a", "b", "c", "d"]
    assert rep == _BOUND_REPORTS[seed, d]


def test_fit_window_momenta_symmetric():
    pts = fit_window_momenta(0.2)
    assert pts.shape[1] == 4
    asset = {tuple(np.round(r, 12)) for r in pts}
    for r in pts:
        assert tuple(np.round(-r, 12)) in asset


def _stacked(components):
    """The (..., 4) array the per-axis components stand for."""
    return np.stack(np.broadcast_arrays(*components), axis=-1)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
@pytest.mark.parametrize("L", [3, 5])
@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3)])
def test_per_axis_components_match_stacked_momenta(dims, L, profile):
    # every fast path passes four per-axis components that broadcast; the same
    # symbols on the materialized full-size components must agree bit for bit
    s = make_shape(1, L, *dims)
    k = np.vstack([np.zeros(4), np.random.default_rng(L * 10 + dims[0]).uniform(-7.0, 7.0, (3, 4))])
    for comps in (fiber_momenta(s), fiber_momenta_at(k, s)):
        p = tuple(np.moveaxis(_stacked(comps), -1, 0))
        u = averaging_symbol(comps, s, profile)
        assert u.flags.c_contiguous  # so the fiber rows are a reshape, not a copy
        assert np.array_equal(u, averaging_symbol(p, s, profile))
        for mode in ("discrete", "continuum"):
            assert np.array_equal(heat_symbol(comps, s, 2.5, mode), heat_symbol(p, s, 2.5, mode))
            assert np.array_equal(well_matrix(comps, 0.3, 2.5, s, mode), well_matrix(p, 0.3, 2.5, s, mode))
    # arbitrary k: the fibers are k plus the block momenta, columns in their row order
    p = _stacked(fiber_momenta_at(k, s)).reshape(len(k), -1, 4)
    assert np.array_equal(p, k[:, None, :] + _block_momenta(s))


def test_symbols_reject_malformed_momenta():
    s = make_shape(1, 3, 1, 1)
    # a stacked (..., 4) array is the unit-lattice format, not the fiber-level one
    bad = [np.zeros((5, 3)), np.zeros((5, 4)), (np.zeros(2), np.zeros(2), np.zeros(2)),
           (np.zeros(2), np.zeros(3), 0.0, 0.0)]
    for p in bad:
        for evaluate in (lambda p: averaging_symbol(p, s), lambda p: heat_symbol(p, s), lambda p: well_matrix(p, 0.1, 1.0, s)):
            with pytest.raises(LatticeError):
                evaluate(p)
    with pytest.raises(LatticeError):
        fiber_momenta_at(np.zeros((2, 3)), s)


def test_subnormal_diagonal_is_a_pole():
    # 1/a overflows below the smallest normal float; such an entry is solved as a pole
    tiny = 2.2250738585e-313
    a = np.array([[-tiny + 0j, 2.0, 3.0]])
    u = np.array([[1.0, 0.5, 0.0]])
    rhs = np.array([[1.0, 2.0, 3.0 + 1j]])
    sigma, x = fiber_resolvent(a, u, rhs)
    M = np.diag(a[0]) + np.outer(u[0], u[0])
    assert sigma[0] == 0.0
    np.testing.assert_allclose(M @ x[0], rhs[0], atol=1e-14)
    D = np.array([[[[tiny, 0.0], [0.0, 1.0]], [[2.0, 0.5], [-0.5, 1.0]]]], dtype=complex)
    uw = np.array([[1.0, 0.5]])
    W, c = well_resolvent(D, uw, np.array([[1.0, -2.0]]))
    M = np.zeros((4, 4), dtype=complex)
    M[:2, :2], M[2:, 2:] = D[0]
    U = np.kron(uw[0][:, None], np.eye(2))
    M += U @ U.T
    np.testing.assert_allclose(M @ c[0].reshape(-1), U @ np.array([1.0, -2.0]), atol=1e-14)


def test_batched_symbol_errors_name_the_index_in_k():
    # 243 blocks per fiber put k[100] in the second batch, at its row 33
    s = make_shape(1, 3, 1, 1)
    k = np.random.default_rng(0).uniform(0.5, 2.5, (200, 4))
    k[100] = 0.0
    mu = 26.999999999999996
    with pytest.raises(NumericalError, match=r"fiber row \(100,\)") as err:
        zero_field_symbol(k, mu, 1.0, s)
    assert err.value.row == (100,)
    with pytest.raises(NumericalError, match=r"fiber row \(5, 0\)"):
        zero_field_symbol(k.reshape(10, 20, 4), mu, 1.0, s)


def test_fiber_resolvent_on_a_single_row():
    rng = np.random.default_rng(3)
    u = rng.uniform(0.3, 1.0, 5)
    rhs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for pole in (None, 2):
        a = rng.uniform(0.5, 2.0, 5) + 1j * rng.standard_normal(5)
        if pole is not None:
            a[pole] = 0.0
        sigma, x = fiber_resolvent(a, u, rhs)
        sigma_b, x_b = fiber_resolvent(a[None], u[None], rhs[None])
        assert sigma == sigma_b[0] and np.array_equal(x, x_b[0])
        assert fiber_resolvent(a, u) == sigma_b[0]
        assert (sigma == 0.0) == (pole is not None)


def test_non_finite_momenta_name_the_first_bad_index():
    s = make_shape(1, 3, 1, 1)
    k = np.random.default_rng(1).uniform(-1.0, 1.0, (2, 3, 4))
    k[1, 2, 0] = np.nan
    k[1, 1, 3] = np.inf
    for f in (zero_field_symbol, well_symbol):
        with pytest.raises(LatticeError, match=r"momentum \(1, 1\) is not finite"):
            f(k, 0.3, 1.0, s)
        with pytest.raises(LatticeError, match=r"momentum \(4,\) is not finite"):
            f(k.reshape(-1, 4), 0.3, 1.0, s)
        with pytest.raises(LatticeError, match=r"momentum \(0,\) is not finite"):
            f(np.array([0.1, -np.inf, 0.0, 0.2]), 0.3, 1.0, s)
        # non-finite couplings are named too; complex finite mu is allowed
        for mu, d, name in ((np.nan, 1.0, "mu"), (complex(0.3, np.inf), 1.0, "mu"), (0.3, np.inf, "d")):
            with pytest.raises(LatticeError, match=f"{name} must be finite"):
                f(k[0], mu, d, s)
        assert np.all(np.isfinite(f(k[0], 0.3 + 0.2j, 1.0, s)))
    with pytest.raises(LatticeError, match="window"):
        small_k_fit(lambda q: np.ones(len(q)), np.nan)
    with pytest.raises(LatticeError, match="window"):
        small_k_fit(lambda q: zero_field_symbol(q, 0.3, 1.0, s), np.inf)


def test_empty_momenta_give_empty_symbols():
    s = make_shape(1, 3, 3, 1)
    for k, batch in ((np.zeros((0, 4)), (0,)), (np.zeros((2, 0, 4)), (2, 0))):
        assert zero_field_symbol(k, 0.3, 1.0, s).shape == batch
        assert well_symbol(k, 0.3, 1.0, s, "discrete", SMOOTH).shape == batch + (2, 2)


def test_a_singular_orbit_is_named_at_its_first_index():
    # mu is a heat value held twice on the pole momentum's fiber: two poles.  Its
    # mate (spatial axes 1 and 2 swapped, one sign flipped) holds the same entries
    # bitwise and comes first in k, so the error names the mate
    s = make_shape(1, 3, 1, 3)
    pole = np.array([0.0, 2.0 * np.pi / 3.0, 0.0, 0.0])
    mate = np.array([0.0, 0.0, -2.0 * np.pi / 3.0, 0.0])
    a = heat_symbol(fiber_momenta_at(pole, s), s).reshape(-1)
    values, counts = np.unique(a[a.imag == 0].real, return_counts=True)
    mu = float(values[counts > 1][0])
    generic = np.random.default_rng(2).uniform(0.3, 1.3, (3, 4))
    with pytest.raises(NumericalError, match=r"fiber row \(1,\) singular") as err:
        zero_field_symbol(np.stack([generic[0], mate, pole]), mu, 1.0, s)
    assert err.value.row == (1,)
    k = np.stack([generic[0], generic[1], generic[2], mate, pole, generic[0]]).reshape(2, 3, 4)
    with pytest.raises(NumericalError, match=r"fiber row \(1, 0\) singular"):
        zero_field_symbol(k, mu, 1.0, s)


def test_symbols_run_their_kernel_once_per_cube_orbit(monkeypatch):
    # the 625 stencil momenta of a fit fall into 5 x 10 cube orbits, and into
    # 3 x 10 once k0 -> -k0 folds them; the 243 unit momenta of (1,3,9,3) into
    # 9 time components x 4 spatial orbits, and 5 x 4 folded.  The zero-field
    # symbol folds only at real mu; the well symbol folds at every mu
    rows = {"fiber_resolvent": 0, "well_resolvent": 0}
    for name in rows:
        def counted(a, u, *rest, kernel=getattr(symbols, name), name=name):
            rows[name] += len(a)
            return kernel(a, u, *rest)
        monkeypatch.setattr(symbols, name, counted)
    s = make_shape(1, 3, 1, 1)
    small_k_fit(lambda q: zero_field_symbol(q, 0.3, 1.0, s), 0.1)
    assert rows == {"fiber_resolvent": 30, "well_resolvent": 0}
    small_k_fit(lambda q: zero_field_symbol(q, 0.3 + 0.2j, 1.0, s), 0.1)
    assert rows == {"fiber_resolvent": 80, "well_resolvent": 0}
    s = make_shape(1, 3, 9, 3)
    k = radians_for_modes(s, fft_mode_grid(s.unit_extents).reshape(-1, 4))
    well_symbol(k, 0.3, 1.0, s, "discrete")
    assert rows == {"fiber_resolvent": 80, "well_resolvent": 20}
    well_symbol(k, 0.3 + 0.2j, 1.0, s, "discrete")
    assert rows == {"fiber_resolvent": 80, "well_resolvent": 40}


def test_a_time_reflected_singular_orbit_is_named_at_its_first_index():
    # at k0 = 2 pi the fiber's time block p0 = 0 has a real heat symbol, so a
    # real mu held twice there is two poles; the mate with k0 = -2 pi (spatial
    # axes swapped, one sign flipped) holds the conjugate entries
    s = make_shape(1, 3, 1, 3)
    pole = np.array([2.0 * np.pi, 2.0 * np.pi / 3.0, 0.0, 0.0])
    mate = np.array([-2.0 * np.pi, 0.0, -2.0 * np.pi / 3.0, 0.0])
    held_twice = []
    for k in (pole, mate):
        a = heat_symbol(fiber_momenta_at(k, s), s).reshape(-1)
        values, counts = np.unique(a[a.imag == 0].real, return_counts=True)
        held_twice.append(set(values[counts > 1]))
    mu = float(min(set.intersection(*held_twice)))
    generic = np.random.default_rng(3).uniform(0.3, 1.3, (2, 4))
    for k, where in ((np.stack([generic[0], mate, pole, generic[1]]), (1,)),
                     (np.stack([pole, mate, generic[0], generic[1]]).reshape(2, 2, 4), (0, 0))):
        with pytest.raises(NumericalError, match="fiber row") as err:
            zero_field_symbol(k, mu, 1.0, s)
        assert err.value.row == where
