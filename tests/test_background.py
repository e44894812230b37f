import numpy as np
import pytest

from blockspin import background
from blockspin.background import (
    BackgroundSolution,
    ModelParams,
    NumericalError,
    _direct_operator,
    apply_well_operator,
    nonlinear_residuals,
    solve_constant,
    solve_linear,
    solve_nonlinear,
    solve_well_linear,
)
from blockspin.lattice_ops import SHARP, SMOOTH, operator_matrix
from blockspin.torus import Field, FieldPair, LatticeError, make_shape

SMALL = make_shape(1, 3, 1, 1)  # 243 fine sites: dense Newton path
TIMEY = make_shape(1, 3, 2, 1)  # 486 fine sites, genuine unit-time dependence


def cubic_residual(params, psi, x):
    return abs(params.v * x**3 + (1.0 - params.mu) * x - psi)


def test_model_params_validation():
    with pytest.raises(LatticeError):
        ModelParams(mu=-0.1, v=1.0)
    with pytest.raises(LatticeError):
        ModelParams(mu=0.1, v=0.0)
    with pytest.raises(LatticeError):
        ModelParams(mu=0.1, v=1.0, d=0.5)
    p = ModelParams(mu=2.0, v=0.5)
    assert p.well_radius**2 * p.v == pytest.approx(p.mu)


@pytest.mark.parametrize("name", ["mu", "v", "d"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_model_params_reject_non_finite_values(name, value):
    # NaN passes every range check, and inf every lower bound
    with pytest.raises(LatticeError, match=f"{name} must be finite"):
        ModelParams(**{"mu": 0.1, "v": 1.0, "d": 1.0, name: value})


def test_solve_constant_three_roots():
    roots = solve_constant(0.0, ModelParams(mu=2.0, v=1.0))
    assert sorted(np.round(roots, 10)) == [-1.0, 0.0, 1.0]
    for r in roots:
        assert cubic_residual(ModelParams(mu=2.0, v=1.0), 0.0, r) <= 1e-12


def test_solve_constant_unique_below_threshold():
    roots = solve_constant(0.0, ModelParams(mu=0.5, v=1.0))
    assert roots == [0.0]


def test_solve_constant_exact_root_by_inspection():
    roots = solve_constant(2.0, ModelParams(mu=0.0, v=1.0))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-12)


def test_solve_constant_sweep_unique_when_mu_small():
    rng = np.random.default_rng(0)
    for _ in range(100):
        mu = rng.uniform(0.0, 1.0)
        psi = rng.uniform(-3.0, 3.0)
        roots = solve_constant(psi, ModelParams(mu=mu, v=1.0))
        assert len(roots) == 1
        assert cubic_residual(ModelParams(mu=mu, v=1.0), psi, roots[0]) <= 1e-12


@pytest.mark.parametrize("mu", [0.5, 2.0])
@pytest.mark.parametrize("psi", [1e5, 1e6])
def test_solve_constant_keeps_the_real_root_at_large_field(psi, mu):
    # psi lies far above the cubic's local maximum, so one real root; its
    # terms are ~psi, and their round-off alone exceeds an absolute 1e-12
    params = ModelParams(mu=mu, v=1.0)
    roots = solve_constant(psi, params)
    assert len(roots) == 1
    x = roots[0]
    assert x == pytest.approx(np.cbrt(psi), rel=1e-2)
    assert cubic_residual(params, psi, x) <= 1e-12 * (x**3 + abs(1.0 - mu) * x + psi)


def test_solve_linear_zero_input():
    sol = solve_linear(FieldPair.zeros(SMALL, "unit"), ModelParams(mu=0.05, v=0.01))
    assert np.max(np.abs(sol.phi.values)) == 0.0
    assert np.max(np.abs(sol.phi_star.values)) == 0.0
    assert sol.converged


def test_solve_linear_constants_fixed_at_mu_zero():
    c = 2.0 - 1.0j
    pair = FieldPair(Field.constant(SMALL, "unit", c), Field.constant(SMALL, "unit", c))
    sol = solve_linear(pair, ModelParams(mu=0.0, v=0.01))
    np.testing.assert_allclose(sol.phi.values, c, atol=1e-12)
    np.testing.assert_allclose(sol.phi_star.values, c, atol=1e-12)


def test_solve_linear_residual_small_on_random_data():
    rng = np.random.default_rng(1)
    pair = FieldPair.random(TIMEY, "unit", rng, amplitude=1.0)
    sol = solve_linear(pair, ModelParams(mu=0.3, v=0.01))
    assert sol.converged
    assert max(sol.residual) <= 1e-10


@pytest.mark.parametrize("dims", [(1, 3, 3, 1), (1, 3, 1, 3), (1, 3, 9, 3)])
def test_linear_solves_at_unit_extent_three(dims):
    # unit extents >= 3 carry negative unit modes, which the fiber layout must
    # pair with the right block momenta
    s = make_shape(*dims)
    rng = np.random.default_rng(7)
    sol = solve_linear(FieldPair.random(s, "unit", rng), ModelParams(mu=0.3, v=0.01))
    assert sol.converged
    assert max(sol.residual) <= 1e-10
    R, T = Field.random(s, "unit", rng), Field.random(s, "unit", rng)
    solve_well_linear(R, T, ModelParams(mu=2.0, v=0.5))  # raises above its residual bound


@pytest.mark.parametrize("dims, other", [((1, 3, 3, 1), (0, 3, 27, 3)), ((1, 3, 2, 2), (0, 3, 18, 6)),
                                         ((1, 3, 1, 3), (0, 3, 9, 9))])
def test_nonlinear_solve_rejects_a_shape_that_is_not_the_pairs_torus(dims, other):
    # the two tori share their fine extents but not their boxes: solved on
    # ``other``, the backgrounds were averaged over the wrong boxes
    shape, other = make_shape(*dims), make_shape(*other)
    assert shape.fine_extents == other.fine_extents
    pair = FieldPair.random(shape, "unit", np.random.default_rng(2), amplitude=0.1)
    params = ModelParams(mu=0.3, v=0.01)
    with pytest.raises(LatticeError, match="not the external fields' torus") as info:
        solve_nonlinear(pair, params, other)
    assert str(shape) in str(info.value) and str(other) in str(info.value)
    phi = np.zeros(shape.fine_extents, dtype=complex)
    with pytest.raises(LatticeError, match="not the external fields' torus"):
        nonlinear_residuals(pair, phi, phi, params, other)


def test_well_fields_on_two_tori_rejected():
    params = ModelParams(mu=2.0, v=0.5)
    unit_twin = make_shape(2, 3, 1, 1)  # SMALL's unit extents (1,1,1,1)
    with pytest.raises(LatticeError, match="two tori") as info:
        solve_well_linear(Field.zeros(SMALL, "unit"), Field.zeros(unit_twin, "unit"), params)
    assert str(SMALL) in str(info.value) and str(unit_twin) in str(info.value)
    fine_twin = make_shape(0, 3, 9, 3)  # SMALL's fine extents (9,3,3,3)
    with pytest.raises(LatticeError, match="two tori"):
        apply_well_operator(Field.zeros(SMALL, "fine"), Field.zeros(fine_twin, "fine"), params)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
def test_starred_linear_part_is_plain_transpose(profile):
    # the dense Newton Jacobian takes its starred block as the plain block's transpose
    params = ModelParams(mu=0.3, v=1.0, d=2.5)
    plain, star = (
        operator_matrix(lambda f: f.with_values(_direct_operator(f, profile, params, t)), TIMEY, "fine", "fine")
        for t in (False, True)
    )
    assert np.max(np.abs(star - plain.T)) <= 1e-14


def test_nonlinear_zero_field_one_iteration():
    sol = solve_nonlinear(FieldPair.zeros(SMALL, "unit"), ModelParams(mu=0.5, v=0.01), SMALL)
    assert sol.converged and sol.iterations == 1
    assert np.max(np.abs(sol.phi.values)) == 0.0


def test_nonlinear_small_fields_converge_dense_and_gmres():
    rng = np.random.default_rng(2)
    params = ModelParams(mu=0.05, v=0.01)
    for shape in (SMALL, make_shape(1, 3, 2, 2)):  # 243 (dense) and 3888 (gmres) sites
        pair = FieldPair.random(shape, "unit", rng, amplitude=0.1)
        sol = solve_nonlinear(pair, params, shape, tol=1e-10)
        assert sol.converged
        assert max(sol.residual) <= 1e-10
        rs, rp = nonlinear_residuals(pair, sol.phi_star.values, sol.phi.values, params, shape)
        assert max(np.max(np.abs(rs)), np.max(np.abs(rp))) <= 1e-10


def test_nonlinear_constant_matches_cubic_root():
    c = 0.4 * np.exp(0.3j)
    pair = FieldPair(Field.constant(SMALL, "unit", np.conj(c)), Field.constant(SMALL, "unit", c))
    params = ModelParams(mu=0.5, v=0.2)
    sol = solve_nonlinear(pair, params, SMALL, tol=1e-12)
    assert sol.converged
    root = solve_constant(abs(c), params)[0]
    np.testing.assert_allclose(sol.phi.values, root * np.exp(0.3j), atol=1e-10)
    np.testing.assert_allclose(sol.phi_star.values, root * np.exp(-0.3j), atol=1e-10)


def test_nonlinear_phase_equivariance():
    params = ModelParams(mu=0.5, v=0.2)
    base = 0.4
    sol0 = solve_nonlinear(
        FieldPair(Field.constant(SMALL, "unit", base), Field.constant(SMALL, "unit", base)),
        params,
        SMALL,
        tol=1e-12,
    )
    alpha = 0.77
    rot = base * np.exp(1j * alpha)
    sol1 = solve_nonlinear(
        FieldPair(Field.constant(SMALL, "unit", np.conj(rot)), Field.constant(SMALL, "unit", rot)),
        params,
        SMALL,
        tol=1e-12,
    )
    np.testing.assert_allclose(sol1.phi.values, np.exp(1j * alpha) * sol0.phi.values, atol=1e-10)


def test_linear_vs_nonlinear_cubic_scaling():
    rng = np.random.default_rng(3)
    params = ModelParams(mu=0.05, v=0.01)
    base = FieldPair.random(SMALL, "unit", rng, amplitude=1.0)
    lams, errs = [], []
    for e in range(1, 7):
        lam = 2.0**-e
        pair = base.scaled(lam)
        nl = solve_nonlinear(pair, params, SMALL, tol=1e-13)
        assert nl.converged
        li = solve_linear(pair, params)
        err = max(
            np.max(np.abs(nl.phi.values - li.phi.values)),
            np.max(np.abs(nl.phi_star.values - li.phi_star.values)),
        )
        lams.append(lam)
        errs.append(err)
    slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
    assert abs(slope - 3.0) <= 0.2


def test_well_linear_zero_and_constant():
    params = ModelParams(mu=2.0, v=0.5)
    X, H = solve_well_linear(Field.zeros(SMALL, "unit"), Field.zeros(SMALL, "unit"), params)
    assert np.max(np.abs(X.values)) == 0.0 and np.max(np.abs(H.values)) == 0.0
    rho = 0.3
    X, H = solve_well_linear(
        Field.constant(SMALL, "unit", rho), Field.constant(SMALL, "unit", 0.0), params
    )
    np.testing.assert_allclose(X.values, rho / (1.0 + 2.0 * params.mu), atol=1e-12)
    np.testing.assert_allclose(H.values, 0.0, atol=1e-12)


def test_well_linear_rejects_a_nan_residual():
    # a NaN datum gives a NaN residual, which no bound admits
    vals = np.zeros(TIMEY.unit_extents, dtype=complex)
    vals[1, 0, 0, 0] = np.nan
    with pytest.raises(NumericalError, match="well solve residual nan"):
        solve_well_linear(Field(TIMEY, "unit", vals), Field.zeros(TIMEY, "unit"), ModelParams(mu=2.0, v=0.5))


@pytest.mark.parametrize("member", ["starred", "plain"])
def test_well_seed_rejects_a_vanishing_external_field(member):
    # the seed takes the log of both members' moduli: a zero in either has none
    params = ModelParams(mu=2.0, v=0.5)
    vals = np.full(TIMEY.unit_extents, params.well_radius, dtype=complex)
    vals[1, 0, 0, 0] = 0.0
    good, bad = Field.constant(TIMEY, "unit", params.well_radius), Field(TIMEY, "unit", vals)
    pair = FieldPair(bad, good) if member == "starred" else FieldPair(good, bad)
    with pytest.raises(NumericalError, match="well seed undefined"):
        solve_nonlinear(pair, params, TIMEY, seed_strategy="well")


def test_well_ansatz_quadratic_scaling():
    rng = np.random.default_rng(4)
    params = ModelParams(mu=2.0, v=0.5)
    r = params.well_radius
    R0 = Field(SMALL, "unit", rng.standard_normal(SMALL.unit_extents).astype(complex))
    T0 = Field(SMALL, "unit", rng.standard_normal(SMALL.unit_extents).astype(complex))
    lams, errs = [], []
    for e in range(1, 7):
        lam = 2.0**-e
        R = R0.with_values(lam * R0.values)
        T = T0.with_values(lam * T0.values)
        X, H = solve_well_linear(R, T, params)
        psi = FieldPair(
            Field(SMALL, "unit", r * np.exp(R.values - 1j * T.values)),
            Field(SMALL, "unit", r * np.exp(R.values + 1j * T.values)),
        )
        sol = solve_nonlinear(psi, params, SMALL, tol=1e-13, seed_strategy="well")
        assert sol.converged
        err = max(
            np.max(np.abs(sol.phi.values - r * np.exp(X.values + 1j * H.values))),
            np.max(np.abs(sol.phi_star.values - r * np.exp(X.values - 1j * H.values))),
        )
        lams.append(lam)
        errs.append(err)
    slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.2


def test_conjugation_symmetry_time_constant_data():
    # pointwise conjugation holds exactly on the time-constant sector
    rng = np.random.default_rng(5)
    sp = 0.1 * (rng.standard_normal((1,) + TIMEY.unit_extents[1:]) + 1j * rng.standard_normal((1,) + TIMEY.unit_extents[1:]))
    vals = np.broadcast_to(sp, TIMEY.unit_extents).copy()
    pair = FieldPair.conjugate_pair(Field(TIMEY, "unit", vals))
    sol = solve_nonlinear(pair, ModelParams(mu=0.05, v=0.01), TIMEY, tol=1e-12)
    assert sol.converged
    assert np.max(np.abs(sol.phi_star.values - np.conj(sol.phi.values))) <= 1e-10


def test_conjugation_with_time_reflection_generic_data():
    # time-dependent data: the symmetry partner of conjugation is time reflection
    rng = np.random.default_rng(6)
    vals = 0.1 * (rng.standard_normal(TIMEY.unit_extents) + 1j * rng.standard_normal(TIMEY.unit_extents))

    def treflect(a):
        return np.roll(a[::-1, ...], 1, axis=0)

    sym_vals = 0.5 * (vals + treflect(vals))
    pair = FieldPair.conjugate_pair(Field(TIMEY, "unit", sym_vals))
    sol = solve_nonlinear(pair, ModelParams(mu=0.05, v=0.01), TIMEY, tol=1e-12)
    assert sol.converged
    assert np.max(np.abs(sol.phi_star.values - treflect(np.conj(sol.phi.values)))) <= 1e-10


def test_nonlinear_nonconvergence_reports_best_iterate():
    rng = np.random.default_rng(7)
    pair = FieldPair.random(SMALL, "unit", rng, amplitude=0.1)
    sol = solve_nonlinear(pair, ModelParams(mu=0.05, v=0.01), SMALL, tol=1e-30, max_iter=3)
    assert isinstance(sol, BackgroundSolution)
    assert not sol.converged
    assert sol.iterations == 3


@pytest.mark.parametrize("bad", [dict(max_iter=0), dict(max_iter=-2), dict(max_iter=3.0), dict(max_iter=True),
                                 dict(tol=np.nan), dict(tol=np.inf), dict(tol=0.0), dict(tol=-1e-10)])
def test_nonlinear_solve_rejects_bad_iteration_arguments(bad):
    ((name, _),) = bad.items()
    with pytest.raises(LatticeError, match=name):
        solve_nonlinear(FieldPair.zeros(SMALL, "unit"), ModelParams(mu=0.5, v=0.01), SMALL, **bad)


@pytest.mark.parametrize("dims", [(1, 3, 1, 1), (1, 3, 1, 2)])  # 243 fine sites (dense), 1944 (gmres)
def test_newton_evaluates_each_iterate_once(dims, monkeypatch):
    shape = make_shape(*dims)
    pair = FieldPair.random(shape, "unit", np.random.default_rng(11), amplitude=1.0)
    points, norms = set(), []

    def counted(psi_pair, phi_star, phi, *args, **kwargs):
        points.add(phi_star.tobytes() + phi.tobytes())
        rs, rp = nonlinear_residuals(psi_pair, phi_star, phi, *args, **kwargs)
        norms.append(max(np.max(np.abs(rs)), np.max(np.abs(rp))))
        return rs, rp

    monkeypatch.setattr(background, "nonlinear_residuals", counted)
    sol = solve_nonlinear(pair, ModelParams(mu=0.05, v=0.5), shape, tol=1e-10)
    assert sol.converged and sol.iterations >= 4
    assert len(points) == len(norms)  # no point is evaluated twice
    # a damping trial that does not lower the residual of its iterate is a halving
    halvings, base = 0, norms[0]
    for norm in norms[1:]:
        halvings += not norm < base
        base = min(base, norm)
    assert len(norms) == sol.iterations + halvings


def test_field_radius_warning():
    rng = np.random.default_rng(8)
    pair = FieldPair.random(SMALL, "unit", rng, amplitude=1.0)
    with pytest.warns(UserWarning):
        solve_nonlinear(pair, ModelParams(mu=0.05, v=0.01), SMALL, field_radius=1e-3)
