import numpy as np
import pytest

from blockspin.action import (
    action_value,
    effective_potential,
    fd_stationarity,
    fluctuation_spectrum,
    well_geometry,
    well_quadratic_form,
    zero_field_quadratic_form,
)
from blockspin.background import ModelParams, solve_linear, solve_nonlinear, solve_well_linear
from blockspin.lattice_ops import SHARP, SMOOTH, fine_average
from blockspin.symbols import NumericalError
from blockspin.torus import Field, FieldPair, LatticeError, inner_product, make_shape

SMALL = make_shape(1, 3, 1, 1)


def reference_action(psi_pair, phi_pair, params, shape):
    """Independent naive-loop evaluation of the action."""
    Nt, Nx = shape.Nt, shape.Nx
    mt, mx = shape.mt, shape.mx
    w_fine = 1.0 / (mt * mx**3)
    ps, pp = psi_pair.starred.values, psi_pair.plain.values
    fs, fp = phi_pair.starred.values, phi_pair.plain.values
    # box means, one unit site at a time
    qs = np.zeros(shape.unit_extents, dtype=complex)
    qp = np.zeros(shape.unit_extents, dtype=complex)
    half_t, half_x = (mt - 1) // 2, (mx - 1) // 2
    fe = shape.fine_extents
    for it in range(Nt):
        for ix in range(Nx):
            for iy in range(Nx):
                for iz in range(Nx):
                    acc_s = 0.0 + 0.0j
                    acc_p = 0.0 + 0.0j
                    for jt in range(-half_t, half_t + 1):
                        for jx in range(-half_x, half_x + 1):
                            for jy in range(-half_x, half_x + 1):
                                for jz in range(-half_x, half_x + 1):
                                    idx = (
                                        (it * mt + jt) % fe[0],
                                        (ix * mx + jx) % fe[1],
                                        (iy * mx + jy) % fe[2],
                                        (iz * mx + jz) % fe[3],
                                    )
                                    acc_s += fs[idx]
                                    acc_p += fp[idx]
                    qs[it, ix, iy, iz] = acc_s * w_fine
                    qp[it, ix, iy, iz] = acc_p * w_fine
    block = np.sum((ps - qs) * (pp - qp))
    et, ex = shape.eps_t, shape.eps_x
    heat_vals = -params.d * (np.roll(fp, -1, axis=0) - fp) / et
    for ax in (1, 2, 3):
        heat_vals -= (np.roll(fp, -1, axis=ax) + np.roll(fp, 1, axis=ax) - 2 * fp) / ex**2
    heat = w_fine * np.sum(fs * heat_vals)
    chem = -params.mu * w_fine * np.sum(fs * fp)
    quart = 0.5 * params.v * w_fine * np.sum((fs * fp) ** 2)
    return block + heat + chem + quart


def test_action_zero_fields():
    av = action_value(FieldPair.zeros(SMALL, "unit"), FieldPair.zeros(SMALL, "fine"), ModelParams(mu=0.1, v=0.5))
    assert av.total == 0 and av.block == 0 and av.heat == 0 and av.chemical == 0 and av.quartic == 0


def test_action_constant_fields_closed_form():
    z = 0.7
    params = ModelParams(mu=0.3, v=0.4)
    psi = FieldPair(Field.constant(SMALL, "unit", z), Field.constant(SMALL, "unit", z))
    phi = FieldPair(Field.constant(SMALL, "fine", z), Field.constant(SMALL, "fine", z))
    av = action_value(psi, phi, params)
    sites = SMALL.sites("unit")
    assert av.block == pytest.approx(0.0, abs=1e-13)
    assert av.heat == pytest.approx(0.0, abs=1e-13)
    assert av.total == pytest.approx(sites * (0.5 * params.v * z**4 - params.mu * z**2), rel=1e-12)


def test_action_matches_reference_loops():
    rng = np.random.default_rng(0)
    params = ModelParams(mu=0.2, v=0.7, d=1.5)
    psi = FieldPair.random(SMALL, "unit", rng)
    phi = FieldPair.random(SMALL, "fine", rng)
    got = action_value(psi, phi, params).total
    want = reference_action(psi, phi, params, SMALL)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_action_total_is_sum_of_parts():
    rng = np.random.default_rng(1)
    params = ModelParams(mu=0.2, v=0.7)
    psi = FieldPair.random(SMALL, "unit", rng)
    phi = FieldPair.random(SMALL, "fine", rng)
    av = action_value(psi, phi, params)
    assert av.total == av.block + av.heat + av.chemical + av.quartic


def test_action_multilinearity_degrees():
    rng = np.random.default_rng(2)
    params = ModelParams(mu=0.2, v=0.7)
    psi = FieldPair.random(SMALL, "unit", rng)
    phi = FieldPair.random(SMALL, "fine", rng)
    t = 0.37
    # block term is degree (1,1) in (psi_star, psi) jointly with the averages
    a1 = action_value(psi.scaled(t), FieldPair.zeros(SMALL, "fine"), params)
    a0 = action_value(psi, FieldPair.zeros(SMALL, "fine"), params)
    assert a1.block == pytest.approx(t**2 * a0.block, rel=1e-12)
    # quartic term is degree (2,2) in (phi_star, phi)
    q1 = action_value(FieldPair.zeros(SMALL, "unit"), phi.scaled(t), params)
    q0 = action_value(FieldPair.zeros(SMALL, "unit"), phi, params)
    assert q1.quartic == pytest.approx(t**4 * q0.quartic, rel=1e-12)
    assert q1.heat == pytest.approx(t**2 * q0.heat, rel=1e-12)
    assert q1.chemical == pytest.approx(t**2 * q0.chemical, rel=1e-12)


def test_level_mismatch_rejected():
    params = ModelParams(mu=0.2, v=0.7)
    with pytest.raises(LatticeError):
        action_value(FieldPair.zeros(SMALL, "fine"), FieldPair.zeros(SMALL, "fine"), params)


def test_fields_on_two_tori_rejected():
    # the unit lattices of (1,3,1,1) and (2,3,1,1) have equal extents, so
    # nothing else tells the two tori apart
    params = ModelParams(mu=0.2, v=0.7)
    other = make_shape(2, 3, 1, 1)
    psi, phi = FieldPair.zeros(SMALL, "unit"), FieldPair.zeros(other, "fine")
    with pytest.raises(LatticeError, match="two tori") as info:
        action_value(psi, phi, params)
    assert str(SMALL) in str(info.value) and str(other) in str(info.value)
    with pytest.raises(LatticeError, match="two tori"):
        fd_stationarity(psi, phi, params, np.random.default_rng(0))
    with pytest.raises(LatticeError, match="two tori"):
        well_quadratic_form(Field.zeros(SMALL, "unit"), Field.zeros(other, "unit"), params)


def test_stationarity_fd_at_converged_solution():
    rng = np.random.default_rng(3)
    params = ModelParams(mu=0.05, v=0.01)
    pair = FieldPair.random(SMALL, "unit", rng, amplitude=0.1)
    sol = solve_nonlinear(pair, params, SMALL, tol=1e-10)
    assert sol.converged
    fd = fd_stationarity(pair, FieldPair(sol.phi_star, sol.phi), params, rng)
    assert fd <= 1e-6


def test_effective_potential_zero_field():
    from dataclasses import dataclass

    @dataclass
    class FlowStub:
        mu: float
        v: float
        d: float = 1.0

    ep = effective_potential(0.0, FlowStub(mu=0.1, v=0.01))
    assert ep.via_background == pytest.approx(0.0, abs=1e-14)
    assert ep.closed_form == pytest.approx(0.0, abs=1e-14)


def test_effective_potential_minimum_and_route_gap():
    from dataclasses import dataclass

    @dataclass
    class FlowStub:
        mu: float
        v: float
        d: float = 1.0

    flow = FlowStub(mu=0.05, v=0.01)
    r = np.sqrt(flow.mu / flow.v)
    zs = np.linspace(0.8 * r, 1.2 * r, 201)
    vals = [effective_potential(z, flow).via_background for z in zs]
    zmin = zs[int(np.argmin(vals))]
    assert abs(zmin - r) / r <= 0.02
    # route gap decreases when mu halves (fixed z, small coupling)
    gaps = []
    for mu in (0.2, 0.1, 0.05):
        ep = effective_potential(1.0, FlowStub(mu=mu, v=1e-4))
        gaps.append(abs(ep.via_background - ep.closed_form))
    assert gaps[2] < gaps[1] < gaps[0]


def test_well_geometry_values_and_ratios():
    from blockspin.flow import flow_params_at

    # mu_n = v_n means radius exactly 1
    f = flow_params_at(0, mu0=0.02, v0=0.02, L=3)
    assert well_geometry(f).radius == pytest.approx(1.0)
    radii, depths = [], []
    # mu0 = 1e-4 lies below the window (1.78e-4, 2e-3) of v0 = 1e-3, and scale 3 beyond its 2 steps
    with pytest.warns(UserWarning, match="outside the admissible window"):
        with pytest.warns(UserWarning, match="scale 3 beyond the admissible number of steps 2"):
            scales = [flow_params_at(n, mu0=1e-4, v0=1e-3, L=3) for n in range(4)]
    for fn in scales:
        g = well_geometry(fn)
        radii.append(g.radius)
        depths.append(g.depth)
    for n in range(3):
        assert radii[n + 1] / radii[n] == pytest.approx(3.0**1.5, rel=1e-12)
        assert depths[n + 1] / depths[n] == pytest.approx(3.0**5, rel=1e-12)
    assert all(d < 0 for d in depths)


def test_zero_field_quadratic_form_basics():
    params = ModelParams(mu=0.05, v=0.01)
    assert zero_field_quadratic_form(FieldPair.zeros(SMALL, "unit"), params) == 0
    # constants at mu=0: symbol vanishes at k=0
    pair = FieldPair(Field.constant(SMALL, "unit", 1.3), Field.constant(SMALL, "unit", 1.3))
    val = zero_field_quadratic_form(pair, ModelParams(mu=0.0, v=0.01))
    assert abs(val) <= 1e-12


def test_action_minus_quadratic_form_scales_quartically():
    rng = np.random.default_rng(4)
    params = ModelParams(mu=0.05, v=0.01)
    base = FieldPair.random(SMALL, "unit", rng, amplitude=1.0)
    lams, errs = [], []
    for e in range(3, 9):
        lam = 2.0**-e
        pair = base.scaled(lam)
        lin = solve_linear(pair, params)
        act = action_value(pair, FieldPair(lin.phi_star, lin.phi), params).total
        quad = zero_field_quadratic_form(pair, params, mode="discrete")
        lams.append(lam)
        errs.append(abs(act - quad))
    slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
    assert abs(slope - 4.0) <= 0.2


def test_well_quadratic_form_at_well_bottom():
    params = ModelParams(mu=2.0, v=0.5)
    val = well_quadratic_form(Field.zeros(SMALL, "unit"), Field.zeros(SMALL, "unit"), params)
    expected = -0.5 * params.well_radius**2 * params.v * SMALL.sites("unit")
    assert val == pytest.approx(expected, rel=1e-12)


def test_well_quadratic_form_constant_phase_is_flat():
    # a constant tangential perturbation costs nothing at zero momentum
    params = ModelParams(mu=2.0, v=0.5)
    theta = Field.constant(SMALL, "unit", 0.2)
    base = well_quadratic_form(Field.zeros(SMALL, "unit"), Field.zeros(SMALL, "unit"), params, mode="continuum")
    val = well_quadratic_form(Field.zeros(SMALL, "unit"), theta, params, mode="continuum")
    assert abs(val - base) <= 1e-12


def test_full_action_matches_well_form_to_third_order():
    rng = np.random.default_rng(5)
    params = ModelParams(mu=2.0, v=0.5)
    r = params.well_radius
    R0 = Field(SMALL, "unit", rng.standard_normal(SMALL.unit_extents).astype(complex))
    T0 = Field(SMALL, "unit", rng.standard_normal(SMALL.unit_extents).astype(complex))
    lams, errs = [], []
    for e in range(1, 7):
        lam = 2.0**-e
        R = R0.with_values(lam * R0.values)
        T = T0.with_values(lam * T0.values)
        X, H = solve_well_linear(R, T, params, mode="discrete")
        psi = FieldPair(
            Field(SMALL, "unit", r * np.exp(R.values - 1j * T.values)),
            Field(SMALL, "unit", r * np.exp(R.values + 1j * T.values)),
        )
        phi = FieldPair(
            Field(SMALL, "fine", r * np.exp(X.values - 1j * H.values)),
            Field(SMALL, "fine", r * np.exp(X.values + 1j * H.values)),
        )
        act = action_value(psi, phi, params).total / r**2
        quad = well_quadratic_form(R, T, params, mode="discrete")
        lams.append(lam)
        errs.append(abs(act - quad))
    slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
    assert slope >= 2.8


def test_fluctuation_spectrum_positive_distance():
    for mu in (0.0, 0.05, 0.1):
        rep = fluctuation_spectrum(ModelParams(mu=max(mu, 0.0), v=1.0) if mu > 0 else ModelParams(mu=0.0, v=1.0), make_shape(1, 3, 2, 2))
        assert rep.min_distance > 0
        assert rep.sqrt_residual <= 1e-8
        assert rep.sqrt_in_right_half_plane


def test_fluctuation_spectrum_constant_block_eigenvalue():
    # at the zero-momentum fiber with mu=0 the averaging mass contributes exactly 1
    rep = fluctuation_spectrum(ModelParams(mu=0.0, v=1.0), SMALL)
    dists = np.abs(rep.eigenvalues - 1.0)
    assert np.min(dists) <= 1e-12


def test_fluctuation_spectrum_large_scale_single_fiber():
    rep = fluctuation_spectrum(ModelParams(mu=0.1, v=1.0), make_shape(2, 3, 1, 1))
    assert len(rep.eigenvalues) == 3**10
    assert rep.min_distance > 0
    assert rep.min_distance == pytest.approx(0.9, rel=1e-10)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
def test_fluctuation_spectrum_names_a_singular_core(profile):
    # mu = 1, where the constant-field mass 1 - mu changes sign: the K = 0 core is [-1 + 1]
    with pytest.raises(NumericalError, match=r"fiber row \(0,\) singular") as info:
        fluctuation_spectrum(ModelParams(mu=1.0, v=1.0), SMALL, profile)
    assert info.value.row == (0,)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
def test_fluctuation_spectrum_names_a_decoupled_pole(profile):
    # mu is exactly a heat value of the fiber data (27 up to round-off), held
    # by entries of row 0 whose averaging weight is dead: they decouple, and
    # their covariance 1/a would divide by zero
    with pytest.raises(NumericalError, match=r"fiber row \(0,\) singular: .*without averaging weight") as info:
        fluctuation_spectrum(ModelParams(mu=26.999999999999996, v=1.0), SMALL, profile)
    assert info.value.row == (0,)


def test_quadratic_form_matches_action_quadratic_part_exactly():
    # with the linearized background the difference is the quartic term alone
    rng = np.random.default_rng(6)
    params = ModelParams(mu=0.05, v=0.01)
    pair = FieldPair.random(SMALL, "unit", rng, amplitude=0.05)
    lin = solve_linear(pair, params)
    av = action_value(pair, FieldPair(lin.phi_star, lin.phi), params)
    quad = zero_field_quadratic_form(pair, params, mode="discrete")
    assert abs((av.total - av.quartic) - quad) <= 1e-11 * max(1.0, abs(quad))
