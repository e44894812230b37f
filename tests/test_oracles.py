"""Dense oracles for the fluctuation spectrum and the GMRES Newton direction.

Both compare a fiber-path result with the dense matrix of the direct-space
operator Q*Q + heat - mu, assembled column by column through the roll loops
of ``background._direct_operator``.  That operator is real, and its
mu-dependence is -mu I, so one assembly at mu = 0 per (shape, profile)
serves every mu.
"""

from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from blockspin.action import fluctuation_spectrum
from blockspin.background import (
    ModelParams,
    _direct_operator,
    _FiberOperator,
    _gmres_newton_step,
    _nonlinear_rhs,
    _seed_fields,
    nonlinear_residuals,
)
from blockspin.lattice_ops import SHARP, SMOOTH, operator_matrix
from blockspin.torus import Field, FieldPair, make_shape


@lru_cache(maxsize=None)
def _dense_operator(dims, profile):
    """Q*Q + heat on the fine lattice of make_shape(*dims), as a real matrix."""
    params = ModelParams(mu=0.0, v=1.0)
    M = operator_matrix(lambda f: f.with_values(_direct_operator(f, profile, params)),
                        make_shape(*dims), "fine", "fine")
    assert not M.imag.any()
    real = M.real.copy()
    real.flags.writeable = False  # shared by every test that reads it
    return real


@pytest.mark.parametrize("dims, profile", [((1, 3, 1, 1), SHARP), ((1, 3, 1, 1), SMOOTH), ((1, 3, 3, 1), SHARP)],
                         ids=["1111-sharp", "1111-smooth", "1131-sharp"])
def test_fluctuation_spectrum_matches_dense_operator(dims, profile):
    # unit extent 3 in time at (1,3,3,1); mu = 1.5 puts one eigenvalue on the negative axis
    shape = make_shape(*dims)
    lam0 = np.linalg.eigvals(_dense_operator(dims, profile))
    for mu in (0.0, 0.3, 0.9, 1.5):
        report = fluctuation_spectrum(ModelParams(mu=mu, v=1.0), shape, profile)
        dense = lam0 - mu
        gap = np.abs(dense[:, None] - report.eigenvalues[None, :])
        rows, cols = linear_sum_assignment(gap)  # the closest matching of the two multisets
        assert len(rows) == len(dense) == len(report.eigenvalues)
        assert gap[rows, cols].max() <= 1e-10, mu
        on_negative_axis = (np.abs(dense.imag) <= 1e-9) & (dense.real <= 1e-9)
        assert report.sqrt_in_right_half_plane == (not on_negative_axis.any()), mu


def _external_pair(shape, regime, rng):
    """Small random fields, or fields around the well radius with log-amplitude 2."""
    if regime == "small":
        return ModelParams(mu=0.5, v=0.01), FieldPair.random(shape, "unit", rng, amplitude=0.1)
    params = ModelParams(mu=2.0, v=0.5)
    R, Th = 2.0 * rng.standard_normal((2,) + shape.unit_extents)
    r = params.well_radius
    starred, plain = (Field(shape, "unit", r * np.exp(R + sign * 1j * Th)) for sign in (-1, 1))
    return params, FieldPair(starred, plain)


@pytest.mark.parametrize("regime", ["small", "well"])
@pytest.mark.parametrize("dims, profile", [((1, 3, 1, 1), SHARP), ((1, 3, 1, 1), SMOOTH), ((1, 3, 2, 1), SHARP)],
                         ids=["1111-sharp", "1111-smooth", "1121-sharp"])
def test_gmres_newton_direction_solves_the_dense_jacobian(dims, profile, regime):
    shape = make_shape(*dims)
    params, pair = _external_pair(shape, regime, np.random.default_rng(11))
    fiber = _FiberOperator(shape, params, profile)
    psi_rhs = _nonlinear_rhs(pair, profile)
    phi_star, phi = _seed_fields(pair, params, profile, "auto", fiber, psi_rhs)
    res_star, res_plain = nonlinear_residuals(pair, phi_star, phi, params, shape, profile, rhs=psi_rhs)
    rnorm = max(float(np.max(np.abs(res_star))), float(np.max(np.abs(res_plain))))
    d_plain, d_star = _gmres_newton_step(fiber, params, phi_star, phi, res_star, res_plain, rnorm)

    # solve_nonlinear's block layout: unknowns and equations (plain, starred)
    n = shape.sites("fine")
    lin = _dense_operator(dims, profile) - params.mu * np.eye(n)
    J = np.zeros((2 * n, 2 * n), dtype=complex)
    J[:n, :n] = lin
    J[n:, n:] = lin.T  # heat^T is the bilinear transpose of heat; the averaging part is symmetric
    diag = np.arange(n)
    two_v_ss = (2.0 * params.v * phi_star * phi).reshape(-1)
    J[diag, diag] += two_v_ss
    J[diag + n, diag + n] += two_v_ss
    J[diag, diag + n] = (params.v * phi * phi).reshape(-1)
    J[diag + n, diag] = (params.v * phi_star * phi_star).reshape(-1)
    r = np.concatenate([res_plain.reshape(-1), res_star.reshape(-1)])
    d = np.concatenate([d_plain.reshape(-1), d_star.reshape(-1)])
    rtol = min(1e-4, max(1e-12, 1e-3 * rnorm))  # the step's own GMRES tolerance
    assert rnorm > 1e-8  # a step that has something to solve
    assert np.linalg.norm(J @ d + r) <= rtol * np.linalg.norm(r)
