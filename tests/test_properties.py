"""Fast fiber paths against their dense oracles on generated shapes.

Unit extents 3 and 9 carry negative unit modes.  k = 0 is always drawn: it
is a pole row of the well symbol at every mu, and of the zero-field symbol
and the block step at mu = 0 (heat symbol zero with live averaging weight).
At mu = 1 it is a pole of the zero-field symbol itself (1 + S = 0): there
the coupled fiber is singular and both evaluations must refuse.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockspin import flow, symbols
from blockspin.background import ModelParams, _direct_operator, _FiberOperator
from blockspin.flow import (QuadraticAction, apply_offset_kernel, block_spin_step, block_spin_step_dense,
                            localize_quadratic, quadratic_action_form)
from blockspin.lattice_ops import SHARP, SMOOTH, forward_difference
from blockspin.symbols import (
    NumericalError,
    fiber_resolvent,
    well_fiber_dense,
    well_resolvent,
    well_symbol,
    zero_field_symbol,
    zero_field_symbol_dense,
)
from blockspin.torus import Field, dual_modes, inner_product, make_shape, radians_for_modes

shapes = st.tuples(st.just(3), st.sampled_from([3, 9]), st.sampled_from([1, 3]))  # (L, Nt, Nx)
mus = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
ds = st.sampled_from([1.0, 2.5])
profiles = st.sampled_from([SHARP, SMOOTH])
modes = st.sampled_from(["discrete", "continuum"])


def _unit_momenta(shape, seed, count=3):
    """k = 0 plus a few unit momenta drawn from the whole dual lattice."""
    k = radians_for_modes(shape, dual_modes(shape, "unit"))
    pick = np.random.default_rng(seed).choice(len(k), size=min(count, len(k)), replace=False)
    return np.vstack([np.zeros(4), k[pick]])


def _close(fast, dense, tol=1e-9):
    assert np.max(np.abs(fast - dense)) <= tol * max(1.0, float(np.max(np.abs(dense))))


@given(shapes, mus, ds, modes, profiles, st.integers(0, 2**16))
@example((5, 2, 1), 0.0, 1.0, "discrete", SHARP, 0)  # L = 5: coupled fibers of at most 125 entries
@example((5, 1, 2), 0.7, 2.5, "continuum", SMOOTH, 1)
@example((3, 3, 1), 1.0, 1.0, "discrete", SHARP, 0)  # mu in the spectrum
@example((3, 3, 1), 2.2250738585e-313, 1.0, "discrete", SHARP, 0)  # subnormal a_0 = -mu: 1/a_0 overflows
def test_zero_field_symbol_matches_dense(dims, mu, d, mode, profile, seed):
    s = make_shape(1, *dims)
    k = _unit_momenta(s, seed)
    try:
        dense = np.array([zero_field_symbol_dense(kk, mu, d, s, mode, profile) for kk in k])
    except np.linalg.LinAlgError:
        # mu in the spectrum (mu = 1 at k = 0): the fast path must refuse as well
        with pytest.raises(NumericalError):
            zero_field_symbol(k, mu, d, s, mode, profile)
        return
    _close(zero_field_symbol(k, mu, d, s, mode, profile), dense)


@given(shapes, mus, ds, modes, profiles, st.integers(0, 2**16))
@example((5, 2, 1), 0.0, 1.0, "continuum", SMOOTH, 0)
@example((5, 1, 2), 0.7, 2.5, "discrete", SHARP, 1)
def test_well_symbol_matches_dense(dims, mu, d, mode, profile, seed):
    s = make_shape(1, *dims)
    k = _unit_momenta(s, seed)
    fast = well_symbol(k, mu, d, s, mode, profile)
    dense = np.array([well_fiber_dense(kk, mu, d, s, mode, profile)[1] for kk in k])
    _close(fast, dense)


@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**16))
def test_fiber_resolvent_matches_dense_solve(rows, blocks, seed):
    rng = np.random.default_rng(seed)
    a = (0.5 + np.abs(rng.standard_normal((rows, blocks)))) * np.exp(1j * rng.uniform(-3, 3, (rows, blocks)))
    u = rng.standard_normal((rows, blocks))
    u = np.where(np.abs(u) < 0.1, 0.1, u)
    rhs = rng.standard_normal((rows, blocks)) + 1j * rng.standard_normal((rows, blocks))
    poles = rng.random(rows) < 0.5
    a[poles, rng.integers(0, blocks, size=rows)[poles]] = 0.0
    sigma, x = fiber_resolvent(a, u, rhs)
    for r in range(rows):
        M = np.diag(a[r]) + np.outer(u[r], u[r])
        _close(x[r], np.linalg.solve(M, rhs[r]))
        _close(sigma[r], 1.0 - u[r] @ np.linalg.solve(M, u[r]))
        assert (sigma[r] == 0.0) == poles[r]


@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**16))
def test_well_resolvent_matches_dense_solve(rows, blocks, seed):
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((rows, blocks, 2, 2)) + 1j * rng.standard_normal((rows, blocks, 2, 2))
    D += 3.0 * np.eye(2)
    u = rng.uniform(0.3, 1.5, (rows, blocks)) * rng.choice([-1.0, 1.0], (rows, blocks))
    w = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
    poles = rng.random(rows) < 0.5
    for r in np.nonzero(poles)[0]:
        D[r, rng.integers(blocks)] = [[rng.standard_normal(), 0.0], [rng.standard_normal(), 0.0]]  # det exactly 0
    W, c = well_resolvent(D, u, w)
    for r in range(rows):
        M = np.zeros((2 * blocks, 2 * blocks), dtype=complex)
        for j in range(blocks):
            M[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = D[r, j]
        U = np.zeros((2 * blocks, 2))
        U[0::2, 0] = U[1::2, 1] = u[r]
        M += U @ U.T
        _close(W[r], np.eye(2) - U.T @ np.linalg.solve(M, U))
        _close(c[r].reshape(-1), np.linalg.solve(M, U @ w[r]))


@settings(max_examples=6)
@given(st.sampled_from([(3, 1), (3, 3)]), profiles, st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.none()),
       st.integers(0, 2**16))
@example((5, 1), SHARP, None, 0)  # 3125 sites, under the dense oracle's cap of 4096
def test_block_spin_step_matches_dense(dims, profile, mu, seed):
    # dims = (L, output time extent); mu = None draws a random symbol grid with positive real part
    L, nt = dims
    extents = (L * L * nt, L, L, L)
    if mu is None:
        rng = np.random.default_rng(seed)
        grid = 0.2 + rng.random(extents) + 1j * rng.standard_normal(extents)
        action = QuadraticAction(extents, grid)
    else:
        action = QuadraticAction.from_heat_minus_mu(extents, mu)
    fast = block_spin_step(action, L, profile)
    dense = block_spin_step_dense(action, L, profile)
    assert fast.extents == dense.extents == (nt, 1, 1, 1)
    _close(fast.symbol_grid, dense.symbol_grid)


@settings(max_examples=6)
@given(st.sampled_from([(3, 2, 1), (3, 3, 1)]), profiles,
       st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.none()), st.integers(0, 2**16))
def test_block_spin_step_in_slabs_matches_dense(dims, profile, mu, seed):
    # dims = (L, output time extent, output spatial extent); with the batch
    # budget at one entry every output time row is a slab of its own.  The
    # heat-minus-mu draws are one-term grids, so that all of them take the slab path
    L, nt, nx = dims
    extents = (L * L * nt, L * nx, L * nx, L * nx)
    if mu is None:
        rng = np.random.default_rng(seed)
        action = QuadraticAction(extents, 0.2 + rng.random(extents) + 1j * rng.standard_normal(extents))
    else:
        action = QuadraticAction(extents, QuadraticAction.from_heat_minus_mu(extents, mu).symbol_grid)
    whole = block_spin_step(action, L, profile)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbols, "_BATCH_ENTRIES", 1)
        fast = block_spin_step(action, L, profile)
    dense = block_spin_step_dense(action, L, profile)
    assert fast.extents == dense.extents == (nt, nx, nx, nx)
    _close(fast.symbol_grid, dense.symbol_grid)
    np.testing.assert_allclose(fast.symbol_grid, whole.symbol_grid, rtol=1e-14, atol=0)


# (output time extent, input spatial extent) of L = 3 steps.  (2, 6), 3888 input
# sites, is left out: its dense oracle takes 2-3 s, and (1, 6) has the even extents
step_dims = st.sampled_from([(1, 3), (2, 3), (3, 3), (1, 6)])


def _time_and_space_terms(extents, rng, repeated):
    """A random (Nt,1,1,1) and (1,Nx,Nx,Nx) term whose sum has real part above
    0.2; with ``repeated`` the space term takes only three distinct values."""
    Nt, Nx = extents[:2]
    time = 0.1 + rng.random((Nt, 1, 1, 1)) + 1j * rng.standard_normal((Nt, 1, 1, 1))
    values = 0.1 + rng.random(3 if repeated else Nx**3) + 1j * rng.standard_normal(3 if repeated else Nx**3)
    space = values[rng.integers(0, 3, Nx**3)] if repeated else values
    return time, space.reshape(1, Nx, Nx, Nx)


@settings(max_examples=8)
@given(step_dims, profiles, st.booleans(), st.integers(0, 2**16))
def test_time_plus_space_step_matches_dense(dims, profile, repeated, seed):
    # a time term and a space term take the time-plus-space path, which must
    # match the dense oracle and, to round-off, the slab path on their sum
    nt, Nx = dims
    extents = (9 * nt, Nx, Nx, Nx)
    action = QuadraticAction(extents, _time_and_space_terms(extents, np.random.default_rng(seed), repeated))
    fast = block_spin_step(action, 3, profile).symbol_grid
    _close(fast, block_spin_step_dense(action, 3, profile).symbol_grid)
    slab = block_spin_step(QuadraticAction(extents, action.symbol_grid), 3, profile).symbol_grid
    np.testing.assert_allclose(fast, slab, rtol=1e-13, atol=0)


@settings(max_examples=4)
@given(step_dims, profiles, st.integers(0, 2**16))
def test_mixed_term_step_takes_the_slab_path_and_matches_dense(dims, profile, seed):
    # a third term spanning time and x couples the two: the slab path steps it
    nt, Nx = dims
    extents = (9 * nt, Nx, Nx, Nx)
    rng = np.random.default_rng(seed)
    mixed = 0.1 * (rng.random((9 * nt, Nx, 1, 1)) + 1j * rng.standard_normal((9 * nt, Nx, 1, 1)))
    action = QuadraticAction(extents, _time_and_space_terms(extents, rng, False) + (mixed,))
    divides = []
    quotient = flow._quotient
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_quotient", lambda *args: divides.append(1) or quotient(*args))
        fast = block_spin_step(action, 3, profile).symbol_grid
    assert divides
    _close(fast, block_spin_step_dense(action, 3, profile).symbol_grid)


@given(st.integers(2, 6), st.data())
def test_pole_rule_rejects_two_poles_or_dead_weight(blocks, data):
    i, j = data.draw(st.lists(st.integers(0, blocks - 1), min_size=2, max_size=2, unique=True))
    u = np.ones(blocks)
    a = np.ones(blocks, dtype=complex)
    D = np.broadcast_to(np.eye(2, dtype=complex), (blocks, 2, 2)).copy()
    a[i] = 0.0
    D[i] = [[1.0, 0.0], [0.0, 0.0]]
    assert fiber_resolvent(a, u) == 0.0
    well_resolvent(D, u)
    dead = u.copy()
    dead[i] = 0.0
    with pytest.raises(NumericalError):
        fiber_resolvent(a, dead)
    with pytest.raises(NumericalError):
        well_resolvent(D, dead)
    a[j] = 0.0
    D[j] = [[0.0, 0.0], [0.0, 3.0]]
    with pytest.raises(NumericalError):
        fiber_resolvent(a, u)
    with pytest.raises(NumericalError):
        well_resolvent(D, u)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
@settings(max_examples=6)
@given(st.one_of(st.tuples(st.just(3), st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3])), st.just((5, 1, 1))),
       mus, ds, st.integers(0, 2**16))
@example((5, 1, 1), 0.0, 1.0, 0)
def test_fiber_apply_matches_direct_operator(profile, transpose, dims, mu, d, seed):
    # Newton's Jacobian and GMRES matvec use the fiber form; residuals the roll loops
    L, nt, nx = dims
    s = make_shape(1, L, nt, nx)
    params = ModelParams(mu=mu, v=1.0, d=d)
    f = Field.random(s, "fine", np.random.default_rng(seed))
    fast = _FiberOperator(s, params, profile).apply_field(f.values, transpose)
    _close(fast, _direct_operator(f, profile, params, transpose), tol=1e-12)


@given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 6), st.integers(0, 2**16))
def test_localize_reconstructs_random_kernel(nt, nx, entries, seed):
    # a random finite-support kernel on (Nt, Nx, Nx, Nx), odd and even extents alike;
    # its mass is made real by the zero offset so that no imaginary-mass warning fires
    rng = np.random.default_rng(seed)
    ext = (nt, nx, nx, nx)
    kern = np.zeros(ext, dtype=complex)
    for _ in range(entries):
        kern[tuple(rng.integers(0, n) for n in ext)] += rng.standard_normal() + 1j * rng.standard_normal()
    kern[0, 0, 0, 0] -= 1j * np.sum(kern).imag
    act = QuadraticAction(ext, np.fft.ifftn(kern) * kern.size)
    scalar, kernels = localize_quadratic(act)
    shape = make_shape(0, 3, nt, nx)
    psi_star = Field.random(shape, "unit", rng)
    psi = Field.random(shape, "unit", rng)
    lhs = quadratic_action_form(act, psi_star, psi)
    rhs = scalar * inner_product(psi_star, psi)
    for axis in range(4):
        rhs += inner_product(psi_star, apply_offset_kernel(kernels[axis], forward_difference(psi, axis)))
        later = np.ones(ext, dtype=bool)  # offsets with a nonzero coordinate after this axis
        later[(slice(None),) * (axis + 1) + (0,) * (3 - axis)] = False
        assert np.all(kernels[axis][later] == 0.0)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
