import contextlib
import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockspin import flow
from blockspin.action import well_geometry
from blockspin.cli import main
from blockspin.flow import (
    FlowParams,
    FlowStep,
    QuadraticAction,
    admissible_window,
    apply_offset_kernel,
    block_spin_step,
    block_spin_step_dense,
    flow_params_at,
    localize_quadratic,
    max_steps,
    quadratic_action_form,
    quadratic_mass_correction,
    renormalize_mu,
    run_flow,
)
from blockspin import symbols
from blockspin.lattice_ops import SHARP, SMOOTH, forward_difference
from blockspin.symbols import NumericalError, heat_symbol, zero_field_symbol
from blockspin.torus import Field, LatticeError, fft_mode_grid, inner_product, make_shape, radians_for_modes

EXT = (9, 3, 3, 3)


@pytest.mark.parametrize("ext", [(9, 3, 3, 3), (27, 9, 9, 9)])
def test_heat_minus_mu_grid_is_heat_symbol(ext):
    # each axis term must land on its own axis of the grid
    shape = make_shape(0, 3, ext[0], ext[1])
    k = radians_for_modes(shape, fft_mode_grid(ext))
    grid = QuadraticAction.from_heat_minus_mu(ext, mu=0.3, d=2.5).symbol_grid
    np.testing.assert_allclose(grid, heat_symbol(tuple(np.moveaxis(k, -1, 0)), shape, 2.5, "discrete") - 0.3,
                               rtol=0, atol=1e-12)


def test_heat_minus_mu_grid_on_non_cubic_extents():
    # each extent sets its own axis's momenta: the per-axis formula, entry by entry
    ext, mu, d = (6, 4, 5, 7), 0.3, 0.5
    grid = QuadraticAction.from_heat_minus_mu(ext, mu=mu, d=d).symbol_grid
    for idx in itertools.product(*map(range, ext)):
        k = [2.0 * np.pi * i / N for i, N in zip(idx, ext)]
        want = -d * (np.exp(1j * k[0]) - 1.0) + sum(2.0 - 2.0 * np.cos(ka) for ka in k[1:]) - mu
        assert abs(grid[idx] - want) <= 1e-12



def test_heat_minus_mu_terms_sum_to_its_grid():
    act = QuadraticAction.from_heat_minus_mu((27, 9, 9, 9), mu=0.05)
    time, space = act.terms
    assert time.shape == (27, 1, 1, 1) and space.shape == (1, 9, 9, 9)
    grid = act.symbol_grid
    assert np.array_equal(grid, time + space) and grid.shape == act.extents
    assert act.symbol_grid is grid  # built once, on the first read
    one = QuadraticAction(act.extents, grid)
    assert len(one.terms) == 1 and one.symbol_grid is one.terms[0]


@pytest.mark.parametrize("shapes", [
    [(9, 1, 1, 1), (1, 2, 3, 3)],  # an extent that is neither 1 nor the axis's
    [(9, 1, 1, 1), (1, 3, 3, 3), (1, 2, 3, 3)],  # the same, beside terms that span every axis
    [(9, 1, 1, 1)],                # the spatial axes spanned by no term
    [(9, 1, 1, 1), (1, 3, 3)],     # a term of the wrong rank
    [],
    [(9, 1, 1, 1), (1, 3, 3, 3), (9, 3, 1, 1)],  # a third term spanning time and x
    [(1, 3, 3, 3), (9, 1, 1, 1)],  # the pair's terms swapped
])
def test_terms_that_do_not_broadcast_to_extents_raise(shapes):
    terms = tuple(np.ones(shape, dtype=complex) for shape in shapes)
    with pytest.raises(LatticeError, match=re.escape(str(shapes))):
        QuadraticAction((9, 3, 3, 3), terms)


@pytest.mark.parametrize("extents", [(9, 3, 3), (9, 3, 3, 3, 1), (9, 3, 3, 0), (9.0, 3, 3, 3), (9, True, 3, 3)])
def test_extents_other_than_four_positive_integers_raise(extents):
    # (9, 3, 3) used to pass and fail later inside numpy
    with pytest.raises(LatticeError, match="extents must be four positive integers"):
        QuadraticAction(extents, np.ones((9, 3, 3), dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_terms_raise(bad):
    # a NaN grid entry used to come out of the step as a NaN row, with only a RuntimeWarning
    grid = np.ones((9, 3, 3, 3), dtype=complex)
    grid[1, 2, 0, 1] = bad
    with pytest.raises(LatticeError, match="symbol terms must be finite"):
        QuadraticAction((9, 3, 3, 3), grid)
    time, space = QuadraticAction.from_heat_minus_mu((9, 3, 3, 3), 0.1).terms
    space = space.copy()
    space[0, 1, 1, 1] = bad
    with pytest.raises(LatticeError, match="symbol terms must be finite"):
        QuadraticAction((9, 3, 3, 3), (time, space))


@pytest.mark.parametrize("extents", [(9, 3, 3, 6), (9, 3, 6, 3), (12, 3, 3, 3), (9, 2, 2, 2)])
def test_both_steps_check_the_torus_alike(extents):
    # the dense step used to die in a numpy broadcast on non-cubic space
    action = QuadraticAction(extents, np.ones(extents, dtype=complex))
    message = re.escape(f"block step needs L^2 | Nt, L | Nx and cubic space, got {extents}, L=3")
    for step in (block_spin_step, block_spin_step_dense):
        with pytest.raises(LatticeError, match=message):
            step(action, 3)


def test_block_prefactor_values():
    assert flow_params_at(1, 1e-5, 1e-5, 3).a == 1.0
    assert flow_params_at(2, 1e-5, 1e-5, 3).a == 0.9  # (8/9)/(80/81) exactly
    # limit 1 - L^-2
    with pytest.warns(UserWarning, match="scale 40 beyond the admissible number of steps 25"):
        assert flow_params_at(40, 1e-30, 1e-30, 3).a == pytest.approx(1 - 3.0**-2, abs=1e-12)


def test_flow_params_leading_scaling():
    f0 = flow_params_at(0, 1e-5, 1e-5, 3)
    f1 = flow_params_at(1, 1e-5, 1e-5, 3)
    assert f1.mu == pytest.approx(9 * f0.mu)
    assert f1.v == pytest.approx(f0.v / 3)
    assert f1.kappa / f0.kappa == pytest.approx(3.0**0.75)
    assert f1.kappa_prime / f0.kappa_prime == pytest.approx(3.0**0.375)


def test_admissibility_warning():
    with pytest.warns(UserWarning):
        flow_params_at(0, 0.5, 1e-5, 3)  # mu0 far above the admissible window


def test_max_steps_value():
    assert max_steps(1e-5, 3) == 4


def test_step_translation_invariant_output():
    # symbol representation keeps the output translation invariant; the dense
    # oracle must produce a circulant-consistent symbol (pure real check here:
    # outputs of the two routes coincide)
    rng = np.random.default_rng(0)
    grid = rng.standard_normal(EXT) + 1j * rng.standard_normal(EXT) + 5.0
    act = QuadraticAction(EXT, grid)
    out = block_spin_step(act, 3)
    dense = block_spin_step_dense(act, 3)
    np.testing.assert_allclose(out.symbol_grid, dense.symbol_grid, atol=1e-10)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH])
def test_step_matches_dense_oracle_heat_input(profile):
    act = QuadraticAction.from_heat_minus_mu(EXT, mu=0.05, d=1.0)
    out = block_spin_step(act, 3, profile)
    dense = block_spin_step_dense(act, 3, profile)
    np.testing.assert_allclose(out.symbol_grid, dense.symbol_grid, atol=1e-8)


def test_step_zero_momentum_scalar_reduction():
    act = QuadraticAction.from_heat_minus_mu(EXT, mu=0.05, d=1.0)
    out = block_spin_step(act, 3)
    A0 = complex(act.symbol_grid[0, 0, 0, 0])
    assert out.symbol_grid[0, 0, 0, 0] == pytest.approx(9.0 / (9.0 + 1.0 / A0), rel=1e-12)


def test_step_massless_fixed_point_small_momenta():
    # the massless heat action flows onto the zero-field fixed-point kernel:
    # one step gives the scale-1 kernel (1 + S)^-1 of zero_field_symbol (the
    # step's block weight is a/L^2 with a = 1), and a chain of SHARP steps
    # builds up the running prefactor, 1/out = 1/a_n - 1 + 1/zero_field_symbol.
    # (At the output's smallest k0 = 2pi/9 the kernel is not close to the
    # rescaled heat symbol: (1/a + 1/h)^-1 differs from h by O(|h|/a).)
    ext = (81, 9, 9, 9)
    act = QuadraticAction.from_heat_minus_mu(ext, mu=0.0, d=1.0)
    shape1 = make_shape(1, 3, 9, 3)
    k1 = radians_for_modes(shape1, fft_mode_grid(shape1.unit_extents))
    for profile in (SHARP, SMOOTH):
        out = block_spin_step(act, 3, profile)
        want = zero_field_symbol(k1, 0.0, 1.0, shape1, "discrete", profile)
        assert np.max(np.abs(out.symbol_grid - want)) <= 1e-12
        assert out.symbol_grid[0, 0, 0, 0] == 0.0  # massless stays massless

    # two SHARP steps: (243,9,9,9) -> (27,3,3,3) -> (3,1,1,1), the scale-2 unit torus
    act2 = QuadraticAction.from_heat_minus_mu((243, 9, 9, 9), mu=0.0, d=1.0)
    out2 = block_spin_step(block_spin_step(act2, 3), 3)
    shape2 = make_shape(2, 3, 3, 1)
    k2 = radians_for_modes(shape2, fft_mode_grid(shape2.unit_extents))
    zf2 = zero_field_symbol(k2, 0.0, 1.0, shape2, "discrete", SHARP)
    a2 = flow_params_at(2, 1e-5, 1e-5, 3).a
    assert out2.symbol_grid[0, 0, 0, 0] == 0.0 and zf2[0, 0, 0, 0] == 0.0
    live = zf2 != 0.0
    assert np.count_nonzero(live) == zf2.size - 1
    lhs = 1.0 / out2.symbol_grid[live]
    rhs = 1.0 / a2 - 1.0 + 1.0 / zf2[live]
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def _unit_symbol(shape, mu, d, profile=SHARP):
    """zero_field_symbol over every unit momentum of ``shape``, in FFT order."""
    k = radians_for_modes(shape, fft_mode_grid(shape.unit_extents))
    return zero_field_symbol(k, mu, d, shape, "discrete", profile)


@given(st.sampled_from([(3, 3), (9, 3), (3, 9), (27, 9)]), st.floats(0.0, 0.5), st.floats(1.0, 3.0),
       st.sampled_from([SHARP, SMOOTH]))
@example((27, 9), 0.5, 1.0, SMOOTH)  # the full (243,27,27,27) input at the window's top
def test_step_of_heat_minus_mu_is_zero_field_symbol(out_dims, mu, d, profile):
    # the chain's closed form at any mass: one step of the heat action minus mu is
    # the scale-1 zero-field symbol at mass L^2 mu, over the output's unit momenta
    out = make_shape(1, 3, *out_dims)
    act = QuadraticAction.from_heat_minus_mu((9 * out.Nt,) + (3 * out.Nx,) * 3, mu, d)
    got = block_spin_step(act, 3, profile).symbol_grid
    want = _unit_symbol(out, 9.0 * mu, d, profile)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@given(st.floats(0.0, 0.5), st.floats(1.0, 3.0))
def test_two_sharp_steps_of_heat_minus_mu_follow_the_running_prefactor(mu, d):
    # (243,27,27,27) -> (27,9,9,9) -> (3,3,3,3): 1/out = 1/a_2 - 1 + 1/zero_field_symbol
    # on the scale-2 torus at mass L^4 mu; a pole row of the symbol maps to 0 in both
    act = QuadraticAction.from_heat_minus_mu((243, 27, 27, 27), mu, d)
    got = block_spin_step(block_spin_step(act, 3), 3).symbol_grid
    zf = _unit_symbol(make_shape(2, 3, 3, 3), 81.0 * mu, d)
    a2 = flow_params_at(2, 1e-5, 1e-5, 3).a
    live = zf != 0.0
    want = np.zeros_like(zf)
    want[live] = 1.0 / (1.0 / a2 - 1.0 + 1.0 / zf[live])
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
def test_step_pole_rows_in_a_later_slab(monkeypatch, profile):
    # (18,9,9,9) steps to (2,3,3,3): fiber row 28 is unit site (1,0,0,1), in
    # the second time row.  Its block-0 entry is fine mode (1,0,0,1) and its
    # block (1,0,0,0) entry is fine mode (3,0,0,1); both carry live weight.
    act = QuadraticAction.from_heat_minus_mu((18, 9, 9, 9), mu=0.3)
    one = act.symbol_grid.copy()
    one[1, 0, 0, 1] = 0.0
    two = one.copy()
    two[3, 0, 0, 1] = 0.0
    whole = block_spin_step(QuadraticAction(act.extents, one), 3, profile).symbol_grid
    with pytest.raises(NumericalError, match=r"fiber row \(28,\)"):
        block_spin_step(QuadraticAction(act.extents, two), 3, profile)
    monkeypatch.setattr(symbols, "_BATCH_ENTRIES", 1)  # one time row per slab
    sliced = block_spin_step(QuadraticAction(act.extents, one), 3, profile).symbol_grid
    assert sliced[1, 0, 0, 1] == 0.0 and np.count_nonzero(sliced == 0.0) == 1
    np.testing.assert_allclose(sliced, whole, rtol=1e-14, atol=0)
    with pytest.raises(NumericalError, match=r"fiber row \(28,\)"):
        block_spin_step(QuadraticAction(act.extents, two), 3, profile)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
def test_step_pole_without_weight_names_its_row(monkeypatch, profile):
    # fine mode (2,0,0,0) of (18,9,9,9) is block (1,0,0,0) of the K = 0 fiber, where both
    # profiles vanish: a zero there is a pole without averaging weight
    grid = QuadraticAction.from_heat_minus_mu((18, 9, 9, 9), mu=0.3).symbol_grid.copy()
    grid[2, 0, 0, 0] = 0.0
    act = QuadraticAction(grid.shape, grid)
    with pytest.raises(NumericalError, match=r"fiber row \(0,\) singular: more than one pole, or a pole without"):
        block_spin_step(act, 3, profile)
    monkeypatch.setattr(symbols, "_BATCH_ENTRIES", 1)  # one time row per slab
    with pytest.raises(NumericalError, match=r"fiber row \(0,\)"):
        block_spin_step(act, 3, profile)


def test_chain_build_and_step_in_small_memory():
    # the chain's first action is a time and a space term: neither building nor
    # stepping it writes the (243,27,27,27) grid (76 MB)
    tracemalloc.start()
    try:
        block_spin_step(QuadraticAction.from_heat_minus_mu((243, 27, 27, 27), mu=0.05), 3, SMOOTH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
@pytest.mark.parametrize("ext", [(9, 3, 3, 3), (18, 3, 3, 3), (81, 9, 9, 9), (243, 27, 27, 27)])
def test_terms_and_grid_step_alike(ext, profile):
    # the terms take the time-plus-space path and the grid the slab path: two
    # algorithms that sum in different orders (worst measured 1.4e-14 relative).
    # At mu = 0 the K = 0 row holds a live pole and maps to exactly 0 in both
    for mu in (0.0, 1e-4, 0.05, 0.5):
        terms = QuadraticAction.from_heat_minus_mu(ext, mu)
        grid = QuadraticAction(ext, terms.symbol_grid)
        got = block_spin_step(terms, 3, profile).symbol_grid
        want = block_spin_step(grid, 3, profile).symbol_grid
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert (got[0, 0, 0, 0] == 0.0) == (mu == 0.0)
        if math.prod(ext) <= 486:
            dense = block_spin_step_dense(terms, 3, profile).symbol_grid
            for fast in (got, want):
                assert np.max(np.abs(fast - dense)) <= 1e-12 * max(1.0, np.max(np.abs(dense)))


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
def test_terms_and_grid_name_the_same_dead_pole_row(monkeypatch, profile):
    # (18,9,9,9) steps to (2,3,3,3), and each pair below runs the time-plus-space
    # path (terms) and the grid path (grid), in one slab and one time row per slab
    ext = (18, 9, 9, 9)
    time, space = QuadraticAction.from_heat_minus_mu(ext, mu=0.3).terms

    def both(space):
        terms = QuadraticAction(ext, (time, space))
        return terms, QuadraticAction(ext, terms.symbol_grid)

    # fine mode (0,3,1,0) is unit site (0,0,1,0), fiber row 3, at x block 1 of
    # K_x = 0, where both profiles vanish.  A zero space term there meets the
    # zero time term at k0 = 0: a pole without weight
    dead = space.copy()
    dead[0, 3, 1, 0] = 0.0
    # fiber row 28 is unit site (1,0,0,1), in the second time row.  Fine modes
    # (1,0,0,1) and (3,3,0,1) are its blocks (0,0,0,0) and (1,1,0,0), both live;
    # a space term cancelling the time term at each makes two poles in the row
    one = space.copy()
    one[0, 0, 0, 1] = -time[1, 0, 0, 0]
    two = one.copy()
    two[0, 3, 0, 1] = -time[3, 0, 0, 0]
    for batch in (symbols._BATCH_ENTRIES, 1):
        monkeypatch.setattr(symbols, "_BATCH_ENTRIES", batch)
        for act in both(dead):
            with pytest.raises(NumericalError, match=r"fiber row \(3,\) singular: more than one pole, or a pole without"):
                block_spin_step(act, 3, profile)
        for act in both(two):
            with pytest.raises(NumericalError, match=r"fiber row \(28,\) singular: more than one pole, or a pole without"):
                block_spin_step(act, 3, profile)
        # one live pole: row 28 maps to exactly 0 on both paths, and nothing else does
        got, want = (block_spin_step(act, 3, profile).symbol_grid for act in both(one))
        assert got[1, 0, 0, 1] == 0.0 and np.count_nonzero(got == 0.0) == 1
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("ext", [(9, 3, 3, 3), (243, 27, 27, 27)])
def test_step_divides_no_subnormal_weight(monkeypatch, ext):
    # SMOOTH's spatial weight holds round-off of exact zeros far below the
    # smallest normal float; the step sets those to 0 before the grid path
    # divides by the grid, and before the time-plus-space path contracts the terms
    seen, tables = [], []
    quotient, weights = flow._quotient, flow._step_weights

    def recording(w, a, pole):
        seen.append(w.copy())
        return quotient(w, a, pole)

    monkeypatch.setattr(flow, "_quotient", recording)
    monkeypatch.setattr(flow, "_step_weights", lambda *args: tables.append(weights(*args)) or tables[-1])
    terms = QuadraticAction.from_heat_minus_mu(ext, mu=0.05)
    block_spin_step(QuadraticAction(ext, terms.symbol_grid), 3, SMOOTH)
    assert seen
    block_spin_step(terms, 3, SMOOTH)
    assert len(tables) == 2
    for w in seen + [w for pair in tables for w in pair]:
        assert not np.any((w != 0.0) & (np.abs(w) < np.finfo(float).tiny))


def test_step_calls_traced_names_on_the_callers_thread(monkeypatch):
    # a span recorder wrapping these names is single-threaded: the step calls them on the caller's thread
    seen = []

    def on_thread(name, fn):
        def wrapped(*args, **kwargs):
            seen.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapped

    names = ("profile_axis_symbol", "fiber_momenta")
    for name in names:
        monkeypatch.setattr(flow, name, on_thread(name, getattr(flow, name)))
    block_spin_step(QuadraticAction.from_heat_minus_mu((243, 27, 27, 27), mu=0.05), 3, SMOOTH)
    assert {name for name, _ in seen} == set(names)
    assert {ident for _, ident in seen} == {threading.main_thread().ident}


def test_chain_first_step_takes_the_time_plus_space_path(monkeypatch):
    # the chain's first action is a time and a space term: it never reaches the grid path's divide
    def grid_path(*args):
        raise AssertionError("the heat-minus-mu terms took the grid path")

    monkeypatch.setattr(flow, "_quotient", grid_path)
    for profile in (SHARP, SMOOTH):
        block_spin_step(QuadraticAction.from_heat_minus_mu((243, 27, 27, 27), mu=0.05), 3, profile)


def test_heat_minus_mu_rejects_non_finite_couplings():
    for mu, d, name in ((np.nan, 1.0, "mu"), (complex(0.1, np.inf), 1.0, "mu"), (0.1, np.inf, "d")):
        with pytest.raises(LatticeError, match=f"{name} must be finite"):
            QuadraticAction.from_heat_minus_mu((9, 3, 3, 3), mu, d)
    # complex finite mu stays allowed
    assert np.all(np.isfinite(QuadraticAction.from_heat_minus_mu((9, 3, 3, 3), 0.1 + 0.2j).symbol_grid))


def test_step_divisibility_guard():
    act = QuadraticAction.from_heat_minus_mu((4, 4, 4, 4), mu=0.1)
    with pytest.raises(Exception):
        block_spin_step(act, 3)
    # the fiber layout, like the dense oracle, needs equal spatial extents
    with pytest.raises(LatticeError):
        block_spin_step(QuadraticAction.from_heat_minus_mu((9, 3, 3, 6), mu=0.1), 3)


def _offsets(kern):
    """Nonzero entries of an FFT-order kernel keyed by symmetric offsets in (-N/2, N/2]."""
    ext = np.array(kern.shape)
    return {tuple(((np.array(i) + (ext - 1) // 2) % ext - (ext - 1) // 2).tolist()): complex(kern[i])
            for i in zip(*np.nonzero(kern))}


def _reconstruction_gap(act, kernels, scalar, rng):
    """|<psi_star, K psi> - scalar <psi_star, psi> - sum_axis <psi_star, K_axis d_axis psi>| and |lhs|."""
    shape = make_shape(0, 3, act.extents[0], act.extents[1])
    psi_star = Field.random(shape, "unit", rng)
    psi = Field.random(shape, "unit", rng)
    lhs = quadratic_action_form(act, psi_star, psi)
    rhs = scalar * inner_product(psi_star, psi)
    for axis in range(4):
        rhs += inner_product(psi_star, apply_offset_kernel(kernels[axis], forward_difference(psi, axis)))
    return abs(lhs - rhs), abs(lhs)


def test_localize_identity_kernel():
    grid = np.full(EXT, 0.7, dtype=complex)  # K = 0.7 * identity
    scalar, kernels = localize_quadratic(QuadraticAction(EXT, grid))
    assert scalar == pytest.approx(0.7)
    assert kernels.shape == (4,) + EXT
    assert all(len(_offsets(k)) == 0 for k in kernels)


def test_localize_forward_time_shift():
    # shift kernel: symbol exp(i k0); scalar part 1, time-derivative part identity
    axes = [2.0 * np.pi * np.arange(N) / N for N in EXT]
    k0 = np.meshgrid(*axes, indexing="ij")[0]
    scalar, kernels = localize_quadratic(QuadraticAction(EXT, np.exp(1j * k0)))
    assert scalar == pytest.approx(1.0, abs=1e-12)
    assert set(_offsets(kernels[0])) == {(0, 0, 0, 0)}
    assert kernels[0][0, 0, 0, 0] == pytest.approx(1.0)
    assert all(len(_offsets(kernels[a])) == 0 for a in (1, 2, 3))


@pytest.mark.parametrize("c", [1e-20, 1e3])
def test_localize_scale_equivariant(c):
    # the split is linear in K: localizing c*K gives c times the kernels of K
    # with the same support, whatever the kernel's overall scale
    axes = [2.0 * np.pi * np.arange(N) / N for N in EXT]
    k0 = np.meshgrid(*axes, indexing="ij")[0]
    scalar, kernels = localize_quadratic(QuadraticAction(EXT, np.exp(1j * k0)))
    scalar_c, kernels_c = localize_quadratic(QuadraticAction(EXT, c * np.exp(1j * k0)))
    assert scalar_c == pytest.approx(c * scalar, rel=1e-12)
    for axis in range(4):
        offs, offs_c = _offsets(kernels[axis]), _offsets(kernels_c[axis])
        assert set(offs_c) == set(offs)
        for off, coeff in offs.items():
            assert offs_c[off] == pytest.approx(c * coeff, rel=1e-12)


def test_localize_reconstruction_random_kernel():
    rng = np.random.default_rng(1)
    # random finite-support kernel -> symbol grid
    kern = np.zeros(EXT, dtype=complex)
    for _ in range(12):
        idx = tuple(rng.integers(0, n) for n in EXT)
        kern[idx] = rng.standard_normal() + 1j * rng.standard_normal()
    grid = np.fft.fftn(kern)
    act = QuadraticAction(EXT, grid)
    # reconstruction: <psi_star, K psi> = scalar <psi_star, psi> + sum_axis <psi_star, K_axis d_axis psi>
    with pytest.warns(UserWarning, match="localized mass has imaginary part"):  # a random kernel's mass is complex
        _, kernels = localize_quadratic(act)
    gap, lhs = _reconstruction_gap(act, kernels, complex(grid[0, 0, 0, 0]), rng)
    assert gap <= 1e-12 * max(1.0, lhs)


def test_localize_reconstruction_dense_even_grid():
    # every entry of the kernel is live, and even extents carry the +N/2 representative
    rng = np.random.default_rng(2)
    ext = (8, 4, 4, 4)
    grid = rng.standard_normal(ext) + 1j * rng.standard_normal(ext)
    act = QuadraticAction(ext, grid)
    with pytest.warns(UserWarning):  # a random kernel's mass is complex
        _, kernels = localize_quadratic(act)
    gap, lhs = _reconstruction_gap(act, kernels, complex(grid[0, 0, 0, 0]), rng)
    assert gap <= 1e-12 * max(1.0, lhs)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
def test_localize_chain_step_output(profile):
    # the flow chain's first output: (243,27,27,27) steps to (27,9,9,9)
    act = block_spin_step(QuadraticAction.from_heat_minus_mu((243, 27, 27, 27), 0.05), 3, profile)
    scalar, kernels = localize_quadratic(act)
    assert scalar == act.symbol_grid[0, 0, 0, 0].real
    gap, lhs = _reconstruction_gap(act, kernels, scalar, np.random.default_rng(5))
    assert gap <= 1e-12 * max(1.0, lhs)


def test_localize_single_displacement_path():
    # K = v at z = (2, -1, 0, 2) on (8, 4, 4, 4): z_3 = 2 is the +N/2 representative;
    # the path runs +2 along t, -1 along x, +2 along z
    ext = (8, 4, 4, 4)
    v = 0.3 - 0.2j
    kern = np.zeros(ext, dtype=complex)
    kern[2, -1, 0, 2] = v
    with pytest.warns(UserWarning):  # the mass v is complex
        _, kernels = localize_quadratic(QuadraticAction(ext, np.fft.ifftn(kern) * kern.size))
    want = [
        {(0, 0, 0, 0): v, (1, 0, 0, 0): v},
        {(2, -1, 0, 0): -v},
        {},
        {(2, -1, 0, 0): v, (2, -1, 0, 1): v},
    ]
    assert kernels[1][2, -1, 0, 0] == pytest.approx(-v, abs=1e-15)  # offsets index the array directly
    for axis in range(4):
        offs = _offsets(kernels[axis])
        assert set(offs) == set(want[axis])
        for off, c in want[axis].items():
            assert offs[off] == pytest.approx(c, abs=1e-15)


def test_apply_offset_kernel_matches_shifts():
    rng = np.random.default_rng(4)
    f = Field.random(make_shape(0, 3, 4, 3), "unit", rng)
    # (0, 0, 0, 5) wraps onto (0, 0, 0, 2)
    coeffs = {(1, 0, 0, 0): 2.0, (0, -1, 0, 0): 1j, (0, 0, 0, 5): 0.5, (-3, 1, 2, -1): -0.7 + 0.1j}
    kern = np.zeros(f.values.shape, dtype=complex)
    for off, c in coeffs.items():
        kern[tuple(np.mod(off, f.values.shape))] += c
    want = sum(c * np.roll(f.values, tuple(-o for o in off), axis=(0, 1, 2, 3)) for off, c in coeffs.items())
    np.testing.assert_allclose(apply_offset_kernel(kern, f).values, want, rtol=0, atol=1e-14)
    assert np.all(apply_offset_kernel(np.zeros_like(kern), f).values == 0.0)


def test_apply_offset_kernel_rejects_mismatched_shape():
    f = Field.random(make_shape(0, 3, 4, 3), "unit", np.random.default_rng(4))
    with pytest.raises(LatticeError, match=r"kernel shaped \(4, 3, 3, 4\), field shaped \(4, 3, 3, 3\)"):
        apply_offset_kernel(np.zeros((4, 3, 3, 4), dtype=complex), f)


R_MINUS, R_PLUS = 3.0 - 2.0 * math.sqrt(2.0), 3.0 + 2.0 * math.sqrt(2.0)


def _at_base(B, L=2):
    """Flow params whose next scale's base L^2 mu is B; at L = 2 exactly B."""
    return dataclasses.replace(flow_params_at(1, 1e-5, 1e-5, L), mu=B / L**2)


def test_renormalize_mu_has_no_fixed_point_above_the_tangency():
    # B = 0.2 > 3 - 2 sqrt 2: mu = B + mu^2/(1 - mu) has no real root
    with pytest.raises(NumericalError, match=r"no fixed point .* at B = L\^2 mu = 0\.2:"):
        renormalize_mu(_at_base(0.2, L=3))


def test_renormalize_mu_converges_just_below_the_tangency():
    # B = 0.17, just below 3 - 2 sqrt 2: the smaller root of 2 m^2 - (1 + B) m + B = 0
    L = 3
    f = _at_base(0.17, L)
    B = L * L * f.mu
    got = renormalize_mu(f)
    assert got == pytest.approx(B + quadratic_mass_correction(got / L**2, L), rel=1e-14, abs=0.0)
    assert got == pytest.approx(((1.0 + B) - math.sqrt((1.0 + B) ** 2 - 8.0 * B)) / 4.0, rel=1e-13, abs=0.0)


@given(st.floats(-0.5, R_MINUS))
@example(0.0)
@example(R_MINUS)
def test_renormalize_mu_is_the_smaller_root_up_to_the_tangency(B):
    m = renormalize_mu(_at_base(B))
    assert abs(m - (B + quadratic_mass_correction(m / 4, 2))) <= 1e-14 * abs(m)
    assert m <= 1.0 - math.sqrt(2.0) / 2.0  # the double root at B = 3 - 2 sqrt 2


@given(st.floats(R_MINUS, 50.0, exclude_min=True))
@example(R_PLUS)  # from here on both roots lie beyond the pole at m = 1
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_renormalize_mu_raises_without_a_fixed_point(B):
    with pytest.raises(NumericalError, match="no fixed point"):
        renormalize_mu(_at_base(B))


def _stepped_mass(mu, L, ext, profile, d=1.0):
    """Output mass of the step on the heat-minus-mu input: the closed form's oracle."""
    return -block_spin_step(QuadraticAction.from_heat_minus_mu(ext, mu, d), L, profile).symbol_grid[0, 0, 0, 0].real


def test_quadratic_mass_correction_closed_form():
    # both profiles kill all nonzero block momenta at k=0, so the remainder has
    # the closed form L^4 mu^2 / (1 - L^2 mu) whatever d, on both sides of the
    # pole.  The output masses are compared: the step's remainder out - L^2 mu
    # cancels, and at mu = 1e-7 it sits up to 2e-10 relative off the exact value
    for profile, L, d in itertools.product((SHARP, SMOOTH), (3, 5), (1.0, 2.5)):
        for mu in (1e-7, 1e-5, 1e-3, 1e-2, 0.03, 0.05, 0.2, 0.5):
            got = L * L * mu + quadratic_mass_correction(mu, L)
            want = _stepped_mass(mu, L, (L * L, L, L, L), profile, d)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
@pytest.mark.parametrize("L, ext", [(3, (81, 9, 9, 9)), (3, (27, 9, 9, 9)), (5, (50, 10, 10, 10))])
def test_mass_correction_is_full_grid_zero_mode(L, ext, profile):
    # the output at K = 0 depends only on the K = 0 fiber, the whole (L^2, L, L, L) dual lattice
    for mu in (1e-5, 3e-4, 1e-2, 0.05):
        for d in (1.0, 2.5):
            want = _stepped_mass(mu, L, ext, profile, d)
            assert L * L * mu + quadratic_mass_correction(mu, L) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
@pytest.mark.parametrize("L", [3, 5])
def test_mass_correction_and_step_share_the_pole(L, profile):
    # at 1 - L^2 mu = 0 the resummation factor vanishes: within round-off of it
    # both raise, and a little off it both give the same mass.  There the mass
    # is ill-conditioned (condition 1 / |1 - L^2 mu|, about 1e8; the two differ
    # by up to 2.1e-8 relative), hence rel 1e-7
    pole = 1.0 / (L * L)
    for mu in (pole, pole - 1e-14, pole + 1e-14):
        with pytest.raises(NumericalError, match="resummation factor vanishes"):
            _stepped_mass(mu, L, (L * L, L, L, L), profile)
        with pytest.raises(NumericalError, match="pole"):
            quadratic_mass_correction(mu, L)
    for mu in (pole - 1e-9, pole + 1e-9):
        want = _stepped_mass(mu, L, (L * L, L, L, L), profile)
        assert L * L * mu + quadratic_mass_correction(mu, L) == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("mu0, v0", [(1e-5, 1e-5), (3.16e-5, 1e-5), (2e-7, 1e-6)])
def test_run_flow_is_blind_to_profile(mu0, v0):
    shape = make_shape(0, 3, 81, 9)
    assert run_flow(mu0, v0, 3, shape, profile=SHARP) == run_flow(mu0, v0, 3, shape, profile=SMOOTH)


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
@pytest.mark.parametrize("mu0, v0", [(1e-5, 1e-5), (3.16e-5, 1e-5), (2e-7, 1e-6), (5e-4, 1e-3)])
def test_run_flow_closed_form_matches_stepped_correction(mu0, v0, profile):
    # each renormalized row against the step on the minimal torus: mu_{n+1} =
    # L^2 mu_n + the stepped correction at input mu_{n+1}/L^2, and a hard stop
    # (3.16e-5 stops hard) only where L^2 mu is past the tangency
    L, shape = 3, make_shape(0, 3, 81, 9)
    trace = run_flow(mu0, v0, L, shape, profile=profile)
    for a, b in zip(trace, trace[1:]):
        mu_in = b.params.mu / L**2
        stepped = _stepped_mass(mu_in, L, (L * L, L, L, L), profile) - L * L * mu_in
        assert b.params.mu == pytest.approx(L * L * a.params.mu + stepped, rel=1e-13, abs=0.0)
    if trace[-1].stop.startswith("renormalize_mu: "):
        assert L * L * trace[-1].params.mu > R_MINUS
    else:
        assert trace[-1].stop == "max_steps"


def test_run_flow_runs_up_to_the_tangency():
    # L^2 mu at the fourth row is 0.17041, just below 3 - 2 sqrt 2: the root exists
    # (a fixed-point iteration would converge to it only at rate 0.889), so the trace runs on
    trace = run_flow(2.5413384072301187e-05, 1e-5, 3, make_shape(0, 3, 81, 9))
    assert len(trace) == 5 and trace[-1].stop == "max_steps"


@pytest.mark.parametrize("profile", [SHARP, SMOOTH], ids=["sharp", "smooth"])
@pytest.mark.parametrize("mu0", [3.16e-5, 1e-4])
def test_run_flow_hard_stop_records_reason(mu0, profile):
    # near the correction's pole at input mu = L^-2 the next fixed point fails:
    # the trace ends at the last good scale and says why
    L, v0 = 3, 1e-5
    above = mu0 > v0**0.9  # 1e-4 lies above the admissible window
    with pytest.warns(UserWarning, match="outside the admissible window") if above else contextlib.nullcontext():
        trace = run_flow(mu0, v0, L, make_shape(0, 3, 81, 9), profile=profile)
    with pytest.raises(NumericalError, match="no fixed point"):  # the scale after the last row has none
        renormalize_mu(trace[-1].params)
    assert 1 <= len(trace) <= max_steps(v0, L) + 1
    assert trace[-1].stop.startswith("renormalize_mu: ")
    assert all(step.stop is None for step in trace[:-1])
    mus = [step.params.mu for step in trace]
    assert all(b > a for a, b in zip(mus, mus[1:]))
    assert mus[-1] < L**-2


def test_run_flow_records_regular_stop_and_guards_shape():
    assert run_flow(1e-5, 1e-5, 3, make_shape(0, 3, 9, 3))[-1].stop == "max_steps"
    assert run_flow(1e-5, 1e-5, 3, make_shape(0, 3, 9, 3), steps=2)[-1].stop == "max_steps"
    with pytest.warns(UserWarning, match="initial chemical potential 0.003 outside the admissible window"):
        assert run_flow(3e-3, 1e-6, 3, make_shape(0, 3, 9, 3), renormalize=False)[-1].stop == "stop_mu"
    # no block step on the first two tori; the last two are tori of L = 5, not of the trace's L = 3
    for shape in (make_shape(0, 3, 8, 3), make_shape(0, 3, 9, 2), make_shape(0, 5, 9, 3), make_shape(0, 5, 225, 15)):
        with pytest.raises(LatticeError):
            run_flow(1e-5, 1e-5, 3, shape)
        with pytest.raises(LatticeError):  # a trace that would step nothing checks the torus too
            run_flow(1e-5, 1e-5, 3, shape, renormalize=False)
        with pytest.raises(LatticeError):
            run_flow(1e-5, 1e-5, 3, shape, steps=1)
    with pytest.raises(LatticeError, match="L=3 on a torus of L=5"):
        run_flow(1e-5, 1e-5, 3, make_shape(0, 5, 225, 15))


@pytest.mark.parametrize("mu0, v0, steps", [
    (1e-5, 1e-5, 0), (1e-5, 1e-5, -1),                           # no row at all
    (1e-5, 2.0, None), (1e-5, 0.0, None), (1e-5, -1e-5, None),   # no admissible scale
    (1e-5, math.nan, None), (1e-5, math.inf, None),
    (math.nan, 1e-5, None), (math.inf, 1e-5, None), (0.0, 1e-5, None), (-1e-5, 1e-5, None),
])
def test_run_flow_rejects_bad_inputs_before_any_row(monkeypatch, mu0, v0, steps):
    def no_row(*args, **kwargs):
        raise AssertionError("a row was built")

    monkeypatch.setattr(flow, "_couplings", no_row)  # every trace row is built there
    for renormalize in (True, False):
        with pytest.raises(LatticeError):
            run_flow(mu0, v0, 3, make_shape(0, 3, 81, 9), steps=steps, renormalize=renormalize)


@pytest.mark.parametrize("v0", [2.0, 0.0, -1e-5, math.nan, math.inf])
def test_max_steps_and_flow_params_reject_a_coupling_outside_the_unit_interval(v0):
    with pytest.raises(LatticeError, match=r"v0 must lie in \(0, 1\]"):
        max_steps(v0, 3)
    with pytest.raises(LatticeError, match=r"v0 must lie in \(0, 1\]"):
        flow_params_at(0, 1e-5, v0, 3)


@pytest.mark.parametrize("L", [0, 1, -3, 3.0, 2.5])
def test_max_steps_and_flow_params_reject_a_bad_block_factor(L):
    # L = 1 used to divide by log 1 = 0, and L = 0 to take log 0
    with pytest.raises(LatticeError, match=r"block factor L must be an integer >= 2"):
        max_steps(1e-5, L)
    with pytest.raises(LatticeError, match=r"block factor L must be an integer >= 2"):
        flow_params_at(0, 1e-5, 1e-5, L)


@pytest.mark.parametrize("n", [1.5, -1, True, 2.0, None])
def test_flow_params_reject_a_scale_index_that_is_not_a_natural_number(n):
    # flow_params_at(1.5, ...) used to return a row with n = 1.5
    with pytest.raises(LatticeError, match=r"scale index n must be an integer >= 0"):
        flow_params_at(n, 1e-4, 1e-3, 3)
    assert flow_params_at(np.int64(1), 1e-3, 1e-3, 3) == flow_params_at(1, 1e-3, 1e-3, 3)


def test_run_flow_row_count_and_ratios():
    trace = run_flow(1e-5, 1e-5, 3, make_shape(0, 3, 9, 3))
    assert len(trace) == 5
    for i in range(1, len(trace)):
        ratio = trace[i].params.mu / trace[i - 1].params.mu
        assert 0.9 * 9 <= ratio <= 1.1 * 9
    # every row below the stop at mu = 0.5; the trace ends at its last admissible scale
    assert all(row.params.mu < 0.5 for row in trace)
    assert [row.stop for row in trace] == [None] * 4 + ["max_steps"]


def test_run_flow_closed_form_geometry_ratios():
    trace = run_flow(1e-5, 1e-5, 3, make_shape(0, 3, 9, 3), renormalize=False)
    for i in range(1, len(trace)):
        assert trace[i].well_radius / trace[i - 1].well_radius == pytest.approx(3.0**1.5, rel=1e-12)
        assert trace[i].well_depth_per_site / trace[i - 1].well_depth_per_site == pytest.approx(3.0**5, rel=1e-12)


def test_run_flow_stops_at_mu_threshold():
    with pytest.warns(UserWarning, match="initial chemical potential 0.003 outside the admissible window"):
        trace = run_flow(3e-3, 1e-6, 3, make_shape(0, 3, 9, 3), renormalize=False)
    # closed form: mu_n = 9^n * 3e-3 crosses 0.5 at n=3 (2.187); the trace
    # includes the crossing row and stops
    assert trace[-1].params.mu >= 0.5
    assert len(trace) == 4
    assert all(row.params.mu < 0.5 for row in trace[:-1])
    assert trace[-1].stop == "stop_mu"


def test_flow_params_at_kappa_step_ratio_exact():
    f1 = flow_params_at(1, 1e-5, 1e-5, 3)
    f2 = flow_params_at(2, 1e-5, 1e-5, 3)
    assert f2.kappa / f1.kappa == pytest.approx(3.0**0.75, rel=1e-14)


def _rebuilt_trace(mu0, v0, L, steps, renormalize):
    """run_flow's rows from the public functions, one flow_params_at call per
    row, at the running mu when renormalized."""
    n_last = max_steps(v0, L) if steps is None else min(max_steps(v0, L), steps - 1)
    rows, mu = [], mu0
    for n in range(n_last + 1):
        params = flow_params_at(n, mu0, v0, L)
        if renormalize:
            params = dataclasses.replace(params, mu=mu)
        well = well_geometry(params)
        stop = "stop_mu" if params.mu >= 0.5 else "max_steps" if n == n_last else None
        if stop is None and renormalize:
            try:
                mu = renormalize_mu(params)
            except NumericalError as exc:
                stop = f"renormalize_mu: {exc}"
        rows.append(FlowStep(params, well.radius, well.depth, stop))
        if stop is not None:
            break
    return rows


@given(st.sampled_from((3, 5, 7)), st.floats(-9.0, 0.0), st.floats(0.0, 1.0),
       st.one_of(st.none(), st.integers(1, 5)), st.booleans())
@example(3, -5.0, 0.81, None, True)  # ends at renormalize_mu's hard stop
@example(3, -6.0, 1.0, None, False)  # mu0 above the window: ends at stop_mu
@settings(max_examples=60)
def test_run_flow_rows_are_flow_params_at_rows(L, log_v0, t, steps, renormalize):
    # mu0 from half a decade below the admissible window to half a decade above it
    v0 = 10.0**log_v0
    lo, hi = (math.log10(b) for b in admissible_window(0.0, v0))
    mu0 = 10.0 ** (lo - 0.5 + t * (hi - lo + 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the window warning
        trace = run_flow(mu0, v0, L, make_shape(0, L, L * L, L), steps=steps, renormalize=renormalize)
        assert trace == _rebuilt_trace(mu0, v0, L, steps, renormalize)


def test_run_flow_warns_once_per_trace_and_flow_params_at_per_call():
    message = "initial chemical potential 0.003 outside the admissible window"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run_flow(3e-3, 1e-6, 3, make_shape(0, 3, 9, 3), renormalize=False)
    assert len(trace) == 4
    assert [str(w.message)[: len(message)] for w in caught] == [message]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for n in range(4):
            flow_params_at(n, 3e-3, 1e-6, 3)
    assert [str(w.message)[: len(message)] for w in caught] == [message] * 4


@pytest.mark.parametrize("argv, kwargs", [
    (["flow", "1e-5", "1e-5", "3"], {}),
    (["flow", "1e-5", "1e-5", "5", "--steps", "2", "--no-renormalize"], {"steps": 2, "renormalize": False}),
])
def test_cli_flow_prints_one_json_row_per_trace_row(capsys, argv, kwargs):
    main(argv)
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    L = int(argv[3])
    trace = run_flow(float(argv[1]), float(argv[2]), L, make_shape(0, L, L * L, L), **kwargs)
    assert [row["n"] for row in rows] == list(range(len(trace)))
    for row, step in zip(rows, trace):
        assert row == {"n": step.params.n, "mu": step.params.mu, "v": step.params.v, "a": step.params.a,
                       "well_radius": step.well_radius, "well_depth_per_site": step.well_depth_per_site,
                       "stop": step.stop}
    assert rows[-1]["stop"] == trace[-1].stop is not None


@pytest.mark.parametrize("args, renormalize", [
    ((1e160, 1e-5), True),  # mu0**2 overflows
    ((1e150, 1e-10), False),  # the well depth is -inf
    ((1e-300, 1e-300), False),  # v underflows to 0 before the last row
])
def test_run_flow_raises_on_a_row_out_of_floating_point_range(args, renormalize):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the window warning
        with pytest.raises(NumericalError, match=r"flow row \d+ leaves the floating-point range"):
            run_flow(*args, 3, make_shape(0, 3, 9, 3), renormalize=renormalize)


@pytest.mark.parametrize("mu0, v0, message", [
    ("1e-5", "2.0", "v0 must lie in (0, 1]"),
    ("0.5", "2e-309", "1/v0 overflows"),  # a subnormal v0
    ("1e160", "1e-5", "flow row 0 leaves the floating-point range"),  # mu0**2 overflows
    ("1e150", "1e-10", "leaves the floating-point range"),  # the well depth is -inf
])
def test_cli_rejects_bad_inputs_with_usage_status(capsys, mu0, v0, message):
    with pytest.raises(SystemExit) as exit_info, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the window warning
        main(["flow", mu0, v0, "3"])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_importing_the_package_does_not_import_the_cli():
    code = "import sys, blockspin; assert 'blockspin.cli' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
