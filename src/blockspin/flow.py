"""Running couplings and the quadratic-level block-spin step.

One renormalization step convolves the Gaussian defined by a translation-
invariant quadratic action with the block-spin Gaussian weight and rescales
parabolically.  At quadratic level the result is exact and closed: per
output momentum the new symbol is a Schur complement over the block fiber of
the input symbol plus the averaging coupling, composed with the momentum
rescaling (k0, kvec) -> (k0/L^2, kvec/L) and the L^(+-3/2) amplitudes.
That complement is the rank-one factor 1 / (1 + sum u^2 / symbol) of each
fiber, and since box averaging is a product of one-dimensional box averages,
u^2 is a product of per-axis tables: the step contracts them with the input
symbol in its own layout, slab by slab, without gathering the fibers.  A
symbol is one grid, or a time term plus a space term.  The heat operator
minus mu is such a pair, and the step takes the time-plus-space path on it:
one time resolvent per distinct value of the space term, gathered and
contracted per output row, so the full grid of a chain's first action is
never written.  A grid, such as every step's output, takes the grid path,
which divides the weights by one slab of the grid at a time.  Both run on
the caller's thread and share the weight tables and the pole rule.

Localization splits a kernel into a mass and per-axis derivative kernels,
one (4,) + extents array in FFT index order: kernels[axis][z mod N] is the
coefficient at offset z, and applying one is one multiply by its symbol.

The chemical-potential trace is quadratic-level bookkeeping: the step's
zero-momentum remainder feeds a fixed-point update mu_{n+1} = L^2 mu_n +
correction(mu_{n+1}).  That remainder has a closed form, L^4 x^2 / (1 - L^2 x)
at input mass x, because the zero-momentum fiber couples only its p = 0
entry; so the update is a quadratic with an explicit root, the trace runs
no step and no iteration, and the quadratic level is blind to the averaging
profile.  It mirrors, but does not reproduce, the full flow, whose
correction includes non-Gaussian parts of the fluctuation integral.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .action import _well
from .lattice_ops import SHARP, AveragingProfile, block_average_adjoint, operator_matrix, profile_axis_symbol
from .symbols import _POLE, _SINGULAR, NumericalError, _check_couplings, _pole_rows, _resummed, _row_batches
from .torus import (Field, LatticeError, TorusShape, _is_integer, fiber_momenta, from_modes, make_shape, negate_modes,
                    to_modes)

__all__ = [
    "FlowParams",
    "FlowStep",
    "flow_params_at",
    "max_steps",
    "admissible_window",
    "QuadraticAction",
    "block_spin_step",
    "block_spin_step_dense",
    "localize_quadratic",
    "apply_offset_kernel",
    "quadratic_action_form",
    "quadratic_mass_correction",
    "renormalize_mu",
    "run_flow",
]


@dataclass(frozen=True)
class FlowParams:
    """Running couplings at one scale.

    ``a`` is the block prefactor a_n = (1 - L^-2) / (1 - L^-2n), with
    1/a_n = sum_{j<n} L^-2j.  It is the composite weight of a chain of n
    SHARP :func:`block_spin_step` calls, each of which uses weight 1/L^2
    (a = 1 per step).  The time-derivative weight is 1 at every scale, the
    default of :class:`blockspin.background.ModelParams`.
    """

    n: int
    L: int
    mu: float
    v: float
    a: float
    kappa: float
    kappa_prime: float
    mu0: float
    v0: float


def _block_prefactor(n: int, L: int) -> float:
    """(1 - L^-2) / (1 - L^-2n) evaluated through an integer ratio."""
    if n == 0:
        return 1.0
    num = L ** (2 * n - 2) * (L * L - 1)
    den = L ** (2 * n) - 1
    return num / den


def max_steps(v0: float, L: int) -> int:
    """Largest admissible scale index: floor((2/5) log(1/v0) / log L).  A
    coupling v0 outside (0, 1], NaN included, or so small that 1/v0
    overflows, or a block factor L that is not an integer >= 2 raises
    :class:`LatticeError`."""
    if not 0.0 < v0 <= 1.0:
        raise LatticeError(f"initial coupling v0 must lie in (0, 1], got {v0}")
    if 1.0 / v0 == math.inf:
        raise LatticeError(f"initial coupling v0 = {v0} is too small: 1/v0 overflows")
    if not _is_integer(L) or L < 2:
        raise LatticeError(f"block factor L must be an integer >= 2, got {L!r}")
    return int(math.floor(0.4 * math.log(1.0 / v0) / math.log(L)))


def admissible_window(mu0: float, v0: float) -> tuple[float, float]:
    """(lower, upper) admissible bounds for the initial chemical potential."""
    return (v0**1.25, v0**0.9)


def _warn_outside_window(mu0: float, v0: float) -> None:
    lo, hi = admissible_window(mu0, v0)
    if not (lo < mu0 < hi):
        warnings.warn(f"initial chemical potential {mu0:.3g} outside the admissible window ({lo:.3g}, {hi:.3g})")


_EPS = 0.01  # the margin eps of the field radii's exponent -1/3 + eps


def flow_params_at(n: int, mu0: float, v0: float, L: int) -> FlowParams:
    """Running couplings at scale n from the closed-form leading flow.

    mu_n = L^(2n) mu0, v_n = v0 / L^n, the block prefactor from its closed
    form, and the field radii L^(3n/4) v0^(-1/3+eps) and L^(3n/8)
    v0^(-1/3+eps) with eps = 0.01.  Initial data outside the admissible
    window only warns; a scale index n that is not an integer >= 0 (a bool
    included), v0 outside (0, 1], or L not an integer >= 2 raises
    :class:`LatticeError` (:func:`max_steps` checks v0 and L).
    """
    if not _is_integer(n) or n < 0:
        raise LatticeError(f"scale index n must be an integer >= 0, got {n!r}")
    n_max = max_steps(v0, L)
    _warn_outside_window(mu0, v0)
    if n > n_max:
        warnings.warn(f"scale {n} beyond the admissible number of steps {n_max}")
    return _couplings(n, mu0, v0, L, None)


def _couplings(n: int, mu0: float, v0: float, L: int, mu: float | None) -> FlowParams:
    """:func:`flow_params_at`'s couplings without its checks and warnings, at
    the renormalized chemical potential ``mu`` (None: the closed form L^(2n) mu0)."""
    mu = float(L ** (2 * n)) * mu0 if mu is None else float(mu)
    radius_base = v0 ** (-1.0 / 3.0 + _EPS)
    return FlowParams(
        n=n,
        L=L,
        mu=mu,
        v=v0 / float(L**n),
        a=_block_prefactor(n, L),
        kappa=float(L) ** (0.75 * n) * radius_base,
        kappa_prime=float(L) ** (0.375 * n) * radius_base,
        mu0=mu0,
        v0=v0,
    )


# ---------------------------------------------------------------------------
# quadratic actions as unit-lattice symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticAction:
    """Translation-invariant quadratic form on the unit torus.

    The symbol is the kernel's symbol over the dual lattice in FFT index
    order (translation invariance is built in by the representation), held
    as ``terms`` in one of two forms: a grid, one complex array shaped
    ``extents``; or a (time, space) pair shaped (Nt, 1, 1, 1) and (1, Nx,
    Ny, Nz), whose sum is the symbol.  Any other tuple, extents that are not
    four positive integers, or a term with a non-finite entry raises
    :class:`LatticeError`.  An array passed in place of the tuple is one
    term, so QuadraticAction(extents, grid) holds that grid.
    :func:`block_spin_step` steps a pair on its time-plus-space path and a
    grid on its grid path.  :attr:`symbol_grid` is the grid, or the pair's
    sum formed on its first read only.
    """

    extents: tuple[int, int, int, int]
    terms: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.extents) != 4 or not all(_is_integer(N) and N > 0 for N in self.extents):
            raise LatticeError(f"extents must be four positive integers, got {self.extents!r}")
        extents = tuple(map(int, self.extents))
        terms = tuple([np.asarray(t, dtype=complex) for t in
                       (self.terms if isinstance(self.terms, tuple) else (self.terms,))])
        shapes = [t.shape for t in terms]
        Nt, *space = extents
        if shapes not in ([extents], [(Nt, 1, 1, 1), (1, *space)]):
            raise LatticeError(f"symbol terms shaped {shapes} are neither a grid nor a (time, space) pair "
                               f"for extents {extents}")
        if not all(np.isfinite(t).all() for t in terms):
            raise LatticeError("symbol terms must be finite")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "terms", terms)

    @cached_property
    def symbol_grid(self) -> np.ndarray:
        """The symbol over the whole dual lattice: the grid, or time + space
        formed on the first read and kept."""
        return self.terms[0] if len(self.terms) == 1 else self.terms[0] + self.terms[1]

    @classmethod
    def from_heat_minus_mu(cls, extents, mu: float, d: float = 1.0) -> "QuadraticAction":
        """Unit-lattice heat symbol minus a mass term, as a (time, space) pair.

        The time term -d (exp(i k0) - 1) is shaped (Nt, 1, 1, 1); the space
        term, the spatial Laplacian's symbol minus mu, is shaped (1, Nx, Ny,
        Nz).  No full grid is written: :func:`block_spin_step` takes its
        time-plus-space path on the pair, and only :attr:`symbol_grid` forms
        their sum whole.
        """
        _check_couplings(mu, d)
        Nt, Nx, Ny, Nz = extents
        lap = {N: 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(N) / N) for N in {Nx, Ny, Nz}}
        space = -mu + lap[Nx].reshape(-1, 1, 1) + lap[Ny].reshape(-1, 1) + lap[Nz]
        time = -d * (np.exp(1j * (2.0 * np.pi * np.arange(Nt) / Nt)) - 1.0)
        return cls(tuple(extents), (time.reshape(Nt, 1, 1, 1), space.astype(complex).reshape(1, Nx, Ny, Nz)))


#: step weights below this are round-off of the profile's exact zeros
_TINY = np.finfo(float).tiny


def _quotient(w: np.ndarray, a: np.ndarray, pole: np.ndarray | None) -> np.ndarray:
    """w / a, and 0 at the pole entries of a (None: a holds none)."""
    if pole is None:
        return w / a
    return np.divide(w, a, out=np.zeros(a.shape, dtype=complex), where=~pole)


def _step_weights(out: TorusShape, L: int, profile: AveragingProfile) -> tuple[np.ndarray, np.ndarray]:
    """The step's weights u^2 = qhat^2 / L^2 as per-axis (block, unit) tables:
    time2 (mt, nt) and the spatial product space2 (mx, nx, mx, nx, mx, nx).

    Spatial weights below the smallest normal float are profile round-off of
    exact zeros and are set to 0: they are dead weight either way, and
    subnormal arithmetic is several times slower.
    """
    # qhat per axis as C-contiguous (block, unit) tables: strided ones slow the contractions
    p = fiber_momenta(out)
    qt, qx = (profile_axis_symbol(eps * np.ascontiguousarray(p[a].reshape(N, m).T), m, profile.exponent)
              for a, eps, N, m in ((0, out.eps_t, out.Nt, out.mt), (1, out.eps_x, out.Nx, out.mx)))
    x2 = qx * qx
    space2 = x2[:, :, None, None, None, None] * x2[:, :, None, None] * x2
    space2[space2 < _TINY] = 0.0
    return qt * qt / (L * L), space2


def _fiber_poles(a: np.ndarray, time2: np.ndarray, space2: np.ndarray):
    """The pole rule on fibers a shaped (mt, rows, mx, nx, mx, nx, mx, nx) of
    the output time rows whose weights are time2 (mt, rows)."""
    return _pole_rows(a, lambda: np.sqrt(np.multiply.outer(time2, space2)), (0, 2, 4, 6))


def _grid_rows(grid: np.ndarray, time2: np.ndarray, space2: np.ndarray):
    """The grid path: sigma over slabs of output time rows, from each slab's
    fibers, a view of the grid."""
    (mt, nt), (mx, nx) = time2.shape, space2.shape[:2]
    fibers = grid.reshape(mt, nt, mx, nx, mx, nx, mx, nx)

    def rows(time_rows: slice) -> np.ndarray:
        a = fibers[:, time_rows]
        pole, has = _fiber_poles(a, time2[:, time_rows], space2)

        def block(x: int) -> np.ndarray:  # one x block at a time into one accumulator
            return _quotient(space2[x:x + 1], a[:, :, x:x + 1], None if pole is None else pole[:, :, x:x + 1])

        acc = block(0)
        for x in range(1, mx):
            acc += block(x)
        space_sum = np.einsum("tiajbkcl->tijkl", acc)
        return _resummed(1.0 + np.einsum("ti,tijkl->ijkl", time2[:, time_rows], space_sum), has).reshape(-1)

    return rows


def _time_plus_space_rows(tau: np.ndarray, space: np.ndarray, time2: np.ndarray, space2: np.ndarray):
    """The time-plus-space path: sigma over slabs of output time rows, for
    the symbol tau (mt, nt) + space (Nx, Nx, Nx), through one time resolvent
    per distinct value of space."""
    mt, (mx, nx) = len(time2), space2.shape[:2]
    values, inv = np.unique(space.reshape(-1), return_inverse=True)
    # (spatial block, spatial unit) layout, so one contraction sums a row's fiber
    order = (0, 2, 4, 1, 3, 5)
    inv = inv.reshape(space2.shape).transpose(order).reshape(mx**3, nx**3)
    weight = space2.transpose(order).reshape(mx**3, nx**3).astype(complex)  # einsum would cast it per slab

    def rows(time_rows: slice) -> np.ndarray:
        den = tau[:, time_rows, None] + values
        pole = np.abs(den) < _POLE
        has = None
        if pole.any():  # the same values as the rows' fibers, so the same poles
            a = tau[:, time_rows].reshape(mt, -1, 1, 1, 1, 1, 1, 1) + space.reshape(space2.shape)
            has = _fiber_poles(a, time2[:, time_rows], space2)[1]
        # G[r, u] = sum_jt time2 / (tau + values[u]); a pole entry is left out:
        # every row that reads it holds that pole, so the rule raised or has sends it to 0
        G = np.divide(time2[:, time_rows, None], den, out=np.zeros(den.shape, dtype=complex), where=~pole).sum(0)
        T = np.einsum("jk,rjk->rk", weight, G[:, inv])
        return _resummed(1.0 + T.reshape(-1, nx, nx, nx), has).reshape(-1)

    return rows


def _step_torus(extents: tuple[int, int, int, int], L: int) -> TorusShape:
    """make_shape(1, L, Nt/L^2, Nx/L), the output torus of a step on a
    symbol of these extents; raises :class:`LatticeError` unless L^2 | Nt,
    L | Nx and space is cubic."""
    Nt, Nx = extents[:2]
    if Nt % (L * L) != 0 or Nx % L != 0 or extents[2:] != (Nx, Nx):
        raise LatticeError(f"block step needs L^2 | Nt, L | Nx and cubic space, got {extents}, L={L}")
    return make_shape(1, L, Nt // (L * L), Nx // L)


def block_spin_step(action: QuadraticAction, L: int, profile: AveragingProfile = SHARP) -> QuadraticAction:
    """One exact quadratic-level block-spin step.

    The input symbol lives on the fine lattice of out = make_shape(1, L,
    Nt/L^2, Nx/L) (spatial extents equal).  Per output momentum K the new
    symbol is the rank-one factor of :func:`blockspin.symbols.fiber_resolvent`
    on the input's fiber over K with weights u = qhat/L, qhat the averaging
    symbol: L^2 / (L^2 + T), T = sum_m qhat(K+m)^2 / symbol(K+m).  One
    vanishing input symbol with live averaging weight is the massless limit
    and maps to 0; any other vanishing pattern makes the Gaussian degenerate
    and raises :class:`NumericalError` naming the fiber row (the flat index
    of K), under the same pole rule as the resolvent.

    The sum is contracted on the symbol as it lies.  Fine mode j*N + i
    (block index j, unit index i) is entry (j_t, i_t, j_x, i_x, j_y, i_y,
    j_z, i_z) of its reshape view, and qhat^2 is a product of one-dimensional
    (block, unit) tables, one per axis.  Spatial weights below the smallest
    normal float are profile round-off of exact zeros and are set to 0.  The
    output streams in slabs of whole output time rows, as many as fit in
    ``symbols._BATCH_ENTRIES`` fiber entries but at least one, on the
    caller's thread, and a row named by an error is re-based to the whole
    output.  Two paths compute a slab, chosen by the action's form:

    * Time plus space: a (time, space) pair, as
      :meth:`QuadraticAction.from_heat_minus_mu` builds, is the symbol
      tau(k0) + s(kvec), tau the time term and s the space term.  s takes
      few distinct values (the Laplacian's symbol is symmetric under the
      cube's reflections and permutations), so the time resolvent G[i_t, u]
      = sum_jt time2[j_t, i_t] / (tau + s_u) is formed once per distinct
      value s_u, and T[i_t, K] = sum over the spatial blocks of space2 times
      G[i_t, u(K + m)] is a gather and one contraction.  The pole test runs on the (mt, rows, distinct values)
      table of tau + s_u, the same values as the fibers.  When it finds a
      pole, the rule runs on the slab's fibers as on the grid path, so the
      two paths name the same row with the same message, and the pole
      entries are left out of G: every row that reads one holds that pole
      and maps to 0 or raises.
    * Grid: a one-term action, such as every step's output (so every step
      of a chain after the first).  A slab is its time rows of one (mt, nt,
      mx, nx, mx, nx, mx, nx) view of the grid, not a copy.  It is divided
      one x block at a time into one accumulator, so the step holds two
      1/mx-slab temporaries (1 MB each for one time row of a (243,27,27,27)
      grid) and the pole test's.  The sum runs over the x, y and z block
      axes, then over the time block axis with its table.

    Neither path writes the whole input grid.  The two agree to round-off
    (they sum in different orders), and both call the traced names
    ``profile_axis_symbol`` and ``fiber_momenta`` once, on the caller's
    thread.

    The block-spin weight is a/L^2 with a = 1, so one step of the heat
    action gives the scale-1 kernel (1 + S)^-1 of
    :func:`blockspin.symbols.zero_field_symbol`.  A chain of n SHARP steps
    (sum of qhat^2 over each fiber is 1) gives 1/symbol = 1/a_n - 1 +
    1/zero_field_symbol at scale n, with a_n = :attr:`FlowParams.a`: the
    running prefactor builds up over the chain rather than being applied
    per step.  The output is a grid.
    """
    out = _step_torus(action.extents, L)
    time2, space2 = _step_weights(out, L, profile)
    if len(action.terms) == 2:
        time, space = action.terms
        rows = _time_plus_space_rows(time.reshape(time2.shape), space[0], time2, space2)
    else:
        rows = _grid_rows(action.terms[0], time2, space2)
    sigma = _row_batches(out.Nt, math.prod(action.extents) // out.Nt, rows)
    return QuadraticAction(out.unit_extents, sigma.reshape(out.unit_extents))


#: the dense step oracle's site cap: its Gaussian is a dense sites x sites matrix
_DENSE_STEP_SITES = 4096


def block_spin_step_dense(action: QuadraticAction, L: int, profile: AveragingProfile = SHARP) -> QuadraticAction:
    """Oracle: the same step through dense Gaussian (Schur-complement) algebra.

    Builds the dense input form, the dense averaging matrices, and the exact
    convolution output (1/L^2) I - (1/L^4) Q G^{-1} Q* with
    G = input + (1/L^2) Q* Q, then reads the output symbol off the first row.
    Q is the transpose of Q* over the box volume L^5, the weight that
    :func:`blockspin.lattice_ops.block_average_adjoint` carries, so only Q*
    (one column per coarse site) is applied.  The input torus is checked as
    :func:`block_spin_step` checks it.
    """
    extents = action.extents
    new_extents = _step_torus(extents, L).unit_extents
    sites = int(np.prod(extents))
    if sites > _DENSE_STEP_SITES:
        raise LatticeError(f"dense oracle capped at {_DENSE_STEP_SITES} sites")
    kernel = to_modes(action.symbol_grid)
    # A[x, y] = K(y - x) = doubled[N - x + y], the kernel doubled along every axis: one strided copy
    windows = np.lib.stride_tricks.sliding_window_view(np.tile(kernel, (2, 2, 2, 2)), extents)
    A = windows[tuple(slice(N, 0, -1) for N in extents)].reshape(sites, sites)
    shape0 = TorusShape(0, L, extents[0], extents[1])
    Qstar = operator_matrix(lambda f: block_average_adjoint(f, profile), shape0, "coarse", "unit",
                           max_sites=_DENSE_STEP_SITES)
    Q = Qstar.T / L**5
    Lsq = float(L * L)
    G = A + Qstar @ Q / Lsq
    coarse_sites = Q.shape[0]
    out_op = np.eye(coarse_sites) / Lsq - Q @ np.linalg.solve(G, Qstar) / Lsq**2
    row0 = out_op[0, :].reshape(new_extents)
    symbol = from_modes(row0) * Lsq
    return QuadraticAction(new_extents, symbol)


# ---------------------------------------------------------------------------
# localization: constant part plus derivative kernels
# ---------------------------------------------------------------------------

# entries at or below this many machine epsilons of max|K| are FFT round-off
_ROUNDOFF_CUT = 64.0 * np.finfo(float).eps
_IMAG_MASS_TOL = 1e-10  # a mass whose imaginary part exceeds this times max(1, |mass|) warns


def localize_quadratic(action: QuadraticAction):
    """Split the quadratic kernel into a local mass and derivative parts.

    For any translation-invariant kernel K the form <psi_star, K psi>_0
    equals scalar * <psi_star, psi>_0 plus sum_axis <psi_star, K_axis
    (forward-difference psi)>_0, by telescoping each kernel displacement
    along a fixed axis-ordered lattice path.  Returns (scalar, kernels), with
    kernels shaped (4,) + extents in the FFT index order of fftn(symbol_grid):
    kernels[axis][z mod N] is K_axis's coefficient at offset z.

    A displacement z contributes to K_axis at offsets (z_0, ..., z_(axis-1),
    t, 0, ...), with +K(z) for 0 <= t < z_axis and -K(z) for z_axis <= t < 0.
    So K_axis is, per prefix of earlier coordinates, a suffix sum (t >= 0)
    or a negated prefix sum (t < 0) of the kernel's marginal over the later
    axes, taken along the axis in symmetric-representative order.

    The split is linear in K.  Kernel entries and summed derivative
    coefficients at or below round-off relative to max|K(z)| (a small
    multiple of machine epsilon times it) are FFT noise and are exactly 0,
    so localizing c*K gives c times the kernels of K with the same support
    at any scale c.  A mass with a non-negligible imaginary part warns.
    """
    grid = action.symbol_grid
    scalar_c = complex(grid[(0,) * grid.ndim])
    # symbol(k) = sum_z K(z) exp(+i k z), so the kernel is the forward transform
    kernel = to_modes(grid)
    cut = _ROUNDOFF_CUT * float(np.max(np.abs(kernel)))
    kernel[np.abs(kernel) <= cut] = 0.0
    # roll each axis into increasing representatives of (-N/2, N/2]: index i holds i - zero[axis]
    zero = [(N - 1) // 2 for N in action.extents]
    kernel = np.roll(kernel, zero, axis=(0, 1, 2, 3))
    kernels = np.zeros((4,) + grid.shape, dtype=complex)
    for axis in range(4):
        marginal = np.moveaxis(kernel.sum(axis=tuple(range(axis + 1, 4))), axis, -1)
        p = zero[axis]
        # t < 0: -sum_{z <= t};  t >= 0: sum_{z > t}, exactly 0 at the top representative
        deriv = np.moveaxis(np.concatenate([
            -np.cumsum(marginal[..., :p], axis=-1),
            np.cumsum(marginal[..., :p:-1], axis=-1)[..., ::-1],
            np.zeros(marginal.shape[:-1] + (1,), dtype=complex),
        ], axis=-1), -1, axis)
        deriv[np.abs(deriv) <= cut] = 0.0
        kernels[(axis, Ellipsis) + tuple(zero[axis + 1 :])] = deriv  # offset 0 on the later axes
    kernels = np.roll(kernels, [-z for z in zero], axis=(1, 2, 3, 4))  # back to FFT order
    if abs(scalar_c.imag) > _IMAG_MASS_TOL * max(1.0, abs(scalar_c)):
        warnings.warn(f"localized mass has imaginary part {scalar_c.imag:.3e}")
    return scalar_c.real, kernels


def apply_offset_kernel(kern: np.ndarray, f: Field) -> Field:
    """(K f)(x) = sum_z K(z) f(x + z), with kern[z mod N] = K(z) shaped like f.

    One multiply of the field's modes by the symbol sum_z K(z) exp(+i k z),
    which is :func:`blockspin.torus.from_modes` of kern.
    """
    if kern.shape != f.values.shape:
        raise LatticeError(f"kernel shaped {kern.shape}, field shaped {f.values.shape}")
    return f.with_values(from_modes(to_modes(f.values) * from_modes(kern)))


def quadratic_action_form(action: QuadraticAction, psi_star: Field, psi: Field) -> complex:
    """<psi_star, K psi>_0 through the symbol grid."""
    c_star, c_plain = to_modes(psi_star.values), to_modes(psi.values)
    return complex(psi.sites * np.sum(negate_modes(c_star) * action.symbol_grid * c_plain))


# ---------------------------------------------------------------------------
# chemical-potential renormalization
# ---------------------------------------------------------------------------

def quadratic_mass_correction(mu_in: float, L: int) -> float:
    """Zero-momentum remainder of one step beyond the naive L^2 mass scaling:
    L^4 mu_in^2 / (1 - L^2 mu_in), for the heat-minus-mass input of mass mu_in.

    The step's output at momentum K depends only on the input's fiber over
    K.  For K = 0 that fiber is the momenta 2pi (j_t/L^2, j_x/L, j_y/L,
    j_z/L), and both averaging profiles vanish at its nonzero entries, so
    only p = 0 couples (u = 1/L, symbol -mu_in).  The output mass is then
    L^2 mu_in / (1 - L^2 mu_in), for every profile and every d: the value is
    the output mass of :func:`block_spin_step` minus L^2 mu_in, on any torus
    the step accepts.  Within :data:`blockspin.symbols._SINGULAR` of the
    pole 1 - L^2 mu_in = 0, where the step finds the resummation factor
    vanishing, it raises :class:`NumericalError` too.
    """
    den = 1.0 - L * L * mu_in
    if abs(den) < _SINGULAR:
        raise NumericalError(f"mass correction at its pole: 1 - L^2 mu = {den:.3g}")
    return float(L**4 * mu_in * mu_in / den)


#: the tangency 3 - 2 sqrt 2 of mu = B + mu^2/(1 - mu), and its other root 3 + 2 sqrt 2
_R_MINUS, _R_PLUS = 3.0 - 2.0 * math.sqrt(2.0), 3.0 + 2.0 * math.sqrt(2.0)


def renormalize_mu(flow: FlowParams) -> float:
    """Self-consistent next chemical potential: the smaller root m of m = B +
    m^2/(1 - m), B = L^2 * flow.mu, whose last term is
    :func:`quadratic_mass_correction` at the pulled-back input m/L^2.

    So 2m^2 - (1 + B)m + B = 0, with discriminant (B - r-)(B - r+), r+- =
    3 +- 2 sqrt 2, and m = 2B / ((1 + B) + sqrt((B - r-)(B - r+))), free of
    cancellation and exact to round-off; m <= 1 - sqrt(2)/2, the double root
    at B = r-.  Unless B <= r- (so for NaN too, and for B >= r+, where both
    roots lie beyond the pole at m = 1) it raises :class:`NumericalError`.
    """
    base = flow.L * flow.L * float(flow.mu)
    if not -math.inf < base <= _R_MINUS:
        raise NumericalError(f"no fixed point of mu = B + mu^2/(1 - mu) at B = L^2 mu = {base:.6g}: "
                             f"it needs a finite B <= 3 - 2 sqrt 2")
    return 2.0 * base / ((1.0 + base) + math.sqrt((base - _R_MINUS) * (base - _R_PLUS)))


# ---------------------------------------------------------------------------
# the assembled flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowStep:
    """One scale of a :func:`run_flow` trace.

    ``stop`` is None except on a trace's last row, where it says why the
    trace ended: "max_steps", "stop_mu" (the row's mu >= 0.5), or
    "renormalize_mu: no fixed point ... at B = L^2 mu = ...",
    :func:`renormalize_mu`'s message, when the next scale's chemical
    potential has no self-consistent value.
    """

    params: FlowParams
    well_radius: float
    well_depth_per_site: float
    stop: str | None = None


#: a trace stops at the first row whose chemical potential reaches this
_STOP_MU = 0.5


def run_flow(mu0: float, v0: float, L: int, shape: TorusShape, steps: int | None = None,
             renormalize: bool = True, profile: AveragingProfile = SHARP) -> list[FlowStep]:
    """Trace the running couplings across scales.

    Halts after floor((2/5) log(1/v0)/log L) steps (or ``steps`` rows) or
    at the first row with mu >= 0.5, whichever comes first.
    With ``renormalize`` the trace uses the quadratic-level fixed point per
    step, :func:`renormalize_mu`'s root, exact to round-off (the trial's
    pull-back mu/L^2 is the step input); otherwise the closed form L^(2n)
    mu0.  The per-step correction is
    :func:`quadratic_mass_correction`'s closed form, so no step runs, and
    ``profile`` does not change the trace: the quadratic level is blind to
    the averaging profile.  ``shape`` must be a torus of this L that admits
    a block step (L^2 | Nt, L | Nx), ``steps`` at least 1, ``mu0`` finite
    and positive and ``v0`` in (0, 1], else :class:`LatticeError` before any
    row.  These checks, and the warning for ``mu0`` outside the admissible
    window, run once per trace; each row's couplings are
    :func:`flow_params_at`'s formula without its per-call checks.  The well
    geometry is per site; a row whose radius or depth leaves the
    floating-point range raises :class:`NumericalError` naming the row.
    Where the next scale has no fixed point
    (L^2 mu > 3 - 2 sqrt 2, short of the correction's pole at input
    mu = L^-2) the trace ends at the last good scale.  A renormalized mu
    never exceeds 1 - sqrt(2)/2 (about 0.293), so the stop at mu >= 0.5
    ends a renormalized trace only at a first row mu0 >= 0.5.  The last
    row's ``stop`` records why the trace ended (see :class:`FlowStep`).
    """
    if shape.L != L:
        raise LatticeError(f"run_flow at L={L} on a torus of L={shape.L}")
    if not shape.can_block_step:
        raise LatticeError(f"block step needs L^2 | Nt and L | Nx, got {shape.unit_extents}, L={L}")
    if steps is not None and steps < 1:
        raise LatticeError(f"a trace has at least one row, got steps={steps}")
    if not 0.0 < mu0 < math.inf:
        raise LatticeError(f"initial chemical potential must be finite and > 0, got {mu0}")
    n_last = max_steps(v0, L)
    if steps is not None:
        n_last = min(n_last, steps - 1)
    _warn_outside_window(mu0, v0)
    trace: list[FlowStep] = []
    mu_running = mu0
    for n in range(n_last + 1):
        params = _couplings(n, mu0, v0, L, mu_running if renormalize else None)
        try:
            radius, depth = _well(params.mu, params.v)
        except ArithmeticError:  # mu^2 overflows, or v underflows to 0
            radius = depth = math.nan
        if not math.isfinite(radius + depth):  # radius >= 0 >= depth: an inf or a NaN in either shows
            raise NumericalError(f"flow row {n} leaves the floating-point range at mu = {params.mu}, v = {params.v}")
        stop = "stop_mu" if params.mu >= _STOP_MU else "max_steps" if n == n_last else None
        if stop is None and renormalize:
            try:
                mu_running = renormalize_mu(params)
            except NumericalError as exc:
                stop = f"renormalize_mu: {exc}"
        trace.append(FlowStep(params, radius, depth, stop))
        if stop is not None:
            break
    return trace
