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
grid in its own layout, slab by slab, without gathering the fibers.

The chemical-potential trace is quadratic-level bookkeeping: the step's
zero-momentum remainder feeds a fixed-point update mu_{n+1} = L^2 mu_n +
correction(mu_{n+1}).  It mirrors, but does not reproduce, the full flow,
whose correction includes non-Gaussian parts of the fluctuation integral.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .action import well_geometry
from .lattice_ops import (SHARP, AveragingProfile, block_average, block_average_adjoint, operator_matrix,
                          profile_axis_symbol)
from .symbols import NumericalError, _pole_rows, _resummed, _row_batches
from .torus import Field, LatticeError, TorusShape, fiber_momenta, make_shape, negate_modes

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
    (a = 1 per step).
    """

    n: int
    L: int
    mu: float
    v: float
    d: float
    a: float
    kappa: float
    kappa_prime: float
    eps: float
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
    """Largest admissible scale index: floor((2/5) log(1/v0) / log L)."""
    return int(math.floor(0.4 * math.log(1.0 / v0) / math.log(L)))


def admissible_window(mu0: float, v0: float, mu_star: float = 0.0) -> tuple[float, float]:
    """(lower, upper) admissible bounds for the initial chemical potential."""
    return (mu_star + v0**1.25, v0**0.9)


def flow_params_at(n: int, mu0: float, v0: float, L: int, eps: float = 0.01,
                   d_schedule=None, mu_override: float | None = None) -> FlowParams:
    """Running couplings at scale n from the closed-form leading flow.

    mu_n = L^(2n) mu0 (or the supplied override from a renormalized trace),
    v_n = v0 / L^n, the block prefactor from its closed form, and the field
    radii L^(3n/4) v0^(-1/3+eps) and L^(3n/8) v0^(-1/3+eps).  Initial data
    outside the admissible window only warns.
    """
    if n < 0:
        raise LatticeError("scale index must be nonnegative")
    lo, hi = admissible_window(mu0, v0)
    if not (lo < mu0 < hi):
        warnings.warn(f"initial chemical potential {mu0:.3g} outside the admissible window ({lo:.3g}, {hi:.3g})")
    if n > max_steps(v0, L):
        warnings.warn(f"scale {n} beyond the admissible number of steps {max_steps(v0, L)}")
    mu = float(mu_override) if mu_override is not None else float(L ** (2 * n)) * mu0
    d = 1.0 if d_schedule is None else float(d_schedule(n))
    radius_base = v0 ** (-1.0 / 3.0 + eps)
    return FlowParams(
        n=n,
        L=L,
        mu=mu,
        v=v0 / float(L**n),
        d=d,
        a=_block_prefactor(n, L),
        kappa=float(L) ** (0.75 * n) * radius_base,
        kappa_prime=float(L) ** (0.375 * n) * radius_base,
        eps=eps,
        mu0=mu0,
        v0=v0,
    )


# ---------------------------------------------------------------------------
# quadratic actions as unit-lattice symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticAction:
    """Translation-invariant quadratic form on the unit torus.

    symbol_grid holds the kernel's symbol over the dual lattice in FFT index
    order (translation invariance is built in by the representation).
    """

    extents: tuple[int, int, int, int]
    symbol_grid: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        grid = np.asarray(self.symbol_grid, dtype=complex)
        if grid.shape != tuple(self.extents):
            raise LatticeError(f"symbol grid shaped {grid.shape}, extents {self.extents}")
        object.__setattr__(self, "symbol_grid", grid)
        object.__setattr__(self, "extents", tuple(int(e) for e in self.extents))

    @classmethod
    def from_heat_minus_mu(cls, extents, mu: float, d: float = 1.0) -> "QuadraticAction":
        """Unit-lattice heat symbol minus a mass term, summed from per-axis terms.

        The spatial terms and -mu are summed on the small spatial grid, so
        the full grid is written once, by one broadcast add of the time term.
        """
        k = [2.0 * np.pi * np.arange(N) / N for N in extents]
        space = -mu
        for axis in (1, 2, 3):
            space = space + (2.0 - 2.0 * np.cos(k[axis])).reshape([-1 if a == axis else 1 for a in range(4)])
        grid = -d * (np.exp(1j * k[0]) - 1.0)[:, None, None, None] + space
        return cls(tuple(extents), grid, provenance=f"heat-mu (mu={mu}, d={d})")

    def mass(self) -> complex:
        """Negative of the zero-momentum symbol value."""
        return -complex(self.symbol_grid[(0,) * len(self.extents)])


def block_spin_step(action: QuadraticAction, L: int, profile: AveragingProfile = SHARP) -> QuadraticAction:
    """One exact quadratic-level block-spin step.

    The input grid is the fine lattice of out = make_shape(1, L, Nt/L^2,
    Nx/L) (spatial extents equal).  Per output momentum K the new symbol is
    the rank-one factor of :func:`blockspin.symbols.fiber_resolvent` on the
    input's fiber over K with weights u = qhat/L, qhat the averaging
    symbol: L^2 / (L^2 + T), T = sum_m qhat(K+m)^2 / symbol(K+m).  One
    vanishing input symbol with live averaging weight is the massless limit
    and maps to 0; any other vanishing pattern makes the Gaussian degenerate
    and raises :class:`NumericalError` naming the fiber row (the flat index
    of K), under the same pole rule as the resolvent.

    The sum is contracted on the grid as it lies.  Fine mode j*N + i (block
    index j, unit index i) is entry (j_t, i_t, j_x, i_x, j_y, i_y, j_z, i_z)
    of the grid's reshape view, and qhat^2 is a product of one-dimensional
    (block, unit) tables, one per axis.  So the spatial weight divided by the
    grid is summed over the three spatial block axes, and the time block
    axis is contracted with its table: no fiber copy of the grid and no
    full-grid weight array is made.  The grid streams in slabs of whole
    output time rows, as many as fit in ``symbols._BATCH_ENTRIES`` fiber
    entries but at least one, so the temporaries stay at a few MB.

    The block-spin weight is a/L^2 with a = 1, so one step of the heat
    action gives the scale-1 kernel (1 + S)^-1 of
    :func:`blockspin.symbols.zero_field_symbol`.  A chain of n SHARP steps
    (sum of qhat^2 over each fiber is 1) gives 1/symbol = 1/a_n - 1 +
    1/zero_field_symbol at scale n, with a_n = :attr:`FlowParams.a`: the
    running prefactor builds up over the chain rather than being applied
    per step.
    """
    Nt, Nx = action.extents[:2]
    if Nt % (L * L) != 0 or Nx % L != 0 or any(e != Nx for e in action.extents[2:]):
        raise LatticeError(f"block step needs L^2 | Nt, L | Nx and cubic space, got {action.extents}, L={L}")
    out = make_shape(1, L, Nt // (L * L), Nx // L)
    nt, nx, mt, mx = out.Nt, out.Nx, out.mt, out.mx
    # qhat per axis as C-contiguous (block, unit) tables: strided ones slow the contractions
    p = fiber_momenta(out)
    qt, qx = (profile_axis_symbol(eps * np.ascontiguousarray(p[a].reshape(N, m).T), m, profile.exponent)
              for a, eps, N, m in ((0, out.eps_t, nt, mt), (1, out.eps_x, nx, mx)))
    time2 = qt * qt / (L * L)  # u^2 = qhat^2 / L^2
    x2 = qx * qx
    space2 = x2[:, :, None, None, None, None] * x2[:, :, None, None] * x2  # (mx, nx, mx, nx, mx, nx)
    grid = action.symbol_grid.reshape(mt, nt, mx, nx, mx, nx, mx, nx)

    def slab(time_rows: slice) -> np.ndarray:
        a = grid[:, time_rows]
        pole, has = _pole_rows(a, lambda: np.sqrt(np.multiply.outer(time2[:, time_rows], space2)), (0, 2, 4, 6))
        if pole is None:
            q = space2 / a
        else:
            q = np.divide(space2, a, out=np.zeros(a.shape, dtype=complex), where=~pole)
        space_sum = np.einsum("tiajbkcl->tijkl", q)  # faster than q.sum over axes (2, 4, 6)
        return _resummed(1.0 + np.einsum("ti,tijkl->ijkl", time2[:, time_rows], space_sum), has).reshape(-1)

    sigma = _row_batches(nt, action.symbol_grid.size // nt, slab)
    return QuadraticAction(out.unit_extents, sigma.reshape(out.unit_extents), provenance=f"step({action.provenance})")


def block_spin_step_dense(action: QuadraticAction, L: int, profile: AveragingProfile = SHARP,
                          max_sites: int = 4096) -> QuadraticAction:
    """Oracle: the same step through dense Gaussian (Schur-complement) algebra.

    Builds the dense input form, the dense averaging matrices, and the exact
    convolution output (1/L^2) I - (1/L^4) Q G^{-1} Q* with
    G = input + (1/L^2) Q* Q, then reads the output symbol off the first row.
    """
    extents = action.extents
    sites = int(np.prod(extents))
    if sites > max_sites:
        raise LatticeError(f"dense oracle capped at {max_sites} sites")
    kernel = np.fft.fftn(action.symbol_grid) / sites  # A[x, y] = K(y - x)
    A = np.empty((sites, sites), dtype=complex)
    for x in range(sites):
        shift = np.unravel_index(x, extents)
        A[x, :] = np.roll(kernel, shift, axis=(0, 1, 2, 3)).reshape(-1)
    shape0 = TorusShape(0, L, extents[0], extents[1])
    Q = operator_matrix(lambda f: block_average(f, profile), shape0, "unit", "coarse", max_sites=max_sites)
    Qstar = operator_matrix(lambda f: block_average_adjoint(f, profile), shape0, "coarse", "unit", max_sites=max_sites)
    Lsq = float(L * L)
    G = A + Qstar @ Q / Lsq
    coarse_sites = Q.shape[0]
    out_op = np.eye(coarse_sites) / Lsq - Q @ np.linalg.solve(G, Qstar) / Lsq**2
    new_extents = (extents[0] // (L * L), extents[1] // L, extents[2] // L, extents[3] // L)
    row0 = out_op[0, :].reshape(new_extents)
    symbol = np.fft.ifftn(row0) * coarse_sites * Lsq
    return QuadraticAction(new_extents, symbol, provenance=f"dense-step({action.provenance})")


# ---------------------------------------------------------------------------
# localization: constant part plus derivative kernels
# ---------------------------------------------------------------------------

# entries at or below this many machine epsilons of max|K| are FFT round-off
_ROUNDOFF_CUT = 64.0 * np.finfo(float).eps


def localize_quadratic(action: QuadraticAction, tol: float = 1e-10):
    """Split the quadratic kernel into a local mass and derivative parts.

    For any translation-invariant kernel K the form <psi_star, K psi>_0
    equals scalar * <psi_star, psi>_0 plus sum_axis <psi_star, K_axis
    (forward-difference psi)>_0, by telescoping each kernel displacement
    along a fixed axis-ordered lattice path.  Returns (scalar, kernels)
    with kernels[axis] a dict offset -> coefficient.

    A displacement z contributes to K_axis at offsets (z_0, ..., z_(axis-1),
    t, 0, ...), with +K(z) for 0 <= t < z_axis and -K(z) for z_axis <= t < 0.
    So K_axis is, per prefix of earlier coordinates, a suffix sum (t >= 0)
    or a negated prefix sum (t < 0) of the kernel's marginal over the later
    axes, taken along the axis in symmetric-representative order.

    The split is linear in K.  Kernel entries and summed derivative
    coefficients at or below round-off relative to max|K(z)| (a small
    multiple of machine epsilon times it) are FFT noise and are dropped,
    so localizing c*K gives c times the kernels of K with the same support
    at any scale c.  ``tol`` only bounds the imaginary part of the mass
    before it warns.
    """
    grid = action.symbol_grid
    scalar_c = complex(grid[(0,) * grid.ndim])
    # symbol(k) = sum_z K(z) exp(+i k z), so the kernel is the forward transform
    kernel = np.fft.fftn(grid) / grid.size
    cut = _ROUNDOFF_CUT * float(np.max(np.abs(kernel)))
    kernel[np.abs(kernel) <= cut] = 0.0
    # roll each axis into increasing representatives of (-N/2, N/2]: index i holds i - zero[axis]
    zero = [(N - 1) // 2 for N in action.extents]
    kernel = np.roll(kernel, zero, axis=(0, 1, 2, 3))
    kernels = []
    for axis in range(4):
        marginal = np.moveaxis(kernel.sum(axis=tuple(range(axis + 1, 4))), axis, -1)
        p = zero[axis]
        # t < 0: -sum_{z <= t};  t >= 0: sum_{z > t}, exactly 0 at the top representative
        deriv = np.moveaxis(np.concatenate([
            -np.cumsum(marginal[..., :p], axis=-1),
            np.cumsum(marginal[..., :p:-1], axis=-1)[..., ::-1],
            np.zeros(marginal.shape[:-1] + (1,), dtype=complex),
        ], axis=-1), -1, axis)
        live = np.nonzero(np.abs(deriv) > cut)
        offsets = np.zeros((live[0].size, 4), dtype=int)
        offsets[:, : axis + 1] = np.stack(live, axis=1) - zero[: axis + 1]
        kernels.append(dict(zip(map(tuple, offsets.tolist()), deriv[live].tolist())))
    if abs(scalar_c.imag) > tol * max(1.0, abs(scalar_c)):
        warnings.warn(f"localized mass has imaginary part {scalar_c.imag:.3e}")
    return scalar_c.real, kernels


def apply_offset_kernel(kern: dict, f: Field) -> Field:
    """(K f)(x) = sum_z K(z) f(x + z) for a sparse offset kernel.

    Applied as one multiply by the kernel's symbol sum_z K(z) exp(+i k z)
    on the field's FFT grid (offsets wrap around the torus).
    """
    ext = f.values.shape
    grid = np.zeros(ext, dtype=complex)
    offsets = np.array(list(kern), dtype=int).reshape(-1, 4) % ext
    np.add.at(grid, tuple(offsets.T), np.array(list(kern.values()), dtype=complex))
    symbol = np.fft.ifftn(grid) * grid.size
    return f.with_values(np.fft.ifftn(np.fft.fftn(f.values) * symbol))


def quadratic_action_form(action: QuadraticAction, psi_star: Field, psi: Field) -> complex:
    """<psi_star, K psi>_0 through the symbol grid."""
    c_star = np.fft.fftn(psi_star.values) / psi_star.sites
    c_plain = np.fft.fftn(psi.values) / psi.sites
    return complex(psi.sites * np.sum(negate_modes(c_star) * action.symbol_grid * c_plain))


# ---------------------------------------------------------------------------
# chemical-potential renormalization
# ---------------------------------------------------------------------------

def quadratic_mass_correction(mu_in: float, L: int, d: float = 1.0,
                              profile: AveragingProfile = SHARP) -> float:
    """Zero-momentum remainder of one step beyond the naive L^2 mass scaling.

    The step's output at momentum K depends only on the input's fiber over
    K.  For K = 0 that fiber is the momenta 2pi (j_t/L^2, j_x/L, j_y/L,
    j_z/L), the whole dual lattice of the (L^2, L, L, L) torus, on every
    torus the step accepts.  So the heat-minus-mass input is stepped on that
    minimal torus, and the returned value is (output mass) - L^2 * (input
    mass).

    The value is L^4 mu^2 / (1 - L^2 mu) for both profiles and every d: both
    profiles vanish at the nonzero momenta 2 pi j / L of the K = 0 fiber, so
    only p = 0 (u = 1/L, symbol -mu) couples and d enters only decoupled
    entries.  The step is kept so that the correction runs the chain's algebra.
    """
    minimal = (L * L, L, L, L)
    stepped = block_spin_step(QuadraticAction.from_heat_minus_mu(minimal, mu_in, d), L, profile)
    out_mass = -stepped.symbol_grid[(0,) * 4].real
    return float(out_mass - L * L * mu_in)


def renormalize_mu(flow: FlowParams, correction, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Self-consistent next chemical potential: fixed point of
    mu -> L^2 * flow.mu + correction(mu).

    The correction map's contraction property is estimated by sampling a
    difference quotient near L^2 * flow.mu before iterating.
    """
    Lsq = float(flow.L * flow.L)
    base = Lsq * flow.mu
    if base == 0.0:
        return 0.0
    h = 0.05 * base
    lip = abs(correction(base + h) - correction(base - h)) / (2.0 * h)
    if lip >= 1.0:
        raise NumericalError(f"chemical-potential correction is not a contraction (estimate {lip:.3f})")
    mu = base
    for _ in range(max_iter):
        nxt = base + correction(mu)
        if abs(nxt - mu) <= tol * max(1.0, abs(nxt)):
            return float(nxt)
        mu = nxt
    raise NumericalError("chemical-potential fixed point did not converge")


# ---------------------------------------------------------------------------
# the assembled flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowStep:
    """One scale of a :func:`run_flow` trace.

    ``stop`` is None except on a trace's last row, where it says why the
    trace ended: "max_steps", "stop_mu", or "renormalize_mu: " and the
    solver's message when the next scale's chemical potential has no
    self-consistent value.
    """

    params: FlowParams
    well_radius: float
    well_depth_per_site: float
    classifier: str
    stop: str | None = None


def _classify_step(params: FlowParams, stop_mu: float) -> str:
    if params.d > 10.0:
        return "elliptic"
    if params.mu < stop_mu:
        return "parabolic"
    return "transitional"


def run_flow(mu0: float, v0: float, L: int, shape: TorusShape, steps: int | None = None,
             stop_mu: float = 0.5, eps: float = 0.01, renormalize: bool = True,
             profile: AveragingProfile = SHARP, d_schedule=None) -> list[FlowStep]:
    """Trace the running couplings across scales.

    Halts after floor((2/5) log(1/v0)/log L) steps (or ``steps`` rows) or
    once the chemical potential reaches ``stop_mu``, whichever comes first.
    With ``renormalize`` the trace uses the quadratic-level fixed point per
    step (the trial's pull-back mu/L^2 is the step input); otherwise the
    closed form L^(2n) mu0.  The per-step correction depends only on the
    zero-momentum fiber, so it runs on the minimal (L^2, L, L, L) torus;
    ``shape`` sets the well geometry and must admit a block step (L^2 | Nt,
    L | Nx), else :class:`LatticeError`.  When the next scale's fixed point
    does not exist or its correction is not a contraction (near the
    correction's pole at input mu = L^-2), the trace ends at the last good
    scale.  The last row's ``stop`` records why the trace ended.
    """
    n_last = max_steps(v0, L)
    if steps is not None:
        n_last = min(n_last, steps - 1)
    Nt, Nx = shape.unit_extents[:2]
    trace: list[FlowStep] = []
    mu_running = mu0
    stop = "max_steps"
    for n in range(n_last + 1):
        params = flow_params_at(
            n, mu0, v0, L, eps=eps, d_schedule=d_schedule,
            mu_override=mu_running if renormalize else None,
        )
        well = well_geometry(params, shape, per_site=True)
        trace.append(FlowStep(params, well.radius, well.depth, _classify_step(params, stop_mu)))
        if params.mu >= stop_mu:
            stop = "stop_mu"
            break
        if n == n_last:
            break
        if not renormalize:
            mu_running = L * L * mu_running
            continue
        if Nt % (L * L) != 0 or Nx % L != 0:
            raise LatticeError(f"block step needs L^2 | Nt and L | Nx, got {shape.unit_extents}, L={L}")
        corr = lambda m, _d=params.d: quadratic_mass_correction(m / (L * L), L, d=_d, profile=profile)
        try:
            mu_running = renormalize_mu(params, corr)
        except NumericalError as exc:
            stop = f"renormalize_mu: {exc}"
            break
    trace[-1] = replace(trace[-1], stop=stop)
    return trace
