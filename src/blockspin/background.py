"""Background-field solvers on the fine lattice.

The stationarity system for the pair (phi_star, phi) given external unit
fields (psi_star, psi) is

    average_adjoint(average(phi) - psi)   + heat(phi)     + (v*phi_star*phi - mu)*phi      = 0
    average_adjoint(average(phi_star) - psi_star) + heat^T(phi_star) + (v*phi_star*phi - mu)*phi_star = 0

Solvers, in increasing generality: constant fields (a real cubic), the
linearization around zero field (exact momentum-space solve through the
rank-one kernel :func:`blockspin.symbols.fiber_resolvent`), the
linearization around the well bottom (the 2x2 Woodbury kernel
:func:`blockspin.symbols.well_resolvent`), and damped Newton on the full
nonlinear system with the exact Jacobian (dense at small sizes, GMRES
preconditioned by the rank-one kernel above).  Both kernels follow the
symbols module's pole rule: a fiber row may hold at most one zero of its
diagonal, with live averaging weight; any other pattern raises
:class:`NumericalError` naming the row.  This module builds the fiber data
(averaging weights u, diagonals a or D) from the per-axis components of
:func:`fiber_momenta`; the symbols broadcast over the fiber view and
reshape to (unit sites, blocks) rows.

Newton's Jacobian, its GMRES matvec and its preconditioner use the fiber
form diag(a) + u u^T.  The residuals apply the operator another way, so
that they check the fiber path: the linear and nonlinear ones in direct
space through the lattice_ops roll loops, and the well one
(:func:`apply_well_operator`) as the 2x2 well matrix on the fine FFT grid
of :func:`fine_momenta`, plus the averaging mass through the roll loops.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .lattice_ops import (
    SHARP,
    AveragingProfile,
    apply_heat,
    apply_heat_transpose,
    fine_average,
    fine_average_adjoint,
    operator_matrix,
)
from .symbols import NumericalError, averaging_symbol, fiber_resolvent, heat_symbol, well_matrix, well_resolvent
from .torus import (
    Field,
    FieldPair,
    LatticeError,
    TorusShape,
    _is_integer,
    common_torus,
    fiber_merge,
    fiber_momenta,
    fiber_split,
    field_modes,
    fine_momenta,
)

__all__ = [
    "ModelParams",
    "BackgroundSolution",
    "solve_constant",
    "solve_linear",
    "solve_well_linear",
    "apply_well_operator",
    "solve_nonlinear",
    "nonlinear_residuals",
]

DENSE_SITE_LIMIT = 600  # dense Newton path up to this many fine sites


@dataclass(frozen=True)
class ModelParams:
    """Chemical potential, local coupling, and time-derivative weight.

    The well radius sqrt(mu/v) is derived, so radius^2 * v = mu holds by
    construction.  mu = 0 is allowed (radius 0); a non-finite value raises.
    """

    mu: float
    v: float
    d: float = 1.0

    def __post_init__(self):
        for name in ("mu", "v", "d"):
            if not np.isfinite(getattr(self, name)):
                raise LatticeError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu < 0:
            raise LatticeError("chemical potential must be >= 0")
        if self.v <= 0:
            raise LatticeError("coupling must be > 0")
        if self.d < 1.0:
            raise LatticeError("time-derivative weight must be >= 1")

    @property
    def well_radius(self) -> float:
        return float(np.sqrt(self.mu / self.v))


@dataclass(frozen=True)
class BackgroundSolution:
    phi_star: Field
    phi: Field
    residual: tuple[float, float]  # sup norms of (starred, plain) equations
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# constant fields
# ---------------------------------------------------------------------------

def solve_constant(psi: float, params: ModelParams) -> list[float]:
    """All real roots of  v*phi^3 + (1 - mu)*phi = psi.

    Exactly one root when mu <= 1; up to three otherwise.  Each root is
    polished by Newton until the residual is at most 1e-12 times the
    cubic's scale at the root, max(1, |v phi^3| + |(1 - mu) phi| + |psi|),
    the size that round-off in evaluating it grows with.
    """
    coeffs = [params.v, 0.0, 1.0 - params.mu, -float(psi)]
    roots = np.roots(coeffs)

    def residual(x: float) -> tuple[float, float]:
        """The cubic at x, and its bound: 1e-12 of the scale at x."""
        terms = (params.v * x**3, (1.0 - params.mu) * x, -psi)
        return sum(terms), 1e-12 * max(1.0, sum(map(abs, terms)))

    real = []
    for r in roots:
        if abs(r.imag) > 1e-7 * max(1.0, abs(r)):
            continue
        x = float(r.real)
        for _ in range(60):
            f, bound = residual(x)
            if abs(f) <= bound:
                break
            df = 3 * params.v * x**2 + (1.0 - params.mu)
            if df == 0:
                break
            x -= f / df
        f, bound = residual(x)
        if abs(f) <= bound:
            real.append(x)
    # dedupe (np.roots may report near-equal real roots at multiple points)
    real.sort()
    out: list[float] = []
    for x in real:
        if not out or abs(x - out[-1]) > 1e-8 * max(1.0, abs(x)):
            out.append(x)
    if params.mu <= 1.0 and len(out) != 1:
        out = [min(out, key=lambda x: abs(params.v * x**3 + (1.0 - params.mu) * x - psi))]
    return out


# ---------------------------------------------------------------------------
# fiber arithmetic shared by the momentum-space solvers
# ---------------------------------------------------------------------------

class _FiberOperator:
    """Cached fiber data for (averaging + heat - mu) at one parameter set:
    diag(a) + u u^T on every fiber row, a = a_plain (a_star for heat^T)."""

    def __init__(self, shape: TorusShape, params: ModelParams, profile: AveragingProfile = SHARP):
        self.shape = shape
        p = fiber_momenta(shape)
        rows = (shape.sites("unit"), -1)
        self.u = averaging_symbol(p, shape, profile).reshape(rows)
        self.a_plain = (heat_symbol(p, shape, params.d, "discrete") - params.mu).reshape(rows)
        self.a_star = self.a_plain.conj()  # heat^T has the conjugate symbol; mu is real

    def _on_fibers(self, values: np.ndarray, fiber_map) -> np.ndarray:
        """Apply ``fiber_map`` to the (U, B) fiber array of a fine field's mode coefficients."""
        fib = fiber_split(np.fft.fftn(values) / values.size, self.shape)
        merged = fiber_merge(fiber_map(fib), self.shape)
        return np.fft.ifftn(merged) * merged.size

    def apply_field(self, values: np.ndarray, transpose: bool = False) -> np.ndarray:
        """(diag(a) + u u^T) c on every fiber row."""
        a = self.a_star if transpose else self.a_plain
        return self._on_fibers(values, lambda c: a * c + self.u * np.einsum("rj,rj->r", self.u, c)[:, None])

    def solve_field(self, rhs_values: np.ndarray, transpose: bool = False, shift: complex = 0.0) -> np.ndarray:
        """Solve (diag(a + shift) + u u^T) x = rhs on every fiber row."""
        a = (self.a_star if transpose else self.a_plain) + shift
        return self._on_fibers(rhs_values, lambda c: fiber_resolvent(a, self.u, c)[1])


# ---------------------------------------------------------------------------
# the direct-space operator of the residual checks
# ---------------------------------------------------------------------------

def _direct_operator(f: Field, profile: AveragingProfile, params: ModelParams | None = None,
                     transpose: bool = False, potential=0.0) -> np.ndarray:
    """average_adjoint(average(f)), plus heat(f) (heat^T with ``transpose``)
    + (potential - mu)*f given params.

    Applied through the lattice_ops roll loops, independently of the fiber
    path the solvers use, so that a residual checks the solve.
    """
    out = fine_average_adjoint(fine_average(f, profile), profile).values
    if params is None:
        return out
    heat = apply_heat_transpose if transpose else apply_heat
    return out + heat(f, params.d).values + (potential - params.mu) * f.values


# ---------------------------------------------------------------------------
# linearization around zero field
# ---------------------------------------------------------------------------

def _linear_residual(phi: Field, rhs_vals, params, profile, transpose) -> float:
    res = _direct_operator(phi, profile, params, transpose) - rhs_vals
    return float(np.max(np.abs(res)))


def solve_linear(psi_pair: FieldPair, params: ModelParams, profile: AveragingProfile = SHARP) -> BackgroundSolution:
    """First-order background fields: exact momentum-space solve on psi_pair's torus.

    phi = (average^T average - mu + heat)^(-1) average^T psi, and the
    transpose-heat analogue for the starred member.  Residuals are evaluated
    by applying the operators in direct space.
    """
    shape = psi_pair.shape
    op = _FiberOperator(shape, params, profile)
    rhs_plain = fine_average_adjoint(psi_pair.plain, profile).values
    rhs_star = fine_average_adjoint(psi_pair.starred, profile).values
    phi = Field(shape, "fine", op.solve_field(rhs_plain, transpose=False))
    phi_star = Field(shape, "fine", op.solve_field(rhs_star, transpose=True))
    res_plain = _linear_residual(phi, rhs_plain, params, profile, transpose=False)
    res_star = _linear_residual(phi_star, rhs_star, params, profile, transpose=True)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(psi_pair.plain.values))), float(np.max(np.abs(psi_pair.starred.values))))
    return BackgroundSolution(
        phi_star=phi_star,
        phi=phi,
        residual=(res_star, res_plain),
        iterations=1,
        converged=bool(res_plain <= tol and res_star <= tol),
    )


# ---------------------------------------------------------------------------
# linearization around the well bottom (radial / tangential components)
# ---------------------------------------------------------------------------

#: the well solve's residual bound, relative to max(1, |R|, |Theta|)
_WELL_RESIDUAL_TOL = 1e-10


def solve_well_linear(R: Field, Theta: Field, params: ModelParams, mode: str = "discrete",
                      profile: AveragingProfile = SHARP) -> tuple[Field, Field]:
    """Solve the linearized radial/tangential system per momentum fiber.

    Returns (X, H) with  welloperator [X; H] = average_adjoint [R; Theta],
    on the torus of R and Theta (two tori raise :class:`LatticeError`);
    the well operator couples the two components through the 2x2 matrix
    symbol plus the averaging mass.  The residual of the solved system is
    verified against a full-grid application of the operator.
    """
    shape = common_torus(R, Theta)
    if R.level != "unit" or Theta.level != "unit":
        raise LatticeError("radial/tangential data live on the unit lattice")
    w = np.stack([field_modes(R).reshape(-1), field_modes(Theta).reshape(-1)], axis=-1)
    p = fiber_momenta(shape)
    rows = (shape.sites("unit"), -1)
    u = averaging_symbol(p, shape, profile).reshape(rows)
    D = well_matrix(p, params.mu, params.d, shape, mode).reshape(rows + (2, 2))
    _, c = well_resolvent(D, u, w)
    XH = np.fft.ifftn(fiber_merge(c, shape), axes=(0, 1, 2, 3)) * shape.sites("fine")
    X, H = Field(shape, "fine", XH[..., 0]), Field(shape, "fine", XH[..., 1])
    resid = _well_residual(X, H, R, Theta, params, mode, profile)
    scale = max(1.0, float(np.max(np.abs(R.values))), float(np.max(np.abs(Theta.values))))
    if not resid <= _WELL_RESIDUAL_TOL * scale:  # a NaN residual fails too
        raise NumericalError(f"well solve residual {resid:.3e} exceeds {_WELL_RESIDUAL_TOL:g}")
    return X, H


def apply_well_operator(X: Field, H: Field, params: ModelParams, mode: str = "discrete",
                        profile: AveragingProfile = SHARP) -> tuple[np.ndarray, np.ndarray]:
    """Full-grid application of the 2x2 well operator plus averaging mass
    on the torus of X and H (two tori raise :class:`LatticeError`), over the
    fine mode grid (:func:`fine_momenta`), not the solve's fibers."""
    shape = common_torus(X, H)
    D = well_matrix(fine_momenta(shape), params.mu, params.d, shape, mode)
    cX = np.fft.fftn(X.values) / X.sites
    cH = np.fft.fftn(H.values) / H.sites
    oX = D[..., 0, 0] * cX + D[..., 0, 1] * cH
    oH = D[..., 1, 0] * cX + D[..., 1, 1] * cH
    outX = np.fft.ifftn(oX) * oX.size + _direct_operator(X, profile)
    outH = np.fft.ifftn(oH) * oH.size + _direct_operator(H, profile)
    return outX, outH


def _well_residual(X, H, R, Theta, params, mode, profile) -> float:
    outX, outH = apply_well_operator(X, H, params, mode, profile)
    rhsX = fine_average_adjoint(R, profile).values
    rhsH = fine_average_adjoint(Theta, profile).values
    return float(max(np.max(np.abs(outX - rhsX)), np.max(np.abs(outH - rhsH))))


# ---------------------------------------------------------------------------
# full nonlinear system
# ---------------------------------------------------------------------------

def _external_torus(psi_pair: FieldPair, shape: TorusShape) -> TorusShape:
    """psi_pair's torus, which ``shape`` must name."""
    if shape != psi_pair.shape:
        raise LatticeError(f"shape {shape} is not the external fields' torus {psi_pair.shape}")
    return psi_pair.shape


def _nonlinear_rhs(psi_pair: FieldPair, profile: AveragingProfile) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand sides Q* psi of the stationarity equations (starred, plain)."""
    return (fine_average_adjoint(psi_pair.starred, profile).values,
            fine_average_adjoint(psi_pair.plain, profile).values)


def nonlinear_residuals(psi_pair: FieldPair, phi_star: np.ndarray, phi: np.ndarray,
                        params: ModelParams, shape: TorusShape,
                        profile: AveragingProfile = SHARP, *,
                        rhs: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Direct-space values of both stationarity equations (starred, plain).

    The backgrounds are fine-lattice values on psi_pair's torus; ``shape``
    must be that torus, or :class:`LatticeError` names both.  ``rhs``
    passes the right-hand sides (Q* psi_star, Q* psi) when the caller
    already holds them for this psi.
    """
    shape = _external_torus(psi_pair, shape)
    rhs_star, rhs_plain = _nonlinear_rhs(psi_pair, profile) if rhs is None else rhs
    cubic = params.v * phi_star * phi
    res_plain = _direct_operator(Field(shape, "fine", phi), profile, params, potential=cubic) - rhs_plain
    res_star = _direct_operator(Field(shape, "fine", phi_star), profile, params, True, cubic) - rhs_star
    return res_star, res_plain


def _seed_fields(psi_pair, params, profile, strategy, fiber, psi_rhs):
    """Newton's starting pair (phi_star, phi); the linearized seed solves
    :func:`solve_linear`'s system with the solve's own fiber operator and
    right-hand sides Q* psi."""
    if strategy == "linearized":
        rhs_star, rhs_plain = psi_rhs
        return fiber.solve_field(rhs_star, transpose=True), fiber.solve_field(rhs_plain)
    if strategy == "well":
        r = params.well_radius
        if r == 0.0:
            raise LatticeError("well seed needs mu > 0")
        ratio_plain = psi_pair.plain.values / r
        ratio_star = psi_pair.starred.values / r
        if np.any(np.abs(ratio_plain) < 1e-12) or np.any(np.abs(ratio_star) < 1e-12):
            raise NumericalError("well seed undefined at vanishing external field")
        Rv = 0.5 * (np.log(np.abs(ratio_plain)) + np.log(np.abs(ratio_star)))
        Tv = np.angle(ratio_plain)
        X, H = solve_well_linear(
            Field(fiber.shape, "unit", Rv.astype(complex)),
            Field(fiber.shape, "unit", Tv.astype(complex)),
            params,
            mode="discrete",
            profile=profile,
        )
        phi = r * np.exp(X.values + 1j * H.values)
        phi_star = r * np.exp(X.values - 1j * H.values)
        return phi_star, phi
    if strategy == "auto":
        if params.mu <= 1.0:
            return _seed_fields(psi_pair, params, profile, "linearized", fiber, psi_rhs)
        conj_like = np.allclose(psi_pair.starred.values, np.conj(psi_pair.plain.values), atol=1e-9)
        return _seed_fields(psi_pair, params, profile, "well" if conj_like else "linearized", fiber, psi_rhs)
    raise LatticeError(f"unknown seed strategy {strategy!r}")


def solve_nonlinear(psi_pair: FieldPair, params: ModelParams, shape: TorusShape,
                    tol: float = 1e-10, max_iter: int = 40, seed_strategy: str = "auto",
                    profile: AveragingProfile = SHARP, field_radius: float | None = None) -> BackgroundSolution:
    """Damped Newton on the coupled stationarity system with the exact Jacobian.

    The backgrounds live on psi_pair's fine lattice; ``shape`` must be
    psi_pair's torus, or :class:`LatticeError` names both.  The Jacobian's
    linear part is the fiber operator.  Small lattices factor the dense
    Jacobian, assembled from one fiber-operator matrix; larger ones run a
    matrix-free GMRES solve preconditioned by the constant-coefficient fiber
    inverse.  Non-convergence returns the best iterate with converged=False.
    ``max_iter`` must be an integer >= 1 and ``tol`` finite and > 0, or
    :class:`LatticeError` is raised.
    """
    if not _is_integer(max_iter) or max_iter < 1:
        raise LatticeError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise LatticeError(f"tol must be finite and > 0, got {tol!r}")
    if field_radius is not None:
        amp = max(float(np.max(np.abs(psi_pair.plain.values))), float(np.max(np.abs(psi_pair.starred.values))))
        if amp > field_radius:
            warnings.warn(f"external field amplitude {amp:.3g} exceeds the admissible radius {field_radius:.3g}")
    shape = _external_torus(psi_pair, shape)
    fiber = _FiberOperator(shape, params, profile)
    psi_rhs = _nonlinear_rhs(psi_pair, profile)  # psi is fixed for the whole solve
    phi_star, phi = _seed_fields(psi_pair, params, profile, seed_strategy, fiber, psi_rhs)
    n = shape.sites("fine")
    dense = n <= DENSE_SITE_LIMIT
    if dense:
        lin_plain = operator_matrix(lambda f: f.with_values(fiber.apply_field(f.values)), shape, "fine", "fine",
                                    max_sites=DENSE_SITE_LIMIT)
        diag = np.arange(n)

    def res_norms(rs, rp):
        return float(np.max(np.abs(rs))), float(np.max(np.abs(rp)))

    best = None
    res_star, res_plain = nonlinear_residuals(psi_pair, phi_star, phi, params, shape, profile, rhs=psi_rhs)
    ns, npl = res_norms(res_star, res_plain)
    for iteration in range(1, max_iter + 1):
        if best is None or max(ns, npl) < best[0]:
            best = (max(ns, npl), phi_star.copy(), phi.copy(), (ns, npl), iteration)
        if ns <= tol and npl <= tol:
            return BackgroundSolution(
                phi_star=Field(shape, "fine", phi_star),
                phi=Field(shape, "fine", phi),
                residual=(ns, npl),
                iterations=iteration,
                converged=True,
            )
        # Newton step on the stacked (delta_plain, delta_star) system
        if dense:
            # Fortran order lets LAPACK factor J in place: no second 2n x 2n copy
            J = np.zeros((2 * n, 2 * n), dtype=complex, order="F")
            J[:n, :n] = lin_plain
            # heat^T is the bilinear transpose of heat; the averaging part is symmetric
            J[n:, n:] = lin_plain.T
            two_v_ss = (2.0 * params.v * phi_star * phi).reshape(-1)
            J[diag, diag] += two_v_ss
            J[diag + n, diag + n] += two_v_ss
            J[diag, diag + n] = (params.v * phi * phi).reshape(-1)
            J[diag + n, diag] = (params.v * phi_star * phi_star).reshape(-1)
            rhs = -np.concatenate([res_plain.reshape(-1), res_star.reshape(-1)])
            delta = la.solve(J, rhs, overwrite_a=True, check_finite=False)
            del J  # before the next iteration allocates its own
            d_plain = delta[:n].reshape(shape.fine_extents)
            d_star = delta[n:].reshape(shape.fine_extents)
        else:
            d_plain, d_star = _gmres_newton_step(fiber, params, phi_star, phi, res_star, res_plain, max(ns, npl))
        # damping: try steps 1, 1/2, ..., 2^-12 and take the first that lowers
        # the residual, else the last; its residual starts the next iteration
        base = max(ns, npl)
        for step in (0.5**i for i in range(13)):
            cand_star, cand = phi_star + step * d_star, phi + step * d_plain
            res_star, res_plain = nonlinear_residuals(psi_pair, cand_star, cand, params, shape, profile, rhs=psi_rhs)
            ns, npl = res_norms(res_star, res_plain)
            if max(ns, npl) < base:
                break
        phi_star, phi = cand_star, cand
    _, bs, bp, bres, bit = best
    return BackgroundSolution(
        phi_star=Field(shape, "fine", bs),
        phi=Field(shape, "fine", bp),
        residual=bres,
        iterations=max_iter,
        converged=False,
    )


def _gmres_newton_step(fiber, params, phi_star, phi, res_star, res_plain, rnorm):
    """Matrix-free Newton direction via preconditioned GMRES."""
    v = params.v
    ext = fiber.shape.fine_extents
    n = int(np.prod(ext))
    two_v_ss = 2.0 * v * phi_star * phi
    v_pp = v * phi * phi
    v_ss = v * phi_star * phi_star

    def matvec(x):
        dp = x[:n].reshape(ext)
        ds = x[n:].reshape(ext)
        out_p = fiber.apply_field(dp) + two_v_ss * dp + v_pp * ds
        out_s = fiber.apply_field(ds, transpose=True) + two_v_ss * ds + v_ss * dp
        return np.concatenate([out_p.reshape(-1), out_s.reshape(-1)])

    shift = complex(np.mean(two_v_ss))

    def precond(x):
        dp = fiber.solve_field(x[:n].reshape(ext), transpose=False, shift=shift)
        ds = fiber.solve_field(x[n:].reshape(ext), transpose=True, shift=shift)
        return np.concatenate([dp.reshape(-1), ds.reshape(-1)])

    A = spla.LinearOperator((2 * n, 2 * n), matvec=matvec, dtype=complex)
    M = spla.LinearOperator((2 * n, 2 * n), matvec=precond, dtype=complex)
    rhs = -np.concatenate([res_plain.reshape(-1), res_star.reshape(-1)])
    rtol = min(1e-4, max(1e-12, 1e-3 * rnorm))
    sol, info = spla.gmres(A, rhs, rtol=rtol, atol=0.0, M=M, maxiter=200, restart=60)
    if info != 0:
        raise NumericalError(f"inner linear solve stalled (gmres info={info})")
    return sol[:n].reshape(ext), sol[n:].reshape(ext)
