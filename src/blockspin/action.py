"""Action evaluation, effective potential, quadratic approximations, spectra.

The model action for unit external fields (psi_star, psi) and fine
background fields (phi_star, phi) is

    <psi_star - Q phi_star, psi - Q phi>_0
      + <phi_star, (-d dt - Lap) phi>_n
      - mu <phi_star, phi>_n
      + (v/2) <phi_star phi, phi_star phi>_n

with Q the fine box average.  The block-spin prefactor multiplying the first
term is a = 1 here, the per-step weight of ``flow.block_spin_step``; the
running prefactor a_n that a chain of steps builds up is ``FlowParams.a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .background import ModelParams, _FiberOperator, solve_constant
from .lattice_ops import SHARP, AveragingProfile, apply_heat, fine_average
from .symbols import _DEAD_WEIGHT, _pole_rows, _singular_row, well_symbol, zero_field_symbol
from .torus import (
    Field,
    FieldPair,
    LatticeError,
    TorusShape,
    common_torus,
    fft_mode_grid,
    field_modes,
    inner_product,
    negate_modes,
    radians_for_modes,
)

__all__ = [
    "ActionValue",
    "WellGeometry",
    "EffectivePotential",
    "action_value",
    "fd_stationarity",
    "effective_potential",
    "well_geometry",
    "zero_field_quadratic_form",
    "well_quadratic_form",
    "SpectrumReport",
    "fluctuation_spectrum",
]


@dataclass(frozen=True)
class ActionValue:
    block: complex
    heat: complex
    chemical: complex
    quartic: complex

    @property
    def total(self) -> complex:
        return self.block + self.heat + self.chemical + self.quartic


def action_value(psi_pair: FieldPair, phi_pair: FieldPair, params: ModelParams,
                 profile: AveragingProfile = SHARP) -> ActionValue:
    """Evaluate the four parts of the action; psi_pair and phi_pair sit on
    one torus, or :class:`LatticeError` names both."""
    common_torus(psi_pair, phi_pair)
    if psi_pair.level != "unit" or phi_pair.level != "fine":
        raise LatticeError("external fields live on the unit lattice, backgrounds on the fine one")
    q_phi = fine_average(phi_pair.plain, profile)
    q_phi_star = fine_average(phi_pair.starred, profile)
    diff_star = psi_pair.starred.with_values(psi_pair.starred.values - q_phi_star.values)
    diff_plain = psi_pair.plain.with_values(psi_pair.plain.values - q_phi.values)
    block = inner_product(diff_star, diff_plain)
    heat = inner_product(phi_pair.starred, apply_heat(phi_pair.plain, params.d))
    chem = -params.mu * inner_product(phi_pair.starred, phi_pair.plain)
    dens = phi_pair.plain.with_values(phi_pair.starred.values * phi_pair.plain.values)
    quart = 0.5 * params.v * inner_product(dens, dens)
    return ActionValue(block=block, heat=heat, chemical=chem, quartic=quart)


def fd_stationarity(psi_pair: FieldPair, phi_pair: FieldPair, params: ModelParams,
                    rng: np.random.Generator, profile: AveragingProfile = SHARP) -> float:
    """Max |central finite difference| of the action along 20 random directions.

    Perturbs (phi_star, phi) jointly with step 1e-4 on phi_pair's fine
    lattice; at a true stationary point the value is limited by the solver
    residual and the O(step^2) truncation.
    """
    shape = common_torus(psi_pair, phi_pair)
    worst = 0.0
    step = 1e-4
    base_star = phi_pair.starred.values
    base_plain = phi_pair.plain.values
    for _ in range(20):
        eta_star = rng.standard_normal(shape.fine_extents) + 1j * rng.standard_normal(shape.fine_extents)
        eta_plain = rng.standard_normal(shape.fine_extents) + 1j * rng.standard_normal(shape.fine_extents)
        eta_star /= max(1e-300, np.max(np.abs(eta_star)))
        eta_plain /= max(1e-300, np.max(np.abs(eta_plain)))

        def at(t):
            pp = FieldPair(
                Field(shape, "fine", base_star + t * eta_star),
                Field(shape, "fine", base_plain + t * eta_plain),
            )
            return action_value(psi_pair, pp, params, profile).total

        deriv = (at(step) - at(-step)) / (2.0 * step)
        worst = max(worst, abs(deriv))
    return worst


# ---------------------------------------------------------------------------
# constant-field effective potential and well geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectivePotential:
    """Per-site effective potential at a constant external field."""

    closed_form: float
    via_background: float
    background_amplitude: float


def effective_potential(z: complex, flow) -> EffectivePotential:
    """Two routes to the per-site potential at constant external field z.

    closed form: (v_n/2)|z|^4 - mu_n |z|^2 (the quartic well).
    via background: the action per unit site at the constant background
    solving the cubic; every term is a closed per-site expression for
    constant fields, so no lattice is materialized.
    """
    mu_n = flow.mu
    v_n = flow.v
    az = abs(z)
    closed = 0.5 * v_n * az**4 - mu_n * az**2
    roots = solve_constant(az, ModelParams(mu=mu_n, v=v_n))
    amp = min(roots, key=lambda r: abs(r - az))
    via = (az - amp) ** 2 + 0.5 * v_n * amp**4 - mu_n * amp**2
    return EffectivePotential(closed_form=float(closed), via_background=float(via), background_amplitude=float(amp))


@dataclass(frozen=True)
class WellGeometry:
    radius: float
    depth: float  # per unit site

    def __post_init__(self):
        if self.radius < 0:
            raise LatticeError("well radius must be nonnegative")


def _well(mu: float, v: float) -> tuple[float, float]:
    """(radius sqrt(mu/v), per-site depth -mu^2/(2v)) at mu > 0, unchecked."""
    return math.sqrt(mu / v), float(-0.5 * mu**2 / v)


def well_geometry(flow) -> WellGeometry:
    """Radius sqrt(mu/v) and per-site depth -mu^2/(2v) of the circular
    minimum of the effective potential."""
    if flow.mu <= 0:
        raise LatticeError("well geometry needs mu > 0")
    return WellGeometry(*_well(flow.mu, flow.v))


# ---------------------------------------------------------------------------
# quadratic approximations
# ---------------------------------------------------------------------------

def zero_field_quadratic_form(psi_pair: FieldPair, params: ModelParams, mode: str = "discrete",
                              profile: AveragingProfile = SHARP) -> complex:
    """<psi_star, (effective quadratic kernel around zero field) psi>_0.

    Momentum-space evaluation through the unit symbol of psi_pair's torus;
    the bilinear pairing couples mode k with -k.
    """
    shape = psi_pair.shape
    if psi_pair.level != "unit":
        raise LatticeError("quadratic form takes unit-level fields")
    k = radians_for_modes(shape, fft_mode_grid(shape.unit_extents))
    sigma = zero_field_symbol(k.reshape(-1, 4), params.mu, params.d, shape, mode, profile).reshape(
        shape.unit_extents
    )
    c_star = negate_modes(field_modes(psi_pair.starred))
    c_plain = field_modes(psi_pair.plain)
    return complex(psi_pair.plain.sites * np.sum(c_star * sigma * c_plain))


def well_quadratic_form(R: Field, Theta: Field, params: ModelParams, mode: str = "discrete",
                        profile: AveragingProfile = SHARP) -> complex:
    """Quadratic form of the well kernel on radial/tangential data, plus the
    constant well-bottom term -(radius^2 v / 2) <1,1>_n.

    R and Theta sit on one torus, or :class:`LatticeError` names both.
    Dividing the full action at fields radius*exp(R +/- i Theta) (with the
    matching solved background) by radius^2 reproduces this value up to
    third-order terms.
    """
    shape = common_torus(R, Theta)
    if R.level != "unit" or Theta.level != "unit":
        raise LatticeError("well form takes unit-level fields")
    k = radians_for_modes(shape, fft_mode_grid(shape.unit_extents)).reshape(-1, 4)
    sigma = well_symbol(k, params.mu, params.d, shape, mode, profile)
    cR = field_modes(R).reshape(-1)
    cT = field_modes(Theta).reshape(-1)
    cRn = negate_modes(field_modes(R)).reshape(-1)
    cTn = negate_modes(field_modes(Theta)).reshape(-1)
    quad = np.sum(
        cRn * (sigma[:, 0, 0] * cR + sigma[:, 0, 1] * cT)
        + cTn * (sigma[:, 1, 0] * cR + sigma[:, 1, 1] * cT)
    )
    sites = R.sites
    const = -0.5 * params.well_radius**2 * params.v * sites  # <1,1>_n equals the unit site count
    return complex(sites * quad + const)


# ---------------------------------------------------------------------------
# spectrum of the dominant quadratic kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    min_distance: float
    sqrt_residual: float
    sqrt_in_right_half_plane: bool
    blocks: int


def _distance_to_negative_axis(lams: np.ndarray) -> np.ndarray:
    x, y = lams.real, lams.imag
    return np.where(x > 0, np.hypot(x, y), np.abs(y))


#: the largest coupled fiber core the spectrum decomposes densely
_SPECTRUM_CAP = 2500


def fluctuation_spectrum(params: ModelParams, shape: TorusShape, profile: AveragingProfile = SHARP) -> SpectrumReport:
    """Exact spectrum of (averaging mass + heat - mu) over momentum fibers.

    Per unit momentum the fiber matrix is diag(heat - mu) plus the rank-one
    averaging coupling u u^T, on the linear solvers' fiber data.  Entries with vanishing averaging weight
    decouple exactly; the coupled core is handled densely, including the
    principal square root of its inverse (the fluctuation covariance) and
    the verification that the square root's spectrum lies in the open right
    half-plane.  The fiber data pass the solvers' pole rule first
    (:func:`blockspin.symbols._pole_rows`), so a vanishing decoupled entry
    raises :class:`NumericalError` naming the fiber row, as the solvers do;
    a single pole with live averaging weight sits in the coupled core.  A
    singular core, as at mu = 1 where the K = 0 core is [-1 + 1], raises
    naming the row too.
    """
    fiber = _FiberOperator(shape, params, profile)
    _pole_rows(fiber.a_plain, lambda: fiber.u)
    eigs_all = []
    sqrt_resid = 0.0
    sqrt_rhp = True
    for row, (u, a) in enumerate(zip(fiber.u, fiber.a_plain)):
        coupled = np.abs(u) > _DEAD_WEIGHT
        a_dec = a[~coupled]
        eigs_all.append(a_dec)
        # decoupled covariance entries are 1/a; principal scalar square roots
        if a_dec.size:
            cov_dec = 1.0 / a_dec
            droot = np.sqrt(cov_dec)
            sqrt_resid = max(sqrt_resid, float(np.max(np.abs(droot**2 - cov_dec))) / max(1.0, float(np.max(np.abs(cov_dec)))))
            sqrt_rhp = sqrt_rhp and bool(np.all(droot.real > 0))
        ac, uc = a[coupled], u[coupled]
        if ac.size == 0:
            continue
        if ac.size > _SPECTRUM_CAP:
            raise LatticeError(
                f"coupled fiber of size {ac.size} exceeds the dense spectral cap {_SPECTRUM_CAP}"
            )
        M = np.diag(ac) + np.outer(uc, uc)
        eigs_all.append(np.linalg.eigvals(M))
        try:
            cov = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise _singular_row((row,), "the coupled core is singular") from None
        droot = scipy.linalg.sqrtm(cov)
        resid = float(np.linalg.norm(droot @ droot - cov) / max(1e-300, np.linalg.norm(cov)))
        sqrt_resid = max(sqrt_resid, resid)
        sqrt_rhp = sqrt_rhp and bool(np.all(np.linalg.eigvals(droot).real > 0))
    eigs = np.concatenate(eigs_all)
    dist = _distance_to_negative_axis(eigs)
    return SpectrumReport(
        eigenvalues=eigs,
        min_distance=float(np.min(dist)),
        sqrt_residual=sqrt_resid,
        sqrt_in_right_half_plane=sqrt_rhp,
        blocks=len(fiber.u),
    )
