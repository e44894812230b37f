"""Direct-space lattice operators.

Forward/backward differences, the spatial Laplacian and the heat operator on
any level; the parabolic scaling maps of fields between consecutive scales;
box averaging with its bilinear adjoint; dense operator matrices for the
oracles; and the one-dimensional profile symbol.  The running couplings
are not rescaled here: :func:`blockspin.flow.flow_params_at` is their one
formula.  One averaging body serves both block
averaging (unit -> coarse, L^2 x L^3 boxes) and fine averaging (fine -> unit,
L^(2n) x L^(3n) boxes): block averaging is fine averaging on the one-step
torus over the coarse torus.

Averaging kernels are separable products of one-dimensional box profiles.
``exponent=1`` is the sharp box indicator; ``exponent=5`` is the box
self-convolved four times (support five blocks wide per axis).  All profiles
are even and normalized to unit sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .torus import Field, LatticeError, TorusShape

__all__ = [
    "AveragingProfile",
    "SHARP",
    "SMOOTH",
    "forward_difference",
    "backward_difference",
    "laplacian",
    "apply_heat",
    "apply_heat_transpose",
    "block_average",
    "block_average_adjoint",
    "fine_average",
    "fine_average_adjoint",
    "to_next_scale",
    "from_next_scale",
    "operator_matrix",
    "profile_axis_symbol",
]


@dataclass(frozen=True)
class AveragingProfile:
    """Box profile used by the averaging operators.

    exponent: number of box factors in the self-convolution (>= 1).
    """

    exponent: int = 1

    def __post_init__(self):
        if self.exponent < 1:
            raise LatticeError(f"profile exponent must be >= 1, got {self.exponent}")


SHARP = AveragingProfile(1)
SMOOTH = AveragingProfile(5)


@lru_cache(maxsize=None)
def _axis_weights(box_len: int, exponent: int) -> np.ndarray:
    """Normalized weights of the exponent-fold self-convolved box."""
    box = np.ones(box_len, dtype=np.int64)
    w = box
    for _ in range(exponent - 1):
        w = np.convolve(w, box)
    w = w.astype(float)
    w /= w.sum()
    w /= w.sum()  # squeeze the normalization to one ulp
    return w


def _axis_offsets(box_len: int, exponent: int) -> np.ndarray:
    support = exponent * box_len - (exponent - 1)  # odd whenever box_len is odd
    half = (support - 1) // 2
    return np.arange(-half, half + 1)


def _apply_profile_axis(values: np.ndarray, axis: int, box_len: int, exponent: int, sign: int) -> np.ndarray:
    """sum_j w_j * values(x + sign*off_j) along one axis, periodic."""
    if box_len == 1:
        return values
    w = _axis_weights(box_len, exponent)
    offs = _axis_offsets(box_len, exponent)
    out = np.zeros_like(values)
    for wj, oj in zip(w, offs):
        out += wj * np.roll(values, -sign * int(oj), axis=axis)
    return out


def _average(values: np.ndarray, boxes: tuple[int, ...], exponent: int) -> np.ndarray:
    """Profile-weighted average over ``boxes`` (lengths per axis) centered at stride ``boxes``."""
    for axis, blen in enumerate(boxes):
        values = _apply_profile_axis(values, axis, blen, exponent, sign=+1)
    return values[tuple(slice(None, None, b) for b in boxes)]


def _average_adjoint(values: np.ndarray, boxes: tuple[int, ...], extents, exponent: int) -> np.ndarray:
    """Adjoint of :func:`_average` onto ``extents``, weighted by the box volume."""
    scat = np.zeros(extents, dtype=complex)
    scat[tuple(slice(None, None, b) for b in boxes)] = values
    for axis, blen in enumerate(boxes):
        scat = _apply_profile_axis(scat, axis, blen, exponent, sign=-1)
    return float(math.prod(boxes)) * scat


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

def forward_difference(f: Field, axis: int) -> Field:
    """(f(x + e_axis * spacing) - f(x)) / spacing, periodic wrap."""
    if axis not in (0, 1, 2, 3):
        raise LatticeError(f"axis must be 0..3, got {axis}")
    eps = f.shape.spacings(f.level)[axis]
    vals = (np.roll(f.values, -1, axis=axis) - f.values) / eps
    return f.with_values(vals)


def backward_difference(f: Field, axis: int) -> Field:
    """(f(x) - f(x - e_axis * spacing)) / spacing, periodic wrap."""
    if axis not in (0, 1, 2, 3):
        raise LatticeError(f"axis must be 0..3, got {axis}")
    eps = f.shape.spacings(f.level)[axis]
    vals = (f.values - np.roll(f.values, 1, axis=axis)) / eps
    return f.with_values(vals)


def laplacian(f: Field) -> Field:
    """Spatial nearest-neighbor Laplacian (axes 1..3)."""
    eps = f.shape.spacings(f.level)[1]
    out = np.zeros_like(f.values)
    for axis in (1, 2, 3):
        out += np.roll(f.values, -1, axis=axis) + np.roll(f.values, 1, axis=axis) - 2.0 * f.values
    return f.with_values(out / (eps * eps))


def apply_heat(f: Field, d: float = 1.0) -> Field:
    """Heat operator: -d * (forward time difference) - Laplacian."""
    vals = -d * forward_difference(f, 0).values - laplacian(f).values
    return f.with_values(vals)


def apply_heat_transpose(f: Field, d: float = 1.0) -> Field:
    """Bilinear transpose of the heat operator: +d * (backward time difference) - Laplacian."""
    vals = d * backward_difference(f, 0).values - laplacian(f).values
    return f.with_values(vals)


# ---------------------------------------------------------------------------
# block averaging (unit -> coarse), fine averaging (fine -> unit), adjoints
# ---------------------------------------------------------------------------

def block_average(f: Field, profile: AveragingProfile = SHARP) -> Field:
    """Profile-weighted average over L^2 x L x L x L blocks centered at coarse points."""
    if f.level != "unit":
        raise LatticeError("block_average expects a unit-level field")
    L = f.shape.L
    f.shape.coarse_extents  # validates divisibility
    return Field(f.shape, "coarse", _average(f.values, (L * L, L, L, L), profile.exponent))


def block_average_adjoint(theta: Field, profile: AveragingProfile = SHARP) -> Field:
    """Adjoint of :func:`block_average` for the pairing <theta, Q psi>_{-1} = <Q* theta, psi>_0."""
    if theta.level != "coarse":
        raise LatticeError("block_average_adjoint expects a coarse-level field")
    shape, L = theta.shape, theta.shape.L
    return Field(shape, "unit", _average_adjoint(theta.values, (L * L, L, L, L), shape.unit_extents, profile.exponent))


def fine_average(f: Field, profile: AveragingProfile = SHARP) -> Field:
    """Average of a fine field over the side-1 box centered at each unit point."""
    if f.level != "fine":
        raise LatticeError("fine_average expects a fine-level field")
    shape = f.shape
    return Field(shape, "unit", _average(f.values, (shape.mt, shape.mx, shape.mx, shape.mx), profile.exponent))


def fine_average_adjoint(psi: Field, profile: AveragingProfile = SHARP) -> Field:
    """Adjoint of :func:`fine_average` for <psi, Q f>_0 = <Q* psi, f>_n.

    With the sharp profile this is the piecewise-constant embedding.
    """
    if psi.level != "unit":
        raise LatticeError("fine_average_adjoint expects a unit-level field")
    shape = psi.shape
    boxes = (shape.mt, shape.mx, shape.mx, shape.mx)
    return Field(shape, "fine", _average_adjoint(psi.values, boxes, shape.fine_extents, profile.exponent))


# ---------------------------------------------------------------------------
# parabolic scaling maps between consecutive scales
# ---------------------------------------------------------------------------

def _amplitude(L: int) -> float:
    return math.sqrt(float(L) ** 3)


def to_next_scale(f: Field) -> Field:
    """Relabel a scale-n field as a scale-(n+1) field, amplitude * L^(3/2).

    coarse(n) -> unit(n+1); fine(n) -> fine(n+1).  Index arrays coincide; the
    map is the amplitude factor plus relabeling.
    """
    shape = f.shape
    nxt = shape.next_scale()
    amp = _amplitude(shape.L)
    if f.level == "coarse":
        return Field(nxt, "unit", amp * f.values)
    if f.level == "fine":
        return Field(nxt, "fine", amp * f.values)
    raise LatticeError("to_next_scale maps coarse or fine fields")


def from_next_scale(f: Field) -> Field:
    """Inverse of :func:`to_next_scale`: unit(n+1) -> coarse(n), fine(n+1) -> fine(n)."""
    shape = f.shape
    if shape.n < 1:
        raise LatticeError("already at scale 0")
    prev = TorusShape(shape.n - 1, shape.L, shape.Nt * shape.L * shape.L, shape.Nx * shape.L)
    amp = 1.0 / _amplitude(shape.L)
    if f.level == "unit":
        return Field(prev, "coarse", amp * f.values)
    if f.level == "fine":
        return Field(prev, "fine", amp * f.values)
    raise LatticeError("from_next_scale maps unit or fine fields")


# ---------------------------------------------------------------------------
# dense matrices for desk-scale oracles
# ---------------------------------------------------------------------------

def operator_matrix(apply_fn, shape: TorusShape, level_in: str, level_out: str, max_sites: int = 4096) -> np.ndarray:
    """Dense matrix of a linear operator by application to basis fields."""
    n_in = shape.sites(level_in)
    n_out = shape.sites(level_out)
    if max(n_in, n_out) > max_sites:
        raise LatticeError(f"dense oracle capped at {max_sites} sites")
    ext = shape.extents(level_in)
    cols = np.empty((n_out, n_in), dtype=complex)
    basis = np.zeros(ext, dtype=complex)
    flat = basis.reshape(-1)
    for j in range(n_in):
        flat[j] = 1.0
        cols[:, j] = apply_fn(Field(shape, level_in, basis)).values.reshape(-1)
        flat[j] = 0.0
    return cols


# ---------------------------------------------------------------------------
# the one-dimensional profile symbol
# ---------------------------------------------------------------------------

def profile_axis_symbol(theta, box_len: int, exponent: int = 1):
    """Fourier transform of the 1d box profile at angle ``theta`` per site.

    Equals sin(box_len*theta/2) / (box_len*sin(theta/2)) raised to the
    exponent, with the removable singularity at theta = 0 (mod 2*pi) handled
    by series expansion below 1e-6.
    """
    th = np.asarray(theta, dtype=float)
    if box_len == 1:
        return np.ones_like(th)
    # reduce to (-pi, pi]; box_len odd keeps the ratio 2*pi periodic with sign +1
    red = np.mod(th + np.pi, 2.0 * np.pi) - np.pi
    small = np.abs(red) < 1e-6
    safe = np.where(small, 1.0, red)
    ratio = np.sin(0.5 * box_len * safe) / (box_len * np.sin(0.5 * safe))
    series = 1.0 - (box_len * box_len - 1.0) * red * red / 24.0
    out = np.where(small, series, ratio)
    return out**exponent

