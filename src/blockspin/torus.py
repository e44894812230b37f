"""Discrete torus geometry, complex lattice fields, inner products, dual lattices
and the fiber layout.

Three lattice levels share one geometry record:

* ``unit``   -- the Nt x Nx^3 torus with spacing 1 on every axis,
* ``fine``   -- the same physical torus refined to spacing L^(-2n) in time
  and L^(-n) in space (Nt*L^(2n) x (Nx*L^n)^3 sites),
* ``coarse`` -- the sublattice of unit points at stride (L^2, L, L, L).

Axis order everywhere is (t, x, y, z), row major.  Inner products are
bilinear (no complex conjugation) with level weights 1, L^(-5n) and L^5.

Fiber layout: fine mode m = j*N + i per axis (N the unit extent) lives in
row i (the unit index, in [0, N)) and column j (the block index) of the
(unit sites, blocks) fiber array of :func:`fiber_split`; its momentum is the
symmetric fine representative of m.

Momenta are passed as four per-axis components that broadcast together
(:func:`fiber_momenta`, :func:`fiber_momenta_at`, :func:`fine_momenta`),
never as a stacked (..., blocks, 4) array: every fiber symbol is a product
or sum of one-dimensional factors, each evaluated once per distinct angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: fields on the fine lattice are kept below this many sites; momentum-space
#: work never materializes fine fields and is not subject to the cap.
FINE_SITE_CAP = 1_200_000

LEVELS = ("unit", "fine", "coarse")


class LatticeError(ValueError):
    """Invalid geometry, level mismatch, or divisibility violation."""


@dataclass(frozen=True)
class TorusShape:
    """Geometry of the unit torus and its fine companion at scale ``n``.

    Parameters
    ----------
    n : scale index (>= 0)
    L : block factor, odd and >= 3
    Nt, Nx : unit-torus extents (sites) in time / per spatial axis
    """

    n: int
    L: int
    Nt: int
    Nx: int

    def __post_init__(self):
        if self.L % 2 == 0 or self.L < 3:
            raise LatticeError(f"block factor L must be odd and >= 3, got {self.L}")
        if self.n < 0:
            raise LatticeError(f"scale index must be nonnegative, got {self.n}")
        if self.Nt < 1 or self.Nx < 1:
            raise LatticeError("extents must be positive")

    # -- integer refinement factors (exact) -----------------------------
    @property
    def mt(self) -> int:
        """Temporal refinement factor L^(2n)."""
        return self.L ** (2 * self.n)

    @property
    def mx(self) -> int:
        """Spatial refinement factor L^n."""
        return self.L**self.n

    @property
    def eps_t(self) -> float:
        return 1.0 / self.mt

    @property
    def eps_x(self) -> float:
        return 1.0 / self.mx

    # -- extents ---------------------------------------------------------
    @property
    def unit_extents(self) -> tuple[int, int, int, int]:
        return (self.Nt, self.Nx, self.Nx, self.Nx)

    @property
    def fine_extents(self) -> tuple[int, int, int, int]:
        return (self.Nt * self.mt, self.Nx * self.mx, self.Nx * self.mx, self.Nx * self.mx)

    @property
    def coarse_extents(self) -> tuple[int, int, int, int]:
        if not self.can_block_step:
            raise LatticeError(
                f"block step needs L^2 | Nt and L | Nx, got Nt={self.Nt}, Nx={self.Nx}, L={self.L}"
            )
        Lsq = self.L * self.L
        return (self.Nt // Lsq, self.Nx // self.L, self.Nx // self.L, self.Nx // self.L)

    @property
    def can_block_step(self) -> bool:
        return self.Nt % (self.L * self.L) == 0 and self.Nx % self.L == 0

    def extents(self, level: str) -> tuple[int, int, int, int]:
        if level == "unit":
            return self.unit_extents
        if level == "fine":
            return self.fine_extents
        if level == "coarse":
            return self.coarse_extents
        raise LatticeError(f"unknown level {level!r}")

    def spacings(self, level: str) -> tuple[float, float, float, float]:
        """Lattice spacing per axis at the given level (physical units)."""
        if level == "unit":
            return (1.0, 1.0, 1.0, 1.0)
        if level == "fine":
            return (self.eps_t, self.eps_x, self.eps_x, self.eps_x)
        if level == "coarse":
            Lf = float(self.L)
            return (Lf * Lf, Lf, Lf, Lf)
        raise LatticeError(f"unknown level {level!r}")

    def sites(self, level: str) -> int:
        return int(np.prod(self.extents(level)))

    def weight(self, level: str) -> float:
        """Bilinear inner-product weight for this level."""
        if level == "unit":
            return 1.0
        if level == "fine":
            return 1.0 / float(self.mt * self.mx**3)
        if level == "coarse":
            return float(self.L**5)
        raise LatticeError(f"unknown level {level!r}")

    def next_scale(self) -> "TorusShape":
        """Shape one block-spin step up: coarse extents become the new unit."""
        ce = self.coarse_extents
        return TorusShape(self.n + 1, self.L, ce[0], ce[1])


def make_shape(n: int, L: int, Nt: int, Nx: int) -> TorusShape:
    """Validated geometry constructor."""
    return TorusShape(n=n, L=L, Nt=Nt, Nx=Nx)


def _symmetric_range(N: int) -> np.ndarray:
    """Mode numbers in the symmetric window (-N/2, N/2]."""
    m = np.arange(N)
    return np.where(m > N // 2, m - N, m)


def dual_modes(shape: TorusShape, level: str) -> np.ndarray:
    """All dual-lattice mode 4-tuples for the level, shape (sites, 4), int.

    Modes are in unit-extent units: radians = 2*pi*mode/unit_extent.  The
    fine level ranges over the refined extents; the coarse level over the
    coarse extents (so its radian cell is (-pi/stride, pi/stride]).
    """
    return fft_mode_grid(shape.extents(level)).reshape(-1, 4)


def radians_for_modes(shape: TorusShape, modes: np.ndarray) -> np.ndarray:
    """Convert integer mode rows (…,4) to radians against unit extents."""
    base = np.asarray(shape.unit_extents, dtype=float)
    return 2.0 * np.pi * np.asarray(modes, dtype=float) / base


@dataclass(frozen=True)
class Field:
    """Complex-valued field on one level of the torus.  Values are frozen."""

    shape: TorusShape
    level: str
    values: np.ndarray

    def __post_init__(self):
        ext = self.shape.extents(self.level)
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != ext:
            raise LatticeError(f"field values shaped {vals.shape}, lattice needs {ext}")
        if self.level == "fine" and vals.size > FINE_SITE_CAP:
            raise LatticeError(f"fine lattice of {vals.size} sites exceeds the desk cap {FINE_SITE_CAP}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def sites(self) -> int:
        return self.values.size

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.shape, self.level, values)

    # -- constructors ----------------------------------------------------
    @classmethod
    def zeros(cls, shape: TorusShape, level: str) -> "Field":
        return cls(shape, level, np.zeros(shape.extents(level), dtype=complex))

    @classmethod
    def constant(cls, shape: TorusShape, level: str, value: complex) -> "Field":
        return cls(shape, level, np.full(shape.extents(level), value, dtype=complex))

    @classmethod
    def random(cls, shape: TorusShape, level: str, rng: np.random.Generator, amplitude: float = 1.0) -> "Field":
        ext = shape.extents(level)
        vals = rng.standard_normal(ext) + 1j * rng.standard_normal(ext)
        return cls(shape, level, amplitude * vals / math.sqrt(2.0))

    @classmethod
    def plane_wave(cls, shape: TorusShape, level: str, modes) -> "Field":
        """exp(i k.x) with k the momentum of the given integer modes."""
        ext = shape.extents(level)
        phases = np.zeros(ext, dtype=float)
        for axis, (m, N) in enumerate(zip(modes, ext)):
            idx = np.arange(N, dtype=float)
            ax_phase = 2.0 * np.pi * m * idx / N
            shape_vec = [1, 1, 1, 1]
            shape_vec[axis] = N
            phases = phases + ax_phase.reshape(shape_vec)
        return cls(shape, level, np.exp(1j * phases))


@dataclass(frozen=True)
class FieldPair:
    """A pair (starred, plain) of independent fields on the same lattice.

    The starred member is *not* constrained to be the complex conjugate of
    the plain one.
    """

    starred: Field
    plain: Field

    def __post_init__(self):
        if self.starred.shape != self.plain.shape or self.starred.level != self.plain.level:
            raise LatticeError("field pair members must share shape and level")

    @property
    def shape(self) -> TorusShape:
        return self.plain.shape

    @property
    def level(self) -> str:
        return self.plain.level

    @classmethod
    def zeros(cls, shape: TorusShape, level: str) -> "FieldPair":
        return cls(Field.zeros(shape, level), Field.zeros(shape, level))

    @classmethod
    def random(cls, shape: TorusShape, level: str, rng: np.random.Generator, amplitude: float = 1.0) -> "FieldPair":
        return cls(
            Field.random(shape, level, rng, amplitude),
            Field.random(shape, level, rng, amplitude),
        )

    @classmethod
    def conjugate_pair(cls, plain: Field) -> "FieldPair":
        """The physical slice: starred = complex conjugate of plain."""
        return cls(plain.with_values(np.conj(plain.values)), plain)

    def scaled(self, factor: complex) -> "FieldPair":
        return FieldPair(
            self.starred.with_values(factor * self.starred.values),
            self.plain.with_values(factor * self.plain.values),
        )


def inner_product(a: Field, b: Field) -> complex:
    """Bilinear pairing sum(a*b) with the level weight (1, L^(-5n), or L^5)."""
    if a.shape != b.shape or a.level != b.level:
        raise LatticeError("inner product needs matching shape and level")
    return a.shape.weight(a.level) * complex(np.sum(a.values * b.values))


# ---------------------------------------------------------------------------
# discrete Fourier transform helpers (coefficient convention)
# ---------------------------------------------------------------------------

def field_modes(f: Field) -> np.ndarray:
    """Mode coefficients c with f(x) = sum_m c_m exp(i k_m . x).

    Returned in numpy FFT index order per axis.
    """
    return np.fft.fftn(f.values) / f.sites


def negate_modes(c: np.ndarray) -> np.ndarray:
    """Coefficients at -m in FFT index order: out[m] = c[-m mod extent].

    The bilinear pairing couples mode m of one field with mode -m of the
    other.
    """
    axes = tuple(range(c.ndim))
    return np.roll(np.flip(c, axis=axes), 1, axis=axes)


def modes_to_field(shape: TorusShape, level: str, coeffs: np.ndarray) -> Field:
    """Inverse of :func:`field_modes`."""
    vals = np.fft.ifftn(coeffs) * coeffs.size
    return Field(shape, level, vals)


def fft_mode_grid(extents: tuple[int, int, int, int]) -> np.ndarray:
    """Integer mode 4-vectors in FFT order, shape extents + (4,).

    Position m on an axis of extent N carries the symmetric representative
    in (-N/2, N/2].
    """
    axes = [_symmetric_range(N) for N in extents]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack(grids, axis=-1)


# ---------------------------------------------------------------------------
# fine-lattice fiber structure over unit momenta
# ---------------------------------------------------------------------------

def fiber_split(coeffs: np.ndarray, shape: TorusShape) -> np.ndarray:
    """Reorganize fine-mode coefficients into unit-momentum fibers.

    Fine mode m decomposes per axis as m = j*N + i with unit index
    i in [0, N) (N the unit extent) and block index j.  Returns an array of
    shape (unit sites, block count) + trailing axes of ``coeffs``: row r is
    row-major over (i_t, i_x, i_y, i_z), column j row-major over
    (j_t, j_x, j_y, j_z).  :func:`fiber_momenta` gives each entry's momentum.
    """
    Nt, Nx, _, _ = shape.unit_extents
    mt, mx = shape.mt, shape.mx
    tail = coeffs.shape[4:]
    a = coeffs.reshape((mt, Nt, mx, Nx, mx, Nx, mx, Nx) + tail)
    a = a.transpose((1, 3, 5, 7, 0, 2, 4, 6) + tuple(range(8, 8 + len(tail))))
    return a.reshape((shape.sites("unit"), mt * mx * mx * mx) + tail)


def fiber_merge(fibers: np.ndarray, shape: TorusShape) -> np.ndarray:
    """Inverse of :func:`fiber_split` (same layout: row = unit index i,
    column = block index j, fine mode j*N + i).  Axes after the first two
    stay trailing axes of the result, as :func:`fiber_split` keeps them."""
    Nt, Nx, _, _ = shape.unit_extents
    mt, mx = shape.mt, shape.mx
    tail = fibers.shape[2:]
    a = fibers.reshape((Nt, Nx, Nx, Nx, mt, mx, mx, mx) + tail)
    a = a.transpose((4, 0, 5, 1, 6, 2, 7, 3) + tuple(range(8, 8 + len(tail))))
    return a.reshape(shape.fine_extents + tail)


def _axis_momenta(shape: TorusShape) -> tuple[np.ndarray, np.ndarray]:
    """Fine momenta in radians of the time axis and of every spatial axis:
    2*pi*m/N over the symmetric fine representatives m in FFT order."""
    return tuple(2.0 * np.pi * _symmetric_range(M) / N for M, N in zip(shape.fine_extents[:2], shape.unit_extents[:2]))


def fine_momenta(shape: TorusShape) -> tuple[np.ndarray, ...]:
    """Fine-mode momenta in radians as four per-axis components.

    Component a holds the symmetric fine representatives of axis a in FFT
    order (2*pi*m/N, N the unit extent) along axis a and extent 1 elsewhere,
    so the four broadcast over the fine mode grid without materializing it.
    """
    t, x = _axis_momenta(shape)
    return t.reshape(-1, 1, 1, 1), x.reshape(1, -1, 1, 1), x.reshape(1, 1, -1, 1), x.reshape(1, 1, 1, -1)


@lru_cache(maxsize=64)
def fiber_momenta(shape: TorusShape) -> tuple[np.ndarray, ...]:
    """Momentum in radians of every fiber entry, as four per-axis components.

    The fine momenta pushed through the split of :func:`fiber_split` axis by
    axis: component a holds the symmetric fine representative of fine mode
    j*N + i (unit index i in [0, N), block index j) at unit axis a and block
    axis a of the (Nt, Nx, Nx, Nx, mt, mx, mx, mx) view, extent 1 elsewhere.
    A symbol evaluated on the components broadcasts to that view, which
    reshapes to the (unit sites, blocks) fiber array at no cost.  The
    components are cached per shape, so they are read-only.
    """
    # contiguous (N, m) tables [i, j], so that symbols broadcast into C order
    t, x = (np.ascontiguousarray(c.reshape(-1, N).T) for c, N in zip(_axis_momenta(shape), shape.unit_extents))
    t.flags.writeable = x.flags.writeable = False
    (Nt, mt), (Nx, mx) = t.shape, x.shape
    return (t.reshape(Nt, 1, 1, 1, mt, 1, 1, 1), x.reshape(1, Nx, 1, 1, 1, mx, 1, 1),
            x.reshape(1, 1, Nx, 1, 1, 1, mx, 1), x.reshape(1, 1, 1, Nx, 1, 1, 1, mx))


def fiber_momenta_at(k, shape: TorusShape) -> tuple[np.ndarray, ...]:
    """The fibers k + :func:`block_momenta` over unit momenta k (..., 4), as
    four per-axis components.

    Component a is k[..., a] plus the block momenta of axis a along block
    axis a of (..., mt, mx, mx, mx); a symbol evaluated on the components
    reshapes to (..., blocks), columns row-major as in :func:`block_momenta`.
    """
    k = np.asarray(k, dtype=float)
    if k.shape[-1:] != (4,):
        raise LatticeError("momenta must have 4 components")
    k = k[..., None, None, None, None, :]
    t, x = (2.0 * np.pi * _symmetric_range(m) for m in (shape.mt, shape.mx))
    return (k[..., 0] + t.reshape(-1, 1, 1, 1), k[..., 1] + x.reshape(-1, 1, 1),
            k[..., 2] + x.reshape(-1, 1), k[..., 3] + x)


def block_momenta(shape: TorusShape) -> np.ndarray:
    """The L^(5n) block momenta in radians (symmetric representatives),
    row-major over block indices."""
    return 2.0 * np.pi * fft_mode_grid((shape.mt, shape.mx, shape.mx, shape.mx)).reshape(-1, 4)
