"""Momentum-space symbol algebra on the unit dual lattice.

Translation-invariant fine-lattice operators act diagonally on fine momenta
p = k + l, where k is a unit-lattice momentum and l runs over the L^(5n)
block momenta.  Box averaging couples each fiber through the rank-one matrix
u u^T built from the averaging-profile transform u(p), so composite unit
symbols reduce to finite fiber sums plus rank-one (or 2x2 Woodbury)
inversions.  Two batched kernels do all of that algebra for the package:

* :func:`fiber_resolvent` -- diag(a) + u u^T per fiber row (the zero-field
  symbol, the linear background solve),
* :func:`well_resolvent` -- blockdiag(D) + (u x I)(u x I)^T with 2x2 blocks D
  (the well symbol and the linearized well solve).

The quadratic block-spin step (:func:`blockspin.flow.block_spin_step`)
contracts the rank-one factor of the first on the grid as it lies, or per
distinct value of a time-plus-space symbol's space part.  All three follow
one pole rule: a row may hold at most one zero of its diagonal
(|a_j|, or |det D_j|, below the smallest normal float, where the reciprocal
overflows), and that entry must carry live averaging weight; the row is then
solved in closed form (its scalar factor is 0).  Any other vanishing pattern
raises :class:`NumericalError` naming the row.  Dense fiber inversion is
kept as the oracle.

The elementary symbols (:func:`averaging_symbol`, :func:`heat_symbol`,
:func:`well_matrix`) read their momenta one component at a time, in the
per-axis format of :mod:`blockspin.torus` or from a (..., 4) array.  The
dense oracles evaluate pointwise on the (blocks, 4) array k +
:func:`blockspin.torus.block_momenta`.

The batched symbols (:func:`zero_field_symbol`, :func:`well_symbol`) run
their kernel once per orbit of the momenta they are given
(:func:`blockspin.torus.momentum_orbits`): momenta with the same spatial
components up to signs and order, and the same time component up to its
sign.  This is exact up to round-off: the elementary symbols are even in
each spatial component and symmetric under permuting the spatial axes, and
with L odd the block momenta are closed under negation and the same on
every spatial axis, so cube-orbit mates have the same fiber entries in
another order.  Negating k0 conjugates the zero-field symbol at real mu and
d (complex mu or d keeps k0's sign in the key) and negates the well
symbol's off-diagonals at every mu.  The 625 momenta of a
:func:`small_k_fit` stencil are 50 cube orbits and 30 orbits.

Two time-derivative modes are supported:

* ``discrete``  -- honest lattice difference symbols,
* ``continuum`` -- the continuum pretend: -i*d*k0 off a quadratic spatial
  part for the scalar heat symbol, and real +/- d*k0 off-diagonals for the
  2x2 well operator.

For the 2x2 well operator the discrete mode uses the *symmetrized*
difference symbols d*sin(eps*k0)/eps off-diagonal and an extra
(2d/eps)*sin^2(eps*k0/2) on the diagonal: that is the exact quadratic kernel
of the discrete action expanded around the well, and it reduces to the
continuum form as eps -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice_ops import SHARP, AveragingProfile, profile_axis_symbol
from .torus import (LatticeError, TorusShape, block_momenta, fiber_momenta, fiber_momenta_at, make_shape,
                    momentum_orbits)

__all__ = [
    "NumericalError",
    "averaging_symbol",
    "heat_symbol",
    "commutator_average_norm",
    "fiber_resolvent",
    "well_resolvent",
    "zero_field_symbol",
    "zero_field_symbol_dense",
    "delta_identity_check",
    "well_matrix",
    "well_symbol",
    "well_fiber_dense",
    "SmallKFit",
    "small_k_fit",
    "fit_window_momenta",
    "classify_regime",
    "momentum_bound_report",
]

MODES = ("discrete", "continuum")


class NumericalError(RuntimeError):
    """Singular resolvent, degenerate fiber, or failed iteration.

    A fiber kernel's error also names the singular ``row`` (an index tuple)
    and ``why`` it is singular; both are None on other errors.
    """

    def __init__(self, message: str, row: tuple[int, ...] | None = None, why: str | None = None):
        super().__init__(message)
        self.row, self.why = row, why


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise LatticeError(f"mode must be one of {MODES}, got {mode!r}")


def _check_couplings(mu, d) -> None:
    """Raise :class:`LatticeError` unless mu and d are finite; complex values are allowed."""
    for name, value in (("mu", mu), ("d", d)):
        if not np.isfinite(value):
            raise LatticeError(f"{name} must be finite, got {value}")


def _as_k_array(k) -> np.ndarray:
    arr = np.asarray(k, dtype=float)
    if arr.shape[-1:] != (4,):
        raise LatticeError("momenta must have 4 components")
    return arr


def _components(p) -> tuple[np.ndarray, ...]:
    """The four momentum components of p: a tuple of four arrays that
    broadcast together (the format of :func:`blockspin.torus.fiber_momenta`),
    or the last axis of a (..., 4) array."""
    if not isinstance(p, tuple):
        arr = _as_k_array(p)
        return tuple(arr[..., axis] for axis in range(4))
    if len(p) != 4:
        raise LatticeError(f"momenta must have 4 components, got {len(p)}")
    comps = tuple(np.asarray(c, dtype=float) for c in p)
    try:
        np.broadcast(*comps)
    except ValueError as exc:
        raise LatticeError(f"momentum components do not broadcast together: {exc}") from None
    return comps


# ---------------------------------------------------------------------------
# elementary symbols
# ---------------------------------------------------------------------------

def averaging_symbol(p, shape: TorusShape, profile: AveragingProfile = SHARP):
    """Fourier transform of the fine box-averaging kernel at momentum p.

    Product over axes of sin(p/2) / ((1/eps) sin(eps*p/2)) raised to the
    profile exponent; removable singularities handled by series expansion.
    p is four per-axis components or a (..., 4) array.
    """
    p = _components(p)
    # the three spatial axes share a box length: one profile call on their angles
    angles = [shape.eps_x * p[axis] for axis in (1, 2, 3)]
    ends = np.cumsum([a.size for a in angles])
    flat = profile_axis_symbol(np.concatenate([a.ravel() for a in angles]), shape.mx, profile.exponent)
    q1, q2, q3 = (flat[end - a.size:end].reshape(a.shape) for a, end in zip(angles, ends))
    return q1 * q2 * q3 * profile_axis_symbol(shape.eps_t * p[0], shape.mt, profile.exponent)


def _spatial_stencil(p: tuple[np.ndarray, ...], eps_x: float) -> np.ndarray:
    return sum((2.0 - 2.0 * np.cos(eps_x * p[i])) / (eps_x * eps_x) for i in (1, 2, 3))


def heat_symbol(p, shape: TorusShape, d: float = 1.0, mode: str = "discrete"):
    """Symbol of -d * (forward time difference) - Laplacian on the fine lattice.

    In continuum mode the result is -i*d*p0 + |pvec|^2.  At real momenta the
    bilinear transpose (+d * backward difference - Laplacian) has the complex
    conjugate symbol.  p is four per-axis components or a (..., 4) array.
    """
    _check_mode(mode)
    p = _components(p)
    if mode == "continuum":
        return -1j * d * p[0] + (p[1] ** 2 + p[2] ** 2 + p[3] ** 2)
    et = shape.eps_t
    return -d * (np.exp(1j * et * p[0]) - 1.0) / et + _spatial_stencil(p, shape.eps_x)


def commutator_average_norm(shape: TorusShape, axis: int, profile: AveragingProfile = SHARP) -> float:
    """Momentum-grid estimate of the operator norm of [d_axis, block_average].

    The forward difference on the coarse lattice uses the block stride as its
    spacing.  Per coarse momentum the operator acts on the block fiber by the
    row vector c(k) = qhat(k) * (stride-difference symbol - unit-difference
    symbol); the reported norm is the max over coarse momenta of the fiber
    row norm.  The unit torus is the fine lattice of the one-step shape over
    the coarse torus, so qhat is :func:`averaging_symbol` over that shape's
    :func:`blockspin.torus.fiber_momenta`, as in the block-spin step.
    """
    ce = shape.coarse_extents  # validates divisibility
    step = make_shape(1, shape.L, ce[0], ce[1])
    p = fiber_momenta(step)
    stride = (shape.L * shape.L, shape.L, shape.L, shape.L)[axis]
    ka = step.spacings("fine")[axis] * p[axis]  # radians per unit site
    diff = (np.exp(1j * ka * stride) - 1.0) / stride - (np.exp(1j * ka) - 1.0)
    c = averaging_symbol(p, step, profile) * diff
    return float(np.sqrt(np.max(np.sum(np.abs(c.reshape(step.sites("unit"), -1)) ** 2, axis=1))))


# ---------------------------------------------------------------------------
# the two fiber kernels
# ---------------------------------------------------------------------------

#: averaging weights at or below this are dead (the entry decouples)
_DEAD_WEIGHT = 1e-12
#: a rank-one (or 2x2) factor this close to singular is a spectrum hit
_SINGULAR = 1e-12
#: diagonal entries (or 2x2 determinants) below this are poles: 1/x overflows
_POLE = np.finfo(float).tiny


def _adj2(M: np.ndarray) -> np.ndarray:
    """Adjugate of 2x2 blocks, so inv(M) = adj(M) / det(M); linear in M."""
    out = np.empty_like(M)
    out[..., 0, 0] = M[..., 1, 1]
    out[..., 1, 1] = M[..., 0, 0]
    out[..., 0, 1] = -M[..., 0, 1]
    out[..., 1, 0] = -M[..., 1, 0]
    return out


def _inv2(M: np.ndarray) -> np.ndarray:
    return _adj2(M) / _det2(M)[..., None, None]


def _det2(M: np.ndarray) -> np.ndarray:
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


def _singular_row(row: tuple[int, ...], why: str) -> NumericalError:
    return NumericalError(f"fiber row {row} singular: {why}", row, why)


def _raise_at(bad: np.ndarray, why: str) -> None:
    """Raise naming the first flagged row by its flat index over the row axes."""
    if np.any(bad):
        raise _singular_row((int(np.flatnonzero(bad)[0]),), why)


def _pole_rows(diag: np.ndarray, weight, axes=-1):
    """The pole rule on the fiber rows of ``diag``, whose entries run along
    its block ``axes`` (the other axes are the rows).

    An entry is a pole when |diag| is below _POLE, where its reciprocal
    overflows.  A row may hold one pole, and only where the averaging weight
    is live (|u| above _DEAD_WEIGHT); any other pattern raises naming the
    row.  ``weight()`` returns u, broadcasting against ``diag``; it runs only
    when some entry is a pole.  Returns (pole, has), the pole entries and the
    rows holding one, or (None, None) when no entry is a pole.
    """
    pole = np.abs(diag) < _POLE
    if not pole.any():
        return None, None
    count = pole.sum(axis=axes)
    _raise_at((count > 1) | (pole & (np.abs(weight()) <= _DEAD_WEIGHT)).any(axis=axes),
              "more than one pole, or a pole without averaging weight")
    return pole, count == 1


def _resummed(one_s: np.ndarray, has: np.ndarray | None) -> np.ndarray:
    """sigma = 1 / one_s per row, the rank-one factor, and 0 on the rows
    ``has`` holding a pole (None: no row does); raises where one_s vanishes
    off them."""
    off = True if has is None else ~has
    _raise_at((np.abs(one_s) < _SINGULAR) & off, "the resummation factor vanishes")
    return np.divide(1.0, one_s, out=np.zeros_like(one_s), where=off)


def fiber_resolvent(a: np.ndarray, u: np.ndarray, rhs: np.ndarray | None = None):
    """Batched resolvent of diag(a) + u u^T on every fiber row (last axis).

    Returns sigma = (1 + sum_l u_l^2 / a_l)^(-1) per row, the rank-one
    (Sherman-Morrison) factor; with ``rhs`` returns (sigma, x) where x solves
    (diag(a) + u u^T) x = rhs.  A pole row (a_j = 0 under the pole rule,
    with live u_j) has sigma = 0, u.x = rhs_j / u_j, x_l = (rhs_l - u_l u.x)
    / a_l off the pole and x_j = (u.x - sum_{l != j} u_l x_l) / u_j.  When
    no entry is a pole the per-entry pole bookkeeping is skipped; the values
    are the same.  1-D ``a``, ``u`` (and ``rhs``) are one row, solved as a
    batch of one.  Errors name the row by its flat index over the batch
    axes; a caller that streams its rows in slabs re-bases them
    (:func:`_row_batches`).
    """
    if a.ndim == 1:
        out = fiber_resolvent(a[None], u[None], None if rhs is None else rhs[None])
        return out[0] if rhs is None else (out[0][0], out[1][0])
    pole, has = _pole_rows(a, lambda: u)
    if pole is None:
        inv_a = np.divide(1.0, a, dtype=complex)
    else:
        inv_a = np.divide(1.0, a, out=np.zeros(a.shape, dtype=complex), where=~pole)
    sigma = _resummed(1.0 + np.einsum("...j,...j->...", u * u, inv_a), has)
    if rhs is None:
        return sigma
    ux = sigma * np.einsum("...j,...j->...", u * rhs, inv_a)
    if pole is not None:
        ux[has] = rhs[pole] / u[pole]
    x = (rhs - u * ux[..., None]) * inv_a
    if pole is not None:
        x[pole] = (ux - np.einsum("...j,...j->...", u, x))[has] / u[pole]
    return sigma, x


def well_resolvent(D: np.ndarray, u: np.ndarray, w: np.ndarray | None = None):
    """Batched 2x2 Woodbury resolvent of blockdiag(D) + (u x I)(u x I)^T.

    D is (..., B, 2, 2), u is (..., B).  Returns W = (I + R)^(-1) with
    R = sum_l u_l^2 D_l^(-1) over the non-pole entries; on a row with one
    pole j (det D_j = 0) W = (D_j + u_j^2 I + D_j R)^(-1) D_j, the limit of
    the same expression.  With ``w`` (..., 2) returns (W, c), c (..., B, 2)
    solving (blockdiag(D) + (u x I)(u x I)^T) c = (u x I) w: with y = W w,
    c_l = u_l D_l^(-1) y off the pole and c_j = (w - (I + R) y) / u_j on it.
    """
    det = _det2(D)
    pole, has = _pole_rows(det, lambda: u)
    if pole is None:
        g = u / det  # u_l / det D_l
    else:
        g = np.divide(u, det, out=np.zeros(det.shape, dtype=complex), where=~pole)
    R = _adj2(np.einsum("...j,...jab->...ab", u * g, D))  # sum u_l^2 adj(D_l) / det D_l
    M = np.eye(2) + R
    if pole is not None:  # on a pole row M = D_j + u_j^2 I + D_j R, and W = M^(-1) D_j
        Dj = D[pole]  # the pole entry of each row in has, in row order
        M[has] = Dj + (u[pole] ** 2)[:, None, None] * np.eye(2) + Dj @ R[has]
    # |det M| this far below |M|^2 leaves the closed-form inverse as round-off
    scale = np.max(np.abs(M), axis=(-2, -1)) ** 2
    _raise_at(np.abs(_det2(M)) < _SINGULAR * np.maximum(scale, 1.0), "the resummation factor vanishes")
    W = _inv2(M)
    if pole is not None:
        W[has] = W[has] @ Dj
    if w is None:
        return W
    y = np.einsum("...ab,...b->...a", W, w)
    c = g[..., None] * np.einsum("...jab,...b->...ja", _adj2(D), y)
    if pole is not None:
        c[pole] = (w - y - np.einsum("...ab,...b->...a", R, y))[has] / u[pole][:, None]
    return W, c


# ---------------------------------------------------------------------------
# scalar composite: the zero-field effective quadratic symbol
# ---------------------------------------------------------------------------

#: fiber entries per batch of rows: the temporaries stay at a few MB
_BATCH_ENTRIES = 1 << 14


def _row_batches(count: int, row_entries: int, rows, name=lambda flat: (flat,)) -> np.ndarray:
    """rows(s) over consecutive slices s of range(count), stacked along axis 0.

    Each slice holds max(1, _BATCH_ENTRIES // row_entries) items of
    ``row_entries`` fiber entries each, and the slices run in order on the
    caller's thread.  rows(s) returns one result per fiber row of the kernel
    it runs, so a :class:`NumericalError` naming row (r,) of a batch is
    re-raised naming the caller's row ``name(flat)``, with flat the rows
    stacked before the batch plus r.
    """
    step = max(1, _BATCH_ENTRIES // row_entries)
    parts, done = [], 0
    try:
        for start in range(0, max(count, 1), step):
            parts.append(rows(slice(start, start + step)))
            done += len(parts[-1])
    except NumericalError as exc:
        if exc.row is None:
            raise
        raise _singular_row(name(done + exc.row[0]), exc.why) from None
    return np.concatenate(parts)


def _in_batches(k, shape: TorusShape, rows, reflect=None):
    """rows(kb) over batches kb (n, 4) of the first momentum of each orbit
    (:func:`blockspin.torus.momentum_orbits`) of the momenta k (..., 4), in
    the order of k, scattered back to k's shape.

    The orbits are cube orbits, and with a ``reflect`` map also fold
    k0 -> -k0: a mate whose k0 has the opposite sign to its
    representative's gets reflect(value).  Exact up to round-off: the kernel
    inputs are even in each spatial component and symmetric under permuting
    the spatial axes, and the block momenta (L odd) are closed under
    negation and the same on every spatial axis, so cube-orbit mates hold
    the same fiber entries in another order; ``reflect`` must map a row's
    value to the value with k0 negated.  A :class:`NumericalError` names the
    representative's index in k, the first index in k of a singular orbit;
    a non-finite momentum raises :class:`LatticeError` naming the first.
    """
    k = _as_k_array(k)
    flat = k.reshape(-1, 4)
    index_shape = k.shape[:-1] or (1,)

    def name(flat_index):
        return tuple(int(i) for i in np.unravel_index(flat_index, index_shape))

    finite = np.isfinite(flat)
    if not finite.all():
        first_bad = int(np.argmin(finite.all(axis=1)))
        raise LatticeError(f"momentum {name(first_bad)} is not finite: {flat[first_bad]}")
    first, inverse, flipped = momentum_orbits(flat, reflect is not None)
    reps = flat[first]
    out = _row_batches(len(reps), shape.mt * shape.mx**3, lambda s: rows(reps[s]), lambda r: name(first[r]))[inverse]
    if flipped.any():
        out[flipped] = reflect(out[flipped])
    return out.reshape(k.shape[:-1] + out.shape[1:])


def _fiber_terms(p, mu, d, shape, mode, profile):
    """Fiber arrays (a, u) at momenta p: a = heat(p) - mu, u the averaging FT."""
    return heat_symbol(p, shape, d, mode) - mu, averaging_symbol(p, shape, profile)


def zero_field_symbol(k, mu, d, shape: TorusShape, mode: str = "discrete", profile: AveragingProfile = SHARP):
    """Unit-lattice symbol of the quadratic kernel around zero field.

    Equals 1/(1 + S) with the fiber sum S(k) = sum_l u(k+l)^2 / (heat - mu),
    the rank-one (Sherman-Morrison) reduction of the fiber inverse, computed
    by :func:`fiber_resolvent`.  Where exactly one fiber entry of (heat - mu)
    vanishes with nonzero averaging weight the limit value 0 is exact; any
    other vanishing combination means the subtraction point sits in the
    operator's spectrum and raises :class:`NumericalError`.  The kernel runs
    once per orbit of k (see :func:`_in_batches`): orbit mates get the value
    of the orbit's first momentum, conjugated where their k0 has the other
    sign, which differs from their own only at round-off.  The orbits fold
    k0 -> -k0 only for real mu and d: then heat(-p0, pvec) is the conjugate
    of heat(p0, pvec), u is even in p0, and Z(-k0) = conj Z(k0).  Complex mu
    or d runs one row per cube orbit.
    """
    _check_couplings(mu, d)

    def rows(kb):
        a, u = _fiber_terms(fiber_momenta_at(kb, shape), mu, d, shape, mode, profile)
        fibers = (len(kb), shape.mt * shape.mx**3)
        return fiber_resolvent(a.reshape(fibers), u.reshape(fibers))

    sigma = _in_batches(k, shape, rows, np.conj if np.isreal(mu) and np.isreal(d) else None)
    return sigma if sigma.ndim else complex(sigma)


#: the largest coupled fiber the dense oracles invert: zero-field, and well (2x2 blocks)
_DENSE_FIBER_CAP = 2500
_WELL_FIBER_CAP = 1500


def zero_field_symbol_dense(k, mu, d, shape: TorusShape, mode: str = "discrete", profile: AveragingProfile = SHARP):
    """Oracle: the same symbol via dense inversion of the coupled sub-fiber.

    Fiber indices with (numerically) vanishing averaging weight decouple from
    the rank-one part exactly; the remaining block diag(a) + u u^T is
    inverted densely.  Single momenta only; evaluated pointwise on the
    (blocks, 4) momenta k + :func:`blockspin.torus.block_momenta`.
    """
    a, u = _fiber_terms(np.asarray(k, float).reshape(4) + block_momenta(shape), mu, d, shape, mode, profile)
    coupled = np.abs(u) > _DEAD_WEIGHT
    ac, uc = a[coupled], u[coupled]
    if ac.size > _DENSE_FIBER_CAP:
        raise LatticeError(f"coupled fiber of size {ac.size} exceeds the dense-oracle cap {_DENSE_FIBER_CAP}")
    M = np.diag(ac) + np.outer(uc, uc)
    x = np.linalg.solve(M, uc)
    return complex(1.0 - uc @ x)


def delta_identity_check(k, shape: TorusShape, d: float = 1.0, mode: str = "discrete",
                         profile: AveragingProfile = SHARP):
    """Cross-check of the averaged-resolvent factorization at mu = 0.

    lhs: dense coupled-fiber value of the averaged resolvent symbol.
    rhs: (fiber sum A) * (1 + A)^(-1), the product of the averaged inverse
    heat symbol with the resummation factor.
    Returns (lhs, rhs, |lhs - rhs|).  k = 0 is excluded (the heat symbol
    vanishes there).
    """
    kk = np.asarray(k, dtype=float).reshape(4)
    a, u = _fiber_terms(kk + block_momenta(shape), 0.0, d, shape, mode, profile)
    if np.any(a == 0.0):
        raise NumericalError("excluded point: the heat symbol vanishes somewhere on this fiber (k = 0)")
    A = complex(np.sum(u * u / a))
    rhs = A / (1.0 + A)
    lhs = 1.0 - zero_field_symbol_dense(kk, 0.0, d, shape, mode, profile)
    return lhs, rhs, abs(lhs - rhs)


# ---------------------------------------------------------------------------
# 2x2 well operator
# ---------------------------------------------------------------------------

def well_matrix(p, mu, d, shape: TorusShape, mode: str = "discrete"):
    """2x2 symbol coupling radial/tangential components around the well.

    continuum: [[2mu + |pvec|^2, d*p0], [-d*p0, |pvec|^2]].
    discrete: spatial stencil plus the symmetrized time-difference symbols.
    p is four per-axis components or a (..., 4) array; shape (..., 2, 2)
    with ... the broadcast shape of the components.
    """
    _check_mode(mode)
    p = _components(p)
    out = np.zeros(np.broadcast(*p).shape + (2, 2), dtype=complex)
    if mode == "continuum":
        sp = p[1] ** 2 + p[2] ** 2 + p[3] ** 2
        off = d * p[0]
        extra = 0.0
    else:
        et = shape.eps_t
        sp = _spatial_stencil(p, shape.eps_x)
        off = d * np.sin(et * p[0]) / et
        extra = (2.0 * d / et) * np.sin(0.5 * et * p[0]) ** 2
    out[..., 0, 0] = 2.0 * mu + sp + extra
    out[..., 0, 1] = off
    out[..., 1, 0] = -off
    out[..., 1, 1] = sp + extra
    return out


def well_symbol(k, mu, d, shape: TorusShape, mode: str = "discrete",
                profile: AveragingProfile = SHARP):
    """Unit-lattice 2x2 symbol of the effective quadratic kernel around the well.

    Equals (I + B(k))^(-1), B(k) = sum_l u(k+l)^2 * wellmatrix(k+l)^(-1); by
    the Woodbury identity this is simultaneously the resummation factor of
    the averaged well-operator inverse.  Works for single momenta or batches
    (..., 4); returns (..., 2, 2).  The vanishing of the bare well matrix at
    p = 0 is absorbed by the reformulation
    (I + u0^2 D^-1 + R)^(-1) = (D + u0^2 I + D R)^(-1) D.  As for
    :func:`zero_field_symbol`, the kernel runs once per orbit of k, folding
    k0 -> -k0 for every mu and d: the well matrix depends on the spatial
    momentum only through the even, axis-symmetric spatial stencil, and its
    off-diagonals are odd in p0 and its diagonal even, so with
    P = diag(1, -1) wellmatrix(-p0) = P wellmatrix(p0) P and
    W(-k0) = P W(k0) P: the mates with the other sign of k0 get W with its
    off-diagonals negated.
    """
    _check_couplings(mu, d)

    def rows(kb):
        p = fiber_momenta_at(kb, shape)
        u = averaging_symbol(p, shape, profile).reshape(len(kb), shape.mt * shape.mx**3)
        return well_resolvent(well_matrix(p, mu, d, shape, mode).reshape(u.shape + (2, 2)), u)

    return _in_batches(k, shape, rows, lambda W: W * [[1.0, -1.0], [-1.0, 1.0]])


def well_fiber_dense(k, mu, d, shape: TorusShape, mode: str = "discrete", profile: AveragingProfile = SHARP):
    """Oracle: dense coupled-fiber matrix of the full well operator and its
    averaged inverse.

    Returns (fiber matrix, 2x2 averaged-inverse symbol I - Q box^-1 Q*).
    Evaluated pointwise on the (blocks, 4) momenta k + block momenta.
    """
    p = np.asarray(k, dtype=float).reshape(4) + block_momenta(shape)
    u = averaging_symbol(p, shape, profile)
    D = well_matrix(p, mu, d, shape, mode)
    coupled = np.abs(u) > _DEAD_WEIGHT
    uc = u[coupled]
    Dc = D[coupled]
    B = uc.size
    if B > _WELL_FIBER_CAP:
        raise LatticeError(f"coupled fiber of size {B} exceeds the dense-oracle cap {_WELL_FIBER_CAP}")
    M = np.zeros((2 * B, 2 * B), dtype=complex)
    for i in range(B):
        M[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = Dc[i]
    U = np.zeros((2 * B, 2), dtype=complex)
    U[0::2, 0] = uc
    U[1::2, 1] = uc
    M += U @ U.T
    X = np.linalg.solve(M, U)
    return M, np.eye(2) - U.T @ X


# ---------------------------------------------------------------------------
# small-momentum fits and regime classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmallKFit:
    """Least-squares fit of a symbol over {1, -i*k0, k0^2, |kvec|^2}."""

    mass: complex
    first_order_time: complex
    second_order_time: complex
    spatial: complex
    residual: float
    window: float
    samples: int


def fit_window_momenta(window: float) -> np.ndarray:
    """Symmetric sample stencil, (625, 4): every 4-tuple of per-axis
    components in {0, +-w/2, +-w}, k = 0 included."""
    if not np.isfinite(window):
        raise LatticeError(f"fit window must be finite, got {window}")
    vals = np.array([-window, -window / 2, 0.0, window / 2, window])
    return vals[np.indices((5, 5, 5, 5)).reshape(4, -1).T]


def small_k_fit(symbol, window: float) -> SmallKFit:
    """Fit symbol(k) = mass + c1*(-i*k0) + c2*k0^2 + c3*|kvec|^2 in the window,
    at the momenta of :func:`fit_window_momenta`.

    ``symbol`` is a callable taking momenta (..., 4) and returning complex
    values.  Halving the window must shrink the residual for a symbol with a
    genuine small-momentum expansion.
    """
    momenta = fit_window_momenta(window)
    y = np.asarray(symbol(momenta), dtype=complex).reshape(-1)
    k0 = momenta[:, 0]
    ksq = np.sum(momenta[:, 1:] ** 2, axis=1)
    X = np.stack([np.ones_like(k0), -1j * k0, k0**2 + 0j, ksq + 0j], axis=1)
    if X.shape[0] < X.shape[1]:
        raise LatticeError("fit needs at least as many momenta as basis functions")
    coeffs, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise NumericalError("rank-deficient small-momentum fit")
    resid = float(np.sqrt(np.mean(np.abs(X @ coeffs - y) ** 2)))
    return SmallKFit(
        mass=complex(coeffs[0]),
        first_order_time=complex(coeffs[1]),
        second_order_time=complex(coeffs[2]),
        spatial=complex(coeffs[3]),
        residual=resid,
        window=float(window),
        samples=len(y),
    )


def classify_regime(fit: SmallKFit) -> str:
    """Label a fit parabolic, elliptic, or transitional.

    At the window scale w the basis terms weigh |c1|*w (first-order time),
    |c2|*w^2 (second-order time), |c3|*w^2 (space) and |mass|.  First-order
    time more than 3 times second-order time plus mass, with the mass at
    most 0.2 of the larger of the first-order time and space terms, is
    parabolic; second-order time plus mass more than 3 times first-order
    time is elliptic; anything else is transitional.
    """
    w = fit.window
    t1 = abs(fit.first_order_time) * w
    t2 = abs(fit.second_order_time) * w * w
    t3 = abs(fit.spatial) * w * w
    tm = abs(fit.mass)
    scale = max(t1, t2, t3, tm)
    if scale == 0.0:
        return "transitional"
    if t1 > 3.0 * (t2 + tm) and tm <= 0.2 * max(t1, t3):
        return "parabolic"
    if (t2 + tm) > 3.0 * t1:
        return "elliptic"
    return "transitional"


# ---------------------------------------------------------------------------
# envelope report for the 2x2 matrix bounds
# ---------------------------------------------------------------------------

def _entry_ratios(values: np.ndarray, envelope: np.ndarray) -> float:
    return float(np.max(np.abs(values) / envelope))


def _envelope(e00, e01, e10, e11) -> np.ndarray:
    """(n, 2, 2) envelope from its four entries: arrays over n momenta, or scalars (n = 1)."""
    return np.stack(np.broadcast_arrays(e00, e01, e10, e11), axis=-1).reshape(-1, 2, 2)


def momentum_bound_report(shape: TorusShape, mu: float, d: float, mode: str = "discrete",
                          profile: AveragingProfile = SHARP, rng: np.random.Generator | None = None) -> dict:
    """Max entrywise ratios of the 2x2 matrix symbols against their expected
    (d, mu, |k|) scaling envelopes.

    The small momenta k are 32 fixed points (a, b, b/2, 0) and (a, 0, b, b)
    with a, b in {0.05, 0.1, 0.2, 0.4}; l runs over 6 nonzero block momenta
    drawn with ``rng``.

    Parts:
      a: inverse well matrix at momenta bounded away from zero vs
         [[d^-2, d^-1], [d^-1, 1]];
      b: wellmatrix(k+l)^-1 wellmatrix(k) for l != 0 vs
         [[mu/d^2 + |k|, |k|/d], [mu/d + d|k|, |k|]];
      c: resummation factor vs [[mu/d^2 + |k|^2, |k|/d], [|k|/d, |k|^2]];
      d: wellmatrix(k+l)^-1 * resummation vs
         [[mu/d^4 + |k|/d^2, |k|/d^3 + |k|^2/d], [mu/d^3 + |k|/d, |k|/d^2 + |k|^2]].
    Parts b and d share one inverse per sampled block momentum l.
    Returns {"a": ..., "b": ..., "c": ..., "d": ...}, each a finite float.
    """
    rng = rng or np.random.default_rng(0)
    base = np.array([0.05, 0.1, 0.2, 0.4])
    pts = []
    for a0 in base:
        for a1 in base:
            pts.append([a0, a1, a1 / 2, 0.0])
            pts.append([a0, 0.0, a1, a1])
    kgrid = np.asarray(pts)
    knorm = np.linalg.norm(kgrid, axis=1)

    ell_all = block_momenta(shape)
    nonzero = np.nonzero(np.any(ell_all != 0.0, axis=1))[0]
    pick = rng.choice(nonzero, size=min(6, len(nonzero)), replace=False)
    ells = ell_all[pick]

    # part a: momenta bounded away from zero
    pa = rng.uniform(-np.pi, np.pi, size=(200, 4))
    pa = pa[np.linalg.norm(pa, axis=1) >= 1.0]
    ratio_a = _entry_ratios(_inv2(well_matrix(pa, mu, d, shape, mode)), _envelope(d**-2, d**-1, d**-1, 1.0))

    Dk = well_matrix(kgrid, mu, d, shape, mode)
    fb = well_symbol(kgrid, mu, d, shape, mode, profile)
    env_b = _envelope(mu / d**2 + knorm, knorm / d, mu / d + d * knorm, knorm)
    env_c = _envelope(mu / d**2 + knorm**2, knorm / d, knorm / d, knorm**2)
    env_d = _envelope(mu / d**4 + knorm / d**2, knorm / d**3 + knorm**2 / d, mu / d**3 + knorm / d,
                      knorm / d**2 + knorm**2)
    ratio_b = ratio_d = 0.0
    for ell in ells:
        Dkl_inv = _inv2(well_matrix(kgrid + ell[None, :], mu, d, shape, mode))
        ratio_b = max(ratio_b, _entry_ratios(Dkl_inv @ Dk, env_b))
        ratio_d = max(ratio_d, _entry_ratios(Dkl_inv @ fb, env_d))
    return {"a": ratio_a, "b": ratio_b, "c": _entry_ratios(fb, env_c), "d": ratio_d}
