"""Tree-weighted kernel norms on the discrete torus.

A kernel is a sparse multi-argument map on torus sites.  Its weighted
L1-Linf norm pins one argument, sums the absolute entries over the others,
and weights each entry by exp(m * tau) where tau is the minimal Steiner-tree
length connecting the entry's argument sites in the periodic lattice graph
(nearest-neighbor edges of length 1 on every axis).

Steiner lengths are exact, by Dreyfus-Wagner dynamic programming over
terminal subsets.  One relaxation serves the whole dynamic program: the per-axis
min-plus pass that extends a table of partial trees by one shortest path
also gives each terminal's distance table, from a seed that is 0 at the
terminal and unreached elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kernel",
    "torus_distance",
    "steiner_tree_length",
    "kernel_norm",
    "KernelFormatError",
]

STEINER_TERMINAL_CAP = 6

Site = tuple[int, int, int, int]


class KernelFormatError(ValueError):
    pass


def _normalize_site(site, extents) -> Site:
    if len(site) != len(extents):
        raise KernelFormatError(f"site {site} does not match extents {extents}")
    return tuple(int(c) % int(e) for c, e in zip(site, extents))


@dataclass(frozen=True)
class Kernel:
    """Sparse multi-argument kernel with finite support on a torus.

    entries maps tuples of ``arity`` sites (each a 4-tuple) to complex values;
    sites are reduced mod ``extents`` and the values of equal keys summed.
    """

    arity: int
    extents: tuple[int, int, int, int]
    entries: dict

    def __post_init__(self):
        if self.arity < 1:
            raise KernelFormatError("arity must be >= 1")
        norm_entries = {}
        for key, val in self.entries.items():
            if len(key) != self.arity:
                raise KernelFormatError(f"entry {key} has {len(key)} arguments, expected {self.arity}")
            nkey = tuple(_normalize_site(site, self.extents) for site in key)
            norm_entries[nkey] = norm_entries.get(nkey, 0.0) + complex(val)
        object.__setattr__(self, "entries", norm_entries)


# ---------------------------------------------------------------------------
# torus graph metric and Steiner lengths
# ---------------------------------------------------------------------------

def torus_distance(a, b, extents) -> int:
    """Graph distance on the periodic lattice: per-axis wrapped L1."""
    total = 0
    for ca, cb, N in zip(a, b, extents):
        d = abs(int(ca) - int(cb)) % int(N)
        total += min(d, int(N) - d)
    return total


def _min_plus(seed: np.ndarray, extents) -> np.ndarray:
    """relax[v] = min_u seed[u] + dist(u, v), computed axis by axis.

    The torus metric is a sum of per-axis wrapped distances, so the full
    relaxation factorizes into four one-dimensional min-plus passes.
    """
    dims = tuple(int(N) for N in extents)
    arr = seed.reshape(dims)
    for axis, N in enumerate(dims):
        d = np.abs(np.arange(N)[:, None] - np.arange(N)[None, :])
        dist1d = np.minimum(d, N - d)
        moved = np.moveaxis(arr, axis, 0)
        rest = moved.shape[1:]
        relaxed = (dist1d[:, :, None] + moved.reshape(N, -1)[None, :, :]).min(axis=1)
        arr = np.moveaxis(relaxed.reshape((N,) + rest), 0, axis)
    return arr.reshape(-1)


def steiner_tree_length(points, extents) -> float:
    """Minimal length of a lattice tree containing all the given sites.

    Exact, by Dreyfus-Wagner dynamic programming over terminal subsets
    (terminals capped at 6).
    """
    pts = list(dict.fromkeys(_normalize_site(tuple(p), extents) for p in points))  # distinct, in order
    t = len(pts)
    if t <= 1:
        return 0.0
    if t == 2:
        return float(torus_distance(pts[0], pts[1], extents))
    if t > STEINER_TERMINAL_CAP:
        raise ValueError(f"exact Steiner computation capped at {STEINER_TERMINAL_CAP} terminals, got {t}")

    n_sites = int(np.prod(extents))
    unreached = np.iinfo(np.int64).max // 4
    # T[mask] = per-site vector: optimal tree containing terminals in mask plus that site
    tables: dict[int, np.ndarray] = {}
    full = (1 << t) - 1
    for mask in sorted(range(1, full + 1), key=lambda m: bin(m).count("1")):
        best = np.full(n_sites, unreached, dtype=np.int64)
        if mask & (mask - 1) == 0:  # one terminal: relaxing a one-hot seed gives its distances
            best[np.ravel_multi_index(pts[mask.bit_length() - 1], extents)] = 0
        sub = (mask - 1) & mask
        while sub > 0:
            other = mask ^ sub
            if sub < other:  # each unordered split once
                np.minimum(best, tables[sub] + tables[other], out=best)
            sub = (sub - 1) & mask
        tables[mask] = _min_plus(best, extents)
    return float(tables[full][np.ravel_multi_index(pts[0], extents)])


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

def kernel_norm(V: Kernel, m: float) -> float:
    """max over pinned argument of sum_{others} |V| * exp(m * tree length)."""
    if m < 0:
        raise ValueError("decay rate m must be >= 0")
    if not V.entries:
        return 0.0
    tau_cache: dict[tuple, float] = {}

    def tau(key) -> float:
        pts = tuple(sorted(set(key)))
        if pts not in tau_cache:
            tau_cache[pts] = steiner_tree_length(pts, V.extents)
        return tau_cache[pts]

    best = 0.0
    for j in range(V.arity):
        sums: dict[Site, float] = {}
        for key, val in V.entries.items():
            w = abs(val) if m == 0 else abs(val) * float(np.exp(m * tau(key)))
            pin = key[j]
            sums[pin] = sums.get(pin, 0.0) + w
        best = max(best, max(sums.values()))
    return best
