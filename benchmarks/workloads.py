"""The benchmark's three workloads: seeded request decks, execution and result checks.

Each workload is a fixed cyclic *deck* of request slots.  A slot fixes the
request kind, shape and profile and, for a continuous parameter, the stratum
of its range; the seed draws the value inside the stratum and every random
field.  Request ``i`` is built from ``numpy.random.default_rng([seed, i])``,
so the same seed gives the same inputs in any process, and any prefix of the
stream mixes the kinds in the same proportions for every seed.

All package calls go through module attributes (``F.run_flow``, ...) so that
the wrappers of ``tracing.installed`` see them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from blockspin import action as A
from blockspin import background as BG
from blockspin import flow as F
from blockspin import symbols as S
from blockspin import torus as T
from blockspin.lattice_ops import SHARP, SMOOTH

PROFILES = {"sharp": SHARP, "smooth": SMOOTH}
ORACLE_RTOL = 1e-9


@dataclass(frozen=True)
class Request:
    index: int
    kind: str
    spec: dict


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _close(value, reference) -> bool:
    value, reference = np.asarray(value), np.asarray(reference)
    scale = max(1.0, float(np.max(np.abs(reference))))
    return bool(np.all(np.isfinite(value)) and np.max(np.abs(value - reference)) <= ORACLE_RTOL * scale)


class Workload:
    """A deck of slots; subclasses build, run and check one slot's requests."""

    name = ""
    slots: tuple = ()
    warmup_slot = 0

    def request(self, seed: int, index: int) -> Request:
        slot = self.slots[index % len(self.slots)]
        return self.build(slot, _rng(seed, index), index)

    def warmup(self) -> Request:
        """A fixed request, the same for every seed."""
        return self.build(self.slots[self.warmup_slot], _rng(0, self.warmup_slot), -1)

    def build(self, slot, rng: np.random.Generator, index: int) -> Request:
        raise NotImplementedError

    def execute(self, req: Request):
        """Run the request; returns (result, converged)."""
        raise NotImplementedError

    def check(self, req: Request, result) -> str | None:
        """None if the result is right, else the reason it is not."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# flow: renormalized traces over scales and block-spin chains
# ---------------------------------------------------------------------------

FLOW_SHAPE = (0, 3, 81, 9)
FLOW_L = 3
FLOW_V0 = (1e-5, 1e-6)
MU0_STRATA = 16
CHAIN_EXTENTS = (243, 27, 27, 27)
ORACLE_EXTENTS = (9, 3, 3, 3)
CHAIN_MU = (5e-3, 0.5)
CHAIN_STRATA = 4


def _bit_reversed(n: int) -> list[int]:
    bits = n.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]


def _flow_slots() -> tuple:
    # mu0 strata in low-discrepancy order, the two v0 values walking it from
    # opposite ends, so that every deck prefix covers the window evenly
    order = _bit_reversed(MU0_STRATA)
    traces = []
    for k, (s_lo, s_hi) in enumerate(zip(order, [MU0_STRATA - 1 - s for s in order])):
        profile = ("sharp", "smooth")[k % 2]  # each stratum gets both profiles over the two v0
        traces.append(("trace", FLOW_V0[0], s_lo, profile))
        traces.append(("trace", FLOW_V0[1], s_hi, profile))
    chains = [("chain", None, s, p) for s, p in zip((1, 3, 0, 2), ("sharp", "smooth", "smooth", "sharp"))]
    slots = []
    every = len(traces) // len(chains)
    for j, chain in enumerate(chains):
        slots.extend(traces[j * every : j * every + every // 2])
        slots.append(chain)
        slots.extend(traces[j * every + every // 2 : (j + 1) * every])
    return tuple(slots)


class FlowWorkload(Workload):
    name = "flow"
    slots = _flow_slots()
    warmup_slot = 2  # mid-window trace

    def build(self, slot, rng, index):
        kind, v0, stratum, profile = slot
        if kind == "trace":
            lo, hi = F.admissible_window(0.0, v0)
            frac = (stratum + rng.random()) / MU0_STRATA
            spec = {"v0": v0, "mu0": lo * (hi / lo) ** frac, "profile": profile}
        else:
            lo, hi = CHAIN_MU
            frac = (stratum + rng.random()) / CHAIN_STRATA
            spec = {"mu": lo * (hi / lo) ** frac, "profile": profile}
        return Request(index, f"flow.{kind}", spec)

    def execute(self, req):
        spec = req.spec
        prof = PROFILES[spec["profile"]]
        if req.kind == "flow.trace":
            trace = F.run_flow(spec["mu0"], spec["v0"], FLOW_L, T.make_shape(*FLOW_SHAPE), profile=prof)
            return [step.params.mu for step in trace], True
        action = F.QuadraticAction.from_heat_minus_mu(CHAIN_EXTENTS, spec["mu"])
        first = None
        while action.extents[0] % (FLOW_L * FLOW_L) == 0 and all(e % FLOW_L == 0 for e in action.extents[1:]):
            action = F.block_spin_step(action, FLOW_L, prof)
            if first is None:
                first = action
        mass, _kernels = F.localize_quadratic(first)
        return {"zero": complex(first.symbol_grid[0, 0, 0, 0]), "mass": mass, "extents": action.extents}, True

    def check(self, req, result):
        spec = req.spec
        if req.kind == "flow.trace":
            mus = np.asarray(result)
            rows = F.max_steps(spec["v0"], FLOW_L) + 1
            if not 1 <= len(mus) <= rows:
                return f"trace has {len(mus)} rows, at most {rows} allowed"
            if not np.all(np.isfinite(mus)) or np.any(np.diff(mus) <= 0):
                return "running mu is not strictly increasing"
            return None
        dense = F.block_spin_step_dense(
            F.QuadraticAction.from_heat_minus_mu(ORACLE_EXTENTS, spec["mu"]), FLOW_L, PROFILES[spec["profile"]]
        )
        reference = dense.symbol_grid[0, 0, 0, 0]
        if not _close(result["zero"], reference):
            return f"zero-momentum symbol {result['zero']} differs from the dense step {reference}"
        if not _close(result["mass"], result["zero"].real):
            return "localized mass differs from the zero-momentum symbol"
        return None


# ---------------------------------------------------------------------------
# solve: nonlinear background fields on the dense and the GMRES path
# ---------------------------------------------------------------------------

DENSE_SHAPES = ((1, 3, 1, 1), (1, 3, 2, 1))
GMRES_SHAPES = ((1, 3, 1, 2), (1, 3, 2, 2), (1, 3, 3, 1), (1, 3, 1, 3), (1, 3, 3, 2))
SOLVE_TOL = 1e-10
SMALL_FIELD = {"mu": (0.05, 0.95), "v": 0.01, "amplitude": 0.1}
WELL = {"mu": (1.2, 3.0), "v": 0.5, "amplitude": 0.1}
MU_STRATA = len(DENSE_SHAPES + GMRES_SHAPES)


def _solve_slots() -> tuple:
    shapes = DENSE_SHAPES + GMRES_SHAPES
    combos = (("sharp", "small"), ("smooth", "well"), ("smooth", "small"), ("sharp", "well"))
    # shape cycles fastest; each shape meets every (profile, regime) once per deck.
    # mu has one stratum per shape, shifted by the combo, so each combo covers the
    # whole mu range; Newton's iteration count, and so the cost, follows mu.
    slots = []
    for pos in range(len(shapes) * len(combos)):
        i = pos % len(shapes)
        j = (i + pos // len(shapes)) % len(combos)
        slots.append((shapes[i],) + combos[j] + ((i + j) % len(shapes),))
    return tuple(slots)


class SolveWorkload(Workload):
    name = "solve"
    slots = _solve_slots()
    warmup_slot = 10  # (1,3,2,2): GMRES path, small field

    def build(self, slot, rng, index):
        shape, profile, regime, stratum = slot
        ext = T.make_shape(*shape).unit_extents
        lo, hi = (SMALL_FIELD if regime == "small" else WELL)["mu"]
        mu = lo + (hi - lo) * (stratum + rng.random()) / MU_STRATA
        if regime == "small":
            amp = SMALL_FIELD["amplitude"] / np.sqrt(2.0)
            starred = amp * (rng.standard_normal(ext) + 1j * rng.standard_normal(ext))
            plain = amp * (rng.standard_normal(ext) + 1j * rng.standard_normal(ext))
            v = SMALL_FIELD["v"]
        else:
            v = WELL["v"]
            radius = np.sqrt(mu / v)
            R = WELL["amplitude"] * rng.standard_normal(ext)
            Th = WELL["amplitude"] * rng.standard_normal(ext)
            starred = radius * np.exp(R - 1j * Th)
            plain = radius * np.exp(R + 1j * Th)
        spec = {"shape": shape, "profile": profile, "mu": mu, "v": v, "starred": starred, "plain": plain}
        return Request(index, f"solve.{'dense' if shape in DENSE_SHAPES else 'gmres'}.{regime}", spec)

    @staticmethod
    def problem(spec):
        shape = T.make_shape(*spec["shape"])
        pair = T.FieldPair(T.Field(shape, "unit", spec["starred"]), T.Field(shape, "unit", spec["plain"]))
        return pair, BG.ModelParams(mu=spec["mu"], v=spec["v"]), shape, PROFILES[spec["profile"]]

    def execute(self, req):
        pair, params, shape, prof = self.problem(req.spec)
        sol = BG.solve_nonlinear(pair, params, shape, tol=SOLVE_TOL, seed_strategy="auto", profile=prof)
        return sol, sol.converged

    def check(self, req, sol):
        pair, params, shape, prof = self.problem(req.spec)
        rs, rp = BG.nonlinear_residuals(pair, sol.phi_star.values, sol.phi.values, params, shape, prof)
        worst = max(float(np.max(np.abs(rs))), float(np.max(np.abs(rp))))
        if not (sol.converged and worst <= SOLVE_TOL):
            return f"recomputed residual {worst:.3e} (converged={sol.converged})"
        return None


# ---------------------------------------------------------------------------
# spectrum: fiber symbols, small-momentum fits and the fluctuation spectrum
# ---------------------------------------------------------------------------

SYMBOL_SHAPES = ((1, 3, 1, 1), (1, 3, 3, 1), (1, 3, 9, 1), (1, 3, 3, 2), (1, 3, 9, 2), (1, 3, 9, 3))
SPECTRUM_SHAPES = ((1, 3, 2, 2), (1, 3, 1, 1), (1, 3, 2, 1), (1, 3, 1, 2))
SPECTRUM_MU = 0.5
FIT_WINDOW = 0.1
ORACLE_SAMPLES = 3
REGIMES = ("parabolic", "elliptic", "transitional")
SPECTRUM_PATTERNS = 3  # the deck repeats its pattern to match the other decks' length


def _spectrum_slots() -> tuple:
    n = len(SYMBOL_SHAPES)
    # each (shape, profile) pair three times, the profile alternating along the deck
    symbols = [(SYMBOL_SHAPES[i % n], ("sharp", "smooth")[(i + i // n) % 2]) for i in range(6 * n)]
    # the largest torus every other spectrum slot, both profiles, so the tail is a spectrum
    heavy, small = SPECTRUM_SHAPES[0], SPECTRUM_SHAPES[1:]
    spectra = []
    for j in range(2 * len(small)):
        spectra.append((heavy, ("sharp", "smooth")[j % 2]))
        spectra.append((small[j % len(small)], ("sharp", "smooth")[(j // len(small) + j) % 2]))
    slots = []
    per = len(symbols) // len(spectra)
    for j, spec_slot in enumerate(spectra):
        slots.extend(("symbols",) + s for s in symbols[per * j : per * (j + 1)])
        slots.append(("spectrum",) + spec_slot)
    return tuple(slots) * SPECTRUM_PATTERNS


class SpectrumWorkload(Workload):
    name = "spectrum"
    slots = _spectrum_slots()
    warmup_slot = 0

    def build(self, slot, rng, index):
        kind, shape, profile = slot
        mu = SPECTRUM_MU * (1.0 - rng.random())  # (0, 0.5]
        spec = {"shape": shape, "profile": profile, "mu": mu}
        if kind == "symbols":
            units = T.make_shape(*shape).sites("unit")
            spec["samples"] = rng.choice(units, size=min(ORACLE_SAMPLES, units), replace=False)
        return Request(index, f"spectrum.{kind}", spec)

    def execute(self, req):
        spec = req.spec
        shape = T.make_shape(*spec["shape"])
        prof = PROFILES[spec["profile"]]
        mu = spec["mu"]
        if req.kind == "spectrum.spectrum":
            return A.fluctuation_spectrum(BG.ModelParams(mu=mu, v=1.0), shape, prof), True
        k = T.radians_for_modes(shape, T.fft_mode_grid(shape.unit_extents)).reshape(-1, 4)
        zero = S.zero_field_symbol(k, mu, 1.0, shape, "discrete", prof)
        well = S.well_symbol(k, mu, 1.0, shape, "discrete", prof)
        fit = S.small_k_fit(lambda q: S.zero_field_symbol(q, mu, 1.0, shape, "discrete", prof), FIT_WINDOW)
        return {"k": k, "zero": zero, "well": well, "fit": fit, "regime": S.classify_regime(fit)}, True

    def check(self, req, result):
        spec = req.spec
        shape = T.make_shape(*spec["shape"])
        prof = PROFILES[spec["profile"]]
        mu = spec["mu"]
        if req.kind == "spectrum.spectrum":
            sites = shape.sites("fine")
            if len(result.eigenvalues) != sites:
                return f"{len(result.eigenvalues)} eigenvalues for {sites} fine sites"
            if not result.min_distance > 0.0:
                return f"spectrum touches the negative axis (distance {result.min_distance})"
            if not result.sqrt_in_right_half_plane:
                return "square root leaves the right half-plane"
            return None
        k, zero, well = result["k"], np.asarray(result["zero"]).reshape(-1), result["well"]
        for r in spec["samples"]:
            z_ref = S.zero_field_symbol_dense(k[r], mu, 1.0, shape, "discrete", prof)
            if not _close(zero[r], z_ref):
                return f"zero-field symbol at momentum {r}: {zero[r]} against dense {z_ref}"
            _, w_ref = S.well_fiber_dense(k[r], mu, 1.0, shape, "discrete", prof)
            if not _close(well[r], w_ref):
                return f"well symbol at momentum {r} differs from the dense fiber"
        fit = result["fit"]
        if not (np.isfinite(fit.residual) and result["regime"] in REGIMES):
            return f"small-k fit residual {fit.residual}, regime {result['regime']!r}"
        return None


WORKLOADS = {w.name: w for w in (FlowWorkload(), SolveWorkload(), SpectrumWorkload())}
