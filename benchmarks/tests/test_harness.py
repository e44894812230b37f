"""Tests of the benchmark harness itself (not of blockspin).

Run from the repository root:  python3 -m pytest -q benchmarks/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def first(workload, kind_prefix, **spec):
    """Request of the workload's seed-0 deck with the given kind and spec entries."""
    wl = WORKLOADS[workload]
    for i in range(len(wl.slots)):
        req = wl.request(0, i)
        if req.kind.startswith(kind_prefix) and all(req.spec.get(k) == v for k, v in spec.items()):
            return req
    raise LookupError(kind_prefix)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


# -- inputs --------------------------------------------------------------------

def same_inputs(a, b):
    if a.kind != b.kind or a.spec.keys() != b.spec.keys():
        return False
    return all(np.array_equal(a.spec[k], b.spec[k]) for k in a.spec)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    wl = WORKLOADS[name]
    count = len(wl.slots) + 3
    a = [wl.request(7, i) for i in range(count)]
    b = [wl.request(7, i) for i in range(count)]
    c = [wl.request(8, i) for i in range(count)]
    assert all(same_inputs(x, y) for x, y in zip(a, b))
    assert not any(same_inputs(x, y) for x, y in zip(a, c))
    assert [x.kind for x in a] == [y.kind for y in c]


# -- metric names ----------------------------------------------------------------

def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench("--workload", "spectrum", "--seed", "0", "--seconds", "0.5", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert printed == declared


def test_declared_units_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == sorted(WORKLOADS, key=list(WORKLOADS).index)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "flow", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- latency ranking -----------------------------------------------------------

def _records(latencies, outcomes):
    return [run.Record(None, t, o, None) for t, o in zip(latencies, outcomes)]


def test_failed_requests_rank_slowest():
    lat = [0.001 * (i + 1) for i in range(30)]
    all_ok = run.latency_summary(_records(lat, ["ok"] * 30))
    assert all_ok["p50_s"] == pytest.approx(0.0155)  # symmetric weights around the middle
    outcomes = ["ok"] * 30
    outcomes[0] = "raised NumericalError: x"  # the fastest request failed
    records = _records(lat, outcomes)
    assert run.ranked_latencies(records) == lat[1:] + [lat[-1]]
    one_failed = run.latency_summary(records)
    assert one_failed["completed"] == 29
    assert one_failed["p50_s"] > all_ok["p50_s"]
    assert one_failed["tail_s"] > all_ok["tail_s"]
    assert one_failed["tail_percentile"] == pytest.approx(100 * 20 / 30)


def test_tail_inside_failed_block_reads_slowest_completed():
    lat = [0.001 * (i + 1) for i in range(20)]
    outcomes = ["ok"] * 8 + ["unconverged"] * 12
    s = run.latency_summary(_records(lat, outcomes))
    assert s["tail_in_failed_block"]
    assert 0.006 < s["tail_s"] <= 0.008


def test_harrell_davis_estimates_quantiles():
    assert run.harrell_davis([0.2] * 7, 0.9) == pytest.approx(0.2)
    ranked = list(np.linspace(0.0, 1.0, 201))
    for q in (0.25, 0.5, 0.9):
        assert run.harrell_davis(ranked, q) == pytest.approx(q, abs=0.01)


# -- checks reject corrupted results ------------------------------------------

def test_solve_check_rejects_perturbed_solution():
    wl = WORKLOADS["solve"]
    req = first("solve", "solve.gmres.small", shape=(1, 3, 1, 2))
    sol, converged = wl.execute(req)
    assert converged and wl.check(req, sol) is None
    bumped = dataclasses.replace(sol, phi=sol.phi.with_values(sol.phi.values * (1 + 1e-6)))
    assert wl.check(req, bumped) is not None
    assert wl.check(req, dataclasses.replace(sol, converged=False)) is not None


def test_flow_trace_check_rejects_broken_invariants():
    wl = WORKLOADS["flow"]
    req = first("flow", "flow.trace", v0=1e-5)
    mus, _ = wl.execute(req)
    assert wl.check(req, mus) is None
    assert wl.check(req, mus[:2] + [mus[1]] + mus[3:]) is not None
    assert wl.check(req, mus + [mus[-1] * 2] * 10) is not None


def test_flow_chain_check_rejects_perturbed_symbol():
    wl = WORKLOADS["flow"]
    req = first("flow", "flow.chain")
    result, _ = wl.execute(req)
    assert wl.check(req, result) is None
    assert wl.check(req, dict(result, zero=result["zero"] * (1 + 1e-6))) is not None
    assert wl.check(req, dict(result, mass=result["mass"] + 1e-6)) is not None


def test_symbol_check_rejects_shifted_grid():
    wl = WORKLOADS["spectrum"]
    req = first("spectrum", "spectrum.symbols", shape=(1, 3, 3, 2))
    result, _ = wl.execute(req)
    assert wl.check(req, result) is None
    ext = (3, 2, 2, 2)
    shifted_zero = np.roll(np.asarray(result["zero"]).reshape(ext), 1, axis=0).reshape(-1)
    shifted_well = np.roll(result["well"].reshape(ext + (2, 2)), 1, axis=0).reshape(-1, 2, 2)
    assert wl.check(req, dict(result, zero=shifted_zero)) is not None
    assert wl.check(req, dict(result, well=shifted_well)) is not None


def test_spectrum_check_rejects_broken_report():
    wl = WORKLOADS["spectrum"]
    req = first("spectrum", "spectrum.spectrum", shape=(1, 3, 1, 2))
    rep, _ = wl.execute(req)
    assert wl.check(req, rep) is None
    assert wl.check(req, dataclasses.replace(rep, eigenvalues=rep.eigenvalues[1:])) is not None
    assert wl.check(req, dataclasses.replace(rep, min_distance=0.0)) is not None
    assert wl.check(req, dataclasses.replace(rep, sqrt_in_right_half_plane=False)) is not None


# -- tracing -------------------------------------------------------------------

def _traced(workload, requests):
    wl = WORKLOADS[workload]
    tracer = tracing.Tracer()
    walls = {}
    for req in requests:
        tracer.request = req.index
        with tracing.installed(tracer):
            start = perf_counter()
            run.execute(wl, req)
            walls[req.index] = perf_counter() - start
    return tracer, walls


@pytest.fixture(scope="module")
def traced_solve():
    reqs = [
        first("solve", "solve.dense.small", shape=(1, 3, 1, 1), profile="sharp"),
        first("solve", "solve.gmres.small", shape=(1, 3, 2, 2)),
        first("solve", "solve.gmres.well", shape=(1, 3, 1, 2)),
        first("solve", "solve.gmres.well", shape=(1, 3, 3, 1)),
    ]
    return _traced("solve", reqs)


def test_self_times_fit_inside_each_request(traced_solve):
    tracer, walls = traced_solve
    own = tracing.self_times(tracer.spans)
    for index, wall in walls.items():
        total = sum(t for span, t in zip(tracer.spans, own) if span[5] == index)
        assert 0.0 < total <= wall
    assert min(own) >= -1e-9


def test_traced_solve_hits_names_bound_inside_background(traced_solve):
    tracer, _ = traced_solve
    sites = {(span[0], span[1]) for span in tracer.spans}
    for name in ("lattice_ops.fine_average", "lattice_ops.operator_matrix", "symbols.averaging_symbol",
                 "torus.fiber_split", "torus.fiber_merge", "background.gmres",
                 "background.solve_well_linear", "background.nonlinear_residuals"):
        assert (name, "background") in sites, name
    metrics = tracing.layer_metrics(tracer, len(traced_solve[1]), 0.0)
    assert metrics["background.gmres.inner_iters"] > 0
    assert metrics["background.solve_well_linear.failed"] > 0
    assert metrics["lattice_ops.operator_matrix.columns"] > 0
    assert metrics["background.residual_evals_per_newton"] >= 1.0


def test_traced_flow_hits_classmethod_and_profile_symbol():
    req = first("flow", "flow.trace", v0=1e-5)
    tracer, _ = _traced("flow", [req])
    names = {span[0] for span in tracer.spans}
    assert {"flow.run_flow", "flow.renormalize_mu", "flow.quadratic_mass_correction",
            "flow.QuadraticAction.from_heat_minus_mu", "flow.block_spin_step",
            "lattice_ops.profile_axis_symbol"} <= names
    metrics = tracing.layer_metrics(tracer, 1, 0.0)
    assert metrics["flow.corrections_per_renormalize"] >= 1.0
    assert metrics["flow.block_spin_step.grid_bytes"] > 0


def test_install_rebinds_every_binding_and_restores_it():
    modules = tracing._package_modules()
    originals = {}
    for mod, fns in tracing.TRACED.items():
        for fn in fns:
            if fn != "gmres" and "." not in fn:
                originals[f"{mod}.{fn}"] = getattr(modules[mod], fn)
    before = {(m, a): v for m, mod in modules.items() for a, v in vars(mod).items()}
    with tracing.installed(tracing.Tracer()):
        for mod in modules.values():
            for value in vars(mod).values():
                assert not any(value is orig for orig in originals.values())
    after = {(m, a): v for m, mod in modules.items() for a, v in vars(mod).items()}
    assert all(after[key] is value for key, value in before.items())
