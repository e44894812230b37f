"""The ``blockspin`` console script.

``blockspin flow MU0 V0 L`` runs :func:`blockspin.flow.run_flow` on the
smallest torus of block factor L that admits a step, (Nt, Nx) = (L^2, L),
and prints one JSON object per trace row.  The rows do not depend on the
torus, so there is no option to choose it.
"""

from __future__ import annotations

import argparse
import json

from .flow import run_flow
from .symbols import NumericalError
from .torus import LatticeError, make_shape

__all__ = ["main"]


def main(argv: list[str] | None = None) -> None:
    """Parse ``argv`` (default: the process's arguments) and run its subcommand.

    Invalid inputs, which :func:`run_flow` rejects with
    :class:`blockspin.torus.LatticeError`, and inputs whose trace leaves the
    floating-point range, for which it raises
    :class:`blockspin.symbols.NumericalError`, end the program with usage
    status 2 before any row is printed.
    """
    parser = argparse.ArgumentParser(prog="blockspin", description="Block-spin flow laboratory.")
    commands = parser.add_subparsers(dest="command", required=True)
    flow_cmd = commands.add_parser("flow", help="trace the running couplings, one JSON object per row")
    flow_cmd.add_argument("mu0", type=float, help="initial chemical potential")
    flow_cmd.add_argument("v0", type=float, help="initial coupling, in (0, 1]")
    flow_cmd.add_argument("L", type=int, help="block factor, odd and >= 3")
    flow_cmd.add_argument("--steps", type=int, help="at most this many rows")
    flow_cmd.add_argument("--no-renormalize", dest="renormalize", action="store_false",
                          help="closed-form mu_n = L^(2n) mu0 instead of the renormalized fixed point")
    args = parser.parse_args(argv)
    try:
        trace = run_flow(args.mu0, args.v0, args.L, make_shape(0, args.L, args.L * args.L, args.L),
                         steps=args.steps, renormalize=args.renormalize)
    except (LatticeError, NumericalError) as exc:
        flow_cmd.error(str(exc))
    for row in trace:
        p = row.params
        print(json.dumps({"n": p.n, "mu": p.mu, "v": p.v, "a": p.a, "well_radius": row.well_radius,
                          "well_depth_per_site": row.well_depth_per_site, "stop": row.stop}))
