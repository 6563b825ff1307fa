"""Deciding the flow condition when the dynamics are not affine.

For affine flows each patch's vertices and rays settle inf w.f exactly.
Anything nonlinear goes to the ladder's second rung, interval
branch-and-bound: it checks the patch's vertices and points out along its
rays as witnesses, then encloses w.f over simplices cut from the patch,
and certifies the infimum from below or finds a checked witness.

`check_invariance` runs that ladder per region (it is a thin wrapper over
the one pass in which `verify_certificate` decides all three conditions);
each verdict names the rung that decided it (`method`: lp or interval).  The cubic system here is a
classic benchmark flow, and the unit diamond turns out not to be a barrier
for it: branch-and-bound exhibits outward crossings at the corners.  The
second example is engineered so that w.f is identically zero on the slice,
which leaves interval arithmetic stuck at [-eps, +eps] forever: the honest
answer at zero margin is Unknown, and a small tolerance turns it into
Verified.

Run:  python3 demos/03_nonlinear_flows.py
"""

import numpy as np

from relubarrier import (DEFAULT_CONFIG, ActivationIndicator, DynamicsSystem,
                         boundary_propagation, build_valid_region, check_invariance)
from relubarrier.network import ReluNetwork


def diamond_regions():
    w1 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    net = ReluNetwork([w1], [np.zeros(4)], -np.ones(4), 1.0)
    seed = build_valid_region(net, ActivationIndicator(((1, 0, 1, 0),)))
    return net, boundary_propagation(net, seed).regions


def describe(verdict) -> str:
    if verdict.witness is not None:
        detail = f"w.f = {verdict.witness_value:+.6f} at {np.round(verdict.witness, 4)}"
    elif verdict.bound is not None:
        detail = f"bound {verdict.bound:+.2e}"
    else:
        detail = verdict.note
    return f"{verdict.status:<9} by {verdict.method:<8} {detail}"


def main():
    net, regions = diamond_regions()
    cubic = DynamicsSystem.parse(
        ["x1 - x1^3 + x2 - x1*x2^2", "-x1 + x2 - x1^2*x2 - x2^3"], dim=2)

    print("cubic benchmark flow, per region:")
    for region in regions:
        verdict = check_invariance(net, [region], cubic).region_verdicts[0]
        print(f"  {region.indicator.compact()}  {describe(verdict)}")

    flat = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)
    region = regions[-1]  # w = (-1,-1): the two cubes cancel exactly
    print("\nflow engineered so w.f == 0 on the slice:")
    for margin in (0.0, 1e-3):
        cfg = DEFAULT_CONFIG.updated(tol_margin=margin)
        verdict = check_invariance(net, [region], flat, cfg).region_verdicts[0]
        print(f"  margin {margin:<6g}  {describe(verdict)}")


if __name__ == "__main__":
    main()
