"""Deciding the flow condition when the dynamics are not affine.

For affine flows one LP per region settles inf w.f exactly.  Anything
nonlinear runs through two complementary engines instead:

  * a local falsification search (sample the slice, walk downhill within
    the patch) that can only ever prove a violation, and
  * interval branch-and-bound over the patch's bounding box, which can
    certify the infimum from below -- or report Unknown when the enclosure
    never clears the margin.

The cubic system here is a classic benchmark flow -- and the unit diamond
turns out not to be a barrier for it: the search engine exhibits outward
crossings at the corners.  The second example is engineered so that w.f is
identically zero on the slice, which leaves interval arithmetic stuck at
[-eps, +eps] forever: the honest answer at zero margin is Unknown, and a
small tolerance turns it into Verified.

Run:  python3 demos/03_nonlinear_flows.py
"""

import numpy as np

from relubarrier import (DEFAULT_CONFIG, ActivationIndicator, DynamicsSystem,
                         boundary_propagation, build_valid_region,
                         falsify_region, verify_region_bab)
from relubarrier.network import ReluNetwork


def diamond_regions():
    w1 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    net = ReluNetwork([w1], [np.zeros(4)], -np.ones(4), 1.0)
    seed = build_valid_region(net, ActivationIndicator(((1, 0, 1, 0),)))
    return boundary_propagation(net, seed).regions


def main():
    regions = diamond_regions()
    cubic = DynamicsSystem.parse(
        ["x1 - x1^3 + x2 - x1*x2^2", "-x1 + x2 - x1^2*x2 - x2^3"], dim=2)

    print("cubic benchmark flow, per region:")
    for region in regions:
        hit = falsify_region(region, cubic)
        if hit is not None:
            print(f"  {region.indicator.compact()}  falsified by search: "
                  f"w.f = {hit.witness_value:+.6f} at {np.round(hit.witness, 4)}")
            continue
        verdict = verify_region_bab(region, cubic)
        bound = ("" if verdict.bound is None
                 else f" (bound {verdict.bound:+.6f})")
        print(f"  {region.indicator.compact()}  search found nothing; "
              f"branch-and-bound says {verdict.status}{bound}")

    flat = DynamicsSystem.parse(["x2^3", "-x2^3"], dim=2)
    region = regions[-1]  # w = (-1,-1): the two cubes cancel exactly
    print("\nflow engineered so w.f == 0 on the slice:")
    v0 = verify_region_bab(region, flat)
    print(f"  margin 0:      {v0.status}   (enclosure cannot reach zero width)")
    v1 = verify_region_bab(region, flat,
                           DEFAULT_CONFIG.updated(tol_margin=1e-3))
    print(f"  margin 1e-3:   {v1.status}   (bound {v1.bound:+.2e})")


if __name__ == "__main__":
    main()
