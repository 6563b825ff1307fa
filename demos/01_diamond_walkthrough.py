"""End-to-end tour on the smallest interesting certificate.

The network computes h(x) = 1 - |x1| - |x2|, so its zero level set is the
boundary of the unit diamond.  We enumerate the four linear pieces of that
boundary, then verify the full barrier property for the contracting flow
x' = -x, and watch the same certificate fail for a constant drift.

Run:  python3 demos/01_diamond_walkthrough.py
"""

import numpy as np

from relubarrier import (DynamicsSystem, parse_expression, verify_certificate)
from relubarrier.network import ReluNetwork


def diamond_net():
    # one hidden layer: relu(x1), relu(-x1), relu(x2), relu(-x2)
    w1 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return ReluNetwork([w1], [np.zeros(4)], -np.ones(4), 1.0)


def show(verdict, title):
    print(f"\n== {title} ==")
    print(f"regions enumerated: {len(verdict.enumeration.regions)}")
    for region, v in zip(verdict.enumeration.regions,
                         verdict.results["invariance"].region_verdicts):
        line = (f"  region {region.indicator.compact()}  w={region.slice.w}"
                f"  b={region.slice.b:+.1f}  ->  {v.status}")
        if v.bound is not None:
            line += f"  (inf w.f = {v.bound:+.6f})"
        if v.witness is not None:
            line += f"  witness {np.round(v.witness, 6)}"
        print(line)
    print(f"invariance: {verdict.status('invariance')}")
    print(f"initial set contained: {verdict.status('initial')}")
    print(f"unsafe set avoided:    {verdict.status('unsafe')}")
    print(f"overall: {verdict.overall}")


def main():
    net = diamond_net()
    h_init = parse_expression("0.04 - x1^2 - x2^2", 2)
    h_unsafe = parse_expression("1 - (x1 - 3)^2 - (x2 - 3)^2", 2)

    # a flow that points inward everywhere on the boundary
    contracting = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
    show(verify_certificate(net, contracting, h_init, h_unsafe),
         "contracting flow x' = -x")

    # a drift that crosses the right-hand edges outward
    drift = DynamicsSystem.parse(["1", "0"], dim=2)
    show(verify_certificate(net, drift, h_init, h_unsafe),
         "constant drift x' = (1, 0)")


if __name__ == "__main__":
    main()
