"""How the toolkit finds the linear pieces of a certificate's zero set.

A ReLU network is affine on each activation region, so its zero level set
is a union of polytope patches.  This script makes the two discovery routes
visible side by side:

  * the exhaustive oracle, which tests every activation pattern, and
  * boundary propagation, which starts from one valid region and walks
    across facets to its neighbours.

On a connected level set both routes agree.  The second half constructs a
certificate whose level set has two separate sheets, where the walk can
only ever see the sheet it started on -- which is why every enumeration
result carries ``connectivity_assumed``.

Run:  python3 demos/02_region_enumeration.py
"""

import numpy as np

from relubarrier import (boundary_propagation, brute_force_valid_regions,
                         build_valid_region)
from relubarrier.network import ReluNetwork


def random_net(seed):
    rng = np.random.default_rng(seed)
    neurons = 6
    w1 = rng.normal(size=(neurons, 2))
    b1 = rng.normal(size=neurons) * 0.5
    return ReluNetwork([w1], [b1], rng.normal(size=neurons), rng.normal())


def main():
    net = random_net(3)

    oracle = brute_force_valid_regions(net)
    print(f"exhaustive oracle: {len(oracle)} valid regions")
    for ind in oracle:
        region = build_valid_region(net, ind)
        print(f"  {ind.compact()}  w={np.round(region.slice.w, 3)}")

    start = build_valid_region(net, oracle[0])
    result = boundary_propagation(net, start)
    walked = [r.indicator for r in result.regions]
    print(f"\nboundary walk from {oracle[0].compact()}: "
          f"{len(walked)} regions, visited {result.visited_count} candidates")
    print(f"matches the oracle: {walked == oracle}")
    print(f"connectivity assumed: {result.connectivity_assumed}")

    # two parallel sheets: h = 1 - |x1| vanishes on x1 = 1 and x1 = -1
    strip = ReluNetwork([np.array([[1.0, 0.0], [-1.0, 0.0]])], [np.zeros(2)],
                        np.array([-1.0, -1.0]), 1.0)
    sheets = brute_force_valid_regions(strip)
    start = build_valid_region(strip, sheets[0])
    result = boundary_propagation(strip, start)
    print(f"\ntwo-sheet certificate: oracle sees {len(sheets)} regions, "
          f"the walk reaches {len(result.regions)}")
    print("the report flags this with connectivity_assumed =",
          result.connectivity_assumed)


if __name__ == "__main__":
    main()
