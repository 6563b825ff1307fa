"""Tolerances, budgets and run configuration.

Every number a verdict depends on is defined here: the fields of
:class:`VerifierConfig`, which inputs may set and reports echo, and the
fixed module constants, which the package version pins.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np


# -- fixed numbers ---------------------------------------------------------
TOL_EQ = 1e-7         # full-dimensional: the largest inscribed ball is wider than this
TOL_ZERO = 1e-9       # pre-activations this close to zero branch both ways
FALSIFY_GATE = 1e-9   # a witness needs g < -max(tol_margin, FALSIFY_GATE) (float noise)
BRANCH_CAP = 20       # max simultaneously-ambiguous neurons before expansion refuses
ORACLE_CAP = 16       # max total neuron count the exhaustive oracle accepts
BISECT_EPS = 1e-3     # seed-search bisection stops once the pair is this close
FALSIFY_BUDGET = 100  # falsification-search budget per patch
BAB_MIN_WIDTH = 1e-5  # BaB stops splitting boxes narrower than this in every coordinate


@dataclass(frozen=True)
class VerifierConfig:
    # -- tolerances ------------------------------------------------------
    #: feasibility slack accepted when checking points against constraints
    tol_feas: float = 1e-7
    #: verification margin: a region passes when its certified lower bound
    #: is >= -tol_margin
    tol_margin: float = 0.0

    # -- budgets ---------------------------------------------------------
    #: attempts of the sample/bisect/expand loop before giving up
    max_attempts: int = 50
    #: boxes processed per region by branch-and-bound before Unknown
    bab_max_boxes: int = 4000
    #: rejection-sampling budget for set-membership probes
    membership_samples: int = 100_000
    #: cap on enumerated regions (None = unlimited)
    max_regions: int | None = None
    #: worker threads for the per-region verdict phase
    threads: int = 1

    # -- problem frame ---------------------------------------------------
    #: analysis box, one [lo, hi] per coordinate; None = [-3, 3]^n
    domain_box: tuple[tuple[float, float], ...] | None = None
    seed: int = 0

    def domain(self, dim: int) -> np.ndarray:
        """The domain box as a (dim, 2) array, defaulting to [-3, 3]^n."""
        if self.domain_box is None:
            return np.array([[-3.0, 3.0]] * dim)
        box = np.asarray(self.domain_box, dtype=float)
        if box.shape != (dim, 2):
            raise ValueError(f"domain box shape {box.shape} does not match dimension {dim}")
        return box

    def updated(self, **kwargs) -> "VerifierConfig":
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "domain_box" and v is not None:
                v = [list(pair) for pair in v]
            out[f.name] = v
        return out

    @classmethod
    def from_dicts(cls, tolerances: dict | None = None, budgets: dict | None = None,
                   **extra) -> "VerifierConfig":
        """Build a config from the ``tolerances``/``budgets`` problem-file blocks."""
        known = {f.name for f in fields(cls)}
        merged: dict = {}
        for block in (tolerances or {}), (budgets or {}), extra:
            for k, v in block.items():
                if k not in known:
                    raise ValueError(f"unknown configuration key: {k!r}")
                merged[k] = v
        if "domain_box" in merged and merged["domain_box"] is not None:
            merged["domain_box"] = tuple(tuple(float(x) for x in pair)
                                         for pair in merged["domain_box"])
        return cls(**merged)


DEFAULT_CONFIG = VerifierConfig()
