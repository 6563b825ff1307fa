"""Tolerances, budgets and run configuration.

Every number a verdict depends on is defined here: the fields of
:class:`VerifierConfig`, which inputs may set and reports echo, and the
fixed module constants, which the package version pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ProblemFormatError


# -- fixed numbers ---------------------------------------------------------
TOL_EQ = 1e-7         # full-dimensional: the largest inscribed ball is wider than this
TOL_ZERO = 1e-9       # pre-activations within TOL_ZERO * max(1, |W_j|.|z| + |b_j|)
                      # of zero (relative to their summed terms) branch both ways
FALSIFY_GATE = 1e-9   # a witness needs g < -max(tol_margin, FALSIFY_GATE) (float noise)
BRANCH_CAP = 20       # max simultaneously-zero neurons feasible_indicators branches
ORACLE_CAP = 16       # max total neuron count the exhaustive oracle accepts
BAB_MIN_WIDTH = 1e-5  # BaB stops splitting simplices whose longest edge is shorter
TOL_FEAS_MAX = 1e-6   # a witness may sit tol_feas off its patch, and the independent
                      # checker (bench/checker.py, _PATCH_TOL) allows 1e-6 there
_BLOCKS = {"tolerances": ("tol_feas", "tol_margin"), "budgets": ("max_attempts", "bab_max_boxes",
           "membership_samples", "max_regions", "threads")}   # seed, domain_box: top level


@dataclass(frozen=True)
class VerifierConfig:
    # -- tolerances ------------------------------------------------------
    #: feasibility slack accepted when checking points against constraints
    tol_feas: float = 1e-7
    #: verification margin: a region passes when its certified lower bound
    #: is >= -tol_margin
    tol_margin: float = 0.0

    # -- budgets ---------------------------------------------------------
    #: seed-search attempts (one batch of draws, one bisected sign change
    #: each) before giving up
    max_attempts: int = 50
    #: simplices processed per region by branch-and-bound before Unknown
    bab_max_boxes: int = 4000
    #: rejection-sampling budget for set-membership probes
    membership_samples: int = 100_000
    #: cap on enumerated regions (None = unlimited)
    max_regions: int | None = None
    #: fixed at 1: the per-region verdicts run serially
    threads: int = 1

    # -- problem frame ---------------------------------------------------
    #: analysis box, one [lo, hi] per coordinate; None = [-3, 3]^n
    domain_box: tuple[tuple[float, float], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        """Check every value (`_valid`), `updated` included; store the box as floats."""
        for f in fields(self):
            if not _valid(f.name, v := getattr(self, f.name)):
                raise ProblemFormatError(f"invalid value for {f.name}: {v!r}")
        if self.domain_box is not None:
            object.__setattr__(self, "domain_box", tuple(
                tuple(float(x) for x in pair) for pair in self.domain_box))

    def domain(self, dim: int) -> np.ndarray:
        """The domain box as a (dim, 2) array, defaulting to [-3, 3]^n."""
        if self.domain_box is None:
            return np.array([[-3.0, 3.0]] * dim)
        box = np.asarray(self.domain_box, dtype=float)
        if box.shape != (dim, 2):
            raise ProblemFormatError(f"domain_box must hold {dim} [lo,hi] pairs")
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
        """Build a config from the ``tolerances``/``budgets`` problem-file
        blocks, each holding only its own keys (`_BLOCKS`), and the extra
        fields; ProblemFormatError on another key or an invalid value."""
        for block, given in (("tolerances", tolerances or {}), ("budgets", budgets or {})):
            if unknown := [k for k in given if k not in _BLOCKS[block]]:
                raise ProblemFormatError(f"unknown configuration key in {block}: {unknown[0]!r}")
        return cls(**{**(tolerances or {}), **(budgets or {}), **extra})   # extra wins


def _finite(v) -> bool:
    try:   # math.isfinite overflows on an integer beyond the float range
        return not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:
        return False


def _valid(key: str, v) -> bool:
    """Tolerances are finite numbers >= 0 (tol_feas at most TOL_FEAS_MAX),
    the domain box finite [lo, hi] pairs with lo < hi, the seed an integer
    >= 0, threads the integer 1 and the other counts integers >= 1; only
    the domain box and max_regions may be None, and a bool is no number."""
    if key in ("tol_feas", "tol_margin"):
        return _finite(v) and 0 <= v <= (TOL_FEAS_MAX if key == "tol_feas" else math.inf)
    if v is None:
        return key in ("domain_box", "max_regions")
    if key == "domain_box":
        return isinstance(v, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_finite, p))
            and p[0] < p[1] for p in v)
    if not isinstance(v, int) or isinstance(v, bool):
        return False
    return v == 1 if key == "threads" else v >= (0 if key == "seed" else 1)


DEFAULT_CONFIG = VerifierConfig()
