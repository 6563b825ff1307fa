"""SMT-LIB 2 emission of the per-region violation queries.

Each query asks a solver for a point on one region's level-set patch where
the condition under test fails strictly; unsat over all regions certifies
the condition on the enumerated component.  No solver is invoked here;
emission is pure text so the files can be archived or fed to any engine.

Numbers are emitted exactly: integers as decimal literals, everything else
as the dyadic rational p/q of the double, so the formulas mean precisely
what the verifier computed with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import DEFAULT_CONFIG, TOL_EQ, VerifierConfig
from .errors import NoRegions
from .expressions import (Add, Const, Div, DynamicsSystem, Expr, Func, Mul,
                          Neg, Pow, Sub, Var, weighted_sum)


@dataclass
class SmtQuery:
    text: str
    mode: str                 # "per-region" | "monolithic"
    logic_tag: str            # "QF_NRA" or a transcendental comment tag
    region_ids: list[int]
    filename: str


def format_number(v: float) -> str:
    """Exact SMT-LIB literal for a double: decimal when integral, else p/q."""
    v = float(v)
    if v == int(v) and abs(v) < 1e15:
        text = str(abs(int(v)))
    else:
        p, q = abs(v).as_integer_ratio()
        text = f"(/ {p} {q})"
    return f"(- {text})" if v < 0 else text


def expr_to_smt(e: Expr) -> str:
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, Const):
        return format_number(e.value)
    if isinstance(e, Neg):
        return f"(- {expr_to_smt(e.arg)})"
    if isinstance(e, Add):
        return f"(+ {expr_to_smt(e.left)} {expr_to_smt(e.right)})"
    if isinstance(e, Sub):
        return f"(- {expr_to_smt(e.left)} {expr_to_smt(e.right)})"
    if isinstance(e, Mul):
        return f"(* {expr_to_smt(e.left)} {expr_to_smt(e.right)})"
    if isinstance(e, Div):
        return f"(/ {expr_to_smt(e.left)} {expr_to_smt(e.right)})"
    if isinstance(e, Pow):
        return f"(^ {expr_to_smt(e.base)} {e.exponent})"
    if isinstance(e, Func):
        return f"({e.name} {expr_to_smt(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _has_transcendental(e: Expr) -> bool:
    if isinstance(e, Func):
        return True
    if isinstance(e, (Add, Sub, Mul, Div)):
        return _has_transcendental(e.left) or _has_transcendental(e.right)
    if isinstance(e, Neg):
        return _has_transcendental(e.arg)
    if isinstance(e, Pow):
        return _has_transcendental(e.base)
    return False


def _affine_terms(coeffs, const) -> str:
    parts = [f"(* {format_number(c)} x{i + 1})" for i, c in enumerate(coeffs)]
    parts.append(format_number(const))
    return f"(+ {' '.join(parts)})" if len(parts) > 1 else parts[0]


def _region_conjuncts(region, domain_box=None) -> list[str]:
    w, b = region.slice.w, region.slice.b
    conj = [f"(= {_affine_terms(w, b)} 0)"]
    rows = region.slice.base   # the region's rows that touch the slice
    for a, d in zip(rows.A, rows.d):
        conj.append(f"(<= {_affine_terms(a, 0.0)} {format_number(d)})")
    if domain_box is not None:
        for i, (lo, hi) in enumerate(domain_box):
            conj.append(f"(<= x{i + 1} {format_number(hi)})")
            conj.append(f"(>= x{i + 1} {format_number(lo)})")
    return conj


def _violation_invariance(region, sys: DynamicsSystem) -> str:
    return f"(< {expr_to_smt(weighted_sum(region.slice.w, sys.exprs))} 0)"


def _violation_set(set_expr: Expr) -> str:
    return f"(> {expr_to_smt(set_expr)} 0)"


def _header(kind, mode, region_label, transcendental, cfg, domain_flag):
    lines = [
        f"; relubarrier {__version__} {kind} query",
        f"; mode: {mode}",
        f"; regions: {region_label}",
        f"; tolerances: tol_feas={cfg.tol_feas:g} tol_eq={TOL_EQ:g} "
        f"tol_margin={cfg.tol_margin:g}",
    ]
    if domain_flag:
        lines.append("; domain box asserted as additional constraints")
    if transcendental:
        lines.append("; logic: QF_NRA extended with transcendental functions "
                     "(sin cos tanh exp ln); use a delta-capable solver")
    else:
        lines.append("(set-logic QF_NRA)")
    return lines


def _assemble(kind, regions_with_ids, violation_of, dim, mode, transcendental,
              cfg, domain_box, filename) -> SmtQuery:
    region_label = ",".join(r.indicator.compact() for _, r in regions_with_ids)
    lines = _header(kind, mode, region_label, transcendental, cfg,
                    domain_box is not None)
    for i in range(dim):
        lines.append(f"(declare-fun x{i + 1} () Real)")
    disjuncts = []
    for _, region in regions_with_ids:
        conj = _region_conjuncts(region, domain_box) + [violation_of(region)]
        disjuncts.append(f"(and {' '.join(conj)})")
    body = disjuncts[0] if len(disjuncts) == 1 else f"(or {' '.join(disjuncts)})"
    lines.append(f"(assert {body})")
    lines.append("(check-sat)")
    logic = ("QF_NRA" if not transcendental
             else "QF_NRA+transcendental")
    return SmtQuery(text="\n".join(lines) + "\n", mode=mode, logic_tag=logic,
                    region_ids=[i for i, _ in regions_with_ids], filename=filename)


def export_invariance(regions, sys: DynamicsSystem,
                      cfg: VerifierConfig = DEFAULT_CONFIG,
                      mode: str = "per-region",
                      domain_box=None) -> list[SmtQuery]:
    """Violation queries for the invariance condition.

    per-region mode yields one query per region; monolithic mode a single
    disjunction over all regions.  unsat everywhere means the condition
    holds on the enumerated component.  Raises NoRegions on an empty list.
    """
    transcendental = any(_has_transcendental(e) for e in sys.exprs)
    violation = lambda r: _violation_invariance(r, sys)
    return _export(regions, violation, "invariance", sys.dim, transcendental,
                   cfg, mode, domain_box)


def export_set_condition(regions, set_expr: Expr, which: str, dim: int,
                         cfg: VerifierConfig = DEFAULT_CONFIG,
                         mode: str = "per-region",
                         domain_box=None) -> list[SmtQuery]:
    """Violation queries for patch contact with {set_expr > 0}."""
    if which not in ("initial", "unsafe"):
        raise ValueError(f"which must be 'initial' or 'unsafe', got {which!r}")
    transcendental = _has_transcendental(set_expr)
    violation = lambda r: _violation_set(set_expr)
    return _export(regions, violation, which, dim, transcendental, cfg, mode,
                   domain_box)


def _export(regions, violation, kind, dim, transcendental, cfg, mode, domain_box):
    if mode not in ("per-region", "monolithic"):
        raise ValueError(f"mode must be 'per-region' or 'monolithic', got {mode!r}")
    if not regions:   # an empty disjunction is false: unsat would certify nothing
        raise NoRegions(f"{kind} export over an empty region list")
    if mode == "monolithic":
        pairs = list(enumerate(regions))
        return [_assemble(kind, pairs, violation, dim, mode, transcendental,
                          cfg, domain_box, f"{kind}.smt2")]
    out = []
    for i, region in enumerate(regions):
        out.append(_assemble(kind, [(i, region)], violation, dim, mode,
                             transcendental, cfg, domain_box,
                             f"{kind}_region_{i:03d}.smt2"))
    return out
