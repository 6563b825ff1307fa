"""SMT-LIB 2 emission of the per-region violation queries.

Each query asks a solver for a point on one region's level-set patch where
the condition under test fails strictly; unsat over all regions certifies
the condition on the enumerated component.  No solver is invoked: the text
can be archived or fed to any engine.  One renderer, `_export`, writes every
query; each region's conjuncts are rendered once per region object, held weakly.

Numbers are emitted exactly: integers as decimal literals, everything else
as the dyadic rational p/q of the double, so the formulas mean precisely
what the verifier computed with.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import DEFAULT_CONFIG, TOL_EQ, VerifierConfig
from .expressions import Binary, Const, DynamicsSystem, Expr, Pow, Unary, Var


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
    if isinstance(e, Binary):
        return f"({e.op} {expr_to_smt(e.left)} {expr_to_smt(e.right)})"
    if isinstance(e, Unary):
        return f"({e.name} {expr_to_smt(e.arg)})"
    if isinstance(e, Pow):
        return f"(^ {expr_to_smt(e.base)} {e.exponent})"
    raise TypeError(f"not an expression node: {e!r}")


def _has_transcendental(e: Expr) -> bool:
    if isinstance(e, Binary):
        return _has_transcendental(e.left) or _has_transcendental(e.right)
    if isinstance(e, Unary):
        return e.name != "-" or _has_transcendental(e.arg)
    if isinstance(e, Pow):
        return _has_transcendental(e.base)
    return False


def _affine_terms(coeffs, const) -> str:
    parts = [f"(* {format_number(c)} x{i + 1})" for i, c in enumerate(coeffs)]
    parts.append(format_number(const))
    return f"(+ {' '.join(parts)})" if len(parts) > 1 else parts[0]


_CONJUNCTS = weakref.WeakKeyDictionary()   # region -> its conjuncts, while the region lives


def _region_conjuncts(region, rows: dict) -> list[str]:
    """The region's hyperplane row, then its touching rows, rendered at its
    first export (rows: this call's texts by (a.tobytes(), d)); never changed."""
    if (conj := _CONJUNCTS.get(region)) is None:
        conj = [f"(= {_affine_terms(region.slice.w, region.slice.b)} 0)"]
        for a, d in zip(region.slice.A, region.slice.d):   # the rows touching the slice
            if (key := (a.tobytes(), d)) not in rows:
                rows[key] = f"(<= {_affine_terms(a, 0.0)} {format_number(d)})"
            conj.append(rows[key])
        _CONJUNCTS[region] = conj
    return conj


def export_invariance(regions, sys: DynamicsSystem,
                      cfg: VerifierConfig = DEFAULT_CONFIG,
                      mode: str = "per-region",
                      domain_box=None) -> list[SmtQuery]:
    """Violation queries for the invariance condition.

    per-region mode yields one query per region; monolithic mode a single
    disjunction over all regions.  unsat everywhere means the condition
    holds on the enumerated component.  Raises ValueError on an empty list.
    """
    transcendental = any(_has_transcendental(e) for e in sys.exprs)
    texts = [expr_to_smt(e) for e in sys.exprs]   # each component rendered once
    def violation(r):   # w.f: nonzero terms summed from the left, the empty sum 0
        terms = [f"(* {format_number(c)} {t})" for c, t in zip(r.slice.w, texts) if c != 0.0]
        return f"(< {functools.reduce(lambda a, t: f'(+ {a} {t})', terms) if terms else '0'} 0)"
    return _export(regions, violation, "invariance", sys.dim, transcendental,
                   cfg, mode, domain_box)


def export_set_condition(regions, set_expr: Expr, which: str, dim: int,
                         cfg: VerifierConfig = DEFAULT_CONFIG,
                         mode: str = "per-region",
                         domain_box=None) -> list[SmtQuery]:
    """Violation queries for patch contact with {set_expr > 0}."""
    if which not in ("initial", "unsafe"):
        raise ValueError(f"which must be 'initial' or 'unsafe', got {which!r}")
    violation = f"(> {expr_to_smt(set_expr)} 0)"
    return _export(regions, lambda _r: violation, which, dim,
                   _has_transcendental(set_expr), cfg, mode, domain_box)


def _export(regions, violation, kind, dim, transcendental, cfg, mode, domain_box):
    """The queries of one export: the preamble (tolerances, domain-box note,
    logic, declarations) built once, each region's (and ...) body (its
    conjuncts, the box rows, violation(region)) and either one query per
    region or one disjunction.  A set function, each flow component of w.f
    and the box rows are rendered once per call, each region's conjuncts once
    per region object (held weakly), sharing a call's distinct touching rows."""
    if mode not in ("per-region", "monolithic"):
        raise ValueError(f"mode must be 'per-region' or 'monolithic', got {mode!r}")
    if not regions:   # an empty disjunction is false: unsat would certify nothing
        raise ValueError(f"{kind} export over an empty region list")
    preamble = [f"; tolerances: tol_feas={cfg.tol_feas:g} tol_eq={TOL_EQ:g} "
                f"tol_margin={cfg.tol_margin:g}"]
    if domain_box is not None:
        preamble.append("; domain box asserted as additional constraints")
    preamble.append("; logic: QF_NRA extended with transcendental functions (sin cos tanh exp "
                    "ln); use a delta-capable solver" if transcendental else "(set-logic QF_NRA)")
    preamble += [f"(declare-fun x{i + 1} () Real)" for i in range(dim)]
    box = [] if domain_box is None else [
        f"({op} x{i + 1} {format_number(v)})"
        for i, (lo, hi) in enumerate(domain_box) for op, v in (("<=", hi), (">=", lo))]
    rows = {}
    bodies = [f"(and {' '.join([*_region_conjuncts(r, rows), *box, violation(r)])})"
              for r in regions]
    labels = [r.indicator.compact() for r in regions]
    logic = "QF_NRA+transcendental" if transcendental else "QF_NRA"

    def query(ids, body, filename):
        label = ",".join(labels[i] for i in ids)
        lines = [f"; relubarrier {__version__} {kind} query", f"; mode: {mode}",
                 f"; regions: {label}", *preamble, f"(assert {body})", "(check-sat)"]
        return SmtQuery(text="\n".join(lines) + "\n", mode=mode, logic_tag=logic,
                        region_ids=list(ids), filename=filename)

    if mode == "monolithic":
        body = bodies[0] if len(bodies) == 1 else f"(or {' '.join(bodies)})"
        return [query(range(len(regions)), body, f"{kind}.smt2")]
    return [query([i], body, f"{kind}_region_{i:03d}.smt2") for i, body in enumerate(bodies)]
