"""SMT-LIB export: query structure, exact numeric literals, and agreement
with the LP route on affine fixtures (decided by evaluating the emitted
text at candidate points)."""

import json
import pathlib
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relubarrier import (__version__, smtlib, ActivationIndicator, DynamicsSystem,
                         boundary_propagation, build_valid_region,
                         check_invariance, export_invariance,
                         export_set_condition, format_number,
                         parse_expression, FALSIFIED, VERIFIED, Polyhedron)

from helpers import (affine_system, diamond_net, random_hidden_net, slice_grid, strip_net,
                     weighted_sum)


def diamond_regions():
    net = diamond_net()
    seed = build_valid_region(net, ActivationIndicator(((1, 0, 1, 0),)))
    return boundary_propagation(net, seed).regions


MINUS_X = DynamicsSystem.parse(["-x1", "-x2"], dim=2)
DRIFT = DynamicsSystem.parse(["1", "0"], dim=2)


# -- a tiny s-expression evaluator, the independent read-back oracle -------------

def _tokenize(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_sexp(tokens, pos=0):
    if tokens[pos] != "(":
        return tokens[pos], pos + 1
    out = []
    pos += 1
    while tokens[pos] != ")":
        node, pos = _parse_sexp(tokens, pos)
        out.append(node)
    return out, pos + 1


_FUNCS = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh,
          "exp": np.exp, "ln": np.log}


def _eval_sexp(node, env, tol):
    if isinstance(node, str):
        if node in env:
            return env[node]
        return float(node)
    op, args = node[0], [_eval_sexp(a, env, tol) for a in node[1:]]
    if op == "+":
        return sum(args)
    if op == "-":
        return -args[0] if len(args) == 1 else args[0] - args[1]
    if op == "*":
        out = 1.0
        for a in args:
            out *= a
        return out
    if op == "/":
        return args[0] / args[1]
    if op == "^":
        return args[0] ** args[1]
    if op == "=":
        return abs(args[0] - args[1]) <= tol
    if op == "<=":
        return args[0] <= args[1] + tol
    if op == ">=":
        return args[0] >= args[1] - tol
    if op == "<":
        return args[0] < args[1]
    if op == ">":
        return args[0] > args[1]
    if op == "and":
        return all(args)
    if op == "or":
        return any(args)
    if op in _FUNCS:
        return float(_FUNCS[op](args[0]))
    raise ValueError(f"unknown operator {op}")


def query_holds_at(query, point, tol=1e-6):
    """Evaluate the query's asserted formula at a point."""
    asserts = [ln for ln in query.text.splitlines()
               if ln.startswith("(assert ")]
    assert len(asserts) == 1
    tokens = _tokenize(asserts[0])
    node, _ = _parse_sexp(tokens)
    body = node[1]
    env = {f"x{i + 1}": float(v) for i, v in enumerate(point)}
    return bool(_eval_sexp(body, env, tol))


# -- structure -------------------------------------------------------------------

def test_per_region_export_one_query_each():
    regions = diamond_regions()
    queries = export_invariance(regions, MINUS_X)
    assert len(queries) == 4
    for i, q in enumerate(queries):
        assert q.mode == "per-region"
        assert q.region_ids == [i]
        assert q.filename == f"invariance_region_{i:03d}.smt2"
        assert q.logic_tag == "QF_NRA"


def test_query_text_frozen_structure():
    regions = diamond_regions()
    q = export_invariance(regions, MINUS_X)[0]
    text = q.text
    assert "(set-logic QF_NRA)" in text
    assert "(declare-fun x1 () Real)" in text
    assert "(declare-fun x2 () Real)" in text
    assert text.count("(assert ") == 1
    assert text.rstrip().endswith("(check-sat)")
    # level-set membership is an equality over the region's affine piece
    assert "(= (+ (* " in text
    # the violation is a strict sign condition on the weighted flow
    assert "(< " in text
    # region rows appear as non-strict inequalities
    assert "(<= (+ (* " in text


def test_first_quadrant_equality_row():
    net = diamond_net()
    region = build_valid_region(net, ActivationIndicator(((1, 0, 1, 0),)))
    q = export_invariance([region], MINUS_X)[0]
    # w = (-1,-1), b = 1 on the first-quadrant piece
    assert "(= (+ (* (- 1) x1) (* (- 1) x2) 1) 0)" in q.text


def test_violation_term_for_drift_field():
    net = diamond_net()
    region = build_valid_region(net, ActivationIndicator(((1, 0, 1, 0),)))
    q = export_invariance([region], DRIFT)[0]
    # w.f = (-1)*1 + (-1)*0; the zero-weight convention keeps nonzero w terms
    assert "(< (+ (* (- 1) 1) (* (- 1) 0)) 0)" in q.text


def test_zero_weight_component_dropped():
    net = strip_net()
    region = build_valid_region(net, ActivationIndicator(((1, 0),)))
    sys = DynamicsSystem.parse(["-x1", "sin(x2)"], dim=2)
    q = export_invariance([region], sys)[0]
    # w = (-1, 0): the x2 flow never enters the objective
    assert "sin" not in q.text.split("; logic:")[-1] or "(sin x2)" not in \
        q.text.split("(assert")[1]


def test_degenerate_region_trivial_violation():
    from relubarrier import ReluNetwork
    net = ReluNetwork([np.array([[1.0, 0.0], [1.0, 0.0]])], [np.zeros(2)],
                      np.array([1.0, -1.0]), 0.0)
    region = build_valid_region(net, ActivationIndicator(((1, 1),)))
    assert region is not None and region.degenerate
    q = export_invariance([region], MINUS_X)[0]
    assert "(< 0 0)" in q.text


def test_monolithic_is_one_disjunction():
    regions = diamond_regions()
    queries = export_invariance(regions, MINUS_X, mode="monolithic")
    assert len(queries) == 1
    q = queries[0]
    assert q.filename == "invariance.smt2"
    assert q.region_ids == [0, 1, 2, 3]
    body = q.text.split("(assert ", 1)[1]
    assert body.startswith("(or ")
    assert body.count("(and ") == 4


def test_set_condition_violation_signs():
    regions = diamond_regions()
    h = parse_expression("0.04 - x1^2 - x2^2", 2)
    qi = export_set_condition(regions, h, "initial", 2)[0]
    qu = export_set_condition(regions, h, "unsafe", 2)[0]
    for q in (qi, qu):
        assert "(> (- (- " in q.text or "(> " in q.text
        assert "(< " not in q.text.split("(assert")[1]
    assert qi.filename.startswith("initial_region_")
    assert qu.filename.startswith("unsafe_region_")
    with pytest.raises(ValueError):
        export_set_condition(regions, h, "bogus", 2)


def test_invalid_mode_rejected():
    regions = diamond_regions()
    with pytest.raises(ValueError):
        export_invariance(regions, MINUS_X, mode="split")


@pytest.mark.parametrize("mode", ["per-region", "monolithic"])
@pytest.mark.parametrize("export", [
    lambda mode: export_invariance([], MINUS_X, mode=mode),
    lambda mode: export_set_condition([], parse_expression("x1", 2), "initial", 2, mode=mode),
], ids=["invariance", "set-condition"])
def test_export_over_no_regions_raises(export, mode):
    """A solver reads an empty disjunction as false, so its unsat would
    certify a condition over nothing."""
    with pytest.raises(ValueError, match="empty region list"):
        export(mode)


def test_transcendental_dynamics_swap_logic_for_comment():
    regions = diamond_regions()
    sys = DynamicsSystem.parse(["-x1 * (1 + sin(x2)^2)", "-x2"], dim=2)
    q = export_invariance(regions, sys)[0]
    assert q.logic_tag == "QF_NRA+transcendental"
    assert "(set-logic" not in q.text
    assert "delta-capable" in q.text


def test_domain_box_rows_added_when_requested():
    regions = diamond_regions()
    box = [(-3.0, 3.0), (-3.0, 3.0)]
    q = export_invariance(regions[:1], MINUS_X, domain_box=box)[0]
    assert "(<= x1 3)" in q.text
    assert "(>= x1 (- 3))" in q.text
    assert "(<= x2 3)" in q.text
    assert "; domain box asserted" in q.text


def test_diamond_export_matches_its_golden_texts():
    """Every byte of the diamond's invariance and initial-set queries, one
    per region and one disjunction, with a domain box asserted."""
    golden = json.loads((pathlib.Path(__file__).parent / "golden" / "diamond_export.json").read_text())
    regions = diamond_regions()
    flow = DynamicsSystem.parse(["-x1", "x1 - x2^3"], dim=2)
    h_init = parse_expression("0.04 - x1^2 - (x2 - 0.5)^2", 2)
    box = ((-3.0, 3.0), (-2.0, 2.5))
    queries = [q for mode in ("per-region", "monolithic")
               for q in export_invariance(regions, flow, mode=mode, domain_box=box)
               + export_set_condition(regions, h_init, "initial", 2, mode=mode, domain_box=box)]
    assert {q.filename: q.text for q in queries} == {
        name: text.replace("{version}", __version__) for name, text in golden.items()}


def test_set_condition_export_renders_the_set_function_once(monkeypatch):
    """The set function's text is the same in every region's violation, so
    one export renders it once, in either mode."""
    h_init = parse_expression("0.04 - x1^2 - x2^2", 2)
    calls = []
    render = smtlib.expr_to_smt
    monkeypatch.setattr(smtlib, "expr_to_smt", lambda e: calls.append(e) or render(e))
    for mode in ("per-region", "monolithic"):
        calls.clear()
        assert len(export_set_condition(diamond_regions(), h_init, "initial", 2, mode=mode)) \
            == (4 if mode == "per-region" else 1)
        assert sum(e is h_init for e in calls) == 1


@pytest.mark.parametrize("w", [[2.5, 0.0, -1.0], [0.0, -0.1, 0.0], [0.0, 0.0, 0.0],
                               [1.0, 3.0, 0.5]],
                         ids=["zero-weight", "single-weight", "all-zero", "three-terms"])
def test_invariance_violation_is_the_weighted_sum_rendered(w):
    """A region's w.f text is the rendering of w.f built as one expression:
    zero weights left out, (+ ...) nested from the left, the empty sum 0."""
    sys = DynamicsSystem.parse(["x1 * x2", "sin(x3)", "-x1 + 2"], dim=3)
    region = SimpleNamespace(indicator=ActivationIndicator(((1,),)),
                             slice=Polyhedron(np.empty((0, 3)), np.empty(0), np.array(w), 0.5))
    query, = export_invariance([region], sys)
    violation = f"(< {smtlib.expr_to_smt(weighted_sum(w, sys.exprs))} 0)"
    assert query.text.endswith(f" {violation}))\n(check-sat)\n")
    assert (violation == "(< 0 0)") == (w == [0.0, 0.0, 0.0])


def test_invariance_export_renders_each_flow_component_once(monkeypatch):
    """Every region weighs the same flow components, so one export renders
    each of them once, in either mode."""
    calls = []
    render = smtlib.expr_to_smt
    monkeypatch.setattr(smtlib, "expr_to_smt", lambda e: calls.append(e) or render(e))
    for mode in ("per-region", "monolithic"):
        calls.clear()
        assert len(export_invariance(diamond_regions(), MINUS_X, mode=mode)) \
            == (4 if mode == "per-region" else 1)
        assert [sum(e is f for e in calls) for f in MINUS_X.exprs] == [1, 1]


def test_export_is_byte_deterministic():
    a = export_invariance(diamond_regions(), MINUS_X)
    b = export_invariance(diamond_regions(), MINUS_X)
    assert [q.text for q in a] == [q.text for q in b]
    qa = export_set_condition(diamond_regions(),
                              parse_expression("0.04 - x1^2 - x2^2", 2),
                              "initial", 2, mode="monolithic")
    qb = export_set_condition(diamond_regions(),
                              parse_expression("0.04 - x1^2 - x2^2", 2),
                              "initial", 2, mode="monolithic")
    assert qa[0].text == qb[0].text


# -- numeric literals -------------------------------------------------------------

def test_format_number_frozen_examples():
    assert format_number(2.0) == "2"
    assert format_number(-3.0) == "(- 3)"
    assert format_number(0.0) == "0"
    assert format_number(0.5) == "(/ 1 2)"
    assert format_number(2.5) == "(/ 5 2)"
    assert format_number(-0.1) == "(- (/ 3602879701896397 36028797018963968))"


@given(st.floats(allow_nan=False, allow_infinity=False,
                 min_value=-1e12, max_value=1e12))
@settings(max_examples=300, deadline=None)
def test_format_number_round_trips_exactly(v):
    text = format_number(v)
    neg = text.startswith("(- ")
    core = text[3:-1] if neg else text
    if core.startswith("(/ "):
        p, q = core[3:-1].split()
        value = Fraction(int(p), int(q))
    else:
        value = Fraction(int(core))
    if neg:
        value = -value
    assert value == Fraction(v)


# -- agreement with the LP route --------------------------------------------------

def test_falsified_query_holds_at_lp_witness():
    regions = diamond_regions()
    queries = export_invariance(regions, DRIFT)
    hit_any = False
    for q, region in zip(queries, regions):
        verdict = check_invariance(diamond_net(), [region], DRIFT).region_verdicts[0]
        if verdict.status == FALSIFIED:
            hit_any = True
            assert query_holds_at(q, verdict.witness)
    assert hit_any


def test_verified_query_fails_at_every_slice_sample():
    regions = diamond_regions()
    queries = export_invariance(regions, MINUS_X)
    for q, region in zip(queries, regions):
        verdict = check_invariance(diamond_net(), [region], MINUS_X).region_verdicts[0]
        assert verdict.status == VERIFIED
        for point in slice_grid(region, 500):
            assert not query_holds_at(q, point)


def test_query_rejects_points_outside_region():
    regions = diamond_regions()
    q = export_invariance(regions[:1], DRIFT)[0]
    # far from the level set: the equality conjunct fails
    assert not query_holds_at(q, np.array([2.0, 2.0]))
    assert not query_holds_at(q, np.array([0.0, 0.0]))


def test_lp_cross_validation_random_affine_systems():
    """Per-region queries decided by reading back the emitted text agree
    with the LP verdicts whenever the optimum is clear of the gate."""
    rng = np.random.default_rng(77)
    nets = [diamond_net()] + [random_hidden_net(rng) for _ in range(6)]
    checked = 0
    for net in nets:
        from relubarrier import brute_force_valid_regions
        indicators = brute_force_valid_regions(net)
        regions = [build_valid_region(net, ind) for ind in indicators]
        regions = [r for r in regions if not r.degenerate]
        if not regions:
            continue
        sys = affine_system(rng.normal(size=(2, 2)), rng.normal(size=2))
        queries = export_invariance(regions, sys)
        for q, region in zip(queries, regions):
            verdict = check_invariance(net, [region], sys).region_verdicts[0]
            if verdict.bound is None or abs(verdict.bound) <= 1e-5:
                continue
            checked += 1
            if verdict.status == FALSIFIED:
                assert query_holds_at(q, verdict.witness)
            else:
                for point in slice_grid(region, 200):
                    assert not query_holds_at(q, point)
    assert checked >= 10
