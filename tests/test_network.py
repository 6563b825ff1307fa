"""Rectifier network tests: forward pass, affine pieces, indicators, IBP."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relubarrier import (ActivationIndicator, CombinatorialBlowup, ProblemFormatError,
                         ReluNetwork, load_network, network_from_json)

from helpers import (deep_branching_net, diamond_net, network_to_json, random_hidden_net,
                     scaled_output)


def ind(*bits):
    return ActivationIndicator((tuple(bits),))


# -- forward -----------------------------------------------------------------------

def test_diamond_forward_values():
    net = diamond_net()
    assert net.forward(np.array([0.0, 0.0])) == pytest.approx(1.0)
    assert net.forward(np.array([3.0, 3.0])) == pytest.approx(-5.0)
    assert net.forward(np.array([1.0, 0.0])) == pytest.approx(0.0)


def test_forward_many_matches_forward():
    net = diamond_net()
    rng = np.random.default_rng(1)
    xs = rng.uniform(-2, 2, size=(50, 2))
    batch = net.forward_many(xs)
    assert np.allclose(batch, [net.forward(x) for x in xs])


# -- affine pieces --------------------------------------------------------------------

def test_affine_map_first_quadrant():
    net = diamond_net()
    _, w, b = net.piece(ind(1, 0, 1, 0))
    assert np.allclose(w, [-1.0, -1.0])
    assert b == pytest.approx(1.0)


def test_affine_map_opposite_quadrant():
    net = diamond_net()
    _, w, b = net.piece(ind(0, 1, 0, 1))
    assert np.allclose(w, [1.0, 1.0])
    assert b == pytest.approx(1.0)


def test_affine_map_all_masked():
    net = diamond_net()
    _, w, b = net.piece(ind(0, 0, 0, 0))
    assert np.allclose(w, 0.0)
    assert b == pytest.approx(net.output_bias)


def test_region_constraints_first_quadrant():
    net = diamond_net()
    region = net.piece(ind(1, 0, 1, 0))[0]
    # one row per neuron, duplicates kept
    assert region.num_rows == 4
    expected_a = np.array([[-1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, -1.0]])
    assert np.allclose(region.A, expected_a)
    assert np.allclose(region.d, 0.0)


def test_region_constraints_single_neuron():
    net = ReluNetwork([np.array([[1.0]])], [np.array([-1.0])],
                      np.array([1.0]), 0.0)
    region = net.piece(ActivationIndicator(((1,),)))[0]
    assert np.allclose(region.A, [[-1.0]])
    assert np.allclose(region.d, [-1.0])


def test_region_constraints_degenerate_region():
    net = diamond_net()
    region = net.piece(ind(1, 1, 1, 0))[0]
    # contains x1 >= 0 and x1 <= 0 simultaneously
    x_axis_point = np.array([0.0, 2.0])
    assert region.contains(x_axis_point)
    assert not region.contains(np.array([0.5, 2.0]))
    assert not region.contains(np.array([-0.5, 2.0]))


def test_piecewise_affine_consistency_on_fixture():
    net = diamond_net()
    rng = np.random.default_rng(3)
    for x in rng.uniform(-3, 3, size=(200, 2)):
        for c in net.feasible_indicators(x):
            region, w, b = net.piece(c)
            assert net.forward(x) == pytest.approx(w @ x + b, abs=1e-6)
            assert region.contains(x, tol=1e-7)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_piecewise_affine_consistency_random_nets(seed):
    rng = np.random.default_rng(seed)
    net = random_hidden_net(rng)
    for x in rng.uniform(-3, 3, size=(30, 2)):
        for c in net.feasible_indicators(x):
            region, w, b = net.piece(c)
            assert abs(net.forward(x) - (w @ x + b)) <= 1e-6
            assert region.contains(x, tol=1e-6)


# -- feasible indicators -----------------------------------------------------------

def test_feasible_indicators_generic_point():
    net = diamond_net()
    inds = net.feasible_indicators(np.array([1.0, 1.0]))
    assert inds == [ind(1, 0, 1, 0)]


def test_feasible_indicators_boundary_point_branches():
    net = diamond_net()
    inds = net.feasible_indicators(np.array([0.0, 1.0]))
    expected = {ind(a, b, 1, 0) for a in (0, 1) for b in (0, 1)}
    assert set(inds) == expected
    assert len(inds) == 4
    # canonical ordering
    assert inds == sorted(inds, key=lambda c: c.key())


def test_flipped_flips_each_given_key_bit_across_layers():
    """Bit i counts across layers: bit 2 of 10.01 is the second layer's first."""
    two = ActivationIndicator(((1, 0), (0, 1)))
    assert two.flipped((2,)) == ActivationIndicator(((1, 0), (1, 1)))
    assert [two.flipped(bits).compact() for bits in ((0,), (0, 1), (1, 3), (0, 1, 2, 3))] \
        == ["00.01", "01.01", "11.00", "01.10"]
    assert two.flipped(()) == two == two.flipped((1, 2)).flipped((1, 2))


def test_feasible_indicators_blowup_guard(monkeypatch):
    net = diamond_net()
    monkeypatch.setattr("relubarrier.network.BRANCH_CAP", 1)
    with pytest.raises(CombinatorialBlowup):
        net.feasible_indicators(np.array([0.0, 0.0]))


def test_deep_branching_recomputes_downstream():
    """Masking a zero-tolerance unit must flip the next layer's sign."""
    net = deep_branching_net()
    x = np.array([1e-10, 1.0])
    inds = net.feasible_indicators(x)   # TOL_ZERO = 1e-9
    assert len(inds) == 2
    second_layer_bits = {c.bits[1] for c in inds}
    assert second_layer_bits == {(0,), (1,)}
    for c in inds:
        # direct recomputation of the masked forward chain
        z = x
        for w, b, bits in zip(net.weights, net.biases, c.bits):
            pre = w @ z + b
            z = np.where(np.array(bits) == 1, pre, 0.0)
        # kept unit on: gain * 1e-10 - 50 = 50 > 0; masked: -50 < 0
        expected_bit = 1 if (c.bits[0][0] == 1) else 0
        assert c.bits[1][0] == expected_bit


def test_zero_tolerance_is_relative_to_the_terms_a_pre_activation_sums():
    """1e4 x - 1e4 sums terms of size 2e4, so it branches within 2e-5 of
    zero (TOL_ZERO = 1e-9 of that): at x = 1 + 1e-10 (about 1e-6) both
    ways, at x = 1 + 1e-8 (about 1e-4) only on."""
    net = ReluNetwork([np.array([[1e4]])], [np.array([-1e4])], np.array([1.0]), 0.0)
    assert [c.bits for c in net.feasible_indicators(np.array([1.0 + 1e-10]))] == \
        [((0,),), ((1,),)]
    assert [c.bits for c in net.feasible_indicators(np.array([1.0 + 1e-8]))] == [((1,),)]


# -- interval bound propagation -------------------------------------------------------

def test_ibp_output_encloses_h_on_samples():
    """ibp_bounds is sound: sampled h values lie inside its enclosure."""
    rng = np.random.default_rng(23)
    nets = [random_hidden_net(np.random.default_rng(seed)) for seed in range(6)]
    nets += [ReluNetwork([rng.normal(size=(3, 2)), rng.normal(size=(3, 3))],
                         [rng.normal(size=3), rng.normal(size=3)],
                         rng.normal(size=3), float(rng.normal())) for _ in range(4)]
    for net in nets:
        lo = rng.uniform(-2, 1, size=2)
        box = np.stack([lo, lo + rng.uniform(0, 1, size=2)], axis=1)
        out_lo, out_hi = net.ibp_bounds(box)
        values = net.forward_many(rng.uniform(box[:, 0], box[:, 1], size=(200, 2)))
        assert out_lo <= values.min() and values.max() <= out_hi


def test_ibp_output_of_a_point_box_is_h():
    net = diamond_net()
    x = np.array([0.3, -1.2])
    lo, hi = net.ibp_bounds(np.stack([x, x], axis=1))
    assert lo == hi == pytest.approx(net.forward(x))


# -- output scaling invariance ---------------------------------------------------------

def test_positive_scaling_preserves_indicators_and_regions():
    rng = np.random.default_rng(5)
    net = random_hidden_net(rng)
    scaled = scaled_output(net, 7.0)
    for x in rng.uniform(-3, 3, size=(40, 2)):
        a = net.feasible_indicators(x)
        b = scaled.feasible_indicators(x)
        assert a == b
        for c in a:
            (ra, wa, ba), (rb, wb, bb) = net.piece(c), scaled.piece(c)
            assert np.allclose(ra.A, rb.A) and np.allclose(ra.d, rb.d)
            assert np.allclose(7.0 * wa, wb)
            assert 7.0 * ba == pytest.approx(bb)


# -- serialization ------------------------------------------------------------------

def test_json_round_trip(tmp_path):
    net = diamond_net()
    data = network_to_json(net)
    again = network_from_json(data)
    assert all(np.allclose(a, b) for a, b in zip(net.weights, again.weights))
    assert np.allclose(net.output_weights, again.output_weights)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    loaded = load_network(path)
    assert loaded.forward(np.array([0.3, -0.2])) == pytest.approx(
        net.forward(np.array([0.3, -0.2])))


def test_missing_field_raises():
    with pytest.raises(ProblemFormatError, match="network description lacks"):
        network_from_json({"weights": [[[1.0]]], "biases": [[0.0]]})


def test_layer_shape_mismatch_raises():
    with pytest.raises(ProblemFormatError, match="layer 1: expected 2 inputs"):
        ReluNetwork([np.ones((2, 2)), np.ones((2, 3))],
                    [np.zeros(2), np.zeros(2)], np.ones(2), 0.0)


def test_indicator_layout_mismatch_raises():
    net = diamond_net()
    with pytest.raises(ValueError, match="indicator layout"):
        net.piece(ActivationIndicator(((1, 0),)))
