"""Fully-connected ReLU networks as piecewise affine functions.

A scalar-output network ``h(x) = omega . z_L(x) + phi`` is analyzed through
*activation indicators*: one 0/1 bit per hidden neuron.  Fixing an
indicator selects a single affine piece ``w.x + b`` together with the
polyhedral region of inputs on which the network actually realizes that
activation pattern.

The per-neuron constraint rows are the neuron's pre-activation expressed as
an affine function of the input, obtained by pulling the (unmasked) weight
row back through the masked affine maps of the earlier layers.

An array of the wrong shape raises ProblemFormatError naming its layer; a
point, box or indicator of the wrong shape, a caller's fault, ValueError.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .config import BRANCH_CAP, TOL_ZERO
from .errors import CombinatorialBlowup, ProblemFormatError
from .geometry import Polyhedron


@dataclass(frozen=True)
class ActivationIndicator:
    """One 0/1 entry per hidden neuron, grouped by layer."""

    bits: tuple[tuple[int, ...], ...]
    _key: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _compact: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bits = tuple(tuple(map(int, layer)) for layer in self.bits)
        key = sum(bits, ())
        if not {0, 1}.issuperset(key):
            raise ValueError("indicator entries must be 0/1, got "
                             f"{next(v for v in key if v not in (0, 1))}")
        compact = ".".join("".join(map(str, layer)) for layer in bits)
        self.__dict__.update(bits=bits, _key=key, _compact=compact)   # frozen: no __setattr__

    def key(self) -> tuple[int, ...]:
        """Flattened layer-major bit tuple; the canonical sort key."""
        return self._key

    def flipped(self, bits) -> "ActivationIndicator":
        """This indicator with each of the given bits of its key flipped."""
        key = iter(v ^ (i in bits) for i, v in enumerate(self._key))
        return ActivationIndicator(tuple(tuple(itertools.islice(key, len(b))) for b in self.bits))

    def compact(self) -> str:
        """Human-readable form, layers joined by '.': e.g. '1010' or '10.01'."""
        return self._compact


class ReluNetwork:
    """Immutable scalar-output ReLU network.

    weights[i] has shape (M_i, M_{i-1}) with one row per neuron, biases[i]
    shape (M_i,); output_weights has shape (M_L,).
    """

    def __init__(self, weights, biases, output_weights, output_bias):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.output_weights = np.asarray(output_weights, dtype=float)
        self.output_bias = float(output_bias)
        if len(self.weights) == 0:
            raise ProblemFormatError("network needs at least one hidden layer")
        if len(self.weights) != len(self.biases):
            raise ProblemFormatError("weights/biases layer count mismatch")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1:
                raise ProblemFormatError(f"layer {i}: weights must be a matrix and bias a "
                                         f"vector, got shapes {w.shape} and {b.shape}")
            if i and w.shape[1] != prev:
                raise ProblemFormatError(
                    f"layer {i}: expected {prev} inputs, weight matrix has {w.shape[1]}")
            if b.shape[0] != w.shape[0]:
                raise ProblemFormatError(f"layer {i}: bias length {b.shape[0]} vs "
                                         f"{w.shape[0]} neurons")
            prev = w.shape[0]
        self.input_dim = self.weights[0].shape[1]
        if self.output_weights.ndim != 1:
            raise ProblemFormatError("output_weights must be a vector, got shape "
                                     f"{self.output_weights.shape}")
        if self.output_weights.shape[0] != prev:
            raise ProblemFormatError("output weight length does not match last layer")
        for arr in (*self.weights, *self.biases, self.output_weights):
            if not np.all(np.isfinite(arr)):
                raise ProblemFormatError("network parameters must be finite")

    # -- basic structure ---------------------------------------------------

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.weights)

    @property
    def num_neurons(self) -> int:
        return sum(self.layer_sizes)

    def _check_indicator(self, ind):
        if tuple(len(layer) for layer in ind.bits) != self.layer_sizes:
            raise ValueError(f"indicator layout {ind.bits} does not match "
                             f"layer sizes {self.layer_sizes}")

    # -- evaluation ----------------------------------------------------------

    def forward(self, x) -> float:
        """h(x) for a single point: a one-row `forward_many`."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.input_dim,):
            raise ValueError(f"input shape {x.shape}, expected ({self.input_dim},)")
        return float(self.forward_many(x[None])[0])

    def forward_many(self, xs) -> np.ndarray:
        """h over rows of xs, shape (m, n) -> (m,)."""
        z = np.asarray(xs, dtype=float)
        for w, b in zip(self.weights, self.biases):
            z = np.maximum(z @ w.T + b, 0.0)
        return z @ self.output_weights + self.output_bias

    # -- the affine piece of one indicator ------------------------------------

    def piece(self, ind: ActivationIndicator) -> tuple[Polyhedron, np.ndarray, float]:
        """(region, w, b): the polyhedron on which the network realizes ind
        and the affine piece ``h(x) = w.x + b`` it computes there: ind's
        entry of `pieces`.

        The region has one row per neuron in layer order: active neurons
        contribute ``-a.x <= c`` (pre-activation >= 0), inactive ones
        ``a.x <= -c``.  Duplicate rows are kept; `regions.build_valid_region`
        drops them.
        """
        A, d, w, b = self.pieces([ind])
        return Polyhedron(A[0], d[0]), w[0], float(b[0])

    def pieces(self, inds) -> tuple[np.ndarray, ...]:
        """(A, d, w, b) of `piece` for each indicator, stacked along a first
        axis, from one pass over the layers; each stacked product runs the
        one-indicator product's kernel on each slice."""
        for ind in inds:
            self._check_indicator(ind)
        n = self.input_dim
        wbar = np.eye(n)[None]    # columns = masked pullbacks, (K, n, M_prev) after layer one
        bbar = np.zeros((len(inds), n))
        rows, rhs = [], []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            mask = np.array([ind.bits[i] for ind in inds], dtype=float).reshape(len(inds), len(b))
            a = w @ wbar.transpose(0, 2, 1)          # (K, M_i, n) unmasked pullback rows
            c = (w @ bbar[..., None])[..., 0] + b    # (K, M_i)
            sign = np.where(mask == 1.0, -1.0, 1.0)
            rows.append(sign[..., None] * a)
            rhs.append(-sign * c)
            wbar = a.transpose(0, 2, 1) * mask[:, None, :]   # zero the inactive columns
            bbar = c * mask
        w = wbar @ self.output_weights
        b = (self.output_weights @ bbar[..., None])[..., 0] + self.output_bias
        return np.concatenate(rows, axis=1), np.concatenate(rhs, axis=1), w, b

    # -- indicators at a point, h's bounds over a box ---------------------------

    def feasible_indicators(self, x) -> list[ActivationIndicator]:
        """All indicators whose region contains x.

        A neuron whose |W_j.z + b_j| <= TOL_ZERO * max(1, |W_j|.|z| + |b_j|)
        (relative to the terms it sums) branches both ways, recomputing
        downstream pre-activations per branch since the mask changes what
        later layers see.  The depth-first walk branches in bit order, so the
        indicators come out distinct and in key order.  Raises
        CombinatorialBlowup when more than BRANCH_CAP neurons along one
        branch are ambiguous.
        """
        x = np.asarray(x, dtype=float)
        results: list[ActivationIndicator] = []

        def descend(layer, z, prefix, branched):
            if layer == len(self.weights):
                results.append(ActivationIndicator(prefix))
                return
            pre = self.weights[layer] @ z + self.biases[layer]
            size = np.abs(self.weights[layer]) @ np.abs(z) + np.abs(self.biases[layer])
            ambiguous = np.flatnonzero(np.abs(pre) <= TOL_ZERO * np.maximum(1.0, size))
            if branched + ambiguous.size > BRANCH_CAP:
                raise CombinatorialBlowup(
                    f"{branched + ambiguous.size} simultaneously-zero neurons "
                    f"exceed the cap of {BRANCH_CAP}")
            base = (pre > 0.0).astype(int)
            for combo in itertools.product((0, 1), repeat=ambiguous.size):
                bits = base.copy()
                bits[ambiguous] = combo
                z_next = np.where(bits == 1, pre, 0.0)
                descend(layer + 1, z_next, prefix + (tuple(bits.tolist()),),
                        branched + ambiguous.size)

        descend(0, x, (), 0)
        return results

    def ibp_bounds(self, box) -> tuple[float, float]:
        """An enclosure (lo, hi) of h over an input box, by interval bound
        propagation through the layers."""
        box = np.asarray(box, dtype=float)
        if box.shape != (self.input_dim, 2):
            raise ValueError(f"box shape {box.shape}, expected ({self.input_dim}, 2)")
        lo, hi = box[:, 0], box[:, 1]
        for w, b in zip(self.weights, self.biases):
            pre_lo, pre_hi = _affine_bounds(w, b, lo, hi)
            lo, hi = np.maximum(pre_lo, 0.0), np.maximum(pre_hi, 0.0)
        out_lo, out_hi = _affine_bounds(self.output_weights[None, :],
                                        np.array([self.output_bias]), lo, hi)
        return float(out_lo[0]), float(out_hi[0])


def _affine_bounds(w, b, lo, hi):
    """Bounds of w z + b over the box lo <= z <= hi."""
    w_pos, w_neg = np.maximum(w, 0.0), np.minimum(w, 0.0)
    return w_pos @ lo + w_neg @ hi + b, w_pos @ hi + w_neg @ lo + b


# -- JSON form ----------------------------------------------------------------

def network_from_json(data: dict) -> ReluNetwork:
    """Build a network from its JSON description.

    Format: {"input_dim": n, "layers": [{"weights": [[...]], "bias": [...]},
    ...], "output_weights": [...], "output_bias": f}
    """
    if not isinstance(data, dict):
        raise ProblemFormatError("network file must hold a JSON object")
    for key in ("input_dim", "layers", "output_weights", "output_bias"):
        if key not in data:
            raise ProblemFormatError(f"network description lacks {key!r}")
    declared = data["input_dim"]
    if not isinstance(declared, int) or isinstance(declared, bool):
        raise ProblemFormatError(f"'input_dim' must be an integer, got {declared!r}")
    layers = data["layers"]
    if not isinstance(layers, list) or not layers:
        raise ProblemFormatError("'layers' must be a nonempty list")
    weights, biases = [], []
    for i, layer in enumerate(layers):
        if not isinstance(layer, dict) or "weights" not in layer or "bias" not in layer:
            raise ProblemFormatError(f"layer {i} lacks 'weights' or 'bias'")
        weights.append(layer["weights"])
        biases.append(layer["bias"])
    try:
        net = ReluNetwork(weights, biases, data["output_weights"], data["output_bias"])
    except ProblemFormatError:
        raise
    except (TypeError, ValueError) as exc:   # from numpy: not numeric, or ragged
        raise ProblemFormatError(
            f"network arrays must be numeric and rectangular ({exc})") from exc
    if net.input_dim != declared:
        raise ProblemFormatError(
            f"declared input_dim {declared} but first layer takes {net.input_dim}")
    return net


def load_network(path) -> ReluNetwork:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"network file {path}: {exc}") from exc
    return network_from_json(data)
