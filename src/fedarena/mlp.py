"""Small fully connected classifier with analytic gradients.

Parameters live in one flat float64 vector, laid out per layer as
`split_layers` states, which is the unit every aggregation rule and
attack operates on. Hidden layers use ReLU, the final layer emits raw
logits, and the loss is mean softmax cross-entropy.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EmptyBatch, InvalidShapes


@dataclass(frozen=True)
class ModelParams:
    """Flat parameter vector plus the layer shapes that split it."""

    flat: np.ndarray
    layer_shapes: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return self.flat.shape[0]

    @property
    def input_dim(self) -> int:
        return self.layer_shapes[0][0]

    @cached_property
    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """split_layers of `flat`, once per model: (weights, bias) views
        into `flat`, which every forward and backprop pass reads."""
        return tuple(split_layers(self.flat, self.layer_shapes))


def init_params(layer_shapes, seed: int) -> ModelParams:
    """Glorot-uniform weights (scale sqrt(6/(fan_in+fan_out))), zero biases."""
    shapes = tuple((int(fi), int(fo)) for fi, fo in layer_shapes)
    if not shapes:
        raise InvalidShapes("need at least one layer")
    for fi, fo in shapes:
        if fi < 1 or fo < 1:
            raise InvalidShapes(f"layer shape ({fi}, {fo}) must be positive")
    for (_, fo), (fi, _) in zip(shapes, shapes[1:]):
        if fo != fi:
            raise InvalidShapes(f"layer output {fo} does not feed next input {fi}")
    rng = np.random.default_rng(seed)
    layers = []
    for fi, fo in shapes:
        scale = np.sqrt(6.0 / (fi + fo))
        layers.append((rng.uniform(-scale, scale, size=(fi, fo)), np.zeros(fo)))
    return ModelParams(flat=flatten_layers(layers), layer_shapes=shapes)


def split_layers(V, layer_shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weights (..., fi, fo), bias (..., fo)) views of one flat
    parameter vector V (dim,) or a stack of them (..., dim). The layout:
    per layer, the row-major weight matrix, then the bias."""
    dim = sum(fi * fo + fo for fi, fo in layer_shapes)
    if V.shape[-1] != dim:
        raise InvalidShapes(f"flat length {V.shape[-1]} != layout {dim}")
    layers = []
    offset = 0
    for fi, fo in layer_shapes:
        end = offset + fi * fo
        layers.append((V[..., offset:end].reshape(V.shape[:-1] + (fi, fo)), V[..., end : end + fo]))
        offset = end + fo
    return layers


def flatten_layers(layers) -> np.ndarray:
    """The flat vector whose split_layers views are `layers`."""
    flat = np.zeros(sum(np.size(W) + np.size(b) for W, b in layers))
    for (W, b), (W_to, b_to) in zip(layers, split_layers(flat, [np.shape(W) for W, _ in layers])):
        W_to[:] = W
        b_to[:] = b
    return flat


def _forward(layers, X):
    """Activations entering each layer, and the logits, for one batch X
    (B, d_in) or a stack of batches (K, B, d_in)."""
    acts = [X]
    for W, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ W + b, 0.0))
    W, b = layers[-1]
    return acts, acts[-1] @ W + b


def _check_batch(params: ModelParams, X, y=None):
    """The batch contract: X a non-empty (rows, input_dim) float64 array,
    and its labels y, when given, int64 of shape (rows,). One example is a
    1-row batch."""
    X = np.asarray(X, dtype=np.float64)
    y = None if y is None else np.asarray(y, dtype=np.int64)
    if X.ndim == 2 and X.shape[0] == 0:
        raise EmptyBatch("batch is empty")
    if X.shape[1:] != (params.input_dim,) or (y is not None and y.shape != X.shape[:1]):
        raise DimensionMismatch(
            f"batch shapes {X.shape}/{np.shape(y)} incompatible with input_dim {params.input_dim}"
        )
    return X, y


def forward(params: ModelParams, X) -> np.ndarray:
    """Logits for the batch X (n, d_in)."""
    return _forward(params.layers, _check_batch(params, X)[0])[1]


def loss(params: ModelParams, X, y) -> float:
    """Mean softmax cross-entropy over the batch."""
    X, y = _check_batch(params, X, y)
    logits = _forward(params.layers, X)[1]
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(len(y)), y]))


def _output_delta(layers, X, y):
    """Activations entering each layer, and d(per-example loss)/d(logits),
    for one batch X (B, d_in) or a stack of batches (K, B, d_in)."""
    acts, logits = _forward(layers, X)
    zmax = logits.max(axis=-1, keepdims=True)
    ez = np.exp(logits - zmax)
    delta = ez / ez.sum(axis=-1, keepdims=True)
    rows = delta.reshape(-1, delta.shape[-1])  # a view: delta is fresh
    rows[np.arange(rows.shape[0]), y.reshape(-1)] -= 1.0
    return acts, delta


def _layer_deltas(layers, acts, delta):
    """Yield (layer input, output delta) per layer, last layer first."""
    for li in range(len(layers) - 1, -1, -1):
        yield acts[li], delta
        if li > 0:
            delta = delta @ layers[li][0].T
            delta[acts[li] <= 0.0] = 0.0


def _backprop(params: ModelParams, X, y) -> np.ndarray:
    """Gradient of the mean loss per batch, for one checked batch X (B, d_in)
    (a (dim,) vector) or a stack of them (K, B, d_in) (a (K, dim) matrix).
    Every stacked op acts on each batch as it would on that batch alone."""
    layers = params.layers
    acts, delta = _output_delta(layers, X, y)
    delta /= y.shape[-1]
    lead = X.shape[:-2]
    pieces = []
    for a_in, d in _layer_deltas(layers, acts, delta):
        pieces.append(d.sum(axis=-2))
        pieces.append((a_in.swapaxes(-1, -2) @ d).reshape(lead + (-1,)))
    pieces.reverse()
    return np.concatenate(pieces, axis=-1)


def gradient(params: ModelParams, X, y) -> np.ndarray:
    """Backprop gradient of loss() w.r.t. the flat parameter vector: the
    `gradients` kernel on one batch."""
    X, y = _check_batch(params, X, y)
    return _backprop(params, X, y)


def gradients(params: ModelParams, Xs, ys) -> np.ndarray:
    """(K, dim) matrix whose row k is gradient(params, Xs[k], ys[k]), bit for
    bit, for K equal-size batches Xs (K, B, d_in) and labels ys (K, B), in
    one backprop."""
    Xs = np.asarray(Xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.int64)
    if Xs.ndim != 3 or Xs.shape[2] != params.input_dim or ys.shape != Xs.shape[:2]:
        raise DimensionMismatch(
            f"stacked batch shapes {Xs.shape}/{ys.shape} incompatible with model"
        )
    if Xs.shape[1] == 0:
        raise EmptyBatch("batches are empty")
    return _backprop(params, Xs, ys)


def per_example_products(params: ModelParams, X, y, V) -> tuple[np.ndarray, np.ndarray]:
    """(P @ V.T, P @ P.T) for the (n, dim) matrix P whose row i is
    gradient() on example i alone, without forming P.

    One batched backprop. Row i's weight block in a layer is the outer
    product of its layer input a_i and output delta d_i, and its bias block
    is d_i. So its product with a row of V is a_i @ V_W @ d_i + d_i . v_b
    per layer, and two rows' product is (a_i . a_j)(d_i . d_j) + d_i . d_j.
    The mean of any subset of P's rows is the gradient on that subset, up
    to float rounding.
    """
    X, y = _check_batch(params, X, y)
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[1] != params.dim:
        raise DimensionMismatch(f"V shape {V.shape} incompatible with dim {params.dim}")
    layers = params.layers
    acts, delta = _output_delta(layers, X, y)
    PV = np.zeros((len(y), V.shape[0]))
    PP = np.zeros((len(y), len(y)))
    V_layers = reversed(split_layers(V, params.layer_shapes))
    for (a_in, d), (V_W, V_b) in zip(_layer_deltas(layers, acts, delta), V_layers):
        PV += np.einsum("rno,no->nr", a_in @ V_W, d) + d @ V_b.T
        DD = d @ d.T
        PP += (a_in @ a_in.T) * DD + DD
    return PV, PP


def input_products(X, g, layer_shapes) -> np.ndarray:
    """(v, h) first-layer product X @ W1(g) + b1(g) of the examples X
    (v, d_in) with the flat vector g, or the (..., v, h) stack of them for
    a stack of vectors g (..., dim): the change in X's first-layer
    pre-activation per unit step along g, and under a model's own vector
    that pre-activation."""
    W, b = split_layers(g, layer_shapes)[0]
    return X @ W + b[..., None, :]


def apply_update(params: ModelParams, g, lr: float) -> ModelParams:
    """One descent step: params - lr * g."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != params.flat.shape:
        raise DimensionMismatch(f"update shape {g.shape} != params {params.flat.shape}")
    return ModelParams(flat=params.flat - float(lr) * g, layer_shapes=params.layer_shapes)


def predict_batch(params: ModelParams, X) -> np.ndarray:
    """Predicted class per row of the batch X (n, d_in); ties go to the
    lowest class index."""
    return np.argmax(forward(params, X), axis=1)
