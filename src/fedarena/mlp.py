"""Small fully connected classifier with analytic gradients.

Parameters live in one flat float64 vector (per layer: row-major weight
matrix, then bias), which is the unit every aggregation rule and attack
operates on. Hidden layers use ReLU, the final layer emits raw logits,
and the loss is mean softmax cross-entropy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyBatch, InvalidShapes


@dataclass(frozen=True)
class ModelParams:
    """Flat parameter vector plus the layer shapes needed to unflatten it."""

    flat: np.ndarray
    layer_shapes: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return self.flat.shape[0]

    @property
    def input_dim(self) -> int:
        return self.layer_shapes[0][0]

    @property
    def num_classes(self) -> int:
        return self.layer_shapes[-1][1]


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
    pieces = []
    for fi, fo in shapes:
        scale = np.sqrt(6.0 / (fi + fo))
        pieces.append(rng.uniform(-scale, scale, size=fi * fo))
        pieces.append(np.zeros(fo))
    return ModelParams(flat=np.concatenate(pieces), layer_shapes=shapes)


def unflatten(params: ModelParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the flat vector back into (weights, bias) per layer."""
    layers = []
    offset = 0
    for fi, fo in params.layer_shapes:
        W = params.flat[offset : offset + fi * fo].reshape(fi, fo)
        offset += fi * fo
        b = params.flat[offset : offset + fo]
        offset += fo
        layers.append((W, b))
    if offset != params.flat.shape[0]:
        raise InvalidShapes(f"flat length {params.flat.shape[0]} != layout {offset}")
    return layers


def flatten_layers(layers) -> np.ndarray:
    pieces = []
    for W, b in layers:
        pieces.append(np.asarray(W, dtype=np.float64).ravel())
        pieces.append(np.asarray(b, dtype=np.float64).ravel())
    return np.concatenate(pieces)


def forward(params: ModelParams, x) -> np.ndarray:
    """Logits for one example (1-D input) or a batch (2-D input)."""
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise DimensionMismatch(
            f"input shape {np.asarray(x).shape} incompatible with input_dim {params.input_dim}"
        )
    a = X
    layers = unflatten(params)
    for W, b in layers[:-1]:
        a = np.maximum(a @ W + b, 0.0)
    W, b = layers[-1]
    logits = a @ W + b
    return logits[0] if single else logits


def _check_batch(params: ModelParams, X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim == 1:
        X = X[None, :]
        y = y.reshape(1)
    if X.shape[0] == 0:
        raise EmptyBatch("batch is empty")
    if X.shape[1] != params.input_dim or y.shape[0] != X.shape[0]:
        raise DimensionMismatch(
            f"batch shapes {X.shape}/{y.shape} incompatible with model"
        )
    return X, y


def loss(params: ModelParams, X, y) -> float:
    """Mean softmax cross-entropy over the batch."""
    X, y = _check_batch(params, X, y)
    logits = forward(params, X)
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(len(y)), y]))


def _output_delta(layers, X, y):
    """Activations entering each layer, and d(per-example loss)/d(logits)."""
    acts = [X]
    a = X
    for W, b in layers[:-1]:
        a = np.maximum(a @ W + b, 0.0)
        acts.append(a)
    W, b = layers[-1]
    logits = acts[-1] @ W + b

    zmax = logits.max(axis=1, keepdims=True)
    ez = np.exp(logits - zmax)
    delta = ez / ez.sum(axis=1, keepdims=True)
    delta[np.arange(len(y)), y] -= 1.0
    return acts, delta


def _layer_deltas(layers, acts, delta):
    """Yield (layer input, output delta) per layer, last layer first."""
    for li in range(len(layers) - 1, -1, -1):
        yield acts[li], delta
        if li > 0:
            delta = delta @ layers[li][0].T
            delta[acts[li] <= 0.0] = 0.0


def gradient(params: ModelParams, X, y) -> np.ndarray:
    """Backprop gradient of loss() w.r.t. the flat parameter vector."""
    X, y = _check_batch(params, X, y)
    layers = unflatten(params)
    acts, delta = _output_delta(layers, X, y)
    delta /= len(y)
    grads = [(a_in.T @ d, d.sum(axis=0)) for a_in, d in _layer_deltas(layers, acts, delta)]
    grads.reverse()
    return flatten_layers(grads)


def per_example_gradients(params: ModelParams, X, y) -> np.ndarray:
    """(n, dim) matrix whose row i is gradient() on example i alone.

    One batched backprop: the per-example weight gradients are the outer
    products of each row's layer input and output delta. The mean of any
    subset of rows is the gradient on that subset, up to float rounding.
    """
    X, y = _check_batch(params, X, y)
    layers = unflatten(params)
    acts, delta = _output_delta(layers, X, y)
    n = len(y)
    pieces = []
    for a_in, d in _layer_deltas(layers, acts, delta):
        pieces.append(d)
        pieces.append((a_in[:, :, None] * d[:, None, :]).reshape(n, -1))
    pieces.reverse()
    return np.concatenate(pieces, axis=1)


def input_products(X, g, layer_shapes) -> np.ndarray:
    """(v, h) product of the examples X (v, d_in) with the first-layer
    weight block of the flat vector g: the change in X's first-layer
    pre-activation per unit step along g."""
    d_in, h = layer_shapes[0]
    return X @ g[: d_in * h].reshape(d_in, h)


def apply_update(params: ModelParams, g, lr: float) -> ModelParams:
    """One descent step: params - lr * g."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != params.flat.shape:
        raise DimensionMismatch(f"update shape {g.shape} != params {params.flat.shape}")
    return ModelParams(flat=params.flat - float(lr) * g, layer_shapes=params.layer_shapes)


def predict(params: ModelParams, x) -> int:
    """Predicted class for one example; ties go to the lowest class index."""
    return int(np.argmax(forward(params, np.asarray(x, dtype=np.float64))))


def predict_batch(params: ModelParams, X) -> np.ndarray:
    """Predicted class per row of X."""
    logits = forward(params, np.asarray(X, dtype=np.float64))
    if logits.ndim == 1:
        return np.array([int(np.argmax(logits))])
    return np.argmax(logits, axis=1)
