import math

import numpy as np
import pytest

from conftest import perturbed, random_batch, tiny_net
from fedarena import mlp
from fedarena.aggregation import fang_filter
from fedarena.attacks import passive_infer
from fedarena.engine import test_accuracy as model_test_accuracy
from fedarena.errors import (
    DimensionMismatch,
    EmptyBatch,
    EmptySet,
    EmptyValidationSet,
    InvalidShapes,
)


def fd_gradient(params, X, y, step=1e-5):
    """Central finite differences, step scaled by parameter magnitude."""
    out = np.empty(params.dim)
    for i in range(params.dim):
        h = step * (1.0 + abs(params.flat[i]))
        up = params.flat.copy()
        up[i] += h
        dn = params.flat.copy()
        dn[i] -= h
        out[i] = (
            mlp.loss(mlp.ModelParams(up, params.layer_shapes), X, y)
            - mlp.loss(mlp.ModelParams(dn, params.layer_shapes), X, y)
        ) / (2 * h)
    return out

DESK_SHAPES = ((64, 32), (32, 3))


class TestInit:
    def test_deterministic(self):
        a = mlp.init_params(((4, 8), (8, 3)), seed=5)
        b = mlp.init_params(((4, 8), (8, 3)), seed=5)
        assert np.array_equal(a.flat, b.flat)

    def test_biases_zero(self):
        p = mlp.init_params(((4, 8), (8, 3)), seed=1)
        for _, b in p.layers:
            assert np.all(b == 0.0)

    def test_seeds_differ(self):
        a = mlp.init_params(((4, 8), (8, 3)), seed=1)
        b = mlp.init_params(((4, 8), (8, 3)), seed=2)
        assert np.any(a.flat != b.flat)

    def test_weight_scale(self):
        p = mlp.init_params(((100, 50),), seed=0)
        W, _ = p.layers[0]
        s = math.sqrt(6.0 / 150)
        assert np.all(np.abs(W) <= s)

    def test_bad_chain(self):
        with pytest.raises(InvalidShapes):
            mlp.init_params(((4, 8), (7, 3)), seed=0)
        with pytest.raises(InvalidShapes):
            mlp.init_params((), seed=0)

    def test_roundtrip_flat_layers(self, rng):
        p = perturbed(tiny_net(), 0.5, rng)
        again = mlp.flatten_layers(p.layers)
        assert np.array_equal(p.flat, again)


class TestSplitLayers:
    SHAPES = (((6, 8), (8, 3)), ((5, 7), (7, 6), (6, 4)), ((4, 3),))

    def test_views_of_a_vector(self, rng):
        for shapes in self.SHAPES:
            p = perturbed(mlp.init_params(shapes, seed=1), 0.3, rng)
            layers = mlp.split_layers(p.flat, shapes)
            assert [(W.shape, b.shape) for W, b in layers] == [((fi, fo), (fo,)) for fi, fo in shapes]
            assert all(np.shares_memory(W, p.flat) and np.shares_memory(b, p.flat) for W, b in layers)
            assert np.array_equal(mlp.flatten_layers(layers), p.flat)

    def test_views_of_a_stack(self, rng):
        for shapes in self.SHAPES:
            dim = mlp.init_params(shapes, seed=0).dim
            G = rng.normal(size=(5, dim))
            layers = mlp.split_layers(G, shapes)
            for (W, b), (fi, fo) in zip(layers, shapes):
                assert W.shape == (5, fi, fo) and b.shape == (5, fo)
                assert np.shares_memory(W, G) and np.shares_memory(b, G)
            for k in range(5):  # row k's layers are the stack's k-th views
                for (W, b), (W_k, b_k) in zip(layers, mlp.split_layers(G[k], shapes)):
                    assert np.array_equal(W[k], W_k) and np.array_equal(b[k], b_k)

    def test_wrong_length(self):
        dim = tiny_net().dim
        for V in (np.zeros(dim - 1), np.zeros(dim + 1), np.zeros((3, dim + 2))):
            with pytest.raises(InvalidShapes):
                mlp.split_layers(V, tiny_net().layer_shapes)


class TestInputProducts:
    def test_a_models_product_is_its_first_layer(self, rng):
        # a one-layer model's first-layer pre-activation is its logits
        p = perturbed(mlp.init_params(((6, 4),), seed=2), 0.3, rng)
        X = rng.normal(size=(7, 6))
        assert np.array_equal(mlp.input_products(X, p.flat, p.layer_shapes), mlp.forward(p, X))

    def test_stack_is_its_rows_products(self, rng):
        # bitwise, also with one example, where the row kernel is a vector product
        for shapes in TestSplitLayers.SHAPES + (DESK_SHAPES,):
            G = rng.normal(size=(9, mlp.init_params(shapes, seed=0).dim))
            for v in (1, 2, 11):
                X = rng.normal(size=(v, shapes[0][0]))
                rows = np.stack([mlp.input_products(X, g, shapes) for g in G])
                assert np.array_equal(mlp.input_products(X, G, shapes), rows)


class TestForward:
    def test_zero_params_zero_logits(self):
        p = tiny_net()
        zero = mlp.ModelParams(np.zeros(p.dim), p.layer_shapes)
        assert np.array_equal(mlp.forward(zero, np.ones((1, 6))), np.zeros((1, 3)))

    def test_identity_single_layer(self):
        flat = mlp.flatten_layers([(np.eye(3), np.zeros(3))])
        p = mlp.ModelParams(flat, ((3, 3),))
        x = np.array([0.5, -2.0, 7.0])
        assert np.allclose(mlp.forward(p, x[None])[0], x)

    def test_matches_hand_rolled_oracle(self, rng):
        p = perturbed(tiny_net(seed=3), 0.3, rng)
        (W1, b1), (W2, b2) = p.layers
        x = rng.normal(size=6)
        hidden = np.array([max(0.0, sum(x[i] * W1[i, j] for i in range(6)) + b1[j]) for j in range(8)])
        logits = np.array([sum(hidden[j] * W2[j, k] for j in range(8)) + b2[k] for k in range(3)])
        assert np.allclose(mlp.forward(p, x[None])[0], logits, atol=1e-12)

    def test_dimension_mismatch(self):
        # a batch of the wrong width, and one example that is not a batch
        for X in (np.ones((2, 5)), np.ones(6)):
            with pytest.raises(DimensionMismatch):
                mlp.forward(tiny_net(), X)


class TestLoss:
    def test_uniform_logits_ln_h(self):
        p = tiny_net(h=3)
        zero = mlp.ModelParams(np.zeros(p.dim), p.layer_shapes)
        X, y = np.ones((4, 6)), np.array([0, 1, 2, 0])
        assert mlp.loss(zero, X, y) == pytest.approx(math.log(3), abs=1e-9)

    def test_confident_correct_goes_to_zero(self):
        flat = mlp.flatten_layers([(np.eye(2) * 50.0, np.zeros(2))])
        p = mlp.ModelParams(flat, ((2, 2),))
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert mlp.loss(p, X, np.array([0, 1])) < 1e-8

    def test_matches_per_example_oracle(self, rng):
        p = perturbed(tiny_net(seed=2), 0.4, rng)
        X, y = random_batch(rng, 7)
        per = []
        for i in range(7):
            z = mlp.forward(p, X[i][None])[0]
            probs = np.exp(z - z.max())
            probs /= probs.sum()
            per.append(-math.log(probs[y[i]]))
        assert mlp.loss(p, X, y) == pytest.approx(np.mean(per), rel=1e-9)

    def test_is_mean_cross_entropy_of_forward(self, rng):
        p = perturbed(mlp.init_params(DESK_SHAPES, seed=1), 0.3, rng)
        for n in (1, 7, 20):
            X, y = rng.normal(size=(n, 64)), rng.integers(0, 3, size=n)
            z = mlp.forward(p, X)
            zmax = z.max(axis=1, keepdims=True)
            lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
            assert mlp.loss(p, X, y) == float(np.mean(lse - z[np.arange(n), y]))

    def test_nonnegative(self, rng):
        p = perturbed(tiny_net(seed=9), 1.0, rng)
        X, y = random_batch(rng, 5)
        assert mlp.loss(p, X, y) >= 0

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            mlp.loss(tiny_net(), np.empty((0, 6)), np.empty(0, dtype=int))


class TestGradient:
    def test_finite_difference_agreement(self, rng):
        p = perturbed(tiny_net(seed=4), 0.3, rng)
        X, y = random_batch(rng, 5)
        g = mlp.gradient(p, X, y)
        fd = fd_gradient(p, X, y)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-4

    def test_finite_difference_three_layer_chain(self, rng):
        params = mlp.init_params(((5, 7), (7, 6), (6, 4)), seed=11)
        params = perturbed(params, 0.3, rng)
        X = rng.normal(size=(4, 5))
        y = rng.integers(0, 4, size=4)
        g = mlp.gradient(params, X, y)
        fd = fd_gradient(params, X, y)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-4

    def test_duplicate_example_equals_single(self, rng):
        p = perturbed(tiny_net(seed=6), 0.3, rng)
        x, y = rng.normal(size=6), 2
        single = mlp.gradient(p, x[None, :], [y])
        doubled = mlp.gradient(p, np.stack([x, x]), [y, y])
        assert np.allclose(single, doubled, atol=1e-12)

    def test_mean_linearity_over_split(self, rng):
        p = perturbed(tiny_net(seed=7), 0.3, rng)
        XA, yA = random_batch(rng, 4)
        XB, yB = random_batch(rng, 4)
        combined = mlp.gradient(p, np.vstack([XA, XB]), np.concatenate([yA, yB]))
        halves = 0.5 * (mlp.gradient(p, XA, yA) + mlp.gradient(p, XB, yB))
        assert np.allclose(combined, halves, atol=1e-12)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            mlp.gradient(tiny_net(), np.empty((0, 6)), np.empty(0, dtype=int))

    @pytest.mark.parametrize("x, y", [(np.empty(0), []), (np.zeros(6), [0, 1])])
    def test_one_example_label_count_mismatch(self, x, y):
        # a 1-D x is not a batch, whatever labels come with it
        with pytest.raises(DimensionMismatch):
            mlp.gradient(tiny_net(), x, np.array(y, dtype=int))


def assert_rel_close(actual, expected, rtol=1e-12):
    assert np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


class TestPerExampleGradients:
    """The per-example gradient matrix P, seen through per_example_products:
    its products with a matrix V and its Gram matrix."""

    SHAPES = (((6, 8), (8, 3)), ((5, 7), (7, 6), (6, 4)), DESK_SHAPES)

    def _instance(self, rng, shapes, n):
        params = perturbed(mlp.init_params(shapes, seed=n), 0.3, rng)
        X = rng.normal(size=(n, shapes[0][0]))
        y = rng.integers(0, shapes[-1][1], size=n)
        V = rng.normal(size=(5, params.dim))
        return params, X, y, V

    def test_row_is_single_example_gradient(self, rng):
        for shapes in self.SHAPES:
            params, X, y, V = self._instance(rng, shapes, 9)
            G = np.stack([mlp.gradient(params, X[i : i + 1], y[i : i + 1]) for i in range(9)])
            PV, PP = mlp.per_example_products(params, X, y, V)
            assert PV.shape == (9, 5) and PP.shape == (9, 9)
            assert_rel_close(PV, G @ V.T)
            assert_rel_close(PP, G @ G.T)

    def test_subset_mean_is_subset_gradient(self, rng):
        for shapes in self.SHAPES:
            params, X, y, V = self._instance(rng, shapes, 16)
            PV, PP = mlp.per_example_products(params, X, y, V)
            for _ in range(20):
                idx = rng.choice(16, size=int(rng.integers(1, 17)), replace=False)
                g = mlp.gradient(params, X[idx], y[idx])
                assert_rel_close(PV[idx].mean(axis=0), V @ g)
                assert PP[np.ix_(idx, idx)].mean() == pytest.approx(g @ g, rel=1e-12)

    def test_one_row_batch(self, rng):
        params, X, y, V = self._instance(rng, self.SHAPES[0], 1)
        PV, PP = mlp.per_example_products(params, X, y, V)
        g = mlp.gradient(params, X, y)
        assert PV.shape == (1, 5) and PP.shape == (1, 1)
        assert_rel_close(PV[0], V @ g)
        assert PP[0, 0] == pytest.approx(g @ g, rel=1e-12)

    def test_empty_batch(self):
        p = tiny_net()
        with pytest.raises(EmptyBatch):
            mlp.per_example_products(p, np.empty((0, 6)), np.empty(0, dtype=int), np.ones((2, p.dim)))

    def test_v_width_mismatch(self, rng):
        p = tiny_net()
        X, y = random_batch(rng, 3)
        with pytest.raises(DimensionMismatch):
            mlp.per_example_products(p, X, y, np.ones((2, p.dim - 1)))


class TestStackedGradients:
    """gradients() on K equal-size batches: row k is, bit for bit,
    gradient() on batch k alone."""

    SHAPES = TestPerExampleGradients.SHAPES

    def _assert_rows_exact(self, params, Xs, ys):
        G = mlp.gradients(params, Xs, ys)
        assert G.shape == (len(Xs), params.dim)
        for k in range(len(Xs)):
            assert np.array_equal(G[k], mlp.gradient(params, Xs[k], ys[k])), k

    @pytest.mark.parametrize("case", ["plain", "dead_relu", "saturated", "integer"])
    def test_rows_equal_single_batch_gradient(self, rng, case):
        for trial in range(30):
            shapes = self.SHAPES[trial % len(self.SHAPES)]
            scale = 20.0 if case == "saturated" else 0.3  # logits far apart
            params = perturbed(mlp.init_params(shapes, seed=trial), scale, rng)
            K, B = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            Xs = rng.normal(size=(K, B, shapes[0][0]))
            if case == "dead_relu":
                Xs[:, : B // 2 + 1] *= 0.0  # zero inputs: the first layer's sign is its bias
                W, b = params.layers[0]
                b[: b.size // 2] = -1.0  # half the units are dead on those rows
            if case == "integer":
                Xs = np.round(3 * Xs)
            ys = rng.integers(0, shapes[-1][1], size=(K, B))
            self._assert_rows_exact(params, Xs, ys)

    def test_single_batch(self, rng):
        for shapes in self.SHAPES:
            params = perturbed(mlp.init_params(shapes, seed=1), 0.3, rng)
            for B in (1, 6):
                Xs = rng.normal(size=(1, B, shapes[0][0]))
                self._assert_rows_exact(params, Xs, rng.integers(0, shapes[-1][1], size=(1, B)))

    def test_one_example_batches_are_the_per_example_rows(self, rng):
        for shapes in self.SHAPES:
            params = perturbed(mlp.init_params(shapes, seed=2), 0.3, rng)
            X = rng.normal(size=(9, shapes[0][0]))
            y = rng.integers(0, shapes[-1][1], size=9)
            V = rng.normal(size=(5, params.dim))
            P = mlp.gradients(params, X[:, None], y[:, None])
            PV, PP = mlp.per_example_products(params, X, y, V)
            assert_rel_close(PV, P @ V.T)
            assert_rel_close(PP, P @ P.T)

    def test_rejects_bad_shapes(self):
        p = tiny_net()
        with pytest.raises(DimensionMismatch):
            mlp.gradients(p, np.ones((4, 6)), np.zeros(4, dtype=int))  # one unstacked batch
        with pytest.raises(DimensionMismatch):
            mlp.gradients(p, np.ones((2, 3, 5)), np.zeros((2, 3), dtype=int))
        with pytest.raises(DimensionMismatch):
            mlp.gradients(p, np.ones((2, 3, 6)), np.zeros((2, 4), dtype=int))
        with pytest.raises(EmptyBatch):
            mlp.gradients(p, np.ones((2, 0, 6)), np.zeros((2, 0), dtype=int))


class TestApplyUpdate:
    def test_zero_lr_unchanged(self, rng):
        p = tiny_net()
        g = rng.normal(size=p.dim)
        assert np.array_equal(mlp.apply_update(p, g, 0.0).flat, p.flat)

    def test_zero_gradient_unchanged(self):
        p = tiny_net()
        assert np.array_equal(mlp.apply_update(p, np.zeros(p.dim), 0.5).flat, p.flat)

    def test_arithmetic(self):
        p = mlp.ModelParams(np.array([1.0, 1.0]), ((1, 1),))
        out = mlp.apply_update(p, np.array([1.0, 2.0]), 0.5)
        assert np.array_equal(out.flat, [0.5, 0.0])

    def test_linear_in_lr_and_gradient(self, rng):
        p = tiny_net()
        g = rng.normal(size=p.dim)
        one = mlp.apply_update(p, g, 0.2).flat - p.flat
        two = mlp.apply_update(p, g, 0.4).flat - p.flat
        assert np.allclose(2 * one, two)
        doubled = mlp.apply_update(p, 2 * g, 0.2).flat - p.flat
        assert np.allclose(doubled, two)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mlp.apply_update(tiny_net(), np.zeros(3), 0.1)


class TestPredict:
    def test_argmax(self):
        flat = mlp.flatten_layers([(np.eye(3), np.array([0.1, 0.9, 0.3]))])
        p = mlp.ModelParams(flat, ((3, 3),))
        assert mlp.predict_batch(p, np.zeros((1, 3)))[0] == 1

    def test_tie_goes_low(self):
        p = tiny_net()
        zero = mlp.ModelParams(np.zeros(p.dim), p.layer_shapes)
        assert mlp.predict_batch(zero, np.ones((1, 6)))[0] == 0

    def test_matches_argmax_oracle(self, rng):
        p = perturbed(tiny_net(seed=8), 0.4, rng)
        X, _ = random_batch(rng, 10)
        preds = mlp.predict_batch(p, X)
        for i in range(10):
            logits = mlp.forward(p, X[i][None])[0]
            best = max(range(3), key=lambda k: (logits[k], -k))
            assert preds[i] == best == mlp.predict_batch(p, X[i][None])[0]


# every reader of one batch, each as (params, X, y) -> its output; forward
# and predict_batch take no labels
BATCH_READERS = {
    "forward": lambda p, X, y: mlp.forward(p, X),
    "predict_batch": lambda p, X, y: mlp.predict_batch(p, X),
    "loss": mlp.loss,
    "gradient": mlp.gradient,
    "per_example_products": lambda p, X, y: mlp.per_example_products(p, X, y, np.ones((2, p.dim))),
    "fang_filter": lambda p, X, y: fang_filter(np.ones((3, p.dim)), p, X, y, "lfr", 0.1),
    "test_accuracy": model_test_accuracy,
    "passive_infer": passive_infer,
}


class TestBatchContract:
    """A batch is a non-empty (rows, input_dim) array, with labels, when
    given, of shape (rows,); every batch reader checks it in mlp._check_batch."""

    def bad_batch(self, rng, case):
        X, y = random_batch(rng, 5)
        if case == "1-D example":
            return X[0], y[0]
        if case == "stack":
            return rng.normal(size=(2, 6, 6)), y[:2]  # one label per leading row
        return X, y[:, None]  # column labels

    @pytest.mark.parametrize(
        "reader, case",
        [
            (reader, case)
            for reader in BATCH_READERS
            for case in ("1-D example", "stack", "column labels")
            if case != "column labels" or reader not in ("forward", "predict_batch")
        ],
    )
    def test_rejects_what_is_not_a_batch(self, rng, reader, case):
        X, y = self.bad_batch(rng, case)
        with pytest.raises(DimensionMismatch):
            BATCH_READERS[reader](tiny_net(), X, y)

    @pytest.mark.parametrize("reader", list(BATCH_READERS))
    def test_empty_batch(self, reader):
        # fang's validation set and the test set name their own emptiness
        error = {"fang_filter": EmptyValidationSet, "test_accuracy": EmptySet}.get(reader, EmptyBatch)
        with pytest.raises(error):
            BATCH_READERS[reader](tiny_net(), np.empty((0, 6)), np.empty(0, dtype=int))
