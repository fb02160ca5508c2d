import numpy as np
import pytest
from numpy.testing import assert_allclose

from tadkit.errors import ConfigError, NumericError, UsageError
from tadkit.losses import (
    LossWeights,
    TrainingBatch,
    classification_loss,
    l2_penalty,
    location_loss,
    overlap_loss,
    total_loss,
)
from tadkit.tensor import Parameter, Tensor, mul

from oracles import numeric_gradient


class TestClassificationLoss:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = classification_loss(logits, np.array([0, 1, 2, 0]))
        assert_allclose(loss.data, np.log(3.0))

    def test_confident_correct_goes_to_zero(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 0] = 50.0
        loss = classification_loss(Tensor(logits), np.array([1, 0]))
        assert float(loss.data) < 1e-8

    def test_matches_direct_softmax_formula(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, 6)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        expect = -np.mean(np.log(p[np.arange(6), labels]))
        assert_allclose(classification_loss(Tensor(logits), labels).data, expect, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=(5, 3))
        labels = np.array([0, 2, 1, 1, 0])
        p = Parameter(x0.copy(), name="logits")
        classification_loss(p, labels).backward()
        num = numeric_gradient(
            lambda v: float(classification_loss(Tensor(v), labels).data), x0.copy()
        )
        assert_allclose(p.grad, num, atol=1e-8)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            classification_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestOverlapLoss:
    def test_known_value(self):
        loss = overlap_loss(Tensor(np.array([0.5, 0.5])), np.array([0.0, 1.0]))
        assert_allclose(loss.data, 0.25)

    def test_perfect_prediction_zero(self):
        t = np.array([0.2, 0.9, 0.0])
        assert float(overlap_loss(Tensor(t.copy()), t).data) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError):
            overlap_loss(Tensor(np.zeros(3)), np.zeros(4))


class TestLocationLoss:
    def test_smooth_l1_regimes(self):
        # |delta| = 0.5 -> 0.125 each for center and width
        loss = location_loss(
            Tensor(np.array([0.5])), Tensor(np.array([0.7])),
            np.array([0.0]), np.array([0.2]),
        )
        assert_allclose(loss.data, 0.125 + 0.125)
        # |delta| = 2 -> linear branch 2 - 0.5
        loss = location_loss(
            Tensor(np.array([2.0])), Tensor(np.array([0.2])),
            np.array([0.0]), np.array([0.2]),
        )
        assert_allclose(loss.data, 1.5)

    def test_no_positives_is_constant_zero(self):
        loss = location_loss(None, None, np.array([]), np.array([]))
        assert float(loss.data) == 0.0

    def test_gradient_flows_to_predictions(self):
        c = Parameter(np.array([0.3, 0.8]), name="c")
        w = Parameter(np.array([0.2, 0.4]), name="w")
        loss = location_loss(c, w, np.array([0.5, 0.5]), np.array([0.25, 0.25]))
        loss.backward()
        # inside the quadratic region the gradient is the residual / n
        assert_allclose(c.grad, np.array([0.3 - 0.5, 0.8 - 0.5]) / 2)
        assert_allclose(w.grad, np.array([0.2 - 0.25, 0.4 - 0.25]) / 2)


class TestTotalLoss:
    def make_batch(self):
        # L_class = ln 3, L_over = 0.25, L_loc = 0.125 + 0 = 0.125
        return TrainingBatch(
            class_logits=Tensor(np.zeros((2, 3))),
            labels=np.array([1, 0]),
            overlap=Tensor(np.array([0.5, 0.5])),
            target_iou=np.array([1.0, 0.0]),
            pos_centers=Tensor(np.array([0.5])),
            pos_widths=Tensor(np.array([0.25])),
            pos_target_centers=np.array([1.0]),
            pos_target_widths=np.array([0.25]),
        )

    def test_weighted_sum_with_default_weights(self):
        loss, parts = total_loss(self.make_batch(), LossWeights(), params=[])
        assert_allclose(parts["class"], np.log(3.0))
        assert_allclose(parts["overlap"], 0.25)
        assert_allclose(parts["location"], 0.125)
        assert_allclose(parts["l2"], 0.0)
        assert_allclose(loss.data, np.log(3.0) + 10 * 0.25 + 10 * 0.125)
        assert_allclose(parts["total"], float(loss.data))

    def test_l2_term_scales_with_lambda(self):
        p = Parameter(np.array([1.0, 2.0]), name="p")
        loss, parts = total_loss(self.make_batch(), LossWeights(l2=0.5), params=[p])
        assert_allclose(parts["l2"], 5.0)
        assert_allclose(
            loss.data, np.log(3.0) + 10 * 0.25 + 10 * 0.125 + 0.5 * 5.0
        )

    def test_custom_weights(self):
        loss, _ = total_loss(self.make_batch(), LossWeights(overlap=2.0, location=0.0), [])
        assert_allclose(loss.data, np.log(3.0) + 2.0 * 0.25)

    def test_nonfinite_total_raises_with_parts(self):
        batch = self.make_batch()
        batch.target_iou = np.array([np.inf, 0.0])
        with pytest.raises(NumericError, match="class"):
            total_loss(batch, LossWeights(), [])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(overlap=-1.0)


def test_l2_penalty_sums_squares():
    a = Parameter(np.array([1.0, -2.0]), name="a")
    b = Parameter(np.array([[3.0]]), name="b")
    assert_allclose(l2_penalty([a, b]).data, 1 + 4 + 9)
    a.grad = None
    out = l2_penalty([a, b])
    out.backward()
    assert_allclose(a.grad, [2.0, -4.0])


def test_l2_penalty_is_one_node_with_the_per_parameter_gradient():
    rng = np.random.default_rng(0)
    params = [Parameter(rng.normal(size=s), name=str(i))
              for i, s in enumerate([(), (7,), (3, 4, 5)])]
    out = l2_penalty(params)
    assert out._parents == tuple(params)
    assert_allclose(out.data, sum((p.data ** 2).sum() for p in params), rtol=1e-14)
    mul(out, 1e-4).backward()
    # the gradient a square -> sum chain per parameter produces, bit for bit
    for p in params:
        assert np.array_equal(p.grad, 2.0 * p.data * np.full(p.data.shape, 1e-4))
