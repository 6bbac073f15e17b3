"""The optional leading batch axis: a batch of rows through one forward (and
one tape) must give what the rows give one at a time."""

import numpy as np
import pytest

from timecaps import tensor as T
from timecaps.capsules import dynamic_routing, dynamic_routing_trace, margin_loss, mse_loss, squash
from timecaps.conv import conv1d, conv2d, deconv1d
from timecaps.model import ModelConfig, classify, init_params, model_forward
from timecaps.tensor import Tensor
from timecaps.training import TrainConfig, total_loss

CONFIGS = {"tiny": ModelConfig.tiny, "toy": ModelConfig.toy}


def rows_and_labels(cfg, rng, rows):
    return rng.standard_normal((rows, cfg.L)), rng.integers(0, cfg.num_classes, size=rows)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batched_forward_matches_per_example(name, rng):
    cfg = CONFIGS[name]()
    params = init_params(cfg, seed=1)
    x, labels = rows_and_labels(cfg, rng, 5)
    batched = model_forward(Tensor(x), params, cfg, mask_class=labels)
    assert batched.class_capsules.shape == (5, cfg.num_classes, cfg.a_sig)
    assert batched.reconstruction.shape == (5, cfg.L)
    for i in range(5):
        one = model_forward(Tensor(x[i]), params, cfg, mask_class=int(labels[i]))
        for key in ("phi", "omega_a", "omega_b", "omega_cc"):
            assert np.max(np.abs(batched.intermediates[key].data[i] - one.intermediates[key].data)) < 1e-12
        assert np.max(np.abs(batched.class_capsules.data[i] - one.class_capsules.data)) < 1e-12
        assert np.max(np.abs(batched.reconstruction.data[i] - one.reconstruction.data)) < 1e-12


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batched_inference_masks_per_row_argmax(name, rng):
    cfg = CONFIGS[name]()
    params = init_params(cfg, seed=0)
    x, _ = rows_and_labels(cfg, rng, 4)
    fwd = model_forward(Tensor(x), params, cfg)
    preds = classify(Tensor(x), params, cfg).predicted_class()
    assert np.array_equal(fwd.mask_class, preds)
    assert np.array_equal(fwd.predicted_class(), np.argmax(fwd.class_lengths.data, axis=-1))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_summed_gradients_match_per_example(name, rng):
    cfg = CONFIGS[name]()
    tcfg = TrainConfig()
    params = init_params(cfg, seed=2)
    x, labels = rows_and_labels(cfg, rng, 3)  # an uneven batch (3 rows)
    xt = Tensor(x)
    T.sum_over(total_loss(model_forward(xt, params, cfg, mask_class=labels), xt, labels, tcfg)).backward()
    batched = {k: p.grad.copy() for k, p in params.items()}
    params.zero_grad()
    for i in range(3):
        xi = Tensor(x[i])
        total_loss(model_forward(xi, params, cfg, mask_class=int(labels[i])), xi,
                   int(labels[i]), tcfg).backward()
    for k, p in params.items():
        scale = max(np.max(np.abs(p.grad)), 1e-300)
        assert np.max(np.abs(batched[k] - p.grad)) / scale < 1e-10, k


def test_unbatched_shapes_unchanged(tiny_cfg, rng):
    params = init_params(tiny_cfg, seed=0)
    fwd = model_forward(Tensor(rng.standard_normal(tiny_cfg.L)), params, tiny_cfg, mask_class=1)
    assert fwd.class_capsules.shape == (tiny_cfg.num_classes, tiny_cfg.a_sig)
    assert fwd.reconstruction.shape == (tiny_cfg.L,)
    assert isinstance(fwd.predicted_class(), int)
    assert total_loss(fwd, Tensor(np.zeros(tiny_cfg.L)), 1, TrainConfig()).shape == ()


def test_losses_per_example(rng):
    lengths = rng.uniform(0.0, 1.0, size=(4, 3))
    labels = np.array([0, 2, 1, 2])
    batched = margin_loss(Tensor(lengths), labels).data
    assert batched.shape == (4,)
    for i in range(4):
        assert batched[i] == margin_loss(Tensor(lengths[i]), int(labels[i])).item()
    a, b = rng.standard_normal((2, 4, 6))
    per = mse_loss(Tensor(a), Tensor(b)).data
    assert np.allclose(per, [mse_loss(Tensor(a[i]), Tensor(b[i])).item() for i in range(4)], rtol=1e-15)


def test_ops_batch_axis_matches_loop(rng):
    k1 = Tensor(rng.standard_normal((4, 3, 2)))
    x1 = rng.standard_normal((3, 7, 2))
    k2 = Tensor(rng.standard_normal((5, 3, 4)))
    x2 = rng.standard_normal((3, 6, 8, 1))
    kd = Tensor(rng.standard_normal((2, 3, 4)))
    xd = rng.standard_normal((3, 5, 2))
    votes = rng.standard_normal((3, 2, 2, 4, 5))
    caps = rng.standard_normal((3, 4, 6))
    cases = [
        (lambda t: conv1d(t, k1, 2, "same"), x1),
        (lambda t: conv2d(t, k2), x2),
        (lambda t: deconv1d(t, kd, 2), xd),
        (lambda t: dynamic_routing(t, 3), votes),
        (lambda t: squash(t, -1), caps),
    ]
    for op, x in cases:
        batched = op(Tensor(x)).data
        for i in range(x.shape[0]):
            assert np.max(np.abs(batched[i] - op(Tensor(x[i])).data)) < 1e-12


def test_routing_trace_with_batch_axis(rng):
    votes = rng.standard_normal((2, 3, 2, 4, 5))
    out, state = dynamic_routing_trace(Tensor(votes), 3)
    assert np.array_equal(out.data, dynamic_routing(Tensor(votes), 3).data)
    assert state.logits[0].shape == (2, 3, 2, 4)
    assert np.array_equal(state.logits[0], np.zeros((2, 3, 2, 4)))
    assert np.allclose(state.couplings[-1].sum(axis=-1), 1.0, atol=1e-12)
    assert state.weighted_sums[0].shape == (2, 3, 2, 5)
