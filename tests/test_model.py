"""Architecture shape contracts, capsule norm bounds, parameter counting,
decoder behavior, and forward determinism."""

import numpy as np
import pytest

from timecaps import tensor as T
from timecaps.errors import ConfigError, ShapeError
from timecaps.model import (
    ModelConfig,
    cell_a_forward,
    cell_b_forward,
    classification_forward,
    concat_weighted,
    count_parameters,
    decoder_forward,
    front_conv,
    init_params,
    model_forward,
    param_shapes,
)
from timecaps.tensor import Tensor
from timecaps.training import TrainConfig, total_loss


def random_valid_config(rng) -> ModelConfig:
    """Draw a consistent architecture: the deconv chain is built forward
    (width == stride multiplies the length), so every config reproduces L."""
    while True:
        seed_len = int(rng.integers(2, 5))
        strides = [int(rng.choice([1, 2])) for _ in range(4)]
        L = seed_len * int(np.prod(strides))
        if L >= 8:
            break
    divisors = [d for d in (2, 4, 8) if L % d == 0 and L // d >= 1]
    n = int(rng.choice(divisors))
    chans = [int(rng.integers(1, 5)) for _ in range(4)]
    deconv = tuple(
        (chans[i], strides[i], strides[i]) for i in range(4)
    ) + ((1, 1, 1),)
    seed_ch = int(rng.choice([2, 4]))
    a_s = int(rng.choice([2, 4]))
    return ModelConfig(
        L=L,
        k=int(rng.integers(2, 5)),
        g1=int(rng.choice([1, 3, 5])),
        g2=int(rng.choice([1, 3])),
        g3=int(rng.choice([1, 2, 3])),
        g_b=int(rng.choice([1, 3])),
        c_p=int(rng.integers(1, 4)),
        a_p=int(rng.choice([2, 4])),
        c_sa=int(rng.integers(1, 3)),
        a_sa=a_s,
        c_b=int(rng.integers(1, 3)),
        a_b=int(rng.choice([2, 3])),
        n=n,
        c_sb=int(rng.integers(1, 4)),
        a_sb=a_s,
        a_sig=int(rng.choice([2, 4])),
        num_classes=int(rng.integers(2, 4)),
        routing_iters=int(rng.integers(1, 4)),
        decoder_fc=(int(rng.choice([4, 8])), seed_len * seed_ch),
        decoder_deconv=deconv,
    )


def assert_shape_contract(cfg: ModelConfig, seed: int = 0):
    params = init_params(cfg, seed=seed)
    x = Tensor(np.random.default_rng(seed).standard_normal(cfg.L))
    fwd = model_forward(x, params, cfg, mask_class=0)
    segments = cfg.L // cfg.n
    n_total = cfg.L * cfg.c_sa + segments * cfg.c_sb
    assert fwd.intermediates["phi"].shape == (cfg.L, cfg.k)
    assert fwd.intermediates["omega_a"].shape == (cfg.L * cfg.c_sa, cfg.a_sa)
    assert fwd.intermediates["omega_b"].shape == (segments * cfg.c_sb, cfg.a_sb)
    assert fwd.intermediates["omega_cc"].shape == (n_total, cfg.a_sa)
    assert fwd.class_capsules.shape == (cfg.num_classes, cfg.a_sig)
    assert fwd.class_lengths.shape == (cfg.num_classes,)
    assert fwd.reconstruction.shape == (cfg.L,)


class TestConfig:
    def test_defaults_are_valid(self):
        ModelConfig.toy()
        ModelConfig.tiny()

    def test_length_not_divisible_by_segments(self):
        with pytest.raises(ConfigError):
            ModelConfig(L=62, n=8)

    def test_capsule_dims_must_match(self):
        with pytest.raises(ConfigError):
            ModelConfig(a_sa=16, a_sb=8)

    def test_decoder_must_reach_length(self):
        with pytest.raises(ConfigError):
            ModelConfig(L=60)  # default deconv chain reaches 64, not 60

    def test_decoder_fc_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(decoder_fc=(128, 255))

    @pytest.mark.parametrize("entry", [{"decoder_fc": 5}, {"decoder_fc": ["x", 16]},
                                       {"decoder_deconv": [[1, "w", 1]] * 5}, {"bogus": 1},
                                       {"k": 4.0}, {"routing_iters": True}, {"decoder_fc": [8.7, 16]}])
    def test_from_dict_rejects_bad_entries(self, entry):
        with pytest.raises(ConfigError, match=next(iter(entry))):
            ModelConfig.from_dict(entry)

    def test_roundtrip_dict(self):
        cfg = ModelConfig.toy()
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_num_caps_formula(self):
        cfg = ModelConfig.toy()
        assert cfg.num_caps == 64 * 2 + 8 * 4  # 160


class TestShapes:
    def test_front_conv_shapes(self, toy_cfg):
        params = init_params(toy_cfg, seed=0)
        x = Tensor(np.zeros(toy_cfg.L))
        assert front_conv(x, params, toy_cfg).shape == (64, 16)

    def test_front_conv_length_360(self):
        cfg = ModelConfig(
            L=360, n=8,
            decoder_fc=(32, 90),
            decoder_deconv=((8, 2, 2), (4, 2, 2), (2, 2, 2), (2, 1, 1), (1, 1, 1)),
        )
        params = init_params(cfg, seed=0)
        out = front_conv(Tensor(np.zeros(360)), params, cfg)
        assert out.shape == (360, 16)

    def test_front_conv_length_mismatch(self, toy_cfg):
        params = init_params(toy_cfg, seed=0)
        with pytest.raises(ShapeError):
            front_conv(Tensor(np.zeros(63)), params, toy_cfg)

    def test_cell_outputs(self, toy_cfg):
        params = init_params(toy_cfg, seed=0)
        phi = front_conv(Tensor(np.random.default_rng(0).standard_normal(64)), params, toy_cfg)
        assert cell_a_forward(phi, params, toy_cfg).shape == (128, 16)
        assert cell_b_forward(phi, params, toy_cfg).shape == (32, 16)

    def test_randomized_shape_contract(self, rng):
        for _ in range(12):
            assert_shape_contract(random_valid_config(rng))


class TestCapsuleNorms:
    def test_all_outputs_below_one(self, toy_cfg, rng):
        params = init_params(toy_cfg, seed=1)
        x = Tensor(rng.standard_normal(64) * 3)
        fwd = model_forward(x, params, toy_cfg, mask_class=0)
        for key in ("omega_a", "omega_b"):
            norms = np.linalg.norm(fwd.intermediates[key].data, axis=-1)
            assert np.all(norms < 1.0)
        assert np.all(fwd.class_lengths.data < 1.0)
        assert np.all(fwd.class_lengths.data >= 0.0)


class TestConcat:
    def test_row_count(self, rng):
        a = Tensor(rng.standard_normal((128, 16)))
        b = Tensor(rng.standard_normal((32, 16)))
        out = concat_weighted(a, b, Tensor([1.0]), Tensor([1.0]))
        assert out.shape == (160, 16)

    def test_beta_zero_keeps_a_rows(self, rng):
        a = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal((2, 3)))
        out = concat_weighted(a, b, Tensor([1.0]), Tensor([0.0]))
        assert np.array_equal(out.data[:4], a.data)
        assert np.all(out.data[4:] == 0.0)

    def test_unit_weights_plain_concat(self, rng):
        a = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal((2, 3)))
        out = concat_weighted(a, b, Tensor([1.0]), Tensor([1.0]))
        assert np.array_equal(out.data, np.concatenate([a.data, b.data]))

    def test_common_rescaling_power_of_two_exact(self, rng):
        a = Tensor(rng.standard_normal((5, 4)))
        b = Tensor(rng.standard_normal((3, 4)))
        alpha, beta = 0.75, -0.5
        base = concat_weighted(a, b, Tensor([alpha]), Tensor([beta])).data
        scaled = concat_weighted(a, b, Tensor([2 * alpha]), Tensor([2 * beta])).data
        assert np.array_equal(scaled, 2.0 * base)

    def test_common_rescaling_general_close(self, rng):
        a = Tensor(rng.standard_normal((5, 4)))
        b = Tensor(rng.standard_normal((3, 4)))
        c = 1.7
        base = concat_weighted(a, b, Tensor([0.9]), Tensor([1.1])).data
        scaled = concat_weighted(a, b, Tensor([c * 0.9]), Tensor([c * 1.1])).data
        assert np.allclose(scaled, c * base, rtol=1e-14)

    def test_dim_mismatch(self, rng):
        with pytest.raises(ShapeError):
            concat_weighted(Tensor(rng.standard_normal((4, 3))),
                            Tensor(rng.standard_normal((2, 5))),
                            Tensor([1.0]), Tensor([1.0]))


class TestClassification:
    def test_output_shape(self, toy_cfg, rng):
        params = init_params(toy_cfg, seed=0)
        omega = Tensor(rng.standard_normal((160, 16)) * 0.1)
        out = classification_forward(omega, params, toy_cfg)
        assert out.shape == (3, 16)

    def test_zero_input_zero_capsules(self, toy_cfg):
        params = init_params(toy_cfg, seed=0)
        out = classification_forward(Tensor(np.zeros((160, 16))), params, toy_cfg)
        assert np.array_equal(out.data, np.zeros((3, 16)))


class TestDecoder:
    def test_masking_zeroes_other_classes(self, toy_cfg, rng):
        params = init_params(toy_cfg, seed=0)
        caps = Tensor(rng.standard_normal((3, 16)), requires_grad=True)
        decoder_forward(caps, 1, params, toy_cfg)
        # gradient only reaches the masked class row
        loss = T.sum_over(T.mul(decoder_forward(caps, 1, params, toy_cfg),
                                Tensor(rng.standard_normal(64))))
        loss.backward()
        assert np.all(caps.grad[0] == 0.0)
        assert np.all(caps.grad[2] == 0.0)
        assert np.any(caps.grad[1] != 0.0)

    def test_output_length(self, toy_cfg, rng):
        params = init_params(toy_cfg, seed=0)
        caps = Tensor(rng.standard_normal((3, 16)))
        assert decoder_forward(caps, 0, params, toy_cfg).shape == (64,)

    def test_different_masks_differ(self, toy_cfg, rng):
        params = init_params(toy_cfg, seed=0)
        caps = Tensor(rng.standard_normal((3, 16)))
        r0 = decoder_forward(caps, 0, params, toy_cfg).data
        r1 = decoder_forward(caps, 1, params, toy_cfg).data
        assert not np.array_equal(r0, r1)

    def test_mask_class_range(self, toy_cfg, rng):
        params = init_params(toy_cfg, seed=0)
        caps = Tensor(rng.standard_normal((3, 16)))
        with pytest.raises(ValueError):
            decoder_forward(caps, 3, params, toy_cfg)


class TestModelForward:
    def test_toy_output_shapes(self, toy_cfg, rng):
        params = init_params(toy_cfg, seed=0)
        fwd = model_forward(Tensor(rng.standard_normal(64)), params, toy_cfg, mask_class=2)
        assert fwd.class_lengths.shape == (3,)
        assert fwd.reconstruction.shape == (64,)
        assert fwd.mask_class == 2

    def test_inference_masks_argmax(self, toy_cfg, rng):
        params = init_params(toy_cfg, seed=0)
        fwd = model_forward(Tensor(rng.standard_normal(64)), params, toy_cfg, mask_class=None)
        assert fwd.mask_class == int(np.argmax(fwd.class_lengths.data))

    def test_deterministic_bits(self, toy_cfg, rng):
        params = init_params(toy_cfg, seed=3)
        x = rng.standard_normal(64)
        a = model_forward(Tensor(x), params, toy_cfg, mask_class=0)
        b = model_forward(Tensor(x.copy()), params, toy_cfg, mask_class=0)
        assert np.array_equal(a.class_lengths.data, b.class_lengths.data)
        assert np.array_equal(a.reconstruction.data, b.reconstruction.data)

    def test_lengths_match_capsules(self, toy_cfg, rng):
        params = init_params(toy_cfg, seed=0)
        fwd = model_forward(Tensor(rng.standard_normal(64)), params, toy_cfg, mask_class=0)
        assert np.allclose(fwd.class_lengths.data,
                           np.linalg.norm(fwd.class_capsules.data, axis=1), atol=1e-12)


class TestParameterCount:
    def test_matches_shape_table(self, toy_cfg):
        params = init_params(toy_cfg, seed=0)
        expected = sum(int(np.prod(s)) for s in param_shapes(toy_cfg).values())
        assert count_parameters(params) == expected

    def test_closed_form_toy(self, toy_cfg):
        shapes = param_shapes(toy_cfg)
        assert shapes["class_weights"] == (160, 16, 3, 16)
        assert shapes["front_kernels"] == (16, 9, 1)
        total = count_parameters(init_params(toy_cfg, seed=0))
        by_hand = (
            16 * 9 * 1              # front
            + 32 * 9 * 16           # cell A conv
            + 32 * 5 * 8            # cell A votes
            + 16 * 1 * 16           # cell B 1x1 reduce
            + 16 * 3 * 16           # cell B conv
            + 64 * 3 * 16           # cell B votes
            + 2                     # alpha, beta
            + 160 * 3 * 16 * 16     # class transforms
            + 48 * 128 + 128        # fc1
            + 128 * 256 + 256       # fc2
            + 128 * 4 * 128 + 128   # deconv1 (seed 2x128)
            + 128 * 4 * 64 + 64     # deconv2
            + 64 * 4 * 32 + 32      # deconv3
            + 32 * 6 * 16 + 16      # deconv4
            + 16 * 1 * 1 + 1        # deconv5
        )
        assert total == by_hand

    def test_extra_class_delta(self):
        base = ModelConfig.toy(num_classes=3)
        more = ModelConfig.toy(num_classes=4)
        delta = (count_parameters(init_params(more, 0))
                 - count_parameters(init_params(base, 0)))
        n_caps = base.num_caps
        expected = n_caps * base.a_sa * base.a_sig + base.a_sig * base.decoder_fc[0]
        assert delta == expected

    def test_alpha_beta_contribute_two(self, toy_cfg):
        shapes = param_shapes(toy_cfg)
        assert int(np.prod(shapes["alpha"])) + int(np.prod(shapes["beta"])) == 2


def tape_ops(root: Tensor) -> int:
    """Graph nodes reachable from ``root`` that carry a backward closure."""
    seen, stack, ops = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops += node._backward is not None
        stack.extend(node._parents)
    return ops


class TestTapeSize:
    # Tape nodes of one batched toy forward and its per-row losses.  Every
    # node costs Python overhead per batch, so a change that grows the tape
    # must raise this bound on purpose; one that shrinks it should lower it.
    TAPE_OPS = 68

    def test_batched_toy_tape_does_not_grow(self, toy_cfg, rng):
        params = init_params(toy_cfg, seed=0)
        labels = np.array([0, 1, 2, 0])
        x = Tensor(rng.standard_normal((len(labels), toy_cfg.L)))
        fwd = model_forward(x, params, toy_cfg, mask_class=labels)
        assert tape_ops(total_loss(fwd, x, labels, TrainConfig())) <= self.TAPE_OPS
