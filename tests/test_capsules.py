"""Squash law, routing vs the scalar oracle, and loss values.

Closed-form expectations: squash multiplies a vector of norm n by
n/(1+n^2), so a unit vector halves and (3,4) maps to (25/26)*(0.6, 0.8).
"""

import decimal
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from timecaps import capsules, model
from timecaps import tensor as T
from timecaps.capsules import (
    _NORM_EPS,
    _flat_form,
    _inner,
    _route,
    capsule_length,
    class_votes,
    dynamic_routing,
    dynamic_routing_trace,
    margin_loss,
    mse_loss,
    routing_oracle,
    squash,
)
from timecaps.errors import ShapeError
from timecaps.model import ModelConfig, _cell_votes, init_params
from timecaps.tensor import Tensor

# The 13-class, 360-sample beat config (acceptance criterion 9).
BEAT_CFG = ModelConfig(
    L=360, k=4, g1=5, g2=5, g3=3, g_b=3, c_p=2, a_p=4, c_sa=1, a_sa=8, c_b=1, a_b=4,
    n=8, c_sb=2, a_sb=8, a_sig=8, num_classes=13, routing_iters=3, decoder_fc=(24, 90),
    decoder_deconv=((8, 2, 2), (4, 2, 2), (2, 2, 2), (2, 1, 1), (1, 1, 1)))


def site_votes(cfg, site, batch, rng, layout="model"):
    """Votes laid out as the model routes them.  At the cells they come from
    the real vote convolution and the cells' reshape and permute, a view of
    the block-leading (block, dim, parent, rows) conv2d storage; with
    ``layout="rows"`` a permuted view of (..., rows, block, parent, dim)
    storage instead.  At the class stage they come from ``class_votes``, a
    view of example-major (B, N, classes, a_sig) storage; with
    ``layout="class_major"`` a view of (N, classes, B, a_sig) storage
    instead."""
    if site == "class":
        if layout == "model":
            caps = Tensor(rng.standard_normal((batch, cfg.num_caps, cfg.a_sa)))
            weights = rng.standard_normal((cfg.num_caps, cfg.a_sa, cfg.num_classes, cfg.a_sig))
            return class_votes(caps, Tensor(weights / np.sqrt(cfg.a_sa))).data
        stored = rng.standard_normal((cfg.num_caps, cfg.num_classes, batch, cfg.a_sig))
        return stored.transpose(2, 1, 0, 3)
    lead = (batch,) if batch > 1 else ()
    rows, block, width, parent, dim, g = (
        (cfg.L, cfg.c_p, cfg.a_p, cfg.c_sa, cfg.a_sa, cfg.g3) if site == "cell_a"
        else (cfg.L // cfg.n, cfg.n, cfg.c_b * cfg.a_b, cfg.c_sb, cfg.a_sb, cfg.g_b))
    if layout == "model":
        primary = Tensor(rng.standard_normal(lead + (rows, block, width)))
        kernels = Tensor(rng.standard_normal((parent * dim, g, width)) / np.sqrt(g * width))
        return _cell_votes(primary, kernels, parent, dim).data
    stored = rng.standard_normal(lead + (rows, block, parent, dim))
    k = len(lead)
    return stored.transpose(tuple(range(k)) + (k, k + 2, k + 1, k + 3))


def weighted_routing(votes, coeffs, iterations=3):
    return T.sum_over(T.mul(dynamic_routing(votes, iterations), Tensor(coeffs)))


def squash_norm(n):
    return n * n / (1.0 + n * n)


class TestSquash:
    def test_zero_maps_to_zero(self):
        out = squash(Tensor(np.zeros((3, 4))), axis=-1)
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_unit_vector_halves(self):
        v = np.array([[0.6, 0.8]])
        out = squash(Tensor(v), axis=-1)
        assert np.allclose(out.data, 0.5 * v, atol=1e-12)

    def test_three_four_closed_form(self):
        out = squash(Tensor(np.array([[3.0, 4.0]])), axis=-1).data[0]
        assert abs(out[0] - (25.0 / 26.0) * 0.6) < 1e-12
        assert abs(out[1] - (25.0 / 26.0) * 0.8) < 1e-12
        assert abs(np.linalg.norm(out) - 25.0 / 26.0) < 1e-12

    def test_norm_law_and_bound(self, rng):
        for dim in (1, 2, 8, 16):
            vecs = rng.standard_normal((500, dim))
            norms = np.linalg.norm(vecs, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            targets = rng.uniform(0.0, 100.0, size=(500, 1))
            vecs = vecs / norms * targets
            out = squash(Tensor(vecs), axis=-1).data
            out_norms = np.linalg.norm(out, axis=1)
            assert np.all(np.abs(out_norms - squash_norm(targets[:, 0])) < 1e-9)
            assert np.all(out_norms < 1.0)

    def test_direction_preserving(self, rng):
        v = rng.standard_normal((50, 6))
        out = squash(Tensor(v), axis=-1).data
        ratios = out / v
        for row in ratios:
            assert np.all(row >= 0.0)
            assert np.ptp(row) < 1e-9  # a single nonnegative multiple per vector

    def test_monotone_in_norm(self):
        norms = np.linspace(0.01, 50.0, 200)
        vals = squash_norm(norms)
        v = norms[:, None] * np.array([[1.0, 0.0]])
        out = np.linalg.norm(squash(Tensor(v), axis=-1).data, axis=1)
        assert np.all(np.diff(out) > 0)
        assert np.allclose(out, vals, atol=1e-12)

    def test_arbitrary_axis(self, rng):
        v = rng.standard_normal((4, 3, 5))
        out0 = squash(Tensor(v), axis=1).data
        moved = np.moveaxis(squash(Tensor(np.moveaxis(v, 1, -1)), axis=-1).data, -1, 1)
        assert np.allclose(out0, moved, atol=1e-12)


    @pytest.mark.parametrize("norm", [1e-20, 1.0, 1e80, 1e100, 1e120, 1e150])
    def test_output_and_gradient_match_exact_reference(self, rng, norm):
        # decimal arithmetic has no overflow: the float64 squash and its
        # backward must stay finite and accurate wherever the forward is,
        # including squared norms far past where s^2 and r^3 overflow
        x = rng.standard_normal(4)
        x *= norm / np.linalg.norm(x)
        g = rng.standard_normal(4)
        xt = Tensor(x, requires_grad=True)
        out = squash(xt, axis=-1)
        T.sum_over(T.mul(out, Tensor(g))).backward()

        with decimal.localcontext() as ctx:
            ctx.prec = 60
            xd, gd = [Decimal(v) for v in x], [Decimal(v) for v in g]
            eps = Decimal(_NORM_EPS)
            s = sum(v * v for v in xd)
            r = (s + eps).sqrt()
            f = s / ((1 + s) * r)
            fprime = (s + 2 * eps - s * s) / (2 * r ** 3 * (1 + s) ** 2)
            dot = sum(a * b for a, b in zip(gd, xd))
            want_out = np.array([float(f * v) for v in xd])
            want_grad = np.array([float(f * a + 2 * fprime * dot * b) for a, b in zip(gd, xd)])
        assert np.all(np.isfinite(xt.grad))
        assert np.max(np.abs(out.data - want_out)) <= 1e-13 * np.max(np.abs(want_out))
        assert np.max(np.abs(xt.grad - want_grad)) <= 1e-13 * np.max(np.abs(want_grad))


@pytest.mark.parametrize("axis", [0, -1], ids=["leading", "trailing"])
@pytest.mark.parametrize("length", [1, 2, 4, 8, 16])
def test_inner_matches_sum_of_products(rng, axis, length):
    # squared norms and dot products over capsules of every length the
    # configs use, along the leading axis (the flat routing form) and the
    # trailing one (einsum), zero vectors included
    shape = (length, 5, 37) if axis == 0 else (5, 37, length)
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    np.moveaxis(a, axis, 0)[:, :, :3] = 0.0
    for x, y in ((a, b), (a, a), (b, b)):
        got = _inner(x, y, axis)
        want = np.sum(x * y, axis=axis, keepdims=True)
        assert got.shape == want.shape
        scale = np.sum(np.abs(x * y), axis=axis, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-15 * scale)
    assert np.all(np.moveaxis(_inner(a, b, axis), axis, 0)[:, :, :3] == 0.0)


class TestCapsuleLength:
    def test_three_four_five(self):
        assert capsule_length(Tensor(np.array([[3.0, 4.0]])), axis=-1).data[0] == 5.0

    def test_zero(self):
        assert capsule_length(Tensor(np.zeros((1, 4))), axis=-1).data[0] == 0.0

    def test_zero_capsule_gets_zero_finite_gradient(self, rng):
        # negative control: as sqrt(sum(x * x)), the zero row's gradient was
        # 0 * inf = NaN, and NaN reached every parameter of a flat input row
        x = rng.standard_normal((3, 4))
        x[1] = 0.0
        xt = Tensor(x, requires_grad=True)
        T.sum_over(T.mul(capsule_length(xt, -1), Tensor(np.array([0.5, 2.0, -1.0])))).backward()
        assert np.all(np.isfinite(xt.grad))
        assert np.array_equal(xt.grad[1], np.zeros(4))
        for i, w in ((0, 0.5), (2, -1.0)):
            assert np.allclose(xt.grad[i], w * x[i] / np.linalg.norm(x[i]), rtol=1e-14)

    def test_norm_at_the_float64_limit(self, rng):
        # negative control: the squared norm of sixteen entries of +-1e300
        # overflows, and the plain sqrt(sum(x * x)) returned inf for 4e300
        x = rng.standard_normal((3, 16))
        x[1] = np.where(np.arange(16) % 2 == 0, 1e300, -1e300)
        xt = Tensor(x, requires_grad=True)
        n = capsule_length(xt, -1)
        assert n.data[1] == 4e300
        assert np.array_equal(n.data[[0, 2]], capsule_length(Tensor(x[[0, 2]]), -1).data)
        T.sum_over(T.mul(n, Tensor(np.array([0.5, 2.0, -1.0])))).backward()
        assert np.all(np.isfinite(xt.grad))
        for i, w in enumerate((0.5, 2.0, -1.0)):
            assert np.allclose(xt.grad[i], w * (x[i] / n.data[i]), rtol=1e-14)

    def test_composition_with_squash(self, rng):
        v = rng.standard_normal((20, 8))
        lengths = capsule_length(squash(Tensor(v), -1), -1).data
        expected = squash_norm(np.linalg.norm(v, axis=1))
        assert np.allclose(lengths, expected, atol=1e-9)


class TestRouting:
    def test_single_block_is_squash(self, rng):
        votes = rng.standard_normal((2, 3, 1, 4))
        out = dynamic_routing(Tensor(votes), 3).data
        expected = squash(Tensor(votes[:, :, 0, :]), axis=-1).data
        assert np.allclose(out, expected, atol=1e-12)

    def test_first_iteration_uniform_couplings(self, rng):
        votes = rng.standard_normal((1, 2, 5, 3))
        _, state = dynamic_routing_trace(Tensor(votes), 1)
        assert np.allclose(state.couplings[0], 0.2, atol=1e-15)
        out = dynamic_routing(Tensor(votes), 1).data
        expected = squash(Tensor(votes.mean(axis=2)), axis=-1).data
        assert np.allclose(out, expected, atol=1e-12)

    def test_matches_oracle(self, rng):
        for trial in range(30):
            shape = tuple(rng.integers(1, 5, size=4))
            iters = int(rng.choice([1, 2, 3, 5]))
            votes = rng.standard_normal(shape)
            got = dynamic_routing(Tensor(votes), iters).data
            want = routing_oracle(votes, iters)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_couplings_normalized_every_iteration(self, rng):
        votes = rng.standard_normal((2, 3, 6, 4))
        _, state = dynamic_routing_trace(Tensor(votes), 4)
        assert len(state.couplings) == 4
        for k in state.couplings:
            assert np.all(k >= 0.0)
            assert np.all(np.abs(k.sum(axis=2) - 1.0) < 1e-9)

    def test_zero_votes_give_zero_output(self):
        out = dynamic_routing(Tensor(np.zeros((1, 2, 3, 4))), 3).data
        assert np.array_equal(out, np.zeros((1, 2, 4)))

    def test_oracle_zero_votes(self):
        out = routing_oracle(np.zeros((1, 1, 2, 3)), 2)
        assert np.array_equal(out, np.zeros((1, 1, 3)))

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            dynamic_routing(Tensor(np.zeros((1, 1, 1, 1))), 0)
        with pytest.raises(ValueError):
            routing_oracle(np.zeros((1, 1, 1, 1)), 0)

    @pytest.mark.parametrize("stored_shape,flat", [((7, 3, 4, 5), True), ((12, 2, 3, 5), False)],
                             ids=["flat", "matmul"])
    def test_vote_gradient_keeps_the_votes_layout(self, rng, stored_shape, flat):
        # votes stored as (block, parent, outer, dim) and routed through a
        # transposed view: same output and gradient as the contiguous copy,
        # and the gradient has the view's strides, so no transposed copy
        stored = rng.standard_normal(stored_shape)
        view = stored.transpose(2, 1, 0, 3)
        assert not view.flags.c_contiguous
        assert _flat_form(view.shape) == flat
        coeffs = Tensor(rng.standard_normal(view.shape[:2] + view.shape[3:]))
        results = []
        for votes in (view, np.ascontiguousarray(view)):
            leaf = Tensor(votes, requires_grad=True)
            out = dynamic_routing(leaf, 3)
            T.sum_over(T.mul(out, coeffs)).backward()
            assert leaf.grad.strides == votes.strides
            results.append((out.data, leaf.grad))
        (out_v, grad_v), (out_c, grad_c) = results
        assert np.max(np.abs(out_v - out_c)) < 1e-12
        assert np.max(np.abs(grad_v - grad_c)) < 1e-12

    def test_logits_start_at_zero(self, rng):
        votes = rng.standard_normal((1, 2, 3, 4))
        _, state = dynamic_routing_trace(Tensor(votes), 2)
        assert np.array_equal(state.logits[0], np.zeros((1, 2, 3)))

    @pytest.mark.parametrize("flat", [True, False], ids=["flat", "matmul"])
    def test_trace_logits_agree_with_couplings_and_sums(self, rng, flat):
        # the trace rebuilds the logits from the forward's record: each
        # coupling is their softmax over the blocks, and each step adds the
        # agreement of the votes with the squashed weighted sum
        if flat:  # toy cell A's votes at batch 2
            votes = site_votes(ModelConfig.toy(), "cell_a", 2, rng)
        else:  # more blocks than (outer, parent) rows, batch 2
            votes = rng.standard_normal((2, 1, 2, 12, 4))
        assert _flat_form(votes.reshape((-1,) + votes.shape[-3:]).shape) == flat
        out, state = dynamic_routing_trace(Tensor(votes), 4)
        assert out.data.tobytes() == dynamic_routing(Tensor(votes), 4).data.tobytes()
        assert len(state.logits) == len(state.couplings) == len(state.weighted_sums) == 4
        for b, c in zip(state.logits, state.couplings):
            e = np.exp(b - b.max(axis=-1, keepdims=True))
            assert np.max(np.abs(c - e / e.sum(axis=-1, keepdims=True))) < 1e-15
        for k in range(3):
            w = state.weighted_sums[k]
            n2 = np.sum(w * w, axis=-1, keepdims=True)
            y = w * n2 / (1.0 + n2) / np.sqrt(n2)
            agreement = np.einsum("...sn,...n->...s", votes, y)
            assert np.max(np.abs(state.logits[k + 1] - state.logits[k] - agreement)) < 1e-12


class TestClassVotes:
    def test_matches_einsum_with_both_adjoints(self, rng):
        u = rng.standard_normal((4, 6, 3))
        w = rng.standard_normal((6, 3, 5, 2))
        ut, wt = Tensor(u, requires_grad=True), Tensor(w, requires_grad=True)
        votes = class_votes(ut, wt)
        assert np.allclose(votes.data, np.einsum("zna,nacb->zcnb", u, w), rtol=1e-13, atol=1e-13)
        g = rng.standard_normal(votes.shape)
        T.sum_over(T.mul(votes, Tensor(g))).backward()
        assert np.allclose(ut.grad, np.einsum("zcnb,nacb->zna", g, w), rtol=1e-13, atol=1e-13)
        assert np.allclose(wt.grad, np.einsum("zna,zcnb->nacb", u, g), rtol=1e-13, atol=1e-13)

    def test_votes_are_stored_example_major(self, rng):
        votes = class_votes(Tensor(rng.standard_normal((4, 6, 3))),
                            Tensor(rng.standard_normal((6, 3, 5, 2)))).data
        assert votes.shape == (4, 5, 6, 2)
        assert votes.transpose(0, 2, 1, 3).flags.c_contiguous

    def test_unbatched_is_one_row(self, rng):
        u, w = rng.standard_normal((6, 3)), Tensor(rng.standard_normal((6, 3, 5, 2)))
        one = class_votes(Tensor(u), w).data
        assert one.shape == (1, 5, 6, 2)
        assert np.array_equal(one, class_votes(Tensor(u[None]), w).data)

    @pytest.mark.parametrize("us,ws", [((6, 4), (6, 3, 5, 2)), ((7, 3), (6, 3, 5, 2)),
                                       ((2, 2, 6, 3), (6, 3, 5, 2)), ((6, 3), (6, 3, 10))])
    def test_rejects_mismatched_shapes(self, us, ws):
        with pytest.raises(ShapeError):
            class_votes(Tensor(np.ones(us)), Tensor(np.ones(ws)))


class TestRoutingAtModelSites:
    """Both routing forms at the shapes and memory layouts of the six model
    sites (cell A, cell B and the class stage of the toy and beat configs),
    unbatched and at batch 16."""

    SITES = [(name, cfg, site, batch, "model")
             for name, cfg in (("toy", ModelConfig.toy()), ("beat", BEAT_CFG))
             for site in ("cell_a", "cell_b", "class") for batch in (1, 16)]
    # the cells' votes in a layout the flat form has to copy, and the class
    # votes stored (N, classes, B, a_sig), class-major
    SITES += [(name, cfg, site, 16, "class_major" if site == "class" else "rows")
              for name, cfg, site, batch, _ in SITES if batch == 16]
    IDS = [f"{name}-{site}-b{batch}" + ("" if layout == "model" else f"-{layout}")
           for name, _, site, batch, layout in SITES]

    @pytest.mark.parametrize("name,cfg,site,batch,layout", SITES, ids=IDS)
    def test_output_matches_oracle(self, rng, name, cfg, site, batch, layout):
        votes = site_votes(cfg, site, batch, rng, layout)
        rows = votes.reshape((-1,) + votes.shape[-3:])  # a batch routes like more outer rows
        # the shape rule: cells route on flat vectors, the class stage by matmul
        assert _flat_form(rows.shape) == (site != "class")
        got = dynamic_routing(Tensor(votes), 3).data
        want = routing_oracle(rows, 3)
        assert np.max(np.abs(got.reshape(want.shape) - want)) < 1e-10

    @pytest.mark.parametrize("name,cfg,site,batch,layout", SITES, ids=IDS)
    def test_vote_gradient_matches_finite_differences(self, rng, name, cfg, site, batch, layout):
        # directional derivatives along random directions, so every vote is probed
        votes = site_votes(cfg, site, batch, rng, layout)
        coeffs = rng.standard_normal(votes.shape[:-2] + votes.shape[-1:])
        leaf = Tensor(votes, requires_grad=True)
        weighted_routing(leaf, coeffs).backward()
        # the votes' layout (a stride along a unit axis is arbitrary)
        assert all(g == v for g, v, n in zip(leaf.grad.strides, votes.strides, votes.shape) if n > 1)
        h = 1e-5
        for _ in range(2):
            u = rng.standard_normal(votes.shape)
            plus = weighted_routing(Tensor(votes + h * u), coeffs).item()
            minus = weighted_routing(Tensor(votes - h * u), coeffs).item()
            analytic = float(np.sum(leaf.grad * u))
            assert abs((plus - minus) / (2 * h) - analytic) < 1e-6 * max(1.0, abs(analytic))

    @pytest.mark.parametrize("name,cfg", [("toy", ModelConfig.toy()), ("beat", BEAT_CFG)])
    @pytest.mark.parametrize("site", ["cell_a", "cell_b"])
    def test_flat_form_reads_model_votes_without_a_copy(self, rng, monkeypatch, name, cfg, site):
        # the votes the cells make are a view of the vote conv's output, which
        # routing reads as its (block, dim, rows) form without copying, and
        # the vote gradient comes back with the votes' own strides
        made = []
        real_conv2d = model.conv2d
        monkeypatch.setattr(model, "conv2d", lambda *a: made.append(real_conv2d(*a)) or made[-1])
        votes = site_votes(cfg, site, 16, rng)
        rows = votes.reshape((-1,) + votes.shape[-3:])
        _, rec = _route(rows, 3)
        assert rec.flat
        assert np.shares_memory(rec.votes, made[0].data)
        leaf = Tensor(votes, requires_grad=True)
        weighted_routing(leaf, rng.standard_normal(votes.shape[:-2] + votes.shape[-1:])).backward()
        # (a stride along a unit axis is arbitrary)
        assert all(g == v for g, v, n in zip(leaf.grad.strides, votes.strides, votes.shape) if n > 1)

    @pytest.mark.parametrize("name,cfg", [("toy", ModelConfig.toy()), ("beat", BEAT_CFG)])
    def test_class_stage_routes_and_returns_its_votes_without_a_copy(self, rng, monkeypatch,
                                                                      name, cfg):
        # routing reads the votes class_votes made, and class_votes' backward
        # reads the vote gradient routing wrote, each through a view
        made, routed, written, read = [], [], [], []

        def spy(fn, calls):
            return lambda *a: calls.append(fn(*a)) or calls[-1]

        monkeypatch.setattr(model, "class_votes", spy(model.class_votes, made))
        monkeypatch.setattr(capsules, "_route", spy(capsules._route, routed))
        monkeypatch.setattr(capsules, "_route_backward", spy(capsules._route_backward, written))
        real_view = capsules._capsule_major
        monkeypatch.setattr(capsules, "_capsule_major", lambda a: read.append((a, real_view(a))) or read[-1][1])
        params = init_params(cfg, seed=0)
        omega = Tensor(rng.standard_normal((16, cfg.num_caps, cfg.a_sa)), requires_grad=True)
        out = model.classification_forward(omega, params, cfg)
        T.sum_over(T.mul(out, Tensor(rng.standard_normal(out.shape)))).backward()
        rec = routed[0][1]
        assert not rec.flat
        assert np.shares_memory(rec.votes, made[0].data)
        (gout, g), = read[1:]  # read[0] is the forward's output view
        assert np.shares_memory(gout, written[0]) and np.shares_memory(g, written[0])
        assert omega.grad is not None and params["class_weights"].grad is not None

    @pytest.mark.parametrize("name,cfg", [("toy", ModelConfig.toy()), ("beat", BEAT_CFG)])
    @pytest.mark.parametrize("site", ["cell_a", "cell_b"])
    def test_vote_gradient_does_not_depend_on_the_layout(self, rng, name, cfg, site):
        # the flat form's einsum writes into a view of a buffer laid out as
        # the votes are: the model's view, a C-ordered and a Fortran-ordered
        # copy of the same votes give the same bits
        votes = site_votes(cfg, site, 16, rng)
        coeffs = rng.standard_normal(votes.shape[:-2] + votes.shape[-1:])
        grads = []
        for v in (votes, np.ascontiguousarray(votes), np.asfortranarray(votes)):
            leaf = Tensor(v, requires_grad=True)
            weighted_routing(leaf, coeffs).backward()
            grads.append(np.ascontiguousarray(leaf.grad).tobytes())
        assert grads[0] == grads[1] == grads[2]

    @pytest.mark.parametrize("site,layout,bound", [("cell_a", "model", 10), ("cell_a", "rows", 9),
                                                   ("class", "model", 3)])
    def test_backward_memory_is_bounded(self, rng, site, layout, bound):
        # traced peak of one routing forward and backward at the beat shapes,
        # batch 16.  Model-made cell-A votes peak near 7.9x their size.  Votes
        # laid out otherwise are copied once, and the copy stays on the tape
        # until the backward: near 8.9x.  The class votes, routed in the
        # matmul form, peak near 2.0x.
        votes = site_votes(BEAT_CFG, site, 16, rng, layout)
        coeffs = rng.standard_normal(votes.shape[:-2] + votes.shape[-1:])
        tracemalloc.start()
        try:
            weighted_routing(Tensor(votes, requires_grad=True), coeffs).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * votes.nbytes


class TestMarginLoss:
    def test_zero_when_margins_satisfied(self):
        lengths = Tensor(np.array([0.95, 0.05, 0.05]))
        assert margin_loss(lengths, 0).item() == 0.0

    def test_true_class_hinge(self):
        assert margin_loss(Tensor(np.array([0.4])), 0).item() == pytest.approx(0.25, abs=1e-12)

    def test_wrong_class_hinge(self):
        # class 0 true with length 0.9 exactly; class 1 wrong at 0.6
        loss = margin_loss(Tensor(np.array([0.9, 0.6])), 0).item()
        assert loss == pytest.approx(0.125, abs=1e-12)

    def test_nonnegative_and_zero_iff_margins(self, rng):
        for _ in range(200):
            lengths = rng.uniform(0.0, 1.0, size=4)
            true = int(rng.integers(0, 4))
            loss = margin_loss(Tensor(lengths), true).item()
            assert loss >= 0.0
            satisfied = lengths[true] >= 0.9 and all(
                lengths[j] <= 0.1 for j in range(4) if j != true)
            assert (loss == 0.0) == satisfied

    def test_bad_class_index(self):
        with pytest.raises(ValueError):
            margin_loss(Tensor(np.array([0.5, 0.5])), 2)


class TestMseLoss:
    def test_identical_signals(self, rng):
        x = rng.standard_normal(16)
        assert mse_loss(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_unit_difference(self):
        assert mse_loss(Tensor(np.array([1.0, 1.0])), Tensor(np.zeros(2))).item() == 1.0

    def test_mean_of_squares(self):
        assert mse_loss(Tensor(np.array([2.0, 0.0])), Tensor(np.zeros(2))).item() == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
