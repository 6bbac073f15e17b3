"""The two-cell 1D capsule network: front convolution, channel-sliced and
segment-sliced capsule cells, weighted concatenation, class capsules, and a
deconvolution decoder.  Both cells are one capsule cell (``_capsule_cell``)
on their own feature convolutions, cutting the feature map into capsules
along the feature axis (cell A) or into time segments (cell B).

Shapes, given a config (every stage also takes a leading batch axis B,
which its output then carries: (B, L) -> (B, L, k) and so on):
  front_conv              (L,)            -> (L, k)
  cell_a_forward          (L, k)          -> (L*c_sa, a_sa)
  cell_b_forward          (L, k)          -> ((L/n)*c_sb, a_sb)
  concat_weighted                         -> (N, a_s)        N = L*c_sa + (L/n)*c_sb
  classification_forward  (N, a_s)        -> (num_classes, a_sig)
  decoder_forward         class capsules  -> (L,)

Parameter layouts chosen for the memory layouts the stages route in:
``cell_a_votes`` (c_sa*a_sa, g3, a_p) and ``cell_b_votes`` (c_sb*a_sb, g_b,
c_b*a_b) order their output channels (dim, parent), channel d*parents + p,
and ``class_weights`` is (N, a_s, num_classes, a_sig).

``classify`` runs everything up to the class capsules (all prediction
needs); ``model_forward`` adds the decoder's reconstruction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import tensor as T
from .capsules import _one_hot, capsule_length, class_votes, dynamic_routing, squash
from .conv import conv1d, conv2d, deconv1d
from .errors import ConfigError, ShapeError, check_fields, config_from, is_integer
from .tensor import Tensor

DeconvSpec = tuple[int, int, int]  # (out channels, kernel width, stride)


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    ``L`` signal length; ``k`` front conv kernels; ``g1/g2/g3/g_b`` kernel
    widths; ``c_p/a_p`` primary capsule channels and dimension (cell A);
    ``c_sa/a_sa`` cell A output capsule channels and dimension; ``c_b/a_b``
    cell B reduced feature grouping; ``n`` segment length; ``c_sb/a_sb`` cell
    B output capsule channels and dimension; ``a_sig`` class capsule
    dimension.  ``decoder_fc`` holds the two fully connected widths and
    ``decoder_deconv`` the five (channels, width, stride) upsampling stages.
    """

    L: int = 64
    k: int = 16
    g1: int = 9
    g2: int = 9
    g3: int = 5
    g_b: int = 3
    c_p: int = 4
    a_p: int = 8
    c_sa: int = 2
    a_sa: int = 16
    c_b: int = 2
    a_b: int = 8
    n: int = 8
    c_sb: int = 4
    a_sb: int = 16
    a_sig: int = 16
    num_classes: int = 3
    routing_iters: int = 3
    decoder_fc: tuple[int, int] = (128, 256)
    decoder_deconv: tuple[DeconvSpec, ...] = ((128, 4, 2), (64, 4, 2), (32, 4, 2), (16, 6, 2), (1, 1, 1))

    def __post_init__(self):
        check_fields(self)
        try:
            self.decoder_fc = tuple(self.decoder_fc)
        except TypeError:
            raise ConfigError(f"decoder_fc must be two positive widths, got {self.decoder_fc!r}") from None
        try:
            self.decoder_deconv = tuple(tuple(spec) for spec in self.decoder_deconv)
        except TypeError:
            raise ConfigError("decoder_deconv must be five (channels, width, stride) stages, "
                              f"got {self.decoder_deconv!r}") from None
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and value < 1:
                raise ConfigError(f"{f.name} must be a positive integer, got {value!r}")
        if self.L % self.n != 0:
            raise ConfigError(f"L={self.L} must be divisible by segment length n={self.n}")
        if self.a_sa != self.a_sb:
            raise ConfigError(f"a_sa={self.a_sa} must equal a_sb={self.a_sb} for concatenation")
        if len(self.decoder_fc) != 2 or not all(is_integer(v) and v >= 1 for v in self.decoder_fc):
            raise ConfigError(f"decoder_fc must be two positive widths, got {self.decoder_fc}")
        if len(self.decoder_deconv) != 5:
            raise ConfigError(f"decoder_deconv must have five stages, got {len(self.decoder_deconv)}")
        for spec in self.decoder_deconv:
            if len(spec) != 3 or not all(is_integer(v) and v >= 1 for v in spec):
                raise ConfigError(f"decoder_deconv stage {spec} must be (channels, width, stride) >= 1")
        self.decoder_seed()  # raises if the deconv chain cannot reproduce L

    @property
    def num_caps(self) -> int:
        """Total capsule rows after concatenation: L*c_sa + (L/n)*c_sb."""
        return self.L * self.c_sa + (self.L // self.n) * self.c_sb

    def decoder_seed(self) -> tuple[int, int]:
        """(length, channels) the decoder reshapes its second FC output into.

        Derived by inverting Lout = stride*(Lin-1) + width through the five
        stages, starting from L.
        """
        length = self.L
        for channels, width, stride in reversed(self.decoder_deconv):
            back = length - width
            if back < 0 or back % stride != 0:
                raise ConfigError(
                    f"decoder stage (width={width}, stride={stride}) cannot reach length {length}")
            length = back // stride + 1
        if self.decoder_fc[1] % length != 0:
            raise ConfigError(
                f"decoder_fc[1]={self.decoder_fc[1]} not divisible by seed length {length}")
        if self.decoder_deconv[-1][0] != 1:
            raise ConfigError("final decoder stage must emit one channel")
        return length, self.decoder_fc[1] // length

    def to_dict(self) -> dict:
        d = asdict(self)
        d["decoder_fc"] = list(self.decoder_fc)
        d["decoder_deconv"] = [list(s) for s in self.decoder_deconv]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return config_from(cls, d, "model")

    @classmethod
    def toy(cls, num_classes: int = 3) -> "ModelConfig":
        """Desk-scale default (L=64), used by the synthetic task and tests."""
        return cls(num_classes=num_classes)

    @classmethod
    def tiny(cls) -> "ModelConfig":
        """Smallest useful network (L=32), sized so finite-difference
        checking of every parameter stays fast."""
        return cls(
            L=32, k=4, g1=3, g2=3, g3=3, g_b=3,
            c_p=2, a_p=4, c_sa=1, a_sa=4, c_b=1, a_b=4, n=4, c_sb=1, a_sb=4,
            a_sig=4, num_classes=2, routing_iters=3,
            decoder_fc=(8, 16),
            decoder_deconv=((4, 2, 2), (2, 2, 2), (2, 2, 2), (2, 2, 2), (1, 1, 1)),
        )


class ModelParams:
    """Ordered, named collection of trainable tensors tied to a config."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def items(self):
        return self._tensors.items()

    def names(self) -> list[str]:
        return list(self._tensors)

    def tensors(self) -> dict[str, Tensor]:
        return self._tensors

    def zero_grad(self):
        for p in self._tensors.values():
            p.grad = None


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int,
            gain: float = 1.0) -> np.ndarray:
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


# Vote and class transforms must start larger than plain feature kernels:
# routing averages many near-random vote directions and the squash is
# quadratic near zero, so unit-gain votes leave capsule norms ~1e-2 and
# agreement (and therefore learning) stalls for hundreds of steps.  These
# gains put initial vote norms at O(1), where coupling updates are effective.
_VOTE_GAIN = 5.0
_CLASS_GAIN = 8.0


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every trainable tensor's shape as a pure function of the config."""
    fa = cfg.c_p * cfg.a_p
    fb = cfg.c_b * cfg.a_b
    shapes: dict[str, tuple[int, ...]] = {
        "front_kernels": (cfg.k, cfg.g1, 1),
        "cell_a_conv": (fa, cfg.g2, cfg.k),
        "cell_a_votes": (cfg.c_sa * cfg.a_sa, cfg.g3, cfg.a_p),
        "cell_b_reduce": (fb, 1, cfg.k),
        "cell_b_conv": (fb, cfg.g_b, fb),
        "cell_b_votes": (cfg.c_sb * cfg.a_sb, cfg.g_b, fb),
        "alpha": (1,),
        "beta": (1,),
        "class_weights": (cfg.num_caps, cfg.a_sa, cfg.num_classes, cfg.a_sig),
    }
    fc1, fc2 = cfg.decoder_fc
    flat = cfg.num_classes * cfg.a_sig
    shapes["decoder_fc1_w"] = (flat, fc1)
    shapes["decoder_fc1_b"] = (fc1,)
    shapes["decoder_fc2_w"] = (fc1, fc2)
    shapes["decoder_fc2_b"] = (fc2,)
    channels = cfg.decoder_seed()[1]
    for i, (out_ch, width, _stride) in enumerate(cfg.decoder_deconv, start=1):
        shapes[f"decoder_deconv{i}_w"] = (channels, width, out_ch)
        shapes[f"decoder_deconv{i}_b"] = (out_ch,)
        channels = out_ch
    return shapes


def v1_param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Parameter shapes in the first checkpoint layout, which is also the
    order ``init_params`` draws values in: ``class_weights`` is (N,
    num_classes, a_s, a_sig) there.  The vote kernels keep their shapes but
    order their output channels (parent, dim)."""
    shapes = param_shapes(cfg)
    n_caps, a_s, classes, a_sig = shapes["class_weights"]
    shapes["class_weights"] = (n_caps, classes, a_s, a_sig)
    return shapes


def from_v1_layout(cfg: ModelConfig, name: str, data: np.ndarray) -> np.ndarray:
    """One parameter in the first checkpoint layout (see ``v1_param_shapes``)
    as a contiguous array in the current one: the vote kernels' output
    channels go from (parent, dim) to (dim, parent), and ``class_weights``
    from (N, num_classes, a_s, a_sig) to (N, a_s, num_classes, a_sig).
    Every other parameter is returned as is."""
    if name == "class_weights":
        return np.ascontiguousarray(data.transpose(0, 2, 1, 3))
    if name in ("cell_a_votes", "cell_b_votes"):
        parents, dim = (cfg.c_sa, cfg.a_sa) if name == "cell_a_votes" else (cfg.c_sb, cfg.a_sb)
        cout, g, width = data.shape
        return np.ascontiguousarray(
            data.reshape(parents, dim, g, width).transpose(1, 0, 2, 3)).reshape(cout, g, width)
    return data


def init_params(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    """Glorot-uniform kernels and weights, small positive biases (keeps the
    decoder's ReLU units initially live), unit concat scalars.  Values are
    drawn in the first checkpoint layout and reordered once, so every seed
    gives the same initial weights in either layout."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in v1_param_shapes(cfg).items():
        if name in ("alpha", "beta"):
            data = np.ones(shape)
        elif name.endswith("_b"):
            data = np.full(shape, 0.01)
        elif name == "class_weights":
            data = _glorot(rng, shape, cfg.a_sa, cfg.a_sig, gain=_CLASS_GAIN)
        elif name in ("cell_a_votes", "cell_b_votes"):
            cout, width, cin = shape
            data = _glorot(rng, shape, width * cin, width * cout, gain=_VOTE_GAIN)
        elif name.startswith("decoder_fc"):
            data = _glorot(rng, shape, shape[0], shape[1])
        elif name.startswith("decoder_deconv"):
            cin, width, cout = shape
            data = _glorot(rng, shape, width * cin, width * cout)
        else:  # convolution kernels (Cout, g, Cin)
            cout, width, cin = shape
            data = _glorot(rng, shape, width * cin, width * cout)
        tensors[name] = Tensor(from_v1_layout(cfg, name, data), requires_grad=True)
    return ModelParams(cfg, tensors)


def count_parameters(params: ModelParams) -> int:
    return sum(p.size for p in params.tensors().values())


@dataclass
class Classification:
    """The classifier's part of a forward pass: class capsules, their lengths,
    and the inspectable intermediates."""

    class_capsules: Tensor
    class_lengths: Tensor
    intermediates: dict[str, Tensor] = field(default_factory=dict, kw_only=True)

    def predicted_class(self):
        """Index of the longest class capsule: an int, or one per batch row."""
        pred = np.argmax(self.class_lengths.data, axis=-1)
        return int(pred) if pred.ndim == 0 else pred


@dataclass
class ForwardOutput(Classification):
    """Everything one forward pass produces: the classification plus the
    decoder's reconstruction and the class that masked it.

    With a batch axis, ``mask_class`` holds one class index per row."""

    reconstruction: Tensor
    mask_class: int | np.ndarray


def front_conv(x: Tensor, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Same-padded width-g1 convolution of the raw signal into k feature maps."""
    if x.data.ndim not in (1, 2) or x.shape[-1] != cfg.L:
        raise ShapeError(f"input shape {x.shape} is not ({cfg.L},) or (B, {cfg.L})")
    return conv1d(T.reshape(x, x.shape + (1,)), params["front_kernels"])


def _cell_votes(primary: Tensor, kernels: Tensor, parents: int, dim: int) -> Tensor:
    """A capsule cell's votes: the vote convolution of the ([B,] rows, blocks,
    width) primary capsules with the (dim*parents, g, width) ``kernels``,
    each block correlated along the rows, as ([B,] rows, parents, blocks,
    dim).

    The kernels order their output channels (dim, parent), so the
    block-leading conv2d output holds each block's votes as (dim, parent,
    [B,] rows), which is the flat routing form's (block, dim, rows) layout:
    the votes returned here are a permuted view that routing reads without a
    copy.
    """
    votes = conv2d(primary, kernels)  # ([B,] rows, blocks, dim*parents)
    votes = T.reshape(votes, votes.shape[:-1] + (dim, parents))
    k = votes.data.ndim - 4  # the rows axis
    return T.permute(votes, tuple(range(k)) + (k, k + 3, k + 1, k + 2))


def _capsule_cell(feats: Tensor, rows: int, blocks: int, width: int, kernels: Tensor,
                  parents: int, dim: int, iterations: int) -> Tensor:
    """Primary capsules (``rows`` x ``blocks`` of ``width``, squashed) cut from
    the ([B,] L, C) map ``feats``, their votes for ``parents`` capsules of
    ``dim`` per row, routed over the blocks: ([B,] rows*parents, dim)."""
    lead = feats.shape[:-2]
    primary = squash(T.reshape(feats, lead + (rows, blocks, width)), axis=-1)
    votes = _cell_votes(primary, kernels, parents, dim)
    routed = dynamic_routing(votes, iterations)  # ([B,] rows, parents, dim)
    return T.reshape(routed, lead + (rows * parents, dim))


def cell_a_forward(phi: Tensor, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Channel-sliced capsules: primary capsules along the feature axis vote
    (one kernel slid along time over each primary capsule's block of the
    feature axis) for next-layer feature-map bundles, which are then routed
    over the primary channel blocks."""
    feats = conv1d(phi, params["cell_a_conv"])  # (L, c_p*a_p)
    return _capsule_cell(feats, cfg.L, cfg.c_p, cfg.a_p, params["cell_a_votes"],
                         cfg.c_sa, cfg.a_sa, cfg.routing_iters)


def cell_b_forward(phi: Tensor, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Segment-sliced capsules: the signal is cut into length-n segments whose
    capsules vote for past/future segment content; votes are routed over the
    segment axis."""
    reduced = conv1d(phi, params["cell_b_reduce"])  # 1x1 conv
    feats = conv1d(reduced, params["cell_b_conv"])  # (L, c_b*a_b)
    return _capsule_cell(feats, cfg.L // cfg.n, cfg.n, cfg.c_b * cfg.a_b, params["cell_b_votes"],
                         cfg.c_sb, cfg.a_sb, cfg.routing_iters)


def concat_weighted(omega_a: Tensor, omega_b: Tensor, alpha: Tensor, beta: Tensor) -> Tensor:
    """Stack alpha-scaled and beta-scaled capsule sets along the capsule axis
    (``T.concat`` raises ShapeError when their capsule dims differ)."""
    return T.concat([T.mul(omega_a, alpha), T.mul(omega_b, beta)], axis=-2)


def classification_forward(omega_cc: Tensor, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Per-capsule learned transforms produce one vote per class; votes are
    routed over all N capsules to yield one capsule per class."""
    w = params["class_weights"]  # (N, a_s, num_classes, a_sig)
    # (B, classes, N, a_sig) votes, one outer row per example, stored
    # example-major as (B, N, classes, a_sig); class_votes checks the shapes
    votes = class_votes(omega_cc, w)
    routed = dynamic_routing(votes, cfg.routing_iters)  # (B, classes, a_sig)
    return T.reshape(routed, omega_cc.shape[:-2] + w.shape[2:])


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return T.add(T.matmul(x, w), b)


def decoder_forward(class_capsules: Tensor, mask_class, params: ModelParams,
                    cfg: ModelConfig) -> Tensor:
    """Reconstruct the signal from one surviving class capsule.

    All capsules except ``mask_class`` (one per row with a batch axis) are
    zeroed, then two ReLU FC layers feed five transposed convolutions (ReLU
    between, linear last) that upsample back to length L.
    """
    lead = class_capsules.shape[:-2]
    mask = _one_hot(mask_class, "mask_class", lead, cfg.num_classes)[..., None]  # ([B,] classes, 1)
    masked = T.mul(class_capsules, Tensor(mask))
    rows = lead[0] if lead else 1
    h = T.reshape(masked, (rows, cfg.num_classes * cfg.a_sig))
    h = T.relu(_linear(h, params["decoder_fc1_w"], params["decoder_fc1_b"]))
    h = T.relu(_linear(h, params["decoder_fc2_w"], params["decoder_fc2_b"]))
    seed_len, seed_ch = cfg.decoder_seed()
    h = T.reshape(h, (rows, seed_len, seed_ch))
    last = len(cfg.decoder_deconv)
    for i, (_out_ch, _width, stride) in enumerate(cfg.decoder_deconv, start=1):
        h = T.add(deconv1d(h, params[f"decoder_deconv{i}_w"], stride=stride),
                  params[f"decoder_deconv{i}_b"])
        if i < last:
            h = T.relu(h)
    if h.shape[-2:] != (cfg.L, 1):
        raise ConfigError(f"decoder produced {h.shape[-2:]}, expected ({cfg.L}, 1)")
    return T.reshape(h, lead + (cfg.L,))


def classify(x: Tensor, params: ModelParams, cfg: ModelConfig) -> Classification:
    """Signal(s) to class capsules and lengths: every stage but the decoder."""
    phi = front_conv(x, params, cfg)
    omega_a = cell_a_forward(phi, params, cfg)
    omega_b = cell_b_forward(phi, params, cfg)
    omega_cc = concat_weighted(omega_a, omega_b, params["alpha"], params["beta"])
    class_capsules = classification_forward(omega_cc, params, cfg)
    return Classification(
        class_capsules=class_capsules,
        class_lengths=capsule_length(class_capsules, axis=-1),
        intermediates={"phi": phi, "omega_a": omega_a, "omega_b": omega_b, "omega_cc": omega_cc},
    )


def model_forward(x: Tensor, params: ModelParams, cfg: ModelConfig,
                  mask_class=None) -> ForwardOutput:
    """Full pipeline on (L,) or (B, L) signals; ``mask_class=None`` masks the
    decoder by the predicted class (inference), labels mask by those
    (training): an int, or one per row with a batch axis."""
    out = classify(x, params, cfg)
    chosen = out.predicted_class() if mask_class is None else mask_class
    reconstruction = decoder_forward(out.class_capsules, chosen, params, cfg)
    return ForwardOutput(out.class_capsules, out.class_lengths, reconstruction, chosen,
                         intermediates=out.intermediates)
