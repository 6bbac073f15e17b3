"""The two-cell 1D capsule network: front convolution, channel-sliced and
segment-sliced capsule cells, weighted concatenation, class capsules, and a
deconvolution decoder.

Shapes, given a config (every stage also takes a leading batch axis B,
which its output then carries: (B, L) -> (B, L, k) and so on):
  front_conv              (L,)            -> (L, k)
  cell_a_forward          (L, k)          -> (L*c_sa, a_sa)
  cell_b_forward          (L, k)          -> ((L/n)*c_sb, a_sb)
  concat_weighted                         -> (N, a_s)        N = L*c_sa + (L/n)*c_sb
  classification_forward  (N, a_s)        -> (num_classes, a_sig)
  decoder_forward         class capsules  -> (L,)

``classify`` runs everything up to the class capsules (all prediction
needs); ``model_forward`` adds the decoder's reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .capsules import capsule_length, dynamic_routing, squash
from .conv import conv1d, conv2d, deconv1d
from .errors import ConfigError, ShapeError
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
        self.decoder_fc = tuple(int(v) for v in self.decoder_fc)
        self.decoder_deconv = tuple(tuple(int(v) for v in spec) for spec in self.decoder_deconv)
        self.validate()

    def validate(self):
        ints = {
            "L": self.L, "k": self.k, "g1": self.g1, "g2": self.g2, "g3": self.g3,
            "g_b": self.g_b, "c_p": self.c_p, "a_p": self.a_p, "c_sa": self.c_sa,
            "a_sa": self.a_sa, "c_b": self.c_b, "a_b": self.a_b, "n": self.n,
            "c_sb": self.c_sb, "a_sb": self.a_sb, "a_sig": self.a_sig,
            "num_classes": self.num_classes, "routing_iters": self.routing_iters,
        }
        for name, value in ints.items():
            try:
                valid = int(value) == value and value >= 1
            except (TypeError, ValueError):
                valid = False
            if not valid:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.L % self.n != 0:
            raise ConfigError(f"L={self.L} must be divisible by segment length n={self.n}")
        if self.a_sa != self.a_sb:
            raise ConfigError(f"a_sa={self.a_sa} must equal a_sb={self.a_sb} for concatenation")
        if len(self.decoder_fc) != 2 or any(v < 1 for v in self.decoder_fc):
            raise ConfigError(f"decoder_fc must be two positive widths, got {self.decoder_fc}")
        if len(self.decoder_deconv) != 5:
            raise ConfigError(f"decoder_deconv must have five stages, got {len(self.decoder_deconv)}")
        for spec in self.decoder_deconv:
            if len(spec) != 3 or any(v < 1 for v in spec):
                raise ConfigError(f"bad decoder stage {spec}; want (channels, width, stride) >= 1")
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
        d = dict(d)
        if "decoder_fc" in d:
            d["decoder_fc"] = tuple(d["decoder_fc"])
        if "decoder_deconv" in d:
            d["decoder_deconv"] = tuple(tuple(s) for s in d["decoder_deconv"])
        return cls(**d)

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

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def items(self):
        return self._tensors.items()

    def names(self) -> list[str]:
        return list(self._tensors)

    def tensors(self) -> dict[str, Tensor]:
        return self._tensors

    def replace(self, tensors: dict[str, Tensor]) -> "ModelParams":
        merged = dict(self._tensors)
        merged.update(tensors)
        return ModelParams(self.config, merged)

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
        "class_weights": (cfg.num_caps, cfg.num_classes, cfg.a_sa, cfg.a_sig),
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


def init_params(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    """Glorot-uniform kernels and weights, small positive biases (keeps the
    decoder's ReLU units initially live), unit concat scalars."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in param_shapes(cfg).items():
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
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(cfg, tensors)


def count_parameters(params: ModelParams) -> int:
    return sum(p.size for p in params.tensors().values())


def _argmax_classes(lengths: Tensor):
    """Index of the longest class capsule: an int, or one per batch row."""
    pred = np.argmax(lengths.data, axis=-1)
    return int(pred) if pred.ndim == 0 else pred


@dataclass
class Classification:
    """The classifier's part of a forward pass: class capsules, their lengths,
    and the inspectable intermediates."""

    class_capsules: Tensor
    class_lengths: Tensor
    intermediates: dict[str, Tensor] = field(default_factory=dict)

    def predicted_class(self):
        return _argmax_classes(self.class_lengths)


@dataclass
class ForwardOutput:
    """Everything one forward pass produces, plus inspectable intermediates.

    With a batch axis, ``mask_class`` holds one class index per row."""

    class_capsules: Tensor
    class_lengths: Tensor
    reconstruction: Tensor
    mask_class: int | np.ndarray
    intermediates: dict[str, Tensor] = field(default_factory=dict)

    def predicted_class(self):
        return _argmax_classes(self.class_lengths)


def front_conv(x: Tensor, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Same-padded width-g1 convolution of the raw signal into k feature maps."""
    if x.data.ndim not in (1, 2) or x.shape[-1] != cfg.L:
        raise ShapeError(f"input shape {x.shape} is not ({cfg.L},) or (B, {cfg.L})")
    return conv1d(T.reshape(x, x.shape + (1,)), params["front_kernels"], stride=1, pad="same")


def cell_a_forward(phi: Tensor, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Channel-sliced capsules: primary capsules along the feature axis vote
    (one kernel slid along time over each primary capsule's block of the
    feature axis) for next-layer feature-map bundles, which are then routed
    over the primary channel blocks."""
    lead = phi.shape[:-2]
    length, fa = cfg.L, cfg.c_p * cfg.a_p
    feats = conv1d(phi, params["cell_a_conv"], stride=1, pad="same")  # (L, c_p*a_p)
    primary = squash(T.reshape(feats, lead + (length, cfg.c_p, cfg.a_p)), axis=-1)
    stacked = T.reshape(primary, lead + (length, fa, 1))
    votes = conv2d(stacked, params["cell_a_votes"])  # one width-a_p block per primary capsule
    votes = T.reshape(votes, lead + (length, cfg.c_p, cfg.c_sa, cfg.a_sa))
    k = len(lead)
    votes = T.permute(votes, tuple(range(k)) + (k, k + 2, k + 1, k + 3))  # block axis = c_p
    routed = dynamic_routing(votes, cfg.routing_iters)  # (L, c_sa, a_sa)
    return T.reshape(routed, lead + (length * cfg.c_sa, cfg.a_sa))


def cell_b_forward(phi: Tensor, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Segment-sliced capsules: the signal is cut into length-n segments whose
    capsules vote for past/future segment content; votes are routed over the
    segment axis."""
    lead = phi.shape[:-2]
    length, fb, n = cfg.L, cfg.c_b * cfg.a_b, cfg.n
    segments = length // n
    reduced = conv1d(phi, params["cell_b_reduce"], stride=1, pad="same")  # 1x1 conv
    feats = conv1d(reduced, params["cell_b_conv"], stride=1, pad="same")  # (L, c_b*a_b)
    primary = squash(T.reshape(feats, lead + (segments, n, fb)), axis=-1)
    stacked = T.reshape(primary, lead + (segments, n * fb, 1))
    votes = conv2d(stacked, params["cell_b_votes"])  # one width-fb block per segment sample
    votes = T.reshape(votes, lead + (segments, n, cfg.c_sb, cfg.a_sb))
    k = len(lead)
    votes = T.permute(votes, tuple(range(k)) + (k, k + 2, k + 1, k + 3))  # block axis = n
    routed = dynamic_routing(votes, cfg.routing_iters)  # (L/n, c_sb, a_sb)
    return T.reshape(routed, lead + (segments * cfg.c_sb, cfg.a_sb))


def concat_weighted(omega_a: Tensor, omega_b: Tensor, alpha: Tensor, beta: Tensor) -> Tensor:
    """Stack alpha-scaled and beta-scaled capsule sets along the capsule axis."""
    if omega_a.shape[-1] != omega_b.shape[-1]:
        raise ShapeError(
            f"capsule dims differ: {omega_a.shape[-1]} vs {omega_b.shape[-1]}")
    return T.concat([T.scale(omega_a, alpha), T.scale(omega_b, beta)], axis=-2)


def classification_forward(omega_cc: Tensor, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Per-capsule learned transforms produce one vote per class; votes are
    routed over all N capsules to yield one capsule per class."""
    w = params["class_weights"]  # (N, num_classes, a_s, a_sig)
    n_caps, classes, a_s, a_sig = w.shape
    lead = omega_cc.shape[:-2]
    if omega_cc.data.ndim not in (2, 3) or omega_cc.shape[-2:] != (n_caps, a_s):
        raise ShapeError(f"expected capsules {(n_caps, a_s)}, got {omega_cc.shape}")
    spec = "zna,ncab->zcnb" if lead else "na,ncab->cnb"
    votes = T.contract(spec, omega_cc, w)  # ([B,] classes, N, a_sig)
    rows = lead[0] if lead else 1
    votes = T.reshape(votes, (rows, classes, n_caps, a_sig))  # one outer row per example
    routed = dynamic_routing(votes, cfg.routing_iters)  # (1, classes, a_sig)
    return T.reshape(routed, lead + (classes, a_sig))


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    spec = "zi,io->zo" if x.data.ndim == 2 else "i,io->o"
    return T.add(T.contract(spec, x, w), b)


def decoder_forward(class_capsules: Tensor, mask_class, params: ModelParams,
                    cfg: ModelConfig) -> Tensor:
    """Reconstruct the signal from one surviving class capsule.

    All capsules except ``mask_class`` (one per row with a batch axis) are
    zeroed, then two ReLU FC layers feed five transposed convolutions (ReLU
    between, linear last) that upsample back to length L.
    """
    lead = class_capsules.shape[:-2]
    labels = np.asarray(mask_class)
    if labels.shape != lead:
        raise ShapeError(f"mask_class of shape {labels.shape} does not match capsules {class_capsules.shape}")
    if np.any(labels < 0) or np.any(labels >= cfg.num_classes):
        raise ValueError(f"mask_class {mask_class} out of range for {cfg.num_classes} classes")
    mask = np.eye(cfg.num_classes)[labels][..., None]  # ([B,] classes, 1)
    masked = T.mul(class_capsules, Tensor(mask))
    h = T.reshape(masked, lead + (cfg.num_classes * cfg.a_sig,))
    h = T.relu(_linear(h, params["decoder_fc1_w"], params["decoder_fc1_b"]))
    h = T.relu(_linear(h, params["decoder_fc2_w"], params["decoder_fc2_b"]))
    seed_len, seed_ch = cfg.decoder_seed()
    h = T.reshape(h, lead + (seed_len, seed_ch))
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
    return ForwardOutput(
        class_capsules=out.class_capsules,
        class_lengths=out.class_lengths,
        reconstruction=reconstruction,
        mask_class=chosen,
        intermediates=out.intermediates,
    )
