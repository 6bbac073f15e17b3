"""timecaps: a 1D capsule network for time-series classification, built on a
self-contained reverse-mode differentiation engine."""

from .capsules import (
    LossParams,
    RoutingState,
    capsule_length,
    class_votes,
    dynamic_routing,
    dynamic_routing_trace,
    margin_loss,
    mse_loss,
    routing_oracle,
    squash,
)
from .conv import conv1d, conv2d, deconv1d
from .data import Dataset, LabeledSignal, load_csv, normalize, save_csv, split, synth_waveforms
from .errors import CheckpointError, ConfigError, DataFormatError, ShapeError, TrainingError
from .gradcheck import grad_check, run_suite
from .model import (
    Classification,
    ForwardOutput,
    ModelConfig,
    ModelParams,
    cell_a_forward,
    cell_b_forward,
    classification_forward,
    classify,
    concat_weighted,
    count_parameters,
    decoder_forward,
    front_conv,
    init_params,
    model_forward,
)
from .optim import AdamState, adam_step
from .tensor import Tensor, no_grad
from .training import (
    Checkpoint,
    TrainConfig,
    TrainReport,
    evaluate,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
    total_loss,
    train,
)

__version__ = "0.1.0"
