"""Reversible classifier networks: shared-weight forward/backward passes,
reconstruction-regularized training, and latent-space hard-sample
generation."""

from .errors import (
    CapacityError,
    ConfigError,
    ConsistencyError,
    DataError,
    DomainError,
    FormatError,
    NumericError,
    RevnetError,
    ShapeError,
    StateError,
)
from .layers import Conv, Dense, LeakyRelu, MaxPool, ReverseConfig, SoftmaxHead
from .losses import LossReport, cross_entropy, one_hot, reconstruction_mse
from .network import (
    ARCHITECTURES,
    NetworkSpec,
    ReversibleNetwork,
    TransformConfig,
    baseline_spec,
    check_likelihood,
    small_cnn_spec,
    transform_likelihood,
)

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    ImbalanceProfile,
    LabeledDataset,
    augment,
    compose_imbalanced,
    load_cifar_binary,
    load_mnist_idx,
    normalize_channelwise,
    synthetic_digits,
)
from .training import TrainConfig, evaluate, lr_at, run_experiment, sgd_update, train_step

__version__ = "0.1.0"
