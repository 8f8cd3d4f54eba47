"""`repro.nn` — a from-scratch NumPy training substrate.

Reverse-mode autograd (:mod:`~repro.nn.tensor`, :mod:`~repro.nn.ops`), the
layer vocabulary of the paper's Code 1 network (:mod:`~repro.nn.layers`,
:mod:`~repro.nn.embedding`), fused losses, optimizers, and serialization.
"""

from repro.nn import functional, init, ops
from repro.nn.embedding import Embedding
from repro.nn.layers import (
    AveragePooling1D,
    BatchNorm,
    Dense,
    Dropout,
    Flatten,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.losses import (
    binary_cross_entropy_with_logits,
    mse_loss,
    ranknet_loss,
    softmax_cross_entropy,
)
from repro.nn.optim import (
    SGD,
    Adagrad,
    Adam,
    Optimizer,
    RMSProp,
    clip_global_norm,
    global_grad_norm,
)
from repro.nn.schedulers import (
    ConstantLR,
    CosineAnnealing,
    ExponentialDecay,
    LinearWarmup,
    ReduceOnPlateau,
    Scheduler,
    StepDecay,
    build_scheduler,
)
from repro.nn.serialization import (
    compression_ratio,
    load_npz,
    on_disk_bytes,
    parameter_breakdown,
    save_npz,
)
from repro.nn.sparse_grad import SparseRowGrad, sparse_grads, sparse_grads_enabled
from repro.nn.tensor import DEFAULT_DTYPE, Parameter, Tensor, is_grad_enabled, no_grad

__all__ = [
    "DEFAULT_DTYPE",
    "Adagrad",
    "Adam",
    "AveragePooling1D",
    "BatchNorm",
    "ConstantLR",
    "CosineAnnealing",
    "Dense",
    "Dropout",
    "Embedding",
    "ExponentialDecay",
    "Flatten",
    "LinearWarmup",
    "Module",
    "Optimizer",
    "Parameter",
    "RMSProp",
    "ReLU",
    "ReduceOnPlateau",
    "SGD",
    "Scheduler",
    "Sequential",
    "SparseRowGrad",
    "StepDecay",
    "Tensor",
    "binary_cross_entropy_with_logits",
    "build_scheduler",
    "clip_global_norm",
    "compression_ratio",
    "functional",
    "global_grad_norm",
    "init",
    "is_grad_enabled",
    "load_npz",
    "mse_loss",
    "no_grad",
    "on_disk_bytes",
    "ops",
    "parameter_breakdown",
    "ranknet_loss",
    "save_npz",
    "softmax_cross_entropy",
    "sparse_grads",
    "sparse_grads_enabled",
]
