"""Reverse-mode automatic differentiation engine (numpy backend).

This subpackage replaces PyTorch for the purposes of this reproduction.  It
exposes a ``Tensor`` with backward(), ``Module``/``Parameter`` containers,
linear / convolutional / normalisation layers, the activations and losses the
paper relies on (ReLU, softmax, Gumbel-softmax, cross-entropy, MSRE), and
SGD / Adam optimisers with cosine or step schedules.
"""

from repro.autograd.precision import (
    default_dtype,
    resolve_dtype,
    set_default_dtype,
    use_dtype,
)
from repro.autograd.plans import clear_plan_cache, plan_cache_info
from repro.autograd.tensor import Tensor, as_tensor, concatenate, stack, where, no_grad
from repro.autograd.module import Module, Parameter
from repro.autograd import functional
from repro.autograd.functional import (
    NonFiniteLossError,
    accuracy,
    check_finite_loss,
    cross_entropy,
    gumbel_softmax,
    log_softmax,
    mse_loss,
    msre_loss,
    one_hot,
    relu,
    softmax,
)
from repro.autograd.layers import (
    BatchNorm1d,
    Dropout,
    Identity,
    Linear,
    MLP,
    ReLU,
    ResidualMLPBlock,
    Sequential,
    Softmax,
)
from repro.autograd.conv import AvgPool2d, BatchNorm2d, Conv2d, GlobalAvgPool2d
from repro.autograd.optim import SGD, Adam, Optimizer
from repro.autograd.scheduler import CosineAnnealingLR, LinearWarmup, LRScheduler, StepLR

__all__ = [
    "default_dtype",
    "resolve_dtype",
    "set_default_dtype",
    "use_dtype",
    "clear_plan_cache",
    "plan_cache_info",
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "where",
    "no_grad",
    "Module",
    "Parameter",
    "functional",
    "NonFiniteLossError",
    "accuracy",
    "check_finite_loss",
    "cross_entropy",
    "gumbel_softmax",
    "log_softmax",
    "mse_loss",
    "msre_loss",
    "one_hot",
    "relu",
    "softmax",
    "BatchNorm1d",
    "Dropout",
    "Identity",
    "Linear",
    "MLP",
    "ReLU",
    "ResidualMLPBlock",
    "Sequential",
    "Softmax",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "GlobalAvgPool2d",
    "SGD",
    "Adam",
    "Optimizer",
    "CosineAnnealingLR",
    "LinearWarmup",
    "LRScheduler",
    "StepLR",
]
