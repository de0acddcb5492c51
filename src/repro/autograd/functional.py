"""Functional building blocks: activations, probabilistic relaxations, losses.

These are the operations the DANCE pipeline needs on top of the raw Tensor
ops: numerically-stable softmax / log-softmax, the Gumbel-softmax relaxation
used at the output of the hardware generation network (Section 3.3 of the
paper), cross-entropy with optional label smoothing, and the MSRE loss
(Eq. 2) used to train the cost estimation network — plus the finiteness
guard (:func:`check_finite_loss`) every gradient training loop applies to
its loss before an optimiser step.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.autograd.precision import is_fast_dtype
from repro.autograd.tensor import Tensor, as_tensor
from repro.utils.seeding import as_rng


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a float64 one-hot matrix for integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    out = np.zeros((indices.shape[0], num_classes), dtype=np.float64)
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out


def gumbel_softmax(
    logits: Tensor,
    temperature: float = 1.0,
    hard: bool = False,
    rng: Optional[Union[int, np.random.Generator]] = None,
    axis: int = -1,
) -> Tensor:
    """Gumbel-softmax relaxation of a categorical sample (Jang et al., 2017).

    The paper uses Gumbel softmax as the last layer of the hardware
    generation network so that the (continuous) accelerator-design features
    forwarded to the cost estimation network stay close to the discrete
    one-hot vectors the cost network was trained on.

    Parameters
    ----------
    logits:
        Unnormalised log-probabilities.
    temperature:
        Relaxation temperature; smaller values approach a discrete sample.
    hard:
        If ``True``, the forward value is the exact one-hot argmax while the
        gradient flows through the soft sample (straight-through estimator).
    rng:
        Randomness source for the Gumbel noise.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    logits = as_tensor(logits)
    generator = as_rng(rng)
    uniform = generator.uniform(low=1e-12, high=1.0, size=logits.shape)
    gumbel_noise = -np.log(-np.log(uniform))
    noisy = (logits + Tensor(gumbel_noise)) * (1.0 / temperature)
    soft = softmax(noisy, axis=axis)
    if not hard:
        return soft
    hard_values = np.zeros_like(soft.data)
    argmax = soft.data.argmax(axis=axis)
    np.put_along_axis(hard_values, np.expand_dims(argmax, axis), 1.0, axis=axis)
    # Straight-through: forward uses the one-hot, backward uses the soft sample.
    return soft + Tensor(hard_values - soft.data)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-likelihood of integer ``targets`` under ``log_probs``."""
    log_probs = as_tensor(log_probs)
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    num_classes = log_probs.shape[-1]
    target_mask = Tensor(one_hot(targets, num_classes))
    picked = (log_probs * target_mask).sum(axis=-1)
    return -picked.mean()


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    label_smoothing: float = 0.0,
) -> Tensor:
    """Cross-entropy between ``logits`` and integer class ``targets``.

    Parameters
    ----------
    label_smoothing:
        Amount of probability mass spread uniformly over the other classes,
        as used by the paper's search/training recipe (0.1).
    """
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    num_classes = logits.shape[-1]
    if logits.data.ndim == 2 and is_fast_dtype(logits.data):
        return _cross_entropy_fused(logits, targets, label_smoothing)
    log_probs = log_softmax(logits, axis=-1)
    target_dist = one_hot(targets, num_classes)
    if label_smoothing > 0.0:
        target_dist = target_dist * (1.0 - label_smoothing) + label_smoothing / num_classes
    return -(log_probs * Tensor(target_dist)).sum(axis=-1).mean()


def _cross_entropy_fused(logits: Tensor, targets: np.ndarray, label_smoothing: float) -> Tensor:
    """Cross-entropy as one autograd node (float32 fast path).

    The graph form builds the whole log-softmax subgraph (shift, exp, sum,
    log, multiply, reductions) whose backward re-walks every node; the fused
    backward is the closed form ``(softmax - target_dist) / N``.  Same math,
    different rounding order — reserved for the float32 tolerance regime
    (the float64 graph path above is fenced by the golden suites).
    """
    data = logits.data
    num_classes = data.shape[-1]
    shifted = data - data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(denom)
    target_dist = one_hot(targets, num_classes).astype(data.dtype)
    if label_smoothing > 0.0:
        target_dist = target_dist * (1.0 - label_smoothing) + np.asarray(
            label_smoothing / num_classes, dtype=data.dtype
        )
    count = data.shape[0]
    out_data = np.asarray(-(log_probs * target_dist).sum(axis=-1).mean(), dtype=data.dtype)

    def backward(grad: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        upstream = np.asarray(grad, dtype=data.dtype)
        softmax_vals = exp / denom
        logits._accumulate((softmax_vals - target_dist) * (upstream / count))

    return Tensor._make(out_data, (logits,), backward)


def mse_loss(predictions: Tensor, targets: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared error."""
    predictions = as_tensor(predictions)
    targets = as_tensor(targets).detach()
    diff = predictions - targets
    return (diff * diff).mean()


def msre_loss(predictions: Tensor, targets: Union[Tensor, np.ndarray], eps: float = 1e-12) -> Tensor:
    """Mean squared *relative* error, Eq. 2 of the paper.

    ``sum_i (1 - y_hat_i / y_i)^2`` averaged over elements.  Relative error
    prevents large-magnitude metrics (e.g. long latencies) from dominating
    the loss, which matters because the search targets *low*-cost designs.
    """
    predictions = as_tensor(predictions)
    targets_arr = np.asarray(as_tensor(targets).data, dtype=np.float64)
    if np.any(np.abs(targets_arr) < eps):
        raise ValueError("msre_loss requires non-zero targets")
    ratio = predictions * Tensor(1.0 / targets_arr)
    diff = 1.0 - ratio
    return (diff * diff).mean()


class NonFiniteLossError(FloatingPointError):
    """A training loss came out NaN or infinite, before any optimiser step used it."""

    def __init__(self, method: str, stage: str, epoch: int, batch: int, value: float) -> None:
        super().__init__(
            f"{method}: non-finite {stage} loss {value!r} at epoch {epoch}, batch {batch}"
        )
        self.method, self.stage, self.epoch, self.batch, self.value = (
            method, stage, epoch, batch, value
        )


def check_finite_loss(loss: Tensor, method: str, stage: str, epoch: int, batch: int) -> None:
    """Raise :class:`NonFiniteLossError` unless the scalar ``loss`` is finite."""
    value = loss.item()
    if not np.isfinite(value):
        raise NonFiniteLossError(method, stage, epoch, batch, value)


def accuracy(logits: Union[Tensor, np.ndarray], targets: np.ndarray) -> float:
    """Top-1 classification accuracy as a plain float."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = scores.argmax(axis=-1).reshape(-1)
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if predictions.shape[0] == 0:
        return 0.0
    return float((predictions == targets).mean())
