"""Loss functions of paper §IV-D (Eqs. 7–9).

- :func:`regression_loss` — τ_reg, the squared error between predicted and
  true return ratios.
- :func:`ranking_loss` — τ_rank, the pairwise hinge that penalizes every
  stock pair whose predicted order contradicts the true order.
- :func:`combined_loss` — τ = τ_reg + α·τ_rank + λ‖β‖².

Both τ terms are *averaged* (over stocks / over ordered pairs) rather than
summed so that the balancing parameter α has a scale independent of the
universe size — Feng et al.'s released RSR code does the same, and the
paper's α grid (0…0.5) only makes sense under this convention.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..tensor import Tensor, ensure_tensor
from ..tensor.fused import (fused_enabled, l2_penalty_fused,
                            rank_loss_fused)

__all__ = ["regression_loss", "ranking_loss", "combined_loss",
           "l2_penalty"]


def regression_loss(predicted: Tensor, actual: Tensor) -> Tensor:
    """Eq. (7): mean squared error between score and true return ratio."""
    predicted = ensure_tensor(predicted)
    actual = ensure_tensor(actual)
    if predicted.shape != actual.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs "
                         f"{actual.shape}")
    diff = predicted - actual
    return (diff * diff).mean()


def ranking_loss(predicted: Tensor, actual: Tensor) -> Tensor:
    """Eq. (8): pairwise ranking-aware hinge.

    ``ReLU(-(r̂_i − r̂_j)(r_i − r_j))`` over all ordered pairs ``(i, j)``;
    the penalty is positive exactly when the predicted order of a pair
    disagrees with the true order, and proportional to both margins.
    """
    predicted = ensure_tensor(predicted)
    actual = ensure_tensor(actual)
    if predicted.ndim != 1 or actual.ndim != 1:
        raise ValueError("ranking loss expects 1-D score vectors, got "
                         f"{predicted.shape} and {actual.shape}")
    n = predicted.shape[0]
    if n < 2:
        return (predicted * 0.0).sum()
    pred_diff = predicted.unsqueeze(1) - predicted.unsqueeze(0)
    true_diff = ensure_tensor(actual.data[:, None] - actual.data[None, :])
    hinge = (-(pred_diff * true_diff)).relu()
    return hinge.sum() * (1.0 / (n * (n - 1)))


def l2_penalty(parameters: Iterable[Tensor]) -> Tensor:
    """‖β‖²: the summed squared norm of all learnable parameters.

    One tape node while the fused kernels are enabled
    (:func:`repro.tensor.fused.l2_penalty_fused`).
    """
    if fused_enabled():
        return l2_penalty_fused(parameters)
    total: Optional[Tensor] = None
    for param in parameters:
        term = (param * param).sum()
        total = term if total is None else total + term
    if total is None:
        raise ValueError("no parameters supplied to l2_penalty")
    return total


def combined_loss(predicted: Tensor, actual: Tensor, alpha: float,
                  parameters: Optional[Iterable[Tensor]] = None,
                  weight_decay: float = 0.0) -> Tensor:
    """Eq. (9): τ = τ_reg + α·τ_rank + λ‖β‖².

    ``τ_reg + α·τ_rank`` is one tape node while the fused kernels are
    enabled (:func:`repro.tensor.fused.rank_loss_fused`) for 1-D scores of
    two or more stocks against constant labels.
    """
    predicted = ensure_tensor(predicted)
    actual = ensure_tensor(actual)
    if (fused_enabled() and predicted.ndim == 1
            and predicted.shape == actual.shape and predicted.shape[0] > 1
            and not actual.requires_grad):
        loss = rank_loss_fused(predicted, actual, alpha)
    else:
        loss = regression_loss(predicted, actual)
        if alpha:
            loss = loss + alpha * ranking_loss(predicted, actual)
    if weight_decay and parameters is not None:
        loss = loss + weight_decay * l2_penalty(parameters)
    return loss
