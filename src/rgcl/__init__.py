"""Robust contrastive representation learning with per-anchor automatic
temperatures.

The per-anchor loss is a distributionally robust contrastive loss: the
worst-case weighted hardness over a KL ball around the uniform weighting
of negatives.  Its dual form turns the robustness level into a learnable,
individualized temperature, optimized jointly with the encoder by a
stochastic moving-average algorithm.
"""

from .loss import HARDNESS_BOUND, RgclConfig, ViewPairs, objective_bimodal, objective_unimodal
from .encoder import EncoderParams, encode, init_encoder_params
from .numerics import RandomStream
from .optimizer import (
    OptimizerState,
    init_optimizer_state,
    step_bimodal,
    step_sogclr_baseline,
    step_unimodal,
)
from .oracle import dual_loss_anchor, hardness_scores, kl_uniform, p_star, primal_rgcl_value

__all__ = [
    "HARDNESS_BOUND",
    "RgclConfig",
    "ViewPairs",
    "EncoderParams",
    "RandomStream",
    "OptimizerState",
    "dual_loss_anchor",
    "hardness_scores",
    "kl_uniform",
    "p_star",
    "primal_rgcl_value",
    "objective_unimodal",
    "objective_bimodal",
    "encode",
    "init_encoder_params",
    "init_optimizer_state",
    "step_unimodal",
    "step_bimodal",
    "step_sogclr_baseline",
]

__version__ = "0.1.0"
