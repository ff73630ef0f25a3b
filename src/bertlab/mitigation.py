"""Forgetting-mitigation techniques for continued pretraining, composable per
run configuration: layer-wise learning-rate decay, warmup (parameterized here,
applied by the scheduler), layer freezing, mixout against an anchor
checkpoint, and experience replay of the original-domain corpus.

A preset registry ships the validated technique combinations under their
experiment names (R0, R3, RF, R3+, R12+, OR).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as md
from .autodiff import Tensor
from .errors import ConfigurationError, Record


@dataclass(frozen=True)
class CFConfig(Record):
    """Mitigation switches; None means off."""
    llrd_decay: float = None
    warmup_fraction: float = None
    freeze_layers: int = None
    mixout_p: float = None
    replay_every: int = None

    def __post_init__(self):
        if self.llrd_decay is not None and not 0.0 < self.llrd_decay <= 1.0:
            raise ConfigurationError(f"llrd_decay {self.llrd_decay} outside (0, 1]")
        if self.warmup_fraction is not None and not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError(f"warmup_fraction {self.warmup_fraction} outside [0, 1)")
        if self.freeze_layers is not None and self.freeze_layers < 0:
            raise ConfigurationError(f"freeze_layers {self.freeze_layers} negative")
        if self.mixout_p is not None and not 0.0 <= self.mixout_p < 1.0:
            raise ConfigurationError(f"mixout_p {self.mixout_p} outside [0, 1)")
        if self.replay_every is not None and self.replay_every < 1:
            raise ConfigurationError(f"replay_every {self.replay_every} below 1")

    def validate(self, n_layers: int) -> None:
        """Checks that need the model config; warns on unvalidated combinations."""
        if self.freeze_layers is not None and self.freeze_layers > n_layers:
            raise ConfigurationError(
                f"freeze_layers {self.freeze_layers} exceeds n_layers {n_layers}")
        for reason in self.unvalidated_reasons():
            warnings.warn(reason, stacklevel=2)
        if self.replay_every == 1:
            warnings.warn("replay_every=1 makes every step a replay step", stacklevel=2)

    def unvalidated_reasons(self):
        reasons = []
        if self.mixout_p is not None and self.replay_every is not None:
            reasons.append(
                "unvalidated combination: mixout and replay were never used together "
                "in the reference experiments")
        return reasons


# Validated technique combinations. OR is the adaptation run that continues
# from the general-domain base; the R-family continues from intermediate
# checkpoints. RF's freeze count assumes a 12-layer encoder.
PRESETS = {
    "OR": CFConfig(llrd_decay=0.9, mixout_p=0.9, warmup_fraction=0.02),
    "RF": CFConfig(freeze_layers=6),
    "R0": CFConfig(llrd_decay=0.9, replay_every=100),
    "R3": CFConfig(llrd_decay=0.9, mixout_p=0.9, warmup_fraction=0.02),
    "R3+": CFConfig(llrd_decay=0.95, mixout_p=0.9, warmup_fraction=0.02),
    "R12+": CFConfig(llrd_decay=0.95, replay_every=50),
}


def preset(name: str) -> CFConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}") from None


# ---------------------------------------------------------------------------
# layer-wise learning-rate decay
# ---------------------------------------------------------------------------


def llrd_lr(base_lr: float, decay, param_path: str, n_layers: int) -> float:
    """Top encoder layer trains at base_lr; each layer below decays once more;
    embeddings sit below the deepest layer; heads stay at base_lr."""
    if decay is None or decay == 1.0:
        return base_lr
    try:
        group, layer = md.param_group(param_path)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    if group == "encoder":
        return base_lr * decay ** (n_layers - 1 - layer)
    if group == "embeddings":
        return base_lr * decay ** n_layers
    return base_lr


def llrd_factors(paths, decay, n_layers: int) -> dict:
    """Per-path lr factors, or None when decay is off; paths are not resolved
    then, so any path is accepted."""
    if decay is None or decay == 1.0:
        return None
    return {p: llrd_lr(1.0, decay, p, n_layers) for p in paths}


# ---------------------------------------------------------------------------
# layer freezing
# ---------------------------------------------------------------------------


def frozen_paths(paths, k, n_layers: int) -> frozenset:
    """Paths of the k deepest encoder layers plus embeddings. Frozen parameters
    are skipped by the optimizer entirely, so neither gradients nor weight
    decay can move them and their optimizer state stays at initialization."""
    if not k:
        return frozenset()
    if k > n_layers:
        raise ConfigurationError(f"freeze_layers {k} exceeds n_layers {n_layers}")
    out = set()
    for p in paths:
        group, layer = md.param_group(p)
        if group == "embeddings" or (group == "encoder" and layer < k):
            out.add(p)
    return frozenset(out)


# ---------------------------------------------------------------------------
# mixout
# ---------------------------------------------------------------------------


def take_anchor(params: dict) -> dict:
    """Frozen numpy copies of the current parameter values."""
    return {path: t.data.copy() for path, t in params.items()}


def mixout_apply(current: dict, anchor: dict, p, rng: np.random.Generator) -> dict:
    """Effective parameters for one forward pass: each element keeps the
    current value with probability 1-p, else takes the anchor value, rescaled
    so the expectation equals the current value:

        out = (mask * current + (1 - mask) * anchor - p * anchor) / (1 - p)

    Gradients flow to the current parameters through the mask (factor
    mask/(1-p)); the anchor is a constant.
    """
    if p is None or p == 0.0:
        return current
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"mixout p {p} outside [0, 1)")
    mixed = dict(current)
    for path in sorted(anchor):
        theta = current[path]
        ref = anchor[path]
        if ref.shape != theta.shape:
            raise ConfigurationError(
                f"mixout anchor shape mismatch at {path}: {ref.shape} vs {theta.shape}")
        mask = (rng.random(ref.shape) >= p).astype(theta.data.dtype)
        const = (1.0 - mask) * ref - p * ref
        mixed[path] = ad.scale(ad.add_const(ad.mul(theta, Tensor(mask)), const), 1.0 / (1.0 - p))
    return mixed


# ---------------------------------------------------------------------------
# experience replay
# ---------------------------------------------------------------------------


def is_replay_step(step: int, n) -> bool:
    """step is 1-based; steps divisible by n draw from the replay corpus."""
    return bool(n) and step % n == 0


def replay_steps(total_steps: int, n) -> list:
    """The full audit: 1-based replay step numbers for a run."""
    if not n:
        return []
    return [s for s in range(1, total_steps + 1) if s % n == 0]
