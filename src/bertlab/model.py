"""Transformer encoder (post-layer-norm, learned position/segment embeddings)
with the five task heads: masked-token prediction, next-sentence
classification, token classification, span extraction, and sequence
classification.

Parameters live in a flat {dotted path: Tensor} dict. Paths are stable and
carry the layer index ("encoder.3.attention.q.weight"), which is what the
discriminative-learning-rate, freezing, and checkpoint code keys on.
Attention masking is additive: masked positions get -1e9 before softmax,
which underflows to an exactly-zero attention weight, so padding content
cannot leak into real positions even at the bit level.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import truncnorm

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError, Record
from .tokenizer import Vocabulary

INIT_STD = 0.02
LAYER_NORM_EPS = 1e-12
MASK_BIAS = -1e9


@dataclass(frozen=True)
class ModelConfig(Record):
    n_layers: int
    hidden_dim: int
    n_heads: int
    ff_dim: int
    max_seq_len: int
    vocab_size: int
    n_segment_types: int = 2
    dropout_rate: float = 0.1
    tie_mlm_decoder: bool = True
    layer_norm_eps: float = LAYER_NORM_EPS

    def __post_init__(self):
        if min(self.n_layers, self.hidden_dim, self.n_heads, self.ff_dim,
               self.max_seq_len, self.vocab_size, self.n_segment_types) <= 0:
            raise ConfigurationError(f"model dimensions must be positive: {self}")
        if self.hidden_dim % self.n_heads:
            raise ConfigurationError(
                f"hidden_dim {self.hidden_dim} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(f"dropout_rate {self.dropout_rate} outside [0, 1)")

    @property
    def head_dim(self):
        return self.hidden_dim // self.n_heads


@dataclass
class ModelState:
    """A model and how far it has trained: parameters, config, vocabulary, the
    step and Adam state reached, and the ancestor checkpoint ids, oldest
    first. A loaded checkpoint is one that also carries its own id."""
    config: ModelConfig
    params: dict
    vocab: Vocabulary
    step: int = 0
    optimizer_state: dict = field(default_factory=dict)
    lineage: tuple = ()
    checkpoint_id: str = None

    def __post_init__(self):
        if len(self.vocab) != self.config.vocab_size:
            raise ConfigurationError(f"vocabulary size {len(self.vocab)} != "
                                     f"model vocab_size {self.config.vocab_size}")

    @property
    def fingerprint(self):
        return self.vocab.fingerprint


def param_group(path: str):
    """("embeddings", None) | ("encoder", layer_idx) | ("head", None)."""
    parts = path.split(".")
    if parts[0] == "embeddings":
        return ("embeddings", None)
    if parts[0] == "encoder" and len(parts) > 1 and parts[1].isdigit():
        return ("encoder", int(parts[1]))
    if parts[0] == "heads":
        return ("head", None)
    raise ValueError(f"unresolvable parameter path {path!r}")


def is_no_decay(path: str) -> bool:
    """Norm parameters and biases are excluded from weight decay."""
    return path.endswith(".bias") or ".norm." in path


def _trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return truncnorm.rvs(-2.0, 2.0, scale=INIT_STD, size=shape, random_state=rng)


def param_shapes(config: ModelConfig) -> dict:
    """{path: shape} of the base model (no task heads), in initialization
    order. Layer 0 is nearest the input."""
    h, v = config.hidden_dim, config.vocab_size
    shapes = {"embeddings.token": (v, h),
              "embeddings.position": (config.max_seq_len, h),
              "embeddings.segment": (config.n_segment_types, h)}

    def linear(prefix, n_in, n_out):
        shapes[prefix + ".weight"] = (n_in, n_out)
        shapes[prefix + ".bias"] = (n_out,)

    def norm(prefix):
        shapes[prefix + ".gain"] = (h,)
        shapes[prefix + ".bias"] = (h,)

    norm("embeddings.norm")
    for i in range(config.n_layers):
        base = f"encoder.{i}"
        for proj in ("q", "k", "v", "out"):
            linear(f"{base}.attention.{proj}", h, h)
        norm(f"{base}.attention.norm")
        linear(f"{base}.ffn.in", h, config.ff_dim)
        linear(f"{base}.ffn.out", config.ff_dim, h)
        norm(f"{base}.ffn.norm")
    linear("heads.mlm.transform", h, h)
    norm("heads.mlm.norm")
    if not config.tie_mlm_decoder:
        shapes["heads.mlm.decoder.weight"] = (h, v)
    shapes["heads.mlm.decoder.bias"] = (v,)
    linear("heads.pooler", h, h)
    linear("heads.nsp", h, 2)
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict:
    """Fresh parameter dict: truncated-normal weights (std 0.02), zero biases,
    unit norm gains, drawn in param_shapes order."""
    p = {}
    for path, shape in param_shapes(config).items():
        if path.endswith(".gain"):
            data = np.ones(shape)
        elif path.endswith(".bias"):
            data = np.zeros(shape)
        else:
            data = _trunc_normal(rng, shape)
        p[path] = Tensor(data, requires_grad=True)
    return p


def add_task_head(params: dict, config: ModelConfig, name: str, n_out: int,
                  rng: np.random.Generator) -> None:
    """Attach a linear head ("ner", "qa", "re") of width n_out."""
    params[f"heads.{name}.weight"] = Tensor(
        _trunc_normal(rng, (config.hidden_dim, n_out)), requires_grad=True)
    params[f"heads.{name}.bias"] = Tensor(np.zeros(n_out), requires_grad=True)


def _linear(x: Tensor, params: dict, prefix: str) -> Tensor:
    return ad.add(ad.matmul(x, params[prefix + ".weight"]), params[prefix + ".bias"])


def _norm(x: Tensor, params: dict, prefix: str, eps: float) -> Tensor:
    return ad.layer_norm(x, params[prefix + ".gain"], params[prefix + ".bias"], eps)


def attention_mask_bias(attention_mask: np.ndarray, dtype) -> np.ndarray:
    """(B, L) 1/0 mask -> (B, 1, 1, L) additive bias, -1e9 at PAD columns."""
    return ((1.0 - attention_mask.astype(np.float64)) * MASK_BIAS)[:, None, None, :].astype(dtype)


def forward_encoder(params: dict, config: ModelConfig, input_ids, segment_ids,
                    attention_mask, train: bool = False,
                    rng: np.random.Generator = None,
                    attention_out: list = None) -> Tensor:
    """Hidden states (B, L, H). attention_mask is 1 at real positions, 0 at PAD.

    train=True enables dropout (requires rng). attention_out, if a list,
    receives each layer's post-softmax attention probabilities.
    """
    input_ids = np.asarray(input_ids)
    segment_ids = np.asarray(segment_ids)
    attention_mask = np.asarray(attention_mask)
    b, length = input_ids.shape
    if length > config.max_seq_len:
        raise ConfigurationError(
            f"sequence length {length} exceeds max_seq_len {config.max_seq_len}")
    if input_ids.size and int(input_ids.max()) >= config.vocab_size:
        raise ConfigurationError(
            f"token id {int(input_ids.max())} out of range for vocab_size {config.vocab_size}")
    if segment_ids.shape != (b, length) or attention_mask.shape != (b, length):
        raise ConfigurationError(
            f"batch arrays disagree: ids {input_ids.shape}, segments {segment_ids.shape}, "
            f"mask {attention_mask.shape}")
    if segment_ids.size and int(segment_ids.max()) >= config.n_segment_types:
        raise ConfigurationError(
            f"segment id {int(segment_ids.max())} out of range for "
            f"n_segment_types {config.n_segment_types}")
    if train and config.dropout_rate > 0.0 and rng is None:
        raise ConfigurationError("training forward pass needs an rng for dropout")
    drop = config.dropout_rate if train else 0.0

    positions = np.broadcast_to(np.arange(length), (b, length))
    x = ad.add(ad.add(ad.embedding_lookup(params["embeddings.token"], input_ids),
                      ad.embedding_lookup(params["embeddings.position"], positions)),
               ad.embedding_lookup(params["embeddings.segment"], segment_ids))
    x = _norm(x, params, "embeddings.norm", config.layer_norm_eps)
    x = ad.dropout(x, drop, rng)

    mask_bias = attention_mask_bias(attention_mask, x.dtype)
    nh, dh = config.n_heads, config.head_dim

    def split_heads(t):  # (B, L, H) -> (B, nh, L, dh)
        return ad.transpose(ad.reshape(t, (b, length, nh, dh)), (0, 2, 1, 3))

    for i in range(config.n_layers):
        base = f"encoder.{i}"
        q = split_heads(_linear(x, params, f"{base}.attention.q"))
        k = split_heads(_linear(x, params, f"{base}.attention.k"))
        v = split_heads(_linear(x, params, f"{base}.attention.v"))
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
        probs = ad.softmax(ad.add_const(scores, mask_bias), axis=-1)
        if attention_out is not None:
            attention_out.append(probs.data)
        probs = ad.dropout(probs, drop, rng)
        ctx = ad.reshape(ad.transpose(ad.matmul(probs, v), (0, 2, 1, 3)), (b, length, config.hidden_dim))
        attn = ad.dropout(_linear(ctx, params, f"{base}.attention.out"), drop, rng)
        x = _norm(ad.add(x, attn), params, f"{base}.attention.norm", config.layer_norm_eps)
        ff = _linear(ad.gelu(_linear(x, params, f"{base}.ffn.in")), params, f"{base}.ffn.out")
        ff = ad.dropout(ff, drop, rng)
        x = _norm(ad.add(x, ff), params, f"{base}.ffn.norm", config.layer_norm_eps)
    return x


def gather_rows(hidden: Tensor, rows) -> Tensor:
    """(N, H): the rows of hidden (B, L, H) at flat indices b * L + l.

    Heads that score a few positions run on these rows only; the backward
    scatter-adds into hidden (it is an embedding lookup on the flattened
    states)."""
    b, length, h = hidden.shape
    return ad.embedding_lookup(ad.reshape(hidden, (b * length, h)), rows)


def mlm_logits(hidden: Tensor, params: dict, config: ModelConfig) -> Tensor:
    """(..., V): transform -> gelu -> norm -> decode against the (tied) embedding."""
    t = ad.gelu(_linear(hidden, params, "heads.mlm.transform"))
    t = _norm(t, params, "heads.mlm.norm", config.layer_norm_eps)
    if config.tie_mlm_decoder:
        decoder = ad.transpose(params["embeddings.token"], (1, 0))
    else:
        decoder = params["heads.mlm.decoder.weight"]
    return ad.add(ad.matmul(t, decoder), params["heads.mlm.decoder.bias"])


def pooled_cls(hidden: Tensor, params: dict) -> Tensor:
    """tanh-pooled first-position vector, shared by the sequence-level heads."""
    return ad.tanh(_linear(ad.select(hidden, 1, 0), params, "heads.pooler"))


def nsp_logits(hidden: Tensor, params: dict) -> Tensor:
    return _linear(pooled_cls(hidden, params), params, "heads.nsp")


def ner_logits(hidden: Tensor, params: dict) -> Tensor:
    _require_head(params, "ner")
    return _linear(hidden, params, "heads.ner")


def qa_logits(hidden: Tensor, params: dict):
    """Start and end logits, each (B, L)."""
    _require_head(params, "qa")
    both = _linear(hidden, params, "heads.qa")
    return ad.select(both, -1, 0), ad.select(both, -1, 1)


def re_logits(hidden: Tensor, params: dict) -> Tensor:
    _require_head(params, "re")
    return _linear(pooled_cls(hidden, params), params, "heads.re")


def _require_head(params: dict, name: str) -> None:
    if f"heads.{name}.weight" not in params:
        raise ConfigurationError(f"model has no initialized {name!r} head")
