"""Transformer encoder (post-layer-norm, learned position/segment embeddings)
with the five task heads: masked-token prediction, next-sentence
classification, token classification, span extraction, and sequence
classification.

Parameters live in a flat {dotted path: Tensor} dict. Paths are stable and
carry the layer index ("encoder.3.attention.q.weight"), which is what the
discriminative-learning-rate, freezing, and checkpoint code keys on. A
training run copies them into one arena with Adam's moments (`copy_params`).
Attention masking is additive: masked positions get -1e9 before softmax,
which underflows to an exactly-zero attention weight, so padding content
cannot leak into real positions even at the bit level.

An encoder layer is seven autodiff nodes at dropout 0: attention (the q/k/v
projections through the head merge), the output linear, add_norm, the FFN's
linear, gelu and linear, and add_norm; each dropout adds one. The fused ops
give the same bits as the unfused graph they replace.
"""

import itertools
import math
import mmap
import re
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import log1p, log_ndtr, ndtr, ndtri_exp

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError, Record, within
from .tokenizer import Vocabulary

INIT_STD = 0.02
LAYER_NORM_EPS = 1e-12
MASK_BIAS = -1e9
_LAYER_PATH = re.compile(r"encoder\.(0|[1-9][0-9]*)\.")


@dataclass(frozen=True)
class ModelConfig(Record):
    n_layers: int = within("[1, inf)")
    hidden_dim: int = within("[1, inf)")
    n_heads: int = within("[1, inf)")
    ff_dim: int = within("[1, inf)")
    max_seq_len: int = within("[1, inf)")
    vocab_size: int = within("[1, inf)")
    n_segment_types: int = within("[1, inf)", 2)
    dropout_rate: float = within("[0, 1)", 0.1)
    tie_mlm_decoder: bool = True
    layer_norm_eps: float = within("(0, inf)", LAYER_NORM_EPS)

    def __post_init__(self):
        super().__post_init__()
        if self.hidden_dim % self.n_heads:
            raise ConfigurationError(
                f"hidden_dim {self.hidden_dim} not divisible by n_heads {self.n_heads}")

    @property
    def head_dim(self):
        return self.hidden_dim // self.n_heads


@dataclass
class ModelState:
    """A model and how far it has trained: parameters, config, vocabulary, the
    step and Adam state reached, and the ancestor checkpoint ids, oldest
    first. A saved or loaded state also carries its checkpoint's id."""
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


def copy_params(params: dict, optimizer_state: dict = None) -> tuple:
    """(params, slots): trainable copies of the parameter tensors and of the
    Adam slots, so a run leaves the state it was given as it was. The copies
    live in a new (3, N) arena: row 0 holds every tensor in sorted-path order,
    each Tensor.data a view into it, and rows 1 and 2 are Adam's first and
    second moments in the same layout, zero where no slot is given."""
    copies = {p: Tensor(t.data, requires_grad=True) for p, t in params.items()}
    ts = [copies[p] for p in sorted(copies)]
    arena = np.zeros((3, sum(t.data.size for t in ts)), ts[0].data.dtype)
    for t, view in zip(ts, ad.flat_views(arena[0], ts)):
        view[...], t.data = t.data, view
    m, v = (dict(zip(sorted(copies), ad.flat_views(row, ts))) for row in arena[1:])
    slots = {}
    for p, slot in (optimizer_state or {}).items():
        m[p][...], v[p][...] = slot["m"], slot["v"]
        slots[p] = {"m": m[p], "v": v[p], "t": slot["t"]}
    return copies, slots


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


# log Φ(-2) and the log of the normal mass in [-2, 2], as scipy.stats computes them
_LOG_CDF_LO = log_ndtr(-2.0)
_LOG_MASS = log1p(-ndtr(-2.0) - ndtr(-2.0))


def _trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal draws truncated to ±2σ, σ = INIT_STD: the bits of
    scipy.stats.truncnorm.rvs(-2, 2, scale=INIT_STD, size=shape,
    random_state=rng) at scipy 1.17.1, which draws one uniform q per element
    and takes the inverse CDF Φ⁻¹(Φ(-2) + q·mass) in log space. The steps
    are scipy's, in its order; its two-term logsumexp is spelled out, since
    np.logaddexp rounds differently, and takes numpy's log1p, as scipy's
    does: scipy.special's log1p, used for the mass, rounds some inputs
    differently."""
    x = np.log(rng.uniform(size=shape)) + _LOG_MASS
    hi = np.maximum(x, _LOG_CDF_LO)
    lo = np.minimum(x, _LOG_CDF_LO)
    return ndtri_exp(np.log1p(np.exp(lo - hi)) + 0.0 + hi) * INIT_STD + 0.0


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


def param_count(config: ModelConfig) -> int:
    """Scalars in the base model, counted without listing every layer."""
    one = param_shapes(replace(config, n_layers=1))
    layer = sum(math.prod(s) for path, s in one.items() if path.startswith("encoder."))
    return sum(map(math.prod, one.values())) + (config.n_layers - 1) * layer


def layer_zero_path(path: str, n_layers: int):
    """The path of a one-layer config's param_shapes that stands for path in
    an n_layers config: encoder.i.rest is encoder.0.rest for i < n_layers
    and None past the last layer; any other path stands for itself."""
    m = _LAYER_PATH.match(path)
    if m is None:
        return path
    i = m.group(1)   # compared as text first: a header may hold any digits
    if len(i) > len(str(n_layers)) or int(i) >= n_layers:
        return None
    return "encoder.0." + path[m.end():]


def missing_params(params: dict, config: ModelConfig, limit: int = 8) -> tuple:
    """(how many, the first `limit` in param_shapes order) of the base-model
    paths config needs that params lacks, found from the shapes of one layer,
    so the cost follows len(params) and limit, not n_layers."""
    one = param_shapes(replace(config, n_layers=1))
    paths = list(one)
    start = next(i for i, p in enumerate(paths) if p.startswith("encoder."))
    layer = [p[len("encoder.0."):] for p in paths if p.startswith("encoder.")]
    present = sum(layer_zero_path(p, config.n_layers) in one for p in params)
    count = len(one) + (config.n_layers - 1) * len(layer) - present
    needed = itertools.chain(
        paths[:start],
        (f"encoder.{i}.{rest}" for i in range(config.n_layers) for rest in layer),
        paths[start + len(layer):])
    return count, list(itertools.islice((p for p in needed if p not in params),
                                        min(count, limit)))


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict:
    """Fresh parameter dict: truncated-normal weights (std 0.02), zero biases,
    unit norm gains, drawn in param_shapes order. ConfigurationError when the
    float64 bytes of the parameter count cannot be mapped: the trial goes to
    the kernel directly, so malloc's thresholds do not move."""
    count = param_count(config)
    try:
        mmap.mmap(-1, 8 * count).close()
    except (OSError, OverflowError) as exc:   # OverflowError: past the address width
        raise ConfigurationError(f"model too large to build: {count} parameters "
                                 f"({type(exc).__name__}: {exc})") from None
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
    return ad.linear(x, params[prefix + ".weight"], params[prefix + ".bias"])


def _norm(x: Tensor, params: dict, prefix: str, eps: float) -> Tensor:
    return ad.layer_norm(x, params[prefix + ".gain"], params[prefix + ".bias"], eps)


def _add_norm(x: Tensor, y: Tensor, params: dict, prefix: str, eps: float) -> Tensor:
    return ad.add_norm(x, y, params[prefix + ".gain"], params[prefix + ".bias"], eps)


def attention_mask_bias(attention_mask: np.ndarray, dtype) -> np.ndarray:
    """(B, L) 1/0 mask -> (B, 1, 1, L) additive bias, -1e9 at PAD columns."""
    return ((1.0 - attention_mask.astype(np.float64)) * MASK_BIAS)[:, None, None, :].astype(dtype)


def forward_encoder(params: dict, config: ModelConfig, input_ids, segment_ids,
                    attention_mask, rows=None, *, train: bool = False,
                    rng: np.random.Generator = None) -> Tensor:
    """Hidden states (B, L, H). attention_mask is 1 at real positions, 0 at PAD.

    train=True enables dropout (requires rng).

    rows (inference only): distinct flat indices b * L + l; the result is
    then (N, H), the bits of gather_rows(forward_encoder(...), rows). The
    last layer's attention runs over every row, each sequence needing all its
    keys and values; its position-wise tail runs on the scored rows only
    (`_pack_rows`).
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
    if rows is not None:
        if train or (ad._GRAD_ENABLED and any(t.requires_grad for t in params.values())):
            raise ConfigurationError("forward_encoder rows are for inference only: "
                                     "no training pass and no recorded graph")
        rows = ad.distinct_rows("forward_encoder-rows", b * length, rows)
    drop = config.dropout_rate if train else 0.0
    eps = config.layer_norm_eps

    x = ad.add(ad.add(ad.embedding_lookup(params["embeddings.token"], input_ids),
                      ad.position_lookup(params["embeddings.position"], b, length)),
               ad.segment_lookup(params["embeddings.segment"], segment_ids))
    x = _norm(x, params, "embeddings.norm", eps)
    x = ad.dropout(x, drop, rng)

    mask_bias = attention_mask_bias(attention_mask, x.dtype)
    for i in range(config.n_layers):
        base = f"encoder.{i}"
        qkv = [params[f"{base}.attention.{proj}.{kind}"]
               for proj in "qkv" for kind in ("weight", "bias")]
        ctx = ad.attention(x, *qkv, mask_bias, config.n_heads, drop, rng)
        if rows is not None and i == config.n_layers - 1:
            pack, unpack = _pack_rows(rows, length)
            x, ctx = pack(x), pack(ctx)
        attn = ad.dropout(_linear(ctx, params, f"{base}.attention.out"), drop, rng)
        x = _add_norm(x, attn, params, f"{base}.attention.norm", eps)
        ff = _linear(ad.gelu(_linear(x, params, f"{base}.ffn.in")), params, f"{base}.ffn.out")
        ff = ad.dropout(ff, drop, rng)
        x = _add_norm(x, ff, params, f"{base}.ffn.norm", eps)
    return x if rows is None else unpack(x)


def _pack_rows(rows: np.ndarray, length: int) -> tuple:
    """(pack, unpack) for the rows b * L + l of (B, L, H) arrays: pack
    copies them into an (S, L, H) Tensor, zero elsewhere, each at its own
    position l in slot s, the count of earlier rows at l (S is the most rows
    one position holds); unpack reads (N, H) back from there. numpy runs a
    3-D product as one (L, H) product per leading index, and the norms and
    GELU are row-wise or elementwise, so each row gets the bits it gets in
    the full (B, L, H) layer; a flattened (N, H) product would not."""
    seq, pos = np.divmod(rows, length)
    order = np.argsort(pos, kind="stable")
    slot = np.empty_like(rows)   # rank among the rows at one position, from its group's start
    slot[order] = np.arange(len(rows)) - np.searchsorted(pos[order], pos[order])
    n_slots = int(slot.max()) + 1 if len(rows) else 0

    def pack(t: Tensor) -> Tensor:
        out = np.zeros((n_slots, length, t.shape[-1]), t.dtype)
        out[slot, pos] = t.data[seq, pos]
        with ad.precision(t.dtype):   # a Tensor takes the default dtype
            return Tensor(out)

    def unpack(t: Tensor) -> Tensor:
        with ad.precision(t.dtype):
            return Tensor(t.data[slot, pos])
    return pack, unpack


def gather_rows(hidden: Tensor, rows) -> Tensor:
    """(N, H): the rows of hidden (B, L, H) at distinct flat indices b * L + l.

    Heads that score a few positions run on these rows only; the backward
    writes into those rows of hidden's gradient."""
    b, length, h = hidden.shape
    return ad.take_rows(ad.reshape(hidden, (b * length, h)), rows)


def mlm_logits(hidden: Tensor, params: dict, config: ModelConfig) -> Tensor:
    """(..., V): transform -> gelu -> norm -> decode against the (tied) embedding."""
    t = ad.gelu(_linear(hidden, params, "heads.mlm.transform"))
    t = _norm(t, params, "heads.mlm.norm", config.layer_norm_eps)
    if config.tie_mlm_decoder:
        decoder = ad.transpose(params["embeddings.token"], (1, 0))
    else:
        decoder = params["heads.mlm.decoder.weight"]
    return ad.linear(t, decoder, params["heads.mlm.decoder.bias"])


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
