"""Encoder micro-oracles: padding isolation, layer-norm hand trace, shape
contracts, the fused encoder against the unfused one, and the end-to-end
gradient check of the joint pretraining loss."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bertlab import autodiff as ad
from bertlab import mitigation as mit
from bertlab import model as md
from bertlab.autodiff import Tensor
from bertlab.errors import ConfigurationError, DimensionError
from bertlab.seeding import substream
from bertlab.tokenizer import SPECIAL_TOKENS, Vocabulary
from oracles import grad_check_params, trunc_normal_scipy


def small_config(**overrides):
    kw = dict(n_layers=2, hidden_dim=32, n_heads=4, ff_dim=16,
              max_seq_len=16, vocab_size=12, dropout_rate=0.0)
    kw.update(overrides)
    return md.ModelConfig(**kw)


def make_batch(config, b=2, length=8, n_real=5, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(5, config.vocab_size, size=(b, length))
    ids[:, 0] = 2   # CLS
    ids[:, n_real - 1] = 3  # SEP
    ids[:, n_real:] = 0     # PAD
    seg = np.zeros((b, length), dtype=np.int64)
    mask = np.zeros((b, length), dtype=np.int64)
    mask[:, :n_real] = 1
    return ids, seg, mask


# -- config validation ------------------------------------------------------


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigurationError):
        small_config(hidden_dim=30, n_heads=4)


@pytest.mark.parametrize("field, value", [
    ("n_layers", 0), ("vocab_size", -1), ("dropout_rate", 1.0), ("layer_norm_eps", 0.0),
])
def test_config_rejects_a_value_outside_its_range(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} {value!r} outside"):
        small_config(**{field: value})


def test_forward_rejects_out_of_vocab_ids():
    config = small_config()
    params = md.init_params(config, substream(0, "init"))
    ids, seg, mask = make_batch(config)
    ids[0, 1] = config.vocab_size
    with pytest.raises(ConfigurationError):
        md.forward_encoder(params, config, ids, seg, mask)


def test_forward_rejects_overlong_sequence():
    config = small_config(max_seq_len=4)
    params = md.init_params(config, substream(0, "init"))
    ids, seg, mask = make_batch(small_config())
    with pytest.raises(ConfigurationError):
        md.forward_encoder(params, config, ids, seg, mask)


def test_init_is_deterministic_and_truncated():
    config = small_config()
    a = md.init_params(config, substream(7, "init"))
    b = md.init_params(config, substream(7, "init"))
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k].data, b[k].data)
    w = a["encoder.0.attention.q.weight"].data
    assert np.abs(w).max() <= 2.0 * md.INIT_STD + 1e-12
    assert w.std() == pytest.approx(md.INIT_STD, rel=0.2)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 63 - 1),
       shape=st.lists(st.integers(0, 300), min_size=1, max_size=3).map(tuple)
       .filter(lambda s: np.prod(s) <= 60_000))
@example(seed=0, shape=(8000, 128))
@example(seed=1, shape=(0, 128))
@example(seed=2, shape=(3, 0, 5))
def test_trunc_normal_gives_the_bits_and_rng_state_of_scipy_truncnorm(seed, shape):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = md._trunc_normal(ours, shape), trunc_normal_scipy(theirs, shape)
    assert (got.dtype, got.shape) == (want.dtype, want.shape) == (np.float64, shape)
    assert got.tobytes() == want.tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state


DESK = dict(n_layers=4, hidden_dim=128, n_heads=4, ff_dim=512, max_seq_len=128,
            vocab_size=8000)   # the README's desk model
TOY = dict(n_layers=2, hidden_dim=32, n_heads=4, ff_dim=64, max_seq_len=32,
           vocab_size=100)     # the toy model of perfbench and the acceptance criteria


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("dims", [TOY, DESK], ids=["toy", "desk"])
def test_init_and_task_heads_give_the_bits_of_the_scipy_draw(monkeypatch, dims, dtype):
    # float64 keeps the draw's own bits; float32 is what a run stores
    config = md.ModelConfig(**dims)

    def build():
        with ad.precision(dtype):
            params = md.init_params(config, substream(3, "init"))
            rng = substream(3, "heads")
            for name, n_out in (("ner", 5), ("qa", 2), ("re", 3)):
                md.add_task_head(params, config, name, n_out, rng)
        return params
    got = build()
    monkeypatch.setattr(md, "_trunc_normal", trunc_normal_scipy)
    want = build()
    assert list(got) == list(want)
    for path in want:
        assert got[path].data.tobytes() == want[path].data.tobytes(), path


# -- padding isolation ------------------------------------------------------


def test_all_pad_after_cls_sep_is_finite():
    config = small_config()
    params = md.init_params(config, substream(1, "init"))
    ids, seg, mask = make_batch(config, n_real=2)
    out = md.forward_encoder(params, config, ids, seg, mask)
    assert np.isfinite(out.data).all()


def test_pad_content_cannot_reach_real_positions():
    config = small_config()
    params = md.init_params(config, substream(2, "init"))
    ids, seg, mask = make_batch(config, n_real=5)
    base = md.forward_encoder(params, config, ids, seg, mask)
    # scramble everything under the mask: different ids, segments
    ids2 = ids.copy()
    ids2[:, 5:] = np.random.default_rng(9).integers(1, config.vocab_size, size=ids2[:, 5:].shape)
    seg2 = seg.copy()
    seg2[:, 5:] = 1
    scrambled = md.forward_encoder(params, config, ids2, seg2, mask)
    # bit-identical, not merely close: masked columns carry exactly zero weight
    np.testing.assert_array_equal(base.data[:, :5, :], scrambled.data[:, :5, :])


def test_attention_rows_sum_to_one_and_pad_columns_are_zero(monkeypatch):
    config = small_config()
    params = md.init_params(config, substream(3, "init"))
    ids, seg, mask = make_batch(config, n_real=5)
    collected, softmax = [], ad._softmax

    def capture(x, axis, out=None):   # the attention probabilities, per layer
        collected.append(softmax(x, axis, out=out))
        return collected[-1]

    monkeypatch.setattr(ad, "_softmax", capture)
    md.forward_encoder(params, config, ids, seg, mask)
    assert len(collected) == config.n_layers
    for probs in collected:  # (B, nh, L, L)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        assert (probs[:, :, :, 5:] == 0.0).all()


# -- hand trace -------------------------------------------------------------


def test_single_token_identity_layer_reduces_to_embedding_path():
    # zeroed attention-output and ffn-output projections make the layer an
    # identity up to two stacked layer norms, and layer norm is idempotent
    with ad.precision("float64"):
        config = small_config(n_layers=1)
        params = md.init_params(config, substream(4, "init"))
        params["encoder.0.attention.out.weight"].data[:] = 0.0
        params["encoder.0.ffn.out.weight"].data[:] = 0.0
        ids = np.array([[7]])
        seg = np.zeros((1, 1), dtype=np.int64)
        mask = np.ones((1, 1), dtype=np.int64)
        out = md.forward_encoder(params, config, ids, seg, mask)

        emb = (params["embeddings.token"].data[7]
               + params["embeddings.position"].data[0]
               + params["embeddings.segment"].data[0])
        normed = (emb - emb.mean()) / np.sqrt(emb.var() + config.layer_norm_eps)
        np.testing.assert_allclose(out.data[0, 0], normed, atol=1e-9)


# -- the fused encoder against the unfused one ------------------------------


def unfused_forward_encoder(params, config, input_ids, segment_ids, attention_mask,
                            drop=0.0, rng=None):
    """Oracle: the encoder built from the unfused ops, 31 nodes per layer at
    rate 0. The fused primitives evaluate these expressions in this order."""
    b, length = input_ids.shape
    nh, dh, eps = config.n_heads, config.head_dim, config.layer_norm_eps

    def linear(t, prefix):
        return ad.add(ad.matmul(t, params[prefix + ".weight"]), params[prefix + ".bias"])

    def norm(t, prefix):
        return ad.layer_norm(t, params[prefix + ".gain"], params[prefix + ".bias"], eps)

    def split_heads(t):  # (B, L, H) -> (B, nh, L, dh)
        return ad.transpose(ad.reshape(t, (b, length, nh, dh)), (0, 2, 1, 3))

    positions = np.broadcast_to(np.arange(length), (b, length))
    x = ad.add(ad.add(ad.embedding_lookup(params["embeddings.token"], input_ids),
                      ad.embedding_lookup(params["embeddings.position"], positions)),
               ad.embedding_lookup(params["embeddings.segment"], segment_ids))
    x = ad.dropout(norm(x, "embeddings.norm"), drop, rng)
    mask_bias = md.attention_mask_bias(attention_mask, x.dtype)
    for i in range(config.n_layers):
        base = f"encoder.{i}"
        q = split_heads(linear(x, f"{base}.attention.q"))
        k = split_heads(linear(x, f"{base}.attention.k"))
        v = split_heads(linear(x, f"{base}.attention.v"))
        scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
        probs = ad.dropout(ad.softmax(ad.add_const(scores, mask_bias), axis=-1), drop, rng)
        ctx = ad.reshape(ad.transpose(ad.matmul(probs, v), (0, 2, 1, 3)),
                         (b, length, config.hidden_dim))
        attn = ad.dropout(linear(ctx, f"{base}.attention.out"), drop, rng)
        x = norm(ad.add(x, attn), f"{base}.attention.norm")
        ff = ad.dropout(linear(ad.gelu(linear(x, f"{base}.ffn.in")), f"{base}.ffn.out"), drop, rng)
        x = norm(ad.add(x, ff), f"{base}.ffn.norm")
    return x


def _encoder_and_grads(forward, params, config, batch, drop, mixout):
    """Encoder output and every parameter gradient of a fixed linear loss."""
    for t in params.values():
        t.grad = None
    used = params
    if mixout:
        anchor = mit.take_anchor(params) - 0.01
        used = mit.mixout_apply(params, anchor, 0.3, substream(4, "mixout"))
    hidden = forward(used, config, *batch, drop=drop, rng=substream(5, "drop"))
    weights = substream(6, "loss").standard_normal(hidden.shape)
    ad.sum_all(ad.mul(hidden, Tensor(weights))).backward()
    return hidden.data, {p: t.grad for p, t in params.items() if not p.startswith("heads.")}


def _fused_forward(params, config, ids, seg, mask, drop, rng):
    return md.forward_encoder(params, config, ids, seg, mask, train=drop > 0,
                              rng=rng)


@pytest.mark.parametrize("drop, mixout", [(0.0, False), (0.1, False), (0.1, True)])
def test_fused_encoder_matches_unfused_bit_for_bit(drop, mixout):
    # at this shape (float32, OpenBLAS) a matmul on the strided view of the
    # key gradient that attention's backward copies to C order is off by an ulp
    config = small_config(hidden_dim=48, dropout_rate=drop)
    params = md.init_params(config, substream(13, "init"))
    batch = make_batch(config, b=3, length=12, n_real=9, seed=4)
    got, got_grads = _encoder_and_grads(_fused_forward, params, config, batch, drop, mixout)
    want, want_grads = _encoder_and_grads(unfused_forward_encoder, params, config, batch,
                                          drop, mixout)
    assert got.dtype == want.dtype == np.float32
    assert np.array_equal(got, want)
    for path, grad in want_grads.items():
        assert grad is not None and np.array_equal(got_grads[path], grad), path


def _recorded_nodes(forward, n_layers):
    config = small_config(n_layers=n_layers)
    params = md.init_params(config, substream(14, "init"))
    hidden = forward(params, config, *make_batch(config), drop=0.0, rng=None)
    return sum(1 for node in ad._topo_order(hidden) if node._parents)


def test_fused_encoder_layer_records_seven_nodes():
    assert _recorded_nodes(_fused_forward, 2) - _recorded_nodes(_fused_forward, 1) <= 7
    unfused = _recorded_nodes(unfused_forward_encoder, 2) - _recorded_nodes(unfused_forward_encoder, 1)
    assert unfused == 31


# -- the encoder at scored rows only ----------------------------------------


@st.composite
def scored_encoder_cases(draw):
    """(config, ids, mask, rows, dtype): a padded batch and distinct flat rows
    in any order: every row, one row, or a subset, often with several rows
    at one position."""
    n_heads = draw(st.sampled_from([1, 2, 4]))
    config = small_config(n_layers=draw(st.integers(1, 3)), n_heads=n_heads,
                          hidden_dim=n_heads * draw(st.sampled_from([2, 8, 16])),
                          ff_dim=draw(st.sampled_from([8, 24, 64])))
    b, length = draw(st.integers(1, 6)), draw(st.integers(1, config.max_seq_len))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ids = rng.integers(5, config.vocab_size, size=(b, length))
    mask = (np.arange(length) < rng.integers(1, length + 1, size=(b, 1))).astype(np.int64)
    ids[mask == 0] = 0
    kind = draw(st.sampled_from(["every", "one", "subset"]))
    if kind == "every":
        rows = rng.permutation(b * length)
    elif kind == "one":
        rows = rng.integers(0, b * length, size=1)
    else:
        rows = np.array(draw(st.lists(st.integers(0, b * length - 1), min_size=1,
                                      max_size=b * length, unique=True)))
    return config, ids, mask, rows, draw(st.sampled_from(["float32", "float64"]))


def shared_position_case():
    config = small_config(n_layers=2)
    ids, _, mask = make_batch(config, b=4, length=9, n_real=6, seed=2)
    return config, ids, mask, np.array([9 + 3, 3, 27 + 3, 1, 18 + 8]), "float32"


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=scored_encoder_cases())
@example(case=shared_position_case())
def test_the_encoder_at_rows_gives_the_bits_of_the_gathered_full_encoder(case):
    config, ids, mask, rows, dtype = case
    with ad.precision(dtype):
        params = md.init_params(config, substream(15, "init"))
        with ad.no_grad():
            seg = np.zeros_like(ids)
            want = md.gather_rows(md.forward_encoder(params, config, ids, seg, mask), rows)
            got = md.forward_encoder(params, config, ids, seg, mask, rows)
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert got.shape == (len(rows), config.hidden_dim)
    assert got.data.tobytes() == want.data.tobytes()


def test_the_encoder_at_rows_is_for_inference_only():
    config = small_config()
    params = md.init_params(config, substream(16, "init"))
    ids, seg, mask = make_batch(config)
    with pytest.raises(ConfigurationError, match="inference only"):
        md.forward_encoder(params, config, ids, seg, mask, [0, 9])   # a graph is recorded
    with ad.no_grad(), pytest.raises(ConfigurationError, match="inference only"):
        md.forward_encoder(params, config, ids, seg, mask, [0, 9], train=True,
                           rng=substream(1, "d"))
    with ad.no_grad():
        for bad in ([0, 0], [16], [-1], [[0, 1]], [0.0]):
            with pytest.raises(DimensionError, match="forward_encoder-rows"):
                md.forward_encoder(params, config, ids, seg, mask, bad)
        none = np.array([], dtype=np.int64)
        assert md.forward_encoder(params, config, ids, seg, mask, none).shape == (0, 32)


# -- heads ------------------------------------------------------------------


def test_head_shape_contracts():
    config = small_config()
    params = md.init_params(config, substream(5, "init"))
    md.add_task_head(params, config, "ner", 5, substream(5, "heads"))
    md.add_task_head(params, config, "qa", 2, substream(5, "heads"))
    md.add_task_head(params, config, "re", 3, substream(5, "heads"))
    ids, seg, mask = make_batch(config, b=2, length=16, n_real=9)
    hidden = md.forward_encoder(params, config, ids, seg, mask)
    assert md.ner_logits(hidden, params).shape == (2, 16, 5)
    start, end = md.qa_logits(hidden, params)
    assert start.shape == (2, 16) and end.shape == (2, 16)
    assert md.mlm_logits(hidden, params, config).shape == (2, 16, config.vocab_size)
    assert md.nsp_logits(hidden, params).shape == (2, 2)
    assert md.re_logits(hidden, params).shape == (2, 3)


def test_missing_head_is_configuration_error():
    config = small_config()
    params = md.init_params(config, substream(6, "init"))
    hidden = Tensor(np.zeros((1, 4, config.hidden_dim)))
    with pytest.raises(ConfigurationError):
        md.ner_logits(hidden, params)


def test_zero_hidden_zero_head_gives_uniform_softmax():
    config = small_config()
    params = md.init_params(config, substream(7, "init"))
    md.add_task_head(params, config, "ner", 5, substream(7, "heads"))
    params["heads.ner.weight"].data[:] = 0.0
    hidden = Tensor(np.zeros((2, 4, config.hidden_dim)))
    probs = ad.softmax(md.ner_logits(hidden, params), axis=-1)
    np.testing.assert_allclose(probs.data, 0.2, atol=0)


def test_weight_tying_flag():
    tied = md.init_params(small_config(), substream(8, "init"))
    assert "heads.mlm.decoder.weight" not in tied
    untied = md.init_params(small_config(tie_mlm_decoder=False), substream(8, "init"))
    assert "heads.mlm.decoder.weight" in untied


def test_tied_decoder_routes_gradient_into_token_embedding():
    config = small_config()
    params = md.init_params(config, substream(9, "init"))
    ids, seg, mask = make_batch(config)
    hidden = md.forward_encoder(params, config, ids, seg, mask)
    logits = md.mlm_logits(hidden, params, config)
    labels = np.full(ids.shape, -100)
    labels[:, 1] = 4
    ad.cross_entropy(logits, labels).backward()
    g = params["embeddings.token"].grad
    assert g is not None and np.abs(g).sum() > 0


# -- determinism and gradients ---------------------------------------------


def test_forward_bit_identical_without_dropout():
    config = small_config()
    params = md.init_params(config, substream(10, "init"))
    ids, seg, mask = make_batch(config)
    a = md.forward_encoder(params, config, ids, seg, mask)
    b = md.forward_encoder(params, config, ids, seg, mask)
    np.testing.assert_array_equal(a.data, b.data)


def test_dropout_changes_training_forward():
    config = small_config(dropout_rate=0.3)
    params = md.init_params(config, substream(11, "init"))
    ids, seg, mask = make_batch(config)
    a = md.forward_encoder(params, config, ids, seg, mask, train=True, rng=substream(1, "d"))
    b = md.forward_encoder(params, config, ids, seg, mask, train=True, rng=substream(2, "d"))
    assert not np.array_equal(a.data, b.data)
    c = md.forward_encoder(params, config, ids, seg, mask, train=True, rng=substream(1, "d"))
    np.testing.assert_array_equal(a.data, c.data)


def test_end_to_end_gradient_check_mlm_nsp():
    # every coordinate of a narrow model, so the sweep stays about a second
    with ad.precision("float64"):
        config = small_config(max_seq_len=8, hidden_dim=8, n_heads=2, ff_dim=8)
        params = md.init_params(config, substream(12, "init"))
        ids, seg, mask = make_batch(config, b=2, length=6, n_real=4, seed=3)
        labels = np.full(ids.shape, -100)
        labels[:, 1] = 5
        labels[1, 2] = 7
        nsp = np.array([0, 1])

        def loss():
            hidden = md.forward_encoder(params, config, ids, seg, mask)
            return ad.add(ad.cross_entropy(md.mlm_logits(hidden, params, config), labels),
                          ad.cross_entropy(md.nsp_logits(hidden, params), nsp))

        errs = grad_check_params(loss, params)
        worst = max(errs.values())
        assert worst < 1e-4, max(errs, key=errs.get)


def test_param_group_and_decay_classification():
    assert md.param_group("embeddings.token") == ("embeddings", None)
    assert md.param_group("encoder.3.attention.q.weight") == ("encoder", 3)
    assert md.param_group("heads.mlm.transform.weight") == ("head", None)
    assert md.is_no_decay("encoder.0.attention.q.bias")
    assert md.is_no_decay("encoder.0.ffn.norm.gain")
    assert not md.is_no_decay("encoder.0.ffn.in.weight")


def test_model_state_rejects_a_vocabulary_of_another_size():
    config = small_config()
    vocab = Vocabulary.from_tokens(list(SPECIAL_TOKENS) + [f"w{i}" for i in range(8)])
    assert len(vocab) != config.vocab_size
    with pytest.raises(ConfigurationError, match="vocabulary size"):
        md.ModelState(config=config, params={}, vocab=vocab)


@pytest.mark.parametrize("n_layers, untied", [(1, False), (3, False), (3, True)])
def test_missing_params_and_layer_paths_agree_with_the_full_listing(n_layers, untied):
    config = small_config(n_layers=n_layers, tie_mlm_decoder=not untied)
    full = md.param_shapes(config)
    one = md.param_shapes(small_config(n_layers=1, tie_mlm_decoder=not untied))
    for path, shape in full.items():
        assert one[md.layer_zero_path(path, n_layers)] == shape
    strays = ["heads.ner.weight", f"encoder.{n_layers}.ffn.in.weight",
              "encoder.01.ffn.in.weight", "encoder." + "9" * 5000 + ".ffn.in.weight"]
    assert [md.layer_zero_path(p, n_layers) for p in strays] == [
        "heads.ner.weight", None, "encoder.01.ffn.in.weight", None]
    rng = np.random.default_rng(n_layers)
    for dropped in (0, 1, 5, 20, len(full)):
        gone = set(rng.choice(sorted(full), size=dropped, replace=False))
        params = {p: None for p in [*full, *strays] if p not in gone}
        want = [p for p in full if p in gone]
        for limit in (0, 3, 8, len(full)):
            assert md.missing_params(params, config, limit) == (len(want), want[:limit])
