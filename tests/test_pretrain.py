"""Batching, optimizer, schedule, and training-loop oracles: the masking
count/split statistics, the hand-evaluated Adam step, schedule boundary
values, the step-0 loss at ln(V)+ln 2, a real training-improvement run, and
bit-identical resume from a checkpoint."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bertlab import autodiff as ad
from bertlab import checkpoint as ck
from bertlab import model as md
from bertlab import pretrain as pt
from bertlab.autodiff import Tensor
from bertlab.errors import (ConfigurationError, DimensionError, InputError,
                            NumericFault, ValidationError)
from bertlab.mitigation import CFConfig
from bertlab.seeding import substream
from bertlab.tokenizer import SPECIAL_TOKENS, Vocabulary, encode


def word_vocab(n_words: int) -> Vocabulary:
    words = [f"w{i:02d}" for i in range(n_words)]
    return Vocabulary.from_tokens(list(SPECIAL_TOKENS) + words)


def word_corpus(vocab, n_docs=6, per_doc=4, length=8, seed=0) -> pt.Corpus:
    words = [t for t in vocab.tokens if not t.startswith("[")]
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        docs.append(tuple(" ".join(rng.choice(words, size=length))
                          for _ in range(per_doc)))
    return pt.Corpus(documents=tuple(docs))


def quick_plan(**overrides):
    kw = dict(peak_lr=1e-3, total_steps=4, batch_size=2, max_seq_len=32,
              heldout_fraction=0.0, eval_every=100, seed=0)
    kw.update(overrides)
    return pt.TrainPlan(**kw)


def tiny_state(vocab, seed=0, **config_overrides):
    kw = dict(n_layers=2, hidden_dim=16, n_heads=2, ff_dim=16,
              max_seq_len=32, vocab_size=len(vocab), dropout_rate=0.0)
    kw.update(config_overrides)
    config = md.ModelConfig(**kw)
    params = md.init_params(config, substream(seed, "init"))
    return pt.ModelState(config=config, params=params, vocab=vocab)


def snapshot(params):
    return {p: t.data.copy() for p, t in params.items()}


# -- corpus -----------------------------------------------------------------


def test_corpus_rejects_empty_document():
    with pytest.raises(InputError):
        pt.Corpus(documents=(("a b",), ()))


def test_corpus_rejects_blank_sentence():
    with pytest.raises(InputError):
        pt.Corpus(documents=(("a b", "   "),))


def test_corpus_counts_sentences():
    c = pt.Corpus(documents=(("a", "b"), ("c",)))
    assert c.n_sentences == 3


def test_corpus_file_round_trip(tmp_path):
    c = pt.Corpus(documents=(("one two", "three"), ("four",), ("five", "six")))
    path = tmp_path / "corpus.txt"
    pt.save_corpus(c, path)
    loaded = pt.load_corpus(path)
    assert loaded.documents == c.documents
    # blank line separates documents on disk
    assert path.read_text(encoding="utf-8").count("\n\n") == 2


def test_load_corpus_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError):
        pt.load_corpus(tmp_path / "nope.txt")


def test_load_corpus_blank_only_is_input_error(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n  \n", encoding="utf-8")
    with pytest.raises(InputError):
        pt.load_corpus(path)


def test_split_heldout_partitions_in_order():
    docs = tuple((f"doc {i}",) for i in range(20))
    train, held = pt.split_heldout(pt.Corpus(documents=docs), 0.05)
    assert train.documents + held.documents == docs
    assert len(held.documents) == 1


def test_split_heldout_degenerate_cases():
    c = pt.Corpus(documents=(("a",), ("b",)))
    train, held = pt.split_heldout(c, 0.0)
    assert train.documents == c.documents and held.documents == ()
    single = pt.Corpus(documents=(("a",),))
    train, held = pt.split_heldout(single, 0.5)
    assert train.documents == single.documents and held.documents == ()


def test_split_heldout_keeps_at_least_one_on_each_side():
    c = pt.Corpus(documents=tuple((f"s {i}",) for i in range(3)))
    train, held = pt.split_heldout(c, 0.99)
    assert len(train.documents) == 1 and len(held.documents) == 2
    train, held = pt.split_heldout(c, 0.01)
    assert len(held.documents) == 1


# -- plan and schedule ------------------------------------------------------


@pytest.mark.parametrize("overrides", [
    {"peak_lr": 0.0},
    {"total_steps": -1},
    {"batch_size": 0},
    {"warmup_fraction": 1.0},
    {"mask_rate": 0.0},
    {"mask_prob": 0.95, "random_prob": 0.1},
    {"heldout_fraction": 1.0},
    {"eval_every": 0},
    {"max_seq_len": 4},
])
def test_plan_rejects_bad_values(overrides):
    with pytest.raises(ConfigurationError):
        quick_plan(**overrides)


def test_plan_dict_round_trip():
    plan = quick_plan(cf=CFConfig(llrd_decay=0.9, warmup_fraction=0.02))
    assert pt.TrainPlan.from_dict(plan.to_dict()) == plan
    assert pt.TrainPlan.from_dict(quick_plan().to_dict()) == quick_plan()
    with pytest.raises(ConfigurationError):
        pt.TrainPlan.from_dict({**quick_plan().to_dict(), "bogus": 1})


def test_plan_cf_warmup_overrides_plan_warmup():
    plan = quick_plan(warmup_fraction=0.1, cf=CFConfig(warmup_fraction=0.02))
    assert plan.effective_warmup_fraction == 0.02
    assert quick_plan(warmup_fraction=0.1).effective_warmup_fraction == 0.1


def test_lr_mid_warmup_is_half_peak():
    plan = quick_plan(peak_lr=1.0, total_steps=1000, warmup_fraction=0.02)
    # 20 warmup steps, so step 10 sits halfway up the ramp
    assert pt.lr_at(10, plan) == pytest.approx(0.5)


def test_lr_at_end_of_warmup_is_peak():
    plan = quick_plan(peak_lr=2.0, total_steps=1000, warmup_fraction=0.02)
    assert pt.lr_at(20, plan) == pytest.approx(2.0)


def test_lr_final_step_below_peak_over_total():
    plan = quick_plan(peak_lr=1.0, total_steps=1000, warmup_fraction=0.02)
    assert pt.lr_at(999, plan) <= 1.0 / 1000


def test_lr_shape_ramps_then_decays():
    plan = quick_plan(peak_lr=1.0, total_steps=100, warmup_fraction=0.1)
    values = [pt.lr_at(s, plan) for s in range(100)]
    assert values[:11] == sorted(values[:11])          # ramp
    assert values[10] == pytest.approx(1.0)            # peak at warmup end
    assert values[10:] == sorted(values[10:], reverse=True)
    assert values[0] == 0.0 and values[-1] == 0.0


def test_lr_single_step_plan_is_peak():
    assert pt.lr_at(0, quick_plan(peak_lr=0.3, total_steps=1)) == 0.3


def test_lr_rejects_out_of_range_step():
    with pytest.raises(ValueError):
        pt.lr_at(4, quick_plan(total_steps=4))


# -- masking ----------------------------------------------------------------


def test_mask_selection_count_anchors():
    assert pt.mask_selection_count(20, 0.15) == 3
    assert pt.mask_selection_count(10, 0.15) == 2   # 1.5 rounds half-up
    assert pt.mask_selection_count(3, 0.15) == 1    # floor of at least one
    assert pt.mask_selection_count(1, 0.15) == 1
    assert pt.mask_selection_count(0, 0.15) == 0


def test_batch_invariants_hold_across_steps():
    vocab = word_vocab(40)
    stream = pt.BatchStream(word_corpus(vocab), vocab, quick_plan(batch_size=4))
    special = vocab.special_ids()
    for step in range(30):
        b = stream.batch(step)
        for i in range(b.input_ids.shape[0]):
            real = int(b.attention_mask[i].sum())
            assert b.attention_mask[i, :real].all() and not b.attention_mask[i, real:].any()
            live = np.flatnonzero(b.mlm_targets[i] != pt.IGNORE_INDEX)
            # CLS at 0, SEP twice, PAD tail: never selected
            seps = np.flatnonzero(b.input_ids[i] == vocab.sep_id)
            assert list(seps) == sorted(seps) and len(seps) == 2 and seps[1] == real - 1
            assert 0 not in live and not set(live) & set(seps.tolist())
            assert (live < real).all()
            # selection count law over the non-special positions
            assert len(live) == pt.mask_selection_count(real - 3, 0.15)
            for pos in live:
                original = b.mlm_targets[i, pos]
                assert original not in special
                got = b.input_ids[i, pos]
                assert got == vocab.mask_id or got == original or got not in special
            # segment ids: zeros through first SEP, ones to second SEP
            assert not b.segment_ids[i, : seps[0] + 1].any()
            assert b.segment_ids[i, seps[0] + 1: real].all()
            assert not b.segment_ids[i, real:].any()


def test_corruption_split_is_80_10_10():
    vocab = word_vocab(120)
    stream = pt.BatchStream(word_corpus(vocab, n_docs=8, per_doc=5), vocab,
                            quick_plan(batch_size=50))
    masked = kept = random = 0
    step = 0
    while masked + kept + random < 10_000:
        b = stream.batch(step)
        step += 1
        live = b.mlm_targets != pt.IGNORE_INDEX
        masked += int((live & (b.input_ids == vocab.mask_id)).sum())
        kept += int((live & (b.input_ids == b.mlm_targets)).sum())
        random += int((live & (b.input_ids != vocab.mask_id)
                       & (b.input_ids != b.mlm_targets)).sum())
    n = masked + kept + random
    assert abs(masked / n - 0.80) < 0.02
    assert abs(kept / n - 0.10) < 0.015
    assert abs(random / n - 0.10) < 0.015


def test_mask_only_flag_suppresses_random_and_keep():
    vocab = word_vocab(30)
    stream = pt.BatchStream(word_corpus(vocab), vocab,
                            quick_plan(batch_size=8, mask_only=True))
    b = stream.batch(0)
    live = b.mlm_targets != pt.IGNORE_INDEX
    assert (b.input_ids[live] == vocab.mask_id).all()


def test_nsp_balance_over_ten_thousand_pairs():
    vocab = word_vocab(30)
    stream = pt.BatchStream(word_corpus(vocab), vocab, quick_plan())
    rng = substream(0, "nsp-audit")
    labels = [stream.sample_pair(rng)[2] for _ in range(10_000)]
    frac_next = labels.count(pt.NSP_IS_NEXT) / len(labels)
    assert abs(frac_next - 0.5) < 0.02


def test_is_next_pairs_are_truly_consecutive():
    vocab = word_vocab(30)
    corpus = word_corpus(vocab, n_docs=4, per_doc=3)
    stream = pt.BatchStream(corpus, vocab, quick_plan())
    follower = {}
    for doc in corpus.documents:
        for s1, s2 in zip(doc, doc[1:]):
            follower.setdefault(tuple(encode(s1, vocab).ids), set()).add(
                tuple(encode(s2, vocab).ids))
    rng = substream(3, "consecutive")
    seen_next = 0
    for _ in range(300):
        a, b, label = stream.sample_pair(rng)
        if label == pt.NSP_IS_NEXT:
            seen_next += 1
            assert tuple(b) in follower[tuple(a)]
    assert seen_next > 50


def test_single_sentence_document_only_supplies_random_seconds():
    vocab = Vocabulary.from_tokens(
        list(SPECIAL_TOKENS) + ["aa", "bb", "cc", "dd", "ee", "zz"])
    corpus = pt.Corpus(documents=(
        ("aa bb", "bb cc", "cc dd"),
        ("zz zz zz",),            # lone sentence, unique text
        ("dd ee", "ee aa"),
    ))
    stream = pt.BatchStream(corpus, vocab, quick_plan())
    lone = tuple(encode("zz zz zz", vocab).ids)
    rng = substream(1, "lone-doc")
    appeared_as_b = 0
    for _ in range(500):
        a, b, label = stream.sample_pair(rng)
        assert tuple(a) != lone
        if tuple(b) == lone:
            appeared_as_b += 1
            assert label == pt.NSP_NOT_NEXT
    assert appeared_as_b > 0


def test_truncation_pops_from_end_of_longer_segment():
    vocab = word_vocab(30)
    stream = pt.BatchStream(word_corpus(vocab), vocab, quick_plan(max_seq_len=13))
    a, b = list(range(5, 15)), list(range(20, 24))
    ids, segs, specials = stream._assemble(a, b)
    assert len(ids) == 13
    assert ids == [vocab.cls_id, *range(5, 11), vocab.sep_id, *range(20, 24), vocab.sep_id]
    assert segs == [0] * 8 + [1] * 5
    assert specials == {0, 7, 12}


def test_whole_word_masking_selects_complete_units():
    vocab = Vocabulary.from_tokens(
        list(SPECIAL_TOKENS) + ["ab", "##cd", "##ef", "gh", "ij"])
    corpus = pt.Corpus(documents=(("ab gh", "ij gh"), ("gh ij", "ab ij")))
    stream = pt.BatchStream(corpus, vocab,
                            quick_plan(whole_word_masking=True, mask_rate=0.3))
    ids = [vocab.cls_id, 5, 6, 7, 8, vocab.sep_id, 9, 6, vocab.sep_id]
    units = [{1, 2, 3}, {4}, {6, 7}]
    for trial in range(20):
        rng = substream(trial, "wwm")
        chosen = set(stream._select_positions(ids, {0, 5, 8}, rng))
        assert chosen
        for unit in units:
            assert not (chosen & unit) or unit <= chosen


def test_batches_are_a_pure_function_of_seed_and_step():
    vocab = word_vocab(30)
    corpus = word_corpus(vocab)
    plan = quick_plan(batch_size=3)
    s1 = pt.BatchStream(corpus, vocab, plan)
    s2 = pt.BatchStream(corpus, vocab, plan)
    b1, b2 = s1.batch(5), s2.batch(5)
    np.testing.assert_array_equal(b1.input_ids, b2.input_ids)
    np.testing.assert_array_equal(b1.mlm_targets, b2.mlm_targets)
    np.testing.assert_array_equal(b1.nsp_labels, b2.nsp_labels)
    other_seed = pt.BatchStream(corpus, vocab, quick_plan(batch_size=3, seed=9))
    assert not np.array_equal(other_seed.batch(5).input_ids, b1.input_ids)
    replay = pt.BatchStream(corpus, vocab, plan, label="replay")
    assert not np.array_equal(replay.batch(5).input_ids, b1.input_ids)


def test_stream_rejects_unpairable_corpora():
    vocab = word_vocab(10)
    with pytest.raises(InputError):
        pt.BatchStream(pt.Corpus(documents=(("w01 w02", "w03"),)), vocab, quick_plan())
    all_single = pt.Corpus(documents=(("w01 w02",), ("w03 w04",), ("w05",)))
    with pytest.raises(InputError):
        pt.BatchStream(all_single, vocab, quick_plan())


# -- optimizer --------------------------------------------------------------


def test_adam_hand_anchor_first_step_is_minus_lr():
    w = Tensor(np.array([0.0], dtype=np.float64), requires_grad=True)
    w.grad = np.array([1.0])
    params, state = {"heads.a.bias": w}, {}
    pt.adam_step(params, state, 0.1, quick_plan())
    # bias-corrected m̂/√v̂ = 1 on the first step
    assert abs(w.data[0] + 0.1) < 1e-7
    w.grad = np.array([1.0])
    pt.adam_step(params, state, 0.1, quick_plan())
    assert abs(w.data[0] + 0.2) < 1e-6
    assert state["heads.a.bias"]["t"] == 2


def test_adam_zero_gradient_leaves_no_decay_param_unchanged():
    w = Tensor(np.array([3.0]), requires_grad=True)
    w.grad = np.array([0.0])
    pt.adam_step({"encoder.0.ffn.norm.gain": w}, {}, 0.1, quick_plan())
    assert w.data[0] == 3.0


def test_adam_skips_gradless_and_frozen_paths():
    a, b = Tensor(np.array([1.0]), requires_grad=True), Tensor(np.array([1.0]), requires_grad=True)
    b.grad = np.array([1.0])
    state = {}
    pt.adam_step({"heads.a.weight": a, "embeddings.token": b}, state, 0.1,
                 quick_plan(), frozen=frozenset({"embeddings.token"}))
    assert a.data[0] == 1.0 and b.data[0] == 1.0
    assert state == {}


def test_adam_weight_decay_excludes_biases_and_norms():
    decayed = Tensor(np.array([1.0]), requires_grad=True)
    bias = Tensor(np.array([1.0]), requires_grad=True)
    gain = Tensor(np.array([1.0]), requires_grad=True)
    for t in (decayed, bias, gain):
        t.grad = np.array([0.0])
    pt.adam_step({"heads.a.weight": decayed, "heads.a.bias": bias,
                  "encoder.1.attention.norm.gain": gain}, {}, 0.5, quick_plan())
    assert decayed.data[0] == pytest.approx(1.0 - 0.5 * 0.01)
    assert bias.data[0] == 1.0 and gain.data[0] == 1.0


def test_adam_non_finite_gradient_names_the_path():
    w = Tensor(np.array([0.0]), requires_grad=True)
    w.grad = np.array([np.nan])
    with pytest.raises(NumericFault, match="heads.a.weight"):
        pt.adam_step({"heads.a.weight": w}, {}, 0.1, quick_plan())


def test_adam_lr_factors_scale_the_step():
    full = Tensor(np.array([0.0]), requires_grad=True)
    half = Tensor(np.array([0.0]), requires_grad=True)
    full.grad = np.array([1.0])
    half.grad = np.array([1.0])
    pt.adam_step({"heads.f.bias": full, "heads.h.bias": half}, {}, 0.1,
                 quick_plan(), lr_factors={"heads.h.bias": 0.5})
    assert half.data[0] == pytest.approx(full.data[0] / 2)


# -- metrics log ------------------------------------------------------------


def test_metrics_log_validates_fields_and_order(tmp_path):
    log = pt.MetricsLog(tmp_path / "m.jsonl")
    record = {"step": 0, "mlm_loss": 1.0, "nsp_loss": 0.7, "lr": 1e-4,
              "pppl_heldout": None}
    log.append(record)
    with pytest.raises(ValidationError):
        log.append({**record, "step": 0})
    with pytest.raises(ValidationError):
        log.append({"step": 1, "mlm_loss": 1.0})
    log.append({**record, "step": 1})
    log.close()
    assert [r["step"] for r in pt.load_metrics(tmp_path / "m.jsonl")] == [0, 1]


def test_metrics_log_reopen_resumes_monotonic_check(tmp_path):
    path = tmp_path / "m.jsonl"
    record = {"step": 4, "mlm_loss": 1.0, "nsp_loss": 0.7, "lr": 1e-4,
              "pppl_heldout": 2.0}
    log = pt.MetricsLog(path)
    log.append(record)
    log.close()
    resumed = pt.MetricsLog(path)
    with pytest.raises(ValidationError):
        resumed.append({**record, "step": 3})
    resumed.append({**record, "step": 5})
    resumed.close()
    assert [r["step"] for r in pt.load_metrics(path)] == [4, 5]


@pytest.mark.parametrize("bad_line", ['{"step": 5, "mlm_lo', '[5, 1.0]', '{"mlm_loss": 1.0}'],
                         ids=["truncated", "list", "no-step"])
def test_metrics_log_reopen_rejects_corrupt_record(tmp_path, bad_line):
    path = tmp_path / "m.jsonl"
    path.write_text('{"step": 4, "mlm_loss": 1.0}\n' + bad_line + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 2"):
        pt.MetricsLog(path)
    with pytest.raises(ValidationError, match="line 2"):
        pt.load_metrics(path)


# -- MLM head on the scored positions only ---------------------------------


def head_setup(tie=True, batch_size=4):
    vocab = word_vocab(30)
    state = tiny_state(vocab, seed=2, tie_mlm_decoder=tie)
    stream = pt.BatchStream(word_corpus(vocab, n_docs=8, seed=2), vocab,
                            quick_plan(batch_size=batch_size, seed=2))
    return state, stream.batch(0)


def full_head_loss(params, config, batch):
    """The reference objective: the MLM head decodes every position."""
    hidden = md.forward_encoder(params, config, batch.input_ids, batch.segment_ids,
                                batch.attention_mask)
    mlm = ad.cross_entropy(md.mlm_logits(hidden, params, config), batch.mlm_targets)
    return ad.add(mlm, ad.cross_entropy(md.nsp_logits(hidden, params), batch.nsp_labels))


def gradients(loss, params):
    for t in params.values():
        t.grad = None
    loss.backward()
    return {p: t.grad.copy() for p, t in params.items() if t.grad is not None}


@pytest.mark.parametrize("tie", [True, False])
def test_gathered_loss_and_gradients_equal_full_head(tie):
    with ad.precision("float64"):
        state, batch = head_setup(tie)
        params, config = state.params, state.config
        assert params["embeddings.token"].dtype == np.float64
        assert 0 < (batch.mlm_targets != pt.IGNORE_INDEX).sum() < batch.mlm_targets.size
        reference = full_head_loss(params, config, batch)
        expected = gradients(reference, params)
        loss = pt.pretrain_loss(params, config, batch)[0]
        got = gradients(loss, params)
    assert abs(float(loss.data) - float(reference.data)) < 1e-12
    assert set(got) == set(expected) == set(params)
    for path in expected:
        np.testing.assert_allclose(got[path], expected[path], rtol=0, atol=1e-10,
                                   err_msg=path)


def test_batch_without_targets_scores_zero_and_backpropagates_nsp():
    state, batch = head_setup()
    empty = replace(batch, mlm_targets=np.full_like(batch.mlm_targets, pt.IGNORE_INDEX))
    loss, mlm, nsp = pt.pretrain_loss(state.params, state.config, empty)
    assert mlm == 0.0 and float(loss.data) == nsp > 0.0
    grads = gradients(loss, state.params)
    assert not any(p.startswith("heads.mlm.") for p in grads)
    assert "heads.nsp.weight" in grads and "encoder.0.ffn.in.weight" in grads
    assert all(np.isfinite(g).all() for g in grads.values())


@pytest.mark.parametrize("shape", [lambda b, n: (b, n - 1), lambda b, n: (b * n,),
                                   lambda b, n: (b, n, 1)],
                         ids=["short-rows", "flat", "extra-axis"])
def test_pretrain_loss_rejects_misshapen_targets(shape):
    state, batch = head_setup()
    targets = np.full(shape(*batch.input_ids.shape), 5, dtype=np.int64)
    with pytest.raises(DimensionError, match="mlm_targets"):
        pt.pretrain_loss(state.params, state.config, replace(batch, mlm_targets=targets))


def test_mlm_head_decodes_only_the_target_rows(monkeypatch):
    state, batch = head_setup(batch_size=8)
    rows, full = [], md.mlm_logits

    def counting(hidden, params, config):
        rows.append(hidden.shape)
        return full(hidden, params, config)
    monkeypatch.setattr(md, "mlm_logits", counting)
    pt.pretrain_loss(state.params, state.config, batch)
    n_targets = int((batch.mlm_targets != pt.IGNORE_INDEX).sum())
    assert rows == [(n_targets, state.config.hidden_dim)]


# -- training loop ----------------------------------------------------------


def test_step_zero_loss_is_ln_vocab_plus_ln_two():
    vocab = word_vocab(120)
    state = tiny_state(vocab, hidden_dim=32, n_heads=4)
    stream = pt.BatchStream(word_corpus(vocab, n_docs=8), vocab,
                            quick_plan(batch_size=8))
    _, mlm, nsp = pt.pretrain_loss(state.params, state.config, stream.batch(0))
    expected = math.log(len(vocab)) + math.log(2)
    assert abs((mlm + nsp) - expected) / expected < 0.05


def test_zero_step_run_returns_input_unchanged(tmp_path):
    vocab = word_vocab(20)
    state = tiny_state(vocab)
    before = snapshot(state.params)
    result = pt.run_pretraining(state, word_corpus(vocab), quick_plan(total_steps=0),
                                checkpoint_path=tmp_path / "zero.ckpt")
    assert result.metrics == [] and result.final_step == 0
    for path, arr in before.items():
        np.testing.assert_array_equal(result.state.params[path].data, arr)
    loaded = ck.load_checkpoint(tmp_path / "zero.ckpt")
    for path, arr in before.items():
        np.testing.assert_array_equal(loaded.params[path].data, arr)


def test_same_seed_runs_are_bit_identical():
    vocab = word_vocab(20)
    corpus = word_corpus(vocab)
    plan = quick_plan(total_steps=3, cf=CFConfig(mixout_p=0.5))
    r1 = pt.run_pretraining(tiny_state(vocab), corpus, plan)
    r2 = pt.run_pretraining(tiny_state(vocab), corpus, plan)
    for path, t in r1.state.params.items():
        np.testing.assert_array_equal(t.data, r2.state.params[path].data)
    assert r1.metrics == r2.metrics


def test_vocabulary_fingerprint_mismatch_is_configuration_error():
    vocab = word_vocab(20)
    other = word_vocab(21)
    state = tiny_state(vocab)
    with pytest.raises(ConfigurationError, match="fingerprint"):
        pt.run_pretraining(state, word_corpus(vocab), quick_plan(), vocab=other)


def test_plan_longer_than_model_positions_is_configuration_error():
    vocab = word_vocab(20)
    state = tiny_state(vocab, max_seq_len=16)
    with pytest.raises(ConfigurationError, match="max_seq_len"):
        pt.run_pretraining(state, word_corpus(vocab), quick_plan(max_seq_len=32))


def test_metrics_are_logged_per_step_with_eval_cadence(tmp_path):
    vocab = word_vocab(20)
    plan = quick_plan(total_steps=5, heldout_fraction=0.2, eval_every=2)
    result = pt.run_pretraining(tiny_state(vocab), word_corpus(vocab), plan,
                                metrics_path=tmp_path / "m.jsonl")
    assert [r["step"] for r in result.metrics] == [0, 1, 2, 3, 4]
    evaluated = [r["step"] for r in result.metrics if r["pppl_heldout"] is not None]
    assert evaluated == [1, 3, 4]   # every 2nd step plus the final one
    assert all(r["pppl_heldout"] > 1.0 for r in result.metrics
               if r["pppl_heldout"] is not None)
    on_disk = pt.load_metrics(tmp_path / "m.jsonl")
    assert on_disk == result.metrics
    steps = [r["step"] for r in on_disk]
    assert steps == sorted(set(steps))


def test_replay_draws_on_divisible_steps_and_requires_corpus():
    vocab = word_vocab(20)
    corpus = word_corpus(vocab, seed=1)
    replay = word_corpus(vocab, seed=2)
    plan = quick_plan(total_steps=9, cf=CFConfig(replay_every=3))
    result = pt.run_pretraining(tiny_state(vocab), corpus, plan, replay_corpus=replay)
    assert result.replay_steps == [3, 6, 9]
    with pytest.raises(ConfigurationError, match="replay"):
        pt.run_pretraining(tiny_state(vocab), corpus, plan)


def test_frozen_layers_stay_bit_identical_through_training():
    vocab = word_vocab(20)
    state = tiny_state(vocab)
    before = snapshot(state.params)
    plan = quick_plan(total_steps=3, cf=CFConfig(freeze_layers=1))
    result = pt.run_pretraining(state, word_corpus(vocab), plan)
    changed = set()
    for path, arr in before.items():
        group, layer = md.param_group(path)
        frozen = group == "embeddings" or (group == "encoder" and layer == 0)
        if frozen:
            np.testing.assert_array_equal(result.state.params[path].data, arr)
        elif not np.array_equal(result.state.params[path].data, arr):
            changed.add(group)
    assert "encoder" in changed and "head" in changed


def test_resume_from_checkpoint_matches_uninterrupted_run(tmp_path):
    vocab = word_vocab(20)
    corpus = word_corpus(vocab)
    plan = quick_plan(total_steps=6, peak_lr=5e-3, seed=11)

    straight = pt.run_pretraining(tiny_state(vocab, seed=4), corpus, plan,
                                  checkpoint_path=tmp_path / "straight.ckpt")

    first = pt.run_pretraining(tiny_state(vocab, seed=4), corpus, plan,
                               stop_step=3, checkpoint_path=tmp_path / "mid.ckpt")
    assert first.final_step == 3
    mid = ck.load_checkpoint(tmp_path / "mid.ckpt")
    resumed = pt.run_pretraining(mid, corpus, plan,
                                 checkpoint_path=tmp_path / "resumed.ckpt")
    assert resumed.final_step == 6
    assert [r["step"] for r in resumed.metrics] == [3, 4, 5]
    for path, t in straight.state.params.items():
        np.testing.assert_array_equal(t.data, resumed.state.params[path].data,
                                      err_msg=path)
    for path, slot in straight.optimizer_state.items():
        np.testing.assert_array_equal(slot["m"], resumed.optimizer_state[path]["m"])
        assert slot["t"] == resumed.optimizer_state[path]["t"]
    # the resume continues the run's lineage rather than descending from its
    # own mid-run checkpoint, so it writes the uninterrupted run's file
    assert resumed.checkpoint_id == straight.checkpoint_id
    # and it trained a copy: the loaded state still holds step 3's moments
    assert all(slot["t"] <= 3 for slot in mid.optimizer_state.values())


def test_training_improves_heldout_mlm_loss():
    vocab = word_vocab(40)
    corpus = word_corpus(vocab, n_docs=40, per_doc=5, length=6, seed=3)
    assert corpus.n_sentences == 200
    state = tiny_state(vocab, hidden_dim=32, n_heads=4, ff_dim=64)
    plan = quick_plan(total_steps=500, peak_lr=1e-3, batch_size=8,
                      warmup_fraction=0.02, heldout_fraction=0.1, eval_every=500)
    _, heldout = pt.split_heldout(corpus, plan.heldout_fraction)
    probe = pt.BatchStream(heldout, vocab, quick_plan(batch_size=16, seed=99))
    fixed = probe.batch(0)

    _, mlm_before, _ = pt.pretrain_loss(state.params, state.config, fixed)
    result = pt.run_pretraining(state, corpus, plan)
    _, mlm_after, _ = pt.pretrain_loss(result.state.params, state.config, fixed)
    assert mlm_after < mlm_before
    logged = [r["pppl_heldout"] for r in result.metrics if r["pppl_heldout"]]
    assert logged
