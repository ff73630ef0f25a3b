"""Metric anchors with hand-built scorers, batched-vs-naive agreement, and
masked-set loading."""

import json
import math
import sys
import threading

import numpy as np
import pytest

from bertlab import autodiff as ad
from bertlab import finetune as ft
from bertlab import mlmeval as ev
from bertlab import model as md
from bertlab import tokenizer as tk
from bertlab.errors import ConfigurationError, InputError, NumericFault, ValidationError
from bertlab.seeding import substream

LETTERS = ["a", "b", "c", "d", "e", "f", "g", "h"]


@pytest.fixture
def vocab():
    return tk.Vocabulary.from_tokens(list(tk.SPECIAL_TOKENS) + LETTERS)


def table_scorer(vocab, fn):
    """Scorer built from fn(row_ids, position) -> {token_id: prob}; everything
    else gets a vanishing probability."""
    def scorer(input_ids, attention_mask, positions):
        out = np.full((len(input_ids), len(vocab)), -1e9)
        for i, (row, pos) in enumerate(zip(input_ids, positions)):
            for tok, p in fn(tuple(row), int(pos)).items():
                out[i, tok] = math.log(p)
        return out
    return scorer


# -- pseudo-perplexity ------------------------------------------------------


def test_pppl_certain_model_is_one(vocab):
    # the scorer knows the unmasked sentence and returns p=1 for the answer
    text = "a b c"
    original = [vocab.ids[w] for w in text.split()]

    def fn(row, pos):
        return {original[pos - 1]: 1.0}

    result = ev.pppl(table_scorer(vocab, fn), [text], vocab, max_seq_len=16)
    assert result.value == 1.0
    assert result.n_tokens == 3


def test_pppl_hand_two_maskings(vocab):
    original = [vocab.ids["a"], vocab.ids["b"]]
    probs = {1: 0.5, 2: 0.25}

    def fn(row, pos):
        return {original[pos - 1]: probs[pos]}

    result = ev.pppl(table_scorer(vocab, fn), ["a b"], vocab, max_seq_len=16)
    assert result.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_pppl_uniform_vocab_100():
    vocab = tk.Vocabulary.from_tokens(list(tk.SPECIAL_TOKENS) + [f"t{i}" for i in range(95)])
    assert len(vocab) == 100

    def scorer(input_ids, attention_mask, positions):
        return np.full((len(input_ids), 100), math.log(1.0 / 100.0))

    result = ev.pppl(scorer, ["t0 t1 t2 t3"], vocab, max_seq_len=16)
    assert result.value == pytest.approx(100.0, rel=1e-12)


def test_pppl_counts_all_scored_tokens(vocab):
    def scorer(ids, mask, pos):
        return np.full((len(ids), len(vocab)), math.log(1.0 / len(vocab)))

    result = ev.pppl(scorer, ["a b c", "d e"], vocab, max_seq_len=16)
    assert result.n_tokens == 5
    assert [n for n, _ in result.per_sentence] == [3, 2]


def test_pppl_empty_corpus_is_input_error(vocab):
    def scorer(ids, mask, pos):  # pragma: no cover - never called
        raise AssertionError
    with pytest.raises(InputError):
        ev.pppl(scorer, [], vocab, max_seq_len=16)
    with pytest.raises(InputError):
        ev.pppl(scorer, ["", "   "], vocab, max_seq_len=16)


def test_pppl_overlong_sentence_is_input_error(vocab):
    def scorer(ids, mask, pos):  # pragma: no cover
        raise AssertionError
    with pytest.raises(InputError):
        ev.pppl(scorer, ["a b c d e f"], vocab, max_seq_len=6)


def test_pppl_order_invariance(vocab):
    rng = np.random.default_rng(4)
    table = rng.dirichlet(np.ones(len(vocab)), size=16)

    def scorer(ids, mask, positions):
        return np.log(table[positions % 16])

    sents = ["a b c", "d e", "f g h", "a c e g"]
    forward = ev.pppl(scorer, sents, vocab, max_seq_len=16)
    backward = ev.pppl(scorer, sents[::-1], vocab, max_seq_len=16)
    assert forward.value == backward.value


def test_pppl_rejects_positive_log_probs(vocab):
    def scorer(ids, mask, pos):
        return np.full((len(ids), len(vocab)), 0.5)
    with pytest.raises(NumericFault):
        ev.pppl(scorer, ["a b"], vocab, max_seq_len=16)


def test_batched_matches_naive_on_real_model(vocab):
    config = md.ModelConfig(n_layers=2, hidden_dim=32, n_heads=4, ff_dim=16,
                            max_seq_len=16, vocab_size=len(vocab), dropout_rate=0.0)
    params = md.init_params(config, substream(11, "init"))
    scorer = ev.ModelScorer(params, config, chunk_size=3)
    sents = ["a b c d", "e f", "g h a b c"]
    fast = ev.pppl(scorer, sents, vocab, config.max_seq_len)
    slow = ev.pppl_naive(scorer, sents, vocab, config.max_seq_len)
    assert fast.value == pytest.approx(slow.value, rel=1e-6)
    assert fast.value >= 1.0


def real_scorer(vocab, chunk_size=3):
    config = md.ModelConfig(n_layers=2, hidden_dim=32, n_heads=4, ff_dim=16,
                            max_seq_len=16, vocab_size=len(vocab), dropout_rate=0.0)
    params = md.init_params(config, substream(11, "init"))
    return ev.ModelScorer(params, config, chunk_size=chunk_size)


def scored_rows(vocab, n=7, length=9):
    rng = np.random.default_rng(5)
    ids = rng.integers(len(tk.SPECIAL_TOKENS), len(vocab), size=(n, length))
    positions = rng.integers(0, length, size=n)
    ids[np.arange(n), positions] = vocab.mask_id
    mask = np.ones_like(ids)
    mask[0, -2:] = 0
    return ids, mask, positions


def test_model_scorer_rows_are_the_full_log_softmax_at_positions(vocab):
    with ad.precision("float64"):
        scorer = real_scorer(vocab)
        assert scorer.params["embeddings.token"].dtype == np.float64
        ids, mask, positions = scored_rows(vocab)
        got = scorer(ids, mask, positions)
        with ad.no_grad():
            hidden = md.forward_encoder(scorer.params, scorer.config, ids,
                                        np.zeros_like(ids), mask)
            logits = md.mlm_logits(hidden, scorer.params, scorer.config).data
    picked = logits[np.arange(len(ids)), positions]
    shifted = picked - picked.max(axis=-1, keepdims=True)
    expected = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    assert got.shape == (len(ids), len(vocab))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_model_scorer_decodes_one_row_per_sequence(vocab, monkeypatch):
    scorer = real_scorer(vocab, chunk_size=3)
    rows, full = [], md.mlm_logits

    def counting(hidden, params, config):
        rows.append(hidden.shape)
        return full(hidden, params, config)
    monkeypatch.setattr(md, "mlm_logits", counting)
    scorer(*scored_rows(vocab, n=7))
    assert rows == [(7, 32)]   # every chunk's scored row, in one call


OPENBLAS = ev._openblas()   # read before any test patches it away


def blas_threads():
    return OPENBLAS[0]() if OPENBLAS else None


@pytest.fixture
def outer_blas():
    """OpenBLAS at two threads around the test, so that pinning one shows
    (None without the thread controls)."""
    if OPENBLAS is None:
        yield None
        return
    get, set_ = OPENBLAS
    old = get()
    set_(2)
    yield 2
    set_(old)


@pytest.fixture(params=["one-worker", "two-workers", "no-openblas"])
def workers(request, monkeypatch):
    """The scorer's worker count: one CPU, two CPUs, or two CPUs without
    the OpenBLAS thread controls (one worker again)."""
    monkeypatch.setattr(ev.os, "sched_getaffinity",
                        lambda pid: {0} if request.param == "one-worker" else {0, 1})
    if request.param == "no-openblas":
        monkeypatch.setattr(ev, "_openblas", lambda: None)
    return request.param


def padded_rows(vocab, n=23, length=9):
    ids, mask, positions = scored_rows(vocab, n, length)
    mask[1::4, -3:] = 0
    ids[mask == 0] = vocab.pad_id
    positions = np.minimum(positions, length - 4)
    return ids, mask, positions


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_model_scorer_bits_depend_on_neither_chunk_size_nor_workers(
        outer_blas, vocab, workers, monkeypatch, dtype):
    with ad.precision(dtype):
        ids, mask, positions = padded_rows(vocab)
        reference_scorer = real_scorer(vocab)
        with ad.no_grad():   # one sequential chunk
            hidden = md.forward_encoder(reference_scorer.params, reference_scorer.config,
                                        ids, np.zeros_like(ids), mask)
            flat = np.arange(len(ids)) * ids.shape[1] + positions
            logits = md.mlm_logits(md.gather_rows(hidden, flat), reference_scorer.params,
                                   reference_scorer.config).data.astype(np.float64)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        expected = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

        seen = []
        full = md.forward_encoder

        def recording(*args, **kwargs):
            seen.append(blas_threads())
            return full(*args, **kwargs)
        monkeypatch.setattr(md, "forward_encoder", recording)
        for chunk_size in (1, 3, 7, 16, len(ids), 64):
            seen.clear()
            got = real_scorer(vocab, chunk_size=chunk_size)(ids, mask, positions)
            assert got.dtype == np.float64 and got.tobytes() == expected.tobytes(), chunk_size
            # one OpenBLAS thread only while two workers share the chunks
            shared = workers == "two-workers" and chunk_size < len(ids) and outer_blas
            assert set(seen) == ({1} if shared else {outer_blas})
            assert blas_threads() == outer_blas


def test_model_scorer_encodes_each_chunk_once_under_thread_switching(vocab, monkeypatch):
    monkeypatch.setattr(ev.os, "sched_getaffinity", lambda pid: set(range(8)))
    ids, mask, positions = padded_rows(vocab)
    expected = real_scorer(vocab, chunk_size=len(ids))(ids, mask, positions)
    calls, full = [], md.forward_encoder

    def counting(params, config, input_ids, *rest):
        calls.append(input_ids.tobytes())
        return full(params, config, input_ids, *rest)
    monkeypatch.setattr(md, "forward_encoder", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            calls.clear()
            got = real_scorer(vocab, chunk_size=1)(ids, mask, positions)
            assert got.tobytes() == expected.tobytes()
            assert sorted(calls) == sorted(row.tobytes() for row in ids)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("where", ["any-worker", "helper"])
def test_model_scorer_error_in_a_chunk_reaches_the_caller_and_cleans_up(
        outer_blas, vocab, monkeypatch, where):
    monkeypatch.setattr(ev.os, "sched_getaffinity", lambda pid: {0, 1})
    scorer = real_scorer(vocab, chunk_size=2)
    ids, mask, positions = padded_rows(vocab)
    threads = threading.active_count()
    full, helper_done = md.forward_encoder, threading.Event()

    def faulty(params, config, input_ids, *rest):
        bad = input_ids.copy()
        bad[0, 0] = config.vocab_size
        if where == "any-worker":
            return full(params, config, bad, *rest)
        if threading.current_thread() is threading.main_thread():
            helper_done.wait(timeout=30)   # the caller's own chunks succeed
            return full(params, config, input_ids, *rest)
        try:
            return full(params, config, bad, *rest)
        finally:
            helper_done.set()
    monkeypatch.setattr(md, "forward_encoder", faulty)
    with pytest.raises(ConfigurationError, match=f"token id {len(vocab)} out of range"):
        scorer(ids, mask, positions)
    assert where == "any-worker" or helper_done.is_set()
    assert ad._GRAD_ENABLED is True
    assert blas_threads() == outer_blas
    assert threading.active_count() == threads
    monkeypatch.setattr(md, "forward_encoder", full)
    assert scorer(ids, mask, positions).shape == (len(ids), len(vocab))
    assert ad._GRAD_ENABLED is True and threading.active_count() == threads


@pytest.mark.parametrize("case", ["2-d", "short", "long", "minus-one", "past-end",
                                  "float"])
def test_model_scorer_rejects_bad_positions(vocab, case):
    scorer = real_scorer(vocab)
    ids, mask, positions = scored_rows(vocab, n=4, length=9)
    positions = {"2-d": positions[:, None], "short": positions[:3],
                 "long": np.append(positions, 1), "minus-one": np.array([1, 2, -1, 3]),
                 "past-end": np.array([1, 9, 2, 3]),
                 "float": positions.astype(np.float64)}[case]
    with pytest.raises(ConfigurationError, match="position"):
        scorer(ids, mask, positions)


# -- mean reciprocal rank ---------------------------------------------------


def rank_scorer(vocab, order):
    """Fixed strictly-decreasing distribution over `order` (token names)."""
    ids = [vocab.ids[t] for t in order]

    def scorer(input_ids, attention_mask, positions):
        out = np.full((len(input_ids), len(vocab)), -30.0)
        for r, tid in enumerate(ids):
            out[:, tid] = -float(r + 1)
        return out
    return scorer


def one_word_item(word, sid="s1"):
    return ev.MaskedEvalItem(source_id=sid, text=word, start=0, end=len(word), answer=word)


def test_mrr_rank_anchor_scores(vocab):
    order = ["a", "b", "c", "d", "e", "f"]
    for word, expected in (("a", 1.0), ("c", 1.0 / 3.0), ("e", 0.2), ("f", 0.0)):
        result = ev.mrr_top5(rank_scorer(vocab, order), [one_word_item(word)], vocab, 16)
        assert result.value == pytest.approx(expected, rel=1e-12)
        assert result.rankings[0].rank == (order.index(word) + 1 if expected else 0)


def test_mrr_mean_over_items(vocab):
    order = ["a", "b", "c", "d", "e", "f"]
    items = [one_word_item("a", "s1"), one_word_item("b", "s2"), one_word_item("f", "s3")]
    result = ev.mrr_top5(rank_scorer(vocab, order), items, vocab, 16)
    assert result.value == pytest.approx((1.0 + 0.5 + 0.0) / 3.0, rel=1e-12)


def test_mrr_tie_breaks_toward_lower_token_id(vocab):
    ida, idb = vocab.ids["a"], vocab.ids["b"]
    assert ida < idb

    def scorer(input_ids, attention_mask, positions):
        out = np.full((len(input_ids), len(vocab)), -30.0)
        out[:, [ida, idb]] = -1.0  # exact tie
        return out

    result = ev.mrr_top5(scorer, [one_word_item("b")], vocab, 16)
    assert result.rankings[0].rank == 2
    assert result.rankings[0].top5[0][0] == "a"


def test_mrr_invariant_under_monotone_probability_transform(vocab):
    rng = np.random.default_rng(8)
    base = rng.standard_normal(len(vocab))

    def make(scale_pow):
        def scorer(ids, mask, pos):
            row = base * scale_pow  # p -> p**scale_pow, strictly monotone
            row = row - np.log(np.exp(row - row.max()).sum()) - row.max()
            return np.tile(row, (len(ids), 1))
        return scorer

    items = [one_word_item(w, f"s{w}") for w in LETTERS]
    a = ev.mrr_top5(make(1.0), items, vocab, 16)
    b = ev.mrr_top5(make(3.0), items, vocab, 16)
    assert a.value == b.value
    assert [r.rank for r in a.rankings] == [r.rank for r in b.rankings]


def test_mrr_excludes_multi_piece_targets(vocab):
    items = [one_word_item("a"), one_word_item("axeq", "s2")]
    result = ev.mrr_top5(rank_scorer(vocab, ["a", "b"]), items, vocab, 16)
    assert result.value == 1.0          # excluded items leave the denominator
    assert len(result.excluded) == 1
    assert result.excluded[0][1] == ev.EXCLUDED_NOT_SINGLE_TOKEN


def test_mrr_all_excluded_is_input_error(vocab):
    with pytest.raises(InputError):
        ev.mrr_top5(rank_scorer(vocab, ["a"]), [one_word_item("qqq")], vocab, 16)


def test_mrr_by_sentence_view(vocab):
    order = ["a", "b", "c", "d", "e", "f"]
    items = [one_word_item("a", "s1"), one_word_item("f", "s1"), one_word_item("b", "s2")]
    result = ev.mrr_top5(rank_scorer(vocab, order), items, vocab, 16)
    assert result.by_sentence == {"s1": pytest.approx(0.5), "s2": pytest.approx(0.5)}


def test_mrr_order_invariance(vocab):
    order = ["c", "a", "f", "b", "d", "e"]
    items = [one_word_item(w, f"s{w}") for w in ("a", "b", "c", "d")]
    fwd = ev.mrr_top5(rank_scorer(vocab, order), items, vocab, 16)
    rev = ev.mrr_top5(rank_scorer(vocab, order), items[::-1], vocab, 16)
    assert fwd.value == rev.value


# -- masked-set file --------------------------------------------------------


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def good_record(rid="r1", text="il gatto nero", start=3, end=8, subdomain="toy"):
    return {"id": rid, "text": text,
            "maskings": [{"start": start, "end": end, "answer": text[start:end]}],
            "subdomain": subdomain}


def test_load_well_formed_fixture(tmp_path):
    path = tmp_path / "set.jsonl"
    write_jsonl(path, [good_record(f"r{i}") for i in range(3)])
    items, report = ev.load_masked_set(path)
    assert len(items) == 3
    assert report == {"sentences": 3, "items": 3}
    assert items[0].answer == "gatto"
    assert items[0].subdomain == "toy"


def test_multi_mask_sentence_expands(tmp_path):
    text = "a bb ccc dddd"
    rec = {"id": "multi", "text": text, "subdomain": "x",
           "maskings": [{"start": s, "end": e, "answer": text[s:e]}
                        for s, e in ((0, 1), (2, 4), (5, 8), (9, 13))]}
    path = tmp_path / "set.jsonl"
    write_jsonl(path, [rec])
    items, report = ev.load_masked_set(path)
    assert len(items) == 4
    assert {i.source_id for i in items} == {"multi"}
    assert report["items"] == 4


def test_span_past_end_is_validation_error(tmp_path):
    rec = good_record()
    rec["maskings"][0] = {"start": 3, "end": 99, "answer": "gatto"}
    path = tmp_path / "set.jsonl"
    write_jsonl(path, [rec])
    with pytest.raises(ValidationError) as exc:
        ev.load_masked_set(path)
    assert "r1" in str(exc.value)


def test_overlapping_spans_listed(tmp_path):
    text = "abcdef"
    rec = {"id": "ov", "text": text,
           "maskings": [{"start": 0, "end": 4, "answer": "abcd"},
                        {"start": 2, "end": 6, "answer": "cdef"}]}
    path = tmp_path / "set.jsonl"
    write_jsonl(path, [rec])
    with pytest.raises(ValidationError) as exc:
        ev.load_masked_set(path)
    assert "overlapping" in str(exc.value)


def test_answer_mismatch_and_duplicate_id_listed(tmp_path):
    bad = good_record("dup")
    bad["maskings"][0]["answer"] = "cane"
    path = tmp_path / "set.jsonl"
    write_jsonl(path, [bad, good_record("dup")])
    with pytest.raises(ValidationError) as exc:
        ev.load_masked_set(path)
    msg = str(exc.value)
    assert "cane" in msg and "duplicate" in msg


def test_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError):
        ev.load_masked_set(tmp_path / "nope.jsonl")


def test_invalid_json_is_reported_at_its_physical_line(tmp_path):
    path = tmp_path / "set.jsonl"
    path.write_text("\n\nnot json\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 3"):
        ev.load_masked_set(path)
    with pytest.raises(ValidationError, match="line 3"):
        ft.load_qa(path)


@pytest.mark.parametrize("line, named", [
    ("[1, 2]", "line 1"),
    (json.dumps({"id": "r9", "text": "ab", "maskings": [5]}), "r9"),
    (json.dumps({"id": "r8", "text": "ab",
                 "maskings": [{"start": True, "end": 2, "answer": "b"}]}), "r8"),
], ids=["record-is-list", "masking-is-number", "masking-start-is-bool"])
def test_non_object_records_are_validation_errors(tmp_path, line, named):
    path = tmp_path / "set.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=named):
        ev.load_masked_set(path)
