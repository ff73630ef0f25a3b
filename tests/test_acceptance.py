"""Acceptance gates for the whole laboratory, one test per criterion.

Full-scale results need corpus sizes and compute this package is not built
for, so acceptance is property-based: exact oracles where a closed form
exists (gradients, metrics, schedules, persistence) and directional checks
at desk scale for the training-dynamics claims (learning, forgetting and its
mitigation, the gain from domain adaptation). Each criterion with a runtime
budget asserts it; the conftest hook prints a one-line verdict per criterion
at the end of the run.
"""

import json
import math
import time

import numpy as np
import pytest

import synthdata as sd
from statecheck import assert_same_state
from bertlab import autodiff as ad
from bertlab import checkpoint as ckpt
from bertlab import dataport as dp
from bertlab import finetune as ft
from bertlab import mitigation as mit
from bertlab import mlmeval as ev
from bertlab import model as md
from bertlab import pretrain as pt
from bertlab.autodiff import Tensor
from bertlab.cli import entrypoint
from bertlab.errors import ConfigurationError
from bertlab.seeding import map_units, substream
from bertlab.tokenizer import SPECIAL_TOKENS, Vocabulary

FD_PRIMITIVE_TOL = 1e-5
FD_FULL_LOSS_TOL = 1e-4


def fresh_state(vocab, seed=1, **overrides):
    kw = dict(n_layers=2, hidden_dim=32, n_heads=4, ff_dim=64, max_seq_len=32,
              vocab_size=len(vocab), dropout_rate=0.0)
    kw.update(overrides)
    config = md.ModelConfig(**kw)
    params = md.init_params(config, substream(seed, "init"))
    return pt.ModelState(config=config, params=params, vocab=vocab)


def clone_state(state):
    params = {p: Tensor(t.data.copy(), requires_grad=True)
              for p, t in state.params.items()}
    return pt.ModelState(config=state.config, params=params, vocab=state.vocab)


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    started = time.monotonic()
    with ad.precision("float64"):
        rng = np.random.default_rng(0)

        def t(shape, scale=1.0):
            return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)

        a, b = t((3, 4)), t((3, 4))
        m2 = t((4, 5))
        gain, bias = t((4,)), t((4,))
        probes = [
            ("add", lambda x: ad.sum_all(ad.tanh(ad.add(x, b))), t((3, 4))),
            ("add-bias", lambda x: ad.sum_all(ad.tanh(ad.add(a, x))), t((4,))),
            ("sub", lambda x: ad.sum_all(ad.tanh(ad.sub(x, b))), t((3, 4))),
            ("mul", lambda x: ad.sum_all(ad.mul(x, b)), t((3, 4))),
            ("scale", lambda x: ad.sum_all(ad.tanh(ad.scale(x, 1.7))), t((3, 4))),
            ("add_const", lambda x: ad.sum_all(ad.tanh(ad.add_const(x, np.ones((3, 4))))), t((3, 4))),
            ("matmul-lhs", lambda x: ad.sum_all(ad.tanh(ad.matmul(x, m2))), t((3, 4))),
            ("matmul-rhs", lambda x: ad.sum_all(ad.tanh(ad.matmul(a, x))), t((4, 5))),
            ("matmul-batched", lambda x: ad.sum_all(ad.tanh(ad.matmul(x, m2))), t((2, 3, 4))),
            ("transpose", lambda x: ad.sum_all(ad.mul(ad.transpose(x, (1, 0)), ad.transpose(x, (1, 0)))), t((3, 4))),
            ("reshape", lambda x: ad.sum_all(ad.tanh(ad.reshape(x, (4, 3)))), t((3, 4))),
            ("select", lambda x: ad.sum_all(ad.tanh(ad.select(x, 1, 2))), t((3, 4))),
            ("softmax", lambda x: ad.sum_all(ad.mul(ad.softmax(x, -1), b)), t((3, 4))),
            ("layer_norm-x", lambda x: ad.sum_all(ad.mul(ad.layer_norm(x, gain, bias), b)), t((3, 4))),
            ("layer_norm-gain", lambda x: ad.sum_all(ad.mul(ad.layer_norm(a, x, bias), b)), t((4,))),
            ("gelu", lambda x: ad.sum_all(ad.gelu(x)), t((3, 4))),
            ("tanh", lambda x: ad.sum_all(ad.tanh(x)), t((3, 4))),
            ("embedding_lookup", lambda x: ad.sum_all(ad.tanh(ad.embedding_lookup(x, np.array([[0, 2], [2, 1]])))), t((4, 5))),
            ("dropout", lambda x: ad.sum_all(ad.mul(ad.dropout(x, 0.3, substream(9, "fd-drop")), b)), t((3, 4))),
            ("sum_all", lambda x: ad.sum_all(ad.mul(x, x)), t((3, 4))),
            ("mean_all", lambda x: ad.mean_all(ad.mul(x, x)), t((3, 4))),
            ("cross_entropy", lambda x: ad.cross_entropy(x, np.array([1, -100, 3])), t((3, 5))),
        ]
        w34, b4 = t((3, 4)), t((4,))
        for shape in ((2, 5, 3), (5, 3)):
            xs, tag = t(shape), f"{len(shape)}d"
            probes += [
                (f"linear-{tag}-x", lambda x: ad.sum_all(ad.tanh(ad.linear(x, w34, b4))), t(shape)),
                (f"linear-{tag}-w", lambda x, xs=xs: ad.sum_all(ad.tanh(ad.linear(xs, x, b4))), t((3, 4))),
                (f"linear-{tag}-b", lambda x, xs=xs: ad.sum_all(ad.tanh(ad.linear(xs, w34, x))), t((4,))),
            ]
        weights = t((2, 3, 4))
        norm_args = {"x": t((2, 3, 4)), "y": t((2, 3, 4)), "gain": gain, "bias": bias}
        for name in norm_args:
            def fn(v, name=name):
                return ad.sum_all(ad.mul(ad.add_norm(**{**norm_args, name: v}), weights))
            probes.append((f"add_norm-{name}", fn, t(norm_args[name].shape)))
        # B=2, L=3, H=4 in two heads, the last key column of row 1 padded
        mask = np.zeros((2, 1, 1, 3))
        mask[1, ..., 2] = md.MASK_BIAS
        att_args = {"x": t((2, 3, 4))}
        for proj in "qkv":
            att_args.update({f"w{proj}": t((4, 4), 0.5), f"b{proj}": t((4,), 0.5)})
        for rate in (0.0, 0.3):
            for name in att_args:
                def fn(v, name=name, rate=rate):
                    args = {**att_args, name: v}
                    rng = substream(9, "fd-attention") if rate else None
                    return ad.sum_all(ad.mul(ad.attention(**args, mask_bias=mask, n_heads=2,
                                                          rate=rate, rng=rng), weights))
                probes.append((f"attention-{name}-rate{rate}", fn, t(att_args[name].shape)))
        for name, fn, x in probes:
            err = ad.grad_check(fn, x)
            assert err < FD_PRIMITIVE_TOL, f"{name}: relative error {err}"

        # full objective on the toy configuration
        vocab = sd.shared_vocab(sd.domain_words("a", 20))
        corpus = sd.chain_corpus(sd.domain_words("a", 20), n_docs=6, seed=3)
        config = md.ModelConfig(n_layers=2, hidden_dim=32, n_heads=4, ff_dim=64,
                                max_seq_len=16, vocab_size=len(vocab),
                                dropout_rate=0.0)
        params = md.init_params(config, substream(3, "init"))
        plan = pt.TrainPlan(peak_lr=1e-3, total_steps=1, batch_size=2,
                            max_seq_len=16, heldout_fraction=0.0, seed=3)
        batch = pt.BatchStream(corpus, vocab, plan).batch(0)
        # every coordinate of every parameter tensor, no sampling
        errors = ad.grad_check_params(
            lambda: pt.pretrain_loss(params, config, batch)[0], params)
        worst = max(errors, key=errors.get)
        assert errors[worst] < FD_FULL_LOSS_TOL, f"{worst}: {errors[worst]}"
    assert time.monotonic() - started < 120


# ---------------------------------------------------------------------------
# 2. metric oracles
# ---------------------------------------------------------------------------


class RiggedScorer:
    """Fixed preference order over tokens, same for every position."""

    def __init__(self, vocab, preferred):
        logits = np.full(len(vocab), -10.0)
        for i, token in enumerate(preferred):
            logits[vocab.ids[token]] = 10.0 - i
        shifted = logits - logits.max()
        self.row = shifted - np.log(np.exp(shifted).sum())

    def __call__(self, ids, attention_mask, positions):
        return np.tile(self.row, (len(ids), 1))


def test_criterion_02_metric_oracles():
    words = sd.domain_words("a", 20)
    vocab = sd.shared_vocab(words)
    corpus = sd.chain_corpus(words, n_docs=13, per_doc=4, length=8, seed=2)
    sentences = sd.corpus_sentences(corpus)[:50]
    assert len(sentences) == 50
    state = fresh_state(vocab, seed=6, hidden_dim=16, n_heads=2, ff_dim=16)
    scorer = ev.ModelScorer(state.params, state.config, chunk_size=7)
    fast = ev.pppl(scorer, sentences, vocab, state.config.max_seq_len)
    slow = ev.pppl_naive(scorer, sentences, vocab, state.config.max_seq_len)
    assert fast.value == pytest.approx(slow.value, rel=1e-6)

    preferred = [words[i] for i in range(5)]
    rigged = RiggedScorer(vocab, preferred)

    def one_item(answer):
        item = ev.MaskedEvalItem(source_id="s", text="a10 a11 a12",
                                 start=4, end=7, answer=answer)
        return ev.mrr_top5(rigged, [item], vocab, 16).value

    assert one_item(words[0]) == pytest.approx(1.0, rel=1e-12)   # rank 1
    assert one_item(words[2]) == pytest.approx(1 / 3, rel=1e-12)  # rank 3
    assert one_item(words[4]) == pytest.approx(0.2, rel=1e-12)   # rank 5
    assert one_item(words[10]) == 0.0                            # absent

    items = [ev.MaskedEvalItem(source_id=f"h{i}", text="a10 a11 a12",
                               start=4, end=7, answer=answer)
             for i, answer in enumerate([words[0], words[1], words[10]])]
    hand = ev.mrr_top5(rigged, items, vocab, 16)
    assert hand.value == pytest.approx((1.0 + 0.5 + 0.0) / 3, rel=1e-12)


# ---------------------------------------------------------------------------
# 3. uniform-model anchor
# ---------------------------------------------------------------------------


def test_criterion_03_uniform_model_anchor():
    words = sd.domain_words("a", 40)
    vocab = sd.shared_vocab(words)
    state = fresh_state(vocab, seed=4, hidden_dim=16, n_heads=2, ff_dim=16)

    flat = clone_state(state)
    for t in flat.params.values():
        t.data[:] = 0.0
    scorer = ev.ModelScorer(flat.params, flat.config)
    result = ev.pppl(scorer, ["a00 a01 a02 a03", "a04 a05"], vocab,
                     flat.config.max_seq_len)
    assert result.value == pytest.approx(len(vocab), rel=0.01)

    corpus = sd.chain_corpus(words, n_docs=8, seed=4)
    plan = pt.TrainPlan(peak_lr=1e-3, total_steps=1, batch_size=8,
                        max_seq_len=32, heldout_fraction=0.0, seed=4)
    batch = pt.BatchStream(corpus, vocab, plan).batch(0)
    loss, _, _ = pt.pretrain_loss(state.params, state.config, batch)
    expected = math.log(len(vocab)) + math.log(2.0)
    assert float(loss.data) == pytest.approx(expected, rel=0.05)


# ---------------------------------------------------------------------------
# 4. learning works
# ---------------------------------------------------------------------------


def test_criterion_04_learning_halves_heldout_pppl():
    started = time.monotonic()
    words = sd.domain_words("a", 20)
    vocab = sd.shared_vocab(words)
    corpus = sd.chain_corpus(words, n_docs=200, per_doc=4, length=8, seed=5)
    assert len(corpus.documents) == 200
    _, held = pt.split_heldout(corpus, 0.1)
    held_sentences = sd.corpus_sentences(held)

    state = fresh_state(vocab, seed=7)
    before = pt.heldout_pppl(state, held_sentences)
    plan = pt.TrainPlan(peak_lr=5e-3, total_steps=500, batch_size=16,
                        max_seq_len=32, warmup_fraction=0.02,
                        heldout_fraction=0.1, eval_every=500, seed=7)
    result = pt.run_pretraining(state, corpus, plan)
    after = pt.heldout_pppl(result.state, held_sentences)
    assert after <= 0.5 * before, f"PPPL {before:.2f} -> {after:.2f}"
    assert time.monotonic() - started < 600


# ---------------------------------------------------------------------------
# 5. forgetting direction and its mitigation
# ---------------------------------------------------------------------------


def test_criterion_05_forgetting_direction():
    started = time.monotonic()
    words_a = sd.domain_words("a", 20)
    words_b = sd.domain_words("b", 20)
    vocab = sd.shared_vocab(words_a, words_b)
    corpus_a = sd.chain_corpus(words_a, n_docs=60, seed=5)
    corpus_b = sd.chain_corpus(words_b, n_docs=60, seed=6)
    train_a, held_a = pt.split_heldout(corpus_a, 0.15)
    eval_a = sd.corpus_sentences(held_a)

    mitigations = {
        "none": None,
        "replay": mit.CFConfig(llrd_decay=0.9, replay_every=10),
        "regularized": mit.CFConfig(llrd_decay=0.9, mixout_p=0.9,
                                    warmup_fraction=0.02),
    }

    def seed_rises(seed):
        """{mitigation: % rise in domain-A PPPL} for one seed."""
        base_plan = pt.TrainPlan(peak_lr=5e-3, total_steps=400, batch_size=16,
                                 max_seq_len=32, warmup_fraction=0.02,
                                 heldout_fraction=0.0, eval_every=1000,
                                 seed=seed)
        base = pt.run_pretraining(fresh_state(vocab, seed=seed), train_a,
                                  base_plan)
        before = pt.heldout_pppl(base.state, eval_a)
        out = {}
        for name, cf in mitigations.items():
            plan = pt.TrainPlan(peak_lr=5e-4, total_steps=300, batch_size=16,
                                max_seq_len=32, heldout_fraction=0.0,
                                eval_every=1000, seed=seed, cf=cf)
            replay = train_a if (cf and cf.replay_every) else None
            cont = pt.run_pretraining(clone_state(base.state), corpus_b, plan,
                                      replay_corpus=replay)
            after = pt.heldout_pppl(cont.state, eval_a)
            out[name] = (after - before) / before * 100.0
        return out

    # the seeds are independent units: one per CPU, the results in seed order
    per_seed = map_units(seed_rises, (1, 2, 3, 4, 5))
    rises = {name: [r[name] for r in per_seed] for name in mitigations}

    assert all(rise >= 10.0 for rise in rises["none"]), rises["none"]
    for name in ("replay", "regularized"):
        wins = sum(m < u for m, u in zip(rises[name], rises["none"]))
        assert wins >= 4, f"{name}: beat the unmitigated run in {wins}/5 seeds"
    assert time.monotonic() - started < 1800


# ---------------------------------------------------------------------------
# 6. schedule exactness
# ---------------------------------------------------------------------------


def test_criterion_06_schedule_exactness():
    # closed form at every depth
    vocab = sd.shared_vocab(sd.domain_words("a", 8))
    state4 = fresh_state(vocab, seed=2, n_layers=4, hidden_dim=16, n_heads=2,
                         ff_dim=16)
    for decay in (0.9, 0.95, 1.0):
        for path in state4.params:
            group, layer = md.param_group(path)
            if decay == 1.0 or group == "head":
                expected = 1.0
            elif group == "encoder":
                expected = decay ** (4 - 1 - layer)
            else:
                expected = decay ** 4
            got = mit.llrd_lr(1.0, decay, path, 4)
            assert got == pytest.approx(expected, rel=1e-12), (path, decay)

    # freezing the two deepest layers holds them bit-identical
    corpus = sd.chain_corpus(sd.domain_words("a", 8), n_docs=8, seed=2)
    before = {p: t.data.copy() for p, t in state4.params.items()}
    plan = pt.TrainPlan(peak_lr=5e-3, total_steps=100, batch_size=4,
                        max_seq_len=32, heldout_fraction=0.0, eval_every=1000,
                        seed=2, cf=mit.CFConfig(freeze_layers=2))
    result = pt.run_pretraining(state4, corpus, plan)
    frozen = mit.frozen_paths(before, 2, 4)
    assert frozen
    moved = 0
    for path, original in before.items():
        now = result.state.params[path].data
        if path in frozen:
            np.testing.assert_array_equal(now, original, err_msg=path)
        elif not np.array_equal(now, original):
            moved += 1
    assert moved > 0

    # replay cadence audit over a real run
    assert mit.replay_steps(1000, 100) == list(range(100, 1001, 100))
    tiny = fresh_state(vocab, seed=3, n_layers=1, hidden_dim=16, n_heads=2,
                       ff_dim=16, max_seq_len=16)
    audit_plan = pt.TrainPlan(peak_lr=1e-3, total_steps=1000, batch_size=2,
                              max_seq_len=16, heldout_fraction=0.0,
                              eval_every=10000, seed=3,
                              cf=mit.CFConfig(replay_every=100))
    audited = pt.run_pretraining(tiny, corpus, audit_plan, replay_corpus=corpus)
    assert audited.replay_steps == list(range(100, 1001, 100))

    # mixout substitution statistics over 100k elements
    n = 100_000
    current = {"heads.probe.weight": Tensor(np.full((250, 400), 2.0),
                                            requires_grad=True)}
    anchor = np.full(n, 1.0)
    mixed = mit.mixout_apply(current, anchor, 0.9, substream(0, "mixstat"))
    values = mixed["heads.probe.weight"].data
    substituted = float(np.count_nonzero(values < 6.0)) / n
    assert abs(substituted - 0.9) <= 0.02
    deviation = values - 2.0
    assert abs(deviation.mean()) <= 3.0 * deviation.std(ddof=1) / math.sqrt(n)


# ---------------------------------------------------------------------------
# 7. realignment
# ---------------------------------------------------------------------------


def _port_ner(n=20):
    examples = []
    for i in range(n):
        tokens = ("patient", "took", f"drug{i:02d}", "today")
        tags = ("O", "O", "B-DRUG", "O")
        examples.append(ft.NerExample(
            uid=f"n{i}", tokens=tokens, tags=tags, text=" ".join(tokens),
            spans=(ft.Span(13, 19, "DRUG"),)))
    return examples


def _port_qa(n=20):
    examples = []
    for i in range(n):
        context = f"the trial gave drug{i:02d} to every patient cohort"
        answer = f"drug{i:02d} to every"
        examples.append(ft.QaExample(
            uid=f"q{i}", question="what was given",
            context=context,
            answers=(ft.Answer(text=answer, answer_start=context.index(answer)),)))
    return examples


class _DeleteMention:
    name = "delete-one-mention"

    def __init__(self, needle):
        self.needle = needle

    def translate(self, text):
        return " ".join(text.replace(self.needle, " ").split())


def test_criterion_07_realignment():
    ner = _port_ner()
    kept, report = dp.realign_examples(ner, dp.IdentityTranslator())
    assert report.dropped_total == 0
    assert all(k is e for k, e in zip(kept, ner))   # bit-level no-op

    upper_kept, upper_report = dp.realign_examples(ner, dp.UppercaseTranslator())
    assert upper_report.dropped_total == 0
    for original, ported in zip(ner, upper_kept):
        for o_span, p_span in zip(original.spans, ported.spans):
            source = original.text[o_span.start:o_span.end]
            assert ported.text[p_span.start:p_span.end] == source.upper()
    qa_kept, qa_report = dp.realign_examples(_port_qa(), dp.UppercaseTranslator())
    assert qa_report.dropped_total == 0
    for example in qa_kept:
        for answer in example.answers:
            start = answer.answer_start
            assert example.context[start:start + len(answer.text)] == answer.text

    _, deleted = dp.realign_examples(ner, _DeleteMention("drug07"))
    assert deleted.drop_rate == 5.0
    assert deleted.dropped["mention_not_found"] == 1

    shuffler = dp.WordShuffleTranslator(seed=3)
    _, ner_noise = dp.realign_examples(ner, shuffler)
    _, qa_noise = dp.realign_examples(_port_qa(), shuffler)
    assert qa_noise.drop_rate > ner_noise.drop_rate


# ---------------------------------------------------------------------------
# 8. task metrics and the multi-seed protocol
# ---------------------------------------------------------------------------


def test_criterion_08_task_metrics_and_protocol():
    gold = [{(0, 1, "A"), (1, 2, "B")}]
    predicted = [{(0, 1, "A"), (2, 3, "C")}]
    prf = ft.ner_f1(gold, predicted)
    assert (prf.precision, prf.recall, prf.f1) == (0.5, 0.5, 0.5)

    qa = ft.qa_scores(["acute myeloid leukemia"], "myeloid leukemia")
    assert qa.precision == pytest.approx(1.0, rel=1e-12)
    assert qa.recall == pytest.approx(2 / 3, rel=1e-12)
    assert qa.f1 == pytest.approx(0.8, rel=1e-12)

    re_prf = ft.re_f1(["treats", "none", "treats"],
                      ["treats", "treats", "none"], negative_label="none")
    assert (re_prf.precision, re_prf.recall, re_prf.f1) == (0.5, 0.5, 0.5)

    _, sdev = ft.mean_sd([1.0, 2.0, 3.0, 4.0, 5.0])
    assert abs(sdev - 1.581) <= 0.001
    assert ft.delta_pct(82.0, 80.0) == pytest.approx(2.5, rel=1e-9)

    words = sd.domain_words("a", 12)
    vocab = sd.shared_vocab(words)
    examples = sd.membership_ner(words[:4], words[4:8], 20, seed=31)
    train, dev, test = ft.split_dataset(examples, seed=0)
    dataset = ft.TaskDataset(task="ner", train=train, dev=dev, test=test)
    state = fresh_state(vocab, seed=8, hidden_dim=16, n_heads=2, ff_dim=16)
    plan = ft.FinetunePlan(lr=5e-3, batch_size=8, epochs=1, max_seq_len=32)
    first = ft.finetune_task(state, dataset, plan, seeds=(1, 2, 3, 4, 5))
    second = ft.finetune_task(state, dataset, plan, seeds=(1, 2, 3, 4, 5))
    assert [r.seed for r in first.report.runs] == [1, 2, 3, 4, 5]
    assert first.report.to_dict() == second.report.to_dict()

    runs = [ft.SeedRun(seed=s, precision=0.8, recall=0.8, f1=f, dev_f1=f,
                       best_epoch=0)
            for s, f in zip((1, 2), (0.81, 0.83))]
    baseline = ft.make_report("ner", "base", [
        ft.SeedRun(seed=1, precision=0.8, recall=0.8, f1=0.80, dev_f1=0.8,
                   best_epoch=0)])
    report = ft.make_report("ner", "adapted", runs, baseline=baseline)
    assert report.baseline_name == "base"
    assert report.delta_pct == pytest.approx(2.5, rel=1e-9)


# ---------------------------------------------------------------------------
# 9. persistence
# ---------------------------------------------------------------------------


def test_criterion_09_persistence(tmp_path):
    words = sd.domain_words("a", 16)
    vocab = sd.shared_vocab(words)
    corpus = sd.chain_corpus(words, n_docs=10, seed=9)
    state = fresh_state(vocab, seed=9, hidden_dim=16, n_heads=2, ff_dim=16)
    plan = pt.TrainPlan(peak_lr=1e-3, total_steps=100, batch_size=4,
                        max_seq_len=32, heldout_fraction=0.0, eval_every=1000,
                        seed=9)

    straight = pt.run_pretraining(clone_state(state), corpus, plan)
    first_half = pt.run_pretraining(clone_state(state), corpus, plan,
                                    stop_step=50,
                                    checkpoint_path=tmp_path / "mid.ckpt")
    assert first_half.final_step == 50
    resumed = pt.run_pretraining(ckpt.load_checkpoint(tmp_path / "mid.ckpt"),
                                 corpus, plan)
    assert resumed.final_step == 100
    assert_same_state(resumed.state, straight.state)

    ckpt.save_checkpoint(tmp_path / "a.ckpt", straight.state)
    loaded = ckpt.load_checkpoint(tmp_path / "a.ckpt")
    for path, t in straight.state.params.items():
        np.testing.assert_array_equal(t.data, loaded.params[path].data)
    ckpt.save_checkpoint(tmp_path / "b.ckpt", loaded)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    other = Vocabulary.from_tokens(list(SPECIAL_TOKENS) + words + ["extra"])
    with pytest.raises(ConfigurationError):
        ckpt.load_checkpoint(tmp_path / "a.ckpt", expect_vocab=other)
    with pytest.raises(ConfigurationError):
        pt.run_pretraining(loaded, corpus, plan, vocab=other)


# ---------------------------------------------------------------------------
# 10. end-to-end pipeline
# ---------------------------------------------------------------------------


def test_criterion_10_end_to_end_pipeline(tmp_path):
    started = time.monotonic()
    j = lambda *parts: str(tmp_path.joinpath(*parts))
    words_a = sd.domain_words("a", 20)
    words_s = sd.domain_words("s", 10)
    words_o = sd.domain_words("o", 10)

    corpus_a = sd.chain_corpus(words_a, n_docs=60, seed=5)
    community = sd.community_corpus(words_s, words_o, n_docs_each=35, seed=6)
    corpus_b = pt.Corpus(documents=community.documents[:60])
    eval_b = pt.Corpus(documents=community.documents[60:])
    pt.save_corpus(corpus_a, j("a.txt"))
    pt.save_corpus(corpus_b, j("b.txt"))
    pt.save_corpus(eval_b, j("b_eval.txt"))
    pt.save_corpus(pt.Corpus(documents=corpus_a.documents + corpus_b.documents),
                   j("union.txt"))
    ft.save_ner(sd.membership_ner(words_s[:5], words_o[:5], 80, seed=21),
                j("ner.train.conll"))
    ft.save_ner(sd.membership_ner(words_s[:5], words_o[:5], 12, seed=22),
                j("ner.dev.conll"))
    ft.save_ner(sd.membership_ner(words_s[5:], words_o[5:], 16, seed=23),
                j("ner.test.conll"))

    config = {
        "seed": 1,
        "tokenizer": {"corpus": j("union.txt"), "vocab_size": 160,
                      "vocab": j("vocab", "vocab.txt")},
        "model": {"n_layers": 2, "hidden_dim": 32, "n_heads": 4, "ff_dim": 64,
                  "max_seq_len": 32, "dropout_rate": 0.0},
        "pretrain": {"corpus": j("a.txt"), "total_steps": 400,
                     "batch_size": 16, "peak_lr": 5e-3,
                     "warmup_fraction": 0.02, "heldout_fraction": 0.05,
                     "eval_every": 1000, "max_seq_len": 32},
        "adapt": {"corpus": j("b.txt"), "total_steps": 800, "batch_size": 16,
                  "peak_lr": 5e-3, "warmup_fraction": 0.02,
                  "heldout_fraction": 0.05, "eval_every": 2000,
                  "max_seq_len": 32},
        "eval": {"sentences": j("b_eval.txt")},
        "tasks": {"ner": {"train": j("ner.train.conll"),
                          "dev": j("ner.dev.conll"),
                          "test": j("ner.test.conll")}},
        "finetune": {"lr": 5e-3, "batch_size": 8, "epochs": 8,
                     "max_seq_len": 32, "seeds": [1, 2, 3, 4, 5]},
    }
    config_path = j("run.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)

    commands = [
        ["vocab-train", "--config", config_path, "--out", j("vocab")],
        ["pretrain", "--config", config_path, "--out", j("base")],
        ["adapt", "--config", config_path, "--out", j("adapted"),
         "--parent", j("base", "checkpoint.ckpt")],
        ["eval-mlm", "--config", config_path, "--out", j("eval_base"),
         "--checkpoint", j("base", "checkpoint.ckpt")],
        ["eval-mlm", "--config", config_path, "--out", j("eval_adapted"),
         "--checkpoint", j("adapted", "checkpoint.ckpt")],
        ["finetune", "--config", config_path, "--out", j("ft_base"),
         "--checkpoint", j("base", "checkpoint.ckpt")],
        ["finetune", "--config", config_path, "--out", j("ft_adapted"),
         "--checkpoint", j("adapted", "checkpoint.ckpt")],
    ]
    for argv in commands:
        assert entrypoint(argv) == 0, argv[0]

    child = ckpt.load_checkpoint(j("adapted", "checkpoint.ckpt"))
    parent = ckpt.load_checkpoint(j("base", "checkpoint.ckpt"))
    assert child.lineage == (parent.checkpoint_id,)
    assert ckpt.verify_lineage(child, parent) == []

    with open(j("eval_base", "report.json"), encoding="utf-8") as fh:
        pppl_base = json.load(fh)["PPPL"]
    with open(j("eval_adapted", "report.json"), encoding="utf-8") as fh:
        pppl_adapted = json.load(fh)["PPPL"]
    assert pppl_adapted < pppl_base

    with open(j("ft_base", "report.ner.json"), encoding="utf-8") as fh:
        f1_base = [run["f1"] for run in json.load(fh)["runs"]]
    with open(j("ft_adapted", "report.ner.json"), encoding="utf-8") as fh:
        f1_adapted = [run["f1"] for run in json.load(fh)["runs"]]
    wins = sum(a > b for a, b in zip(f1_adapted, f1_base))
    assert wins >= 4, f"adapted beat base in {wins}/5 seeds " \
                      f"({f1_base} vs {f1_adapted})"
    assert time.monotonic() - started < 2700
