"""Downstream task training: metrics against hand-computed anchors, file
format round-trips, featurization layouts, and the five-seed protocol."""

import json
import math
import os
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bertlab import autodiff as ad
from bertlab import checkpoint as ckpt
from bertlab import finetune as ft
from bertlab import model as md
from bertlab import pretrain as pt
from bertlab import tokenizer as tk
from bertlab.autodiff import Tensor
from bertlab.cli import entrypoint
from bertlab.errors import ConfigurationError, InputError, ValidationError
from bertlab.seeding import substream
from statecheck import assert_same_state
from test_autodiff import record_mallopt

IGN = pt.IGNORE_INDEX


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

WORDS = ("aspirin", "ibuprofen", "patient", "took", "the", "daily", "dose",
         "of", "with", "water", "fever", "pain", "reduced", "caused")


@pytest.fixture(scope="module")
def vocab():
    return tk.Vocabulary.from_tokens(list(tk.SPECIAL_TOKENS) + list(WORDS))


@pytest.fixture(scope="module")
def state(vocab):
    config = md.ModelConfig(n_layers=2, hidden_dim=16, n_heads=2, ff_dim=16,
                            max_seq_len=32, vocab_size=len(vocab),
                            dropout_rate=0.0)
    params = md.init_params(config, substream(0, "init"))
    return pt.ModelState(config=config, params=params, vocab=vocab)


@pytest.fixture(scope="module")
def piece_vocab():
    # subword splits: aspirin -> asp ##irin, reduced -> red ##uced
    return tk.Vocabulary.from_tokens(
        list(tk.SPECIAL_TOKENS) +
        ["asp", "##irin", "red", "##uced", "pain", "water", "the"])


def drug_sentences(n=24, seed=7):
    """Lexically trivial NER: the drug word is always the entity."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        drug = ("aspirin", "ibuprofen")[i % 2]
        filler = list(rng.choice(["patient", "took", "daily", "dose", "water"],
                                 size=3))
        tokens = ["the", "patient", "took", drug] + filler
        tags = ["O"] * 3 + ["B-DRUG"] + ["O"] * 3
        out.append(ft.NerExample(uid=f"n{i}", tokens=tokens, tags=tags))
    return out


@pytest.fixture(scope="module")
def ner_dataset():
    tr, dv, te = ft.split_dataset(drug_sentences(), seed=0)
    return ft.TaskDataset(task="ner", train=tr, dev=dv, test=te)


def qa_dataset():
    examples = []
    for i in range(12):
        drug = ("aspirin", "ibuprofen")[i % 2]
        context = f"the patient took {drug} with water"
        examples.append(ft.QaExample(
            uid=f"q{i}", question="took the dose of", context=context,
            answers=(ft.Answer(drug, context.index(drug)),)))
    tr, dv, te = ft.split_dataset(examples, seed=0)
    return ft.TaskDataset(task="qa", train=tr, dev=dv, test=te)


def re_dataset():
    examples = []
    for i in range(24):
        drug = ("aspirin", "ibuprofen")[i % 2]
        if i % 2 == 0:
            examples.append(ft.ReExample(uid=f"r{i}", text=f"{drug} reduced fever",
                                         relation="treats"))
        else:
            examples.append(ft.ReExample(uid=f"r{i}", text=f"{drug} with water",
                                         relation="none"))
    tr, dv, te = ft.split_dataset(examples, seed=0)
    return ft.TaskDataset(task="re", train=tr, dev=dv, test=te,
                          negative_label="none")


# ---------------------------------------------------------------------------
# example validation
# ---------------------------------------------------------------------------


def test_span_requires_positive_width():
    with pytest.raises(ValidationError):
        ft.Span(3, 3, "X")
    with pytest.raises(ValidationError):
        ft.Span(-1, 2, "X")


def test_ner_example_validation():
    with pytest.raises(ValidationError, match="tokens vs"):
        ft.NerExample(uid="a", tokens=("x", "y"), tags=("O",))
    with pytest.raises(ValidationError, match="BIO"):
        ft.NerExample(uid="a", tokens=("x",), tags=("DRUG",))
    with pytest.raises(ValidationError, match="BIO"):
        ft.NerExample(uid="a", tokens=("x",), tags=("B-",))
    with pytest.raises(ValidationError, match="overlapping"):
        ft.NerExample(uid="a", tokens=("x", "y"), tags=("B-A", "B-B"),
                      text="xx yy",
                      spans=(ft.Span(0, 3, "A"), ft.Span(2, 5, "B")))
    with pytest.raises(ValidationError, match="past end"):
        ft.NerExample(uid="a", tokens=("x",), tags=("B-A",), text="x",
                      spans=(ft.Span(0, 9, "A"),))


def test_ner_spans_that_disagree_with_the_tags_are_refused():
    def example(spans, text="aspirin helps"):
        return ft.NerExample(uid="a", tokens=("aspirin", "helps"), tags=("B-Drug", "O"),
                             text=text, spans=spans)
    for spans in ((), (ft.Span(8, 13, "Drug"),), (ft.Span(0, 7, "Gene"),),
                  (ft.Span(0, 7, "Drug"), ft.Span(8, 13, "Drug"))):
        with pytest.raises(ValidationError, match="disagree with the tags"):
            example(spans)
    with pytest.raises(ValidationError, match="token not found"):
        example((ft.Span(0, 7, "Drug"),), text="aspirin works")
    # a span takes every word it overlaps, as realignment regenerates tags
    assert example((ft.Span(2, 5, "Drug"),)).spans == (ft.Span(2, 5, "Drug"),)
    assert example((ft.Span(0, 7, "Drug"),), text="  aspirin, helps").tags == ("B-Drug", "O")


def test_qa_example_validation():
    good = ft.QaExample(uid="q", question="who", context="bob slept",
                        answers=(ft.Answer("bob", 0),))
    assert good.answers[0].text == "bob"
    with pytest.raises(ValidationError, match="does not match"):
        ft.QaExample(uid="q", question="who", context="bob slept",
                     answers=(ft.Answer("bob", 4),))
    with pytest.raises(ValidationError, match="out of bounds"):
        ft.QaExample(uid="q", question="who", context="bob",
                     answers=(ft.Answer("bob", 2),))
    with pytest.raises(ValidationError, match="no gold answers"):
        ft.QaExample(uid="q", question="who", context="bob", answers=())
    with pytest.raises(ValidationError, match="empty"):
        ft.QaExample(uid="q", question=" ", context="bob",
                     answers=(ft.Answer("bob", 0),))


def test_re_example_validation():
    with pytest.raises(ValidationError, match="empty"):
        ft.ReExample(uid="r", text="   ", relation="none")


def test_dataset_validation():
    ex = ft.ReExample(uid="r", text="x y", relation="a")
    with pytest.raises(ConfigurationError, match="unknown task"):
        ft.TaskDataset(task="parsing", train=(ex,), dev=(ex,), test=(ex,))
    with pytest.raises(InputError, match="empty dev"):
        ft.TaskDataset(task="re", train=(ex,), dev=(), test=(ex,))


def test_split_dataset_partitions():
    examples = drug_sentences(n=20)
    tr, dv, te = ft.split_dataset(examples, seed=3)
    assert (len(tr), len(dv), len(te)) == (16, 2, 2)
    uids = [e.uid for e in tr + dv + te]
    assert sorted(uids) == sorted(e.uid for e in examples)
    assert len(set(uids)) == 20
    # deterministic
    again = ft.split_dataset(examples, seed=3)
    assert [e.uid for e in again[0]] == [e.uid for e in tr]
    # different seed shuffles differently
    other = ft.split_dataset(examples, seed=4)
    assert [e.uid for e in other[0]] != [e.uid for e in tr]


def test_split_dataset_rejects_degenerate():
    examples = drug_sentences(n=2)
    with pytest.raises(InputError):
        ft.split_dataset(examples, seed=0)


def test_label_coverage():
    tr = (ft.NerExample(uid="a", tokens=("x",), tags=("B-DRUG",)),)
    dv = (ft.NerExample(uid="b", tokens=("x",), tags=("B-GENE",)),)
    ds = ft.TaskDataset(task="ner", train=tr, dev=dv, test=tr)
    with pytest.raises(ConfigurationError, match="GENE"):
        ft.check_label_coverage(ds)
    rr = ft.TaskDataset(
        task="re",
        train=(ft.ReExample(uid="a", text="x", relation="none"),),
        dev=(ft.ReExample(uid="b", text="x", relation="treats"),),
        test=(ft.ReExample(uid="c", text="x", relation="none"),),
        negative_label="none")
    with pytest.raises(ConfigurationError, match="treats"):
        ft.check_label_coverage(rr)
    # the negative class itself need not appear in train
    ok = ft.TaskDataset(
        task="re",
        train=(ft.ReExample(uid="a", text="x", relation="treats"),),
        dev=(ft.ReExample(uid="b", text="x", relation="none"),),
        test=(ft.ReExample(uid="c", text="x", relation="treats"),),
        negative_label="none")
    ft.check_label_coverage(ok)


@pytest.mark.parametrize("label", [5, True, ["none"]], ids=["int", "bool", "list"])
def test_negative_label_must_be_a_string(label):
    ds = re_dataset()
    with pytest.raises(ConfigurationError, match="negative_label must be str"):
        ft.TaskDataset("re", ds.train, ds.dev, ds.test, negative_label=label)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_ner_f1_hand_counts():
    gold = [{(0, 1, "A"), (2, 3, "B")}]
    pred = [{(0, 1, "A"), (5, 6, "C")}]
    got = ft.ner_f1(gold, pred)
    assert (got.precision, got.recall, got.f1) == (0.5, 0.5, 0.5)


def test_ner_f1_perfect_and_empty():
    gold = [{(0, 1, "A")}, {(4, 6, "B")}]
    assert ft.ner_f1(gold, gold).f1 == 1.0
    assert ft.ner_f1(gold, [set(), set()]).f1 == 0.0
    # no entities anywhere and none predicted: perfect agreement
    assert ft.ner_f1([set()], [set()]) == ft.PRF(1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        ft.ner_f1([set()], [set(), set()])


def test_ner_f1_micro_pools_sentences():
    # sentence 1: 1 tp, 1 fn; sentence 2: 1 fp -> P=1/2, R=1/2
    gold = [{(0, 1, "A"), (2, 3, "A")}, set()]
    pred = [{(0, 1, "A")}, {(9, 10, "A")}]
    got = ft.ner_f1(gold, pred)
    assert got.precision == 0.5 and got.recall == 0.5


def test_bio_decode_simple():
    tags = ("B-DRUG", "I-DRUG", "O", "B-GENE")
    assert ft.bio_decode(tags) == ((0, 2, "DRUG"), (3, 4, "GENE"))


def test_bio_decode_repairs_invalid_transitions():
    # I- after O opens a new entity; label switch inside I- run opens another
    assert ft.bio_decode(("O", "I-X", "I-X")) == ((1, 3, "X"),)
    assert ft.bio_decode(("B-Y", "I-X")) == ((0, 1, "Y"), (1, 2, "X"))
    assert ft.bio_decode(("I-X",)) == ((0, 1, "X"),)
    # trailing entity is closed at the end
    assert ft.bio_decode(("O", "B-X")) == ((1, 2, "X"),)
    assert ft.bio_decode(("O", "O")) == ()


@st.composite
def entity_layouts(draw):
    """(canonical entities, word count): sorted, disjoint, non-empty ranges."""
    entities, pos = [], 0
    for gap, length, label in draw(st.lists(st.tuples(
            st.integers(0, 2), st.integers(1, 3), st.sampled_from(("X", "Y", "I-Z"))),
            max_size=5)):
        entities.append((pos + gap, pos + gap + length, label))
        pos += gap + length
    return tuple(entities), pos + draw(st.integers(0, 2))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(layout=entity_layouts())
def test_bio_decode_inverts_bio_encode(layout):
    entities, n_words = layout
    tags = ft.bio_encode(entities, n_words)
    assert len(tags) == n_words
    assert ft.bio_decode(tags) == entities


def test_qa_f1_hand_counts():
    got = ft.qa_scores(["acute myeloid leukemia"], "myeloid leukemia")
    assert got.precision == 1.0
    assert got.recall == pytest.approx(2 / 3)
    assert got.f1 == pytest.approx(0.8)


def test_qa_f1_exact_and_disjoint():
    assert ft.qa_f1(["acute myeloid leukemia"], "acute myeloid leukemia") == 1.0
    assert ft.qa_f1(["acute myeloid leukemia"], "the patient") == 0.0


def test_qa_f1_normalization():
    # case and punctuation are stripped before the token overlap
    assert ft.qa_f1(["Acute Myeloid Leukemia."], "acute myeloid, leukemia") == 1.0
    assert ft.qa_tokens("Non-small cell!") == ["non", "small", "cell"]


def test_qa_f1_best_of_gold_list():
    golds = ["aspirin", "acetylsalicylic acid"]
    assert ft.qa_f1(golds, "aspirin") == 1.0
    got = ft.qa_scores(golds, "acid")
    assert got.f1 == pytest.approx(2 / 3)


def test_qa_f1_empty_cases():
    assert ft.qa_f1([""], "") == 1.0
    assert ft.qa_f1(["aspirin"], "") == 0.0
    assert ft.qa_f1([""], "aspirin") == 0.0


def test_re_f1_hand_counts():
    assert ft.re_f1(["A", "B"], ["A", "B"], negative_label="neg").f1 == 1.0
    got = ft.re_f1(["A", "B", "neg"], ["A", "neg", "B"], negative_label="neg")
    assert (got.precision, got.recall, got.f1) == (0.5, 0.5, 0.5)
    assert ft.re_f1(["A", "B"], ["neg", "neg"], negative_label="neg").f1 == 0.0


def test_re_f1_negative_agreement_not_counted():
    # all-negative gold predicted perfectly: vacuous success, scored 1
    assert ft.re_f1(["neg", "neg"], ["neg", "neg"], negative_label="neg").f1 == 1.0
    with pytest.raises(ValidationError):
        ft.re_f1(["A"], ["A", "B"])


def test_mean_sd_anchors():
    mean, sd = ft.mean_sd([1, 2, 3, 4, 5])
    assert mean == 3.0
    assert sd == pytest.approx(1.5811388300841898)
    mean, sd = ft.mean_sd([0.7])
    assert mean == 0.7 and sd is None


def test_delta_pct():
    assert ft.delta_pct(82.0, 80.0) == pytest.approx(2.5)
    assert ft.delta_pct(78.0, 80.0) == pytest.approx(-2.5)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_ner_round_trip(tmp_path):
    examples = (
        ft.NerExample(uid="s0", tokens=("aspirin", "helps"), tags=("B-DRUG", "O"),
                      text="aspirin helps", spans=(ft.Span(0, 7, "DRUG"),)),
        ft.NerExample(uid="s1", tokens=("no", "entities"), tags=("O", "O"),
                      text="no entities"),
    )
    path = tmp_path / "toy.conll"
    ft.save_ner(examples, path)
    back = ft.load_ner(path)
    assert back == examples
    assert back[0].spans[0].label == "DRUG"


def test_ner_load_without_sidecar(tmp_path):
    path = tmp_path / "plain.conll"
    path.write_text("aspirin\tB-DRUG\nhelps\tO\n\nwater\tO\n", encoding="utf-8")
    back = ft.load_ner(path)
    assert len(back) == 2
    assert back[0].text == "aspirin helps"
    assert back[0].spans == (ft.Span(0, 7, "DRUG"),)
    assert back[1].spans == ()


def test_ner_load_errors(tmp_path):
    with pytest.raises(InputError):
        ft.load_ner(tmp_path / "missing.conll")
    empty = tmp_path / "empty.conll"
    empty.write_text("\n\n", encoding="utf-8")
    with pytest.raises(InputError, match="no sentences"):
        ft.load_ner(empty)
    bad = tmp_path / "bad.conll"
    bad.write_text("token with no tag column and spaces everywhere extra\n",
                   encoding="utf-8")
    with pytest.raises(ValidationError, match="line 1"):
        ft.load_ner(bad)
    tags = tmp_path / "tags.conll"
    tags.write_text("x\tB-\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="BIO"):
        ft.load_ner(tags)


def test_ner_sidecar_count_mismatch(tmp_path):
    path = tmp_path / "toy.conll"
    path.write_text("x\tO\n\ny\tO\n", encoding="utf-8")
    (tmp_path / "toy.conll.spans").write_text(
        json.dumps({"id": "a", "text": "x", "spans": []}) + "\n",
        encoding="utf-8")
    with pytest.raises(ValidationError, match="sidecar has 1 records"):
        ft.load_ner(path)


QA_RECORD = {"id": "a", "question": "q", "context": "ctx",
             "answers": [{"text": "ctx", "answer_start": 0}]}


@pytest.mark.parametrize("load, suffix, record, named", [
    (ft.load_qa, "", {**QA_RECORD, "id": ["a"]}, "line 1: .*id must be a string"),
    (ft.load_qa, "", {**QA_RECORD, "question": 7}, "line 1: .*question must be a string"),
    (ft.load_re, "", {"id": "r", "text": 5, "relation": "a"}, "line 1: .*text must be a string"),
    (ft.load_ner, ".spans", {"id": ["s"], "text": "x", "spans": []},
     "sentence 0: .*id must be a string"),
    (ft.load_qa, "", {**QA_RECORD, "answers": [{"text": "tx", "answer_start": True}]},
     "line 1: .*answer_start must be an integer"),
    (ft.load_ner, ".spans",
     {"id": "s", "text": "x", "spans": [{"start": False, "end": 1, "label": "L"}]},
     "sidecar record 0: .*integer offsets"),
], ids=["qa-list-id", "qa-number-question", "re-number-text", "ner-sidecar-list-id",
        "qa-bool-answer-start", "ner-sidecar-bool-span-start"])
def test_mistyped_record_fields_are_validation_errors(tmp_path, load, suffix, record, named):
    path = tmp_path / "data"
    path.write_text("x\tO\n", encoding="utf-8")   # the CoNLL file a sidecar belongs to
    (tmp_path / ("data" + suffix)).write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=named):
        load(path)


def test_qa_round_trip(tmp_path):
    examples = (
        ft.QaExample(uid="q0", question="what drug", context="aspirin helps",
                     answers=(ft.Answer("aspirin", 0),)),
        ft.QaExample(uid="q1", question="what helps", context="water helps pain",
                     answers=(ft.Answer("water", 0), ft.Answer("water helps", 0))),
    )
    path = tmp_path / "toy.qa.jsonl"
    ft.save_qa(examples, path)
    assert ft.load_qa(path) == examples


def test_qa_load_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "question": "q"\nnot json\n', encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        ft.load_qa(path)
    assert len(err.value.items) == 2
    dupes = tmp_path / "dupes.jsonl"
    record = json.dumps({"id": "a", "question": "q", "context": "ctx",
                         "answers": [{"text": "ctx", "answer_start": 0}]})
    dupes.write_text(record + "\n" + record + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="duplicate id"):
        ft.load_qa(dupes)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n", encoding="utf-8")
    with pytest.raises(InputError, match="no records"):
        ft.load_qa(empty)


def test_re_round_trip(tmp_path):
    examples = (
        ft.ReExample(uid="r0", text="<e1>aspirin</e1> treats <e2>fever</e2>",
                     relation="treats"),
        ft.ReExample(uid="r1", text="<e1>water</e1> and <e2>pain</e2>",
                     relation="none"),
    )
    path = tmp_path / "toy.re.jsonl"
    ft.save_re(examples, path)
    assert ft.load_re(path) == examples


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------


def test_featurize_ner_layout(piece_vocab):
    example = ft.NerExample(uid="a", tokens=("aspirin", "reduced", "pain"),
                            tags=("B-DRUG", "O", "O"))
    label_ids = {"B-DRUG": 0, "I-DRUG": 1, "O": 2}
    feat = ft.featurize_ner(example, piece_vocab, label_ids, max_seq_len=32)
    ids = piece_vocab.ids
    assert feat.ids == (piece_vocab.cls_id, ids["asp"], ids["##irin"],
                        ids["red"], ids["##uced"], ids["pain"],
                        piece_vocab.sep_id)
    assert feat.labels == (IGN, 0, IGN, 2, IGN, 2, IGN)
    assert feat.word_positions == (1, 3, 5)
    assert feat.gold_spans == ((0, 1, "DRUG"),)


def test_featurize_ner_truncates_whole_words(piece_vocab):
    example = ft.NerExample(uid="a", tokens=("aspirin", "reduced", "pain"),
                            tags=("B-DRUG", "O", "O"))
    label_ids = {"B-DRUG": 0, "O": 2}
    feat = ft.featurize_ner(example, piece_vocab, label_ids, max_seq_len=6)
    assert len(feat.ids) == 6
    assert feat.word_positions == (1, 3)
    assert feat.ids[-1] == piece_vocab.sep_id
    # gold spans keep the full sentence: truncation costs recall honestly
    assert feat.gold_spans == ((0, 1, "DRUG"),)


def test_featurize_qa_layout_and_target(piece_vocab):
    example = ft.QaExample(uid="q", question="the", context="aspirin reduced pain",
                           answers=(ft.Answer("reduced", 8),))
    feat = ft.featurize_qa(example, piece_vocab, max_seq_len=32)
    ids = piece_vocab.ids
    assert feat.ids == (piece_vocab.cls_id, ids["the"], piece_vocab.sep_id,
                        ids["asp"], ids["##irin"], ids["red"], ids["##uced"],
                        ids["pain"], piece_vocab.sep_id)
    assert feat.segments == (0, 0, 0, 1, 1, 1, 1, 1, 1)
    assert feat.context_range == (3, 8)
    assert feat.offsets == ((0, 3), (3, 7), (8, 11), (11, 15), (16, 20))
    assert feat.target == (5, 6)
    # target rows decode back to the answer text
    lo = feat.context_range[0]
    s, e = feat.target
    text = feat.norm_context[feat.offsets[s - lo][0]: feat.offsets[e - lo][1]]
    assert text == "reduced"


def test_featurize_qa_truncated_answer_has_no_target(piece_vocab):
    example = ft.QaExample(uid="q", question="the", context="aspirin reduced pain",
                           answers=(ft.Answer("pain", 16),))
    feat = ft.featurize_qa(example, piece_vocab, max_seq_len=8)
    assert feat.target is None
    assert feat.context_range[1] - feat.context_range[0] == len(feat.offsets)


def test_featurize_qa_oversized_question(piece_vocab):
    example = ft.QaExample(uid="q", question="the " * 30, context="pain",
                           answers=(ft.Answer("pain", 0),))
    with pytest.raises(InputError, match="question alone"):
        ft.featurize_qa(example, piece_vocab, max_seq_len=16)


def test_featurize_qa_relocates_after_case_fold():
    lower = tk.Vocabulary.from_tokens(
        list(tk.SPECIAL_TOKENS) + ["asp", "##irin", "pain", "the"],
        lowercase=True)
    context = "The patient took Aspirin"
    example = ft.QaExample(uid="q", question="the", context=context,
                           answers=(ft.Answer("Aspirin", context.index("Aspirin")),))
    feat = ft.featurize_qa(example, lower, max_seq_len=32)
    assert feat.target is not None
    s, e = feat.target
    lo = feat.context_range[0]
    text = feat.norm_context[feat.offsets[s - lo][0]: feat.offsets[e - lo][1]]
    assert text == "aspirin"


def test_locate_picks_nearest_occurrence():
    assert ft._locate("abcabcabc", "abc", 0) == 0
    assert ft._locate("abcabcabc", "abc", 4) == 3
    assert ft._locate("abcabcabc", "abc", 5) == 6
    assert ft._locate("abcabcabc", "zzz", 0) is None


def test_best_span_hand_case():
    start = np.array([0.0, 5.0, 1.0, 3.0])
    end = np.array([0.0, 0.0, 4.0, 2.0])
    assert ft.best_span(start, end, lo=1, hi=4, max_pieces=2) == (1, 2)
    assert ft.best_span(start, end, lo=1, hi=4, max_pieces=1) == (1, 1)
    # lo excludes the would-be argmax start
    assert ft.best_span(start, end, lo=2, hi=4, max_pieces=4) == (2, 2)


def test_featurize_re(vocab, state):
    example = ft.ReExample(uid="r", text="aspirin reduced fever", relation="treats")
    feat = ft.featurize_re(example, vocab, {"none": 0, "treats": 1}, max_seq_len=32)
    assert feat.ids[0] == vocab.cls_id and feat.ids[-1] == vocab.sep_id
    assert feat.label == 1
    assert len(feat.ids) == 5


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kw", [
    {"lr": 0.0}, {"lr": -1e-5}, {"batch_size": 0}, {"epochs": 0},
    {"max_seq_len": 4}, {"llrd_decay": 0.0}, {"llrd_decay": 1.5},
    {"patience": 0}, {"max_answer_pieces": 0},
    {"adam_beta1": 1.0}, {"adam_beta2": 1.0}, {"adam_eps": 0.0}, {"weight_decay": -0.01},
    {"lr": float("nan")}, {"epochs": None},
])
def test_plan_rejects(kw):
    with pytest.raises(ConfigurationError):
        ft.FinetunePlan(**kw)


def test_plan_defaults():
    plan = ft.FinetunePlan()
    assert plan.lr == 3e-5
    assert plan.batch_size == 16
    assert plan.epochs == 10
    assert plan.max_answer_pieces == 30


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _runs(f1s):
    return tuple(ft.SeedRun(seed=i + 1, precision=f, recall=f, f1=f,
                            dev_f1=f, best_epoch=0)
                 for i, f in enumerate(f1s))


def test_make_report_mean_sd_delta():
    baseline = ft.make_report("ner", "base", _runs([0.8, 0.8]))
    report = ft.make_report("ner", "adapted", _runs([1.0, 2.0, 3.0, 4.0, 5.0]),
                            baseline=baseline)
    assert report.mean_f1 == 3.0
    assert report.sd_f1 == pytest.approx(1.5811388300841898)
    assert report.baseline_name == "base"
    assert report.delta_pct == pytest.approx((3.0 - 0.8) / 0.8 * 100)


def test_single_seed_sd_absent():
    report = ft.make_report("ner", "m", _runs([0.7]))
    assert report.sd_f1 is None
    assert "sd n/a" in ft.report_table(report)


def test_report_table_contents():
    baseline = ft.make_report("ner", "base", _runs([0.8, 0.8]))
    report = ft.make_report("ner", "adapted", _runs([0.9, 0.7]), baseline=baseline)
    table = ft.report_table(report)
    assert "seed" in table and "precision" in table
    assert "Δ%" in table and "base" in table
    assert "0.9000" in table


def test_report_dict_round_trip():
    baseline = ft.make_report("qa", "base", _runs([0.5, 0.6]))
    report = ft.make_report("qa", "m", _runs([0.7, 0.9]), baseline=baseline)
    back = ft.TaskReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert back == report
    solo = ft.make_report("qa", "m", _runs([0.7]))
    assert ft.TaskReport.from_dict(solo.to_dict()).sd_f1 is None


# ---------------------------------------------------------------------------
# training protocol
# ---------------------------------------------------------------------------


def test_finetune_rejects_mismatches(state, ner_dataset):
    with pytest.raises(ConfigurationError, match="seed list"):
        ft.finetune_task(state, ner_dataset, seeds=())
    big = ft.FinetunePlan(max_seq_len=64)
    with pytest.raises(ConfigurationError, match="exceeds model limit"):
        ft.finetune_task(state, ner_dataset, big, seeds=(1,))


def test_finetune_rejects_uncovered_labels(state):
    tr, dv, te = ft.split_dataset(drug_sentences(), seed=0)
    stray = ft.NerExample(uid="zz", tokens=("water",), tags=("B-GENE",))
    ds = ft.TaskDataset(task="ner", train=tr, dev=dv + (stray,), test=te)
    with pytest.raises(ConfigurationError, match="GENE"):
        ft.finetune_task(state, ds, ft.FinetunePlan(max_seq_len=32), seeds=(1,))


def test_continuation_tag_unseen_in_train_is_a_configuration_error(state):
    # the entity type is covered by train, its I- tag is not: the head has
    # no column for it
    train = tuple(ft.NerExample(uid=f"t{i}", tokens=("aspirin", "daily"),
                                tags=("B-Drug", "O")) for i in range(4))
    dev = (ft.NerExample(uid="d", tokens=("aspirin", "dose"), tags=("B-Drug", "I-Drug")),)
    ds = ft.TaskDataset(task="ner", train=train, dev=dev, test=train[:1])
    with pytest.raises(ConfigurationError, match="I-Drug"):
        ft.finetune_task(state, ds, ft.FinetunePlan(max_seq_len=32), seeds=(1,))


def test_negative_label_absent_from_train_still_trains(state):
    ds = re_dataset()
    positive = tuple(ex for ex in ds.train if ex.relation != "none")
    trimmed = ft.TaskDataset(task="re", train=positive, dev=ds.dev, test=ds.test,
                             negative_label="none")
    plan = ft.FinetunePlan(epochs=1, lr=5e-3, batch_size=8, max_seq_len=32)
    result = ft.finetune_task(state, trimmed, plan, seeds=(1,))
    # the head predicts the negative class too: one column per label
    assert result.states[0].params["heads.re.weight"].shape == (state.config.hidden_dim, 2)
    assert 0.0 <= result.report.mean_f1 <= 1.0


QUICK = dict(lr=5e-3, batch_size=8, max_seq_len=32)


def test_toy_finetuning_leaves_malloc_alone(monkeypatch, state, ner_dataset):
    # no op of a toy model reaches autodiff._SPLIT_MIN
    calls = record_mallopt(monkeypatch)
    ft.finetune_task(state, ner_dataset, ft.FinetunePlan(epochs=1, **QUICK), seeds=(1,))
    assert calls == [] and not ad._FREED_KEPT


def test_ner_learns_and_is_deterministic(state, ner_dataset):
    plan = ft.FinetunePlan(epochs=3, **QUICK)
    first = ft.finetune_task(state, ner_dataset, plan, seeds=(1, 2))
    again = ft.finetune_task(state, ner_dataset, plan, seeds=(1, 2))
    assert first.report == again.report
    assert first.report.runs[0].seed == 1
    assert first.report.mean_f1 >= 0.6
    # bit-identical parameters across reruns, seed-dependent across seeds
    p1 = first.states[0].params["heads.ner.weight"].data
    assert np.array_equal(p1, again.states[0].params["heads.ner.weight"].data)
    assert not np.array_equal(p1, first.states[1].params["heads.ner.weight"].data)
    # the shared initial state is never mutated
    assert "heads.ner.weight" not in state.params


def test_five_seed_report_shape(state, ner_dataset):
    plan = ft.FinetunePlan(epochs=1, **QUICK)
    result = ft.finetune_task(state, ner_dataset, plan)
    assert [r.seed for r in result.report.runs] == [1, 2, 3, 4, 5]
    assert result.report.sd_f1 is not None
    mean = sum(r.f1 for r in result.report.runs) / 5
    assert result.report.mean_f1 == pytest.approx(mean)


def test_qa_learns(state):
    plan = ft.FinetunePlan(epochs=2, **QUICK)
    result = ft.finetune_task(state, qa_dataset(), plan, seeds=(1,))
    assert result.report.mean_f1 >= 0.6
    assert result.report.task == "qa"


def test_re_learns(state):
    plan = ft.FinetunePlan(epochs=8, **QUICK)
    result = ft.finetune_task(state, re_dataset(), plan, seeds=(1,))
    assert result.report.mean_f1 >= 0.6
    assert result.report.task == "re"


def test_finetune_with_llrd_changes_result(state, ner_dataset):
    plan = ft.FinetunePlan(epochs=1, **QUICK)
    decayed = ft.FinetunePlan(epochs=1, llrd_decay=0.5, **QUICK)
    plain = ft.finetune_task(state, ner_dataset, plan, seeds=(1,))
    scaled = ft.finetune_task(state, ner_dataset, decayed, seeds=(1,))
    base = state.params["embeddings.token"].data
    a = plain.states[0].params["embeddings.token"].data
    b = scaled.states[0].params["embeddings.token"].data
    assert not np.array_equal(a, b)
    # embeddings run at lr * decay^n_layers = quarter speed, so they move less
    assert np.linalg.norm(b - base) < 0.5 * np.linalg.norm(a - base)


def test_per_seed_checkpoints(state, ner_dataset, tmp_path):
    plan = ft.FinetunePlan(epochs=1, **QUICK)
    result = ft.finetune_task(state, ner_dataset, plan, seeds=(1, 2),
                              checkpoint_dir=tmp_path)
    assert len(result.checkpoint_paths) == 2
    loaded = ckpt.load_checkpoint(result.checkpoint_paths[0])
    assert "heads.ner.weight" in loaded.params
    assert np.array_equal(loaded.params["heads.ner.weight"].data,
                          result.states[0].params["heads.ner.weight"].data)
    assert loaded.lineage == ()   # fresh state has no ancestry


def test_seeds_in_processes_give_the_bytes_of_seeds_in_turn(monkeypatch, state, ner_dataset,
                                                             tmp_path):
    plan = ft.FinetunePlan(epochs=2, **QUICK)
    results = {}
    for cpus in (1, 2):
        monkeypatch.setattr(ad, "_cpu_count", lambda cpus=cpus: cpus)
        results[cpus] = ft.finetune_task(state, ner_dataset, plan, seeds=(1, 2, 3),
                                         checkpoint_dir=tmp_path / f"cpus{cpus}")
    one, two = results[1], results[2]
    assert one.report == two.report
    for a, b in zip(one.states, two.states):
        assert_same_state(a, b)
    assert [os.path.basename(p) for p in one.checkpoint_paths] == [
        f"ner.seed{seed}.ckpt" for seed in (1, 2, 3)]
    for a, b in zip(one.checkpoint_paths, two.checkpoint_paths):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


def test_finetune_from_checkpoint_lineage(state, ner_dataset, tmp_path):
    parent_path = tmp_path / "parent.ckpt"
    parent_id = ckpt.save_checkpoint(parent_path, state)
    parent = ckpt.load_checkpoint(parent_path)
    plan = ft.FinetunePlan(epochs=1, **QUICK)
    result = ft.finetune_task(parent, ner_dataset, plan, seeds=(1, 2),
                              checkpoint_dir=tmp_path)
    for seed_state, path in zip(result.states, result.checkpoint_paths):
        child = ckpt.load_checkpoint(path)
        assert child.lineage == (parent_id,)
        assert not ckpt.verify_lineage(child, parent)
        assert_same_state(seed_state, child)
    assert_same_state(parent, ckpt.load_checkpoint(parent_path))


def test_previous_step_graph_is_freed_before_the_next_forward(monkeypatch, state,
                                                             ner_dataset):
    previous, full = [], ft._TaskRunner.loss

    def watched(runner, *args, **kwargs):
        assert all(ref() is None for ref in previous), "last step's graph is alive"
        loss = full(runner, *args, **kwargs)
        previous.append(weakref.ref(loss.data))   # a Tensor has no weakref slot
        return loss
    monkeypatch.setattr(ft._TaskRunner, "loss", watched)
    ft.finetune_task(state, ner_dataset, ft.FinetunePlan(epochs=2, **QUICK), seeds=(1,))
    assert len(previous) == 2 * math.ceil(len(ner_dataset.train) / QUICK["batch_size"])


def test_tasks_call_featurizers_and_heads_through_their_modules(monkeypatch, state,
                                                                ner_dataset):
    # perfbench's tracer patches these module globals; a task record that
    # bound the function objects at import time would bypass the patch
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted
    for module, name in ((ft, "featurize_ner"), (ft, "featurize_qa"), (ft, "featurize_re"),
                         (md, "ner_logits"), (md, "qa_logits"), (md, "re_logits")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    plan = ft.FinetunePlan(epochs=1, **QUICK)
    for dataset in (ner_dataset, qa_dataset(), re_dataset()):
        splits = (dataset.train, dataset.dev, dataset.test)
        expected = Counter({f"featurize_{dataset.task}": sum(map(len, splits)),
                            # one head call per train step and per evaluated batch
                            f"{dataset.task}_logits": sum(
                                math.ceil(len(split) / plan.batch_size) for split in splits)})
        calls.clear()
        ft.finetune_task(state, dataset, plan, seeds=(1,))
        assert calls == expected, dataset.task


def test_task_records_round_trip_files_and_drive_the_cli(monkeypatch, state, tmp_path):
    ner = tuple(ft.NerExample(ex.uid, ex.tokens, ex.tags,
                              *ft._ner_text_from_tokens(ex.tokens, ex.tags))
                for ex in drug_sentences(6))
    examples = {"ner": ner, "qa": qa_dataset().train, "re": re_dataset().train}
    assert set(ft.TASKS) == set(examples)
    for name, spec in ft.TASKS.items():
        path = tmp_path / f"{name}.{spec.suffix}"
        spec.save(examples[name], path)
        assert spec.load(path) == examples[name], name

    # the CLI knows exactly the tasks TASKS names
    ckpt.save_checkpoint(tmp_path / "base.ckpt", state)
    ft.save_ner(ner, tmp_path / "data.conll")

    def run(command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 0, **cfg}), encoding="utf-8")
        extra = ["--checkpoint", str(tmp_path / "base.ckpt")] if command == "finetune" else []
        return entrypoint([command, "--config", str(path), "--out",
                           str(tmp_path / f"out.{command}"), *extra])
    monkeypatch.setitem(ft.TASKS, "alias", ft.TASKS["ner"])
    monkeypatch.delitem(ft.TASKS, "ner")
    data = str(tmp_path / "data.conll")
    assert run("finetune", {"tasks": {"ner": {"data": data}}}) == 3
    assert run("realign", {"realign": {"task": "ner", "translator": "identity",
                                       "data": data}}) == 3
    assert run("realign", {"realign": {"task": "alias", "translator": "identity",
                                       "data": data}}) == 0
    assert ft.load_ner(tmp_path / "out.realign" / "alias.realigned.conll") == ner


def test_patience_stops_early(state):
    # scripted dev curve: rises once, then declines; patience 2 must stop
    # after two stale epochs and restore the epoch-1 snapshot
    class Scripted:
        task = "ner"
        head_width = 2

        def __init__(self, config, vocab):
            self.config, self.vocab = config, vocab
            self.features = {"train": [0, 1, 2, 3]}
            self.script = [0.5, 0.9, 0.8, 0.7, 0.6, 0.5]
            self.epochs_seen = 0

        def loss(self, params, rows, train=False, rng=None):
            return ad.sum_all(params["heads.ner.weight"])

        def evaluate(self, params, split):
            if split == "dev":
                f1 = self.script[self.epochs_seen]
                self.epochs_seen += 1
                return ft.PRF(f1, f1, f1)
            return ft.PRF(0.25, 0.25, 0.25)

    runner = Scripted(state.config, state.vocab)
    base = {"dummy.weight": Tensor(np.zeros(2), requires_grad=True)}
    plan = ft.FinetunePlan(lr=1e-3, batch_size=2, epochs=6, patience=2,
                           max_seq_len=32)
    run, _ = ft._finetune_one_seed(runner, base, plan, seed=1)
    assert runner.epochs_seen == 4       # epochs 0-3, then stop
    assert run.best_epoch == 1
    assert run.dev_f1 == 0.9
    assert run.f1 == 0.25                # test metrics from the restored best
