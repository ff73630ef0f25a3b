"""Translation realignment: location policy chain, drop accounting, and the
stub translators."""

import random

import pytest

from bertlab import dataport as dp
from bertlab import finetune as ft
from bertlab.errors import ConfigurationError, InputError, ValidationError


# ---------------------------------------------------------------------------
# folding and stubs
# ---------------------------------------------------------------------------


def test_accent_fold():
    assert dp.accent_fold("perché") == "perche"
    assert dp.accent_fold("Müller-Straße") == "Muller-Straße"   # ß is not a mark
    assert dp.accent_fold("naïve café") == "naive cafe"
    assert dp.accent_fold("plain") == "plain"


def test_accent_fold_preserves_length():
    for text in ("perché", "àèìòù", "ação", "ABCdef", "ß"):
        assert len(dp.accent_fold(text)) == len(text)


def test_stub_registry():
    stubs = dp.stub_translators()
    assert set(stubs) == {"identity", "uppercase", "accent_fold",
                          "word_shuffle_outside_spans", "dictionary"}
    for name in ("identity", "uppercase", "accent_fold",
                 "word_shuffle_outside_spans"):
        translator = dp.make_translator(name)
        assert translator.name == name


def test_identity_and_uppercase_stubs():
    assert dp.IdentityTranslator().translate("abc") == "abc"
    assert dp.UppercaseTranslator().translate("abc é") == "ABC É"
    assert dp.AccentFoldTranslator().translate("perché") == "perche"


def test_make_translator_unknown():
    with pytest.raises(ConfigurationError, match="identity"):
        dp.make_translator("google_nmt")
    with pytest.raises(ConfigurationError, match="bad options"):
        dp.make_translator("identity", beam_width=5)
    with pytest.raises(ConfigurationError, match="bad options"):
        dp.make_translator("dictionary", mapping="data/lexicon.json")


def test_dictionary_longest_match_first():
    d = dp.DictionaryTranslator({"cancer": "cancro",
                                 "lung cancer": "cancro ai polmoni"})
    assert d.translate("lung cancer and cancer") == "cancro ai polmoni and cancro"
    assert d.translate("untouched words") == "untouched words"
    assert dp.DictionaryTranslator({}).translate("x") == "x"


def test_dictionary_from_file(tmp_path):
    path = tmp_path / "phrases.tsv"
    path.write_text("cancer\tcancro\nthe\til\n", encoding="utf-8")
    d = dp.DictionaryTranslator.from_file(path)
    assert d.translate("the cancer") == "il cancro"
    bad = tmp_path / "bad.tsv"
    bad.write_text("onlyonecolumn\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 1"):
        dp.DictionaryTranslator.from_file(bad)
    dupes = tmp_path / "dupes.tsv"
    dupes.write_text("a\tx\na\ty\n", encoding="utf-8")
    with pytest.raises(InputError, match="duplicate"):
        dp.DictionaryTranslator.from_file(dupes)
    with pytest.raises(InputError):
        dp.DictionaryTranslator.from_file(tmp_path / "missing.tsv")


def test_dictionary_path_takes_no_other_option(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("cancer\tcancro\n", encoding="utf-8")
    assert dp.make_translator("dictionary", path=path).translate("cancer") == "cancro"
    with pytest.raises(ConfigurationError, match="path excludes bogus, mapping"):
        dp.make_translator("dictionary", path=path, mapping={"x": "y"}, bogus=1)


def test_word_shuffle_deterministic_and_protective():
    ws = dp.WordShuffleTranslator(protected=("lung cancer",))
    text = "a study of lung cancer in mice and men"
    out = ws.translate(text)
    assert out == ws.translate(text)
    assert "lung cancer" in out
    assert sorted(out.split()) == sorted(text.split())
    # protected phrase keeps its unit position among the rebuilt slots
    assert out.split().index("lung") == 3
    # an unprotected shuffle of the same text moves words
    assert dp.WordShuffleTranslator().translate(text) != text


@pytest.mark.parametrize("options, why", [
    ({"protected": "lung cancer"}, "protected must be a list of strings"),
    ({"protected": ["lung cancer", 1]}, "protected must be a list of strings"),
    ({"protected": {"lung cancer"}}, "protected must be a list of strings"),
    ({"seed": "x"}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"seed": 1.0}, "seed must be an integer"),
], ids=["string", "non-string", "set", "string-seed", "bool-seed", "float-seed"])
def test_word_shuffle_rejects_bad_options(options, why):
    with pytest.raises(ConfigurationError, match=why):
        dp.WordShuffleTranslator(**options)
    with pytest.raises(ConfigurationError, match=why):
        dp.make_translator("word_shuffle_outside_spans", **options)
    assert dp.make_translator("word_shuffle_outside_spans", protected=["lung cancer"],
                              seed=2).protected == ("lung cancer",)


def test_word_shuffle_varies_with_text_and_seed():
    a = dp.WordShuffleTranslator().translate("one two three four five six")
    b = dp.WordShuffleTranslator().translate("one two three four five seven")
    assert a.split()[:5] != b.split()[:5] or a != b
    c = dp.WordShuffleTranslator(seed=9).translate("one two three four five six")
    assert sorted(c.split()) == sorted(a.split())


# ---------------------------------------------------------------------------
# location policy
# ---------------------------------------------------------------------------


def test_locate_exact_tier():
    got = dp.locate_mention("the braf gene", "braf", 4, 13)
    assert got == (4, 8, "exact")


def test_locate_case_insensitive_tier():
    got = dp.locate_mention("THE BRAF GENE", "braf", 4, 13)
    assert got == (4, 8, "case_insensitive")
    # brute-force oracle: the slice really is the uppercased mention
    assert "THE BRAF GENE"[got[0]: got[1]] == "BRAF"


def test_locate_accent_folded_tier():
    got = dp.locate_mention("il perché conta", "perche", 3, 15)
    assert got == (3, 9, "accent_folded")


def test_locate_prefers_exact_over_nearer_case_match():
    # "braf" exact at 9; "BRAF" at 0 would be nearer the source position
    context = "BRAF and braf"
    got = dp.locate_mention(context, "braf", 0, 13)
    assert got == (9, 13, "exact")


def test_locate_nearest_relative_position():
    context = "x gene y gene"
    # source mention sat near the end of its sentence
    got = dp.locate_mention(context, "gene", 9, 13)
    assert got[0] == 9
    got = dp.locate_mention(context, "gene", 0, 13)
    assert got[0] == 2


def test_locate_tie_is_ambiguous():
    with pytest.raises(dp.AmbiguousMatch):
        dp.locate_mention("a.a", "a", 1, 3)


def test_locate_missing_and_empty():
    assert dp.locate_mention("abc", "zzz", 0, 3) is None
    assert dp.locate_mention("abc", "", 0, 3) is None


# ---------------------------------------------------------------------------
# per-example realignment
# ---------------------------------------------------------------------------


class Deleter:
    name = "deleter"

    def __init__(self, phrase):
        self.phrase = phrase

    def translate(self, text):
        return " ".join(text.replace(self.phrase, " ").split())


class Blanker:
    name = "blanker"

    def translate(self, text):
        return ""


class Exploder:
    name = "exploder"

    def translate(self, text):
        raise RuntimeError("translation service unavailable")


NER_EXAMPLE = ft.NerExample(
    uid="a", tokens=("the", "braf", "gene"), tags=("O", "B-GENE", "O"),
    text="the braf gene", spans=(ft.Span(4, 8, "GENE"),))


def test_realign_ner_identity_is_same_object():
    assert dp.realign_example(NER_EXAMPLE, dp.IdentityTranslator()) is NER_EXAMPLE


def test_realign_ner_uppercase():
    out = dp.realign_example(NER_EXAMPLE, dp.UppercaseTranslator())
    assert out.text == "THE BRAF GENE"
    assert out.spans == (ft.Span(4, 8, "GENE"),)
    assert out.text[4:8] == "BRAF"
    assert out.tokens == ("THE", "BRAF", "GENE")
    assert out.tags == ("O", "B-GENE", "O")


def test_realign_ner_case_insensitive_tier_used():
    # context uppercased, mention left alone: only tier two can find it
    class ContextShouter:
        name = "shouter"

        def translate(self, text):
            return text.upper() if " " in text else text

    from collections import Counter
    stats = Counter()
    out = dp.realign_example(NER_EXAMPLE, ContextShouter(), stats)
    assert out.spans == (ft.Span(4, 8, "GENE"),)
    assert stats["case_insensitive"] == 1


def test_realign_ner_moved_indices():
    d = dp.DictionaryTranslator({"the": "quel famoso"})
    out = dp.realign_example(NER_EXAMPLE, d)
    assert out.text == "quel famoso braf gene"
    assert out.spans == (ft.Span(12, 16, "GENE"),)
    assert out.tags == ("O", "O", "B-GENE", "O")


def test_realign_ner_without_text_uses_token_join():
    bare = ft.NerExample(uid="b", tokens=("braf", "rocks"), tags=("B-GENE", "O"))
    assert dp.realign_example(bare, dp.IdentityTranslator()) is bare
    out = dp.realign_example(bare, dp.UppercaseTranslator())
    assert out.text == "BRAF ROCKS"
    assert out.spans == (ft.Span(0, 4, "GENE"),)


def test_text_less_ner_example_keeps_its_entities_through_a_saved_file(tmp_path):
    bare = ft.NerExample(uid="a", tokens=("aspirin", "helps"), tags=("B-Drug", "O"))
    assert bare.text == "aspirin helps" and bare.spans == (ft.Span(0, 7, "Drug"),)
    ft.save_ner((bare,), tmp_path / "bare.conll")
    back, = ft.load_ner(tmp_path / "bare.conll")
    assert back == bare
    assert dp.realign_example(back, dp.UppercaseTranslator()).tags == ("B-Drug", "O")
    with pytest.raises(ValidationError, match="spans without the text"):
        ft.NerExample(uid="b", tokens=("x",), tags=("B-Drug",),
                      spans=(ft.Span(0, 1, "Drug"),))


def test_realign_ner_deleted_mention_drops():
    out = dp.realign_example(NER_EXAMPLE, Deleter("braf"))
    assert isinstance(out, dp.Dropped)
    assert out.reason == "mention_not_found"
    assert out.uid == "a"


def test_realign_ner_empty_translation_drops():
    out = dp.realign_example(NER_EXAMPLE, Blanker())
    assert isinstance(out, dp.Dropped)
    assert out.reason == "empty_translation"


def test_realign_ner_ambiguous_tie_drops():
    class Tie:
        name = "tie"

        def translate(self, text):
            return "a.a" if text == "zaz" else text

    example = ft.NerExample(uid="t", tokens=("zaz",), tags=("B-X",),
                            text="zaz", spans=(ft.Span(1, 2, "X"),))
    out = dp.realign_example(example, Tie())
    assert isinstance(out, dp.Dropped)
    assert out.reason == "ambiguous_after_policy"


def test_realign_multiword_mention_survives_protected_shuffle():
    example = ft.NerExample(
        uid="m", tokens=("study", "of", "lung", "cancer", "here"),
        tags=("O", "O", "B-DIS", "I-DIS", "O"),
        text="study of lung cancer here",
        spans=(ft.Span(9, 20, "DIS"),))
    ws = dp.WordShuffleTranslator(protected=("lung cancer",))
    out = dp.realign_example(example, ws)
    assert not isinstance(out, dp.Dropped)
    assert out.text[out.spans[0].start: out.spans[0].end] == "lung cancer"
    start = out.tags.index("B-DIS")
    assert out.tags[start + 1] == "I-DIS"


def test_translator_failure_propagates():
    with pytest.raises(RuntimeError, match="unavailable"):
        dp.realign_example(NER_EXAMPLE, Exploder())


def test_translator_type_check():
    class Wrong:
        name = "wrong"

        def translate(self, text):
            return 42

    with pytest.raises(TypeError, match="returned int"):
        dp.realign_example(NER_EXAMPLE, Wrong())


QA_EXAMPLE = ft.QaExample(
    uid="q", question="which gene", context="the braf gene matters",
    answers=(ft.Answer("braf", 4),))


def test_realign_qa_identity_and_move():
    assert dp.realign_example(QA_EXAMPLE, dp.IdentityTranslator()) is QA_EXAMPLE
    d = dp.DictionaryTranslator({"the": "il famoso", "matters": "conta"})
    out = dp.realign_example(QA_EXAMPLE, d)
    assert out.context == "il famoso braf gene conta"
    assert out.answers == (ft.Answer("braf", 10),)
    assert out.context[10:14] == "braf"


def test_realign_qa_answer_text_follows_context_case():
    out = dp.realign_example(QA_EXAMPLE, dp.UppercaseTranslator())
    # stored answer text must match the translated context slice exactly
    assert out.answers[0].text == "BRAF"
    assert out.context[out.answers[0].answer_start:][:4] == "BRAF"


def test_realign_qa_any_lost_answer_drops_example():
    two = ft.QaExample(uid="q2", question="which", context="braf and kras gene",
                       answers=(ft.Answer("braf", 0), ft.Answer("kras", 9)))
    out = dp.realign_example(two, Deleter("kras"))
    assert isinstance(out, dp.Dropped)
    assert out.reason == "mention_not_found"


def test_realign_qa_empty_question_drops():
    class QuestionEater:
        name = "qe"

        def translate(self, text):
            return "" if text == "which gene" else text

    out = dp.realign_example(QA_EXAMPLE, QuestionEater())
    assert isinstance(out, dp.Dropped)
    assert out.reason == "empty_translation"


RE_EXAMPLE = ft.ReExample(
    uid="r", text="<e1>aspirin</e1> treats <e2>fever</e2>", relation="treats")


def test_realign_re_identity_and_markers():
    assert dp.realign_example(RE_EXAMPLE, dp.IdentityTranslator()) is RE_EXAMPLE
    out = dp.realign_example(RE_EXAMPLE, dp.UppercaseTranslator())
    assert out.text == "<e1>ASPIRIN</e1> TREATS <e2>FEVER</e2>"
    assert out.relation == "treats"


def test_realign_re_moved_markers():
    d = dp.DictionaryTranslator({"treats": "cura bene"})
    out = dp.realign_example(RE_EXAMPLE, d)
    assert out.text == "<e1>aspirin</e1> cura bene <e2>fever</e2>"


def test_realign_re_lost_marker_drops():
    out = dp.realign_example(RE_EXAMPLE, Deleter("fever"))
    assert isinstance(out, dp.Dropped)
    assert out.reason == "mention_not_found"


def test_realign_re_without_markers_translates_whole_text():
    plain = ft.ReExample(uid="p", text="no markers here", relation="none")
    assert dp.realign_example(plain, dp.IdentityTranslator()) is plain
    out = dp.realign_example(plain, dp.UppercaseTranslator())
    assert out.text == "NO MARKERS HERE"


def test_dropped_reason_vocabulary():
    with pytest.raises(ValidationError):
        dp.Dropped(uid="x", reason="bored")


# ---------------------------------------------------------------------------
# dataset-level accounting
# ---------------------------------------------------------------------------


def ner_fixture(n=20, multiword=()):
    examples = []
    for i in range(n):
        drug = f"drug{i:02d}"
        if i in multiword:
            drug = f"drug{i:02d} extra"
        text = f"patient took {drug} today"
        tokens = tuple(text.split())
        tags = ["O", "O"] + ["B-DRUG"] + ["I-DRUG"] * (len(tokens) - 4) + ["O"]
        start = text.index(drug)
        examples.append(ft.NerExample(
            uid=f"n{i}", tokens=tokens, tags=tuple(tags), text=text,
            spans=(ft.Span(start, start + len(drug), "DRUG"),)))
    return examples


def test_realign_examples_five_percent_drop():
    examples = ner_fixture(20)
    kept, report = dp.realign_examples(examples, Deleter("drug07"))
    assert report.total == 20
    assert report.kept == 19
    assert report.dropped["mention_not_found"] == 1
    assert report.drop_rate == pytest.approx(5.0)
    assert len(kept) == 19
    assert [e.uid for e in kept] == [f"n{i}" for i in range(20) if i != 7]
    assert len(report.problems) == 1
    assert "n7" in report.problems[0]


def test_realign_examples_identity_zero_drop():
    examples = ner_fixture(12)
    kept, report = dp.realign_examples(examples, dp.IdentityTranslator())
    assert kept == tuple(examples)
    assert report.drop_rate == 0.0
    assert report.kept == report.total == 12
    assert report.annotations == 12
    assert report.located_by["exact"] == 12


def test_report_balances_or_raises():
    with pytest.raises(ValidationError, match="balance"):
        dp.RealignmentReport(total=5, kept=3, dropped={"mention_not_found": 1},
                             located_by={}, annotations=0)
    report = dp.RealignmentReport(total=5, kept=3,
                                  dropped={"mention_not_found": 2},
                                  located_by={}, annotations=9)
    assert report.dropped["ambiguous_after_policy"] == 0
    assert report.dropped_total == 2
    assert report.drop_rate == pytest.approx(40.0)
    d = report.to_dict()
    assert d["drop_rate"] == pytest.approx(40.0)
    assert set(d["dropped"]) == set(dp.DROP_REASONS)


def test_realign_dataset_per_split_reports():
    examples = ner_fixture(20)
    tr, dv, te = examples[:16], examples[16:18], examples[18:]
    ds = ft.TaskDataset(task="ner", train=tr, dev=dv, test=te)
    out, reports = dp.realign_dataset(ds, dp.UppercaseTranslator())
    assert set(reports) == {"train", "dev", "test"}
    assert all(r.drop_rate == 0.0 for r in reports.values())
    assert reports["train"].total == 16
    assert out.task == "ner"
    assert [e.uid for e in out.train] == [e.uid for e in tr]
    assert out.train[0].text.isupper()
    table = dp.summary_table(reports)
    assert "train" in table and "drop%" in table and "overall" in table


def test_realign_dataset_emptied_split_raises():
    examples = ner_fixture(6)
    ds = ft.TaskDataset(task="ner", train=examples[:4], dev=examples[4:5],
                        test=examples[5:])
    eater = Deleter("drug04")   # the only dev example
    with pytest.raises(InputError, match="dev"):
        dp.realign_dataset(ds, eater)


def test_qa_drops_exceed_ner_under_shuffle():
    # same contexts; NER marks one word, QA wants a three-word answer
    rnd = random.Random(5)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    ner, qa = [], []
    for i in range(30):
        base = rnd.sample(words, 6)
        drug = f"drug{i % 7}"
        tokens = base[:3] + [drug] + base[3:]
        text = " ".join(tokens)
        tags = ("O",) * 3 + ("B-DRUG",) + ("O",) * 3
        start = text.index(drug)
        ner.append(ft.NerExample(uid=f"n{i}", tokens=tuple(tokens), tags=tags,
                                 text=text,
                                 spans=(ft.Span(start, start + len(drug), "DRUG"),)))
        answer = " ".join(tokens[2:5])
        qa.append(ft.QaExample(uid=f"q{i}", question="which", context=text,
                               answers=(ft.Answer(answer, text.index(answer)),)))
    shuffler = dp.WordShuffleTranslator()
    _, ner_report = dp.realign_examples(ner, shuffler)
    _, qa_report = dp.realign_examples(qa, shuffler)
    assert qa_report.drop_rate > ner_report.drop_rate
    assert ner_report.drop_rate < 20.0
    assert qa_report.drop_rate > 50.0
    # single words always survive a reordering
    assert ner_report.dropped["mention_not_found"] == 0


# ---------------------------------------------------------------------------
# realignment edge cases: tags regenerated over the translated words
# ---------------------------------------------------------------------------


def two_entity_example():
    return ft.NerExample(uid="e", tokens=("ab", "bc"), tags=("B-X", "B-Y"),
                         text="ab bc", spans=(ft.Span(0, 2, "X"), ft.Span(3, 5, "Y")))


def test_realign_ner_two_spans_in_one_word_drop():
    example = ft.NerExample(uid="w", tokens=("aa", "bb"), tags=("B-X", "B-Y"),
                            text="aa bb", spans=(ft.Span(0, 2, "X"), ft.Span(3, 5, "Y")))
    out = dp.realign_example(example, dp.DictionaryTranslator({"aa bb": "aabb"}))
    assert out == dp.Dropped("w", "ambiguous_after_policy", "located spans split a word")


def test_realign_ner_span_over_no_word_drops():
    # a non-blank mention always lands on a word; a str subclass whose strip()
    # lies is read as the exact str it holds, so a blank one is caught as blank
    class Spacer(str):
        def strip(self, chars=None):
            return "space"

    class SecondMentionToSpace:
        name = "second_mention_to_space"

        def translate(self, text):
            return Spacer(" ") if text == "bc" else text

    out = dp.realign_example(two_entity_example(), SecondMentionToSpace())
    assert out == dp.Dropped("e", "mention_not_found", "mention 'bc' translated to nothing")


def test_realign_ner_overlapping_located_spans_drop():
    out = dp.realign_example(two_entity_example(), dp.DictionaryTranslator({"ab bc": "abc"}))
    assert out == dp.Dropped("e", "ambiguous_after_policy", "located spans overlap")


def test_realign_ner_partial_word_span_tags_whole_words():
    example = ft.NerExample(
        uid="p", tokens=("big", "lung", "cancer", "here"), tags=("O", "B-DIS", "I-DIS", "O"),
        text="big lung cancer here", spans=(ft.Span(4, 15, "DIS"),))
    d = dp.DictionaryTranslator({"big lung": "biglung", "cancer here": "cancerhere"})
    out = dp.realign_example(example, d)
    assert out.text == "biglung cancerhere"
    assert out.spans == (ft.Span(3, 14, "DIS"),)
    assert out.tokens == ("biglung", "cancerhere")
    assert out.tags == ("B-DIS", "I-DIS")


def test_realign_re_empty_marker_drops_in_marker_order():
    from collections import Counter
    example = ft.ReExample(uid="m", text="<e2>fever</e2> and <e1></e1> here",
                           relation="treats")
    stats = Counter()
    out = dp.realign_example(example, dp.IdentityTranslator(), stats)
    assert out == dp.Dropped("m", "mention_not_found", "empty <e1> marker")
    assert stats == Counter(annotations=2, exact=1)
    # the empty marker first: counted, then dropped before anything is located
    first = ft.ReExample(uid="f", text="<e1> </e1> and <e2>fever</e2>", relation="x")
    stats = Counter()
    out = dp.realign_example(first, dp.IdentityTranslator(), stats)
    assert out == dp.Dropped("f", "mention_not_found", "empty <e1> marker")
    assert stats == Counter(annotations=1)


def test_realign_re_overlapping_markers_drop():
    example = ft.ReExample(uid="o", text="<e1>ab</e1> <e2>bc</e2>", relation="x")
    out = dp.realign_example(example, dp.DictionaryTranslator({"ab bc": "abc"}))
    assert out == dp.Dropped("o", "ambiguous_after_policy", "located markers overlap")
