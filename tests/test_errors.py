"""The input readers: every loader of an outside file turns an unreadable or
non-UTF-8 file into InputError through the same three helpers."""

import sys

import pytest

from bertlab import cli
from bertlab import dataport as dp
from bertlab import finetune as ft
from bertlab import mlmeval as ev
from bertlab import pretrain as pt
from bertlab import tokenizer as tk
from bertlab.errors import InputError, ValidationError

LATIN1 = b"caf\xe9\n"   # "café" saved as Latin-1: not UTF-8
# json.loads raises a plain ValueError for an int longer than this many digits
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _valid_vocab(path):
    tk.save_vocab(tk.Vocabulary.from_tokens(list(tk.SPECIAL_TOKENS) + ["a"]), path)


def _valid_conll(path):
    path.write_text("a\tO\n", encoding="utf-8")


# each case: (files to write as valid first, file that gets the Latin-1 bytes, loader)
READERS = {
    "corpus": (None, "", pt.load_corpus),
    "metrics-log": (None, "", pt.MetricsLog),
    "load-metrics": (None, "", pt.load_metrics),
    "ner": (None, "", ft.load_ner),
    "ner-span-sidecar": (_valid_conll, ".spans", ft.load_ner),
    "qa": (None, "", ft.load_qa),
    "re": (None, "", ft.load_re),
    "masked-set": (None, "", ev.load_masked_set),
    "vocab": (None, "", tk.load_vocab),
    "vocab-meta-sidecar": (_valid_vocab, ".meta", tk.load_vocab),
    "dictionary": (None, "", dp.DictionaryTranslator.from_file),
    "run-config": (None, "", cli.load_run_config),
}


@pytest.mark.parametrize("case", sorted(READERS))
def test_latin1_input_is_input_error(tmp_path, case):
    prepare, suffix, load = READERS[case]
    path = tmp_path / "input"
    if prepare:
        prepare(path)
    (tmp_path / ("input" + suffix)).write_bytes(LATIN1)
    with pytest.raises(InputError, match="cannot read"):
        load(path)



@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit in this interpreter")
def test_overlong_number_is_a_parse_fault(tmp_path):
    path = tmp_path / "input"
    path.write_text('{"n": %s}\n' % ("1" * (DIGIT_LIMIT + 1)), encoding="utf-8")
    with pytest.raises(InputError, match="not valid JSON"):
        cli.load_run_config(path)
    with pytest.raises(ValidationError, match="line 1: invalid JSON"):
        ev.load_masked_set(path)
