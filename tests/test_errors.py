"""The input readers and the artifact writer: every loader of an outside file
turns an unreadable or non-UTF-8 file into InputError through the same three
helpers, and every artifact is written to a temp file renamed into place."""

import ast
import dataclasses
import pathlib
import pickle
import sys

import pytest

from bertlab import cli
from bertlab import dataport as dp
from bertlab import errors
from bertlab import finetune as ft
from bertlab import mitigation as mit
from bertlab import mlmeval as ev
from bertlab import model as md
from bertlab import pretrain as pt
from bertlab import tokenizer as tk
from bertlab.errors import (FIELD_TYPES, ConfigurationError, InputError, Record,
                            ValidationError, read_json, read_json_lines, write_atomic)

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


# a JSON escape of a lone surrogate parses to a str that UTF-8 cannot encode
SURROGATE_LINES = ['{"id": "what \\ud800"}\n', '{"\\udfff": 1}\n',
                   '{"a": ["ok", {"b": "x\\udc00y"}]}\n']
# the READERS that parse JSON, and the error each gives
JSON_READERS = {"run-config": InputError, "vocab-meta-sidecar": InputError,
                "metrics-log": ValidationError, "load-metrics": ValidationError,
                "ner-span-sidecar": ValidationError, "qa": ValidationError,
                "re": ValidationError, "masked-set": ValidationError}


@pytest.mark.parametrize("line", SURROGATE_LINES)
@pytest.mark.parametrize("case", sorted(JSON_READERS))
def test_lone_surrogate_escape_is_rejected(tmp_path, case, line):
    prepare, suffix, load = READERS[case]
    path = tmp_path / "input"
    if prepare:
        prepare(path)
    (tmp_path / ("input" + suffix)).write_text(line, encoding="utf-8")
    error = JSON_READERS[case]
    match = "unpaired surrogate" if error is InputError else "line 1: .*unpaired surrogate"
    with pytest.raises(error, match=match):
        load(path)


def test_escaped_surrogate_pair_is_text(tmp_path):
    path = tmp_path / "input"
    path.write_text('{"a": "\\ud83d\\ude00 \\u00e9"}\n', encoding="utf-8")
    assert read_json(path, "input") == {"a": "\U0001f600 \u00e9"}
    problems = []
    assert read_json_lines(path, "input", problems) == [(1, {"a": "\U0001f600 \u00e9"})]
    assert problems == []


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int digit limit in this interpreter")
def test_overlong_number_is_a_parse_fault(tmp_path):
    path = tmp_path / "input"
    path.write_text('{"n": %s}\n' % ("1" * (DIGIT_LIMIT + 1)), encoding="utf-8")
    with pytest.raises(InputError, match="not valid JSON"):
        cli.load_run_config(path)
    with pytest.raises(ValidationError, match="line 1: invalid JSON"):
        ev.load_masked_set(path)


# the only functions under src/bertlab/ that may open a file: the two
# helpers every read and write goes through, the checkpoint reader, and the
# two append-only logs
OPEN_ALLOWED = {("errors", "read_text"), ("errors", "write_atomic"),
                ("checkpoint", "load_checkpoint"),
                ("cli", "RunLog.__init__"), ("pretrain", "MetricsLog.__init__")}
FILE_CALLS = ("open", "io.open", "os.open", "os.replace", "os.rename", "shutil.move")


class _Calls(ast.NodeVisitor):
    """(enclosing function's dotted name, called name) for every call."""

    def __init__(self):
        self.scope, self.calls = [], []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_Call(self, node):
        self.calls.append((".".join(self.scope), ast.unparse(node.func)))
        self.generic_visit(node)


def test_files_are_opened_and_renamed_only_by_the_allowed_functions():
    package = pathlib.Path(cli.__file__).parent
    found, wrong = set(), []
    for source in sorted(package.glob("*.py")):
        visitor = _Calls()
        visitor.visit(ast.parse(source.read_text(encoding="utf-8")))
        for scope, name in visitor.calls:
            site = (source.stem, scope)
            if name == "open" and site in OPEN_ALLOWED:
                found.add(site)
            elif name == "os.replace" and site == ("errors", "write_atomic"):
                continue
            elif name in FILE_CALLS or name.endswith((".open", ".write_text", ".write_bytes")):
                wrong.append(f"{source.name}: {scope or '<module>'} calls {name}")
    assert wrong == []
    assert found == OPEN_ALLOWED


def _save_re_with_lone_surrogate(path):
    records = [ft.ReExample(uid=f"r{i}", text=f"new {i}", relation="a") for i in range(3)]
    ft.save_re(records + [ft.ReExample(uid="bad", text="\ud800", relation="a")], path)


def _write_chunks_then_fail(path):
    def chunks():
        yield b'{"id": "partial", "text": "new", "relation": "a"}\n'
        raise OSError("device full")
    write_atomic(path, chunks())


@pytest.mark.parametrize("failing_save", [_save_re_with_lone_surrogate, _write_chunks_then_fail],
                         ids=["unencodable-record", "fault-mid-stream"])
def test_failed_save_leaves_previous_file_intact(tmp_path, failing_save):
    path = tmp_path / "re.jsonl"
    ft.save_re([ft.ReExample(uid="old", text="kept", relation="a")], path)
    before = path.read_bytes()
    with pytest.raises((UnicodeEncodeError, OSError)):
        failing_save(path)
    assert path.read_bytes() == before
    assert [ex.uid for ex in ft.load_re(path)] == ["old"]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_field_has_a_type_from_dict_checks():
    records = set(_subclasses(Record))
    assert {md.ModelConfig, mit.CFConfig, pt.TrainPlan, ft.FinetunePlan} <= records
    for record in records:
        for f in dataclasses.fields(record):
            assert f.type in FIELD_TYPES or (isinstance(f.type, type)
                                             and issubclass(f.type, Record)), \
                f"{record.__name__}.{f.name}: {f.type!r}"
            # every number but a seed declares the range Record checks
            if f.type in (int, float) and f.name != "seed":
                interval = f.metadata.get("within")
                assert interval and interval[0] in "[(" and interval[-1] in ")]", \
                    f"{record.__name__}.{f.name}: {interval!r}"
                lo, hi = map(float, interval[1:-1].split(","))
                assert lo <= hi, f"{record.__name__}.{f.name}: {interval}"


PLAN = {"peak_lr": 1e-3, "total_steps": 4, "batch_size": 2}


@pytest.mark.parametrize("raw, message", [
    ([PLAN], "plan must be an object"),
    ({"peak_lr": 1e-3, "total_steps": 4}, "plan is missing 'batch_size'"),
    ({**PLAN, "total_steps": "4"}, "plan.total_steps must be int, got '4'"),
    ({**PLAN, "total_steps": 4.0}, "plan.total_steps must be int, got 4.0"),
    ({**PLAN, "batch_size": True}, "plan.batch_size must be int, got True"),
    ({**PLAN, "peak_lr": False}, "plan.peak_lr must be float, got False"),
    ({**PLAN, "mask_only": 1}, "plan.mask_only must be bool, got 1"),
    ({**PLAN, "warmup_fraction": None}, "plan.warmup_fraction must be float, got None"),
    ({**PLAN, "cf": ["x"]}, r"plan.cf must be an object, got \['x'\]"),
    ({**PLAN, "cf": {"mixout_p": "0.9"}}, "plan.cf.mixout_p must be float, got '0.9'"),
    ({**PLAN, "cf": {"llrd": 0.9}}, r"unknown plan.cf keys: \['llrd'\]"),
], ids=["not-object", "missing", "int-as-string", "int-as-float", "int-as-bool",
        "float-as-bool", "bool-as-int", "none-without-none-default", "nested-not-object",
        "nested-mistyped", "nested-unknown"])
def test_record_from_dict_rejects_with_section_and_key(raw, message):
    with pytest.raises(ConfigurationError, match=message):
        pt.TrainPlan.from_dict(raw, "plan")


def test_range_error_names_the_section_it_was_read_from():
    with pytest.raises(ConfigurationError, match=r"^adapt\.adam_beta2 1\.0 outside \[0, 1\)$"):
        pt.TrainPlan.from_dict({**PLAN, "adam_beta2": 1.0}, "adapt")
    with pytest.raises(ConfigurationError, match=r"^plan\.cf\.mixout_p 1\.5 outside"):
        pt.TrainPlan.from_dict({**PLAN, "cf": {"mixout_p": 1.5}}, "plan")
    with pytest.raises(ConfigurationError, match=r"^adam_beta2 1\.0 outside"):
        pt.TrainPlan(**{**PLAN, "adam_beta2": 1.0})


def test_record_values_pass_unconverted():
    plan = pt.TrainPlan.from_dict({**PLAN, "peak_lr": 1, "cf": {"mixout_p": 0}}, "plan")
    assert type(plan.peak_lr) is int and type(plan.cf.mixout_p) is int
    assert plan.cf.llrd_decay is None
    assert plan.to_dict()["cf"]["mixout_p"] == 0


# one instance of every error class, as a fine-tuning seed in a worker
# process might raise it, and the fields its class adds
ERRORS = {
    "BertlabError": (errors.BertlabError("plain"), ()),
    "InputError": (errors.InputError("cannot read corpus"), ()),
    "ConfigurationError": (errors.ConfigurationError("seed list is empty"), ()),
    "NumericFault": (errors.NumericFault("non-finite loss"), ()),
    "DimensionError": (errors.DimensionError("matmul", (2, 3), (4, 5)), ("op", "shapes")),
    "IntegrityError": (errors.IntegrityError("truncated checkpoint"), ()),
    "ValidationError": (errors.ValidationError("bad records", ["line 2", "line 5"]), ("items",)),
}


def _error_classes(cls=errors.BertlabError):
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


def test_every_error_survives_pickling():
    assert sorted(ERRORS) == sorted(c.__name__ for c in _error_classes())
    for name, (exc, fields) in ERRORS.items():
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc), name
        assert str(back) == str(exc), name
        assert back.exit_code == exc.exit_code, name
        for field in fields:
            assert getattr(back, field) == getattr(exc, field), (name, field)
