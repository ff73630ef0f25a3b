"""End-to-end checks for the command line: every command against a small
pipeline (vocabulary -> pretrain -> adapt -> eval -> finetune -> realign),
exit codes per fault class, and bit-identical re-runs."""

import hashlib
import json
import os
import resource
import subprocess
import sys

import pytest

import bertlab.checkpoint as ckpt
import bertlab.finetune as ft
import bertlab.pretrain as pt
import bertlab.tokenizer as tk
from bertlab.cli import entrypoint

WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta")


def write_corpus(path, n_docs=12):
    docs = []
    for d in range(n_docs):
        doc = []
        for s in range(3):
            picks = [WORDS[(d * 7 + s * 3 + i) % len(WORDS)] for i in range(6)]
            doc.append(" ".join(picks))
        docs.append("\n".join(doc))
    path.write_text("\n\n".join(docs) + "\n", encoding="utf-8")
    return str(path)


def write_ner(path, n=20):
    lines = []
    for i in range(n):
        toks = [WORDS[i % 3], "delta", WORDS[4 + i % 2], "eta"]
        tags = ["O", "B-X", "O", "O"]
        lines.extend(f"{t}\t{g}" for t, g in zip(toks, tags))
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return str(path)


def write_re(path, n=12):
    rows = [{"id": f"r{i}", "text": f"{WORDS[i % 4]} delta",
             "relation": ("treats", "none")[i % 2]} for i in range(n)]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return str(path)


def write_masked_set(path):
    rows = [
        {"id": "m1", "text": "alpha delta epsilon",
         "maskings": [{"start": 6, "end": 11, "answer": "delta"}],
         "subdomain": "toy"},
        {"id": "m2", "text": "beta eta gamma",
         "maskings": [{"start": 5, "end": 8, "answer": "eta"}],
         "subdomain": "toy"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                    encoding="utf-8")
    return str(path)


def run_config(base, corpus):
    return {
        "seed": 3,
        "tokenizer": {"corpus": corpus, "vocab_size": 60},
        "model": {"n_layers": 2, "hidden_dim": 16, "n_heads": 2, "ff_dim": 32,
                  "max_seq_len": 32, "dropout_rate": 0.0},
        "pretrain": {"corpus": corpus, "replay_corpus": corpus,
                     "total_steps": 4, "batch_size": 4, "peak_lr": 1e-3,
                     "eval_every": 2, "heldout_fraction": 0.2,
                     "max_seq_len": 32},
        "eval": {"sentences": corpus},
    }


def save_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return str(path)


def tree_digest(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """corpus -> vocab-train -> pretrain -> adapt, shared by the read-only
    tests below."""
    base = tmp_path_factory.mktemp("cli")
    corpus = write_corpus(base / "corpus.txt")
    cfg = run_config(base, corpus)
    cfg_path = save_config(base / "run.json", cfg)

    assert entrypoint(["vocab-train", "--config", cfg_path,
                       "--out", str(base / "vocab")]) == 0
    cfg["tokenizer"]["vocab"] = str(base / "vocab" / "vocab.txt")
    save_config(base / "run.json", cfg)

    assert entrypoint(["pretrain", "--config", cfg_path,
                       "--out", str(base / "base")]) == 0
    assert entrypoint(["adapt", "--config", cfg_path,
                       "--out", str(base / "adapted"),
                       "--parent", str(base / "base" / "checkpoint.ckpt"),
                       "--preset", "R12+"]) == 0
    return {"base": base, "cfg": cfg, "cfg_path": cfg_path, "corpus": corpus,
            "base_ckpt": str(base / "base" / "checkpoint.ckpt"),
            "adapted_ckpt": str(base / "adapted" / "checkpoint.ckpt")}


# ---------------------------------------------------------------------------
# argument handling and config resolution
# ---------------------------------------------------------------------------


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats costs every bertlab process about 44 MB and 0.5 s to import
    src = os.path.dirname(os.path.dirname(ft.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bertlab.cli; "
                               "assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded'"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        entrypoint(["frobnicate"])


def test_missing_config_file_is_input_error(tmp_path, capsys):
    rc = entrypoint(["pretrain", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


def test_malformed_config_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert entrypoint(["pretrain", "--config", str(bad),
                       "--out", str(tmp_path / "out")]) == 2


def test_config_must_be_object(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    assert entrypoint(["pretrain", "--config", str(bad),
                       "--out", str(tmp_path / "out")]) == 2


def test_missing_out_is_configuration_error(tmp_path, capsys):
    cfg = save_config(tmp_path / "c.json", {"tokenizer": {}})
    rc = entrypoint(["vocab-train", "--config", cfg])
    assert rc == 3
    assert "out" in capsys.readouterr().err


def test_missing_referenced_corpus_is_input_error(tmp_path, capsys):
    cfg = save_config(tmp_path / "c.json", {
        "tokenizer": {"corpus": str(tmp_path / "absent.txt"), "vocab_size": 40}})
    rc = entrypoint(["vocab-train", "--config", cfg,
                     "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "absent.txt" in capsys.readouterr().err


def test_latin1_corpus_is_input_error(tmp_path, capsys):
    corpus = tmp_path / "latin1.txt"
    corpus.write_bytes("perché è così\n".encode("latin-1"))
    cfg = save_config(tmp_path / "c.json", {
        "tokenizer": {"corpus": str(corpus), "vocab_size": 40}})
    rc = entrypoint(["vocab-train", "--config", cfg,
                     "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "latin1.txt" in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path):
    corpus = write_corpus(tmp_path / "c.txt")
    cfg = save_config(tmp_path / "c.json",
                      {"seed": 3, "tokenizer": {"corpus": corpus,
                                                "vocab_size": 40}})
    out = tmp_path / "out"
    assert entrypoint(["vocab-train", "--config", cfg, "--seed", "9",
                       "--out", str(out)]) == 0
    snapshot = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert snapshot["seed"] == 9
    assert snapshot["out"] == str(out)


def test_cf_preset_mixed_with_explicit_settings_rejected(pipeline, tmp_path):
    cfg = dict(pipeline["cfg"])
    cfg["cf"] = {"preset": "OR", "llrd_decay": 0.5}
    cfg_path = save_config(tmp_path / "mixed.json", cfg)
    assert entrypoint(["pretrain", "--config", cfg_path,
                       "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("where", ["top-level", "section"])
@pytest.mark.parametrize("value", [[], 0, "", False],
                         ids=["list", "zero", "empty-string", "false"])
def test_cf_that_is_not_an_object_is_configuration_error(pipeline, tmp_path, capsys,
                                                         where, value):
    cfg = json.loads(json.dumps(pipeline["cfg"]))
    (cfg if where == "top-level" else cfg["pretrain"])["cf"] = value
    out = tmp_path / "out"
    assert entrypoint(["pretrain", "--config", save_config(tmp_path / "c.json", cfg),
                       "--out", str(out)]) == 3
    assert "cf must be an object" in capsys.readouterr().err
    assert (out / "run.log").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("where", ["top-level", "section"])
def test_empty_cf_turns_every_technique_off(pipeline, tmp_path, where):
    # a section-level cf is used as given, even {} under a top-level preset
    cfg = json.loads(json.dumps(pipeline["cfg"]))
    if where == "top-level":
        cfg["cf"] = {}
    else:
        cfg["cf"] = {"preset": "OR"}
        cfg["pretrain"]["cf"] = {}
    out = tmp_path / "out"
    assert entrypoint(["pretrain", "--config", save_config(tmp_path / "c.json", cfg),
                       "--out", str(out)]) == 0
    assert "cf: all defaults\n" in (out / "run.log").read_text(encoding="utf-8")
    base = pipeline["base"] / "base"
    for name in ("checkpoint.ckpt", "metrics.jsonl"):
        assert (out / name).read_bytes() == (base / name).read_bytes(), name


def test_unknown_preset_lists_available(pipeline, tmp_path, capsys):
    rc = entrypoint(["pretrain", "--config", pipeline["cfg_path"],
                     "--out", str(tmp_path / "out"), "--preset", "Z9"])
    assert rc == 3
    err = capsys.readouterr().err
    for name in ("OR", "R0", "R12+", "R3", "R3+", "RF"):
        assert name in err


def test_model_vocab_size_contradiction_rejected(pipeline, tmp_path):
    cfg = json.loads(json.dumps(pipeline["cfg"]))
    cfg["model"]["vocab_size"] = 7
    cfg_path = save_config(tmp_path / "bad.json", cfg)
    assert entrypoint(["pretrain", "--config", cfg_path,
                       "--out", str(tmp_path / "out")]) == 3


ADAPT_SECTION = {"total_steps": 2, "batch_size": 4, "peak_lr": 1e-3, "max_seq_len": 32}


@pytest.mark.parametrize("command, section, key, value", [
    ("pretrain", "model", "hidden_dim", 16.0),
    ("pretrain", "model", "n_heads", True),
    ("pretrain", "model", "ff_dim", None),
    ("pretrain", "model", "dropout_rate", "0.1"),
    ("pretrain", "pretrain", "total_steps", "4"),
    ("pretrain", "pretrain", "batch_size", 4.0),
    ("pretrain", "pretrain", "batch_size", "missing"),
    ("pretrain", "pretrain", "peak_lr", "1e-3"),
    ("pretrain", "pretrain", "peak_lr", float("nan")),
    ("pretrain", "pretrain", "weight_decay", float("inf")),
    ("pretrain", "cf", "mixout_p", "0.9"),
    ("pretrain", "cf", "freeze_layers", 1.0),
    ("adapt", "adapt", "mask_only", 1),
    ("adapt", "adapt", "whole_word_masking", "yes"),
    ("finetune", "finetune", "epochs", "1"),
    ("finetune", "finetune", "llrd_decay", False),
], ids=lambda v: str(v))
def test_mistyped_or_missing_section_value_is_configuration_error(
        pipeline, tmp_path, capsys, command, section, key, value):
    cfg = json.loads(json.dumps(pipeline["cfg"]))
    cfg["adapt"] = {"corpus": pipeline["corpus"], **ADAPT_SECTION}
    cfg["cf"] = {}
    cfg["tasks"] = {"ner": {"data": "absent.conll"}}
    cfg["finetune"] = {"epochs": 1}
    if value == "missing":
        del cfg[section][key]
    else:
        cfg[section][key] = value
    out = tmp_path / "out"
    flags = {"adapt": ["--parent", pipeline["base_ckpt"]],
             "finetune": ["--checkpoint", pipeline["adapted_ckpt"]]}.get(command, [])
    assert entrypoint([command, "--config", save_config(tmp_path / "c.json", cfg),
                       "--out", str(out)] + flags) == 3
    err = capsys.readouterr().err
    assert (f"missing {key!r}" if value == "missing" else f"{section}.{key}") in err
    assert (out / "run.log").read_text(encoding="utf-8") == ""   # failed before the run


@pytest.mark.parametrize("command, key, value", [
    ("pretrain", "pretrain.adam_beta2", 1.0),
    ("pretrain", "pretrain.adam_eps", 0),
    ("pretrain", "pretrain.eval_sentences", -1),
    ("pretrain", "model.layer_norm_eps", 0),
    ("finetune", "finetune.adam_beta1", 1.0),
    ("finetune", "tasks.re.negative_label", 5),
], ids=lambda v: str(v))
def test_out_of_range_setting_fails_before_the_run(pipeline, tmp_path, capsys,
                                                   command, key, value):
    # each of these once started the run: it finished, hit a NumericFault or crashed untyped
    cfg = json.loads(json.dumps(pipeline["cfg"]))
    cfg["tasks"] = {"re": {"data": write_re(tmp_path / "re.jsonl")}}
    cfg["finetune"] = {"epochs": 1, "seeds": [1], "max_seq_len": 32}
    *path, name = key.split(".")
    section = cfg
    for part in path:
        section = section[part]
    section[name] = value
    out = tmp_path / "out"
    flags = ["--checkpoint", pipeline["adapted_ckpt"]] if command == "finetune" else []
    assert entrypoint([command, "--config", save_config(tmp_path / "c.json", cfg),
                       "--out", str(out)] + flags) == 3
    assert name in capsys.readouterr().err
    assert not (out / "checkpoint.ckpt").exists() and not (out / "checkpoints").exists()


@pytest.mark.parametrize("command", ["pretrain", "adapt"])
def test_range_error_names_its_section(pipeline, tmp_path, capsys, command):
    cfg = json.loads(json.dumps(pipeline["cfg"]))
    cfg["adapt"] = {"corpus": pipeline["corpus"], **ADAPT_SECTION}
    cfg["pretrain"]["adam_beta2"] = cfg["adapt"]["adam_beta2"] = 1.0
    flags = ["--parent", pipeline["base_ckpt"]] if command == "adapt" else []
    assert entrypoint([command, "--config", save_config(tmp_path / "c.json", cfg),
                       "--out", str(tmp_path / "out")] + flags) == 3
    assert f"{command}.adam_beta2 1.0 outside [0, 1)" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_overflowing_evaluation_is_a_numeric_fault(pipeline, tmp_path, capsys):
    # the dev argmax of NaN logits once scored as predictions: exit 0, f1 1.0
    cfg = json.loads(json.dumps(pipeline["cfg"]))
    cfg["tasks"] = {"re": {"data": write_re(tmp_path / "re.jsonl")}}
    cfg["finetune"] = {"epochs": 1, "seeds": [1], "max_seq_len": 32, "lr": 1e30}
    out = tmp_path / "out"
    assert entrypoint(["finetune", "--config", save_config(tmp_path / "c.json", cfg),
                       "--out", str(out), "--checkpoint", pipeline["adapted_ckpt"]]) == 4
    assert "re: non-finite evaluation logits" in capsys.readouterr().err
    assert not (out / "report.re.txt").exists()


ADDRESS_SPACE = 1 << 30   # bytes: the limit of the process below
TOO_LARGE = [(field, value) for field in ("hidden_dim", "ff_dim", "max_seq_len", "n_layers")
             for value in (2 ** 63, 10 ** 12)]
# runs the command line on each argv list in argv[1]; prints (exit code,
# stderr) per run
ENTRYPOINT_EACH = """
import contextlib, io, json, sys
from bertlab.cli import entrypoint
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = entrypoint(argv)
    except Exception as exc:
        code = repr(exc)
    results.append((code, err.getvalue()))
print(json.dumps(results))
"""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def entrypoint_each_limited(argvs) -> list:
    """[(exit code, stderr)] of the command line on each argv, all run in one
    child process held to ADDRESS_SPACE, so a regression that tries to build
    a huge model fails fast instead of taking the machine's memory."""
    src = os.path.dirname(os.path.dirname(ft.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", ENTRYPOINT_EACH, json.dumps(argvs)],
        capture_output=True, text=True, timeout=300, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def too_large_runs(pipeline, tmp_path_factory):
    """{(field, value): (exit code, stderr, out dir)} of `pretrain` with that
    model size, all run by `entrypoint_each_limited`."""
    base = tmp_path_factory.mktemp("too-large")
    runs = []
    for field, value in TOO_LARGE:
        cfg = json.loads(json.dumps(pipeline["cfg"]))
        cfg["model"][field] = value
        name = f"{field}-{value}"
        runs.append((save_config(base / f"{name}.json", cfg), str(base / name)))
    results = entrypoint_each_limited([["pretrain", "--config", config, "--out", out]
                                       for config, out in runs])
    return {case: (code, err, out)
            for case, (code, err), (_, out) in zip(TOO_LARGE, results, runs)}


@pytest.mark.parametrize("field, value", TOO_LARGE,
                         ids=[f"{f}-{'2^63' if v == 2 ** 63 else '10^12'}" for f, v in TOO_LARGE])
def test_model_too_large_to_build_is_configuration_error(too_large_runs, field, value):
    # these once exited 1: numpy's TypeError at 2^63, a MemoryError at 10^12
    code, err, out = too_large_runs[field, value]
    assert code == 3, err or code
    assert err.startswith("error: model too large to build"), err
    assert not os.path.exists(os.path.join(out, "checkpoint.ckpt"))


def claim_layers(src, dst, n_layers) -> str:
    """dst, a copy of checkpoint src whose header claims n_layers layers."""
    data = open(src, "rb").read()
    hlen = int.from_bytes(data[12:16], "little")
    header = json.loads(data[16:16 + hlen])
    header["config"]["n_layers"] = n_layers
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(dst, "wb") as fh:
        fh.write(data[:12] + len(blob).to_bytes(4, "little") + blob + data[16 + hlen:])
    return str(dst)


# the commands that run a model, and a file each writes once it has run
ARTIFACTS = {"eval-mlm": "report.json", "adapt": "metrics.jsonl",
             "finetune": "report.re.json"}
MODEL_COMMANDS = tuple(ARTIFACTS)


def model_command(pipeline, base, command, checkpoint) -> list:
    """argv of command over checkpoint, writing under base."""
    cfg = json.loads(json.dumps(pipeline["cfg"]))
    cfg["tasks"] = {"re": {"data": write_re(base / "re.jsonl")}}
    cfg["finetune"] = {"epochs": 1, "seeds": [1], "max_seq_len": 32}
    cfg_path = save_config(base / "run.json", cfg)
    if command == "inspect":
        return ["inspect", "--checkpoint", checkpoint]
    return [command, "--config", cfg_path, "--out", str(base / command),
            "--parent" if command == "adapt" else "--checkpoint", checkpoint]


@pytest.mark.parametrize("command", MODEL_COMMANDS)
def test_model_missing_a_tensor_its_config_needs_is_integrity_error(
        pipeline, tmp_path, capsys, command):
    # these once exited 1 with a raw KeyError from the forward pass
    checkpoint = claim_layers(pipeline["base_ckpt"], tmp_path / "short.ckpt", 3)
    assert entrypoint(model_command(pipeline, tmp_path, command, checkpoint)) == 5
    err = capsys.readouterr().err
    assert "lacks 16 tensors its config needs: encoder.2.attention.q.weight" in err, err
    assert not (tmp_path / command / ARTIFACTS[command]).exists()


def test_inspect_still_loads_a_model_missing_a_tensor(pipeline, tmp_path, capsys):
    checkpoint = claim_layers(pipeline["base_ckpt"], tmp_path / "short.ckpt", 3)
    assert entrypoint(["inspect", "--checkpoint", checkpoint]) == 0
    assert "n_layers=3" in capsys.readouterr().out


def test_header_claiming_huge_n_layers_costs_what_the_stored_tensors_do(pipeline, tmp_path):
    # at 10^6 loading once took seconds and ended in a MemoryError under
    # ADDRESS_SPACE; at 10^12 it grew memory without bound
    commands = ("inspect",) + MODEL_COMMANDS
    cases = [(n_layers, command) for n_layers in (10 ** 6, 10 ** 12) for command in commands]
    results = entrypoint_each_limited([model_command(
        pipeline, tmp_path, command,
        claim_layers(pipeline["base_ckpt"], tmp_path / f"{n_layers}.ckpt", n_layers))
        for n_layers, command in cases])
    for (n_layers, command), (code, err) in zip(cases, results):
        if command == "inspect":
            assert code == 0, err
        else:
            assert code == 5, err
            assert f"lacks {16 * n_layers - 32} tensors its config needs" in err


@pytest.mark.parametrize("key, value", [
    ("seed", "3"), ("seed", 3.0), ("seed", True),
    ("tokenizer.vocab_size", "60"), ("tokenizer.vocab_size", 60.0),
    ("tokenizer.min_freq", "2"), ("tokenizer.min_freq", True),
    ("tokenizer.lowercase", "no"), ("tokenizer.lowercase", 0),
], ids=lambda v: str(v))
def test_mistyped_seed_or_tokenizer_value_is_configuration_error(tmp_path, capsys,
                                                                 key, value):
    corpus = write_corpus(tmp_path / "c.txt")
    cfg = {"seed": 3, "tokenizer": {"corpus": corpus, "vocab_size": 60}}
    if key == "seed":
        cfg["seed"] = value
    else:
        cfg["tokenizer"][key.split(".")[1]] = value
    out = tmp_path / "out"
    assert entrypoint(["vocab-train", "--config", save_config(tmp_path / "c.json", cfg),
                       "--out", str(out)]) == 3
    assert f"{key} must be" in capsys.readouterr().err
    assert not (out / "vocab.txt").exists()


def test_pretrain_without_trained_vocab_rejected(tmp_path):
    corpus = write_corpus(tmp_path / "c.txt")
    cfg = run_config(tmp_path, corpus)   # no tokenizer.vocab yet
    cfg_path = save_config(tmp_path / "c.json", cfg)
    assert entrypoint(["pretrain", "--config", cfg_path,
                       "--out", str(tmp_path / "out")]) == 3


# ---------------------------------------------------------------------------
# vocab-train
# ---------------------------------------------------------------------------


def test_vocab_train_artifacts(pipeline):
    out = pipeline["base"] / "vocab"
    assert (out / "config.json").exists()
    assert (out / "run.log").exists()
    vocab = tk.load_vocab(out / "vocab.txt")
    assert len(vocab) <= 60
    for word in WORDS:
        assert word in vocab.ids
    log = (out / "run.log").read_text(encoding="utf-8")
    assert vocab.fingerprint in log


# ---------------------------------------------------------------------------
# pretrain / adapt
# ---------------------------------------------------------------------------


def test_pretrain_artifacts(pipeline):
    out = pipeline["base"] / "base"
    records = pt.load_metrics(out / "metrics.jsonl")
    assert [r["step"] for r in records] == [0, 1, 2, 3]
    assert all(set(pt.METRIC_FIELDS) <= set(r) for r in records)
    loaded = ckpt.load_checkpoint(pipeline["base_ckpt"])
    assert loaded.step == 4
    assert loaded.lineage == ()
    snapshot = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert snapshot["seed"] == 3
    assert snapshot["pretrain"]["total_steps"] == 4


def test_pretrain_rerun_is_bit_identical(pipeline):
    out = pipeline["base"] / "base"
    before = tree_digest(out)
    assert entrypoint(["pretrain", "--config", pipeline["cfg_path"],
                       "--out", str(out)]) == 0
    assert tree_digest(out) == before


def test_adapt_requires_parent(pipeline, tmp_path, capsys):
    rc = entrypoint(["adapt", "--config", pipeline["cfg_path"],
                     "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "parent" in capsys.readouterr().err


def test_adapt_lineage_points_at_parent(pipeline):
    parent = ckpt.load_checkpoint(pipeline["base_ckpt"])
    child = ckpt.load_checkpoint(pipeline["adapted_ckpt"])
    assert child.lineage == (parent.checkpoint_id,)
    assert ckpt.verify_lineage(child, parent) == []


def test_adapt_log_shows_mitigation_settings(pipeline):
    log = (pipeline["base"] / "adapted" / "run.log").read_text(encoding="utf-8")
    assert "llrd_decay=0.95" in log
    assert "replay_every=50" in log
    assert "parent:" in log


def test_adapt_rerun_is_bit_identical(pipeline):
    out = pipeline["base"] / "adapted"
    before = tree_digest(out)
    assert entrypoint(["adapt", "--config", pipeline["cfg_path"],
                       "--out", str(out),
                       "--parent", pipeline["base_ckpt"],
                       "--preset", "R12+"]) == 0
    assert tree_digest(out) == before


# ---------------------------------------------------------------------------
# eval-mlm
# ---------------------------------------------------------------------------


def test_eval_mlm_report_names(pipeline, tmp_path):
    masked = write_masked_set(tmp_path / "masked.jsonl")
    cfg = json.loads(json.dumps(pipeline["cfg"]))
    cfg["eval"]["masked_set"] = masked
    cfg_path = save_config(tmp_path / "eval.json", cfg)
    out = tmp_path / "out"
    assert entrypoint(["eval-mlm", "--config", cfg_path, "--out", str(out),
                       "--checkpoint", pipeline["adapted_ckpt"]]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert "PPPL" in report and report["PPPL"] > 1.0
    assert "MRR" in report and 0.0 <= report["MRR"] <= 1.0
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert text.startswith("PPPL\t")
    assert "\nMRR\t" in text


def test_eval_mlm_requires_some_input(pipeline, tmp_path):
    cfg = json.loads(json.dumps(pipeline["cfg"]))
    cfg["eval"] = {}
    cfg_path = save_config(tmp_path / "eval.json", cfg)
    assert entrypoint(["eval-mlm", "--config", cfg_path,
                       "--out", str(tmp_path / "out"),
                       "--checkpoint", pipeline["adapted_ckpt"]]) == 3


def test_eval_mlm_requires_checkpoint(pipeline, tmp_path):
    assert entrypoint(["eval-mlm", "--config", pipeline["cfg_path"],
                       "--out", str(tmp_path / "out")]) == 3


def test_eval_mlm_truncated_checkpoint_is_integrity_error(pipeline, tmp_path):
    broken = tmp_path / "broken.ckpt"
    data = open(pipeline["adapted_ckpt"], "rb").read()
    broken.write_bytes(data[: len(data) // 2])
    assert entrypoint(["eval-mlm", "--config", pipeline["cfg_path"],
                       "--out", str(tmp_path / "out"),
                       "--checkpoint", str(broken)]) == 5


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def finetune_run(pipeline, tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_ft")
    ner = write_ner(base / "ner.conll")
    cfg = json.loads(json.dumps(pipeline["cfg"]))
    cfg["tasks"] = {"ner": {"data": ner}}
    cfg["finetune"] = {"epochs": 2, "batch_size": 8, "lr": 5e-3,
                       "max_seq_len": 32, "seeds": [1, 2]}
    cfg_path = save_config(base / "ft.json", cfg)
    out = base / "out"
    rc = entrypoint(["finetune", "--config", cfg_path, "--out", str(out),
                     "--checkpoint", pipeline["adapted_ckpt"]])
    return {"rc": rc, "out": out, "cfg": cfg, "base": base}


def test_finetune_writes_reports(finetune_run):
    assert finetune_run["rc"] == 0
    payload = json.loads((finetune_run["out"] / "report.ner.json")
                         .read_text(encoding="utf-8"))
    report = ft.TaskReport.from_dict(payload)
    assert report.task == "ner"
    assert [run.seed for run in report.runs] == [1, 2]
    assert report.mean_f1 > 0.5
    table = (finetune_run["out"] / "report.ner.txt").read_text(encoding="utf-8")
    assert "mean f1" in table


def test_finetune_writes_per_seed_checkpoints(finetune_run, pipeline):
    for seed in (1, 2):
        path = finetune_run["out"] / "checkpoints" / f"ner.seed{seed}.ckpt"
        loaded = ckpt.load_checkpoint(path)
        assert "heads.ner.weight" in loaded.params
        parent = ckpt.load_checkpoint(pipeline["adapted_ckpt"])
        assert parent.checkpoint_id in loaded.lineage


def test_finetune_baseline_delta(finetune_run, pipeline):
    cfg = json.loads(json.dumps(finetune_run["cfg"]))
    cfg["finetune"]["baseline"] = {
        "ner": str(finetune_run["out"] / "report.ner.json")}
    cfg["finetune"]["model_name"] = "adapted"
    cfg_path = save_config(finetune_run["base"] / "ft2.json", cfg)
    out = finetune_run["base"] / "out2"
    assert entrypoint(["finetune", "--config", cfg_path, "--out", str(out),
                       "--checkpoint", pipeline["adapted_ckpt"]]) == 0
    payload = json.loads((out / "report.ner.json").read_text(encoding="utf-8"))
    assert payload["baseline_name"] == "model"
    assert payload["delta_pct"] is not None


BOOL_F1_RUN = {"seed": 1, "precision": 0.5, "recall": 0.5, "f1": True, "dev_f1": 0.5,
               "best_epoch": 0}


@pytest.mark.parametrize("content, code", [
    ("caf\xe9".encode("latin-1"), 2),
    (json.dumps({"task": "ner", "model": "m"}).encode("utf-8"), 6),
    ({"mean_f1": "x"}, 6),
    ({"sd_f1": float("nan")}, 6),
    ({"model": 5}, 6),
    ({"runs": [BOOL_F1_RUN]}, 6),
    ({"mean_f1": 0}, 3),
    ({"task": "qa"}, 3),
], ids=["latin1", "no-runs", "mean-f1-string", "sd-f1-nan", "model-int", "run-f1-bool",
        "mean-f1-zero", "qa-report"])
def test_finetune_rejects_bad_baseline_report(finetune_run, pipeline, tmp_path,
                                              content, code):
    if isinstance(content, dict):   # fields over the report of a good run
        good = json.loads((finetune_run["out"] / "report.ner.json").read_text(encoding="utf-8"))
        content = json.dumps({**good, **content}).encode("utf-8")
    report = tmp_path / "baseline.json"
    report.write_bytes(content)
    cfg = json.loads(json.dumps(finetune_run["cfg"]))
    cfg["finetune"]["baseline"] = {"ner": str(report)}
    cfg_path = save_config(tmp_path / "ft.json", cfg)
    out = tmp_path / "out"
    assert entrypoint(["finetune", "--config", cfg_path, "--out", str(out),
                       "--checkpoint", pipeline["adapted_ckpt"]]) == code
    assert not (out / "checkpoints").exists()   # failed before any seed trained


@pytest.mark.parametrize("key, value", [
    ("seeds", 5), ("seeds", "12"), ("seeds", []), ("seeds", [1, 2.0]),
    ("seeds", [1, True]), ("seeds", [[1]]),
    ("baseline", ["x"]), ("baseline", "ner"), ("baseline", 7),
    ("baseline", {"ner": 5}), ("baseline", {"ner": ["a"]}),
    ("baseline", {"qa": "report.json"}), ("model_name", 5), ("model_name", None),
], ids=["seeds-int", "seeds-string", "seeds-empty", "seeds-float", "seeds-bool",
        "seeds-nested", "baseline-list", "baseline-string", "baseline-int",
        "baseline-int-path", "baseline-list-path", "baseline-task-not-run",
        "model-name-int", "model-name-null"])
def test_finetune_bad_seeds_or_baseline_is_configuration_error(
        finetune_run, pipeline, tmp_path, capsys, key, value):
    cfg = json.loads(json.dumps(finetune_run["cfg"]))
    cfg["finetune"][key] = value
    cfg_path = save_config(tmp_path / "ft.json", cfg)
    assert entrypoint(["finetune", "--config", cfg_path,
                       "--out", str(tmp_path / "out"),
                       "--checkpoint", pipeline["adapted_ckpt"]]) == 3
    assert f"finetune.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "checkpoints").exists()   # before any seed trained


def test_finetune_unknown_task_rejected(pipeline, tmp_path):
    cfg = json.loads(json.dumps(pipeline["cfg"]))
    cfg["tasks"] = {"parsing": {"data": "x"}}
    cfg_path = save_config(tmp_path / "bad.json", cfg)
    assert entrypoint(["finetune", "--config", cfg_path,
                       "--out", str(tmp_path / "out"),
                       "--checkpoint", pipeline["adapted_ckpt"]]) == 3


def test_finetune_unknown_task_key_rejected(pipeline, tmp_path, capsys):
    cfg = json.loads(json.dumps(pipeline["cfg"]))
    cfg["tasks"] = {"ner": {"data": "x", "fractions": [0.8, 0.1, 0.1]}}
    cfg_path = save_config(tmp_path / "bad.json", cfg)
    assert entrypoint(["finetune", "--config", cfg_path,
                       "--out", str(tmp_path / "out"),
                       "--checkpoint", pipeline["adapted_ckpt"]]) == 3
    assert "fractions" in capsys.readouterr().err


def test_finetune_requires_tasks_section(pipeline, tmp_path):
    assert entrypoint(["finetune", "--config", pipeline["cfg_path"],
                       "--out", str(tmp_path / "out"),
                       "--checkpoint", pipeline["adapted_ckpt"]]) == 3


# ---------------------------------------------------------------------------
# realign
# ---------------------------------------------------------------------------


def test_realign_single_file(pipeline, tmp_path):
    ner = write_ner(tmp_path / "ner.conll")
    cfg = {"realign": {"task": "ner", "translator": "uppercase", "data": ner}}
    cfg_path = save_config(tmp_path / "ra.json", cfg)
    out = tmp_path / "out"
    assert entrypoint(["realign", "--config", cfg_path, "--out", str(out)]) == 0
    kept = ft.load_ner(out / "ner.realigned.conll")
    assert len(kept) == 20
    assert kept[0].tokens[1] == "DELTA"
    assert kept[0].tags[1] == "B-X"
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["data"]["kept"] == 20
    assert "drop%" in (out / "report.txt").read_text(encoding="utf-8")


def test_realign_splits(tmp_path):
    examples = ft.load_ner(write_ner(tmp_path / "all.conll"))
    train, dev, test = ft.split_dataset(examples, seed=0)
    ft.save_ner(train, tmp_path / "train.conll")
    ft.save_ner(dev, tmp_path / "dev.conll")
    ft.save_ner(test, tmp_path / "test.conll")
    cfg = {"realign": {"task": "ner", "translator": "identity",
                       "train": str(tmp_path / "train.conll"),
                       "dev": str(tmp_path / "dev.conll"),
                       "test": str(tmp_path / "test.conll")}}
    cfg_path = save_config(tmp_path / "ra.json", cfg)
    out = tmp_path / "out"
    assert entrypoint(["realign", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert set(report) == {"train", "dev", "test"}
    assert all(r["dropped"] == {"mention_not_found": 0,
                                "ambiguous_after_policy": 0,
                                "empty_translation": 0}
               for r in report.values())
    reloaded = ft.load_ner(out / "ner.train.conll")
    assert len(reloaded) == len(train)


def test_realign_unknown_translator(tmp_path):
    ner = write_ner(tmp_path / "ner.conll")
    for settings in ({"translator": "babelfish"},
                     {"translator": "identity", "options": ["x"]}):
        cfg = save_config(tmp_path / "ra.json", {
            "realign": {"task": "ner", "data": ner, **settings}})
        assert entrypoint(["realign", "--config", cfg,
                           "--out", str(tmp_path / "out")]) == 3


def test_realign_dictionary_path_rejects_other_options(tmp_path, capsys):
    ner = write_ner(tmp_path / "ner.conll")
    (tmp_path / "lex.tsv").write_text("delta\tdelta forte\n", encoding="utf-8")
    cfg = save_config(tmp_path / "ra.json", {"realign": {
        "task": "ner", "data": ner, "translator": "dictionary",
        "options": {"path": str(tmp_path / "lex.tsv"), "mapping": {"x": "y"}}}})
    assert entrypoint(["realign", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "path excludes mapping" in capsys.readouterr().err


@pytest.mark.parametrize("options, why", [
    ({"protected": "lung cancer"}, "protected must be a list of strings"),
    ({"protected": [1]}, "protected must be a list of strings"),
    ({"seed": "x"}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
], ids=["string", "non-string", "string-seed", "bool-seed"])
def test_realign_word_shuffle_rejects_bad_options(tmp_path, capsys, options, why):
    cfg = save_config(tmp_path / "ra.json", {"realign": {
        "task": "ner", "data": write_ner(tmp_path / "ner.conll"),
        "translator": "word_shuffle_outside_spans", "options": options}})
    assert entrypoint(["realign", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert why in capsys.readouterr().err


def test_realign_unknown_task(tmp_path):
    cfg = save_config(tmp_path / "ra.json", {
        "realign": {"task": "parsing", "translator": "identity", "data": "x"}})
    assert entrypoint(["realign", "--config", cfg,
                       "--out", str(tmp_path / "out")]) == 3


def test_realign_rejects_lone_surrogate_at_load(tmp_path, capsys):
    # a JSON escape that parses to a str no output file can hold
    qa = tmp_path / "qa.jsonl"
    qa.write_text('{"id": "q1", "question": "what \\ud800", "context": "an answer", '
                  '"answers": [{"text": "answer", "answer_start": 3}]}\n', encoding="utf-8")
    cfg = save_config(tmp_path / "ra.json", {
        "realign": {"task": "qa", "translator": "identity", "data": str(qa)}})
    out = tmp_path / "out"
    assert entrypoint(["realign", "--config", cfg, "--out", str(out)]) == 6
    assert "line 1: invalid JSON (unpaired surrogate '\\ud800'" in capsys.readouterr().err
    assert not list(out.glob("*.realigned.*"))

# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def test_inspect_prints_lineage_and_fingerprint(pipeline, capsys):
    assert entrypoint(["inspect", "--checkpoint",
                       pipeline["adapted_ckpt"]]) == 0
    out = capsys.readouterr().out
    adapted = ckpt.load_checkpoint(pipeline["adapted_ckpt"])
    assert adapted.checkpoint_id in out
    assert adapted.fingerprint in out
    assert "lineage (oldest first):" in out
    assert adapted.lineage[0] in out


def test_inspect_verifies_inheritance(pipeline, capsys):
    assert entrypoint(["inspect", "--checkpoint", pipeline["adapted_ckpt"],
                       "--parent", pipeline["base_ckpt"]]) == 0
    assert "clean" in capsys.readouterr().out


def test_inspect_flags_unrelated_parent(pipeline, tmp_path, capsys):
    # the adapted checkpoint is not an ancestor of the base one
    assert entrypoint(["inspect", "--checkpoint", pipeline["base_ckpt"],
                       "--parent", pipeline["adapted_ckpt"]]) == 0
    out = capsys.readouterr().out
    assert "clean" not in out.split("inheritance check")[-1]


def test_inspect_with_out_dir_writes_json(pipeline, tmp_path):
    out = tmp_path / "out"
    assert entrypoint(["inspect", "--checkpoint", pipeline["base_ckpt"],
                       "--out", str(out)]) == 0
    payload = json.loads((out / "inspect.json").read_text(encoding="utf-8"))
    assert payload["step"] == 4
    assert payload["lineage"] == []
    assert payload["config"]["n_layers"] == 2
