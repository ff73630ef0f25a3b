"""Operator-facing command line: one JSON run config drives vocabulary
training, pretraining, continued adaptation, intrinsic evaluation, downstream
fine-tuning, dataset translation, and checkpoint inspection.

Every command resolves its flags into the config, snapshots the result into
the run directory, and writes artifacts only under that directory, so a run
can be reproduced bit-for-bit from its snapshot. Log lines carry no
timestamps for the same reason.
"""

import argparse
import json
import os
import sys

from . import checkpoint as ckpt
from . import dataport as dp
from . import finetune as ft
from . import mitigation as mit
from . import mlmeval
from . import model as md
from . import pretrain as pt
from . import tokenizer as tk
from .errors import BertlabError, ConfigurationError, InputError
from .seeding import substream

COMMANDS = ("vocab-train", "pretrain", "adapt", "eval-mlm", "finetune",
            "realign", "inspect")


class RunLog:
    """Deterministic run log: plain lines to stdout and (optionally) a file."""

    def __init__(self, path=None):
        self._fh = open(path, "w", encoding="utf-8") if path else None

    def line(self, text: str) -> None:
        print(text)
        if self._fh:
            self._fh.write(text + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh:
            self._fh.close()
            self._fh = None


# ---------------------------------------------------------------------------
# run config
# ---------------------------------------------------------------------------


def load_run_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config {path} must hold a JSON object")
    return cfg


def resolve_config(args) -> dict:
    """Config file merged with flag overrides; flags win."""
    cfg = load_run_config(args.config) if args.config else {}
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    if getattr(args, "preset", None):
        cfg["cf"] = {"preset": args.preset}
        for name in ("pretrain", "adapt"):   # the flag beats section-local cf
            if isinstance(cfg.get(name), dict):
                cfg[name].pop("cf", None)
    if getattr(args, "checkpoint", None):
        cfg["checkpoint"] = args.checkpoint
    if getattr(args, "parent", None):
        cfg["parent"] = args.parent
    cfg.setdefault("seed", 0)
    return cfg


def _require(cfg: dict, key: str, for_what: str):
    if key not in cfg or cfg[key] in (None, ""):
        raise ConfigurationError(f"{for_what} requires {key!r} in the config "
                                 f"or the matching flag")
    return cfg[key]


def _require_file(path, what) -> str:
    if not os.path.exists(str(path)):
        raise InputError(f"{what} {path} does not exist")
    return str(path)


def _section(cfg: dict, name: str) -> dict:
    section = cfg.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    return dict(section)


def resolve_cf(raw) -> mit.CFConfig:
    """Mitigation settings from a raw config value: a named preset or
    explicit fields, never both."""
    if not raw:
        return None
    if not isinstance(raw, dict):
        raise ConfigurationError("cf section must be an object")
    if "preset" in raw:
        if len(raw) > 1:
            raise ConfigurationError(
                "cf section mixes a preset with explicit settings; use one")
        return mit.preset(raw["preset"])
    return mit.CFConfig.from_dict(raw)


def _out_dir(cfg: dict, command: str) -> str:
    out = _require(cfg, "out", command)
    os.makedirs(out, exist_ok=True)
    return out


def _snapshot(cfg: dict, out: str) -> None:
    _write_json(os.path.join(out, "config.json"), cfg)


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def _clear(*paths) -> None:
    # fresh runs must not append onto a previous run's artifacts
    for p in paths:
        if os.path.exists(p):
            os.remove(p)


def _load_vocab(cfg: dict, command: str) -> tk.Vocabulary:
    section = _section(cfg, "tokenizer")
    path = section.get("vocab")
    if not path:
        raise ConfigurationError(f"{command} requires tokenizer.vocab "
                                 "(a trained vocabulary file)")
    return tk.load_vocab(_require_file(path, "vocabulary"))


def _model_config(cfg: dict, vocab: tk.Vocabulary) -> md.ModelConfig:
    section = _section(cfg, "model")
    unknown = set(section) - set(md.ModelConfig.__dataclass_fields__)
    if unknown:
        raise ConfigurationError(f"unknown model keys: {sorted(unknown)}")
    if "vocab_size" in section and section["vocab_size"] != len(vocab):
        raise ConfigurationError(
            f"model.vocab_size {section['vocab_size']} contradicts the bound "
            f"vocabulary ({len(vocab)} tokens)")
    section["vocab_size"] = len(vocab)
    for key in ("n_layers", "hidden_dim", "n_heads", "ff_dim", "max_seq_len"):
        if key not in section:
            raise ConfigurationError(f"model section is missing {key!r}")
    return md.ModelConfig(**section)


def _train_plan(section: dict, section_name: str, seed: int, cf: mit.CFConfig):
    """(plan, corpus path, replay corpus path) from a training section."""
    corpus_path = section.pop("corpus", None)
    replay_path = section.pop("replay_corpus", None)
    if not corpus_path:
        raise ConfigurationError(f"{section_name} section requires 'corpus'")
    section["seed"] = seed
    section["cf"] = cf.to_dict() if cf else {}
    return (pt.TrainPlan.from_dict(section),
            _require_file(corpus_path, "corpus"),
            _require_file(replay_path, "replay corpus") if replay_path else None)


def _describe_cf(cf: mit.CFConfig) -> str:
    if cf is None:
        return "cf: none"
    parts = [f"{k}={getattr(cf, k)}" for k in cf.__dataclass_fields__
             if getattr(cf, k) is not None]
    return "cf: " + (" ".join(parts) if parts else "all defaults")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_vocab_train(cfg: dict, log: RunLog, out: str) -> int:
    section = _section(cfg, "tokenizer")
    corpus_path = _require_file(_require(section, "corpus", "vocab-train"),
                                "corpus")
    size = _require(section, "vocab_size", "vocab-train")
    corpus = pt.load_corpus(corpus_path)
    sentences = [s for doc in corpus.documents for s in doc]
    vocab = tk.train_vocab(sentences, size,
                           min_freq=section.get("min_freq", 1),
                           lowercase=section.get("lowercase", False))
    vocab_path = os.path.join(out, "vocab.txt")
    tk.save_vocab(vocab, vocab_path)
    log.line("command: vocab-train")
    log.line(f"corpus: {corpus_path} ({len(corpus.documents)} documents, "
             f"{corpus.n_sentences} sentences)")
    log.line(f"vocab: {len(vocab)} tokens -> {vocab_path}")
    log.line(f"fingerprint: {vocab.fingerprint}")
    return 0


def _run_training(cfg: dict, log: RunLog, out: str, command: str) -> int:
    # a single config can drive the whole chain: `adapt` prefers its own
    # section (domain corpus, its own schedule, its own cf), falling back
    # to `pretrain`
    section_name = ("adapt" if command == "adapt" and cfg.get("adapt")
                    else "pretrain")
    section = _section(cfg, section_name)
    cf = resolve_cf(section.pop("cf", None) or cfg.get("cf"))
    plan, corpus_path, replay_path = _train_plan(section, section_name,
                                                 cfg.get("seed", 0), cf)
    corpus = pt.load_corpus(corpus_path)
    replay = pt.load_corpus(replay_path, provenance="replay") if replay_path else None

    if command == "adapt":
        parent_path = _require_file(_require(cfg, "parent", "adapt"),
                                    "parent checkpoint")
        init = ckpt.load_checkpoint(parent_path)
        vocab = init.vocab
        # adaptation warm-starts the weights only: a fresh schedule with the
        # parent's stale Adam moments would mis-apply bias correction
        start_step = 0
        optimizer_state = {}
        log.line("command: adapt")
        log.line(f"parent: {parent_path} id {init.checkpoint_id} "
                 f"step {init.step} ancestors {len(init.lineage)}")
    else:
        vocab = _load_vocab(cfg, "pretrain")
        config = _model_config(cfg, vocab)
        params = md.init_params(config, substream(plan.seed, "init"))
        init = pt.ModelState(config=config, params=params, vocab=vocab)
        start_step = None
        optimizer_state = None
        log.line("command: pretrain")

    log.line(f"seed: {plan.seed}")
    log.line(f"corpus: {corpus_path} ({len(corpus.documents)} documents, "
             f"{corpus.n_sentences} sentences)")
    log.line(f"vocab: {len(vocab)} tokens fingerprint {vocab.fingerprint[:12]}")
    log.line(f"plan: total_steps={plan.total_steps} batch_size={plan.batch_size} "
             f"peak_lr={plan.peak_lr} warmup_fraction={plan.effective_warmup_fraction}")
    log.line(_describe_cf(cf))
    if replay is not None:
        log.line(f"replay corpus: {replay_path} ({len(replay.documents)} documents)")

    metrics_path = os.path.join(out, "metrics.jsonl")
    checkpoint_path = os.path.join(out, "checkpoint.ckpt")
    _clear(metrics_path, checkpoint_path)
    result = pt.run_pretraining(init, corpus, plan, vocab=vocab,
                                replay_corpus=replay,
                                metrics_path=metrics_path,
                                checkpoint_path=checkpoint_path,
                                start_step=start_step,
                                optimizer_state=optimizer_state)
    for record in result.metrics[-1:]:
        log.line("final metrics: " +
                 " ".join(f"{k}={record[k]}" for k in pt.METRIC_FIELDS
                          if record[k] is not None))
    log.line(f"metrics: {metrics_path}")
    log.line(f"checkpoint: {checkpoint_path} id {result.checkpoint_id}")
    return 0


def cmd_eval_mlm(cfg: dict, log: RunLog, out: str) -> int:
    path = _require_file(_require(cfg, "checkpoint", "eval-mlm"), "checkpoint")
    loaded = ckpt.load_checkpoint(path)
    scorer = mlmeval.ModelScorer(loaded.params, loaded.config)
    section = _section(cfg, "eval")
    if not section.get("sentences") and not section.get("masked_set"):
        raise ConfigurationError(
            "eval section needs 'sentences' (pseudo-perplexity) and/or "
            "'masked_set' (top-5 reciprocal rank)")
    log.line("command: eval-mlm")
    log.line(f"checkpoint: {path} id {loaded.checkpoint_id} step {loaded.step}")
    report = {"checkpoint": loaded.checkpoint_id, "step": loaded.step}
    if section.get("sentences"):
        sentences_path = _require_file(section["sentences"], "evaluation corpus")
        corpus = pt.load_corpus(sentences_path)
        sentences = [s for doc in corpus.documents for s in doc]
        result = mlmeval.pppl(scorer, sentences, loaded.vocab,
                              loaded.config.max_seq_len)
        report["PPPL"] = result.value
        report["pppl_tokens"] = result.n_tokens
        log.line(f"PPPL: {result.value:.4f} over {result.n_tokens} tokens")
    if section.get("masked_set"):
        masked_path = _require_file(section["masked_set"], "masked set")
        items, _ = mlmeval.load_masked_set(masked_path)
        result = mlmeval.mrr_top5(scorer, items, loaded.vocab,
                                  loaded.config.max_seq_len)
        report["MRR"] = result.value
        report["mrr_items"] = len(result.rankings)
        report["mrr_excluded"] = len(result.excluded)
        log.line(f"MRR: {result.value:.4f} over {len(result.rankings)} items "
                 f"({len(result.excluded)} excluded)")
    _write_json(os.path.join(out, "report.json"), report)
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as fh:
        for key in ("PPPL", "MRR"):
            if key in report:
                fh.write(f"{key}\t{report[key]:.6f}\n")
    log.line(f"report: {os.path.join(out, 'report.json')}")
    return 0


_TASK_LOADERS = {"ner": ft.load_ner, "qa": ft.load_qa, "re": ft.load_re}


def _load_task_dataset(task: str, spec: dict, seed: int) -> ft.TaskDataset:
    loader = _TASK_LOADERS[task]
    negative = spec.get("negative_label")
    if "data" in spec:
        examples = loader(_require_file(spec["data"], f"{task} data"))
        train, dev, test = ft.split_dataset(examples, seed)
    else:
        for split in ("train", "dev", "test"):
            if split not in spec:
                raise ConfigurationError(
                    f"task {task!r} needs 'data' or all of train/dev/test")
        train = loader(_require_file(spec["train"], f"{task} train"))
        dev = loader(_require_file(spec["dev"], f"{task} dev"))
        test = loader(_require_file(spec["test"], f"{task} test"))
    return ft.TaskDataset(task=task, train=train, dev=dev, test=test,
                          negative_label=negative)


def cmd_finetune(cfg: dict, log: RunLog, out: str) -> int:
    path = _require_file(_require(cfg, "checkpoint", "finetune"), "checkpoint")
    loaded = ckpt.load_checkpoint(path)
    tasks = _section(cfg, "tasks")
    if not tasks:
        raise ConfigurationError("finetune requires a 'tasks' section")
    unknown = set(tasks) - set(_TASK_LOADERS)
    if unknown:
        raise ConfigurationError(f"unknown tasks: {sorted(unknown)}")
    section = _section(cfg, "finetune")
    seeds = tuple(section.pop("seeds", (1, 2, 3, 4, 5)))
    baselines = section.pop("baseline", {}) or {}
    model_name = section.pop("model_name", "model")
    unknown = set(section) - set(ft.FinetunePlan.__dataclass_fields__)
    if unknown:
        raise ConfigurationError(f"unknown finetune keys: {sorted(unknown)}")
    plan = ft.FinetunePlan(**section)

    log.line("command: finetune")
    log.line(f"checkpoint: {path} id {loaded.checkpoint_id} step {loaded.step}")
    log.line(f"plan: lr={plan.lr} batch_size={plan.batch_size} epochs={plan.epochs} "
             f"llrd_decay={plan.llrd_decay} seeds={list(seeds)}")
    for task in sorted(tasks):
        dataset = _load_task_dataset(task, dict(tasks[task]), cfg.get("seed", 0))
        baseline = None
        if task in baselines:
            baseline_path = _require_file(baselines[task], f"{task} baseline report")
            with open(baseline_path, encoding="utf-8") as fh:
                baseline = ft.TaskReport.from_dict(json.load(fh))
        result = ft.finetune_task(loaded, dataset, plan, seeds=seeds,
                                  model_name=model_name, baseline=baseline,
                                  checkpoint_dir=os.path.join(out, "checkpoints"))
        _write_json(os.path.join(out, f"report.{task}.json"),
                    result.report.to_dict())
        table = ft.report_table(result.report)
        with open(os.path.join(out, f"report.{task}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(table)
        for line in table.rstrip("\n").split("\n"):
            log.line(line)
        log.line(f"report: {os.path.join(out, f'report.{task}.json')}")
    return 0


def cmd_realign(cfg: dict, log: RunLog, out: str) -> int:
    section = _section(cfg, "realign")
    task = _require(section, "task", "realign")
    if task not in _TASK_LOADERS:
        raise ConfigurationError(f"unknown realign task {task!r}")
    translator = dp.make_translator(_require(section, "translator", "realign"),
                                    **(section.get("options") or {}))
    log.line("command: realign")
    log.line(f"task: {task}")
    log.line(f"translator: {translator.name}")

    loader = _TASK_LOADERS[task]
    savers = {"ner": ft.save_ner, "qa": ft.save_qa, "re": ft.save_re}
    suffix = {"ner": "conll", "qa": "jsonl", "re": "jsonl"}[task]
    reports = {}
    if "data" in section:
        examples = loader(_require_file(section["data"], "realign data"))
        kept, report = dp.realign_examples(examples, translator)
        out_path = os.path.join(out, f"{task}.realigned.{suffix}")
        savers[task](kept, out_path)
        reports["data"] = report
        log.line(f"wrote {len(kept)} of {report.total} examples -> {out_path}")
    else:
        dataset = _load_task_dataset(task, section, cfg.get("seed", 0))
        translated, reports = dp.realign_dataset(dataset, translator)
        for split in ("train", "dev", "test"):
            out_path = os.path.join(out, f"{task}.{split}.{suffix}")
            savers[task](getattr(translated, split), out_path)
            log.line(f"wrote {len(getattr(translated, split))} "
                     f"{split} examples -> {out_path}")
    _write_json(os.path.join(out, "report.json"),
                {split: r.to_dict() for split, r in reports.items()})
    table = dp.summary_table(reports)
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(table)
    for line in table.rstrip("\n").split("\n"):
        log.line(line)
    return 0


def cmd_inspect(cfg: dict, log: RunLog, out: str) -> int:
    path = _require_file(_require(cfg, "checkpoint", "inspect"), "checkpoint")
    loaded = ckpt.load_checkpoint(path)
    log.line(f"checkpoint: {path}")
    log.line(f"id: {loaded.checkpoint_id}")
    log.line(f"step: {loaded.step}")
    log.line(f"vocab: {len(loaded.vocab)} tokens")
    log.line(f"fingerprint: {loaded.fingerprint}")
    config = loaded.config.to_dict()
    log.line("config: " + " ".join(f"{k}={config[k]}" for k in sorted(config)))
    log.line(f"params: {len(loaded.params)} arrays")
    state = loaded.optimizer_state
    log.line("optimizer: " + (f"present ({len(state)} slots)" if state else "absent"))
    if loaded.lineage:
        log.line("lineage (oldest first):")
        for ancestor in loaded.lineage:
            log.line(f"  {ancestor}")
    else:
        log.line("lineage: root (no ancestors)")
    if cfg.get("parent"):
        parent = ckpt.load_checkpoint(_require_file(cfg["parent"],
                                                    "parent checkpoint"))
        report = ckpt.verify_lineage(loaded, parent)
        if report:
            log.line(f"inheritance check vs {cfg['parent']}:")
            for line in report:
                log.line(f"  {line}")
        else:
            log.line(f"inheritance check vs {cfg['parent']}: clean")
    if out:
        _write_json(os.path.join(out, "inspect.json"), {
            "checkpoint": path, "id": loaded.checkpoint_id,
            "step": loaded.step, "config": config,
            "vocab_size": len(loaded.vocab),
            "fingerprint": loaded.fingerprint,
            "lineage": list(loaded.lineage)})
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bertlab",
        description="continual-pretraining laboratory: masked-language models "
                    "with forgetting mitigations, evaluation, and dataset "
                    "translation")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, *, preset=False, checkpoint=False,
                parent=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="run directory for artifacts")
        if preset:
            p.add_argument("--preset", help="mitigation preset name")
        if checkpoint:
            p.add_argument("--checkpoint", help="model checkpoint to operate on")
        if parent:
            p.add_argument("--parent", help="parent checkpoint")
        return p

    command("vocab-train", "induce a subword vocabulary from a corpus")
    command("pretrain", "train a model from scratch", preset=True)
    command("adapt", "continue pretraining from a parent checkpoint",
            preset=True, parent=True)
    command("eval-mlm", "pseudo-perplexity and top-5 reciprocal rank",
            checkpoint=True)
    command("finetune", "train task heads with the multi-seed protocol",
            checkpoint=True)
    command("realign", "translate a dataset and realign its annotations")
    command("inspect", "print checkpoint metadata and lineage",
            checkpoint=True, parent=True)
    return parser


_DISPATCH = {
    "vocab-train": cmd_vocab_train,
    "pretrain": lambda cfg, log, out: _run_training(cfg, log, out, "pretrain"),
    "adapt": lambda cfg, log, out: _run_training(cfg, log, out, "adapt"),
    "eval-mlm": cmd_eval_mlm,
    "finetune": cmd_finetune,
    "realign": cmd_realign,
    "inspect": cmd_inspect,
}


def run_command(argv) -> int:
    args = build_parser().parse_args(argv)
    cfg = resolve_config(args)
    if args.command == "inspect" and "out" not in cfg:
        out = None
        log = RunLog()
    else:
        out = _out_dir(cfg, args.command)
        _snapshot(cfg, out)
        log = RunLog(os.path.join(out, "run.log"))
    try:
        return _DISPATCH[args.command](cfg, log, out)
    finally:
        log.close()


def entrypoint(argv=None) -> int:
    try:
        return run_command(sys.argv[1:] if argv is None else argv)
    except BertlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(entrypoint())
