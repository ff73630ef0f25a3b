"""Build the small CLI chain of tests/test_cli.py in a directory and list the
sha256 of every file it leaves there.

    PYTHONPATH=src python tests/chain_digests.py DIR

runs vocab-train -> pretrain -> adapt --preset R12+, adapt --preset OR and
an adapt that freezes one layer under mixout and LLRD (freeze.json; all three
from the pretrained checkpoint) -> eval-mlm (held-out sentences and a
masked set) -> finetune (NER, seeds 1 and 2) -> inspect, plus a realign of
the NER file through the dictionary translator and a lexicon that moves
indices and lengthens the entity (realign.json), --out inside DIR, a new
directory, with relative paths, and prints one "sha256  relpath" line per
file, sorted. The chain is seeded, so two commits that keep the same
bytes print the same lines: diff the output of each.
"""

import contextlib
import hashlib
import os
import sys
from pathlib import Path

from bertlab.cli import entrypoint
from test_cli import run_config, save_config, write_corpus, write_masked_set, write_ner

COMMANDS = (
    ["vocab-train", "--config", "run.json", "--out", "vocab"],
    ["pretrain", "--config", "run.json", "--out", "base"],
    ["adapt", "--config", "run.json", "--out", "adapt-r12", "--preset", "R12+",
     "--parent", "base/checkpoint.ckpt"],
    ["adapt", "--config", "run.json", "--out", "adapt-or", "--preset", "OR",
     "--parent", "base/checkpoint.ckpt"],
    ["adapt", "--config", "freeze.json", "--out", "adapt-freeze",
     "--parent", "base/checkpoint.ckpt"],
    ["eval-mlm", "--config", "run.json", "--out", "eval",
     "--checkpoint", "adapt-or/checkpoint.ckpt"],
    ["finetune", "--config", "finetune.json", "--out", "finetune",
     "--checkpoint", "adapt-r12/checkpoint.ckpt"],
    ["inspect", "--checkpoint", "finetune/checkpoints/ner.seed1.ckpt",
     "--parent", "adapt-r12/checkpoint.ckpt", "--out", "inspect"],
    ["realign", "--config", "realign.json", "--out", "realign"],
)


def _run(argv) -> None:
    code = entrypoint(argv)
    if code != 0:
        raise RuntimeError(f"bertlab {' '.join(argv)} exited {code}")


def build(root) -> None:
    """Write the inputs and run every command of the chain inside `root`."""
    os.makedirs(root, exist_ok=True)
    here = os.getcwd()
    os.chdir(root)
    try:
        write_corpus(Path("corpus.txt"))
        write_ner(Path("ner.conll"))
        write_masked_set(Path("masked.jsonl"))
        cfg = run_config(None, "corpus.txt")
        cfg["eval"]["masked_set"] = "masked.jsonl"
        save_config(Path("run.json"), cfg)
        _run(COMMANDS[0])
        cfg["tokenizer"]["vocab"] = "vocab/vocab.txt"
        save_config(Path("run.json"), cfg)
        save_config(Path("freeze.json"), {
            **cfg, "cf": {"freeze_layers": 1, "mixout_p": 0.9, "llrd_decay": 0.9}})
        save_config(Path("finetune.json"), {
            **cfg, "tasks": {"ner": {"data": "ner.conll"}},
            "finetune": {"epochs": 2, "batch_size": 8, "lr": 5e-3, "max_seq_len": 32,
                         "seeds": [1, 2]}})
        Path("lexicon.tsv").write_text("alpha\tun alfa\nbeta\til beta\ndelta\tdelta forte\n",
                                       encoding="utf-8")
        save_config(Path("realign.json"), {"realign": {
            "task": "ner", "data": "ner.conll", "translator": "dictionary",
            "options": {"path": "lexicon.tsv"}}})
        for argv in COMMANDS[1:]:
            _run(argv)
    finally:
        os.chdir(here)


def listing(root) -> list:
    """"sha256  relpath" for every file under `root`, sorted by path."""
    lines = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = Path(os.path.relpath(path, root)).as_posix()
            lines.append((rel, hashlib.sha256(Path(path).read_bytes()).hexdigest()))
    return [f"{digest}  {rel}" for rel, digest in sorted(lines)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: chain_digests.py DIR", file=sys.stderr)
        return 2
    with contextlib.redirect_stdout(sys.stderr):   # the commands' run logs
        build(args[0])
    print("\n".join(listing(args[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
