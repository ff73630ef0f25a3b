"""The CLI chain of chain_digests.py, built twice, leaves the same bytes: a
rerun check of every command, the mixout (OR) and freezing adaptations
included."""

import chain_digests


def test_chain_rebuilds_to_the_same_digests(tmp_path):
    chain_digests.build(tmp_path / "a")
    chain_digests.build(tmp_path / "b")
    first = chain_digests.listing(tmp_path / "a")
    paths = {line.split("  ", 1)[1] for line in first}
    assert {"adapt-or/checkpoint.ckpt", "adapt-freeze/checkpoint.ckpt", "eval/report.json",
            "inspect/inspect.json", "finetune/checkpoints/ner.seed2.ckpt"} <= paths
    assert first == chain_digests.listing(tmp_path / "b")
