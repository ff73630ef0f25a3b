"""bench_pairs.py keeps a run whose output checks failed in its --out file
and then exits 1, naming the run's pair, side and failed checks."""

import json

import bench_pairs


def test_an_incorrect_run_is_written_then_fails_loudly(monkeypatch, tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}))
    env = "# env " + json.dumps({"nproc": 2, "python": "3", "numpy": "2", "blas": "b"})

    def fake_run(checkout, workload, seed, seconds):
        correct = not (checkout.name == "change" and seed == 22)
        failures = [] if correct else ["learning: loss fell 0.1 nats"]
        result = {"correct": correct, "attempted": 5, "failed": len(failures),
                  "metrics": {"items_per_s": {"value": 100.0 + seed, "unit": "1/s"}}}
        return env, failures, json.dumps(result)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)

    out = tmp_path / "BENCH.json"
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "w", "--pairs", "2", "--seconds", "1",
                             "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert len(doc["runs"]) == 4
    assert doc["summary"]["w"]["failed"] == {"parent": 0, "change": 1}
    assert "pair 1 change (seed 22): learning: loss fell 0.1 nats" in capsys.readouterr().err

    monkeypatch.setattr(bench_pairs, "run_once", lambda c, w, s, t: fake_run(c, w, 21, t))
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "w", "--pairs", "2", "--seconds", "1",
                             "--out", str(out)]) == 0
