"""Measure the memory of one training step of the README desk model and the
page faults of its training passes.

    PYTHONPATH=src python tests/step_memory.py [--passes N] [--seed S]

The step and the passes are perfbench's desk-pretrain workload at full
scale (V=8000, H=128, 4 layers, L=128, B=16, dropout 0.1), set up from
seed S in a temporary directory. After one untraced step from init, the
second step runs under tracemalloc, which traces numpy's allocations from
the start of its forward pass, inside `autodiff.workers` as
`run_pretraining` runs it. The script prints in MB the memory the forward
pass left live, the peak during backward, and the memory live after Adam
(the loss still held, as `run_pretraining` holds it). Then two fresh
processes each set up the workload and run N of its passes (6 steps, a
checkpoint save and a load-back) and print `ru_minflt` per pass: one with
glibc's malloc policy (`autodiff._keep_freed_memory`) as the program applies
it, one with that function replaced by a no-op in its own process.
"""

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

from bertlab import autodiff as ad
from bertlab import model as md
from bertlab import pretrain as pt
from bertlab.seeding import substream

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads as wls  # noqa: E402

MB = 1 << 20


def desk(seed: int, workdir: str):
    """perfbench's desk-pretrain workload, set up."""
    workload = wls.DeskPretrain(wls.FULL, seed, workdir)
    workload.setup(wls.Tally())
    return workload


def traced_step(seed: int) -> dict:
    """Traced MB after the forward pass, at the peak of backward and after
    Adam, for the second step from init."""
    with tempfile.TemporaryDirectory() as workdir:
        w = desk(seed, workdir)
    params, slots = md.copy_params(wls.fresh_params(w.init))
    stream = pt.BatchStream(w.corpus, w.vocab, w.plan)

    def forward(step):
        return pt.pretrain_loss(params, w.config, stream.batch(step), train=True,
                                rng=substream(seed, f"dropout.{step}"))[0]
    with ad.workers(w.plan.batch_size):
        pt.train_step(forward(0), params, slots, pt.lr_at(0, w.plan), w.plan)
        tracemalloc.start()
        try:
            loss = forward(1)
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for t in params.values():
                t.grad = None
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
            pt.adam_step(params, slots, pt.lr_at(1, w.plan), w.plan)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return {"forward_live_mb": live / MB, "backward_peak_mb": peak / MB,
            "after_adam_mb": after / MB}


def pass_faults(seed: int, passes: int, policy: bool) -> list:
    """Minor page faults of each of the workload's first passes."""
    if not policy:
        ad._keep_freed_memory = lambda: None
    faults = []
    with tempfile.TemporaryDirectory() as workdir:
        w = desk(seed, workdir)
        for _ in range(passes):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            w.run_pass(wls.Tally())
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--faults", choices=("policy", "no-policy"),
                        help="in this process, print the faults per pass as JSON")
    args = parser.parse_args()
    if args.faults:
        print(json.dumps(pass_faults(args.seed, args.passes, args.faults == "policy")))
        return
    step = traced_step(args.seed)
    print(f"traced MB live after forward   {step['forward_live_mb']:8.1f}")
    print(f"traced MB peak in backward     {step['backward_peak_mb']:8.1f}")
    print(f"traced MB live after Adam      {step['after_adam_mb']:8.1f}")
    for mode in ("policy", "no-policy"):
        out = subprocess.run([sys.executable, __file__, "--faults", mode, "--seed",
                              str(args.seed), "--passes", str(args.passes)],
                             check=True, capture_output=True, text=True).stdout
        print(f"ru_minflt per pass, {mode:9}  " + " ".join(map(str, json.loads(out))))


if __name__ == "__main__":
    main()
