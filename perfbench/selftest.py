"""Self-test of the benchmark: metric lists, answer gate, wrapper coverage.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that

- BENCHMARK.json names exactly the metrics that run.py and tracer.py emit;
- every workload's pinned-seed gate passes, and a tiny batch of its ops
  runs and passes its answer checks (smoke run);
- a fault injected into a single op (a wrapped function that drops one
  term or one monomial of its result) makes the gate fail;
- the traced tiny batches together read non-zero on every per-layer
  counter that a workload is declared to move;
- two traced runs with one seed give identical counts, and run.py prints a
  result line with exactly the contract keys;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  with a non-zero status and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if os.environ.get("PYTHONHASHSEED") != "0":
    # the pinned digests are taken with a fixed string-hash seed
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    os.execve(sys.executable, [sys.executable] + sys.argv, env)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from c2quadrics import catalog, rewrite  # noqa: E402

FAILURES = []


def expect(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        FAILURES.append(what)


def check_metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    expect(declared == [(m, u) for m, u, _ in tracer.metric_specs()], "BENCHMARK.json per_layer matches tracer.py")
    declared = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    expect(declared == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json workloads match run.py")


def drop_one(result):
    """Copy of a result with one term (or list entry) removed."""
    if isinstance(result, list):
        return result[1:]
    out = rewrite.RingElement(result.pres, result.level)
    out.c2, out.atoms, out.e = dict(result.c2), dict(result.atoms), dict(result.e)
    for part in (out.c2, out.atoms, out.e):
        if part:
            part.pop(next(iter(part)))
            break
    return out


# function whose result the fault corrupts, per workload
FAULT_SITES = {
    "products": (rewrite.Presentation, "normal_form"),
    "restrict": (rewrite.Presentation, "normal_form"),
    "audit": (rewrite.Presentation, "normal_form"),
    "basis": (catalog, "_enumerate_coset_monomials"),
}


def inject_fault(wl, owner, attr, op_index):
    """Make ``attr`` drop one term of every result during op ``op_index`` only."""
    original = getattr(owner, attr)
    state = {"op": -1}

    def faulty(*args, **kwargs):
        out = original(*args, **kwargs)
        return drop_one(out) if state["op"] == op_index else out

    def counting_run(ctx, op):
        state["op"] += 1
        return type(wl).run(wl, ctx, op)

    setattr(owner, attr, faulty)
    wl.run = counting_run

    def restore():
        setattr(owner, attr, original)
        del wl.run

    return restore


def check_workloads(pinned):
    nonzero = set()
    for name, wl in workloads.WORKLOADS.items():
        ctx = wl.setup()
        wl.prepare(ctx)
        g = worker.gate(wl, ctx, pinned["pinned_seed"])
        expect(g.wrong == 0 and g.digest.hexdigest() == pinned[name], "%s: pinned-seed gate passes" % name)

        # tiny batch: the first op of each kind in a round, at least two ops
        first = next(wl.rounds(ctx, 1))
        kinds = {}
        for op in first:
            kinds.setdefault(op[0], op)
        ops = list(kinds.values()) if len(kinds) > 1 else first[:2]
        res = worker.Result()
        worker.run_ops(wl, ctx, ops, res)
        expect(res.wrong == 0 and len(res.lat) == len(ops), "%s: smoke run of %d ops" % (name, len(ops)))

        owner, attr = FAULT_SITES[name]
        restore = inject_fault(wl, owner, attr, op_index=wl.gate_ops - 1)
        try:
            bad = worker.gate(wl, ctx, pinned["pinned_seed"])
        finally:
            restore()
        expect(bad.digest.hexdigest() != pinned[name], "%s: a fault in one op fails the gate" % name)

        tr = tracer.Tracer()
        tr.install()
        try:
            worker.run_ops(wl, ctx, ops, worker.Result(), tr)
        finally:
            tr.uninstall()
        nonzero.update(m for m, v in tr.metrics().items() if v)
    required = {m for m, _, on in tracer.metric_specs() if on}
    expect(not required - nonzero, "every declared per-layer counter reads non-zero on some workload %s"
           % sorted(required - nonzero))


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_runs():
    counts = []
    for _ in range(2):
        proc = bench(["--workload", "restrict", "--seed", "5", "--seconds", "1", "--trace", "1"])
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    expect(counts[0] == counts[1], "traced counts repeat exactly for one seed")

    proc = bench(["--workload", "restrict", "--seed", "2", "--seconds", "1", "--trace", "0"])
    last = json.loads(proc.stdout.splitlines()[-1])
    expect(proc.returncode == 0 and sorted(last) == ["attempted", "correct", "failed", "metrics"]
           and sorted(last["metrics"]) == sorted(m for m, _ in run.END_TO_END), "run.py result line")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", "products", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(), "no result without the package source")


def main():
    with open(worker.PINNED) as fh:
        pinned = json.load(fh)
    check_metric_lists()
    check_workloads(pinned)
    check_runs()
    print("selftest: %s" % ("FAILED: %d" % len(FAILURES) if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
