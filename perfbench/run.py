"""Benchmark of the four user paths of c2quadrics.

    python3 perfbench/run.py --workload {products,restrict,audit,basis,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in its own fresh process, as a closed loop
with one client.  With ``--trace 0`` the run prints the end-to-end metrics
(throughput, median and tail latency, set-up time, peak RSS, share of ops
that succeeded); with ``--trace 1`` it prints the per-layer metrics of a
traced run of a fixed batch (``--seconds`` is not used).  Set-up time is the
median of several fresh processes, each importing the package and building
the workload's presentations.

The next-to-last line of output is a run stamp; the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit status is 0 only when every answer check and the pinned-seed
answer gate passed.  See NOTES.md for the workloads and the known defect.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("products", "restrict", "audit", "basis")
SETUP_PROBES = 6
DEADLINE_S = 170.0

END_TO_END = (
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "1"),
)


def source_id():
    """Git commit of the checkout if it is a repository, and a hash of the package source."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "c2quadrics")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read())
    return sha, h.hexdigest()[:16]


def worker(args, deadline):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + [str(a) for a in args]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("worker %s exited with status %d" % (" ".join(map(str, args)), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, deadline):
    """(stamp, result) of one workload, each part of it in a fresh process."""
    out = worker(["run", name, seed, seconds, int(trace), os.path.join(ROOT, ".bench_out")], deadline)
    correct = out["gate_ok"] and out["wrong"] == 0
    stamp = {
        "workload": name,
        "seed": seed,
        "ops": out["attempted"],
        "failed": out["failed"],
        "errors": out["errors"],
        "error_ratio": out["failed"] / out["attempted"],
        "tail_percentile": out["tail_percentile"],
        "tail_samples_beyond": out["tail_samples_beyond"],
        "gate_ok": out["gate_ok"],
        "gate_digest": out["gate_digest"],
        "run_digest": out["digest"],
    }
    if trace:
        metrics = out["per_layer"]
        stamp.update(
            throughput_untraced=out["throughput_untraced"],
            throughput_traced=out["throughput_traced"],
            coverage_missing=out["coverage_missing"],
            spans=out["spans"],
            spans_file=out["spans_file"],
        )
        correct = correct and not out["coverage_missing"]
    else:
        setups = [worker(["setup", name], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        setups.append(out["setup_s"])
        values = {
            "throughput_ops_s": out["throughput_ops_s"],
            "latency_p50_ms": out["latency_p50_ms"],
            "latency_tail_ms": out["latency_tail_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_mb"],
            "ok_ratio": 1.0 - stamp["error_ratio"],
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
        stamp.update(
            throughput_untraced=out["throughput_ops_s"],
            wall=out["wall"],
            probe_median_s=out["probe_median_s"],
            setup_samples_s=setups,
            rounds=out["rounds"],
        )
    result = {"correct": bool(correct), "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}
    return stamp, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "c2quadrics", "__init__.py")):
        print("perfbench: no package source at %s; run from a c2quadrics checkout" % SRC, file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    sha, src_sha = source_id()
    base = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha": src_sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            stamp, result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print("perfbench: %s: %s" % (name, exc), file=sys.stderr)
            return 1
        print(json.dumps({"stamp": dict(base, **stamp)}))
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s.%s" % (n, m): v for n, r in results for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
