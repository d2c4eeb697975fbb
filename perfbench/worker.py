"""One workload in a fresh process; prints one JSON object on stdout.

    worker.py setup WORKLOAD
        import the package and build the workload's presentations; report
        the time taken, in reference seconds (one ``setup_s`` sample).
    worker.py run WORKLOAD SEED SECONDS TRACE OUTDIR
        set up, run the pinned-seed answer gate, then either time
        ceil(SECONDS / round_s) whole rounds (TRACE 0), or (TRACE 1) time
        a fixed batch of ops untraced and the next batch traced, writing
        the spans to OUTDIR.

The package must come from ``src/`` beside this directory; run.py sets
PYTHONPATH and PYTHONHASHSEED for that.
"""

import gc
import gzip
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PINNED = os.path.join(HERE, "digests.json")
# highest percentile with at least ten samples beyond it is taken from this
# ladder, so that runs with similar op counts report the same percentile
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# The shared CPU of a small sandbox runs the same Python code up to ~1.9x
# faster or slower from one minute to the next, and CPU time tracks wall
# time, so the variation is in the speed of the machine, not in scheduling.
# Timed runs therefore take a speed probe (a fixed dict-and-tuple workload
# that shares no code with the package) every PROBE_EVERY_S of op time, and
# report each op's time in reference seconds: its wall time scaled by
# REF_PROBE_S over the mean of the probes before and after it.  REF_PROBE_S
# is the probe's usual time on a 2-core x86-64 sandbox with Python 3.11.7.
REF_PROBE_S = 0.0018
PROBE_EVERY_S = 0.25


def _probe_work():
    a = {(i, i % 7, "p"): i for i in range(60)}
    b = list(a.items())[:20]
    for _ in range(3):
        out = {}
        for k1, v1 in a.items():
            for k2, v2 in b:
                k = (k1[0] + k2[0], k1[1] * k2[1] % 5, "p")
                out[k] = out.get(k, 0) + v1 * v2


def speed_probe():
    """Best of three timings of the probe workload, with the collector off."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = clock()
            _probe_work()
            best = min(best, clock() - t0)
    finally:
        gc.enable()
    return best


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail(sorted_values):
    """(percentile, value, samples beyond) for the latency tail."""
    n = len(sorted_values)
    for p in TAIL_LADDER:
        beyond = n - max(1, math.ceil(p / 100.0 * n))
        if beyond >= 10:
            return p, percentile(sorted_values, p), beyond
    return 100.0, sorted_values[-1], 0


class Result:
    """Outcome of a sequence of ops: op times, failures and the answer digest."""

    def __init__(self):
        self.lat = []
        self.failed = 0
        self.wrong = 0
        self.errors = {}
        self.digest = hashlib.sha256()
        # speed probes, and for each op the index of the probe before it
        self.probes = [speed_probe()]
        self.interval = []
        self._since_probe = 0.0

    def record(self, dt, outcome, status="ok"):
        """Add one op: its wall time, the canonical text of its answer, and
        whether it passed ("ok"), raised, or failed its check ("wrong")."""
        self.lat.append(dt)
        self.failed += status != "ok"
        self.wrong += status == "wrong"
        self.digest.update(outcome.encode() + b"\n")
        self.interval.append(len(self.probes) - 1)
        self._since_probe += dt
        if self._since_probe >= PROBE_EVERY_S:
            self.probes.append(speed_probe())
            self._since_probe = 0.0

    def ref_latencies(self):
        """Op times in reference seconds."""
        if self.interval[-1] == len(self.probes) - 1:
            self.probes.append(speed_probe())
        scale = [2 * REF_PROBE_S / (a + b) for a, b in zip(self.probes, self.probes[1:])]
        return [dt * scale[k] for dt, k in zip(self.lat, self.interval)]

    def summary(self):
        lat = sorted(self.ref_latencies())
        busy = sum(lat)
        pct, tail_value, beyond = tail(lat)
        wall = sorted(self.lat)
        return {
            "attempted": len(lat),
            "failed": self.failed,
            "wrong": self.wrong,
            "errors": self.errors,
            "busy_s": busy,
            "throughput_ops_s": len(lat) / busy,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": tail_value * 1e3,
            "tail_percentile": pct,
            "tail_samples_beyond": beyond,
            "wall": {
                "busy_s": sum(wall),
                "throughput_ops_s": len(wall) / sum(wall),
                "latency_p50_ms": statistics.median(wall) * 1e3,
                "latency_tail_ms": percentile(wall, pct) * 1e3,
            },
            "probe_median_s": statistics.median(self.probes) if self.probes else None,
            "digest": self.digest.hexdigest(),
        }


def run_ops(wl, ctx, ops, res, tracer=None):
    """Closed loop, one client: each op starts when the previous one ends.

    Only ``wl.run`` is timed; the answer check runs after the clock stops.
    An op that raises or fails its check counts as failed.
    """
    for op in ops:
        t0 = clock()
        try:
            if tracer is None:
                out = wl.run(ctx, op)
            else:
                out = tracer.call_op(len(res.lat), wl.run, ctx, op)
        except Exception as exc:  # a failed op is a result, not a crash
            dt = clock() - t0
            name = type(exc).__name__
            res.errors[name] = res.errors.get(name, 0) + 1
            res.record(dt, "raised %s" % name, "raised")
            continue
        dt = clock() - t0
        try:
            ok, text = wl.check(ctx, op, out)
        except Exception as exc:  # a check that cannot run is a wrong answer
            ok, text = False, "check raised %s: %s" % (type(exc).__name__, exc)
        res.record(dt, text, "ok" if ok else "wrong")


def gate(wl, ctx, seed):
    """Answers of the pinned-seed ops and the workload's fixed checks."""
    ops = itertools.islice(itertools.chain.from_iterable(wl.rounds(ctx, seed)), wl.gate_ops)
    res = Result()
    run_ops(wl, ctx, ops, res)
    for ok, text in wl.gate(ctx):
        res.record(0.0, text, "ok" if ok else "wrong")
    return res


def main(argv):
    mode, name = argv[1], argv[2]
    probe0 = speed_probe()
    t0 = clock()
    import workloads  # imports the package: part of set-up

    wl = workloads.WORKLOADS[name]
    ctx = wl.setup()
    setup_s = (clock() - t0) * 2 * REF_PROBE_S / (probe0 + speed_probe())
    origin = os.path.realpath(workloads.cq.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        print("perfbench: c2quadrics imported from %s, not from %s" % (origin, SRC), file=sys.stderr)
        return 2
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    seed, seconds, trace, outdir = int(argv[3]), float(argv[4]), argv[5] == "1", argv[6]
    with open(PINNED) as fh:
        pinned = json.load(fh)
    wl.prepare(ctx)
    g = gate(wl, ctx, pinned["pinned_seed"])
    out = {"workload": name, "seed": seed, "setup_s": setup_s, "gate_digest": g.digest.hexdigest()}
    out["gate_ok"] = g.wrong == 0 and out["gate_digest"] == pinned.get(name)
    rounds = wl.rounds(ctx, seed)

    if not trace:
        res, n = Result(), max(1, math.ceil(seconds / wl.round_s))
        for _ in range(n):
            run_ops(wl, ctx, next(rounds), res)
        out.update(res.summary(), rounds=n, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        print(json.dumps(out))
        return 0

    import tracer as tracing

    ops = itertools.chain.from_iterable(rounds)
    batches = [list(itertools.islice(ops, wl.trace_ops)) for _ in range(2)]
    plain = Result()
    run_ops(wl, ctx, batches[0], plain)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = Result()
        run_ops(wl, ctx, batches[1], traced, tr)
    finally:
        tr.uninstall()
    layer = tr.metrics()
    specs = tracing.metric_specs()
    os.makedirs(outdir, exist_ok=True)
    spans_file = os.path.join(outdir, "spans-%s-seed%d.json.gz" % (name, seed))
    with gzip.open(spans_file, "wt") as fh:
        json.dump({"fields": ["op", "name", "start", "end", "parent"], "spans": tr.spans}, fh)
    untraced = plain.summary()
    out.update(
        traced.summary(),
        per_layer={m: {"value": layer[m], "unit": unit} for m, unit, _ in specs},
        coverage_missing=[m for m, _, on in specs if name in on and not layer[m]],
        throughput_untraced=untraced["throughput_ops_s"],
        spans=len(tr.spans),
        spans_file=os.path.relpath(spans_file, os.path.dirname(HERE)),
    )
    out["throughput_traced"] = out["throughput_ops_s"]
    for key in ("attempted", "failed", "wrong"):
        out[key] += untraced[key]
    for key, n in plain.errors.items():
        out["errors"][key] = out["errors"].get(key, 0) + n
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
