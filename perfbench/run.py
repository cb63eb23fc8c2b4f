"""Benchmark of the cmforge pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports `cmforge` from `src/`.
One process, one thread, a closed loop with one caller: the next op starts
when the previous one has returned and its output has been checked.

A run executes a fixed number of rounds, `--seconds` divided by the
workload's nominal round time, so that every run of a workload, on any
commit, times the same schedule of inputs and the percentiles compare
like with like.  Each round holds every input of the workload as often as
its weight says, in an order drawn from the seed.

With `--trace 0` the last line of standard output is the result with the
end-to-end metrics: op_p50_s, op_tail_s (the sample with exactly ten
samples beyond it), ops_per_s, setup_s (median over fresh processes of the
time from process start to the first op) and peak_rss_mb.  With
`--trace 1` the first half of the rounds is run once untraced and once
with spans recorded at the layer boundaries (see spans.py), and the result
holds the per-layer metrics, the unattributed remainder and the tracing
overhead.  The line before the result holds the run's metadata, the
failures with their exception types and the output mismatches.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, op_rng

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run each workload's smallest inputs once (smoke test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def measure_setup(args):
    """Seconds from spawning a fresh process to its first op, per sample."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up probe exited with %s" % proc.returncode)
        samples.append(elapsed)
    return samples


class Phase:
    """Outcome of running a number of rounds."""

    def __init__(self):
        self.durations = []
        self.by_label = {}
        self.failures = []
        self.mismatches = []
        self.attempted = 0
        self.wall_s = 0.0


def run_rounds(workload, state, args, rounds, tracer=None):
    phase = Phase()
    start = time.perf_counter()
    for r in range(rounds):
        for pos, item in enumerate(workload.round_inputs(args.tiny, args.seed, r)):
            rng = op_rng(args.seed, r, pos)
            label = " ".join(str(x) for x in item)
            phase.attempted += 1
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    out = workload.op(state, item, rng)
                    dt = time.perf_counter() - t0
                else:
                    out, dt = tracer.op(workload.op, state, item, rng)
            except Exception as exc:
                phase.failures.append({"op": label, "round": r, "type": type(exc).__name__,
                                       "message": str(exc)})
                continue
            phase.durations.append(dt)
            phase.by_label.setdefault(label, []).append(dt)
            try:
                bad = workload.check(state, item, out)
            except Exception as exc:
                bad = [("check raised", None, "%s: %s" % (type(exc).__name__, exc))]
            for check, expected, actual in bad:
                phase.mismatches.append({"op": label, "seed": args.seed, "round": r,
                                         "check": check, "expected": repr(expected),
                                         "actual": repr(actual)})
    phase.wall_s = time.perf_counter() - start
    return phase


def tail(durations):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def timed_run(workload, state, args, rounds, meta):
    """The end-to-end metrics, with tracing off."""
    setup_samples = measure_setup(args)
    phase = run_rounds(workload, state, args, rounds)
    meta["setup_samples_s"] = setup_samples
    if not phase.durations:
        return (phase,), {}
    value, percentile, beyond = tail(phase.durations)
    meta["op_tail"] = {"percentile": percentile, "samples": len(phase.durations),
                       "beyond": beyond}
    meta["op_p50_by_input_s"] = {k: statistics.median(v)
                                 for k, v in sorted(phase.by_label.items())}
    metrics = {
        "op_p50_s": (statistics.median(phase.durations), "s"),
        "op_tail_s": (value, "s"),
        "ops_per_s": (len(phase.durations) / phase.wall_s, "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return (phase,), metrics


def traced_run(workload, state, args, rounds, meta):
    """The per-layer metrics: the first half of the rounds untraced, then
    the same rounds traced."""
    from spans import Tracer

    traced_rounds = max(1, (rounds + 1) // 2)
    plain = run_rounds(workload, state, args, traced_rounds)
    tracer = Tracer()
    tracer.install()
    try:
        phase = run_rounds(workload, state, args, traced_rounds, tracer)
    finally:
        tracer.uninstall()
    meta["traced_rounds"] = traced_rounds
    if not (plain.durations and phase.durations):
        return (plain, phase), {}
    metrics = tracer.layer_metrics()
    p50_plain = statistics.median(plain.durations)
    p50_traced = statistics.median(phase.durations)
    metrics["trace.untraced_op_p50_s"] = (p50_plain, "s")
    metrics["trace.op_p50_s"] = (p50_traced, "s")
    metrics["trace.overhead_s"] = (p50_traced - p50_plain, "s")
    attributed = sum(v for k, (v, _) in metrics.items()
                     if k.endswith(".self_s")) + metrics["trace.unattributed_s"][0]
    op_s = metrics["trace.op_s"][0]
    if abs(attributed - op_s) > 1e-6 * max(1.0, op_s):
        phase.mismatches.append({"op": "trace accounting", "seed": args.seed,
                                 "check": "layer self times + unattributed == op time",
                                 "expected": op_s, "actual": attributed})
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / ("%s.spans.tsv" % args.workload)
    tracer.write_spans(spans_path)
    meta["spans_file"] = str(spans_path.relative_to(ROOT))
    return (plain, phase), metrics


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "cmforge" / "__init__.py").is_file():
        print("perfbench: no cmforge sources under %s" % src, file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r, have %s"
              % (args.workload, sorted(WORKLOADS)), file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup()
        print("ready", flush=True)
        return 0

    state = workload.setup()
    rounds = 1 if args.tiny else workload.rounds(args.seconds)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "commit": git_commit(),
    }
    if args.trace:
        phases, metrics = traced_run(workload, state, args, rounds, meta)
    else:
        phases, metrics = timed_run(workload, state, args, rounds, meta)
    if not all(p.durations for p in phases):
        print("perfbench: every op failed: %s" % phases[-1].failures, file=sys.stderr)
        return 1

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    mismatches = [m for p in phases for m in p.mismatches]
    meta["failed_ratio"] = len(failures) / attempted
    meta["failures"] = failures
    meta["mismatches"] = mismatches
    print(json.dumps({"meta": meta}))
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
