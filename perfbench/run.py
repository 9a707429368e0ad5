"""Benchmark for gibbskit: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; gibbskit is imported from ./src.
Workloads (see workloads.py): sweep, notation, check, cli.

With --trace 0 the run measures the end-to-end metrics: set-up several
times in fresh processes, then operations in a closed loop with one client
for --seconds.  Times are CPU time of the process doing the work, because
wall time on a shared host also counts the time other tenants hold the
CPU.  Operation times are scaled to the host's speed measured alongside
the work (speed.py); raw CPU and wall figures go to the run record.

With --trace 1 it first runs a fixed number of operations with every public
gibbskit function wrapped (tracer.py), so the counts repeat exactly for a
seed, then the same workload untraced for --seconds; the per-layer metrics
and the tracing overhead come from the two.

The last line of stdout is the result as JSON; the line before it is the
run record (interpreter, nproc, seed, sample counts, tail percentile,
source hash).  Records and spans are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

# Write bytecode caches even when the environment says not to, so the
# processes this run starts import gibbskit as an installed package would.
sys.dont_write_bytecode = False

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_NS, Speed  # noqa: E402
from workloads import ROOT, SRC, run_child  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_RUNS = 9
STARTUP_RUNS = 7
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def import_gibbskit():
    sys.path.insert(0, str(SRC))
    import gibbskit  # noqa: F401
    import gibbskit.checks
    import gibbskit.cli

    return gibbskit


def ops_per_s(cpu_ns):
    """Operations completed per CPU-second of operation time."""
    return len(cpu_ns) / (sum(cpu_ns) / 1e9)


def tail(samples_ms):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above it."""
    n = len(samples_ms)
    ordered = sorted(samples_ms)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return {"percentile": p, "ms": ordered[rank - 1], "samples_beyond": n - rank, "samples": n}
    return None


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, wl, i, traced=None):
        self.attempted += 1
        try:
            err, cpu, wall = wl.run(i, traced)
        except Exception as exc:  # a verification crash still counts as a failure
            err, cpu, wall = f"verification raised {type(exc).__name__}: {exc}", 0, 0
        if err is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"op {i}: {err}")
        return cpu, wall


def closed_loop(wl, tally, start, seconds, speed):
    """Operations start..; the next starts when the last returns, until --seconds pass."""
    cpu, wall = [], []
    deadline = time.perf_counter() + seconds
    i = start
    while not cpu or time.perf_counter() < deadline:
        c, w = tally.run(wl, i)
        if not wl.in_process:
            speed.after_child(c)
        cpu.append(c)
        wall.append(w)
        i += 1
    return cpu, wall


def measure_setup(wl, workdir):
    payload = workdir / "setup.json"
    payload.write_text(json.dumps(wl.setup_payload()), encoding="utf-8")
    argv = [sys.executable, str(HERE / "setup_child.py"), str(payload), *wl.imports]
    cpu, wall = [], []
    for _ in range(SETUP_RUNS):
        proc, c, w = run_child(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr}")
        cpu.append(c / 1e9)
        wall.append(w / 1e9)
    payload.unlink()
    return cpu, wall


def measure_startup():
    """CPU ms of a bare interpreter, and of importing gibbskit.cli beyond it."""
    bare, imported = [], []
    for _ in range(STARTUP_RUNS):
        bare.append(run_child([sys.executable, "-c", "pass"])[1] / 1e6)
        imported.append(run_child([sys.executable, "-c", "import gibbskit.cli"])[1] / 1e6)
    return median(bare), median(imported) - median(bare)


def peak_rss_mb(wl):
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


class ChildSpans:
    """Sums the tracer summaries that traced CLI children send back."""

    def __init__(self):
        self.summary: dict = {}
        self.spans: list = []
        self.dropped = 0
        self._offset = 0

    def add(self, doc):
        rows = doc.pop("span_rows")
        self.dropped += doc.pop("dropped")
        off = self._offset
        for sid, parent, name, start, end in rows:
            if len(self.spans) < tracing.MAX_SPANS:
                self.spans.append((sid + off, parent + off if parent else 0, name, start, end))
            else:
                self.dropped += 1
        self._offset += max((r[0] for r in rows), default=0)
        for key, value in doc.items():
            if isinstance(value, dict):
                into = self.summary.setdefault(key, {})
                for k, v in value.items():
                    into[k] = into.get(k, 0) + v
            else:
                self.summary[key] = self.summary.get(key, 0) + value


def traced_phase(wl, tally):
    """wl.trace_ops operations from op 0 with every layer wrapped."""
    cpu = []
    if not wl.in_process:
        sink = ChildSpans()
        for i in range(wl.trace_ops):
            cpu.append(tally.run(wl, i, traced=sink.add)[0])
        return cpu, sink.summary, sink.spans, sink.dropped
    tr = tracing.Tracer()
    tr.install()
    try:
        for i in range(wl.trace_ops):
            cpu.append(tally.run(wl, i)[0])
    finally:
        tr.uninstall()
    return cpu, tr.summary(), tr.spans, tr.dropped


def per_layer(summary, ops, startup, overhead):
    calls = summary["calls"]
    self_ns = summary["self_ns"]

    def per_op(n):
        return n / ops

    def us(group):
        return self_ns.get(group, 0) / ops / 1000.0

    def ratio(distinct, total):
        return distinct / total if total else 1.0

    interpreter_ms, import_ms = startup
    m = {
        "ga.product.calls": (per_op(summary["product_calls"]), "count"),
        "ga.multivector_new.calls": (per_op(summary["multivector_new"]), "count"),
        "ga.self_us": (us("ga"), "us"),
        "dyadics.calls": (per_op(tracing.layer_calls(calls, "dyadics")), "count"),
        "dyadics.self_us": (us("dyadics"), "us"),
        "fields.grad_gibbs.calls": (per_op(summary["grad_gibbs_calls"]), "count"),
        "fields.grad_gibbs.useful_ratio": (
            ratio(summary["grad_gibbs_distinct"], summary["grad_gibbs_calls"]),
            "ratio",
        ),
        "fields.poly_diff.calls": (per_op(summary["poly_diff"]), "count"),
        "fields.poly_diff.useful_ratio": (
            ratio(summary["poly_diff_distinct"], summary["poly_diff"]),
            "ratio",
        ),
        "fields.poly_new.calls": (per_op(summary["poly_new"]), "count"),
        "fields.fd_grad.calls": (per_op(summary["fd_grad_calls"]), "count"),
        "fields.load.self_us": (us("fields.load"), "us"),
        "fields.self_us": (us("fields"), "us"),
        "kinematics.calls": (per_op(tracing.layer_calls(calls, "kinematics")), "count"),
        "kinematics.self_us": (us("kinematics"), "us"),
        "notation.tokenize.self_us": (us("notation.tokenize"), "us"),
        "notation.parse.self_us": (us("notation.parse"), "us"),
        "notation.evaluate.self_us": (us("notation.evaluate"), "us"),
        "notation.derived_resolve.calls": (per_op(summary["derived_resolve"]), "count"),
        "notation.rejects": (per_op(summary["rejects"]), "count"),
        "checks.self_us": (us("checks"), "us"),
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main.self_us": (us("cli.main"), "us"),
        "cli.load_field.self_us": (us("cli.load_field"), "us"),
        "trace.overhead_ops_per_s": (overhead, "1/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def source_identity():
    digest = hashlib.sha256()
    for path in sorted((SRC / "gibbskit").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return commit, digest.hexdigest()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        gk = import_gibbskit()
    except ImportError as exc:
        print(f"perfbench: cannot import gibbskit from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, gk, workdir / "cli") if cls is workloads.Cli else cls(args.seed, gk)
    tally = Tally()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": len(os.sched_getaffinity(0)),
        "clock": "process CPU time (user + system); operations scaled to reference speed",
        "client": "closed loop, one client, one thread",
    }
    speed = Speed()
    wl.clock, wl.quiet = speed.work_clock, speed.paused
    try:
        wl.build()
        setup_cpu, setup_wall = measure_setup(wl, workdir)
        if args.trace:
            startup = measure_startup()
            t_cpu, summary, spans, dropped = traced_phase(wl, tally)
            with speed.armed():
                u_cpu, _ = closed_loop(wl, tally, wl.trace_ops, args.seconds, speed)
            scale = speed.scale()
            traced_rate = ops_per_s(t_cpu) / scale
            untraced_rate = ops_per_s(u_cpu) / scale
            metrics = per_layer(summary, len(t_cpu), startup, untraced_rate - traced_rate)
            spans_path = OUT / f"spans-{args.workload}.json.gz"
            tracing.write_spans(spans_path, spans, dropped)
            record["traced"] = {
                "ops": len(t_cpu),
                "ops_per_s": traced_rate,
                "untraced_ops": len(u_cpu),
                "untraced_ops_per_s": untraced_rate,
                "spans": summary["spans"],
                "spans_written": len(spans),
                "spans_file": str(spans_path.relative_to(ROOT)),
            }
        else:
            with speed.armed():
                for i in range(wl.warmup):
                    tally.run(wl, i)
                cpu, wall = closed_loop(wl, tally, wl.warmup, args.seconds, speed)
            scale = speed.scale()
            lat_ms = [c / 1e6 for c in cpu]
            metrics = {
                "ops_per_s": {"value": ops_per_s(cpu) / scale, "unit": "1/s"},
                "latency_p50_ms": {"value": median(lat_ms) * scale, "unit": "ms"},
                # not scaled: the probe does not follow the speed of
                # fresh-process start-up measured nine at a time
                "setup_s": {"value": median(setup_cpu), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(wl), "unit": "MB"},
            }
            record["samples"] = len(cpu)
            record["warmup"] = wl.warmup
            record["latency_tail"] = tail([t * scale for t in lat_ms])
            record["raw_cpu"] = {
                "ops_per_s": ops_per_s(cpu),
                "latency_p50_ms": median(lat_ms),
            }
            record["wall"] = {
                "latency_p50_ms": median(wall) / 1e6,
                "ops_per_s": ops_per_s(wall),
                "setup_s": median(setup_wall),
            }
        record["setup_cpu_s"] = setup_cpu
        record["speed"] = {
            "scale": scale,
            "probes": len(speed.samples),
            "probe_mean_ms": REFERENCE_NS / scale / 1e6,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    commit, source_hash = source_identity()
    record.update(
        git_commit=commit,
        source_sha256=source_hash,
        attempted=tally.attempted,
        failed=tally.failed,
        fail_ratio=tally.failed / tally.attempted,
        failures=tally.failures,
    )
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"run_record": record}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
