"""Outside-in benchmark for wiretapnc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one closed-loop, single-client workload (construct, analyze,
crosscheck or cli; see `workloads.py`): one operation at a time from one
process, and for cli at most one child process at a time.  The seed makes
the workload's inputs; the program receives only those inputs, as JSON.

A pass runs the workload's fixed operation list once.  Passes repeat while
the next one is expected to end within `--seconds` (at least one pass runs);
every output of every pass is checked.  Every timing is taken in reference
seconds, with the host's speed around it divided out (see `calibrate.py`).
With `--trace 0` the last line of standard output carries the end-to-end
metrics, measured with no wrappers installed.  With `--trace 1` the same
untraced passes run, then one more pass runs with spans installed on every
`wiretapnc` layer (see `spans.py`), and the last line carries the per-layer
metrics.  The line before the last carries run metadata: commit, seed,
versions, core count, load average at start, pass and sample counts.

Exit status is 0 when the run completed, whether or not outputs were
correct (`correct`, `attempted` and `failed` report that), and non-zero
without a result line when the program cannot be found or the run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import spans
import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT
SRC = workloads.SRC
WORK = HERE / "_work"
# set-up probes before the first pass; one more follows every pass, so the
# probes sample the same stretch of time as the passes
SETUP_PROBES = 4
IMPORT_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "pass_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "gf.ops": "count", "gf.self_s": "s", "gf.ns_per_op": "ns", "gf.ext_share": "1",
    "fmatrix.matrices": "count", "fmatrix.eliminations": "count", "fmatrix.self_s": "s",
    "fmatrix.us_per_elimination": "us",
    "securecode.candidates": "count", "securecode.accept_ratio": "1",
    "securecode.checks": "count", "securecode.subsets": "count", "securecode.self_s": "s",
    "equivocation.subsets": "count", "equivocation.us_per_subset": "us",
    "equivocation.self_s": "s",
    "oracle.tables": "count", "oracle.outcomes": "count", "oracle.observations": "count",
    "oracle.table_s": "s", "oracle.observe_s": "s", "oracle.self_s": "s",
    "coset.encodes": "count", "coset.self_s": "s",
    "netgraph.coding_matrices": "count", "netgraph.flows_s": "s", "netgraph.self_s": "s",
    "serialize.self_s": "s", "serialize.bytes": "bytes",
    "cli.import_s": "s", "cli.command_s": "s", "cli.self_s": "s",
    "bench.self_s": "s", "traced_pass_s": "s", "tracing_overhead": "1",
    "trace.spans": "count", "fail_ratio": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---- run metadata ----

def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "wiretapnc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def run_metadata(workload, seed, seconds, trace, enum_cap_was_set):
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "enum_cap_env_removed": enum_cap_was_set,
    }


# ---- fresh-process probes ----

def probe(*argv):
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv[0]} failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def median_probe(count, *argv):
    probe(*argv)  # warm the bytecode and file caches
    return statistics.median(probe(*argv) for _ in range(count))


# ---- passes ----

def run_pass(ops):
    """Run every operation once.  Returns (wall seconds of the operations,
    their latencies in reference seconds, outputs); an operation that raised
    has its exception as output."""
    wall_s, latencies, outputs = 0.0, [], []
    for out, wall, ref in calibrate.timed_calls(op.run for op in ops):
        wall_s += wall
        latencies.append(ref)
        outputs.append(out)
    return wall_s, latencies, outputs


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all order
    statistics, weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.  Unlike
    a single order statistic it does not jump when the quantile sits at a
    gap between groups of operations of different cost."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    grid = np.linspace(0.0, 1.0, 20_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def check_pass(ops, outputs, failures):
    failed = 0
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            try:
                reason = op.check(out)
            except Exception as exc:  # a check that cannot run is a failure
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failed += 1
            failures.append(f"{op.name}: {reason}")
    return failed


def peak_rss_mb(include_children):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


# ---- traced pass ----

def traced_pass(workload, state, ctx, operations):
    """One pass with spans on every layer.  Returns (seconds, span summary,
    operations, outputs); the spans go to the workload's trace.npz."""
    trace_path = WORK / workload / "trace.npz"
    if workload != "cli":
        tracer = spans.Tracer()
        ops = operations(state, ctx)
        tracer.install()
        try:
            seconds, _, outputs = run_pass(ops)
        finally:
            tracer.uninstall()
        tracer.write(trace_path)
        return seconds, tracer.summary(), ops, outputs

    child_dir = WORK / workload / "spans"
    child_dir.mkdir(parents=True, exist_ok=True)

    def wrap_argv(i, argv):
        return [sys.executable, str(HERE / "child.py"), "cli",
                str(child_dir / f"{i:04d}.json"), "--"] + argv

    traced_ctx = workloads.Context(ctx.wn, ctx.work, ctx.expected, wrap_argv)
    ops = operations(state, traced_ctx)
    seconds, _, outputs = run_pass(ops)
    summaries, parts = [], []
    for i in range(len(ops)):
        path = child_dir / f"{i:04d}.json"
        with open(path) as fh:
            summaries.append(json.load(fh))
        parts.append(str(path) + ".npz")
    merge_child_traces(parts, trace_path)
    return seconds, spans.merge(summaries), ops, outputs


def merge_child_traces(parts, out):
    """One trace file for a traced CLI pass: every child's spans, with the
    child's position in the pass as `proc`."""
    import numpy as np

    names, cols = [], {k: [] for k in ("proc", "name", "parent", "start", "end")}
    for proc, part in enumerate(parts):
        with np.load(part) as z:
            cols["proc"].append(np.full(len(z["name"]), proc, dtype=np.int32))
            cols["name"].append(z["name"] + len(names))
            cols["parent"].append(z["parent"])
            cols["start"].append(z["start"])
            cols["end"].append(z["end"])
            names += z["names"].tolist()
    np.savez_compressed(out, names=np.array(names),
                        **{k: np.concatenate(v) for k, v in cols.items()})


def cli_command_s(state, ctx):
    """Median in-process time of `cli.main(argv)` over the CLI sequence."""
    import wiretapnc.cli

    times = []
    sink = io.StringIO()
    for argv, _ in workloads.cli_sequence(ctx.work, state):
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            wiretapnc.cli.main(argv)
            times.append(time.perf_counter() - start)
        sink.seek(0)
        sink.truncate()
    return statistics.median(times)


def layer_metrics(summary, traced_s, untraced_s, import_s, command_s, fail_ratio):
    self_s, incl, counts = summary["self_s"], summary["inclusive_s"], summary["counts"]

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    values = {
        "gf.ops": counts.get("gf.ops", 0),
        "gf.self_s": self_s.get("gf", 0.0),
        "gf.ns_per_op": ratio(self_s.get("gf", 0.0), counts.get("gf.ops", 0), 1e9),
        "gf.ext_share": ratio(counts.get("gf.ext_ops", 0), counts.get("gf.ops", 0)),
        "fmatrix.matrices": counts.get("fmatrix.matrices", 0),
        "fmatrix.eliminations": counts.get("fmatrix.eliminations", 0),
        "fmatrix.self_s": self_s.get("fmatrix", 0.0),
        "fmatrix.us_per_elimination": ratio(self_s.get("fmatrix", 0.0),
                                            counts.get("fmatrix.eliminations", 0), 1e6),
        "securecode.candidates": counts.get("securecode.candidates", 0),
        "securecode.accept_ratio": ratio(counts.get("securecode.edges", 0),
                                         counts.get("securecode.candidates", 0)),
        "securecode.checks": counts.get("securecode.checks", 0),
        "securecode.subsets": counts.get("securecode.subsets", 0),
        "securecode.self_s": self_s.get("securecode", 0.0),
        "equivocation.subsets": counts.get("equivocation.subsets", 0),
        "equivocation.us_per_subset": ratio(incl.get("equivocation", 0.0),
                                            counts.get("equivocation.subsets", 0), 1e6),
        "equivocation.self_s": self_s.get("equivocation", 0.0),
        "oracle.tables": counts.get("oracle.tables", 0),
        "oracle.outcomes": counts.get("oracle.outcomes", 0),
        "oracle.observations": counts.get("oracle.observations", 0),
        "oracle.table_s": incl.get("oracle.table_s", 0.0),
        "oracle.observe_s": incl.get("oracle.observe_s", 0.0),
        "oracle.self_s": self_s.get("oracle", 0.0),
        "coset.encodes": counts.get("coset.encodes", 0),
        "coset.self_s": self_s.get("coset", 0.0),
        "netgraph.coding_matrices": counts.get("netgraph.coding_matrices", 0),
        "netgraph.flows_s": incl.get("netgraph.flows_s", 0.0),
        "netgraph.self_s": self_s.get("netgraph", 0.0),
        "serialize.self_s": self_s.get("serialize", 0.0),
        "serialize.bytes": counts.get("serialize.bytes", 0),
        "cli.import_s": import_s,
        "cli.command_s": command_s,
        "cli.self_s": self_s.get("cli", 0.0),
        "bench.self_s": traced_s - sum(self_s.values()),
        "traced_pass_s": traced_s,
        "tracing_overhead": ratio(traced_s, untraced_s),
        "trace.spans": summary["spans"],
        "fail_ratio": fail_ratio,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


# ---- one run ----

def run_workload(workload, seed, seconds, trace, expected=None):
    """Run one workload and return (metadata, result).  `expected` replaces
    the recorded values of `expected.json` (the self-tests use this)."""
    prepare, load, operations = workloads.WORKLOADS[workload]
    enum_cap_was_set = os.environ.pop("WIRETAP_NC_ENUM_CAP", None) is not None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    meta = run_metadata(workload, seed, seconds, trace, enum_cap_was_set)
    # the run and its child processes share one core, so the calibration
    # around each timing measures the core the timed work ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prepare(seed, work)
    setup_probe = ("setup", workload, str(work))
    probe(*setup_probe)  # warm the bytecode and file caches
    setup_times = [probe(*setup_probe) for _ in range(SETUP_PROBES)]

    import wiretapnc
    import wiretapnc.serialize  # noqa: F401

    ctx = workloads.Context(wiretapnc, work, expected or workloads.load_expected())
    state = load(work, wiretapnc)
    ops = operations(state, ctx)

    wall_times, pass_latencies, failures = [], [], []
    attempted = failed = 0
    started = last = time.perf_counter()
    # start a pass only while it is expected to end within the run time
    while not wall_times or 2 * time.perf_counter() - last - started <= seconds:
        last = time.perf_counter()
        wall_s, lat, outputs = run_pass(ops)
        wall_times.append(wall_s)
        pass_latencies.append(lat)
        attempted += len(ops)
        failed += check_pass(ops, outputs, failures)
        setup_times.append(probe(*setup_probe))

    # each operation's latency is its median over the passes; a pass's time
    # is the sum of those, and the percentiles are taken over them
    latencies = [statistics.median(per_op) for per_op in zip(*pass_latencies)]
    # the middle of an operation list has gaps between groups of operations
    # of different cost, so p50 is estimated smoothly; p90 is the order
    # statistic, because smoothing it would reach the few large instances
    # at the top
    peak_mb = peak_rss_mb(include_children=workload == "cli")
    p50 = hd_quantile(latencies, 0.5)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    meta.update(passes=len(wall_times), ops_per_pass=len(ops), samples=len(latencies),
                samples_above_p90=sum(x > p90 for x in latencies),
                pass_s_all=[sum(lat) for lat in pass_latencies], wall_pass_s_all=wall_times,
                setup_s_all=setup_times)
    if trace:
        traced_s, summary, traced_ops, outputs = traced_pass(workload, state, ctx, operations)
        attempted += len(traced_ops)
        failed += check_pass(traced_ops, outputs, failures)
        import_s = median_probe(IMPORT_PROBES, "import")
        command_s = cli_command_s(state, ctx) if workload == "cli" else 0.0
        metrics = layer_metrics(summary, traced_s, statistics.median(wall_times),
                                import_s, command_s, failed / attempted)
        meta.update(trace_file=str((WORK / workload / "trace.npz").relative_to(ROOT)))
    else:
        metrics = {
            "pass_s": sum(latencies),
            "op_ms_p50": p50 * 1e3,
            "op_ms_p90": p90 * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    meta.update(fail_ratio=failed / attempted, failures=failures[:20])
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return meta, result


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wiretapnc" / "__init__.py").is_file():
        print(f"error: no wiretapnc sources under {SRC}", file=sys.stderr)
        return 2
    meta, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
