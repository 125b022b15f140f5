"""Seeded benchmark of locweinstein: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the package is imported from its `src/`.
After a warm-up, the workload's fixed batch of queries repeats within a
budget of S seconds of query time.  Every answer is checked outside the
timed region, and the last line of stdout is one JSON object: with
--trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
metrics of one traced batch.  Exit status is 1 on a wrong answer and 2
when the checkout cannot be used.

Every reported time is scaled to the speed of a reference machine: a
fixed plain-Python calibration task is timed just before and just after
each stretch of measurement, and the measured time is multiplied by
REFERENCE_CALIBRATION_S over that task's time.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 7
WARMUP_S = 0.5
P90_MIN_QUERIES = 100
CALIBRATE_EVERY_S = 0.5
# What the calibration task took on the reference machine (perfbench/README.md).
REFERENCE_CALIBRATION_S = 0.0047


def fresh_import_s(module):
    """Seconds a fresh interpreter spends on `import module`."""
    code = ("import time; t = time.perf_counter(); import %s; "
            "print(repr(time.perf_counter() - t))" % module)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import {module} failed: {proc.stderr[-500:]}")
    return float(proc.stdout)


_rng = random.Random("calibration")
_CALIBRATION_ROWS = [[_rng.randint(-100, 100) for _ in range(32)] for _ in range(32)]


def _bareiss_det(rows):
    """Fraction-free determinant in plain Python: the calibration task.
    Like the library, it is interpreted integer arithmetic on lists."""
    a = [row[:] for row in rows]
    prev = 1
    for k in range(len(a) - 1):
        ak, piv = a[k], a[k][k]
        for ai in a[k + 1:]:
            aik = ai[k]
            for j in range(k + 1, len(a)):
                ai[j] = (ai[j] * piv - aik * ak[j]) // prev
        prev = piv
    return a[-1][-1]


def calibrate():
    """Seconds the calibration task takes now: the median of five runs."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _bareiss_det(_CALIBRATION_ROWS)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(seconds, before, after):
    """`seconds` at the reference machine's speed, given the calibration
    times taken just before and just after it was measured.  This
    machine's speed drifts by up to half over minutes; the calibration
    task, run on the same interpreter, drifts with it."""
    return seconds * 2 * REFERENCE_CALIBRATION_S / (before + after)


def scaled_median(seconds_of):
    """Median over SETUP_REPEATS calls of `seconds_of()`, each scaled."""
    times, before = [], calibrate()
    for _ in range(SETUP_REPEATS):
        seconds = seconds_of()
        after = calibrate()
        times.append(scale(seconds, before, after))
        before = after
    return statistics.median(times)


class Batch:
    """Outcome of one pass over the queries."""

    def __init__(self):
        self.wall = 0.0  # measured seconds, for the run's budget
        self.latencies = []  # scaled seconds per query
        self.failures = []  # (label, exception)
        self.results = []  # (query, result) of queries that returned


def run_batch(queries, tracer=None):
    batch = Batch()
    clock = time.perf_counter
    cals, last = [calibrate()], clock()
    measured, since = [], []  # since[i]: index of the calibration before query i
    for q in queries:
        if clock() - last >= CALIBRATE_EVERY_S:
            cals.append(calibrate())
            last = clock()
        since.append(len(cals) - 1)
        start = clock()
        try:
            if tracer is None:
                result = q.fn()
            else:
                result = tracer.wrap(f"query.{q.label}", q.fn)()
        except Exception as exc:  # counted in fail_ratio, never skipped
            batch.failures.append((q.label, exc))
        else:
            batch.results.append((q, result))
        measured.append(clock() - start)
    cals.append(calibrate())
    batch.wall = sum(measured)
    batch.latencies = [scale(t, cals[k], cals[k + 1])
                       for t, k in zip(measured, since)]
    return batch


def wrong_answers(batch):
    wrong = []
    for q, result in batch.results:
        try:
            q.check(result)
        except Exception as exc:
            wrong.append(f"{q.label}: {type(exc).__name__}: {exc}")
    batch.results = []
    return wrong


def warm_up(queries):
    start = time.perf_counter()
    for q in queries:
        try:
            q.fn()
        except Exception:
            pass
        if time.perf_counter() - start >= WARMUP_S:
            break


def measure(queries, seconds):
    """Repeat the batch while another one is expected to fit in `seconds`
    of query time; always at least once.  Also returns this process's peak
    RSS in KiB, read after the first batch and before any answer is
    checked, so that the gate's own work is not in it."""
    warm_up(queries)
    batches, wrong, spent, peak_kib = [], [], 0.0, None
    while not batches or spent * (len(batches) + 1) / len(batches) <= seconds:
        batch = run_batch(queries)
        if peak_kib is None:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        wrong += wrong_answers(batch)
        batches.append(batch)
        spent += batch.wall
    return batches, wrong, peak_kib


def metric(value, unit):
    return {"value": value, "unit": unit}


def query_medians(batches):
    """Each query's median latency over the batches.  The batch time and
    the typical query are read from these, so a burst of machine noise
    during a minority of the batches does not count."""
    return [statistics.median(lat) for lat in zip(*(b.latencies for b in batches))]


def batch_wall(batches):
    return sum(query_medians(batches))


def end_to_end(wl, batches, setup_s, peak_kib):
    per_query = query_medians(batches)
    lat = [x for b in batches for x in b.latencies]
    failed = sum(len(b.failures) for b in batches)
    if wl.name == "cli-golden":
        peak_kib = wl.peak_kib
    metrics = {
        "wall_s": metric(sum(per_query), "s"),
        "op_p50_ms": metric(1000 * statistics.median(per_query), "ms"),
        "ok_ratio": metric(1 - failed / len(lat), "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_kib / 1024, "MiB"),
    }
    report = {"batches": len(batches), "queries": len(lat), "failed": failed,
              "fail_ratio": failed / len(lat)}
    if len(lat) >= P90_MIN_QUERIES:
        report["op_p90_ms"] = 1000 * statistics.quantiles(lat, n=10)[8]
    else:
        report["op_p90_ms"] = f"not reported: {len(lat)} < {P90_MIN_QUERIES} queries"
    return metrics, report


def per_layer(wl, queries, batches, spans_path):
    """One traced batch, plus the CLI probes, as per-layer metrics."""
    from tracing import PER_LAYER, Tracer

    untraced = batch_wall(batches)
    spawn_s = 0.0
    if wl.name == "cli-golden":
        # The traced pass runs each case through cli.run in-process; the
        # subprocess batches above give the spawn cost around it.
        queries = wl.inprocess_queries()
        plain = [run_batch(queries) for _ in range(3)]
        spawn_s = statistics.median(
            s - p for s, p in zip(query_medians(batches), query_medians(plain)))
        untraced = batch_wall(plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_batch(queries, tracer)
    finally:
        tracer.uninstall()
    wrong = wrong_answers(traced)
    values = tracer.layer_metrics()
    values["cli.import_s"] = scaled_median(lambda: fresh_import_s("locweinstein.cli"))
    values["cli.spawn_s"] = spawn_s
    values["trace.overhead_ratio"] = sum(traced.latencies) / untraced - 1
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: metric(values[name], units[name]) for name, _, _ in PER_LAYER}
    tracer.write(spans_path)
    return metrics, traced, wrong


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "locweinstein" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import locweinstein
    import workloads
    if not Path(locweinstein.__file__).resolve().is_relative_to(SRC):
        print(f"locweinstein imported from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    os.environ.pop(workloads.cli.FORMAT_ENV, None)

    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        return run(workloads, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(workloads, args, work):
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, work)
    made = []

    def convert_s():
        start = time.perf_counter()
        made[:] = [wl.convert()]
        return time.perf_counter() - start

    setup_s = (scaled_median(lambda: fresh_import_s("locweinstein"))
               + scaled_median(convert_s))
    objs = made[0]
    try:
        wl.prepare(objs)  # the CLI's reference outputs: untimed
        wrong = []
    except workloads.WrongAnswer as exc:
        wrong = [f"prepare: {exc}"]

    queries = wl.queries(objs)
    batches, more_wrong, peak_kib = measure(queries, args.seconds)
    wrong += more_wrong
    if args.trace:
        spans = ROOT / ".perfbench" / f"spans-{wl.name}-{args.seed}.jsonl.gz"
        metrics, traced, more_wrong = per_layer(wl, queries, batches, spans)
        wrong += more_wrong
        batches = batches + [traced]
        report = {"traced_queries": len(traced.latencies)}
    else:
        metrics, report = end_to_end(wl, batches, setup_s, peak_kib)
    attempted = sum(len(b.latencies) for b in batches)
    failed = sum(len(b.failures) for b in batches)
    kinds = sorted({f"{label}: {type(exc).__name__}"
                    for b in batches for label, exc in b.failures})
    print(f"# workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for key, value in report.items():
        print(f"#   {key}: {value}")
    for kind in kinds:
        print(f"#   failure kind: {kind}")
    for line in wrong[:20]:
        print(f"#   WRONG {line}")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
