"""Benchmark: time to a fitted sparse kernel model, next to its certificate.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pii_full --seed 0 --seconds 55 --trace 0

Workloads (see workloads.py and README.md): pii_full and cli_fit, which
BENCHMARK.json lists, and remark1, run by hand only.  Each
run is one closed-loop client in one process, with BLAS pinned to one
thread.  It builds the workload's inputs from ``--seed``, then runs the
pipeline on them again and again for ``--seconds`` (at least once), checks
every output, and prints every metric with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced pipelines, so the tracing overhead is the
difference of their median wall times.  Spans and the manifest are written
once, at the end, to perfbench/out/.

Exit codes: 0 when a result was printed (``correct`` may still be false),
2 when the checkout holds no sparsekern sources or the arguments are bad.
"""

from __future__ import annotations

import argparse
import os
import sys

# pin every thread pool before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SPARSEKERN_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUPS_PER_OP = 3


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _manifest(args) -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SPARSEKERN_THREADS")},
    }


def _fresh_import_and_inputs(make_inputs, seed, workdir):
    """One set-up: import sparsekern from scratch, then build the inputs."""
    for name in [m for m in sys.modules if m == "sparsekern" or m.startswith("sparsekern.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    import sparsekern.cli  # noqa: F401  (imports every module the pipelines use)

    inputs = make_inputs(seed, workdir)
    return time.perf_counter() - t0, inputs


def _run_once(pipeline, assess, inputs, tracer):
    """One operation: the timed pipeline, then its untimed checks."""
    rec = {"traced": tracer is not None, "errors": []}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if tracer is not None:
                tracer.reset()
                tracer.install()
            try:
                r0 = resource.getrusage(resource.RUSAGE_SELF)
                t0 = time.perf_counter()
                out = pipeline(inputs)
                rec["wall_s"] = time.perf_counter() - t0
                r1 = resource.getrusage(resource.RUSAGE_SELF)
                rec["user_s"] = r1.ru_utime - r0.ru_utime
                rec["sys_s"] = r1.ru_stime - r0.ru_stime
                rec["minor_faults"] = r1.ru_minflt - r0.ru_minflt
            finally:
                if tracer is not None:
                    tracer.uninstall()
            rec.update(assess(inputs, out))
        except Exception as exc:  # any failure of the program is a failed operation
            rec["errors"].append(f"raised {type(exc).__name__}: {exc}")
            rec["raised"] = True
    rec["runtime_warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    if tracer is not None and "wall_s" in rec:
        rec["layers"], trace_errors = tracer.layer_metrics(rec["wall_s"])
        rec["spans"] = tracer.stats
        rec["errors"] += trace_errors
    return rec


def _low_decile(times) -> float:
    """The run's 10th-percentile operation time, between two measured times.

    The shared host changes speed by up to 2x for tens of seconds at a time.
    A run's median depends on how much of it fell in a slow spell; its low
    decile is set by the program, as long as a tenth of the run was quiet.
    """
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[0]


QUALITY_KEYS = ("kernel_count", "test_mse", "rel_gap", "max_violation", "dual", "primal", "max_c")
QUALITY_METRICS = ("quality.kernel_count", "quality.test_mse", "certificate.rel_gap", "certificate.max_violation")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sparsekern", "__init__.py")):
        print(f"error: no sparsekern sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402  (needs sparsekern on the path)
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make_inputs, pipeline, assess = workloads.WORKLOADS[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    setups = []

    def set_up():
        dt, inputs = _fresh_import_and_inputs(make_inputs, args.seed, workdir)
        setups.append(dt)
        return inputs

    try:
        inputs = set_up()
        import sparsekern

        if os.path.dirname(os.path.dirname(os.path.abspath(sparsekern.__file__))) != SRC:
            print(f"error: sparsekern imported from {sparsekern.__file__}, not {SRC}", file=sys.stderr)
            return 2

        tracer = Tracer() if args.trace else None
        min_ops = 2 if args.trace else 1
        records = []
        start = time.perf_counter()
        while True:
            t_op = time.perf_counter()
            # a traced run starts untraced, then alternates traced and untraced
            traced = tracer if len(records) % 2 == 1 else None
            rec = _run_once(pipeline, assess, inputs, traced)
            records.append(rec)
            if rec.get("raised"):
                break
            # set-up is short: repeat it between operations, so that its median
            # samples the same machine conditions as the operations do
            for _ in range(SETUPS_PER_OP):
                inputs = set_up()
            now = time.perf_counter()
            if len(records) >= min_ops and (now - start) + (now - t_op) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # every repeat of the same inputs must give bit-identical results
    ref = next((r for r in records if not r["errors"]), None)
    for rec in records:
        if ref is not None and not rec["errors"]:
            if any(rec[k] != ref[k] for k in QUALITY_KEYS):
                rec["errors"].append("result differs from the first repeat on the same inputs")

    failed = sum(bool(r["errors"]) for r in records)
    attempted = len(records)
    untraced = [r["wall_s"] for r in records if not r["traced"] and "wall_s" in r]
    traced_recs = [r for r in records if r["traced"] and "layers" in r]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if untraced:
        values["wall_s"] = _low_decile(untraced)
    if ref is not None:
        values.update({name: ref[name.split(".")[1]] for name in QUALITY_METRICS})
    values["warnings.runtime"] = sum(r["runtime_warnings"] for r in records)
    if traced_recs and untraced:
        # the first operation warms the process up; compare against later ones
        warm = [r["wall_s"] for r in records[1:] if not r["traced"] and "wall_s" in r] or untraced
        for key in traced_recs[0]["layers"]:
            values[key] = statistics.median_low(r["layers"][key] for r in traced_recs)
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced_recs) - statistics.median(warm)

    manifest = _manifest(args)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    for i, rec in enumerate(records):
        quality = " ".join(f"{k}={rec[k]!r}" for k in QUALITY_KEYS if k in rec)
        kind = "traced" if rec["traced"] else "untraced"
        print(f"op {i} {kind}: wall_s={rec.get('wall_s', float('nan')):.4f} {quality} errors={rec['errors']}")
    if untraced:
        print(f"untraced wall_s over {len(untraced)} operations: min {min(untraced):.4f}"
              f" low decile {_low_decile(untraced):.4f} median {statistics.median(untraced):.4f}"
              f" max {max(untraced):.4f}")
    print(f"fail_frac = {failed / attempted!r} ({failed} of {attempted} operations)")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    correct = failed == 0
    for m in wanted:
        if m["name"] not in values:
            print(f"missing metric {m['name']}", file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    # an untraced run prints the model's quality next to its timings too
    shown = wanted if args.trace else wanted + [m for m in spec["per_layer"] if m["name"] in QUALITY_METRICS]
    for m in shown:
        if m["name"] in values:
            print(f"{m['name']} = {values[m['name']]!r} {m['unit']} ({m['better']} is better)")

    report = {"manifest": manifest, "setup_s": setups, "values": values, "records": records}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
