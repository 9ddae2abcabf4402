"""Benchmark of the multilayer_gnn pipeline.

    python3 perfbench/run.py --workload train-gcn --seed 1 --seconds 8 --trace 0

Runs one workload (train-gcn, train-gat, explain-gcn, catalog-20k; see
``workloads.py`` and ``BENCHMARK.json``) in this process, with BLAS and
OpenMP pinned to one thread, against the package under ``src/`` of the
checkout this file sits in. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. Set-up runs three times
(``setup_s`` is the median), then the workload's cycle repeats until
``--seconds`` have passed, at least once.

``--trace 1`` reports the per-layer metrics. It runs set-up and a fixed
number of cycles twice, first plain and then with every public package
function wrapped by ``spans.Tracer``; the traced outputs must match the
plain ones bit for bit, and the difference in wall time is reported as the
tracing overhead. Spans are written to ``.perfbench_out/``.

Exits non-zero without a result when the package cannot be imported from
``src/``.
"""

import os

from envinfo import THREAD_VARS

# BLAS pools size themselves when numpy loads: pin before anything imports it
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import multilayer_gnn
    except ImportError as err:
        raise SystemExit(f"error: cannot import multilayer_gnn from {src}: {err}") from None
    location = Path(multilayer_gnn.__file__).resolve()
    if src.resolve() not in location.parents:
        raise SystemExit(f"error: multilayer_gnn resolved to {location}, outside {src}")


def _plain(wl, seed, seconds, work):
    import workloads

    setup_s, setup_digests, st = [], [], None
    for _ in range(SETUP_REPS):
        st = None
        gc.collect()
        start = time.perf_counter()
        st = wl.setup(seed, work)
        setup_s.append(time.perf_counter() - start)
        setup_digests.append(wl.setup_digest(st))

    rec = workloads.Recorder()
    start = time.perf_counter()
    while True:
        wl.cycle(st, rec)
        if time.perf_counter() - start >= seconds:
            break
    wl.verify(st, rec)

    metrics = {"setup_s": (statistics.median(setup_s), "s")}
    named = [("setup_s", "setup_s", metrics["setup_s"][0], "s", len(setup_s))]
    problems = list(rec.problems)
    try:
        headline = wl.headline(rec)
    except ValueError:  # no op succeeded, so there is nothing to summarize
        headline = []
        problems.append("no successful op to measure")
    for key, label, value, unit, n in headline:
        if key is not None:
            metrics[key] = (value, unit)
        named.append((key, label, value, unit, n))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    metrics["ops_ok_frac"] = (1.0 - rec.failed / max(rec.attempted, 1), "ratio")
    named += [("peak_rss_mb", "peak_rss_mb", peak_mb, "MB", 1),
              ("ops_ok_frac", "1 - ops_failed_frac", metrics["ops_ok_frac"][0], "ratio",
               rec.attempted)]
    if len(set(setup_digests)) != 1:
        problems.append("set-up is not deterministic: inputs differ between repetitions")
    if len(set(rec.digests)) > 1:
        problems.append("outputs differ between repeat cycles at one seed")
    details = {"setup_s": setup_s, "samples": dict(rec.samples), "details": rec.details,
               "named": named}
    return rec.attempted, rec.failed, metrics, problems, details


def _traced(wl, seed, work, tag):
    import spans
    import workloads

    start = time.perf_counter()
    st = wl.setup(seed, work)
    plain_setup = time.perf_counter() - start
    plain_digest = wl.setup_digest(st)
    plain = workloads.Recorder()
    start = time.perf_counter()
    for _ in range(wl.trace_cycles):
        wl.cycle(st, plain)
    plain_run = time.perf_counter() - start
    st = None
    gc.collect()

    tracer = spans.Tracer()
    with tracer.installed():
        start = time.perf_counter()
        with tracer.root("bench.setup"):
            st = wl.setup(seed, work)
        traced_setup = time.perf_counter() - start
        rec = workloads.Recorder(untraced=tracer.paused)
        start = time.perf_counter()
        with tracer.root("bench.run"):
            for _ in range(wl.trace_cycles):
                wl.cycle(st, rec)
        traced_run = time.perf_counter() - start
        wl.verify(st, rec)
    tracer.dump(OUT / f"spans-{tag}.json", {"workload": wl.name, "seed": seed})

    metrics = {name: (m["value"], m["unit"])
               for name, m in spans.layer_metrics(tracer.spans, **wl.inputs(st)).items()}
    plain_total = plain_setup + plain_run
    overhead = (traced_setup + traced_run) - plain_total
    metrics["trace_overhead_s"] = (overhead, "s")
    metrics["trace_overhead_frac"] = (overhead / plain_total, "ratio")

    problems = plain.problems + rec.problems
    if wl.setup_digest(st) != plain_digest:
        problems.append("traced set-up produced different inputs")
    if plain.digests != rec.digests:
        problems.append("traced outputs differ from untraced outputs")
    details = {"plain_s": {"setup": plain_setup, "run": plain_run},
               "traced_s": {"setup": traced_setup, "run": traced_run},
               "digests": rec.digests, "details": rec.details}
    return (plain.attempted + rec.attempted, plain.failed + rec.failed,
            metrics, problems, details)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import envinfo
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    env = envinfo.record()
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            attempted, failed, metrics, problems, details = _traced(wl, args.seed, work, tag)
        else:
            attempted, failed, metrics, problems, details = _plain(
                wl, args.seed, args.seconds, work)
    finally:
        logging.shutdown()  # the CLI leaves its run.log handler open
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    if not env["threads_verified"]:
        problems.append("BLAS is not pinned to one thread")

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "problems": problems, "result": result, **details}, fh,
                  indent=1, default=float)

    print("env " + json.dumps(env))
    for problem in problems:
        print(f"problem: {problem}")
    for key, label, value, unit, n in details.get("named", ()):
        print(f"{label} = {value:.6g} {unit} (n={n})" + (f" [{key}]" if key else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
