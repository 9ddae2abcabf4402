"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads train-gcn,train-gat]
                               [--trace 0] [--out summary.json]

Each (workload, seed) is one ``run.py`` process, run one after another with
the ``run_seconds`` of ``BENCHMARK.json``. For every metric the summary
gives the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread: the distance between the quartiles as a share of the median, the
figure a metric's bound in ``BENCHMARK.json`` is checked against. The JSON
summary goes to ``--out`` (default ``.perfbench_out/sweep-<time>.json``).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    seeds = _seeds(args.seeds)
    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds, "trace": args.trace,
               "claim": None, "workloads": {}}
    for workload in args.workloads.split(","):
        values, runs = {}, []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            env = [line[4:] for line in lines if line.startswith("env ")]
            if env and "env" not in summary:
                summary["env"] = json.loads(env[0])
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{workload} seed {seed}: exit {proc.returncode}, no result\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                runs.append({"seed": seed, "exit": proc.returncode, "wall_s": wall})
                continue
            runs.append({"seed": seed, "exit": proc.returncode, "wall_s": wall,
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {name: summarize(v) for name, v in values.items()}
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics}
        if not args.trace:
            for name, s in metrics.items():
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
                print(f"  {workload} {name}: median {s['median']:.6g} "
                      f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {spread}", flush=True)

    out = Path(args.out) if args.out else ROOT / ".perfbench_out" / f"sweep-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"summary written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
