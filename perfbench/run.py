#!/usr/bin/env python3
"""Benchmark runner for the IoTLS reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Builds the `perfbench` package, then measures one workload (or every
workload in BENCHMARK.json, one after another) in fresh processes, never
two at a time:

* untraced (`--trace 0`): three processes, each setting up, running one
  warm-up rep and timed reps for a third of `--seconds`, then setting up
  twice more; reports medians over the processes of peak memory, of each
  one's fastest set-up (`setup_s`) and of its fastest timed rep (`op_s`);
* traced (`--trace 1`): one process per workload family (passive,
  campaign, gateway), each tracing its layers for a third of `--seconds`;
  reports every per-layer metric and writes the spans to
  `perfbench/results/<workload>.trace.jsonl`.

Every metric is printed as `workload metric value unit`. A single
workload ends with one JSON line: `{"correct", "attempted", "failed",
"metrics"}`. Results go to `perfbench/results/`: `<workload>.json`
(samples, medians, quartiles) and `<workload>.metrics.json` (the
deterministic counters of the warm-up rep). `--workload all` writes them
all to one suite file (`--out`, default `perfbench/results/suite.json`)
for `perfbench/check.py`. Exits non-zero if the build fails, a process
fails, or any output check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
PROCESSES = 3
FAMILIES = ("passive", "campaign", "gateway")
# A process that runs this long is stuck; the whole run must end in 180 s.
PROCESS_TIMEOUT_S = 50


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Builds the release binary; returns its path."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr)
    return target / "release" / "perfbench"


def run_process(binary, args):
    """Runs one benchmark process from the repo root; returns its JSON."""
    proc = subprocess.run([str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def summary(values):
    """Median, quartiles and range of a sample, as the gate reads them."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def outcome(procs, checks):
    """Pass/fail fields: each process's failed output checks, plus one
    failure per check across processes (`checks`)."""
    errors = [e for p in procs for e in p["errors"]] + checks
    return {"correct": not errors, "errors": errors,
            "attempted": sum(p["attempted"] for p in procs),
            "failed": sum(p["failed"] for p in procs) + len(checks)}


def untraced(binary, spec, workload, seed, seconds):
    """Three fresh processes; end-to-end metrics as medians."""
    procs = [run_process(binary, ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds / PROCESSES)])
             for _ in range(PROCESSES)]
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
              "threads": 2 if workload == "gateway_chaos" else 1, **summarize(spec, procs)}
    (RESULTS / f"{workload}.metrics.json").write_text(
        json.dumps(result["counters"], indent=1) + "\n")
    return result


def summarize(spec, procs):
    """End-to-end metrics of one run from its processes' results. Every
    value is a median over the processes: of their peak memory, of each
    one's fastest set-up, and of each one's fastest timed rep.
    Neighbours on a shared host slow whole stretches of seconds; a
    process's fastest sample is the one they move least."""
    checks = []
    samples = {"setup_s": [], "peak_rss_mb": [p["peak_rss_mb"] for p in procs], "op_s": []}
    for i, p in enumerate(procs):
        for metric in ("setup_s", "op_s"):
            if p[metric]:
                samples[metric].append(min(p[metric]))
            else:
                checks.append(f"process {i} has no {metric} sample")
    counters = [p["counters"] for p in procs]
    if any(c != counters[0] for c in counters):
        checks.append("deterministic counters differ between processes")
    failed_shares = {p["failed_share"] for p in procs}
    if len(failed_shares) != 1:
        checks.append("failed session share differs between processes")
    metrics = {}
    for m in spec["end_to_end"]:
        values = samples[m["name"]]
        if not values or any(v is None for v in values):
            checks.append(f"no samples for {m['name']}")
            continue
        stats = summary(values)
        metrics[m["name"]] = {"value": stats["median"], "unit": m["unit"], **stats}
    return {
        "nproc": os.cpu_count(),
        **outcome(procs, checks),
        "failed_share": max(failed_shares),
        "work_per_op": procs[0]["work"],
        "processes": [{k: p[k] for k in ("setup_s", "op_s", "peak_rss_mb",
                                          "attempted", "failed")} for p in procs],
        "metrics": metrics,
        "counters": counters[0],
    }


def traced(binary, spec, workload, seed, seconds):
    """One process per family; every per-layer metric."""
    trace_out = RESULTS / f"{workload}.trace.jsonl"
    trace_out.unlink(missing_ok=True)
    procs = [run_process(binary, ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds / len(FAMILIES)),
                                  "--family", family, "--trace-out", str(trace_out)])
             for family in FAMILIES]
    measured = {}
    for p in procs:
        measured.update(p["metrics"])
    checks = []
    metrics = {}
    for m in spec["per_layer"]:
        value = measured.get(m["name"])
        if value is None:
            checks.append(f"no value for {m['name']}")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    extra = sorted(set(measured) - {m["name"] for m in spec["per_layer"]})
    if extra:
        checks.append(f"metrics missing from BENCHMARK.json: {', '.join(extra)}")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": 1,
        "nproc": os.cpu_count(), **outcome(procs, checks), "metrics": metrics,
    }


def measure(binary, spec, workload, seed, seconds, trace):
    started = time.monotonic()
    run = traced if trace else untraced
    result = run(binary, spec, workload, seed, seconds)
    result["wall_s"] = time.monotonic() - started
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']} {m['unit']}")
    for e in result["errors"]:
        log(f"{workload}: output check failed: {e}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="seconds of timed reps per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=RESULTS / "suite.json")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--seed must be in [0, 2^64) and --seconds > 0")

    spec = load_spec()
    args.seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload}; one of {', '.join(names)} or all")
    try:
        binary = build()
        RESULTS.mkdir(exist_ok=True)
        if args.workload != "all":
            result = measure(binary, spec, args.workload, args.seed, args.seconds, args.trace)
            (RESULTS / f"{args.workload}{'.traced' if args.trace else ''}.json").write_text(
                json.dumps(result, indent=1) + "\n")
            metrics = {k: {"value": v["value"], "unit": v["unit"]}
                       for k, v in result["metrics"].items()}
            print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                              "failed": result["failed"], "metrics": metrics}))
            return 0 if result["correct"] else 1
        suite = {"seed": args.seed, "seconds": args.seconds, "nproc": os.cpu_count(),
                 "workloads": {}}
        for name in names:
            suite["workloads"][name] = measure(binary, spec, name, args.seed, args.seconds, 0)
            if args.trace:
                suite["workloads"][name]["layers"] = measure(
                    binary, spec, name, args.seed, args.seconds, 1)
        args.out.write_text(json.dumps(suite, indent=1) + "\n")
        log(f"wrote {args.out}")
        ok = all(w["correct"] and w.get("layers", w)["correct"]
                 for w in suite["workloads"].values())
        return 0 if ok else 1
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
