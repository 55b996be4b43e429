#!/usr/bin/env python3
"""Median gate over two benchmark suite files.

    python3 perfbench/check.py CURRENT BASELINE
    python3 perfbench/check.py --self-test

Suite files come from `python3 perfbench/run.py --workload all --out FILE`.
For every workload and end-to-end metric of BENCHMARK.json present in
both files, the current value is compared with the baseline value:

  FAIL        worse by more than the metric's bound;
  unresolved  either side's interquartile spread over its samples,
              (q3 - q1) / median, exceeds the bound, so these runs
              cannot tell;
  ok          otherwise.

The gate also fails when the current suite has failed output checks or
more failed operations than the baseline, when a workload's share of
failed gateway sessions (deterministic per seed) is higher than the
baseline's by any amount, when a traced suite reports a
nonzero `simnet.mux.allocs_per_session`, or when a ratio derived from a
workload's deterministic counters (x509 cache hit rate, column-pool
dedup rate, store chunk pruning rate) drifts by more than 0.05.

Exit status: 0 pass, 1 regression or failure, 2 usage error,
3 no regression but some metric unresolved.
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RATIO_DRIFT = 0.05
# (label, numerator counters, extra denominator counters)
RATIOS = [
    ("x509 cache hit rate", ["x509.cache.hits"], ["x509.cache.misses"]),
    ("pool dedup rate",
     ["capture.merge.pool.u16.dedup_hits", "capture.merge.pool.u8.dedup_hits"],
     ["capture.merge.pool.u16.appends", "capture.merge.pool.u8.appends"]),
    ("chunk pruning rate", ["capture.store.chunks.pruned"], ["capture.store.chunks.scanned"]),
]


def spread(m):
    return (m["q3"] - m["q1"]) / m["median"] if m["median"] else float("inf")


def ratio(counters, num, extra):
    c = counters.get("counters", {})
    hits = sum(c.get(k, 0) for k in num)
    total = hits + sum(c.get(k, 0) for k in extra)
    return hits / total if total else None


def compare(current, baseline, spec, out=print):
    """Prints one verdict line per check; returns the exit status."""
    failed = unresolved = False
    for name, cur in current["workloads"].items():
        base = baseline["workloads"].get(name)
        if not cur["correct"] or (base and cur["failed"] > base["failed"]):
            out(f"check: {name}: FAIL output checks ({cur['failed']} failed: "
                f"{'; '.join(cur.get('errors', [])) or 'more than the baseline'})")
            failed = True
        if base and cur.get("failed_share", 0) > base.get("failed_share", 0):
            out(f"check: {name}: FAIL failed session share rose: "
                f"{cur['failed_share']:.6g} vs {base.get('failed_share', 0):.6g}")
            failed = True
        allocs = cur.get("layers", {}).get("metrics", {}).get("simnet.mux.allocs_per_session")
        if allocs and allocs["value"] > 0:
            out(f"check: {name}: FAIL simnet.mux.allocs_per_session is {allocs['value']}, must be 0")
            failed = True
        if base is None:
            out(f"check: {name}: new workload (no baseline)")
            continue
        for m in spec["end_to_end"]:
            c, b = cur["metrics"].get(m["name"]), base["metrics"].get(m["name"])
            if c is None or b is None:
                out(f"check: {name} {m['name']}: missing on one side")
                continue
            change = (c["value"] - b["value"]) / b["value"]
            worse = change if m["better"] == "lower" else -change
            if max(spread(c), spread(b)) > m["bound"]:
                verdict = "unresolved"
                unresolved = True
            elif worse > m["bound"]:
                verdict = "FAIL"
                failed = True
            else:
                verdict = "ok"
            out(f"check: {name} {m['name']}: {c['value']:.6g} vs {b['value']:.6g} {m['unit']} "
                f"({change:+.1%}, bound {m['bound']:.0%}, spread {spread(c):.1%}/{spread(b):.1%}) "
                f"{verdict}")
        for label, num, extra in RATIOS:
            rc, rb = ratio(cur.get("counters", {}), num, extra), ratio(base.get("counters", {}), num, extra)
            if rc is None or rb is None:
                continue
            drifted = abs(rc - rb) > RATIO_DRIFT
            failed |= drifted
            out(f"check: {name} {label}: {rc:.4f} vs {rb:.4f} {'FAIL' if drifted else 'ok'}")
    return 1 if failed else 3 if unresolved else 0


def load(path):
    return json.loads(Path(path).read_text())


def variant(suite, workload, change):
    """A copy of `suite` with `change` applied to one workload's result."""
    out = copy.deepcopy(suite)
    change(out["workloads"][workload])
    return out


def scale(metric, by):
    for k in ("value", "median", "q1", "q3", "min", "max"):
        metric[k] *= by


def widen(metric, by):
    metric["q3"] = metric["q1"] + by * metric["median"]
    metric["max"] = max(metric["max"], metric["q3"])


def fail_check(w):
    w.update(correct=False, errors=["reload analysis differs from the ingest-time fold"],
             failed=w["failed"] + 1)


def self_test(spec):
    """Runs the gate over variants of a suite measured on real runs
    (`testdata/base.json`, trimmed to what the gate reads): it must
    pass the suite against itself, fail a slowdown past the bound, call
    a spread past the bound unresolved, and fail a failed output check
    or a rise in failed sessions. It also checks that a process that
    timed no rep is reported as a failed check."""
    base = load(HERE / "testdata" / "base.json")
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    cases = [
        ("identical", base, 0),
        ("slower_than_bound", variant(base, "gateway_clean",
                                      lambda w: scale(w["metrics"]["op_s"], 1.05 + bound["op_s"])), 1),
        ("wide_spread", variant(base, "gateway_clean",
                                lambda w: widen(w["metrics"]["op_s"], bound["op_s"] + 0.05)), 3),
        ("failed_check", variant(base, "passive_pipeline", fail_check), 1),
        # One more failed session in a million.
        ("failed_sessions_rise", variant(base, "gateway_chaos",
                                         lambda w: w.update(failed_share=w["failed_share"] + 1e-6)), 1),
    ]
    ok = True
    for label, current, want in cases:
        lines = []
        got = compare(current, base, spec, lines.append)
        ok &= got == want
        print(f"self-test {label}: exit {got}, want {want}: {'ok' if got == want else 'FAIL'}")
        if got != want:
            print("\n".join("  " + l for l in lines))

    sys.path.insert(0, str(HERE))
    import run
    proc = {"setup_s": [0.6, 0.5, 0.5], "op_s": [0.2, 0.1], "peak_rss_mb": 11.0,
            "attempted": 3, "failed": 0, "errors": [], "work": 1, "failed_share": 0.0,
            "counters": {}}
    idle = dict(proc, op_s=[], attempted=1, failed=1, errors=["artifacts differ between reps"])
    got = run.summarize(spec, [proc, idle, proc])
    want = (not got["correct"] and "process 1 has no op_s sample" in got["errors"]
            and "artifacts differ between reps" in got["errors"]
            and got["metrics"]["op_s"]["value"] == 0.1 and got["metrics"]["setup_s"]["value"] == 0.5)
    ok &= want
    print(f"self-test process_without_reps: {'ok' if want else 'FAIL'}")
    return 0 if ok else 1


def main(argv):
    spec = load(HERE.parent / "BENCHMARK.json")
    if argv == ["--self-test"]:
        return self_test(spec)
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        current, baseline = load(argv[0]), load(argv[1])
    except (OSError, ValueError) as e:
        print(f"check: {e}", file=sys.stderr)
        return 2
    status = compare(current, baseline, spec)
    print({0: "check: passed", 1: "check: FAILED", 3: "check: passed, but unresolved"}[status])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
