"""naryalg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each repetition of the workload runs in a
fresh interpreter (worker.py). A repetition starts while at least half of
it is expected to fit in S seconds, and at least one always runs. Every
output is checked against perfbench/references.json and the known answers.

With --trace 0 the repetitions are untraced and the end-to-end metrics are
reported. With --trace 1 untraced and traced repetitions alternate; the
traced ones give the per-layer metrics, and the two together give the
tracing overhead. Metric lines are printed by name with their unit; the
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up-only workers per run. Their set-up times join those of the
# repetitions, so the set-up median rests on several samples even when a few
# repetitions fill the run.
SETUP_PROBES = 5
# Every worker must be done by then, so the whole run ends within 180 s.
HARD_LIMIT_S = 170


class BenchError(Exception):
    pass


def percentile(values, q):
    """Nearest-rank percentile: an observed value, no interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spawn(args, started, traced=False, setup_only=False) -> dict:
    cmd = [
        sys.executable, "-I", str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = HARD_LIMIT_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {HARD_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_repetitions(args, started):
    """Untraced repetitions, alternating with traced ones under --trace 1."""
    reps = []
    deadline = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        same_kind = [r["elapsed"] for r in reps if r["traced"] == traced]
        expected = statistics.median(same_kind or [r["elapsed"] for r in reps] or [0])
        both_kinds = not args.trace or len(reps) >= 2
        if reps and both_kinds and time.monotonic() + expected / 2 > deadline:
            return reps
        t0 = time.monotonic()
        rep = spawn(args, started, traced=traced)
        rep["elapsed"] = time.monotonic() - t0
        rep["traced"] = traced
        reps.append(rep)


def end_to_end(plain, setups) -> tuple[dict, dict]:
    """The gated metrics, and the request figures printed beside them.

    Times are low medians: on a shared host, interference only ever adds
    time, so with an even count the lower middle value is the better one.
    """
    walls = [sum(r["latencies"]) for r in plain]
    latencies_ms = [1000 * x for r in plain for x in r["latencies"]]
    gated = {
        "setup_s": statistics.median_low(setups),
        "wall_s": statistics.median_low(walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "req_p50_ms": percentile(latencies_ms, 0.5),
    }
    printed = {
        "req_per_s": (statistics.median(len(r["latencies"]) / w for r, w in zip(plain, walls)), "1/s"),
        "req_p90_ms": (percentile(latencies_ms, 0.9), "ms"),
        "req_samples": (len(latencies_ms), "count"),
    }
    return gated, printed


def per_layer(plain, traced) -> dict:
    out = {
        key: statistics.median(r["layers"][key] for r in traced)
        for key in traced[0]["layers"]
    }
    untraced_wall = statistics.median(sum(r["latencies"]) for r in plain)
    traced_wall = statistics.median(sum(r["latencies"]) for r in traced)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return out


def declared_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    needed = [ROOT / "src" / "naryalg" / "__init__.py", BENCH / "references.json", ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        setups = [spawn(args, started, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        reps = run_repetitions(args, started)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(len(r["latencies"]) for r in reps)
    setups += [r["setup_s"] for r in reps]

    for r in traced:
        if r["missing_layers"]:
            print(f"error: traced run recorded no span in layers {r['missing_layers']}", file=sys.stderr)
            return 1
    printed = {}
    if args.trace:
        metrics, units = per_layer(plain, traced), declared_units("per_layer")
    else:
        (metrics, printed), units = end_to_end(plain, setups), declared_units("end_to_end")
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 1

    print(
        f"workload {args.workload}  seed {args.seed}  repetitions {len(plain)} untraced"
        f" + {len(traced)} traced  operations {attempted}  set-up samples {len(setups)}"
    )
    walls = " ".join(f"{sum(r['latencies']):.4f}" for r in plain)
    print(f"untraced repetition walls (s): {walls}")
    for key, value in reps[0]["info"].items():
        print(f"{key} {value}")
    for (op, reason, known), count in Counter((f["op"], f["reason"], f["known"]) for f in failures).items():
        print(f"failed {count}x{' (known defect)' if known else ''}: {op}: {reason}")
    printed["fail_frac"] = (len(failures) / attempted, "ratio")
    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6f} {units[name]}")
    for name, (value, unit) in printed.items():
        print(f"{name:34s} {value:>16.6f} {unit}  (not gated)")
    result = {
        "correct": all(f["known"] for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
