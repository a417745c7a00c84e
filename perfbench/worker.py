"""One repetition of one workload, in a fresh interpreter.

run.py starts this once per repetition, so no process-level cache of the
package (the solved-system cache, the index-tuple lru_cache, MultiMap item
lists) survives from one repetition into the next, and the peak RSS belongs
to this workload alone. Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import naryalg  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


def check_output(op, out, ref) -> str | None:
    """Why out is wrong, or None."""
    reason = op.known(out)
    if reason:
        return reason
    if ref is None:
        return "no reference"
    canon = op.canon(out)
    if "exit" in ref and canon["exit"] != ref["exit"]:
        return f"exit {canon['exit']}, expected {ref['exit']}"
    if digest(canon) != ref["digest"]:
        return "digest differs from the reference"
    return None


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    workdir = BENCH / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        ops, info = workload.build(args.seed, workdir)
        setup_s = time.monotonic() - args.spawned
        if args.setup_only:
            return {"setup_s": setup_s}
        refs = json.loads((BENCH / "references.json").read_text())[args.workload]
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.check_bindings()
        os.chdir(workdir)
        latencies, failures = [], []
        for op in ops:
            ref = refs.get(op.key)
            start = time.perf_counter()
            try:
                out = op.call()
            except Exception as e:  # a failed operation, counted and reported
                latencies.append(time.perf_counter() - start)
                name = type(e).__name__
                known = ref is not None and ref.get("known_defect") == name
                failures.append({"op": op.key, "reason": f"raised {name}: {e}", "known": known})
                continue
            latencies.append(time.perf_counter() - start)
            reason = check_output(op, out, ref)
            if reason:
                failures.append({"op": op.key, "reason": reason, "known": False})
        result = {
            "setup_s": setup_s,
            "latencies": latencies,
            "failures": failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "info": info,
        }
        if tracer is not None:
            result["layers"] = tracer.metrics(sum(latencies), workload.cli_ops)
            seen = {s.layer for s in tracer.spans}
            result["missing_layers"] = [l for l in workload.layers if l not in seen]
        return result
    finally:
        os.chdir(BENCH)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another worker may still use it
            workdir.parent.rmdir()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if Path(naryalg.__file__).resolve().parent != ROOT / "src" / "naryalg":
        print(f"naryalg imported from {naryalg.__file__}, not from this checkout", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
