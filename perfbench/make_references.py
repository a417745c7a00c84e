"""Write perfbench/references.json: the digest of every output a workload can
produce, computed by the code in this checkout.

    python3 perfbench/make_references.py

Run it only on a commit whose outputs are trusted; every later run is
checked against the file it writes. Besides the digests it asserts the known
answers (multipliers 2, 4, 5, 6, 7; H = 3, 0, 0, 0 for matrix2; H = 3, 6,
16, 46 for the rsz231 product) and that every nonzero rsz231 product gives
the same table. The two malformed inputs get the reference the README
promises (exit 2, empty stdout), not what the code does today.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as W  # noqa: E402


def op_reference(op) -> dict:
    out = op.call()
    reason = op.known(out)
    if reason:
        raise SystemExit(f"{op.key}: {reason}")
    canon = op.canon(out)
    ref = {"digest": W.digest(canon)}
    if isinstance(canon, dict) and "exit" in canon:
        ref["exit"] = canon["exit"]
    return ref


def check_references(workdir: Path) -> dict:
    pool = W.check_pool()
    W.write_check_files(pool, workdir)
    refs = {}
    os.chdir(workdir)
    for argv in W.all_check_requests(pool):
        op = W.cli_op(argv)
        if argv[2] in W.MALFORMED:
            ref = {"exit": 2, "digest": W.digest({"exit": 2, "stdout": ""})}
            try:
                op.call()
            except Exception as e:  # the defect this input is known to hit
                ref["known_defect"] = type(e).__name__
            refs[op.key] = ref
        else:
            refs[op.key] = op_reference(op)
    os.chdir(BENCH)
    return refs


def main() -> None:
    refs = {}
    ops, _ = W.build_free(1, None)
    refs["free-n3-p6"] = {op.key: op_reference(op) for op in ops}
    ops, _ = W.build_coh_even(1, None)
    refs["coh-even-matrix2"] = {op.key: op_reference(op) for op in ops}

    from naryalg import identities

    tables = {}
    for seed in range(20):
        mu = identities.random_square_zero(2, 3, seed, 1)
        v = mu.coef((0, 0, 0), 1)
        if v and v not in tables:
            ops, _ = W.build_coh_odd(seed, None)
            tables[v] = op_reference(ops[0])
    if len(tables) != 4 or len({r["digest"] for r in tables.values()}) != 1:
        raise SystemExit(f"rsz231 tables differ across products: {tables}")
    refs["coh-odd-rsz231"] = {"table": next(iter(tables.values()))}

    workdir = BENCH / "_work" / "references"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        refs["checks"] = check_references(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print({name: len(r) for name, r in refs.items()})


if __name__ == "__main__":
    main()
