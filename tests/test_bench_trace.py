"""One traced repetition of each of the bench's workloads: checks, the free
algebra, and the even and odd cohomology tables; and every request the checks
workload can send, against its committed reference.

The tracer in perfbench/layertrace.py wraps every binding of the package's
public functions and fails when one is missed or when a layer the workload
needs records no span. Running it here makes a refactor of src/ that breaks
either check fail the test suite, not only a later bench run.
"""

import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_repetition(workload):
    argv = [
        sys.executable, "-I", str(ROOT / "perfbench" / "worker.py"),
        "--workload", workload, "--seed", "1", "--trace", "1",
        "--spawned", str(time.monotonic()),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["failures"] == []
    assert result["missing_layers"] == []


def test_traced_checks_repetition():
    _traced_repetition("checks")


def test_traced_free_repetition():
    # the free-algebra layer: solve and its relation generators
    _traced_repetition("free-n3-p6")


def test_traced_coh_even_repetition():
    # the full-cochain table path: coboundary rows with no chi constraints
    _traced_repetition("coh-even-matrix2")


def test_traced_coh_odd_repetition():
    # the cohomology layer records spans only through its public functions,
    # so a refactor that moves its work out of them fails here
    _traced_repetition("coh-odd-rsz231")


def test_traced_cli_requests_record_their_command():
    # main() builds its parser on the first call, after the tracer wrapped the
    # cmd_* functions, so every request records a span for its command
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from layertrace import Tracer\n"
        "from naryalg import cli\n"
        "tracer = Tracer(); tracer.install(); tracer.check_bindings()\n"
        "for argv in (['check', '--algebra', 'so3', '--identity', 'jacobi'],\n"
        "             ['selftest', '--suites', 'exactnum'], ['check', '--help']):\n"
        "    cli.main(argv)\n"
        "print([s.name for s in tracer.spans if s.name.startswith('cli.cmd_')])\n"
    )
    argv = [sys.executable, "-I", "-c", script, str(ROOT / "perfbench"), str(ROOT / "src")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['cli.cmd_check', 'cli.cmd_selftest']"


def test_every_checks_reference_replays(tmp_path, monkeypatch):
    # a seeded mix reaches only part of the pool; this sends every request
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench stays as committed
    monkeypatch.delenv("NARY_CAP", raising=False)
    workloads = importlib.import_module("workloads")
    refs = json.loads((ROOT / "perfbench" / "references.json").read_text())["checks"]
    pool = workloads.check_pool()
    workloads.write_check_files(pool, tmp_path)
    monkeypatch.chdir(tmp_path)
    requests = workloads.all_check_requests(pool)
    assert len(requests) == len(refs)
    for argv in requests:
        code, out = workloads.cli_request(argv)
        ref = refs[" ".join(argv)]
        assert code == ref["exit"], argv
        assert workloads.digest({"exit": code, "stdout": out}) == ref["digest"], argv
