"""The `nary` command line's visible surface: an argv corpus, and the exit
code, stdout and stderr that `naryalg.cli.main` gives for each request.

The module uses only the standard library, so any installed interpreter can
run it without pytest. From the repository root:

    python3.X tests/cli_surface.py [SRC] > surface.json

imports `naryalg` from SRC (default: this checkout's `src`) and prints one
JSON document: the surface of every request in ARGVS and of
`selftest --seed 0..7 --format json`. `tests/cli_surface.json` is that
document as the command line printed it before `main` sent a request
straight to its command's parser, and it read the same under Python 3.10,
3.11, 3.12 and 3.13. So

    python3.X tests/cli_surface.py | cmp - tests/cli_surface.json

checks the surface on one interpreter, and `tests/test_cli.py` checks it on
the one that runs pytest.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

# help and usage text at a fixed width, so that it does not follow the terminal
COLUMNS = "80"

ARGVS = (
    # help, at the top level and for a command
    (),
    ("--help",),
    ("-h",),
    ("check", "--help"),
    ("free-export", "-h"),
    ("check", "--he"),  # an abbreviation of --help
    # usage errors before the command's own flags are read
    ("check",),
    ("chec",),
    ("nope", "x"),
    ("--", "check"),
    ("-x", "check"),
    # leftover arguments, reported by the top-level parser
    ("check", "--algebra", "so3", "--identity", "jacobi", "--bogus"),
    ("check", "--algebra", "so3", "--identity", "jacobi", "extra"),
    ("check", "--algebra", "so3", "--identity", "jacobi", "--", "extra"),
    # the command's own flags
    ("check", "--alg", "so3", "--identity", "jacobi"),
    ("check", "--algebra=so3", "--identity", "jacobi", "--format", "json"),
    ("check", "--algebra", "so3", "--identity", "jacobi", "--format", "xml"),
    ("check", "--algebra", "so3", "--identity", "no-such-identity"),
    ("check", "--algebra", "matrix2", "--identity", "partial-assoc", "--format", "json"),
    ("free-dims", "--n", "3"),
    ("free-dims", "--n", "x", "--p-max", "2"),
    ("free-export", "--n", "3", "--p", "2"),
    ("cohomology", "--algebra", "matrix2", "--steps", "1"),
    ("selftest", "--suites", "exactnum", "--seed"),
)

SELFTEST_ARGVS = tuple(("selftest", "--seed", str(s), "--format", "json") for s in range(8))


@contextlib.contextmanager
def _columns(width: str):
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = width
    try:
        yield
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def surface(argv) -> dict:
    """{"argv", "exit", "stdout", "stderr"} of main(argv) at COLUMNS width."""
    from naryalg.cli import main

    out, err = io.StringIO(), io.StringIO()
    with _columns(COLUMNS), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    src = sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    os.environ.pop("NARY_CAP", None)
    json.dump([surface(argv) for argv in ARGVS + SELFTEST_ARGVS], sys.stdout, indent=1)
    sys.stdout.write("\n")
