import contextlib
import fractions
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cli_surface import ARGVS, SELFTEST_ARGVS, surface
from naryalg import cli
from naryalg.cli import DEFAULT_DEGREE_CAP, main, run_selftest
from naryalg.coalg import Comultiplication, grouplike
from naryalg.freealg import GENERATORS
from naryalg.gerstenhaber import MultiMap
from naryalg.identities import (
    BracketAlgebra,
    bracket_from_pairs,
    builtin_algebra,
    heisenberg3,
    random_square_zero,
)


@pytest.fixture(autouse=True)
def clean_cap_env(monkeypatch):
    monkeypatch.delenv("NARY_CAP", raising=False)


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------- free-dims


def test_free_dims_table(capsys):
    rc, out, _ = run(capsys, "free-dims", "--n", "3", "--p-max", "4")
    assert rc == 0
    assert "multipliers: 1, 2, 4, 5" in out


def _free_dims_row(p, codes, rows, multiplier, seconds):
    return {
        "p": p, "word_length": 2 * p + 1, "codes": codes, "rows": rows,
        "rank": codes - multiplier, "multiplier": multiplier, "formula_value": p + 1,
        "matches_formula": multiplier == p + 1, "seconds": seconds, "method": "recursion",
    }


def test_free_dims_table_sizes_each_column_to_its_widest_cell(capsys, monkeypatch):
    # never narrower than the small degrees need: the README's p <= 4 table
    # keeps its bytes
    small = [(1, 1, 0, 1, 0.0), (2, 3, 1, 2, 0.0), (3, 12, 8, 4, 0.001), (4, 55, 55, 5, 0.005)]
    monkeypatch.setattr(cli, "free_dims", lambda *args: [_free_dims_row(*r) for r in small])
    rc, out, _ = run(capsys, "free-dims", "--n", "3", "--p-max", "4")
    assert rc == 0 and out.splitlines() == [
        " p  len   codes    rows    rank  mult  p+1  match      sec",
        " 1    3       1       0       0     1    2     no    0.000",
        " 2    5       3       1       1     2    3     no    0.000",
        " 3    7      12       8       8     4    4    yes    0.001",
        " 4    9      55      55      50     5    5    yes    0.005",
        "multipliers: 1, 2, 4, 5",
    ]
    # from p = 11 the counts outgrow those widths: every column stays aligned
    big = [(10, 1430715, 4292145, 11, 0.2), (11, 8414640, 28048800, 12, 0.5),
           (12, 50067108, 183579396, 13, 1.2)]
    monkeypatch.setattr(cli, "free_dims", lambda *args: [_free_dims_row(*r) for r in big])
    rc, out, _ = run(capsys, "free-dims", "--n", "3", "--p-max", "12", "--cap", "12")
    lines = out.splitlines()[:-1]
    assert rc == 0 and [len(line.split()) for line in lines] == [9] * 4
    ends = {tuple(m.end() for m in re.finditer(r"\S+", line)) for line in lines}
    assert len(ends) == 1
    assert lines[-1].split()[2:5] == ["50067108", "183579396", "50067095"]


def test_free_dims_json(capsys):
    rc, out, _ = run(capsys, "free-dims", "--n", "3", "--p-max", "4", "--format", "json")
    assert rc == 0
    report = json.loads(out)
    assert [r["multiplier"] for r in report] == [1, 2, 4, 5]
    assert [r["matches_formula"] for r in report] == [False, False, True, True]
    assert [r["codes"] for r in report] == [1, 3, 12, 55]


def test_free_dims_binary_all_one(capsys):
    rc, out, _ = run(capsys, "free-dims", "--n", "2", "--p-max", "5", "--format", "json")
    assert rc == 0
    assert [r["multiplier"] for r in json.loads(out)] == [1] * 5


def test_free_dims_generators_match(capsys):
    rc, out, _ = run(
        capsys, "free-dims", "--n", "3", "--p-max", "4", "--generator", "both",
        "--format", "json",
    )
    assert rc == 0
    assert [r["multiplier"] for r in json.loads(out)] == [1, 2, 4, 5]


def test_free_dims_cap(capsys, monkeypatch):
    rc, _, err = run(capsys, "free-dims", "--n", "3", "--p-max", "7")
    assert rc == 2 and "cap" in err
    monkeypatch.setenv("NARY_CAP", "2")
    rc, _, _ = run(capsys, "free-dims", "--n", "3", "--p-max", "3")
    assert rc == 2
    # explicit flag wins over the environment
    rc, _, _ = run(capsys, "free-dims", "--n", "3", "--p-max", "3", "--cap", "3")
    assert rc == 0
    monkeypatch.setenv("NARY_CAP", "soup")
    rc, _, _ = run(capsys, "free-dims", "--n", "3", "--p-max", "1")
    assert rc == 2


def test_free_dims_input_errors(capsys):
    assert run(capsys, "free-dims", "--n", "1", "--p-max", "2")[0] == 2
    assert run(capsys, "free-dims", "--n", "3", "--p-max", "0")[0] == 2
    assert run(capsys, "free-dims", "--n", "3", "--p-max", "2", "--cap", "0")[0] == 2
    assert run(capsys, "free-dims", "--n", "2", "--p-max", "2", "--generator", "paper-rules")[0] == 2


def test_free_large_arity_runs(capsys):
    # 2n - 1 subtree slots once overflowed a recursive composition generator
    rc, out, _ = run(capsys, "free-dims", "--n", "1000", "--p-max", "2")
    assert rc == 0
    assert out.splitlines()[-1] == "multipliers: 1, 999"
    rc, out, _ = run(capsys, "free-export", "--n", "520", "--p", "2")
    assert rc == 0
    assert len(json.loads(out)["codes"]) == 520


def test_free_component_size_cap(capsys):
    # no component may hold more codes than the ternary one at the degree cap
    rc, _, err = run(capsys, "free-dims", "--n", "5", "--p-max", "6")
    assert rc == 2 and "23751 tree codes" in err
    rc, _, err = run(capsys, "free-dims", "--n", "5", "--p-max", "5")
    assert rc == 2 and "2530 tree codes" in err and "1428" in err
    rc, _, err = run(capsys, "free-export", "--n", "1429", "--p", "2")
    assert rc == 2 and "1429 tree codes" in err
    # at --cap 2 the limit is the 3 ternary codes of degree 2
    assert run(capsys, "free-dims", "--n", "3", "--p-max", "2", "--cap", "2")[0] == 0
    rc, _, err = run(capsys, "free-export", "--n", "4", "--p", "2", "--cap", "2")
    assert rc == 2 and "4 tree codes" in err


def test_free_large_degree_cap_is_cheap(capsys, monkeypatch):
    # the ternary code counts are compared only up to the component's own,
    # so a large cap, by flag or by NARY_CAP, costs nothing and cannot
    # overflow: FC(3, 1000000) alone takes half a minute to count
    huge = str(10**20)
    for argv in (
        ("free-dims", "--n", "3", "--p-max", "3", "--cap", "1000000"),
        ("free-dims", "--n", "3", "--p-max", "3", "--cap", huge),
        ("free-export", "--n", "4", "--p", "3", "--cap", huge),
    ):
        start = time.perf_counter()
        assert run(capsys, *argv)[0] == 0, argv
        assert time.perf_counter() - start < 2, argv
    monkeypatch.setenv("NARY_CAP", huge)
    rc, out, _ = run(capsys, "free-dims", "--n", "3", "--p-max", "3")
    assert rc == 0 and out.splitlines()[-1] == "multipliers: 1, 2, 4"
    # a degree whose code count cannot be computed is unusable input
    for argv in (
        ("free-dims", "--n", "3", "--p-max", huge),
        ("free-export", "--n", "5", "--p", huge),
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == f"error: n={argv[2]} p={huge} has too many tree codes to count\n"


# -------------------------------------------------------------- free-export


def test_export_operadic_degree3(capsys):
    rc, out, _ = run(capsys, "free-export", "--n", "3", "--p", "3")
    assert rc == 0
    data = json.loads(out)
    assert len(data["relations"]) == 8
    assert data["rank"] == 8
    assert data["quotient_multiplier"] == 4
    assert len(data["codes"]) == 12
    assert len(data["quotient_basis"]) == 4


def test_export_degree2_single_row(capsys):
    rc, out, _ = run(capsys, "free-export", "--n", "3", "--p", "2")
    data = json.loads(out)
    assert rc == 0
    assert data["codes"] == [[1], [2], [3]]
    assert data["relations"] == [
        [{"code": 0, "coef": "1"}, {"code": 1, "coef": "1"}, {"code": 2, "coef": "1"}]
    ]


def test_export_rule_generator_degree4(capsys):
    rc, out, _ = run(capsys, "free-export", "--n", "3", "--p", "4", "--generator", "paper-rules")
    data = json.loads(out)
    assert rc == 0
    assert len(data["relations"]) == 80
    assert data["quotient_multiplier"] == 5


def test_export_both_with_containment(capsys):
    rc, out, _ = run(capsys, "free-export", "--n", "3", "--p", "4", "--generator", "both")
    data = json.loads(out)
    assert rc == 0
    assert data["joint"]["quotient_multiplier"] == 5
    assert data["containment"]["rule_rows_checked"] == 80
    assert data["containment"]["contained_in_operadic"] is True
    assert data["containment"]["failing_rows"] == []
    assert data["operadic"]["rank"] == 50


def test_export_to_file(tmp_path, capsys):
    target = tmp_path / "system.json"
    rc, out, _ = run(capsys, "free-export", "--n", "3", "--p", "3", str(target))
    assert rc == 0 and out == ""
    data = json.loads(target.read_text())
    assert data["rank"] == 8


def test_export_tree_format(capsys):
    rc, out, _ = run(capsys, "free-export", "--n", "3", "--p", "2", "--format", "tree")
    assert rc == 0
    assert "code [2]" in out and "code [3]" in out
    assert "+-" in out


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--n", "3", "--p", "4", "--generator", "both"),
         "fd904a41d16758d1705c24f2dd549e78acd902af9eb87e5ca5c570f6be344f53"),
        (("--n", "4", "--p", "4"),
         "afa09a8869123a5e9158d3015e36df1ba8b37d61fa3b536ddfb03fc94a330511"),
        (("--n", "2", "--p", "6"),
         "35ce6dd46e2812a59a80ea4975bc35f64aa2cbbc609a6024d13a68477440fd6c"),
        (("--n", "3", "--p", "5"),
         "39032b20d99b5b7edbf500fed4070ae459a36a30811de0799808ffd6558e79a4"),
        (("--n", "3", "--p", "5", "--generator", "both"),
         "f4f661adce0d8b22431adae7f1628b3a753ef4f625ecb7fceee0f10e74c02b47"),
        # the tree output reads the joint quotient basis
        (("--n", "3", "--p", "5", "--generator", "both", "--format", "tree"),
         "b7bf96666f5eb2850846dd6d84abee3e2a5d362cf863b469cdae262c3dd5ebee"),
    ],
)
def test_export_output_is_pinned(capsys, argv, digest):
    rc, out, _ = run(capsys, "free-export", *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_export_errors(tmp_path, capsys):
    assert run(capsys, "free-export", "--n", "3", "--p", "7")[0] == 2
    assert run(capsys, "free-export", "--n", "2", "--p", "3", "--generator", "paper-rules")[0] == 2
    assert run(capsys, "free-export", "--n", "3", "--p", "0")[0] == 2
    missing_dir = tmp_path / "nodir" / "out.json"
    assert run(capsys, "free-export", "--n", "3", "--p", "2", str(missing_dir))[0] == 2


def test_free_dims_and_export_share_the_dispatch(capsys):
    # p=1 has no relations, p=2 is the seed row under either generator, and
    # both reports the joint system, which stacks the two seed rows at p=2;
    # at p=5 the operadic solve first takes the recursion, and the joint
    # system is stacked on the rows it left unbuilt
    for generator in ("operadic", "paper-rules", "both"):
        rc, out, _ = run(
            capsys, "free-dims", "--n", "3", "--p-max", "5", "--generator", generator,
            "--format", "json",
        )
        assert rc == 0
        table = json.loads(out)
        assert [r["p"] for r in table] == [1, 2, 3, 4, 5]
        for row in table:
            rc, out, _ = run(
                capsys, "free-export", "--n", "3", "--p", str(row["p"]),
                "--generator", generator, "--format", "json",
            )
            assert rc == 0
            data = json.loads(out)
            if generator == "both":
                data = data["joint"]
            rows = data["rows"] if generator == "both" else len(data["relations"])
            assert (rows, data["rank"], data["quotient_multiplier"]) == (
                row["rows"], row["rank"], row["multiplier"]
            ), (generator, row["p"])
        assert run(
            capsys, "free-export", "--n", "2", "--p", "1", "--generator", generator
        )[0] == (0 if generator == "operadic" else 2)


# --------------------------------------------------------------------- check


def test_check_builtin_outcomes(capsys):
    cases = [
        ("filiform5", "partial-assoc-of-associator", 0),
        ("matrix2", "partial-assoc", 0),
        ("matrix2", "total-assoc", 0),
        ("matrix2", "composition-relations", 0),
        ("heisenberg3", "jacobi", 0),
        ("so3", "jacobi", 0),
        ("so3", "partial-assoc-of-associator", 1),
        ("so3", "poisson-of-associator", 0),
    ]
    for algebra, identity, expected in cases:
        rc, out, _ = run(capsys, "check", "--algebra", algebra, "--identity", identity)
        assert rc == expected, (algebra, identity, out)


def test_check_table_has_human_line_and_machine_json(capsys):
    rc, out, _ = run(capsys, "check", "--algebra", "matrix2", "--identity", "partial-assoc")
    lines = out.strip().splitlines()
    assert rc == 0
    assert lines[0] == "partial-assoc on matrix2: PASS"
    machine = json.loads(lines[1])
    assert machine["holds"] is True and machine["witness"] is None


def test_check_json_format_failure_witness(capsys, tmp_path):
    rng = random.Random(0)
    entries = {}
    for _ in range(8):
        key = (tuple(rng.randrange(2) for _ in range(2)), rng.randrange(2))
        entries[key] = entries.get(key, 0) + rng.randint(-2, 2)
    path = write_json(tmp_path / "rand.json", MultiMap.from_entries(2, 2, entries).to_json_dict())
    rc, out, _ = run(capsys, "check", "--algebra", path, "--identity", "total-assoc", "--format", "json")
    assert rc == 1
    machine = json.loads(out)
    assert machine["holds"] is False and machine["witness"] is not None


def test_check_product_file(tmp_path, capsys):
    mu = random_square_zero(3, 3, 11, 1)
    path = write_json(tmp_path / "sz.json", mu.to_json_dict())
    rc, _, _ = run(capsys, "check", "--algebra", path, "--identity", "partial-assoc")
    assert rc == 0
    rc, _, _ = run(capsys, "check", "--algebra", path, "--identity", "roby")
    assert rc == 1  # square-zero maps are not antisymmetry-shaped


def test_check_bracket_file(tmp_path, capsys):
    path = write_json(tmp_path / "heis.json", heisenberg3().to_json_dict())
    rc, _, _ = run(capsys, "check", "--algebra", path, "--identity", "jacobi")
    assert rc == 0
    # the bracket is also a plain binary product
    rc, _, _ = run(capsys, "check", "--algebra", path, "--identity", "commutativity")
    assert rc == 1


def test_check_jacobi_violation(tmp_path, capsys):
    bad = bracket_from_pairs(3, {(0, 1): (0, 1), (1, 2): (1, 1), (0, 2): (2, 1)})
    path = write_json(tmp_path / "bad.json", bad.to_json_dict())
    rc, out, _ = run(capsys, "check", "--algebra", path, "--identity", "jacobi")
    assert rc == 1
    assert "FAIL" in out


def test_check_comultiplication_file(tmp_path, capsys):
    path = write_json(tmp_path / "group.json", grouplike(2, 3).to_json_dict())
    rc, _, _ = run(capsys, "check", "--algebra", path, "--identity", "total-coassoc")
    assert rc == 0
    # odd arity: all insertion words agree but the signed sum survives
    rc, _, _ = run(capsys, "check", "--algebra", path, "--identity", "partial-coassoc")
    assert rc == 1
    path = write_json(tmp_path / "group2.json", grouplike(2, 2).to_json_dict())
    rc, _, _ = run(capsys, "check", "--algebra", path, "--identity", "partial-coassoc")
    assert rc == 0


def test_check_commutativity_symmetric_product(tmp_path, capsys):
    diag = MultiMap.from_entries(2, 2, {((i, i), i): 1 for i in range(2)})
    # the check is the alternating sum, weaker than commutativity from arity
    # 3 on: this ternary product passes, though mu(e1,e1,e0) != mu(e0,e1,e1)
    ternary = MultiMap.from_entries(2, 3, {((0, 1, 1), 0): 1, ((1, 0, 1), 0): 1})
    for name, mu in (("diag", diag), ("ternary", ternary)):
        path = write_json(tmp_path / f"{name}.json", mu.to_json_dict())
        rc, _, _ = run(capsys, "check", "--algebra", path, "--identity", "commutativity")
        assert rc == 0


def test_check_input_errors(tmp_path, capsys):
    rc, _, err = run(capsys, "check", "--algebra", "matrix2", "--identity", "nope")
    assert rc == 2 and "unknown identity" in err
    for ref in (str(tmp_path / "missing.json"), str(tmp_path)):  # a directory is no file
        rc, _, err = run(capsys, "check", "--algebra", ref, "--identity", "jacobi")
        assert rc == 2 and "neither a built-in algebra" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "check", "--algebra", str(bad), "--identity", "jacobi")[0] == 2
    shape = write_json(tmp_path / "shape.json", {"dim": 2, "entries": []})
    assert run(capsys, "check", "--algebra", shape, "--identity", "partial-assoc")[0] == 2
    listed = write_json(tmp_path / "list.json", [1, 2])
    rc, out, err = run(capsys, "check", "--algebra", listed, "--identity", "partial-assoc")
    assert (rc, out) == (2, "") and "must hold a JSON object" in err
    # kind mismatches
    assert run(capsys, "check", "--algebra", "filiform5", "--identity", "total-coassoc")[0] == 2
    assert run(capsys, "check", "--algebra", "matrix2", "--identity", "jacobi")[0] == 2
    assert run(capsys, "check", "--algebra", "matrix2", "--identity", "roby")[0] == 2
    product = write_json(tmp_path / "product.json", builtin_algebra("matrix2").to_json_dict())
    rc, out, err = run(capsys, "check", "--algebra", product, "--identity", "jacobi")
    assert (rc, out) == (2, "") and "the identity needs a bracket" in err
    # bracket JSON whose entries break the symmetry law
    broken = write_json(
        tmp_path / "asym.json",
        {
            "dim": 3,
            "arity": 2,
            "antisymmetric": True,
            "entries": [{"in": [0, 1], "out": 2, "coef": "1"}],
        },
    )
    assert run(capsys, "check", "--algebra", broken, "--identity", "jacobi")[0] == 2
    # degrees that are not integers are rejected, not truncated to (0, 1)
    fractional = write_json(
        tmp_path / "fractional.json",
        {"dim": 2, "arity": 2, "antisymmetric": True, "entries": [], "degrees": [0.9, "1"]},
    )
    rc, _, err = run(capsys, "check", "--algebra", fractional, "--identity", "jacobi")
    assert rc == 2 and "not an integer" in err


def test_product_comultiplication_mixup_names_the_entry_shape(tmp_path, capsys):
    # a comultiplication file read as a product, and a product file read as a
    # comultiplication, exit 2 naming the entry and the shape the kind needs
    comult = write_json(tmp_path / "grouplike.json", grouplike(2, 3).to_json_dict())
    product = write_json(tmp_path / "matrix2.json", builtin_algebra("matrix2").to_json_dict())
    product_shape = "a product entry maps 3 input indices to one output index"
    comult_shape = "a comultiplication entry maps one source index to 2 output indices"
    for argv, message in (
        (("check", "--algebra", comult, "--identity", "partial-assoc"), "entry 0 -> (0, 0, 0): " + product_shape),
        (("cohomology", "--algebra", comult), "entry 0 -> (0, 0, 0): " + product_shape),
        (("check", "--algebra", product, "--identity", "total-coassoc"), "entry (0, 0) -> 0: " + comult_shape),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err == f"error: malformed algebra file {argv[2]}: {message}\n", (argv, err)


def test_check_integral_fraction_witness_is_a_json_number(tmp_path, capsys):
    # fractional structure constants whose defect is a whole number: the
    # witness prints as a JSON number, as an int witness does, not as "4"
    product = {
        "dim": 2, "arity": 2, "entries": [
            {"in": [0, 0], "out": 0, "coef": "1/2"},
            {"in": [0, 0], "out": 1, "coef": "2"},
            {"in": [1, 0], "out": 0, "coef": "2"},
        ],
    }
    path = write_json(tmp_path / "half.json", product)
    rc, out, _ = run(capsys, "check", "--algebra", path, "--identity", "partial-assoc", "--format", "json")
    assert rc == 1
    assert json.loads(out)["witness"] == [[0, 0, 0, 0], 4]
    # roby's witness is a sum of stored constants, not a MultiMap entry
    triple = {
        "dim": 3, "arity": 3, "entries": [
            {"in": [0, 1, 2], "out": 0, "coef": "1/2"},
            {"in": [0, 2, 1], "out": 0, "coef": "7/2"},
        ],
    }
    path = write_json(tmp_path / "roby.json", triple)
    rc, out, _ = run(capsys, "check", "--algebra", path, "--identity", "roby", "--format", "json")
    assert rc == 1
    assert json.loads(out)["witness"] == ["six_term", [0, 1, 2], 0, 4]
    assert '"4"' not in out


def test_check_total_coassoc_fractional_witness_json(tmp_path, capsys):
    # a fractional comultiplication whose pairwise word difference is a
    # whole number; the witness is (p, q, source, outputs..., value)
    delta = {
        "dim": 2, "arity": 2, "entries": [
            {"in": 1, "out": [1, 0], "coef": "2"},
            {"in": 0, "out": [0, 1], "coef": "1/2"},
            {"in": 1, "out": [1, 1], "coef": "1/2"},
            {"in": 0, "out": [1, 0], "coef": "-3/2"},
            {"in": 1, "out": [0, 0], "coef": "5/2"},
        ],
    }
    path = write_json(tmp_path / "delta.json", delta)
    rc, out, _ = run(capsys, "check", "--algebra", path, "--identity", "total-coassoc", "--format", "json")
    assert rc == 1
    witness = json.loads(out)["witness"]
    assert witness == [0, 1, [0, 0, 0, 0], -5]
    assert type(witness[-1]) is int
    rc, out, _ = run(capsys, "check", "--algebra", path, "--identity", "partial-coassoc", "--format", "json")
    assert rc == 1
    assert json.loads(out)["witness"] == [[0, 0, 0, 0], -5]


def test_check_zero_denominator_coefficient(tmp_path, capsys):
    bad = write_json(
        tmp_path / "bad-coef.json",
        {"dim": 2, "arity": 3, "entries": [{"in": [0, 0, 0], "out": 1, "coef": "1/0"}]},
    )
    rc, out, err = run(capsys, "check", "--algebra", bad, "--identity", "partial-assoc")
    assert rc == 2 and out == "" and "malformed" in err


def test_json_booleans_are_not_numbers(tmp_path, capsys):
    # bool is a subclass of int in Python, but a JSON true or false is no
    # index, dimension, arity or coefficient
    def product(dim=2, arity=3, **entry):
        return {"dim": dim, "arity": arity,
                "entries": [{"in": [0] * arity, "out": 0, "coef": "1", **entry}]}

    cases = {
        "index": (product(**{"in": [True, False, 0]}), "not an integer"),
        "out": (product(out=True), "not an integer"),
        "dim": (product(dim=True), "dim must be a positive integer"),
        "arity": ({**product(arity=1), "arity": True}, "arity must be an integer"),
        "coef": (product(coef=True), "is not a number"),
    }
    for name, (data, message) in cases.items():
        path = write_json(tmp_path / f"{name}.json", data)
        for argv in (
            ("check", "--algebra", path, "--identity", "partial-assoc"),
            ("cohomology", "--algebra", path, "--steps", "1"),
        ):
            rc, out, err = run(capsys, *argv)
            assert rc == 2 and out == "" and "malformed" in err, (name, argv[0])
            assert message in err, (name, argv[0], err)


def test_antisymmetric_must_be_a_json_boolean(tmp_path, capsys):
    # "false", 0 and null are not false: a non-boolean "antisymmetric" is
    # malformed for every kind of input and for cohomology
    for name, value in (("string", "false"), ("zero", 0), ("null", None)):
        data = {"dim": 2, "arity": 2, "antisymmetric": value,
                "entries": [{"in": [0, 1], "out": 0, "coef": "1"}]}
        path = write_json(tmp_path / f"{name}.json", data)
        for argv in (
            ("check", "--algebra", path, "--identity", "partial-assoc"),
            ("check", "--algebra", path, "--identity", "jacobi"),
            ("check", "--algebra", path, "--identity", "partial-coassoc"),
            ("cohomology", "--algebra", path, "--steps", "1"),
        ):
            rc, out, err = run(capsys, *argv)
            assert rc == 2 and out == "" and "malformed" in err, (name, argv)
            assert '"antisymmetric" must be true or false' in err, (name, argv, err)
        with pytest.raises(ValueError, match="antisymmetric"):
            BracketAlgebra.from_json_dict(data)


def _one_coef_file(path, coef_json):
    """A ternary product file whose one entry has the coefficient coef_json,
    written as raw JSON text."""
    path.write_text(
        '{"dim": 2, "arity": 3, "entries": [{"in": [0, 0, 0], "out": 0, "coef": %s}]}'
        % coef_json
    )
    return str(path)


def test_check_non_finite_coefficient(tmp_path, capsys):
    # JSON reads Infinity and 1e400 both as the float inf
    for name, coef in (("inf", "Infinity"), ("e400", "1e400"), ("nan", "NaN")):
        path = _one_coef_file(tmp_path / f"{name}.json", coef)
        rc, out, err = run(capsys, "check", "--algebra", path, "--identity", "partial-assoc")
        assert rc == 2 and out == "" and "malformed" in err, name
        assert err.startswith("error:") and err.count("\n") == 1, name


def test_check_decimal_coefficient_reads_as_written(tmp_path, capsys):
    # a JSON number 0.1 is the decimal 1/10, as the string "0.1" is, and not
    # the binary double nearest to it
    for name, coef in (("number", "0.1"), ("string", '"0.1"'), ("exponent", "1E-1")):
        path = tmp_path / f"{name}.json"
        path.write_text(
            '{"dim": 2, "arity": 2, "entries": [{"in": [0, 0], "out": 1, "coef": %s}, '
            '{"in": [1, 1], "out": 0, "coef": 1}]}' % coef
        )
        rc, out, _ = run(
            capsys, "check", "--algebra", str(path), "--identity", "partial-assoc", "--format", "json"
        )
        assert rc == 1, name
        assert json.loads(out)["witness"] == [[0, 0, 1, 0], "1/10"], name


@pytest.mark.parametrize(
    "kind, a, b",
    [("product", [0, 1], 1), ("comultiplication", 1, [0, 1])],
)
def test_each_coefficient_text_is_parsed_once(tmp_path, monkeypatch, kind, a, b):
    # the digit budget's reading of a coefficient is the one the map is built
    # from, so a fraction or decimal goes through Fraction's parser once
    entries = [{"in": a, "out": b, "coef": coef} for coef in ("1/3", "0.25", 0.5)]
    text = json.dumps({"dim": 2, "arity": 2, "entries": entries})
    path = tmp_path / "mu.json"
    path.write_text(text)
    parsed = []

    class CountingFormat:  # Fraction(str) matches its text against this pattern
        def match(self, text):
            parsed.append(text)
            return rational_format.match(text)

    rational_format = fractions._RATIONAL_FORMAT
    with monkeypatch.context() as patched:
        patched.setattr(fractions, "_RATIONAL_FORMAT", CountingFormat())
        got = cli._algebra(str(path), kind, cli.DEFAULT_CAP)
    assert parsed == ["1/3", "0.25", "0.5"]
    cls = Comultiplication if kind == "comultiplication" else MultiMap
    want = cls.from_json_dict(json.loads(text, parse_float=cli._decimal_text))
    assert got == want
    assert list(got.terms.values()) == [Fraction(13, 12)]  # 1/3 + 1/4 + 1/2


def test_check_deeply_nested_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    rc, out, err = run(capsys, "check", "--algebra", str(path), "--identity", "partial-assoc")
    assert rc == 2 and out == "" and "nested too deeply" in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_check_huge_exact_coefficient(tmp_path, capsys):
    # rejected before the number is built, however large it would be
    for name, coef in (
        ("e5000", '"1e5000"'),
        ("e10m", '"1e10000000"'),
        ("long", '"%s"' % ("7" * 1001)),
        ("int", "7" * 1001),
        # a JSON number is sized as the decimal it writes: 10^-1500, not 0.0
        ("tiny", "1e-1500"),
    ):
        path = _one_coef_file(tmp_path / f"{name}.json", coef)
        start = time.perf_counter()
        rc, out, err = run(capsys, "check", "--algebra", path, "--identity", "partial-assoc")
        assert time.perf_counter() - start < 1, name
        assert rc == 2 and out == "" and "entry 0" in err and "1000 digits" in err, name
        assert err.startswith("error:") and err.count("\n") == 1, name
    # 10^999 has 1000 digits, the most one coefficient may have; the defect
    # 3 * 10^1998 still prints as the witness
    path = _one_coef_file(tmp_path / "edge.json", '"1e999"')
    rc, out, _ = run(capsys, "check", "--algebra", path, "--identity", "partial-assoc", "--format", "json")
    assert rc == 1
    assert json.loads(out)["witness"] == [[0, 0, 0, 0, 0, 0], 3 * 10**1998]


def test_check_coefficient_digits_count_every_denominator(tmp_path, capsys):
    # ten distinct 101-digit denominators and the numerator 1 go past 1000
    keys = [(x, j) for x in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)) for j in (0, 1)]
    entries = [
        {"in": list(x), "out": j, "coef": f"1/{10**100 + k}"} for k, (x, j) in enumerate(keys)
    ]
    entries += [{"in": [1, 1, 1], "out": j, "coef": f"1/{10**100 + 8 + j}"} for j in (0, 1)]
    path = write_json(tmp_path / "dens.json", {"dim": 2, "arity": 3, "entries": entries})
    rc, out, err = run(capsys, "check", "--algebra", path, "--identity", "partial-assoc")
    assert rc == 2 and out == "" and "entry 9 " in err
    # the same denominator repeated counts once
    for e in entries:
        e["coef"] = f"1/{10**100}"
    path = write_json(tmp_path / "same.json", {"dim": 2, "arity": 3, "entries": entries})
    assert run(capsys, "check", "--algebra", path, "--identity", "partial-assoc")[0] in (0, 1)


def test_check_coefficient_budget_counts_digits_exactly(tmp_path, capsys):
    # each value has at most 1000 digits, whatever its sign, decimal point
    # or exponent; 10^999.5 and up is where a bit-length estimate says 1001.
    # An exponent of 1000 or more is within budget when the mantissa's
    # digits take it back: 10^999, and 10^-998 (numerator 1, 999-digit denominator)
    for name, coef in (
        ("neg-exp", '"-1e999"'),
        ("neg-long", '"-%s"' % ("9" * 1000)),
        ("point", '"1.5e998"'),
        ("json-int", "9" * 1000),
        ("shifted", '"0.001e1002"'),
        ("shifted-den", '"1000e-1001"'),
    ):
        path = _one_coef_file(tmp_path / f"{name}.json", coef)
        rc, out, err = run(capsys, "check", "--algebra", path, "--identity", "partial-assoc")
        assert rc == 1 and err == "", (name, err)
    path = _one_coef_file(tmp_path / "over.json", '"-%s"' % ("9" * 1001))
    rc, out, err = run(capsys, "check", "--algebra", path, "--identity", "partial-assoc")
    assert rc == 2 and out == "" and "entry 0" in err and "1000 digits" in err
    # the longest numerator counts, not the last: 901 + 100 digits
    entries = [{"in": [0, 0, 0], "out": 0, "coef": str(10**900)},
               {"in": [0, 0, 1], "out": 0, "coef": f"1/{10**99}"}]
    path = write_json(tmp_path / "longest.json", {"dim": 2, "arity": 3, "entries": entries})
    rc, out, err = run(capsys, "check", "--algebra", path, "--identity", "partial-assoc")
    assert rc == 2 and out == "" and "entry 1 " in err
    # a string too long to read cheaply is rejected unread; Fraction would
    # first build 10^4000000 for this decimal point
    path = _one_coef_file(tmp_path / "text.json", '"0.%s"' % ("1" * 4 * 10**6))
    start = time.perf_counter()
    rc, out, err = run(capsys, "check", "--algebra", path, "--identity", "partial-assoc")
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == "" and "entry 0 is longer than 2000 characters" in err


def test_digits_is_exact_at_every_power_of_ten():
    for k in range(1, 1201):
        for n in (10 ** (k - 1), 10**k - 1):
            assert cli._digits(n) == cli._digits(-n) == k == len(str(n))
    assert cli._digits(0) == 1


_FUZZ_COEFS = st.one_of(
    st.integers(-(10**12), 10**12),
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(-1, 99)),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-1500, 1500)),
    st.builds("{}.{}E{}".format, st.integers(0, 9), st.integers(0, 999), st.integers(-400, 400)),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _fuzz_products(draw, comultiplication=False):
    """A product file with in-range indices and generated coefficients; with
    comultiplication, its transpose, "in" a source index and "out" a tuple."""
    dim = draw(st.integers(1, 2))
    arity = draw(st.integers(2, 3))
    index = st.integers(0, dim - 1)
    word = st.lists(index, min_size=arity, max_size=arity)
    entry = st.fixed_dictionaries({
        "in": index if comultiplication else word,
        "out": word if comultiplication else index,
        "coef": _FUZZ_COEFS,
    })
    return {"dim": dim, "arity": arity, "entries": draw(st.lists(entry, max_size=5))}


def _negated(coef):
    if isinstance(coef, str):
        return coef[1:] if coef.startswith("-") else "-" + coef
    return -coef


@st.composite
def _fuzz_brackets(draw):
    """A bracket file with "antisymmetric": true and an optional "degrees"
    key, which may have the wrong length or values outside 0 and 1. Under
    degrees of the right shape, each entry [x, y] -> z has an output of the
    right parity and comes with its mirror [y, x] under the graded symmetry
    law, and [x, x] is drawn only for odd x."""
    dim = draw(st.integers(1, 3))
    index = st.integers(0, dim - 1)
    valid = st.lists(st.integers(0, 1), min_size=dim, max_size=dim)
    degrees = draw(st.one_of(st.none(), st.none(), valid, st.lists(st.integers(-1, 2), max_size=4)))
    data = {"dim": dim, "arity": 2, "antisymmetric": True, "entries": []}
    if degrees is not None:
        data["degrees"] = degrees
    graded = degrees is not None and len(degrees) == dim and set(degrees) <= {0, 1}
    parity = (lambda i: degrees[i]) if graded else (lambda i: 0)
    for i, j, k, coef in draw(st.lists(st.tuples(index, index, index, _FUZZ_COEFS), max_size=4)):
        odd = parity(i) and parity(j)
        if (i == j and not odd) or parity(k) != (parity(i) + parity(j)) % 2:
            continue
        data["entries"].append({"in": [i, j], "out": k, "coef": coef})
        if i != j:
            data["entries"].append({"in": [j, i], "out": k, "coef": coef if odd else _negated(coef)})
    return data


def _check_case(files, identities):
    """(subcommand, file data, flags after --algebra) for a check call."""
    flags = st.sampled_from(identities).map(lambda name: ["--identity", name])
    return st.tuples(st.just("check"), files, flags)


_FUZZ_CASES = st.one_of(
    _check_case(
        _fuzz_products(),
        ["partial-assoc", "total-assoc", "composition-relations", "commutativity", "roby"],
    ),
    _check_case(_fuzz_products(comultiplication=True), ["partial-coassoc", "total-coassoc"]),
    _check_case(
        _fuzz_brackets(), ["jacobi", "partial-assoc-of-associator", "poisson-of-associator"]
    ),
    st.tuples(
        st.just("cohomology"),
        _fuzz_products(),
        st.tuples(st.integers(0, 3), st.integers(0, 1)).map(
            lambda t: ["--steps", str(t[0]), "--slot", str(t[1])]
        ),
    ),
)


# tmp_path is shared by the examples; each one overwrites the same file
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=250,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_FUZZ_CASES)
def test_check_loader_fuzz(tmp_path, case):
    # JSON floats include inf and nan, which json.dumps writes as Infinity and NaN
    command, data, flags = case
    path = write_json(tmp_path / "fuzz.json", data)
    assert main([command, "--algebra", path, *flags]) in (0, 1, 2)


# what an edit puts in place of a key, an entry, an index or a coefficient
_ODD_VALUES = (
    0, 1, 2, 3, 5, -1, 10**6, 10**40, 2.5, -0.0, 1e308, "2", "", "x", "1/3", "-1/0",
    "0.5", "1e3", "1e-9999", "nan", "inf", True, False, None, [], [0], [0, 1], [1, 0, 1],
    [[0]], {}, {"in": [0, 0]},
)


def _mutated_algebra(rng):
    """A small valid product, comultiplication or bracket file, then one to
    three edits of its top-level keys, its entries' shapes, their indices or
    their coefficients."""
    words = [[i, j] for i in range(2) for j in range(2)]
    data = rng.choice((
        {"dim": 2, "arity": 2, "entries": [{"in": w, "out": rng.randrange(2), "coef": 1} for w in words]},
        {"dim": 2, "arity": 2, "entries": [{"in": rng.randrange(2), "out": w, "coef": "1/2"} for w in words]},
        {"dim": 3, "arity": 2, "antisymmetric": True, "entries": [  # so(3)
            {"in": [x, y], "out": k, "coef": c}
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
            for x, y, c in ((i, j, 1), (j, i, -1))
        ]},
    ))
    entries = data["entries"]
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(6)
        key = rng.choice(("dim", "arity", "entries", "antisymmetric", "degrees"))
        e = rng.choice([x for x in entries if isinstance(x, dict)] or [{}])
        if edit == 0:  # a top-level key set to an odd value or dropped
            if rng.random() < 0.2:
                data.pop(key, None)
            else:
                data[key] = rng.choice(_ODD_VALUES)
        elif edit == 1:  # a coefficient of another type
            e["coef"] = rng.choice(_ODD_VALUES)
        elif edit == 2 and isinstance(e.get("in"), list):  # an input word of another length or type
            e["in"] = rng.choice((e["in"][:-1], e["in"] + [rng.randrange(-1, 4)], (e["in"] or [0])[0]))
        elif edit == 3:  # an index out of range or of another type
            e[rng.choice(("in", "out"))] = rng.choice(_ODD_VALUES[:12])
        elif edit == 4 and entries:  # an entry that is not an object, or lacks a key
            k = rng.randrange(len(entries))
            entries[k] = rng.choice((dict(e), [0, 1], None, "entry"))
            if isinstance(entries[k], dict):
                entries[k].pop(rng.choice(("in", "out", "coef")), None)
        else:  # a repeated entry
            entries.append(dict(e))
    return data


def test_main_exit_codes_on_mutated_algebra_files(tmp_path, capsys):
    # every identity and one cohomology step on 300 seeded mutations: each
    # request answers 0, 1 or 2, and nothing escapes main or prints a traceback
    rng = random.Random(0)
    path = tmp_path / "mutated.json"
    requests = [["check", "--algebra", str(path), "--identity", name] for name in cli.IDENTITY_CHECKS]
    requests.append(["cohomology", "--algebra", str(path), "--steps", "1"])
    codes = set()
    for k in range(300):
        data = _mutated_algebra(rng)
        path.write_text(json.dumps(data))
        for argv in requests:
            rc, out, err = run(capsys, *argv)
            assert rc in (0, 1, 2) and "Traceback" not in out + err, (k, data, argv)
            codes.add(rc)
    assert codes == {0, 1, 2}


def _int_or_none(text):
    try:
        return int(text)
    except ValueError:
        return None


_JUNK = st.text(max_size=6).filter(lambda text: _int_or_none(text) is None)


@st.composite
def _free_cases(draw):
    """argv of a free-dims or free-export call. Every flag starts from a small
    in-range value; then up to three flags get a low (at most 1) int, a huge
    int or junk that int() rejects, or are left out. A cap is never huge, so
    no example solves past p = 5, which keeps 250 examples quick
    (free-export --generator both at p = 6 takes about 0.3 s). free-export's
    output path is a file name or "." under the working directory."""
    export = draw(st.booleans())
    flags = {
        "--n": str(draw(st.integers(2, 5))),
        "--p" if export else "--p-max": str(draw(st.integers(1, 5))),
        "--cap": str(draw(st.integers(1, DEFAULT_DEGREE_CAP))),
        "--generator": draw(st.sampled_from(GENERATORS)),
        "--format": draw(st.sampled_from(("json", "tree") if export else ("json", "table"))),
    }
    for name in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        kind = draw(st.sampled_from(("low", "huge", "junk", "absent")))
        if kind == "absent":
            del flags[name]
        elif kind == "junk":
            flags[name] = draw(_JUNK)
        elif kind == "huge" and name != "--cap":
            flags[name] = str(draw(st.integers(min_value=10**6)))
        else:
            flags[name] = str(draw(st.integers(max_value=1)))
    argv = ["free-export" if export else "free-dims"]
    for name, value in flags.items():
        argv += [name, value]
    if export:
        argv += draw(st.sampled_from([[], ["out.txt"], ["."]]))
    return argv


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=250,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_free_cases())
def test_free_flags_fuzz(tmp_path, monkeypatch, argv):
    # free-export writes only under tmp_path; "." is a directory and exits 2
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)


def test_check_oversized_structure(tmp_path, capsys):
    # rejected against the cochain cap before any identity runs
    for name, dim, arity in (("dim", 1000000, 3), ("arity", 2, 10**18), ("flat", 1, 10**18)):
        path = write_json(tmp_path / f"{name}.json", {"dim": dim, "arity": arity, "entries": []})
        for identity in ("partial-assoc", "roby", "partial-coassoc"):
            rc, out, err = run(capsys, "check", "--algebra", path, "--identity", identity)
            assert rc == 2 and out == "" and "cap" in err, (name, identity)
    # the largest ternary structure under the default cap still loads
    path = write_json(tmp_path / "edge.json", {"dim": 11, "arity": 3, "entries": []})
    assert run(capsys, "check", "--algebra", path, "--identity", "partial-assoc")[0] == 0


def test_check_reads_stdin(capsys, monkeypatch):
    # "-" reads the document from stdin under the exit-code contract of a file
    product = json.dumps(random_square_zero(3, 3, 11, 1).to_json_dict())
    cases = [
        (product, "partial-assoc", 0),
        (product, "roby", 1),
        ("", "partial-assoc", 2),
        ("{not json", "partial-assoc", 2),
        ('{"dim": 2, "arity": 3, "entries": [{"in": [0, 0, 0], "out": 1, "coef": "1/0"}]}',
         "partial-assoc", 2),
    ]
    for text, identity, expected in cases:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        rc, out, err = run(capsys, "check", "--algebra", "-", "--identity", identity)
        assert rc == expected, (text[:20], identity, err)
        assert (out == "") == (expected == 2)
    monkeypatch.setattr(sys, "stdin", None)  # as when fd 0 was closed at start
    rc, out, err = run(capsys, "check", "--algebra", "-", "--identity", "partial-assoc")
    assert rc == 2 and out == "" and "stdin" in err
    # the digit budget and the nesting guard hold for stdin too
    coef = '{"dim": 2, "arity": 3, "entries": [{"in": [0, 0, 0], "out": 0, "coef": "1e5000"}]}'
    for text, message in ((coef, "1000 digits"), ("[" * 100000 + "]" * 100000, "nested too deeply")):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        rc, out, err = run(capsys, "check", "--algebra", "-", "--identity", "partial-assoc")
        assert rc == 2 and out == "" and message in err


def test_cohomology_reads_stdin(capsys, monkeypatch):
    matrix2 = json.dumps(builtin_algebra("matrix2").to_json_dict())
    monkeypatch.setattr(sys, "stdin", io.StringIO(matrix2))
    rc, out, _ = run(capsys, "cohomology", "--algebra", "-", "--format", "json")
    assert rc == 0
    expected = run(capsys, "cohomology", "--algebra", "matrix2", "--format", "json")[1]
    assert json.loads(out) == {**json.loads(expected), "algebra": "-"}


def test_check_reads_a_pipe_path(tmp_path, capsys):
    # a FIFO, as from process substitution, is read like a file: the same
    # exit code and report as the regular file holding the same text
    fifo = tmp_path / "product.fifo"
    os.mkfifo(fifo)
    text = json.dumps(random_square_zero(3, 3, 11, 1).to_json_dict())
    argv = ("--identity", "roby", "--format", "json")
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    try:
        rc, out, err = run(capsys, "check", "--algebra", str(fifo), *argv)
    finally:
        writer.join(5)
        if writer.is_alive():  # the pipe was never opened; release the writer
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join()
    regular = tmp_path / "product.json"
    regular.write_text(text)
    expected = run(capsys, "check", "--algebra", str(regular), *argv)
    assert rc == expected[0] == 1, err
    assert json.loads(out) == {**json.loads(expected[1]), "algebra": str(fifo)}


def test_check_loader_path_errors(tmp_path, capsys):
    # a path through a regular file names no file; /dev/null opens, but
    # holds no JSON document
    (tmp_path / "x.json").write_text("{}")
    rc, out, err = run(capsys, "check", "--algebra", str(tmp_path / "x.json" / "y"),
                       "--identity", "partial-assoc")
    assert rc == 2 and out == "" and "neither a built-in algebra" in err
    rc, out, err = run(capsys, "check", "--algebra", os.devnull, "--identity", "partial-assoc")
    assert rc == 2 and out == "" and "cannot read algebra file" in err
    assert err.startswith("error:") and err.count("\n") == 1


# ---------------------------------------------------------------- cohomology


def test_cohomology_zero_product_full_dims(tmp_path, capsys):
    path = write_json(tmp_path / "zero.json", {"dim": 2, "arity": 2, "entries": []})
    rc, out, _ = run(capsys, "cohomology", "--algebra", path, "--slot", "0", "--steps", "2", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    for step in data["steps"]:
        full = 2 ** step["arity_in"] * 2
        assert step["dim_ker"] == full
        assert step["dim_H"] == full


def test_cohomology_one_dim_classical(tmp_path, capsys):
    path = write_json(
        tmp_path / "k.json",
        {"dim": 1, "arity": 2, "entries": [{"in": [0, 0], "out": 0, "coef": "1"}]},
    )
    rc, out, _ = run(capsys, "cohomology", "--algebra", path, "--slot", "0", "--steps", "3", "--format", "json")
    assert rc == 0
    assert [s["dim_H"] for s in json.loads(out)["steps"]] == [0, 0, 0]


def test_cohomology_matrix2_deterministic(capsys):
    rc, out, _ = run(capsys, "cohomology", "--algebra", "matrix2", "--slot", "0", "--steps", "2")
    assert rc == 0
    machine = json.loads(out.strip().splitlines()[-1])
    assert machine["steps"] == [
        {"arity_in": 1, "dim_ker": 3, "dim_im_prev": 0, "dim_H": 3},
        {"arity_in": 2, "dim_ker": 13, "dim_im_prev": 13, "dim_H": 0},
    ]
    rc2, out2, _ = run(capsys, "cohomology", "--algebra", "matrix2", "--slot", "0", "--steps", "2")
    assert out2 == out


def test_cohomology_matrix2_five_steps(capsys):
    # the last differential lands on 4^7 = 16384 cochain coordinates, within
    # the default cap
    rc, out, _ = run(capsys, "cohomology", "--algebra", "matrix2", "--steps", "5", "--format", "json")
    assert rc == 0
    steps = json.loads(out)["steps"]
    assert [s["arity_in"] for s in steps] == [1, 2, 3, 4, 5]
    assert [s["dim_H"] for s in steps] == [3, 0, 0, 0, 0]


def test_cohomology_errors(tmp_path, capsys, monkeypatch):
    # caps count the guard space one arity past the last step
    rc, _, err = run(capsys, "cohomology", "--algebra", "matrix2", "--steps", "1", "--cap", "50")
    assert rc == 2 and "cap" in err
    monkeypatch.setenv("NARY_CAP", "50")
    assert run(capsys, "cohomology", "--algebra", "matrix2", "--steps", "1")[0] == 2
    monkeypatch.delenv("NARY_CAP")
    assert run(capsys, "cohomology", "--algebra", "matrix2", "--slot", "5")[0] == 2
    assert run(capsys, "cohomology", "--algebra", "matrix2", "--steps", "0")[0] == 2
    # a bracket is not partially associative, so the row is rejected
    assert run(capsys, "cohomology", "--algebra", "so3", "--steps", "1")[0] == 2
    linear = write_json(tmp_path / "linear.json", MultiMap.identity(2).to_json_dict())
    rc, out, err = run(capsys, "cohomology", "--algebra", linear, "--steps", "1")
    assert (rc, out) == (2, "") and "cohomology rows need arity at least 2" in err


# ------------------------------------------------------------------ selftest


def test_selftest_default_green(capsys):
    rc, out, _ = run(capsys, "selftest")
    assert rc == 0
    assert out.strip().splitlines()[-1].endswith("0 failed")


def test_selftest_json_sorted_suites(capsys):
    rc, out, _ = run(capsys, "selftest", "--seed", "3", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    names = [s["suite"] for s in data["suites"]]
    assert names == sorted(names) and len(names) == 7
    assert data["failed"] == 0 and data["passed"] > 0


def test_selftest_deterministic(capsys):
    rc1, out1, _ = run(capsys, "selftest", "--seed", "9", "--format", "json")
    rc2, out2, _ = run(capsys, "selftest", "--seed", "9", "--format", "json")
    assert (rc1, out1) == (rc2, out2)


def test_selftest_suite_selection(capsys):
    rc, out, _ = run(capsys, "selftest", "--suites", "graded,coalg", "--format", "json")
    assert rc == 0
    assert [s["suite"] for s in json.loads(out)["suites"]] == ["coalg", "graded"]


def test_selftest_selection_independent_streams():
    full = run_selftest(seed=7)
    only = run_selftest(seed=7, suites=["graded"])
    assert only == [r for r in full if r.suite == "graded"]


def test_selftest_empty_selection(capsys):
    rc, out, _ = run(capsys, "selftest", "--suites", "")
    assert rc == 0
    assert "total 0 passed  0 failed" in out


def test_selftest_unknown_suite(capsys):
    rc, _, err = run(capsys, "selftest", "--suites", "bogus")
    assert rc == 2 and "unknown suites" in err


def test_selftest_graded_coboundary_sees_the_odd_sign(capsys, monkeypatch):
    # the check's even cochain has an odd coboundary that need not vanish, so
    # a coboundary that subtracts phi * mu for an odd phi too fails it (at
    # each of seeds 0..299)
    def even_sign_coboundary(mu, phi):
        return cli.graded_gprod(mu, phi) - cli.graded_gprod(phi, mu)

    monkeypatch.setattr(cli, "graded_coboundary", even_sign_coboundary)
    for seed in range(4):
        rc, out, _ = run(capsys, "selftest", "--seed", str(seed), "--suites", "graded", "--format", "json")
        assert rc == 1
        assert json.loads(out)["suites"][0]["failures"] == ["graded_coboundary_squares_to_zero"]


def test_selftest_broken_fixture_fails(capsys, monkeypatch):
    monkeypatch.setitem(cli.SELFTEST_FIXTURES, "prelie_mirror_sign", -1)
    rc, out, _ = run(capsys, "selftest", "--format", "json")
    assert rc == 1
    data = json.loads(out)
    broken = {s["suite"]: s for s in data["suites"]}["gerstenhaber"]
    assert "prelie_identity" in broken["failures"]
    others = [s for s in data["suites"] if s["suite"] != "gerstenhaber"]
    assert all(s["failed"] == 0 for s in others)


def test_selftest_fixture_override_many_seeds(monkeypatch):
    for seed in (0, 4, 12):
        assert all(r.failed == 0 for r in run_selftest(seed=seed))
        with monkeypatch.context() as m:
            m.setitem(cli.SELFTEST_FIXTURES, "prelie_mirror_sign", -1)
            mutated = run_selftest(seed=seed)
        broken = [r for r in mutated if r.suite == "gerstenhaber"][0]
        assert "prelie_identity" in broken.failures


# ------------------------------------------------------------------ plumbing


def _raise_value_error(*args, **kwargs):
    raise ValueError("library says no")


@pytest.mark.parametrize(
    "argv, patch",
    [
        (("check", "--algebra", "matrix2", "--identity", "partial-assoc"), "IDENTITY_CHECKS"),
        (("free-dims", "--n", "3", "--p-max", "2"), "free_dims"),
        (("free-export", "--n", "3", "--p", "2"), "solve"),
        (("cohomology", "--algebra", "matrix2", "--steps", "1"), "cohomology_dims"),
        (("selftest", "--seed", "0"), "run_selftest"),
    ],
)
def test_library_value_error_exits_two(capsys, monkeypatch, argv, patch):
    # main maps a ValueError from any command's library call to one error
    # line and exit 2
    if patch == "IDENTITY_CHECKS":
        entry = ("product", _raise_value_error, "partial_associativity")
        monkeypatch.setitem(cli.IDENTITY_CHECKS, "partial-assoc", entry)
    else:
        monkeypatch.setattr(cli, patch, _raise_value_error)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", "error: library says no\n")


def test_module_entry_point_exit_codes(tmp_path):
    # the exit-code contract through python -m naryalg.cli, in a new process
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("NARY_CAP", None)
    for argv, code in (
        (("check", "--algebra", "matrix2", "--identity", "partial-assoc"), 0),
        (("check", "--algebra", "so3", "--identity", "partial-assoc-of-associator"), 1),
        (("check", "--algebra", str(tmp_path / "missing.json"), "--identity", "partial-assoc"), 2),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "naryalg.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == code, (argv, done.stderr)
        assert "Traceback" not in done.stderr, argv
        if code == 2:
            assert done.stdout == "" and done.stderr.startswith("error: ")
            assert done.stderr.count("\n") == 1


def test_help_and_usage_exit_codes(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys)[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "free-dims", "--n", "3")[0] == 2  # missing --p-max


def test_cli_surface_is_pinned():
    # help, usage errors and answers, byte for byte at 80 columns
    pinned = json.loads((Path(__file__).parent / "cli_surface.json").read_text())
    assert [s["argv"] for s in pinned] == [list(a) for a in ARGVS + SELFTEST_ARGVS]
    for want in pinned:
        assert surface(want["argv"]) == want


def test_one_parser_serves_a_process(capsys, monkeypatch):
    # failing and succeeding requests of all five subcommands, interleaved;
    # each answers the same in either order
    monkeypatch.setenv("COLUMNS", "80")
    requests = [
        ("no-such-command",),
        ("check", "--algebra", "matrix2", "--identity", "partial-assoc"),
        ("free-dims", "--n", "3", "--p-max", "4", "--no-such-flag"),
        ("free-dims", "--n", "3", "--p-max", "4", "--format", "json"),
        ("cohomology", "--steps", "1"),
        ("check", "--algebra", "so3", "--identity", "partial-assoc-of-associator"),
        ("check", "--help"),
        ("cohomology", "--algebra", "matrix2", "--steps", "2"),
        ("free-export", "--n", "3"),
        ("selftest", "--suites", "exactnum,coalg"),
        ("free-export", "--n", "3", "--p", "2"),
    ]

    def answer(argv):
        rc, out, _ = run(capsys, *argv)
        return rc, re.sub(r'"seconds": [-+.\deE]+', '"seconds": 0', out)

    forward = [answer(argv) for argv in requests]
    backward = [answer(argv) for argv in reversed(requests)][::-1]
    assert forward == backward
    assert [rc for rc, _ in forward] == [2, 0, 2, 0, 2, 1, 0, 0, 2, 0, 0]
    assert cli._build_parser.cache_info().misses == 1


def test_help_width_follows_columns(capsys, monkeypatch):
    # the reused parser reads the terminal width each time it prints help
    helps = {}
    for columns in ("60", "60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        rc, out, _ = run(capsys, "check", "--help")
        assert rc == 0
        assert helps.setdefault(columns, out) == out
    assert helps["60"] != helps["120"]
    assert max(map(len, helps["60"].splitlines())) <= 60
    assert max(map(len, helps["120"].splitlines())) > 60
