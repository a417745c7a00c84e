import hashlib
import json
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from naryalg import cli
from naryalg.cli import main, run_selftest
from naryalg.coalg import grouplike
from naryalg.gerstenhaber import MultiMap
from naryalg.identities import bracket_from_pairs, heisenberg3, random_square_zero


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
    # p=1 has no relations, p=2 is the seed row under every generator, and
    # both reports the joint system
    for generator in ("operadic", "paper-rules", "both"):
        rc, out, _ = run(
            capsys, "free-dims", "--n", "3", "--p-max", "4", "--generator", generator,
            "--format", "json",
        )
        assert rc == 0
        table = json.loads(out)
        assert [r["p"] for r in table] == [1, 2, 3, 4]
        for row in table:
            rc, out, _ = run(
                capsys, "free-export", "--n", "3", "--p", str(row["p"]),
                "--generator", generator, "--format", "json",
            )
            assert rc == 0
            data = json.loads(out)
            if generator == "both":
                data = data["joint"]
            assert (data["rank"], data["quotient_multiplier"]) == (
                row["rank"], row["multiplier"]
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
    path = write_json(tmp_path / "diag.json", diag.to_json_dict())
    rc, _, _ = run(capsys, "check", "--algebra", path, "--identity", "commutativity")
    assert rc == 0


def test_check_input_errors(tmp_path, capsys):
    rc, _, err = run(capsys, "check", "--algebra", "matrix2", "--identity", "nope")
    assert rc == 2 and "unknown identity" in err
    rc, _, err = run(capsys, "check", "--algebra", str(tmp_path / "missing.json"), "--identity", "jacobi")
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "check", "--algebra", str(bad), "--identity", "jacobi")[0] == 2
    shape = write_json(tmp_path / "shape.json", {"dim": 2, "entries": []})
    assert run(capsys, "check", "--algebra", shape, "--identity", "partial-assoc")[0] == 2
    # kind mismatches
    assert run(capsys, "check", "--algebra", "filiform5", "--identity", "total-coassoc")[0] == 2
    assert run(capsys, "check", "--algebra", "matrix2", "--identity", "jacobi")[0] == 2
    assert run(capsys, "check", "--algebra", "matrix2", "--identity", "roby")[0] == 2
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


_FUZZ_COEFS = st.one_of(
    st.integers(-(10**12), 10**12),
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(-1, 99)),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-1500, 1500)),
    st.builds("{}.{}E{}".format, st.integers(0, 9), st.integers(0, 999), st.integers(-400, 400)),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _fuzz_products(draw):
    """A product file with in-range indices and generated coefficients."""
    dim = draw(st.integers(1, 2))
    arity = draw(st.integers(2, 3))
    index = st.integers(0, dim - 1)
    entry = st.fixed_dictionaries({
        "in": st.lists(index, min_size=arity, max_size=arity),
        "out": index,
        "coef": _FUZZ_COEFS,
    })
    return {"dim": dim, "arity": arity, "entries": draw(st.lists(entry, max_size=5))}


# tmp_path is shared by the examples; each one overwrites the same file
@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    product=_fuzz_products(),
    identity=st.sampled_from(
        ["partial-assoc", "total-assoc", "composition-relations", "commutativity", "roby"]
    ),
)
def test_check_loader_fuzz(tmp_path, product, identity):
    # JSON floats include inf and nan, which json.dumps writes as Infinity and NaN
    path = write_json(tmp_path / "fuzz.json", product)
    assert main(["check", "--algebra", path, "--identity", identity]) in (0, 1, 2)


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


def test_selftest_broken_fixture_fails(capsys, monkeypatch):
    monkeypatch.setitem(cli.SELFTEST_FIXTURES, "prelie_mirror_sign", -1)
    rc, out, _ = run(capsys, "selftest", "--format", "json")
    assert rc == 1
    data = json.loads(out)
    broken = {s["suite"]: s for s in data["suites"]}["gerstenhaber"]
    assert "prelie_identity" in broken["failures"]
    others = [s for s in data["suites"] if s["suite"] != "gerstenhaber"]
    assert all(s["failed"] == 0 for s in others)


def test_selftest_fixture_override_many_seeds():
    for seed in (0, 4, 12):
        assert all(r.failed == 0 for r in run_selftest(seed=seed))
        mutated = run_selftest(seed=seed, fixtures={"prelie_mirror_sign": -1})
        broken = [r for r in mutated if r.suite == "gerstenhaber"][0]
        assert "prelie_identity" in broken.failures


# ------------------------------------------------------------------ plumbing


def test_help_and_usage_exit_codes(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys)[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "free-dims", "--n", "3")[0] == 2  # missing --p-max
