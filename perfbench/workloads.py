"""The four workloads: inputs built from a seed, the operations of one
repetition, and the canonical form of each output that a reference digest
covers. Why each workload exists is in README.md next to this file.

Every call into the package goes through a module attribute
(`freealg.solve`, `cli.main`, ...) so that the tracer's wrappers are the
functions that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

# Known answers, asserted on every run besides the digests.
MULTIPLIERS = {2: 2, 3: 4, 4: 5, 5: 6, 6: 7}
H_MATRIX2 = [3, 0, 0, 0]
H_RSZ231 = [3, 6, 16, 46]
COH_STEPS = 4

# checks: the pool every seeded mix draws from, so that each request has a
# committed reference whatever the seed.
SHAPES = [(d, n, s) for d in (2, 3, 4) for n in (2, 3) for s in range(1, d)]
POOL_SIZE = 4
PRODUCT_IDENTITIES = ("partial-assoc", "total-assoc", "commutativity", "composition-relations")
TERNARY_IDENTITIES = ("roby",)
COALGEBRA_IDENTITIES = ("partial-coassoc", "total-coassoc")
BRACKETS = ("so3", "heisenberg3", "filiform5")
BRACKET_IDENTITIES = ("jacobi", "partial-assoc-of-associator", "poisson-of-associator")
SELFTEST_SEEDS = 8
# Malformed inputs as users send them. The README promises exit 2 for both.
MALFORMED = {
    "bad-coef.json": {"dim": 2, "arity": 3, "entries": [{"in": [0, 0, 0], "out": 1, "coef": "1/0"}]},
    "bad-dim.json": {"dim": 1000000, "arity": 3, "entries": []},
}


@dataclass
class Op:
    key: str  # the reference this operation's output is checked against
    call: Callable[[], object]
    canon: Callable[[object], object]  # the JSON form the digest covers
    known: Callable[[object], str | None] = lambda out: None  # known-answer check


@dataclass
class Workload:
    build: Callable  # (seed, workdir) -> (list of Op, info dict)
    layers: tuple  # layers the traced run must record spans for
    cli_ops: bool = False  # operations are cli.main requests


def digest(obj) -> str:
    """sha256 of canonical JSON; rationals are already strings in obj."""
    h = hashlib.sha256()
    for chunk in json.JSONEncoder(sort_keys=True, separators=(",", ":")).iterencode(obj):
        h.update(chunk.encode())
    return h.hexdigest()


# ------------------------------------------------------------ free-n3-p6


def _solved_canon(rs) -> dict:
    from naryalg.exactnum import scalar_to_str

    return {
        "p": rs.p,
        "rank": rs.rank,
        "pivots": list(rs.pivots),
        "reduced": [[[c, scalar_to_str(v)] for c, v in row] for row in rs.reduced.rows],
        "quotient_basis": [list(c.indices) for c in rs.quotient_basis],
    }


def _free_table():
    from naryalg import freealg

    return [freealg.solve(freealg.operadic_relations(3, p)) for p in MULTIPLIERS]


def _free_known(table):
    got = [rs.multiplier for rs in table]
    expected = list(MULTIPLIERS.values())
    return None if got == expected else f"multipliers {got}, expected {expected}"


def build_free(seed: int, workdir):
    # The free algebra has no random input; the seed changes nothing here.
    # One operation is the whole table, as `nary free-dims --n 3 --p-max 6`
    # computes it; the digest covers every degree.
    return [Op("table", _free_table, lambda t: [_solved_canon(rs) for rs in t], _free_known)], {}


# ------------------------------------------------------------ cohomology


def _coh_op(mu, expected_h) -> Op:
    from naryalg import cohomology

    def known(table):
        got = [s.dim_H for s in table.steps]
        return None if got == expected_h else f"H = {got}, expected {expected_h}"

    return Op(
        "table",
        lambda: cohomology.cohomology_dims(mu, 0, COH_STEPS),
        lambda table: table.to_json_dict(),
        known,
    )


def build_coh_even(seed: int, workdir):
    from naryalg import identities

    return [_coh_op(identities.matrix2(), H_MATRIX2)], {}


def rsz231_seed(seed: int) -> int:
    """First product seed >= seed whose product is nonzero.

    random_square_zero(2, 3, s, 1) has the single constant mu(e0,e0,e0) = v e1
    with v drawn from -2..2. Every v != 0 gives an isomorphic algebra (rescale
    e1), so one reference table serves every seed; v = 0 is the zero product,
    a different workload, and is skipped.
    """
    from naryalg import identities

    while identities.random_square_zero(2, 3, seed, 1).is_zero():
        seed += 1
    return seed


def build_coh_odd(seed: int, workdir):
    from naryalg import identities

    product_seed = rsz231_seed(seed)
    mu = identities.random_square_zero(2, 3, product_seed, 1)
    return [_coh_op(mu, H_RSZ231)], {"product_seed": product_seed}


# ------------------------------------------------------------ checks


def _product_file(shape, k):
    d, n, s = shape
    return f"rsz-d{d}-n{n}-s{s}-{k}.json"


def _dual_file(shape, k):
    d, n, s = shape
    return f"dual-d{d}-n{n}-s{s}-{k}.json"


def _check(algebra: str, identity: str) -> tuple:
    return ("check", "--algebra", algebra, "--identity", identity, "--format", "json")


def check_pool() -> dict:
    """shape -> the first POOL_SIZE product seeds whose product is nonzero."""
    from naryalg import identities

    pool = {}
    for shape in SHAPES:
        d, n, s = shape
        seeds, k = [], 0
        while len(seeds) < POOL_SIZE:
            if not identities.random_square_zero(d, n, k, s).is_zero():
                seeds.append(k)
            k += 1
        pool[shape] = seeds
    return pool


def write_check_files(pool: dict, workdir) -> None:
    from naryalg import coalg, identities

    for shape, seeds in pool.items():
        d, n, s = shape
        for k in seeds:
            mu = identities.random_square_zero(d, n, k, s)
            (workdir / _product_file(shape, k)).write_text(json.dumps(mu.to_json_dict()))
            dual = coalg.dual_of_algebra(mu)
            (workdir / _dual_file(shape, k)).write_text(json.dumps(dual.to_json_dict()))
    for name, data in MALFORMED.items():
        (workdir / name).write_text(json.dumps(data))


def all_check_requests(pool: dict) -> list:
    """Every request a mix can contain, for building the references."""
    reqs = []
    for shape, seeds in pool.items():
        ternary = TERNARY_IDENTITIES if shape[1] == 3 else ()
        for k in seeds:
            reqs += [_check(_product_file(shape, k), i) for i in PRODUCT_IDENTITIES + ternary]
            reqs += [_check(_dual_file(shape, k), i) for i in COALGEBRA_IDENTITIES]
    reqs += [_check(b, i) for b in BRACKETS for i in BRACKET_IDENTITIES]
    reqs += [("selftest", "--seed", str(k), "--format", "json") for k in range(SELFTEST_SEEDS)]
    reqs += [_check(name, "partial-assoc") for name in MALFORMED]
    return reqs


def check_mix(seed: int, pool: dict) -> list:
    """269 requests. The counts per kind and shape are fixed, so every seed
    asks for the same amount of work; the seed picks the pool members, the
    selftest seeds and the order."""
    rng = random.Random(seed)
    reqs = []
    for shape, seeds in pool.items():
        ternary = TERNARY_IDENTITIES if shape[1] == 3 else ()
        for _ in range(2):
            reqs += [_check(_product_file(shape, rng.choice(seeds)), i) for i in PRODUCT_IDENTITIES + ternary]
            reqs += [_check(_dual_file(shape, rng.choice(seeds)), i) for i in COALGEBRA_IDENTITIES]
    for _ in range(12):
        reqs += [_check(b, i) for b in BRACKETS for i in BRACKET_IDENTITIES]
    reqs += [("selftest", "--seed", str(rng.randrange(SELFTEST_SEEDS)), "--format", "json") for _ in range(3)]
    reqs += [_check(name, "partial-assoc") for name in MALFORMED]
    rng.shuffle(reqs)
    return reqs


def cli_request(argv) -> tuple:
    """(exit code, stdout) of one `nary` request; stderr is discarded."""
    from naryalg import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_op(argv) -> Op:
    return Op(
        " ".join(argv),
        lambda: cli_request(argv),
        lambda res: {"exit": res[0], "stdout": res[1]},
    )


def build_checks(seed: int, workdir):
    pool = check_pool()
    write_check_files(pool, workdir)
    return [cli_op(argv) for argv in check_mix(seed, pool)], {}


WORKLOADS = {
    "free-n3-p6": Workload(build_free, ("exactnum", "freealg")),
    "coh-even-matrix2": Workload(build_coh_even, ("cohomology", "gerstenhaber", "exactnum")),
    "coh-odd-rsz231": Workload(build_coh_odd, ("cohomology", "gerstenhaber", "exactnum")),
    "checks": Workload(
        build_checks,
        ("gerstenhaber", "graded", "coalg", "identities", "exactnum", "freealg"),
        cli_ops=True,
    ),
}
