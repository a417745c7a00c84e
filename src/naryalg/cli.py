"""Single-binary command line for the exact n-ary algebra toolkit.

Subcommands: free-dims (quotient dimension table), free-export (relation
systems as JSON), check (identity reports on built-in or user-supplied
algebras), cohomology (kernel/image dimension tables), selftest (the
cross-module invariant suites). All arithmetic is exact; there is no
configuration file, only flags.

Exit codes: 0 when every requested check passes, 1 when an identity or a
selftest check is violated, 2 on bad input (file, flag, or cap). main is the
one place that maps an InputError or a library ValueError to exit 2.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

from .coalg import (
    Comultiplication,
    dual_of_algebra,
    dual_of_coalgebra,
    grouplike,
    partial_coassoc_defect,
    total_coassoc_check,
)
from .cohomology import DEFAULT_CAP, _dense_size_exceeds, coboundary, cohomology_dims
from .exactnum import SparseMatrix, kernel_basis, rref, scalar_from_str
from .freealg import (
    GENERATORS,
    FreeElement,
    TreeCode,
    ascii_tree,
    bracket_string,
    enumerate_codes,
    evaluate,
    free_dims,
    fuss_catalan,
    l9_basis_report,
    relation_system,
    solve,
    solve_stacked,
    solved_relations,
    tree_from_code,
)
from .gerstenhaber import (
    MultiMap,
    _prelie_symmetry,
    antisymmetrize,
    composition_relation_defects,
    gprod,
    partial_assoc_defect,
    report_from_defect,
    theta_composite,
    total_assoc_check,
)
from .graded import (
    GradedMultiMap,
    GradedSpace,
    graded_assoc_equivalence,
    graded_coboundary,
    graded_gprod,
    sign_formula_check,
)
from .identities import (
    BUILTIN_ALGEBRAS,
    BracketAlgebra,
    associator_from_bracket,
    builtin_algebra,
    commutativity_defect,
    filiform5,
    heisenberg3,
    nilpotency_class,
    poisson_leibniz_defect,
    random_square_zero,
    random_square_zero_graded,
    roby_defects,
)

# largest tree degree p a command will solve unless --cap/NARY_CAP raises it
DEFAULT_DEGREE_CAP = 6

# Digits the coefficients of one input file may use in all: the longest
# numerator plus every distinct denominator. The deepest check multiplies four
# coefficients, so each witness value has at most 4 * 1000 digits plus a few
# for the number of terms summed, under Python's default limit of 4300 digits
# for printing an int.
MAX_COEF_DIGITS = 1000

# The longest string coefficient read: a value within MAX_COEF_DIGITS is
# written in at most MAX_COEF_DIGITS + 2 characters ("-" and "/"), and the
# slack admits a decimal point, an exponent and padding zeros.
_MAX_COEF_TEXT = 2 * MAX_COEF_DIGITS

_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


class InputError(Exception):
    """Bad file, flag, or cap; mapped to exit code 2."""


def _resolve_cap(flag_value, default):
    if flag_value is not None:
        cap = flag_value
    else:
        env = os.environ.get("NARY_CAP", "").strip()
        if not env:
            return default
        try:
            cap = int(env)
        except ValueError:
            raise InputError(f"NARY_CAP must be an integer, got {env!r}") from None
    if cap < 1:
        raise InputError("cap must be positive")
    return cap


def _jsonable(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


# ------------------------------------------------------------------ algebras


def _decimal_text(text: str):
    """parse_float hook: a finite JSON decimal stays its literal text, which
    the coefficient reader sizes and reads exactly as the decimal it writes;
    a literal past the float range stays the float inf."""
    value = float(text)
    return text if math.isfinite(value) else value


def _load_algebra(ref):
    """Built-in instance by name, or the parsed JSON object from a path that
    opens as a file (a pipe such as /dev/stdin too); "-" reads stdin. A
    JSON decimal such as 0.1 is kept as its text, so that it reads as 1/10."""
    if ref in BUILTIN_ALGEBRAS:
        return builtin_algebra(ref)
    if ref == "-":
        if sys.stdin is None:
            raise InputError("cannot read the algebra from stdin: it is closed")
        source = contextlib.nullcontext(sys.stdin)  # read, but left open
    else:
        try:
            source = open(ref)
        except (FileNotFoundError, NotADirectoryError, IsADirectoryError, ValueError):
            # ValueError: a name with a NUL byte, which no file has
            raise InputError(
                f"{ref!r} is neither a built-in algebra "
                f"({', '.join(sorted(BUILTIN_ALGEBRAS))}) nor a file"
            ) from None
        except OSError as e:
            raise InputError(f"cannot read algebra file {ref}: {e}") from None
    try:
        with source as stream:
            text = stream.read()
        data = json.loads(text, parse_float=_decimal_text)
    except (OSError, ValueError) as e:
        raise InputError(f"cannot read algebra file {ref}: {e}") from None
    except RecursionError:
        raise InputError(f"cannot read algebra file {ref}: nested too deeply") from None
    if not isinstance(data, dict):
        raise InputError(f"algebra file {ref} must hold a JSON object")
    return data


def _algebra(ref: str, kind: str, cap: int):
    """The algebra ref names, shaped into what an identity checker consumes.

    kind is "product" (MultiMap; a bracket's underlying map is accepted),
    "bracket" (BracketAlgebra), or "comultiplication" (Comultiplication).
    A structure whose dense size dim^(arity+1) exceeds cap is rejected.
    """
    algebra = _load_algebra(ref)
    if isinstance(algebra, dict):
        try:
            _check_coef_digits(algebra, ref)
            antisymmetric = algebra.get("antisymmetric", False)
            if not isinstance(antisymmetric, bool):
                shown = json.dumps(antisymmetric)
                raise ValueError(f'"antisymmetric" must be true or false, not {shown}')
            if kind == "comultiplication":
                algebra = Comultiplication.from_json_dict(algebra)
            elif antisymmetric:
                algebra = BracketAlgebra.from_json_dict(algebra)
            elif kind == "bracket":
                raise InputError(
                    f'{ref}: the identity needs a bracket; set "antisymmetric": true'
                )
            else:
                algebra = MultiMap.from_json_dict(algebra)
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
            raise InputError(f"malformed algebra file {ref}: {e}") from None
    elif isinstance(algebra, BracketAlgebra):
        if kind == "comultiplication":
            raise InputError(f"{ref} is a bracket algebra, not a comultiplication")
    elif kind != "product":
        raise InputError(f"{ref} is a plain product, but the identity needs a {kind}")
    base = algebra.bracket if isinstance(algebra, BracketAlgebra) else algebra
    if _dense_size_exceeds(base.dim, base.arity, cap):
        raise InputError(
            f"{ref}: dim {base.dim} and arity {base.arity} give a structure "
            f"larger than the cap {cap}"
        )
    return base if kind == "product" else algebra


def _digits(n: int) -> int:
    """The number of decimal digits of |n|, without printing it."""
    n = abs(n)
    if n < 10:
        return 1
    d = n.bit_length() * 30103 // 100000 + 1  # the count, or one more
    return d - (n < 10 ** (d - 1))


def _check_coef_digits(data: dict, ref: str) -> None:
    """Reject a file whose coefficients exceed MAX_COEF_DIGITS, naming the
    first entry that goes over. Each value is counted exactly once parsed,
    and written back into its entry, so that from_json_dict reads the int or
    Fraction and not the text again. Before that, a string coefficient longer
    than _MAX_COEF_TEXT, or whose exponent alone takes it over, is rejected
    unread, so "1e10000000" costs nothing."""
    longest = den_digits = 0
    denominators = set()
    for k, e in enumerate(data.get("entries", [])):
        coef = e["coef"]
        if isinstance(coef, str):
            if len(coef) > _MAX_COEF_TEXT:
                raise InputError(
                    f"{ref}: the coefficient of entry {k} is longer than "
                    f"{_MAX_COEF_TEXT} characters"
                )
            exp = ("e" in coef or "E" in coef) and _EXPONENT.search(coef)
            # the mantissa's exp.start() characters hold all its digits, so a
            # nonzero value is >= 10^(E - start), with a denominator above
            # 10^(-E - start); a zero mantissa is rejected with the rest
            if exp and abs(int(exp[1])) >= MAX_COEF_DIGITS + exp.start():
                raise InputError(
                    f"{ref}: the coefficient of entry {k} has more than "
                    f"{MAX_COEF_DIGITS} digits"
                )
        e["coef"] = value = scalar_from_str(coef)
        longest = max(longest, _digits(value.numerator))
        den = value.denominator
        if den != 1 and den not in denominators:
            denominators.add(den)
            den_digits += _digits(den)
        if longest + den_digits > MAX_COEF_DIGITS:
            raise InputError(
                f"{ref}: the coefficient of entry {k} takes the file past "
                f"{MAX_COEF_DIGITS} digits (longest numerator plus every "
                f"distinct denominator)"
            )


# ------------------------------------------------------------------ check


# identity -> (kind of input, check, name). A check with a name returns a
# defect map, which report_from_defect turns into the report of that name;
# the other checks return their report.
IDENTITY_CHECKS = {
    "partial-assoc": ("product", partial_assoc_defect, "partial_associativity"),
    "total-assoc": ("product", total_assoc_check, None),
    "composition-relations": ("product", composition_relation_defects, None),
    "commutativity": ("product", commutativity_defect, "commutativity"),
    "roby": ("product", roby_defects, None),
    "partial-coassoc": ("comultiplication", partial_coassoc_defect, "partial_coassociativity"),
    "total-coassoc": ("comultiplication", total_coassoc_check, None),
    "jacobi": ("bracket", lambda b: b.jacobi_report(), None),
    "partial-assoc-of-associator": (
        "bracket",
        lambda b: partial_assoc_defect(associator_from_bracket(b)),
        "partial_assoc_of_associator",
    ),
    "poisson-of-associator": (
        "bracket",
        lambda b: poisson_leibniz_defect(associator_from_bracket(b), b),
        "poisson_leibniz_of_associator",
    ),
}


def cmd_check(args) -> int:
    try:
        kind, check, name = IDENTITY_CHECKS[args.identity]
    except KeyError:
        raise InputError(
            f"unknown identity {args.identity!r}; "
            f"available: {', '.join(sorted(IDENTITY_CHECKS))}"
        ) from None
    report = check(_algebra(args.algebra, kind, _resolve_cap(None, DEFAULT_CAP)))
    if name is not None:
        report = report_from_defect(name, report)
    machine = {
        "identity": args.identity,
        "check": report.name,
        "algebra": args.algebra,
        "holds": report.holds,
        "witness": _jsonable(report.witness),
    }
    if args.format == "json":
        print(json.dumps(machine, indent=2))
    else:
        status = "PASS" if report.holds else f"FAIL at {report.witness}"
        print(f"{args.identity} on {args.algebra}: {status}")
        print(json.dumps(machine))
    return 0 if report.holds else 1


# ------------------------------------------------------------------ free-dims


def _check_free_component(n: int, p: int, flag: str, cap_flag) -> None:
    """Reject a free-algebra component the degree cap does not admit.

    The cap bounds p, and the component may hold no more tree codes than the
    ternary one at the cap, so that a large n cannot slip under it. The
    ternary counts increase with the degree, so they are counted up from
    degree 1 only until one reaches the component's, never to a large cap.
    """
    cap = _resolve_cap(cap_flag, DEFAULT_DEGREE_CAP)
    if n < 2:
        raise InputError("n must be at least 2")
    if p < 1:
        raise InputError(f"{flag} must be at least 1")
    if p > cap:
        raise InputError(f"{flag} {p} exceeds the degree cap {cap}")
    try:
        codes = fuss_catalan(n, p)
    except OverflowError:
        raise InputError(f"n={n} p={p} has too many tree codes to count") from None
    k = 1
    while fuss_catalan(3, k) < codes:
        if k == cap:
            raise InputError(
                f"n={n} p={p} has {codes} tree codes, more than the "
                f"{fuss_catalan(3, cap)} of the ternary component at the degree cap {cap}"
            )
        k += 1


def cmd_free_dims(args) -> int:
    _check_free_component(args.n, args.p_max, "p-max", args.cap)
    report = free_dims(args.n, args.p_max, args.generator)
    if args.format == "json":
        print(json.dumps(_jsonable(report), indent=2))
        return 0
    keys = ("p", "word_length", "codes", "rows", "rank", "multiplier", "formula_value")
    lines = [["p", "len", "codes", "rows", "rank", "mult", "p+1", "match", "sec"]] + [
        [*(str(r[k]) for k in keys), "yes" if r["matches_formula"] else "no", f"{r['seconds']:.3f}"]
        for r in report
    ]
    # each column as wide as its widest cell, and never narrower than these
    widths = [max(w, *map(len, col)) for w, col in zip((2, 4, 7, 7, 7, 5, 4, 6, 8), zip(*lines))]
    for line in lines:
        print(" ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    print("multipliers: " + ", ".join(str(r["multiplier"]) for r in report))
    return 0


# ---------------------------------------------------------------- free-export


def _basis_tree_text(solved) -> str:
    lines = [
        f"n={solved.n} p={solved.p} rank={solved.rank} "
        f"quotient={len(solved.quotient_basis)}"
    ]
    for code in solved.quotient_basis:
        t = tree_from_code(code)
        lines.append("")
        lines.append(f"code {list(code.indices)}: {bracket_string(t)}")
        lines.append(ascii_tree(t))
    return "\n".join(lines) + "\n"


def cmd_free_export(args) -> int:
    _check_free_component(args.n, args.p, "p", args.cap)
    # both exports the two systems apart; the 3-ary-only one is built first,
    # so that another n fails before any elimination
    kinds = ("paper-rules", "operadic") if args.generator == "both" else (args.generator,)
    solved = [solve(relation_system(args.n, args.p, kind)) for kind in kinds]
    if args.generator == "both":
        pr, op = solved
        joint, failing = solve_stacked(op, pr)
        payload = {
            "operadic": op.to_json_dict(),
            "paper_rules": pr.to_json_dict(),
            "joint": {
                "rows": len(joint.rows),
                "rank": joint.rank,
                "quotient_multiplier": joint.multiplier,
            },
            "containment": {
                "rule_rows_checked": len(pr.rows),
                "contained_in_operadic": not failing,
                "failing_rows": failing,
            },
        }
        tree_source = joint
    else:
        tree_source = solved[0]
        payload = tree_source.to_json_dict()
    if args.format == "tree":
        text = _basis_tree_text(tree_source)
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(args.out).write_text(text)
        except OSError as e:
            raise InputError(f"cannot write {args.out}: {e}") from None
    return 0


# ---------------------------------------------------------------- cohomology


def cmd_cohomology(args) -> int:
    cap = _resolve_cap(args.cap, DEFAULT_CAP)
    table = cohomology_dims(_algebra(args.algebra, "product", cap), args.slot, args.steps, cap)
    machine = {"algebra": args.algebra, **table.to_json_dict()}
    if args.format == "json":
        print(json.dumps(machine, indent=2))
        return 0
    print(f"cohomology of {args.algebra}, slot {table.slot}")
    for s in table.steps:
        print(
            f"  arity {s.arity_in:>2}: ker {s.dim_ker:>4}  "
            f"im {s.dim_im_prev:>4}  H {s.dim_H:>4}"
        )
    print(json.dumps(machine))
    return 0


# ------------------------------------------------------------------ selftest

# data the gerstenhaber suite trusts: the mirror sign relating the two
# insertion associators. +1 is the correct value; flipping it must turn
# the suite red.
SELFTEST_FIXTURES = {"prelie_mirror_sign": 1}


def _random_map(rng, d, k, lo=-2, hi=2, terms=6):
    while True:
        entries = {}
        for _ in range(terms):
            key = (tuple(rng.randrange(d) for _ in range(k)), rng.randrange(d))
            entries[key] = entries.get(key, 0) + rng.randint(lo, hi)
        m = MultiMap.from_entries(d, k, entries)
        if not m.is_zero():
            return m


def _random_homogeneous_map(rng, space, k, degree, density=0.6):
    entries = {}
    for idx in iproduct(range(space.dim), repeat=k):
        want = space.tuple_degree(idx) + degree
        for j in range(space.dim):
            if space.degrees[j] == want and rng.random() < density:
                v = rng.randint(-2, 2)
                if v:
                    entries[(idx, j)] = v
    return GradedMultiMap.from_entries(space, k, degree, entries)


def _suite_exactnum(rng):
    checks = []
    rank, pivots, _ = rref(SparseMatrix.from_dense([[1, 2, 0], [0, 1, 1], [1, 3, 1]], 3))
    checks.append(("known_rank", rank == 2 and list(pivots) == [0, 1]))
    ok = True
    for _ in range(4):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        sm = SparseMatrix.from_dense(rows, 5)
        rank, _, _ = rref(sm)
        ker = kernel_basis(sm)
        if len(ker) != 5 - rank:
            ok = False
        for vec in ker.values():
            if any(sum(r[c] * x for c, x in vec.items()) for r in rows):
                ok = False
    checks.append(("rank_nullity_and_kernel", ok))
    return checks


def _suite_gerstenhaber(rng):
    checks = []
    sign = SELFTEST_FIXTURES["prelie_mirror_sign"]
    ok = True
    for kg, kh in ((2, 2), (3, 2), (2, 3), (2, 2)):
        f = _random_map(rng, 2, 2)
        g = _random_map(rng, 2, kg)
        h = _random_map(rng, 2, kh)
        if not _prelie_symmetry(gprod, f, g, h, sign).is_zero():
            ok = False
    checks.append(("prelie_identity", ok))
    mu = random_square_zero(3, 3, rng.randrange(1 << 30), 1)
    checks.append(("square_zero_partial_assoc", partial_assoc_defect(mu).is_zero()))
    checks.append(("composition_relations", composition_relation_defects(mu).holds))
    diag = MultiMap.from_entries(2, 2, {((i, i), i): 1 for i in range(2)})
    checks.append(("diagonal_total_assoc", total_assoc_check(diag).holds))
    return checks


def _suite_cohomology(rng):
    checks = []
    mu = builtin_algebra("matrix2")
    ok = True
    for _ in range(2):
        phi = _random_map(rng, 4, rng.randint(1, 2))
        if not coboundary(mu, coboundary(mu, phi)).is_zero():
            ok = False
    checks.append(("coboundary_squares_to_zero", ok))
    mu3 = random_square_zero(3, 3, rng.randrange(1 << 30), 1)
    ok = True
    for _ in range(2):
        k = rng.randint(2, 3)
        phi = _random_map(rng, 3, k)
        lhs = gprod(gprod(phi, mu3), mu3)
        if lhs != theta_composite(phi, mu3).scale(2):
            ok = False
    checks.append(("two_copy_obstruction_identity", ok))
    return checks


def _suite_freealg(rng):
    checks = []
    checks.append(
        ("code_counts", all(len(enumerate_codes(3, p)) == fuss_catalan(3, p) for p in range(1, 5)))
    )
    checks.append(
        ("quotient_multipliers", [solved_relations(3, p).multiplier for p in (1, 2, 3)] == [1, 2, 4])
    )
    checks.append(("published_degree4_basis", l9_basis_report().invertible))
    mu = random_square_zero(2, 3, rng.randrange(1 << 30), 1)
    rs = solved_relations(3, 3)
    ok = True
    for row in rs.rows[:2]:
        word = tuple(rng.randrange(2) for _ in range(7))
        x = FreeElement(3, 3, {(TreeCode(3, 3, rs.codes[c]), word): v for c, v in row.items()})
        if any(evaluate(x, mu)):
            ok = False
    checks.append(("relations_evaluate_to_zero", ok))
    return checks


def _suite_graded(rng):
    checks = []
    sp = GradedSpace((0, 0, 1, 1))
    ok = True
    nontrivial = False
    for _ in range(6):
        f = _random_homogeneous_map(rng, sp, rng.randint(1, 2), rng.choice([0, 1]))
        g = _random_homogeneous_map(rng, sp, rng.randint(1, 2), rng.choice([0, 1]))
        if f.is_zero() or g.is_zero():
            continue
        nontrivial = True
        for i in range(1, f.arity + 1):
            if not sign_formula_check(f, g, i).holds:
                ok = False
    checks.append(("suspension_sign_transfer", ok and nontrivial))
    mu = random_square_zero_graded(3, 3, rng.randrange(1 << 30), 2)
    while mu.is_zero():
        mu = random_square_zero_graded(3, 3, rng.randrange(1 << 30), 2)
    checks.append(("graded_square_zero", graded_gprod(mu, mu).is_zero()))
    # mu's space (1, 1, 4) has no cochain of arity 2 or of degree 1. A binary
    # sink product of degree 1 over (0, 0, 1, -1) has both, and the degree -1
    # vector lets a cochain feed its sources, so delta(phi) and
    # delta(delta(phi)) need not vanish and the odd sign adds nonzero terms.
    # One nonzero cochain of each parity.
    base = random_square_zero(3, 2, rng.randrange(1 << 30), 2)
    while base.is_zero():
        base = random_square_zero(3, 2, rng.randrange(1 << 30), 2)
    sink = GradedMultiMap.from_entries(GradedSpace((0, 0, 1, -1)), 2, 1, base.terms)
    ok = True
    for k, degree in ((2, 0), (1, 1)):
        phi = _random_homogeneous_map(rng, sink.space, k, degree, density=1)
        while phi.is_zero():
            phi = _random_homogeneous_map(rng, sink.space, k, degree, density=1)
        if not graded_coboundary(sink, graded_coboundary(sink, phi)).is_zero():
            ok = False
    checks.append(("graded_coboundary_squares_to_zero", ok))
    checks.append(("graded_assoc_equivalence", graded_assoc_equivalence(mu).holds))
    return checks


def _suite_coalg(rng):
    checks = []
    ok = True
    for _ in range(3):
        delta = dual_of_algebra(_random_map(rng, 2, 3))
        mm = dual_of_coalgebra(delta)
        if dual_of_algebra(mm) != delta:
            ok = False
        if partial_assoc_defect(mm) != dual_of_coalgebra(partial_coassoc_defect(delta)):
            ok = False
    checks.append(("duality_transpose", ok))
    checks.append(
        ("grouplike_even_arity", partial_coassoc_defect(grouplike(2, 2)).is_zero())
    )
    checks.append(("grouplike_total", total_coassoc_check(grouplike(2, 3)).holds))
    return checks


def _suite_identities(rng):
    checks = []
    checks.append(
        (
            "builtin_jacobi",
            all(
                builtin_algebra(name).jacobi_report().holds
                for name in ("heisenberg3", "filiform5", "so3")
            ),
        )
    )
    checks.append(
        (
            "nilpotency_classes",
            nilpotency_class(heisenberg3()) == 2 and nilpotency_class(filiform5()) == 4,
        )
    )
    assoc = associator_from_bracket(filiform5())
    checks.append(("four_step_associator_partial_assoc", partial_assoc_defect(assoc).is_zero()))
    checks.append(("antisymmetrized_roby", roby_defects(antisymmetrize(_random_map(rng, 3, 3))).holds))
    return checks


SELFTEST_SUITES = {
    "coalg": _suite_coalg,
    "cohomology": _suite_cohomology,
    "exactnum": _suite_exactnum,
    "freealg": _suite_freealg,
    "gerstenhaber": _suite_gerstenhaber,
    "graded": _suite_graded,
    "identities": _suite_identities,
}


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    passed: int
    failed: int
    failures: tuple


def run_selftest(seed: int = 0, suites=None) -> list:
    """Run the named suites (all by default), sorted by suite name.

    Each suite draws from its own stream seeded by (seed, suite name), so
    results do not depend on which other suites were selected.
    """
    if suites is None:
        names = sorted(SELFTEST_SUITES)
    else:
        names = sorted(set(suites))
        unknown = [n for n in names if n not in SELFTEST_SUITES]
        if unknown:
            raise ValueError(
                f"unknown suites {unknown}; available: {sorted(SELFTEST_SUITES)}"
            )
    results = []
    for name in names:
        rng = random.Random(f"{seed}:{name}")
        outcome = SELFTEST_SUITES[name](rng)
        failures = tuple(check for check, ok in outcome if not ok)
        results.append(SuiteResult(name, len(outcome) - len(failures), len(failures), failures))
    return results


def cmd_selftest(args) -> int:
    if args.suites is None:
        selected = None
    else:
        selected = [s.strip() for s in args.suites.split(",") if s.strip()]
    results = run_selftest(seed=args.seed, suites=selected)
    total_passed = sum(r.passed for r in results)
    total_failed = sum(r.failed for r in results)
    machine = {
        "seed": args.seed,
        "suites": [
            {
                "suite": r.suite,
                "passed": r.passed,
                "failed": r.failed,
                "failures": list(r.failures),
            }
            for r in results
        ],
        "passed": total_passed,
        "failed": total_failed,
    }
    if args.format == "json":
        print(json.dumps(machine, indent=2))
    else:
        print(f"selftest seed {args.seed}")
        for r in results:
            line = f"  {r.suite:<12} {r.passed:>3} passed  {r.failed:>3} failed"
            if r.failures:
                line += "  failing: " + ", ".join(r.failures)
            print(line)
        print(f"total {total_passed} passed  {total_failed} failed")
    return 1 if total_failed else 0


# ------------------------------------------------------------------ parser


# built by the first main() call and reused; help width and caps are read later.
# Returns the parser and its map from command word to that command's parser.
@functools.cache
def _build_parser() -> tuple:
    ap = argparse.ArgumentParser(
        prog="nary",
        description="Exact computations with n-ary partially associative algebras.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    fd = sub.add_parser("free-dims", help="quotient dimension table per degree")
    fd.add_argument("--n", type=int, required=True, help="product arity")
    fd.add_argument("--p-max", type=int, required=True, help="largest tree degree")
    fd.add_argument(
        "--generator",
        choices=GENERATORS,
        default="operadic",
        help="relation generator (paper-rules and both are 3-ary only)",
    )
    fd.add_argument("--cap", type=int, help=f"degree cap (default {DEFAULT_DEGREE_CAP})")
    fd.add_argument("--format", choices=("json", "table"), default="table")
    fd.set_defaults(func=cmd_free_dims)

    fe = sub.add_parser("free-export", help="export a relation system as JSON")
    fe.add_argument("--n", type=int, required=True, help="product arity")
    fe.add_argument("--p", type=int, required=True, help="tree degree")
    fe.add_argument(
        "--generator",
        choices=GENERATORS,
        default="operadic",
        help="with both: both systems plus the containment report",
    )
    fe.add_argument("--cap", type=int, help=f"degree cap (default {DEFAULT_DEGREE_CAP})")
    fe.add_argument(
        "--format",
        choices=("json", "tree"),
        default="json",
        help="tree prints the quotient basis as ascii trees",
    )
    fe.add_argument("out", nargs="?", help="output file (default: stdout)")
    fe.set_defaults(func=cmd_free_export)

    ck = sub.add_parser("check", help="run one identity on an algebra")
    ck.add_argument(
        "--algebra",
        required=True,
        metavar="PATH",
        help="JSON file, - for stdin, or built-in name: " + ", ".join(sorted(BUILTIN_ALGEBRAS)),
    )
    ck.add_argument(
        "--identity",
        required=True,
        metavar="NAME",
        help="one of: " + ", ".join(sorted(IDENTITY_CHECKS)),
    )
    ck.add_argument("--format", choices=("json", "table"), default="table")
    ck.set_defaults(func=cmd_check)

    ch = sub.add_parser("cohomology", help="kernel/image dimensions along one row")
    ch.add_argument("--algebra", required=True, metavar="PATH")
    ch.add_argument("--slot", type=int, default=0, help="row start offset (default 0)")
    ch.add_argument("--steps", type=int, default=2, help="number of arities (default 2)")
    ch.add_argument("--cap", type=int, help=f"cochain space cap (default {DEFAULT_CAP})")
    ch.add_argument("--format", choices=("json", "table"), default="table")
    ch.set_defaults(func=cmd_cohomology)

    st = sub.add_parser("selftest", help="run the cross-module invariant suites")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument(
        "--suites",
        metavar="NAMES",
        help="comma-separated suite names (default: all; empty string: none)",
    )
    st.add_argument("--format", choices=("json", "table"), default="table")
    st.set_defaults(func=cmd_selftest)

    return ap, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in commands:
            # what parser.parse_args does with a leading command word, without
            # its outer pass: the command's parser reads the rest, and the
            # outer parser reports what is left over
            namespace = argparse.Namespace(command=argv[0])
            args, extra = commands[argv[0]].parse_known_args(argv[1:], namespace)
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
        else:
            args = parser.parse_args(argv)
    except SystemExit as e:  # --help exits 0, a usage error 2
        return 0 if e.code in (None, 0) else 2
    try:
        return args.func(args)
    except (InputError, ValueError) as e:  # a library ValueError is unusable input too
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
