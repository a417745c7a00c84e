"""Per-layer spans recorded from outside the package.

The tracer replaces public functions of the naryalg modules with wrappers
that record a span per call: name, the module binding it was reached
through, the enclosing span, start, end and a few counts read from the
arguments and the result. Nothing under src/ changes.

Modules import names with `from .x import f`, so one function has several
bindings (`exactnum.rref`, `cohomology.rref`, `freealg.rref`, ...). Every
binding is wrapped, including functions held in module-level tables such as
`cli.IDENTITY_CHECKS`, and `check_bindings` fails if any original is still
reachable from a module.

Spans are kept in memory and turned into metrics once the repetition ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = (
    "exactnum",
    "freealg",
    "gerstenhaber",
    "cohomology",
    "graded",
    "coalg",
    "identities",
    "cli",
)

# Public helpers called per entry or per tree inside other layer calls. A span
# on each would cost more than the work it measures, and their time is already
# inside the enclosing span.
HOT_HELPERS = {
    "exactnum": {
        "normalize_scalar",
        "scalar_to_str",
        "scalar_from_str",
        "rational_arith",
        "flat_index",
        "multi_index",
        "in_row_space",
    },
    "freealg": {
        "fuss_catalan",
        "enumerate_codes",
        "tree_from_code",
        "code_from_tree",
        "bracket_string",
        "ascii_tree",
    },
    "graded": {"koszul_apply", "suspension_roundtrip_sign"},
    # cohomology_dims is the operation the coh workloads time; spans start
    # below it so that trace.coverage shows how much of it the layers explain.
    "cohomology": {"cohomology_dims"},
    # cli.main is the operation of the checks workload; cli.self_s is derived
    # from it (see metrics).
    "cli": {"main"},
}

# Public methods that are a layer's entry point for a CLI request.
METHODS = {"identities": {"BracketAlgebra": ("jacobi_report",)}}


def _rref_counts(args, out):
    m = args[0]
    rank, _, reduced = out
    return {
        "rows_in": len(m.rows),
        "nnz_in": sum(len(r) for r in m.rows),
        "nnz_out": sum(len(r) for r in reduced.rows),
        "rank": rank,
    }


def _kernel_counts(args, out):
    m = args[0]
    return {"rows": len(m.rows), "cols": m.n_cols}


def _gprod_counts(args, out):
    # entries_out is the dense size of the result, the entries the dense
    # kernel computes; nnz_out is how many of them are nonzero. A dense
    # result is counted with list.count, which costs far less than items();
    # a storage without a dense entry list is counted through items().
    entries = getattr(getattr(out, "coeffs", None), "entries", None)
    return {
        "entries_out": out.dim ** out.arity * out.dim,
        "nnz_out": len(entries) - entries.count(0) if entries is not None else len(out.items()),
    }


def _relations_counts(args, out):
    return {"rows": len(out.rows), "codes": len(out.codes)}


def _chi_basis_counts(args, out):
    return {"dim": len(out)}


COUNTERS = {
    "exactnum.rref": _rref_counts,
    "exactnum.kernel_basis": _kernel_counts,
    "gerstenhaber.gprod": _gprod_counts,
    "freealg.operadic_relations": _relations_counts,
    "freealg.paper_rule_relations": _relations_counts,
    "cohomology.chi_basis": _chi_basis_counts,
}


class Span:
    __slots__ = ("name", "via", "parent", "start", "end", "counts")

    def __init__(self, name, via, parent, start):
        self.name = name
        self.via = via
        self.parent = parent
        self.start = start
        self.end = start
        self.counts = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps every binding of the traced functions and records their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: dict[int, str] = {}  # id(original) -> span name
        self._modules = {}
        self.bindings = 0

    def _wrap(self, fn, name: str, via: str):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, via, stack[-1] if stack else -1, perf_counter())
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap the traced functions in every naryalg module that binds them."""
        for layer in LAYERS:
            self._modules[layer] = importlib.import_module(f"naryalg.{layer}")
        for layer, mod in self._modules.items():
            skip = HOT_HELPERS.get(layer, set())
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in skip
                ):
                    self._originals[id(obj)] = f"{layer}.{attr}"
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = getattr(cls, meth)
                    setattr(cls, meth, self._wrap(fn, f"{layer}.{cls_name}.{meth}", layer))
        for via, mod in self._modules.items():
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if not attr.startswith("__"):
                    namespace[attr] = self._replace(obj, via)

    def _replace(self, obj, via: str):
        """obj with traced functions swapped in; tables are patched in place."""
        name = self._originals.get(id(obj))
        if name is not None:
            self.bindings += 1
            return self._wrap(obj, name, via)
        if isinstance(obj, dict):
            for key, value in list(obj.items()):
                obj[key] = self._replace(value, via)
        elif isinstance(obj, tuple) and any(id(v) in self._originals for v in obj):
            return tuple(self._replace(v, via) for v in obj)
        return obj

    def check_bindings(self) -> None:
        """Raise if a traced function is still reachable unwrapped."""
        missed = []
        for via, mod in self._modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("__"):
                    continue
                values = list(obj.values()) if isinstance(obj, dict) else [obj]
                values += [v for t in values if isinstance(t, tuple) for v in t]
                for v in values:
                    if id(v) in self._originals:
                        missed.append(f"{via}.{attr} -> {self._originals[id(v)]}")
        if missed:
            raise RuntimeError("unwrapped bindings: " + ", ".join(missed))
        if not self.bindings:
            raise RuntimeError("no binding was wrapped")

    def metrics(self, wall: float, cli_ops: bool) -> dict:
        """Per-layer numbers for one repetition whose operations took `wall` s.

        cli_ops says whether the operations were `cli.main` calls, so that the
        operation time not covered by library spans is the CLI's own time.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_s[s.parent] += s.seconds

        def has_ancestor(s, pred):
            p = s.parent
            while p >= 0:
                if pred(spans[p]):
                    return True
                p = spans[p].parent
            return False

        def named(name):
            return [s for s in spans if s.name == name]

        def outer_s(names):
            return sum(
                s.seconds
                for s in spans
                if s.name in names and not has_ancestor(s, lambda a: a.name in names)
            )

        def self_s(name):
            return sum(s.seconds - child_s[i] for i, s in enumerate(spans) if s.name == name)

        def layer_s(layer):
            return sum(
                s.seconds
                for s in spans
                if s.layer == layer and not has_ancestor(s, lambda a: a.layer == layer)
            )

        def total(name, key, pred=lambda s: True):
            return sum(s.counts[key] for s in named(name) if s.counts and pred(s))

        rref = named("exactnum.rref")
        rows_in = total("exactnum.rref", "rows_in")
        rank = total("exactnum.rref", "rank")
        gen = ("freealg.operadic_relations", "freealg.paper_rule_relations")
        entries_out = total("gerstenhaber.gprod", "entries_out")
        nnz_out = total("gerstenhaber.gprod", "nnz_out")
        chi_kernel = lambda s: s.parent >= 0 and spans[s.parent].name == "cohomology.chi_basis"
        kernel_under_chi = sum(s.seconds for s in named("exactnum.kernel_basis") if chi_kernel(s))
        via_coh = lambda s: s.via == "cohomology"
        top_level = sum(s.seconds for s in spans if s.parent < 0)
        return {
            "exactnum.rref.calls": len(rref),
            "exactnum.rref.s": outer_s({"exactnum.rref"}),
            "exactnum.rref.rows_in": rows_in,
            "exactnum.rref.nnz_in": total("exactnum.rref", "nnz_in"),
            "exactnum.rref.nnz_out": total("exactnum.rref", "nnz_out"),
            "exactnum.rref.rank": rank,
            "exactnum.rref.yield": rank / rows_in if rows_in else 0.0,
            "exactnum.kernel_basis.s": outer_s({"exactnum.kernel_basis"}),
            "freealg.gen.s": outer_s(set(gen)),
            "freealg.gen.rows": sum(total(g, "rows") for g in gen),
            "freealg.codes": sum(total(g, "codes") for g in gen),
            "freealg.solve.self_s": self_s("freealg.solve"),
            "gerstenhaber.gprod.calls": len(named("gerstenhaber.gprod")),
            "gerstenhaber.gprod.s": outer_s({"gerstenhaber.gprod"}),
            "gerstenhaber.gprod.self_s": self_s("gerstenhaber.gprod"),
            "gerstenhaber.insert_at.calls": len(named("gerstenhaber.insert_at")),
            "gerstenhaber.insert_at.s": outer_s({"gerstenhaber.insert_at"}),
            "gerstenhaber.gprod.entries_out": entries_out,
            "gerstenhaber.gprod.nnz_out": nnz_out,
            "gerstenhaber.gprod.density": nnz_out / entries_out if entries_out else 0.0,
            "cohomology.chi_basis.s": outer_s({"cohomology.chi_basis"}),
            "cohomology.chi_assembly.s": outer_s({"cohomology.chi_basis"}) - kernel_under_chi,
            "cohomology.chi.rows": total("exactnum.kernel_basis", "rows", chi_kernel),
            "cohomology.chi.cols": total("exactnum.kernel_basis", "cols", chi_kernel),
            "cohomology.chi.dim": total("cohomology.chi_basis", "dim"),
            "cohomology.coboundary.calls": len(named("cohomology.coboundary")),
            "cohomology.coboundary.s": outer_s({"cohomology.coboundary"}),
            "cohomology.delta_rank.s": sum(s.seconds for s in rref if via_coh(s)),
            "cohomology.delta.nnz": total("exactnum.rref", "nnz_in", via_coh),
            "graded.gprod.s": outer_s({"graded.graded_gprod"}),
            "coalg.s": layer_s("coalg"),
            "identities.s": layer_s("identities"),
            "cli.self_s": wall - top_level if cli_ops else 0.0,
            "trace.coverage": top_level / wall if wall else 0.0,
        }
