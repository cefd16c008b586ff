"""Span tracer for one traced benchmark child, and the per-layer summary.

Tracer.install() wraps, in place, the public functions and methods of the
lpakit modules cli, config, scan, analysis, operators, linalg and suites,
the truncate/xn_basis callables of every family get_family hands out, each
verify suite, and numpy's LAPACK entry points svd, qr and eigvalsh. It wraps
the latter both in numpy.linalg and in numpy's internal linalg module, whose
own `svd` binding is what np.linalg.norm(ord=2), cond and pinv call.

Every wrapped call appends one span [name, start, end, parent, attrs] to an
in-memory list; parent is the index of the enclosing span (-1 at the top).
dump() writes the spans and the per-name call counts once, at the end.
summarize() turns a dumped span list into the per-layer metrics. Nothing
under src/ is changed: the wrappers live only in the traced process.

numpy is imported only inside the traced child: run.py imports this module
too, and a child's ru_maxrss starts at its parent's peak RSS.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("cli", "config", "scan", "analysis", "operators", "linalg", "suites")
LAPACK = ("svd", "qr", "eigvalsh")
# the verify-all workload; fixed so that a new suite does not change it
SUITE_NAMES = ("best", "bounds", "du", "eq20", "eq37", "lemma30", "penrose",
               "projectors", "seidman")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # content hashes of every truncation T the families produced, so an
        # SVD call can be recognised as a factorization of T itself
        self._t_sizes: set[int] = set()
        self._t_hashes: set[tuple] = set()

    def span(self, name, fn, attrs=None):
        """fn wrapped so that each call records one span named `name`.

        attrs(args, kwargs, result), when given, returns a JSON-ready value
        stored with the span; it runs after the span has ended.
        """
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            counts[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------- install

    def install(self) -> None:
        """Wrap the lpakit layers and numpy's LAPACK entry points.

        lpakit must be importable (its src/ directory on sys.path).
        """
        modules = {short: importlib.import_module(f"lpakit.{short}") for short in LAYERS}
        namespaces = [importlib.import_module("lpakit"), *modules.values()]
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                # functions rebound from other modules keep their own __module__
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    target = self._traced_families(obj) if attr == "get_family" else obj
                    attrs = _checks_attrs if attr == "run_suite" else None
                    wrapped = self.span(f"{short}.{attr}", target, attrs)
                    _rebind(namespaces, obj, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(short, mod, obj)
        suites = modules["suites"]
        for name, fn in list(suites.SUITES.items()):
            suites.SUITES[name] = self.span(f"suites.{name}", fn, _checks_attrs)
        self._wrap_lapack()

    def _wrap_methods(self, short: str, mod, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            fn = obj.__func__ if isinstance(obj, staticmethod) else obj
            if not inspect.isfunction(fn):
                continue
            public = not attr.startswith("_") or attr in ("__init__", "__post_init__")
            # dataclass-generated methods have no source file of their own
            if not public or fn.__code__.co_filename != mod.__file__:
                continue
            attrs = _subspace_attrs if (cls.__name__, attr) == ("Subspace", "__post_init__") else None
            wrapped = self.span(f"{short}.{cls.__name__}.{attr}", fn, attrs)
            setattr(cls, attr, staticmethod(wrapped) if isinstance(obj, staticmethod) else wrapped)

    def _traced_families(self, get_family):
        """get_family, with each family's truncate and xn_basis traced."""
        def get_family_traced(*args, **kwargs):
            fam = get_family(*args, **kwargs)
            xn = fam.xn_basis
            return dataclasses.replace(
                fam,
                truncate=self.span("operators.truncate", fam.truncate, self._note_truncation),
                xn_basis=None if xn is None else self.span(
                    "operators.xn_basis", xn, lambda a, k, r: {"shape": list(r.shape)}))

        return functools.wraps(get_family)(get_family_traced)

    def _note_truncation(self, args, kwargs, t) -> dict:
        self._t_sizes.add(t.shape[0])
        self._t_hashes.add(_fingerprint(t))
        return {"m": t.shape[0]}

    def _wrap_lapack(self) -> None:
        import numpy as np

        internal = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        for name in LAPACK:
            orig = getattr(np.linalg, name)
            attrs = self._svd_attrs if name == "svd" else _shape_attrs
            wrapped = self.span(f"lapack.{name}", orig, attrs)
            setattr(np.linalg, name, wrapped)
            if getattr(internal, name, None) is orig:
                setattr(internal, name, wrapped)

    def _svd_attrs(self, args, kwargs, result) -> dict:
        import numpy as np

        a = args[0]
        compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        shape = np.shape(a)
        is_t = False
        if len(shape) == 2 and shape[0] == shape[1] and shape[0] in self._t_sizes:
            is_t = _fingerprint(a) in self._t_hashes
        return {"shape": list(shape), "compute_uv": bool(compute_uv), "is_t": is_t}

    # ---------------------------------------------------------------- dump

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _rebind(namespaces, old, new) -> None:
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is old:
                setattr(ns, key, new)


def _fingerprint(a) -> tuple:
    import numpy as np

    c = np.ascontiguousarray(a, dtype=float)
    return c.shape, hash(c.tobytes())


def _shape_attrs(args, kwargs, result) -> dict:
    import numpy as np

    return {"shape": list(np.shape(args[0]))}


def _checks_attrs(args, kwargs, result) -> dict:
    return {"checks": len(result)}


def _subspace_attrs(args, kwargs, result) -> dict:
    return {"cols": int(args[0].basis.shape[1])}


# ------------------------------------------------------------------ summary

# name -> (unit, better) for every per-layer metric summarize() reports
LAYER_METRICS = {
    "analysis.t_factorizations_per_m": ("svd/m", "lower"),
    "analysis.offset_angle_per_row": ("calls/row", "lower"),
    "analysis.tn_pinv_per_row": ("calls/row", "lower"),
    "lapack.svd_full_calls": ("count", "lower"),
    "lapack.svd_values_calls": ("count", "lower"),
    "lapack.svd_s": ("s", "lower"),
    "lapack.bytes_computed": ("bytes", "lower"),
    "analysis.gap_route_s": ("s", "lower"),
    "analysis.qn_route_s": ("s", "lower"),
    "analysis.norm_tn_dag_t_s": ("s", "lower"),
    "analysis.kernel_core_s": ("s", "lower"),
    "linalg.gap_s": ("s", "lower"),
    "operators.truncate_s": ("s", "lower"),
    "operators.xn_basis_s": ("s", "lower"),
    "lapack.qr_calls": ("count", "lower"),
    "linalg.subspace_check_s": ("s", "lower"),
    "linalg.subspace_checks": ("count", "lower"),
    **{f"suites.{name}_s": ("s", "lower") for name in SUITE_NAMES},
    "suites.checks": ("count", "higher"),
    "python.non_lapack_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "config.load_scan_config_s": ("s", "lower"),
    "scan.run_scan_s": ("s", "lower"),
    "scan.render_s": ("s", "lower"),
    "scan.write_outputs_s": ("s", "lower"),
    "scan.bound_checks": ("count", "higher"),
    "analysis.make_lpa_s": ("s", "lower"),
    "analysis.diagnose_s": ("s", "lower"),
    "analysis.error_bound_check_s": ("s", "lower"),
    "lapack.eigvalsh_calls": ("count", "lower"),
    # traced minus untraced child CPU time, filled in by run.py; host noise
    # can make it negative on workloads where tracing costs little
    "trace.overhead_cpu_s": ("s", "lower"),
}


class SpanTable:
    """Read-only queries over one dumped span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.names = [s[0] for s in spans]
        self.parents = [s[3] for s in spans]
        self.durations = [s[2] - s[1] for s in spans]
        # a span nested inside a span of the same name is not counted again
        self.outermost = []
        for i, name in enumerate(self.names):
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            self.outermost.append(p < 0)

    def parent_name(self, i: int) -> str | None:
        p = self.parents[i]
        return self.names[p] if p >= 0 else None

    def select(self, name: str, parent: str | None = None) -> list[int]:
        return [i for i, n in enumerate(self.names)
                if n == name and (parent is None or self.parent_name(i) == parent)]

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(self.durations[i] for i in self.select(name, parent) if self.outermost[i])

    def count(self, name: str, parent: str | None = None) -> int:
        return len(self.select(name, parent))

    def attrs(self, name: str) -> list[dict]:
        return [self.spans[i][4] for i in self.select(name)]

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total s, self s); self excludes child spans."""
        child = [0.0] * len(self.spans)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.durations[i]
        table: dict[str, list] = {}
        for i, name in enumerate(self.names):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.durations[i] if self.outermost[i] else 0.0
            row[2] += self.durations[i] - child[i]
        return {k: tuple(v) for k, v in table.items()}


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced child, keyed as in LAYER_METRICS."""
    t = SpanTable(spans)
    rows = t.count("analysis.diagnose")
    svds = t.attrs("lapack.svd")
    t_sizes = {a["m"] for a in t.attrs("operators.truncate")}
    lapack_s = sum(t.total(f"lapack.{name}") for name in LAPACK)
    lapack_bytes = sum(8 * _size(a["shape"]) for name in LAPACK for a in t.attrs(f"lapack.{name}"))
    per_row = (lambda k: k / rows) if rows else (lambda k: 0.0)
    out = {
        "analysis.t_factorizations_per_m":
            sum(a["is_t"] for a in svds) / len(t_sizes) if t_sizes else 0.0,
        "analysis.offset_angle_per_row": per_row(t.count("analysis.offset_angle")),
        "analysis.tn_pinv_per_row": per_row(t.count("analysis.LpaInstance.tn_pinv")),
        "lapack.svd_full_calls": sum(a["compute_uv"] for a in svds),
        "lapack.svd_values_calls": sum(not a["compute_uv"] for a in svds),
        "lapack.svd_s": t.total("lapack.svd"),
        "lapack.bytes_computed": lapack_bytes,
        "analysis.gap_route_s": (t.total("linalg.orthonormal_range", "analysis.offset_angle")
                                 + t.total("linalg.gap", "analysis.offset_angle")),
        "analysis.qn_route_s": (t.total("analysis.qn_matrix", "analysis.offset_angle")
                                + sum(t.total(f"lapack.{name}", "analysis.offset_angle")
                                      for name in LAPACK)),
        "analysis.norm_tn_dag_t_s": t.total("analysis.norm_tn_dag_t"),
        "analysis.kernel_core_s": t.total("analysis.kernel_core"),
        "linalg.gap_s": t.total("linalg.gap"),
        "operators.truncate_s": t.total("operators.truncate"),
        "operators.xn_basis_s": t.total("operators.xn_basis"),
        "lapack.qr_calls": t.count("lapack.qr"),
        "linalg.subspace_check_s": t.total("linalg.Subspace.__post_init__"),
        "linalg.subspace_checks": sum(a["cols"] > 0 for a in t.attrs("linalg.Subspace.__post_init__")),
        **{f"suites.{name}_s": t.total(f"suites.{name}") for name in SUITE_NAMES},
        "suites.checks": sum(a["checks"] for a in t.attrs("suites.run_suite")),
        "python.non_lapack_s": t.total("cli.main") - lapack_s,
        "cli.main_s": t.total("cli.main"),
        "config.load_scan_config_s": t.total("config.load_scan_config"),
        "scan.run_scan_s": t.total("scan.run_scan"),
        "scan.render_s": t.total("scan.render_csv") + t.total("scan.render_json"),
        "scan.write_outputs_s": t.total("scan.write_outputs"),
        "scan.bound_checks": t.count("analysis.error_bound_check", "scan.run_scan"),
        "analysis.make_lpa_s": t.total("analysis.make_lpa"),
        "analysis.diagnose_s": t.total("analysis.diagnose"),
        "analysis.error_bound_check_s": t.total("analysis.error_bound_check"),
        "lapack.eigvalsh_calls": t.count("lapack.eigvalsh"),
    }
    assert set(out) == set(LAYER_METRICS) - {"trace.overhead_cpu_s"}
    return out


def _size(shape) -> int:
    n = 1
    for d in shape:
        n *= d
    return n
