"""Outside-in layer tracing for the traced benchmark run.

The public functions and methods of each layer module are replaced by
wrappers that record one span per call: (function, start, end, parent span,
operation index, aborted).  Every k3lattice module that imported a wrapped
function by name is rebound too, so calls such as ``glue.discriminant_group``
or ``k3embed.diagonalize`` are seen.  No file of the package is edited.

Spans stay in memory until the pass ends; ``summarize`` turns them into the
per-layer metrics and ``write_spans`` saves them.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
import types

LAYERS = ("exact", "lattice", "glue", "quadform", "k3embed", "ellsurf", "lattice_io")

# Functions with their own calls / self_s / incl_s rows.
FUNCTIONS = (
    "exact.det",
    "exact.smith_normal_form",
    "exact.kernel_basis",
    "exact.signature",
    "exact.solve",
    "exact.hermite_row_basis",
    "exact.mat_vec",
    "exact.matmul",
    "lattice.Lattice.pairing",
    "lattice.Lattice.__post_init__",
    "lattice.discriminant_group",
    "lattice.orthogonal_complement",
    "lattice.saturation_index",
    "glue.adjoin",
    "glue.even_overlattices",
    "glue.find_isotropic_glue",
    "glue.build_named",
    "quadform.diagonalize",
    "quadform.factorize",
    "quadform.hilbert_symbol",
    "quadform.witt_index",
    "quadform.invariants",
    "k3embed.genus_equal",
    "k3embed.find_disc_form_isomorphism",
    "k3embed.definite_isomorphic",
    "k3embed.isometry_search",
    "k3embed.short_vectors",
)

COUNTERS = (
    "exact.smith_normal_form.max_bits",
    "exact.smith_normal_form.undecided",
    "quadform.diagonalize.per_op",
    "glue.find_isotropic_glue.norm_calls",
    "k3embed.isometry_search.box",
    "k3embed.short_vectors.vectors",
    "glue.even_overlattices.results",
    "lattice.det_cache.hit_ratio",
    "lattice.signature_cache.hit_ratio",
    "claims.named_cache.size",
)

# Span tuple fields.
NAME, START, END, PARENT, OP, ABORTED = range(6)


def metric_names() -> list[str]:
    """Every per-layer metric of a traced run, in report order."""
    return (
        [f"{layer}.{m}" for layer in LAYERS for m in ("calls", "self_s")]
        + [f"{fn}.{m}" for fn in FUNCTIONS for m in ("calls", "self_s", "incl_s")]
        + list(COUNTERS)
        + ["trace.spans", "trace.wall_s", "trace.overhead_s"]
    )


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval covered by its
    direct children."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for s, kids in zip(spans, children):
        lo, hi = s[START], s[END]
        covered, reach = 0, lo
        for a, b in sorted((max(spans[k][START], lo), min(spans[k][END], hi)) for k in kids):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


def inclusive_time(spans, name: int) -> int:
    """Total duration of the spans of one function, counting a recursive call
    once, through its outermost span."""
    total = 0
    for s in spans:
        if s[NAME] != name:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            total += s[END] - s[START]
    return total


def _box(fn, args, kwargs) -> int:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return (2 * bound.arguments["bound"] + 1) ** bound.arguments["l1"].rank


def _max_bits(result) -> int:
    _, u, v = result
    return max((abs(x).bit_length() for m in (u, v) for row in m for x in row), default=0)


class Tracer:
    """Wraps the layer modules of an imported k3lattice package."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.op = -1
        self.counts = {"box": 0, "vectors": 0, "results": 0}
        self.max_bits = 0
        self._stack: list[int] = []
        self._cache_start: dict[str, tuple[int, int]] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"k3lattice.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and not attr.startswith("_") \
                        and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for m, fn in list(vars(obj).items()):
                        if isinstance(fn, types.FunctionType) and (
                            not m.startswith("_") or m == "__post_init__"
                        ):
                            setattr(obj, m, self._wrap(fn, f"{layer}.{attr}.{m}"))
        for name, mod in list(sys.modules.items()):
            if name != "k3lattice" and not name.startswith("k3lattice."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if id(v) in wrapped:
                            obj[k] = wrapped[id(v)]
        lattice = sys.modules["k3lattice.lattice"]
        for key in ("det", "signature"):
            info = getattr(lattice, f"_{key}_cached").cache_info()
            self._cache_start[key] = (info.hits, info.misses)

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self
        count = {
            "exact.smith_normal_form": lambda a, k, r: tracer._note_bits(r),
            "k3embed.isometry_search": lambda a, k, r: tracer._add("box", _box(fn, a, k)),
            "k3embed.short_vectors": lambda a, k, r: tracer._add(
                "vectors", sum(len(v) for v in r.values())
            ),
            "glue.even_overlattices": lambda a, k, r: tracer._add("results", len(r)),
        }.get(name)

        def wrapper(*args, **kwargs):
            rec = [index, clock(), 0, stack[-1] if stack else -1, tracer.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ABORTED] = 1
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _add(self, key: str, n: int) -> None:
        self.counts[key] += n

    def _note_bits(self, result) -> None:
        self.max_bits = max(self.max_bits, _max_bits(result))

    # -- results -----------------------------------------------------------

    def summarize(self, n_ops: int) -> dict[str, float]:
        spans = self.spans
        selfs = self_times(spans)
        index = {n: i for i, n in enumerate(self.names)}
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for s, t in zip(spans, selfs):
            calls[s[NAME]] += 1
            self_ns[s[NAME]] += t
        out: dict[str, float] = {}
        for layer in LAYERS:
            ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
            out[f"{layer}.calls"] = sum(calls[i] for i in ids)
            out[f"{layer}.self_s"] = sum(self_ns[i] for i in ids) / 1e9
        for fn in FUNCTIONS:
            i = index.get(fn)
            out[f"{fn}.calls"] = calls[i] if i is not None else 0
            out[f"{fn}.self_s"] = self_ns[i] / 1e9 if i is not None else 0.0
            out[f"{fn}.incl_s"] = inclusive_time(spans, i) / 1e9 if i is not None else 0.0
        snf = index["exact.smith_normal_form"]
        out["exact.smith_normal_form.max_bits"] = self.max_bits
        out["exact.smith_normal_form.undecided"] = sum(
            1 for s in spans if s[NAME] == snf and s[ABORTED]
        )
        out["quadform.diagonalize.per_op"] = calls[index["quadform.diagonalize"]] / max(n_ops, 1)
        out["glue.find_isotropic_glue.norm_calls"] = self._calls_under(
            index["lattice.Lattice.norm"], index["glue.find_isotropic_glue"]
        )
        out["k3embed.isometry_search.box"] = self.counts["box"]
        out["k3embed.short_vectors.vectors"] = self.counts["vectors"]
        out["glue.even_overlattices.results"] = self.counts["results"]
        lattice = sys.modules["k3lattice.lattice"]
        for key in ("det", "signature"):
            info = getattr(lattice, f"_{key}_cached").cache_info()
            hits = info.hits - self._cache_start[key][0]
            misses = info.misses - self._cache_start[key][1]
            out[f"lattice.{key}_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        claims = sys.modules.get("k3lattice.claims")
        out["claims.named_cache.size"] = claims._named.cache_info().currsize if claims else 0
        out["trace.spans"] = len(spans)
        return out

    def _calls_under(self, name: int, ancestor: int) -> int:
        n = 0
        for s in self.spans:
            if s[NAME] != name:
                continue
            p = s[PARENT]
            while p >= 0 and self.spans[p][NAME] != ancestor:
                p = self.spans[p][PARENT]
            n += p >= 0
        return n

    def write_spans(self, path) -> None:
        """One line per span: name, start_ns, end_ns, parent, op, aborted."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            for s in self.spans:
                f.write(f"{self.names[s[NAME]]}\t{s[START]}\t{s[END]}\t{s[PARENT]}\t{s[OP]}\t{s[ABORTED]}\n")
