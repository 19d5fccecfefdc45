"""Span tracer that instruments dworklab from outside the library.

`Tracer.install()` replaces the public functions of every dworklab module,
plus a fixed list of methods, with wrappers that record one span per call:
(name, start, end, parent span, job id).  A function imported by name into
another module (``limits`` binds ``hw_matrix_at``, ``kz`` binds
``_pointwise_scan``) is a second reference to the same object, so every
dworklab namespace holding the original is rebound.  `uninstall()` puts
the originals back, so untraced passes run the unmodified code.

Spans stay in memory; `write()` dumps them at the end of a run.  Self time
of a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict

perf = time.perf_counter

# Modules whose public functions are layers.  `cli` contributes only `run`,
# the root span of each job: its self time is argument parsing, dispatch and
# JSON emission.  `concurrency.pool_map` is an execution helper, not a layer.
LAYER_MODULES = ("padic", "laurent", "dense", "ghosts", "hasse_witt",
                 "ringmat", "dwork", "kz", "limits")

# One-line delegates to a traced method; wrapping both would double-count.
DELEGATES = {("padic", "teichmueller"), ("padic", "unit_inverse"),
             ("padic", "valuation")}

# Private functions that are layers: the per-point loop that every pointwise
# verifier in `dwork` and `kz` runs through.
PRIVATE = {("dwork", "_pointwise_scan")}

# (module, class, method, span name).  Element arithmetic (PadicCtx.add/mul)
# is too fine to wrap; it lands in the callers' self time.
METHODS = (
    ("padic", "PadicCtx", "inv", "padic.PadicCtx.inv"),
    ("padic", "PadicCtx", "teichmueller", "padic.teichmueller"),
    ("laurent", "LaurentPoly", "__mul__", "laurent.LaurentPoly.__mul__"),
    ("laurent", "LaurentPoly", "__pow__", "laurent.LaurentPoly.__pow__"),
    ("laurent", "LaurentPoly", "__add__", "laurent.LaurentPoly.__add__"),
    ("laurent", "LaurentPoly", "frobenius_sub",
     "laurent.LaurentPoly.frobenius_sub"),
    ("laurent", "LaurentPoly", "partial_z", "laurent.LaurentPoly.partial_z"),
    ("laurent", "LaurentPoly", "eval_z", "laurent.LaurentPoly.eval_z"),
    ("laurent", "LaurentPoly", "dense_t", "laurent.LaurentPoly.dense_t"),
    ("ghosts", "AdmissibleTuple", "W", "ghosts.AdmissibleTuple.W"),
    ("hasse_witt", "DenseCache", "get", "hasse_witt.DenseCache.get"),
    ("dwork", "PointKit", "dense_W", "dwork.PointKit.dense_W"),
)

SMALL_OPERAND = 32  # dense_mul operands with min length <= this are "small"
DENSE_MUL_BUCKETS = tuple(f"dense.dense_mul.{ring}.{size}"
                          for ring in ("int", "ext")
                          for size in ("small", "large"))

# Counters the hooks below keep, besides each span's calls and self time.
COUNTERS = frozenset(
    [f"{b}.{stat}" for b in DENSE_MUL_BUCKETS
     for stat in ("coeffs_in", "bytes_moved")]
    + ["dense.dense_div_linear.coeffs_in",
       "hasse_witt.DenseCache.get.hits", "hasse_witt.DenseCache.get.misses",
       "dwork.PointKit.dense_W.hits", "dwork.PointKit.dense_W.misses",
       "limits.scan_domain.tuples", "limits.sample_domain_points.points",
       "limits.sample_domain_points.hw_calls"])


def kronecker_bytes(ctx, la, lb):
    """Bytes a Kronecker product of these operands packs and unpacks.

    Computed from the operand sizes alone, whichever multiply path the
    library takes: the packed operands plus the packed product, with the
    slot width the library's Kronecker kernels use.
    """
    q, m = ctx.q, ctx.m
    bound = (q - 1) * (q - 1) * min(la, lb) * m
    bpc = (bound.bit_length() + 7) // 8
    count = la + lb - 1
    return bpc * (m * (la + lb) + (2 * m - 1) * count)


class Tracer:
    def __init__(self):
        # Spans are five floats each in one flat array, so that half a million
        # of them add no objects for the garbage collector to walk:
        # name id, parent span (-1 for a root), job id, start, end.
        self.spans = array("d")
        self.names = []     # name id -> span name
        self.stats = {}     # span name -> [calls, total_s, self_s, name id]
        self.counts = defaultdict(float)
        self.job = -1
        self.missed = []    # dworklab names left bound to an original
        self.span_names = set()  # every span name the installed plan can emit
        self._stack = []    # open spans: [span index, child seconds]
        self._undo = []     # (owner, attribute, original)

    # -- recording -------------------------------------------------------------

    def _row(self, name):
        if name not in self.stats:
            self.stats[name] = [0, 0.0, 0.0, len(self.names)]
            self.names.append(name)
        return self.stats[name]

    def _wrap(self, fn, name, namer=None, hook=None):
        """Wrapper recording a span per call.

        `namer(args)` picks the span name at call time; `hook(args, kwargs)`
        runs before the call and may return a callable taking the result.
        """
        spans, stack, row_of = self.spans, self._stack, self._row
        fixed = None if namer else row_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = fixed or row_of(namer(args))
            done = hook(args, kwargs) if hook else None
            at = len(spans)
            spans.extend((row[3], stack[-1][0] if stack else -1, self.job,
                          0.0, 0.0))
            frame = [at // 5, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                spans[at + 3] = t0
                spans[at + 4] = t1
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][1] += d
                row[0] += 1
                row[1] += d
                row[2] += d - frame[1]
            if done:
                done(out)
            return out

        return traced

    # -- per-function extras -----------------------------------------------------

    def _dense_mul_namer(self, args):
        ctx, a, b = args[:3]
        la, lb = len(a), len(b)
        ring = "int" if ctx.m == 1 else "ext"
        size = "small" if min(la, lb) <= SMALL_OPERAND else "large"
        name = f"dense.dense_mul.{ring}.{size}"
        if la and lb:
            self.counts[name + ".coeffs_in"] += la + lb
            self.counts[name + ".bytes_moved"] += kronecker_bytes(ctx, la, lb)
        return name

    def _div_hook(self, args, kwargs):
        self.counts["dense.dense_div_linear.coeffs_in"] += len(args[1])

    def _cache_hook(self, args, kwargs):
        cache, F = args[0], args[1]
        before = len(cache._store)

        def done(_):
            hit = F.factored is not None and len(cache._store) == before
            self.counts["hasse_witt.DenseCache.get." +
                        ("hits" if hit else "misses")] += 1
        return done

    def _dense_w_hook(self, args, kwargs):
        kit, s, j = args[:3]
        twist = args[3] if len(args) > 3 else kwargs.get("twist", 0)
        hit = (s, j, twist) in kit._dense
        self.counts["dwork.PointKit.dense_W." +
                    ("hits" if hit else "misses")] += 1

    def _scan_hook(self, args, kwargs):
        def done(res):
            self.counts["limits.scan_domain.tuples"] += res.total
        return done

    def _sample_hook(self, args, kwargs):
        hw = self.stats.get("hasse_witt.hw_matrix_at")
        before = hw[0] if hw else 0

        def done(points):
            hw = self.stats.get("hasse_witt.hw_matrix_at")
            self.counts["limits.sample_domain_points.points"] += len(points)
            self.counts["limits.sample_domain_points.hw_calls"] += (
                (hw[0] if hw else 0) - before)
        return done

    # -- installation ------------------------------------------------------------

    def _plan(self, pkg):
        """(owner, attribute, span name, namer, hook) for every traced name."""
        extras = {
            "dense.dense_mul": (self._dense_mul_namer, None),
            "dense.dense_div_linear": (None, self._div_hook),
            "hasse_witt.DenseCache.get": (None, self._cache_hook),
            "dwork.PointKit.dense_W": (None, self._dense_w_hook),
            "limits.scan_domain": (None, self._scan_hook),
            "limits.sample_domain_points": (None, self._sample_hook),
        }
        plan = [(pkg.cli, "run", "cli.run", None, None)]
        for mod_name in LAYER_MODULES:
            mod = getattr(pkg, mod_name)
            for attr, obj in sorted(vars(mod).items()):
                if ((attr.startswith("_") and (mod_name, attr) not in PRIVATE)
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or (mod_name, attr) in DELEGATES):
                    continue
                name = f"{mod_name}.{attr}"
                plan.append((mod, attr, name) + extras.get(name, (None, None)))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(getattr(pkg, mod_name), cls_name)
            plan.append((cls, attr, name) + extras.get(name, (None, None)))
        return plan

    def install(self):
        import dworklab
        import dworklab.cli  # noqa: F401  (loads every layer module)

        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if k == "dworklab" or k.startswith("dworklab.")]
        for owner, attr, name, namer, hook in self._plan(dworklab):
            self.span_names.update(DENSE_MUL_BUCKETS if namer else [name])
            orig = vars(owner)[attr]
            wrapped = self._wrap(orig, name, namer, hook)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, orig))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        originals = {id(orig) for _, _, orig in self._undo}
        self.missed = sorted(f"{mod.__name__}.{key}" for mod in modules
                             for key, val in vars(mod).items()
                             if id(val) in originals)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- output ------------------------------------------------------------------

    def write(self, path):
        """Write every span as a tab-separated line to a gzip file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tjob\n")
            sp = self.spans
            for i in range(len(sp) // 5):
                nid, parent, job, t0, t1 = sp[5 * i:5 * i + 5]
                fh.write(f"{i}\t{self.names[int(nid)]}\t{t0:.9f}\t{t1:.9f}"
                         f"\t{int(parent)}\t{int(job)}\n")
