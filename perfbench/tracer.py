"""Per-layer tracer for `verify`, installed from outside the library.

Wraps gltlab's public functions on every module binding (and methods on
their classes), keeps spans in memory and turns them into metrics named
`<module>.<function>.<stat>`.  `calls` counts every call, recursive ones
too; `s` is self time of outermost calls: their duration minus the time
covered by traced calls nested inside them.  Self times therefore
partition the time spent under the outermost traced call of the run.

Functions called hundreds of thousands of times (`AGG`) are aggregated per
parent span instead of keeping one span each; `SPAN` functions keep one
span per outermost call; `COUNT` functions are counted, not timed.
"""

from __future__ import annotations

import math
import sys
import time

SPAN, AGG, COUNT = "span", "agg", "count"

SUITES = ("brauer", "evalfunctor", "ugl", "yangian", "centralizer",
          "invariants")

# (metric prefix, module, attribute path, kind).  Suites are added below:
# `cli.run_suite` dispatches through `cli.SUITE_FNS`, which is patched too.
TRACED = [
    ("cli.emit_report", "gltlab.cli", "emit_report", SPAN),
    ("field.Poly.gcd", "gltlab.field", "Poly.gcd", AGG),
    ("field.interpolate", "gltlab.field", "interpolate", COUNT),
    ("linalg.rank_dense", "gltlab.linalg", "rank_dense", SPAN),
    ("linalg.rank_sparse", "gltlab.linalg", "rank_sparse", SPAN),
    ("diagrams.compose", "gltlab.diagrams", "compose", AGG),
    ("diagrams.gram_matrix", "gltlab.diagrams", "gram_matrix", SPAN),
    ("tensor_eval.realize", "gltlab.tensor_eval", "realize", AGG),
    ("ugl.straighten_word", "gltlab.ugl", "straighten_word", AGG),
    ("ugl.UElement.__mul__", "gltlab.ugl", "UElement.__mul__", AGG),
    ("ugl.gelfand", "gltlab.ugl", "gelfand", SPAN),
    ("ugl.centralizer_membership", "gltlab.ugl", "centralizer_membership",
     SPAN),
    ("yangian.TruncatedYangian.nf", "gltlab.yangian", "TruncatedYangian.nf",
     AGG),
    # RelationTable() extracts its relations in `_build`.
    ("yangian.RelationTable.build", "gltlab.yangian", "RelationTable._build",
     SPAN),
    ("yangian.MatrixSeries.invert", "gltlab.yangian", "MatrixSeries.invert",
     SPAN),
    ("centralizer.membership_check", "gltlab.centralizer", "membership_check",
     SPAN),
    ("centralizer.homomorphism_check", "gltlab.centralizer",
     "homomorphism_check", SPAN),
    ("centralizer.zed_central_check", "gltlab.centralizer",
     "zed_central_check", SPAN),
    ("centralizer.zed_commutes_psi_check", "gltlab.centralizer",
     "zed_commutes_psi_check", SPAN),
    ("centralizer.injectivity_check", "gltlab.centralizer",
     "injectivity_check", SPAN),
    ("centralizer.interpolation_check", "gltlab.centralizer",
     "interpolation_check", SPAN),
    # psi() looks its series up on every call, so psi_series is hot.
    ("centralizer.psi_series", "gltlab.centralizer", "psi_series", AGG),
    ("invariants.invariant_rank", "gltlab.invariants", "invariant_rank",
     SPAN),
    ("invariants.roundtrip_check", "gltlab.invariants", "roundtrip_check",
     SPAN),
    ("invariants.leading_symbol_check", "gltlab.invariants",
     "leading_symbol_check", SPAN),
]

# Per-layer metrics, with the end-to-end metric and workload each should
# move.  BENCHMARK.json lists the same names; run.py checks that it does.
LAYER_METRICS = [
    *[(f"cli.suite.{s}.s", "s", f"wall_s on the workload running `{s}`")
      for s in SUITES],
    ("cli.emit_report.s", "s", "wall_s on every workload"),
    ("cli.exit_s", "s", "wall_s on centralizer-cap (memo teardown)"),
    ("field.Poly.gcd.calls", "count", "wall_s on default-all"),
    ("field.Poly.gcd.s", "s", "wall_s on default-all (Q(t) Gram rank)"),
    ("field.interpolate.calls", "count", "wall_s on default-all"),
    ("linalg.rank_dense.calls", "count", "wall_s on default-all"),
    ("linalg.rank_dense.s", "s", "wall_s on default-all"),
    ("linalg.rank_dense.cells", "count", "wall_s on default-all"),
    ("linalg.rank_sparse.calls", "count", "wall_s on invariants-cap"),
    ("linalg.rank_sparse.s", "s",
     "wall_s and peak_rss_mb on invariants-cap"),
    ("linalg.rank_sparse.rows", "count", "peak_rss_mb on invariants-cap"),
    ("linalg.rank_sparse.nnz", "count", "peak_rss_mb on invariants-cap"),
    ("linalg.rank_sparse.rank", "count", "wall_s on invariants-cap"),
    ("diagrams.compose.calls", "count", "wall_s on default-all"),
    ("diagrams.compose.pairs", "count", "wall_s on default-all"),
    ("diagrams.compose.s", "s", "wall_s on default-all"),
    ("diagrams.gram_matrix.s", "s", "wall_s on default-all"),
    ("tensor_eval.realize.calls", "count", "wall_s on default-all"),
    ("tensor_eval.realize.s", "s", "wall_s on default-all"),
    ("ugl.straighten_word.calls", "count", "wall_s on centralizer-cap"),
    ("ugl.straighten_word.s", "s", "wall_s on centralizer-cap"),
    ("ugl.straighten_word.hit_ratio", "ratio",
     "wall_s on centralizer-cap (memo reuse)"),
    ("ugl.memo_size", "count", "peak_rss_mb on centralizer-cap"),
    ("ugl.UElement.__mul__.calls", "count", "wall_s on centralizer-cap"),
    ("ugl.UElement.__mul__.s", "s", "wall_s on centralizer-cap"),
    ("ugl.gelfand.s", "s", "wall_s on centralizer-cap"),
    ("ugl.centralizer_membership.s", "s", "wall_s on centralizer-cap"),
    ("yangian.TruncatedYangian.nf.calls", "count", "wall_s on default-all"),
    ("yangian.TruncatedYangian.nf.s", "s", "wall_s on default-all"),
    ("yangian.RelationTable.build.s", "s", "wall_s on default-all"),
    ("yangian.MatrixSeries.invert.calls", "count",
     "wall_s on centralizer-cap (psi_series)"),
    ("yangian.MatrixSeries.invert.s", "s",
     "wall_s on centralizer-cap (psi_series)"),
    *[(f"centralizer.{c}.s", "s", "wall_s on centralizer-cap")
      for c in ("membership_check", "homomorphism_check", "zed_central_check",
                "zed_commutes_psi_check", "injectivity_check",
                "interpolation_check", "psi_series")],
    ("centralizer.series_cache_size", "count",
     "peak_rss_mb on centralizer-cap"),
    ("invariants.invariant_rank.s", "s", "wall_s on invariants-cap"),
    ("invariants.invariant_rank.candidates", "count",
     "wall_s on invariants-cap (weight-zero enumeration)"),
    ("invariants.invariant_rank.kept", "count",
     "wall_s and peak_rss_mb on invariants-cap"),
    ("invariants.invariant_rank.keep_ratio", "ratio",
     "wall_s on invariants-cap (weight-zero enumeration)"),
    ("invariants.roundtrip_check.s", "s", "wall_s on invariants-cap"),
    ("invariants.leading_symbol_check.s", "s", "wall_s on invariants-cap"),
    # Whole-run figures of the traced run, computed by run.py.
    ("trace.wall_s", "s", "none: traced wall of one run"),
    ("trace.untraced_wall_s", "s", "none: untraced wall of the same argv"),
    ("trace.overhead_s", "s", "none: traced minus untraced wall"),
    ("trace.remainder_s", "s",
     "setup_s: traced wall not covered by self times or cli.exit_s"),
]

now = time.monotonic  # CLOCK_MONOTONIC on Linux: comparable across processes


class Stat:
    __slots__ = ("calls", "self", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.self = 0.0
        self.active = False
        self.extra: dict = {}


class Tracer:
    """Collects calls, self times and spans of the TRACED functions."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list = []  # [name, start, end, parent span]
        self.agg: dict = {}  # (name, parent span) -> [calls, s, self s]
        self.root = [0.0, -1]  # [child time, span id]
        self.stack = [self.root]
        self.bindings: dict[str, list[str]] = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, kind, on_call=None, before=None, after=None):
        st = self.stats[name] = Stat()
        stack, spans, agg = self.stack, self.spans, self.agg

        if kind == COUNT:
            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            st.calls += 1
            if on_call is not None:
                on_call(st, args)
            if st.active:  # recursive call: the outermost call times it
                return fn(*args, **kwargs)
            if before is not None:
                args = before(st, args)
            parent = stack[-1]
            if kind == SPAN:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[1]
            frame = [0.0, sid]
            st.active = True
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                st.active = False
                dt = t1 - t0
                parent[0] += dt
                st.self += dt - frame[0]
                if kind == SPAN:
                    spans[sid] = [name, t0, t1, parent[1]]
                else:
                    a = agg.get((name, sid))
                    if a is None:
                        a = agg[(name, sid)] = [0, 0.0, 0.0]
                    a[0] += 1
                    a[1] += dt
                    a[2] += dt - frame[0]
            if after is not None:
                after(st, args, result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function and every suite on all its bindings."""
        import gltlab.cli as cli
        from gltlab import ugl

        memo = ugl._memo

        def word_hit(st, args):
            field = args[1] if len(args) > 1 else ugl.QQ
            st.extra["hits"] = st.extra.get("hits", 0) + (
                (field.name, args[0]) in memo)

        def dense_cells(st, args):
            rows = list(args[0])
            st.extra["cells"] = st.extra.get("cells", 0) + sum(
                len(r) for r in rows)
            return (rows,) + args[1:]

        stats = self.stats

        def sparse_rows(st, args):
            # invariant_rank hands its rows straight to rank_sparse, so an
            # active invariant_rank is the caller whose `kept` this is.
            inv = stats["invariants.invariant_rank"]
            kept = inv.extra if inv.active else None

            def counted(rows):
                n = nnz = 0
                for r in rows:
                    n += 1
                    nnz += len(r)
                    yield r
                st.extra["rows"] = st.extra.get("rows", 0) + n
                st.extra["nnz"] = st.extra.get("nnz", 0) + nnz
                if kept is not None:
                    kept["kept"] = kept.get("kept", 0) + n

            return (counted(args[0]),) + args[1:]

        def sparse_rank(st, args, result):
            st.extra["rank"] = st.extra.get("rank", 0) + result

        def compose_pairs(st, args):
            f, g = args[0], args[1]
            st.extra["pairs"] = st.extra.get("pairs", 0) + (
                len(f.terms) * len(g.terms))
            return args

        def candidates(st, args):
            m, n, N = args[:3]
            big_m = N + n
            st.extra["candidates"] = st.extra.get("candidates", 0) + math.comb(
                big_m * big_m + m - 1, m)
            return args

        hooks = {
            "ugl.straighten_word": {"on_call": word_hit},
            "linalg.rank_dense": {"before": dense_cells},
            "linalg.rank_sparse": {"before": sparse_rows,
                                   "after": sparse_rank},
            "diagrams.compose": {"before": compose_pairs},
            "invariants.invariant_rank": {"before": candidates},
        }
        originals = {}
        for name, modname, path, kind in TRACED:
            mod = sys.modules[modname]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else None
            fn = getattr(owner or mod, attr)
            wrapper = self._wrap(name, fn, kind, **hooks.get(name, {}))
            if owner is not None:
                setattr(owner, attr, wrapper)
                self.bindings[name] = [f"{modname}.{path}"]
            else:
                originals[id(fn)] = (name, fn, wrapper)
        for sname in SUITES:
            fn = cli.SUITE_FNS[sname]
            wrapper = self._wrap(f"cli.suite.{sname}", fn, SPAN)
            originals[id(fn)] = (f"cli.suite.{sname}", fn, wrapper)
        self._rebind(originals)

    def _rebind(self, originals):
        """Replace each original on every gltlab module binding and in every
        module-level dict (cli.SUITE_FNS), so no call bypasses its wrapper."""
        mods = [m for k, m in sys.modules.items()
                if k == "gltlab" or k.startswith("gltlab.")]
        for mod in mods:
            for key, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(mod, key, hit[2])
                    self.bindings.setdefault(hit[0], []).append(
                        f"{mod.__name__}.{key}")
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        hit = originals.get(id(v))
                        if hit is not None and hit[1] is v:
                            value[k] = hit[2]
                            self.bindings.setdefault(hit[0], []).append(
                                f"{mod.__name__}.{key}[{k!r}]")
        for name, *_ in originals.values():
            if not self.bindings.get(name):
                raise RuntimeError(f"{name} has no binding to wrap")

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics the child can compute (no exit or wall)."""
        from gltlab import centralizer, ugl

        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.s"] = st.self
            for key, value in st.extra.items():
                out[f"{name}.{key}"] = value
        sw = self.stats["ugl.straighten_word"]
        out["ugl.straighten_word.hit_ratio"] = (
            sw.extra.get("hits", 0) / sw.calls if sw.calls else 0.0)
        inv = self.stats["invariants.invariant_rank"].extra
        out["invariants.invariant_rank.keep_ratio"] = (
            inv.get("kept", 0) / inv["candidates"]
            if inv.get("candidates") else 0.0)
        out["ugl.memo_size"] = len(ugl._memo)
        out["centralizer.series_cache_size"] = len(centralizer._series_cache)
        return out

    def dump(self) -> dict:
        timed = sum(st.self for st in self.stats.values())
        return {
            "metrics": self.metrics(),
            "self_sum_s": timed,
            "outermost_s": self.root[0],
            "spans": self.spans,
            "agg": [[name, parent, *v]
                    for (name, parent), v in self.agg.items()],
            "bindings": self.bindings,
        }
