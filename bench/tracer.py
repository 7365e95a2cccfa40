"""Outside-in tracer: times srte's layers by wrapping their public callables.

Each callable is wrapped in the module that *binds* it, because modules import
names from each other (``from .te import solve_te``); patching only the
defining module would miss the call sites that use the imported name. Class
methods of the shortest-path cache and DAG are patched on the class.

Every wrapped call is a span with a start, an end and a parent. A span's self
time is its duration minus the time of its child spans, and is summed per
span name. Spans at layer boundaries are kept in memory and written out when
the run ends; the hot shortest-path calls (hundreds of thousands per instance)
only add to their totals.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute, span name) for every call site that binds a public name.
_FUNCTION_SITES = (
    ("srte.cli", "parse_topology", "graph.parse_topology"),
    ("srte.cli", "parse_demands", "graph.parse_demands"),
    ("srte.cli", "solve_with_middlepoints", "selection.solve_with_middlepoints"),
    ("srte.cli", "greedy_select", "selection.greedy_select"),
    ("srte.cli", "optimal_select", "selection.optimal_select"),
    ("srte.cli", "centrality_select", "selection.centrality_select"),
    ("srte.cli", "build_mp_baseline", "te.build_mp_baseline"),
    ("srte.cli", "solve_mp", "te.solve_mp"),
    ("srte.selection", "solve_with_middlepoints",
     "selection.solve_with_middlepoints"),
    ("srte.selection", "greedy_group_select", "centrality.greedy_group_select"),
    ("srte.selection", "betweenness", "centrality.betweenness"),
    ("srte.selection", "tunnels_for_middlepoints", "te.tunnels_for_middlepoints"),
    ("srte.selection", "build_te_lu", "te.build_te_lu"),
    ("srte.selection", "build_te_mf", "te.build_te_mf"),
    ("srte.selection", "solve_te", "te.solve_te"),
    ("srte.centrality", "group_betweenness", "centrality.group_betweenness"),
    ("srte.te", "solve_lp", "lp.solve_lp"),
    ("srte.lp", "linprog", "lp.linprog"),
    # The cache computes DAGs and fractions through these module globals, so
    # their call counts are the cache misses.
    ("srte.paths", "sp_dag", "paths.sp_dag"),
    ("srte.paths", "sp_dag_reverse", "paths.sp_dag_reverse"),
    ("srte.paths", "segment_fractions", "paths.segment_fractions"),
)

_METHOD_SITES = (
    ("ShortestPathDag", "order", "paths.order"),
    ("ShortestPathCache", "forward", "paths.cache_forward"),
    ("ShortestPathCache", "backward", "paths.cache_backward"),
    ("ShortestPathCache", "fractions", "paths.cache_fractions"),
)

# Called too often to keep one record per call; only their totals are kept.
_HOT = frozenset({
    "paths.order", "paths.cache_forward", "paths.cache_backward",
    "paths.cache_fractions", "paths.sp_dag", "paths.sp_dag_reverse",
    "paths.segment_fractions",
})

_BUILDERS = frozenset({"te.build_te_lu", "te.build_te_mf", "te.build_mp_baseline"})


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, str, float, float, float, int]] = []
        self._stack: list[list] = []  # open frames: [span id, child seconds]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hot = name in _HOT
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        observe = self._observe

        def wrapper(*args, **kwargs):
            if hot:  # children of a hot call belong to its nearest span
                frame = [stack[-1][0] if stack else -1, 0.0]
            else:
                frame = [self._next_id, 0.0]
                self._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if not hot:
                    parent = stack[-1][0] if stack else -1
                    self.spans.append(
                        (frame[0], name, start, end, frame[1], parent)
                    )
            observe(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name: str, result) -> None:
        """Record the sizes a layer returns, read from its public result."""
        counts = self.counts
        if name in _BUILDERS:
            lp = result.lp
            counts["lp_cols"] += lp.num_vars
            counts["lp_rows"] += len(lp.rows)
            counts["lp_nnz"] += sum(len(coeffs) for coeffs, _, _ in lp.rows)
        elif name == "te.tunnels_for_middlepoints":
            counts["tunnels"] += sum(len(group) for group in result)
        elif name == "lp.linprog":
            counts["highs_iterations"] += int(getattr(result, "nit", 0) or 0)

    def install(self) -> None:
        import importlib

        from srte import paths

        for module_name, attr, name in _FUNCTION_SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, name)
        for class_name, attr, name in _METHOD_SITES:
            self._patch(getattr(paths, class_name), attr, name)

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def top_level(self, name: str, fn, *args):
        """Run fn(*args) as a root span called ``name``."""
        return self._wrap(name, fn)(*args)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, child_s, parent in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "name": name, "start": start, "end": end,
                     "child_s": child_s, "parent": parent}
                ) + "\n")

    def layer_metrics(self, instances: int) -> dict[str, float]:
        """Per-layer metrics per instance (ratios over the whole pass)."""
        s, c, n = self.self_s, self.calls, self.counts

        def ratio(hits: int, attempts: int) -> float:
            return hits / attempts if attempts else 0.0

        dag_lookups = c["paths.cache_forward"] + c["paths.cache_backward"]
        dags = c["paths.sp_dag"] + c["paths.sp_dag_reverse"]
        # Cache-method wrappers do no work of their own beyond a dict lookup;
        # their self time is charged to the paths layer with the DAG builds.
        cache_self = (
            s["paths.cache_forward"] + s["paths.cache_backward"]
            + s["paths.cache_fractions"]
        )
        totals = {
            "graph.parse_s": s["graph.parse_topology"] + s["graph.parse_demands"],
            "paths.order_s": s["paths.order"],
            "paths.order_calls": c["paths.order"],
            "paths.dag_s": s["paths.sp_dag"] + s["paths.sp_dag_reverse"] + cache_self,
            "paths.dags": dags,
            "paths.fractions_s": s["paths.segment_fractions"],
            "paths.segments": c["paths.segment_fractions"],
            "centrality.self_s": (
                s["centrality.greedy_group_select"]
                + s["centrality.group_betweenness"]
            ),
            "centrality.group_betweenness_calls": c["centrality.group_betweenness"],
            "centrality.betweenness_s": s["centrality.betweenness"],
            "te.enumerate_s": s["te.tunnels_for_middlepoints"],
            "te.tunnels": n["tunnels"],
            "te.build_s": sum(s[name] for name in _BUILDERS),
            "te.lp_cols": n["lp_cols"],
            "te.lp_rows": n["lp_rows"],
            "te.lp_nnz": n["lp_nnz"],
            "te.decode_s": s["te.solve_te"] + s["te.solve_mp"],
            "lp.solves": c["lp.solve_lp"],
            "lp.solve_s": s["lp.solve_lp"],
            "lp.highs_s": s["lp.linprog"],
            "lp.highs_iterations": n["highs_iterations"],
            "selection.subproblems": c["selection.solve_with_middlepoints"],
            "selection.self_s": (
                s["selection.solve_with_middlepoints"]
                + s["selection.greedy_select"]
                + s["selection.optimal_select"]
                + s["selection.centrality_select"]
            ),
            "cli.self_s": s["cli.main"],
        }
        metrics = {name: value / instances for name, value in totals.items()}
        metrics["paths.dag_hit_ratio"] = ratio(dag_lookups - dags, dag_lookups)
        metrics["paths.fraction_hit_ratio"] = ratio(
            c["paths.cache_fractions"] - c["paths.segment_fractions"],
            c["paths.cache_fractions"],
        )
        return metrics
