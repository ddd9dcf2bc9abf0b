"""In-memory span tracing for the paper-pipeline benchmark.

The program carries no instrumentation of its own, so the tracer wraps
public functions where the pipeline modules import them and restores
them when the traced section ends.  Each wrapped call records a span
(name, start, end, parent) on a stack, so a span's self time is its
duration minus the durations of its direct children.  Functions called
far too often for a span (``Graph.bfs_distances``) and the W_G / Kruskal
boundaries inside the clique forest are counted, not timed.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute, span name) -- spans at the import sites the
#: pipelines call through.  Every call site of a layer is listed, so a
#: layer's self time covers all of its work.
SPAN_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.coloring.distributed_mvc", "color_chordal_graph", "coloring.chordal_mvc"),
    ("repro.coloring.distributed_mvc", "compute_parent", "coloring.compute_parent"),
    ("repro.coloring.distributed_mvc", "gather_balls", "localmodel.gather"),
    ("repro.coloring.distributed_mvc", "local_layer_decision_from_ball", "coloring.layer_decision"),
    ("repro.coloring.distributed_mvc", "local_view_from_ball", "cliquetree.local_view"),
    ("repro.coloring.chordal_mvc", "is_chordal", "graphs.is_chordal"),
    ("repro.coloring.chordal_mvc", "peel_chordal_graph", "coloring.peel"),
    ("repro.coloring.chordal_mvc", "color_interval_component", "coloring.color_interval"),
    ("repro.coloring.chordal_mvc", "correct_path_colors", "coloring.correct_path_colors"),
    ("repro.coloring.prune", "build_clique_forest", "cliquetree.build_clique_forest"),
    ("repro.mis.distributed_mis", "chordal_mis", "mis.chordal_mis"),
    ("repro.mis.chordal_mis", "is_chordal", "graphs.is_chordal"),
    ("repro.mis.chordal_mis", "peel_chordal_graph", "coloring.peel"),
    ("repro.mis.chordal_mis", "interval_mis", "mis.interval_mis"),
    ("repro.mis.chordal_mis", "absorbing_mis", "mis.absorbing_mis"),
    ("repro.mis.chordal_mis", "independence_number_chordal", "mis.exact_mis"),
    ("repro.mis.chordal_mis", "maximum_independent_set_chordal", "mis.exact_mis"),
    ("repro.mis.interval_mis", "maximum_independent_set_chordal", "mis.exact_mis"),
    ("repro.mis.absorbing", "maximum_independent_set_chordal", "mis.exact_mis"),
    ("repro.mis.absorbing", "greedy_simplicial_mis", "mis.exact_mis"),
)

#: spans whose calls are counted as ``<name>_calls``
COUNTED_CALLS = ("coloring.compute_parent", "mis.absorbing_mis", "graphs.diameter")


class Tracer:
    """Spans kept in memory plus counters recorded at the same boundaries."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call, then ``on_result(result)``."""
        spans, stack = self.spans, self._stack
        counted = name in COUNTED_CALLS
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if counted:
                counts[name + "_calls"] += 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer boundary; :meth:`uninstall` restores them."""
        from repro.graphs.adjacency import Graph
        from repro.localmodel import gather

        counts = self.counts
        for module_name, attr, name in SPAN_SITES:
            module = importlib.import_module(module_name)
            on_result = None
            if name == "coloring.peel":
                on_result = self._count_layers
            elif name == "localmodel.gather":
                on_result = self._count_ball_vertices
            self._patch(module, attr, self.wrap(name, getattr(module, attr), on_result))

        self._patch(Graph, "diameter", self.wrap("graphs.diameter", Graph.diameter))

        bfs = Graph.bfs_distances

        @functools.wraps(bfs)
        def counted_bfs(graph, source, cutoff=None):
            dist = bfs(graph, source, cutoff)
            counts["graphs.bfs_calls"] += 1
            counts["graphs.bfs_visited"] += len(dist)
            return dist

        self._patch(Graph, "bfs_distances", counted_bfs)

        forest = importlib.import_module("repro.cliquetree.forest")
        wcig = forest.weighted_clique_intersection_edges
        kruskal = forest.maximum_weight_spanning_forest

        def counted_wcig(graph):
            cliques, edges = wcig(graph)
            counts["cliquetree.wcig_edges"] += len(edges)
            return cliques, edges

        def counted_kruskal(cliques, edges):
            chosen = kruskal(cliques, edges)
            counts["cliquetree.kruskal_examined"] += len(edges)
            counts["cliquetree.kruskal_kept"] += len(chosen)
            return chosen

        self._patch(forest, "weighted_clique_intersection_edges", counted_wcig)
        self._patch(forest, "maximum_weight_spanning_forest", counted_kruskal)

        executor_cls = gather.BatchExecutor

        class CountingExecutor(executor_cls):  # type: ignore[misc, valid-type]
            def run(self, max_rounds: int = 10_000):
                out = super().run(max_rounds)
                if self.executed == "node":
                    counts["localmodel.sim_rounds"] += self.stats.rounds
                    counts["localmodel.messages_delivered"] += self.stats.messages_delivered
                return out

        self._patch(gather, "BatchExecutor", CountingExecutor)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _count_layers(self, peeling) -> None:
        self.counts["coloring.layers"] += peeling.num_layers()

    def _count_ball_vertices(self, result) -> None:
        balls, _rounds = result
        self.counts["localmodel.ball_vertices"] += sum(len(b.states) for b in balls.values())

    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_by_name(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for (name, *_rest), own in zip(self.spans, self.self_times()):
            out[name] += own
        return out

    def root_self_totals(self) -> Dict[int, float]:
        """Per root span index: the sum of the self times in its tree."""
        own = self.self_times()
        root_of: List[int] = []
        totals: Dict[int, float] = defaultdict(float)
        for i, (_name, _start, _end, parent) in enumerate(self.spans):
            root = i if parent < 0 else root_of[parent]
            root_of.append(root)
            totals[root] += own[i]
        return totals

    def write(self, path, origin: float) -> None:
        """Dump the spans as JSON, times in seconds since ``origin``."""
        rows = [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)
