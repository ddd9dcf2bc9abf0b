"""Paper-pipeline benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pipeline-ktree --seed 1 --seconds 30 --trace 0

Each run generates its inputs from ``--seed``, serializes them as the
edge-list text a ``repro color FILE`` user would hand in, and then
repeats whole rounds of the same six operations until ``--seconds`` have
passed:

* ``distributed_color_chordal(eps=0.5)`` on the workload graph G,
* ``distributed_chordal_mis(eps=0.25)`` on G,
* ``message_level_layer_decisions`` on the message graph M under D1's
  two decision constants (radius 10 and radius 15),
* ``gather_balls(executor="node")`` on M at the same two radii.

Every call gets a freshly parsed ``Graph`` (``graph_index`` caches per
graph, and a user pays for that cache once per graph); the parse time is
``setup_s``.  The cyclic GC is collected before each parse and each
timed call and paused during both.  Every output is checked (see ``checks.py``); a failed
check or an exception counts the operation as failed.  Each time is
scaled to a reference host speed read by a calibration kernel around the
call (see ``calibrate``); timed values are medians over the run's rounds.

With ``--trace 1`` the rounds alternate untraced and traced; the traced
rounds give the per-layer metrics (per-round means) and the ratio of
traced to untraced operation time gives the tracing overhead.  The spans
are written to ``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MVC_EPSILON = 0.5
MIS_EPSILON = 0.25
MESSAGE_RADII = (10, 15)


@dataclass(frozen=True)
class Workload:
    family: str  # family of the pipeline graph G
    n: int  # |V(G)|
    message_n: int  # |V(M)|; M is a random chordal graph


#: Every input's shape is drawn once from this seed; ``--seed`` draws a
#: random relabeling of it.  Across shapes drawn from different seeds, a
#: 3-tree's layer count flips between 5 and 6 (moving mvc_rounds by 21%
#: and peak RSS by 15%) and a random chordal graph's decision cost varies
#: fourfold, which no bound could hold; across relabelings the work stays
#: comparable while every ID-dependent choice of the program (the clique
#: order, max-ID parents, tie-breaks) changes.
SHAPE_SEED = 7

WORKLOADS: Dict[str, Workload] = {
    "pipeline-ktree": Workload("ktree", 1000, 30),
    "pipeline-chain": Workload("chain", 1600, 30),
    "message-level": Workload("chordal", 400, 60),
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    g_text: str
    m_text: str
    g_adj: Dict[Any, Set[Any]]
    m_adj: Dict[Any, Set[Any]]
    chi: int
    alpha: int
    #: per decision constants: the first layer of the centralized peeling
    first_layer: Dict[int, Set[Any]]
    #: per radius: vertex -> node set of its ego graph in M
    ego: Dict[int, Dict[Any, frozenset]]


def decision_parameters():
    """D1's two decision constants, in ``MESSAGE_RADII`` order."""
    from repro.coloring import ColoringParameters
    from repro.mis import mis_local_parameters

    params = (ColoringParameters.paper_constants(1), mis_local_parameters(1))
    assert tuple(p.collect_radius for p in params) == MESSAGE_RADII
    return params


def adjacency(graph) -> Dict[Any, Set[Any]]:
    return {v: set(graph.neighbors_view(v)) for v in graph.vertices()}


def relabeled(graph, rng: random.Random):
    """``graph`` with its vertices renamed by a random permutation."""
    from repro.graphs.adjacency import Graph

    old = graph.vertices()
    new = list(old)
    rng.shuffle(new)
    name = dict(zip(old, new))
    return Graph(vertices=new, edges=[(name[u], name[v]) for u, v in graph.edges()])


def make_inputs(name: str, seed: int) -> Inputs:
    """The workload's inputs for ``seed``, with their oracle values.

    The oracle values come from a child process (``checks.py``), so
    networkx and its graphs never count in this process's peak RSS.
    """
    from repro.coloring import diameter_rule, peel_chordal_graph
    from repro.graphs.generators import random_chordal_graph, random_k_tree, unit_interval_chain
    from repro.graphs.io import to_edge_list

    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    params = decision_parameters()

    # M's relabeling is redrawn until the first peeling layer is a proper,
    # nonempty subset under both constants, so the decision check sees
    # both outcomes.
    m_shape = random_chordal_graph(wl.message_n, seed=SHAPE_SEED)
    while True:
        m = relabeled(m_shape, rng)
        first_layer = {
            p.collect_radius: peel_chordal_graph(m, diameter_rule(p.internal_threshold)).nodes_of_layer(1)
            for p in params
        }
        if all(0 < len(layer) < len(m) for layer in first_layer.values()):
            break

    if wl.family == "ktree":
        g = relabeled(random_k_tree(wl.n, 3, seed=SHAPE_SEED), rng)
    elif wl.family == "chain":
        g = relabeled(unit_interval_chain(wl.n, seed=SHAPE_SEED), rng)
    else:
        g = relabeled(random_chordal_graph(wl.n, seed=SHAPE_SEED), rng)

    g_adj, m_adj = adjacency(g), adjacency(m)
    request = json.dumps({
        "g": [[v, list(nbrs)] for v, nbrs in g_adj.items()],
        "m": [[v, list(nbrs)] for v, nbrs in m_adj.items()],
        "radii": MESSAGE_RADII,
    })
    proc = subprocess.run(
        [sys.executable, str(HERE / "checks.py")],
        input=request, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"oracle process failed:\n{proc.stderr}")
    oracle = json.loads(proc.stdout)
    return Inputs(
        g_text=to_edge_list(g),
        m_text=to_edge_list(m),
        g_adj=g_adj,
        m_adj=m_adj,
        chi=oracle["chi"],
        alpha=oracle["alpha"],
        first_layer=first_layer,
        ego={
            r: {v: frozenset(nodes) for v, nodes in oracle["ego"][str(r)]}
            for r in MESSAGE_RADII
        },
    )


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: The calibration kernel's time with the host in its fast state.  Every
#: reported time is scaled to this speed: on the shared 2-core host the
#: speed of pure-Python code swings between two states about 1.6x apart
#: for tens of seconds at a time, so whole runs land in the slow state.
#: Bracketing each timed call with the kernel halved the interquartile
#: spread of repeated calls (0.224 raw, 0.105 scaled).
CALIBRATION_REF_S = 0.0019


def calibration_graph(n: int = 500, k: int = 3) -> Dict[int, Set[int]]:
    """A fixed random k-tree built here, so no change to the program
    can change the calibration kernel's work."""
    rng = random.Random(0)
    adj: Dict[int, Set[int]] = {v: set(range(k + 1)) - {v} for v in range(k + 1)}
    cliques = [tuple(c) for c in itertools.combinations(range(k + 1), k)]
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        adj[v] = set(base)
        for u in base:
            adj[u].add(v)
        cliques.extend(tuple(sorted(set(base) - {u})) + (v,) for u in base)
    return adj


def calibrate(adj: Dict[int, Set[int]], repeats: int = 16) -> float:
    """Mean seconds the calibration kernel (Gavril's greedy, pure Python)
    takes now."""
    from checks import independence_number

    t0 = perf_counter()
    for _ in range(repeats):
        independence_number(adj)
    return (perf_counter() - t0) / repeats


# ----------------------------------------------------------------------
# one round
# ----------------------------------------------------------------------
@dataclass
class RoundResult:
    setup_s: float = 0.0
    times: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: deterministic outputs, compared across rounds
    outputs: Dict[str, Any] = field(default_factory=dict)
    sim_rounds: int = 0
    #: host speed scale of each timed call (see calibrate)
    scales: List[float] = field(default_factory=list)


class Runner:
    """Runs rounds of the workload's operations and checks their outputs."""

    def __init__(self, inputs: Inputs):
        from repro.coloring import distributed_mvc
        from repro.graphs.io import from_edge_list

        self.inputs = inputs
        self.parse = from_edge_list
        #: set to a Tracer for traced rounds
        self.tracer = None
        #: per traced call: (root span name, root span index, untraced-clock seconds)
        self.traced_calls: List[Tuple[str, int, float]] = []
        self.params = decision_parameters()
        self.reference: Optional[Dict[str, Any]] = None
        self.deterministic = True
        self.errors: List[str] = []
        self.calibration = calibration_graph()
        # Keep the balls the batch-executor gather hands to the decisions,
        # so they are checked too.
        self._captured: List[Any] = []
        gather = distributed_mvc.gather_balls

        def capturing_gather(*args, **kwargs):
            result = gather(*args, **kwargs)
            self._captured.append(result)
            return result

        distributed_mvc.gather_balls = capturing_gather

    def _timed(self, rr: RoundResult, key: str, text: str, call: Callable, root: str) -> Any:
        """Parse ``text`` (setup), then time ``call(graph)`` with GC paused.

        Both times are scaled by the host speed that the calibration
        kernel reads just before the parse and just after the call.
        """
        root_index = -1
        if self.tracer is not None:
            call = self.tracer.wrap(root, call)
            root_index = len(self.tracer.spans)
        gc.collect()
        gc.disable()
        try:
            before = calibrate(self.calibration)
            t0 = perf_counter()
            graph = self.parse(text)
            parse_s = perf_counter() - t0
            gc.collect()
            t0 = perf_counter()
            try:
                return call(graph)
            finally:
                op_s = perf_counter() - t0
                if root_index >= 0:
                    self.traced_calls.append((root, root_index, op_s))
                scale = CALIBRATION_REF_S / ((before + calibrate(self.calibration)) / 2)
                rr.scales.append(scale)
                rr.times[key] = op_s * scale
                rr.setup_s += parse_s * scale
        finally:
            gc.enable()

    def _op(self, rr: RoundResult, label: str, body: Callable[[], Optional[str]]) -> None:
        rr.attempted += 1
        try:
            problem = body()
        except Exception as exc:  # a failed operation is counted, the run goes on
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem is not None:
            rr.failed += 1
            self.errors.append(f"{label}: {problem}")

    def run_round(self) -> RoundResult:
        from repro.coloring import distributed_color_chordal, message_level_layer_decisions
        from repro.localmodel.gather import gather_balls
        from repro.mis import distributed_chordal_mis

        import checks

        inp = self.inputs
        rr = RoundResult()
        n = len(inp.g_adj)

        def mvc() -> Optional[str]:
            rep = self._timed(
                rr, "mvc", inp.g_text,
                lambda g: distributed_color_chordal(g, epsilon=MVC_EPSILON),
                "coloring.distributed_mvc",
            )
            k = math.ceil(2 / MVC_EPSILON)
            rr.outputs["mvc"] = (sorted(rep.coloring.items()), rep.total_rounds)
            rr.outputs["mvc_colors"] = len(set(rep.coloring.values()))
            rr.outputs["mvc_rounds"] = rep.total_rounds
            return checks.check_coloring(inp.g_adj, rep.coloring, inp.chi, k) or checks.check_rounds(
                n, rep.total_rounds, rep.pruning_rounds, len(rep.coloring_finish),
                rep.finish_time, inp.g_adj,
            )

        def mis() -> Optional[str]:
            rep = self._timed(
                rr, "mis", inp.g_text,
                lambda g: distributed_chordal_mis(g, MIS_EPSILON),
                "mis.distributed_mis",
            )
            chosen = rep.independent_set
            rr.outputs["mis"] = (sorted(chosen), rep.total_rounds)
            rr.outputs["mis_size"] = len(chosen)
            rr.outputs["mis_rounds"] = rep.total_rounds
            pruning = rep.iteration_finish[-1] if rep.iteration_finish else 0
            return checks.check_independent_set(
                inp.g_adj, chosen, inp.alpha, MIS_EPSILON
            ) or checks.check_rounds(
                n, rep.total_rounds, pruning, len(rep.iteration_finish),
                rep.finish_time, inp.g_adj,
            )

        def decisions(params) -> Optional[str]:
            r = params.collect_radius
            self._captured.clear()
            decided, rounds = self._timed(
                rr, f"dec{r}", inp.m_text,
                lambda g: message_level_layer_decisions(g, params),
                "coloring.message_level",
            )
            (balls, _), = self._captured
            self._captured.clear()
            if rounds != r + 1:
                return f"gather took {rounds} rounds, expected {r + 1}"
            return checks.check_balls(balls, inp.m_adj, inp.ego[r], r) or checks.check_decisions(
                decided, set(inp.m_adj), inp.first_layer[r]
            )

        def node_gather(r: int) -> Optional[str]:
            balls, rounds = self._timed(
                rr, f"gather{r}", inp.m_text,
                lambda g: gather_balls(g, r, executor="node"),
                "localmodel.gather_node",
            )
            rr.sim_rounds += rounds
            if rounds != r + 1:
                return f"gather took {rounds} rounds, expected {r + 1}"
            return checks.check_balls(balls, inp.m_adj, inp.ego[r], r)

        self._op(rr, "mvc", mvc)
        self._op(rr, "mis", mis)
        for params in self.params:
            self._op(rr, f"decisions r={params.collect_radius}", lambda: decisions(params))
        for r in MESSAGE_RADII:
            self._op(rr, f"node gather r={r}", lambda: node_gather(r))

        # The outputs are deterministic: every round must repeat the first.
        if self.reference is None:
            self.reference = rr.outputs
        elif rr.outputs != self.reference:
            self.deterministic = False
        return rr


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def op_time(rr: RoundResult) -> float:
    return sum(rr.times.values())


def end_to_end(rounds: List[RoundResult], inputs: Inputs, peak_rss_mb: float) -> Dict[str, Any]:
    n, m = len(inputs.g_adj), len(inputs.m_adj)
    dec_keys = [f"dec{r}" for r in MESSAGE_RADII]
    gather_keys = [f"gather{r}" for r in MESSAGE_RADII]
    median = statistics.median

    first = rounds[0].outputs
    values = {
        "setup_s": (median([rr.setup_s for rr in rounds]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "mvc_vertices_per_s": (median([n / rr.times["mvc"] for rr in rounds]), "vertices/s"),
        "mis_vertices_per_s": (median([n / rr.times["mis"] for rr in rounds]), "vertices/s"),
        "mvc_colors": (first.get("mvc_colors", 0), "colors"),
        "mvc_rounds": (first.get("mvc_rounds", 0), "rounds"),
        "mis_size": (first.get("mis_size", 0), "vertices"),
        "mis_rounds": (first.get("mis_rounds", 0), "rounds"),
        "decisions_per_s": (
            median([len(dec_keys) * m / sum(rr.times[k] for k in dec_keys) for rr in rounds]),
            "nodes/s",
        ),
        "sim_node_rounds_per_s": (
            median([m * rr.sim_rounds / sum(rr.times[k] for k in gather_keys) for rr in rounds]),
            "node-rounds/s",
        ),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


#: per-layer metric -> (kind, source); "self" reads span self time,
#: "count" a counter; every value is a per-traced-round mean.
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "coloring.compute_parent_s": ("self", "coloring.compute_parent", "s"),
    "coloring.compute_parent_calls": ("count", "coloring.compute_parent_calls", "count"),
    "graphs.bfs_calls": ("count", "graphs.bfs_calls", "count"),
    "graphs.bfs_visited": ("count", "graphs.bfs_visited", "vertices"),
    "cliquetree.build_clique_forest_s": ("self", "cliquetree.build_clique_forest", "s"),
    "cliquetree.wcig_edges": ("count", "cliquetree.wcig_edges", "edges"),
    "graphs.diameter_s": ("self", "graphs.diameter", "s"),
    "graphs.diameter_calls": ("count", "graphs.diameter_calls", "count"),
    "mis.interval_mis_s": ("self", "mis.interval_mis", "s"),
    "mis.absorbing_mis_s": ("self", "mis.absorbing_mis", "s"),
    "mis.absorbing_mis_calls": ("count", "mis.absorbing_mis_calls", "count"),
    "mis.exact_mis_s": ("self", "mis.exact_mis", "s"),
    "mis.chordal_mis_self_s": ("self", "mis.chordal_mis", "s"),
    "mis.distributed_mis_self_s": ("self", "mis.distributed_mis", "s"),
    "coloring.peel_s": ("self", "coloring.peel", "s"),
    "coloring.layers": ("count", "coloring.layers", "count"),
    "graphs.is_chordal_s": ("self", "graphs.is_chordal", "s"),
    "coloring.color_interval_s": ("self", "coloring.color_interval", "s"),
    "coloring.correct_path_colors_s": ("self", "coloring.correct_path_colors", "s"),
    "coloring.chordal_mvc_self_s": ("self", "coloring.chordal_mvc", "s"),
    "coloring.distributed_mvc_self_s": ("self", "coloring.distributed_mvc", "s"),
    "coloring.layer_decision_s": ("self", "coloring.layer_decision", "s"),
    "cliquetree.local_view_s": ("self", "cliquetree.local_view", "s"),
    "coloring.message_level_self_s": ("self", "coloring.message_level", "s"),
    "localmodel.gather_s": ("self", "localmodel.gather", "s"),
    "localmodel.ball_vertices": ("count", "localmodel.ball_vertices", "vertices"),
    "localmodel.gather_node_s": ("self", "localmodel.gather_node", "s"),
    "localmodel.sim_rounds": ("count", "localmodel.sim_rounds", "rounds"),
    "localmodel.messages_delivered": ("count", "localmodel.messages_delivered", "messages"),
}


def per_layer(tracer, traced: List[RoundResult], untraced: List[RoundResult]) -> Dict[str, Any]:
    count = len(traced)
    self_by_name = tracer.self_by_name()
    out: Dict[str, Any] = {}
    for metric, (kind, source, unit) in PER_LAYER.items():
        total = self_by_name.get(source, 0.0) if kind == "self" else tracer.counts.get(source, 0.0)
        out[metric] = {"value": total / count, "unit": unit}
    examined = tracer.counts.get("cliquetree.kruskal_examined", 0.0)
    kept = tracer.counts.get("cliquetree.kruskal_kept", 0.0)
    out["cliquetree.kruskal_yield"] = {"value": kept / examined if examined else 0.0, "unit": "ratio"}
    out["trace.overhead_ratio"] = {
        "value": statistics.median(op_time(rr) for rr in traced)
        / statistics.median(op_time(rr) for rr in untraced),
        "unit": "ratio",
    }
    return out


#: How much of a traced call's wall time (taken around the call by
#: ``Runner._timed``) its spans' self times may miss: a share of the call
#: plus a floor.  The root span's own entry and exit cost 10-20 us.
SPAN_COVER_TOLERANCE = 0.01
SPAN_COVER_FLOOR_S = 1e-4


def check_span_cover(tracer, traced_calls: List[Tuple[str, int, float]]) -> None:
    """The self times of each traced call's spans add up to its wall time."""
    totals = tracer.root_self_totals()
    for name, index, op_s in traced_calls:
        gap = op_s - totals[index]
        if abs(gap) > SPAN_COVER_TOLERANCE * op_s + SPAN_COVER_FLOOR_S:
            raise SystemExit(
                f"perfbench: {name} took {op_s:.6f} s but its spans' self times "
                f"add up to {totals[index]:.6f} s"
            )


# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the repro package is missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from tracing import Tracer

    origin = perf_counter()
    inputs = make_inputs(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    runner = Runner(inputs)
    untraced: List[RoundResult] = []
    traced: List[RoundResult] = []

    start = perf_counter()
    while True:
        untraced.append(runner.run_round())
        if tracer is not None:
            tracer.install()
            runner.tracer = tracer
            try:
                traced.append(runner.run_round())
            finally:
                runner.tracer = None
                tracer.uninstall()
        if perf_counter() - start >= args.seconds:
            break

    rounds = untraced + traced
    attempted = sum(rr.attempted for rr in rounds)
    failed = sum(rr.failed for rr in rounds)
    for line in runner.errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if not runner.deterministic:
        print("FAILED outputs differ between rounds", file=sys.stderr)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        metrics = end_to_end(untraced, inputs, peak_rss_mb)
    else:
        check_span_cover(tracer, runner.traced_calls)
        metrics = per_layer(tracer, traced, untraced)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json", origin)

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} rounds"
          f"{f' + {len(traced)} traced' if traced else ''}, "
          f"{attempted} operations, {failed} failed; median host speed scale "
          f"{statistics.median(x for rr in untraced for x in rr.scales):.3f}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": runner.deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
