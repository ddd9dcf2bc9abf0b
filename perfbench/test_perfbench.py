"""Tests of the benchmark's own checks, oracles and tracer.

    python3 -m pytest perfbench/test_perfbench.py

Each output check must reject a deliberately broken output; the alpha
oracle must match networkx; the run must print a well-formed result and
refuse to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import networkx as nx
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from run import check_span_cover  # noqa: E402

from repro.coloring import (  # noqa: E402
    ColoringParameters,
    diameter_rule,
    distributed_color_chordal,
    message_level_layer_decisions,
    peel_chordal_graph,
)
from repro.graphs.generators import (  # noqa: E402
    random_chordal_graph,
    random_k_tree,
    unit_interval_chain,
)
from repro.localmodel.gather import gather_balls  # noqa: E402
from repro.mis import distributed_chordal_mis  # noqa: E402


def adjacency(graph):
    return {v: set(graph.neighbors_view(v)) for v in graph.vertices()}


@pytest.fixture
def ktree():
    return random_k_tree(30, 2, seed=3)


def test_coloring_check_rejects_improper_coloring(ktree):
    adj = adjacency(ktree)
    coloring = dict(distributed_color_chordal(ktree, epsilon=0.5).coloring)
    assert checks.check_coloring(adj, coloring, chi=3, k=4) is None
    u, v = next(iter(ktree.edges()))
    coloring[u] = coloring[v]
    assert "both ends" in checks.check_coloring(adj, coloring, chi=3, k=4)


def test_coloring_check_rejects_too_many_colors(ktree):
    adj = adjacency(ktree)
    distinct = {v: i for i, v in enumerate(ktree.vertices())}
    assert "Theorem 3" in checks.check_coloring(adj, distinct, chi=3, k=4)
    del distinct[0]
    assert "uncolored" in checks.check_coloring(adj, distinct, chi=3, k=4)


def test_independent_set_check_rejects_dependent_set(ktree):
    adj = adjacency(ktree)
    chosen = set(distributed_chordal_mis(ktree, 0.25).independent_set)
    alpha = checks.independence_number(adj)
    assert checks.check_independent_set(adj, chosen, alpha, 0.25) is None
    v = next(iter(chosen))
    bad = chosen | {next(iter(adj[v]))}
    assert "both ends" in checks.check_independent_set(adj, bad, alpha, 0.25)
    assert "below alpha" in checks.check_independent_set(adj, {v}, alpha, 0.25)


def test_rounds_check_rejects_broken_accounting(ktree):
    rep = distributed_color_chordal(ktree, epsilon=0.5)
    args = (len(ktree), rep.total_rounds, rep.pruning_rounds, len(rep.coloring_finish))
    assert checks.check_rounds(*args, rep.finish_time, ktree.vertices()) is None
    assert "pruning" in checks.check_rounds(
        len(ktree), rep.pruning_rounds - 1, rep.pruning_rounds, 1, rep.finish_time, []
    )
    assert "Lemma 6" in checks.check_rounds(len(ktree), 10, 0, 99, {}, [])
    late = dict(rep.finish_time)
    late[0] = rep.total_rounds + 1
    assert "finishes" in checks.check_rounds(*args, late, ktree.vertices())


def test_decision_check_rejects_flipped_decision(ktree):
    params = ColoringParameters.paper_constants(1)
    first = peel_chordal_graph(ktree, diameter_rule(params.internal_threshold)).nodes_of_layer(1)
    decided, _rounds = message_level_layer_decisions(ktree, params)
    vertices = set(ktree.vertices())
    assert checks.check_decisions(decided, vertices, first) is None
    flipped = dict(decided)
    flipped[0] = not flipped[0]
    assert "centralized" in checks.check_decisions(flipped, vertices, first)
    everyone = {v: True for v in vertices}
    assert "vacuous" in checks.check_decisions(everyone, vertices, vertices)


@pytest.mark.parametrize("executor", ["batch", "node"])
def test_ball_check_rejects_truncated_ball(ktree, executor):
    adj = adjacency(ktree)
    expected = checks.ego_balls(adj, 2)
    balls, _rounds = gather_balls(ktree, 2, executor=executor)
    assert checks.check_balls(balls, adj, expected, 2) is None
    far = max(balls[0].states, key=lambda v: v != 0)
    del balls[0].states[far]
    assert "nodes" in checks.check_balls(balls, adj, expected, 2)


def test_ball_check_rejects_missing_edge(ktree):
    adj = adjacency(ktree)
    expected = checks.ego_balls(adj, 2)
    balls, _rounds = gather_balls(ktree, 2)
    balls[0].edges.discard(next(e for e in sorted(balls[0].edges) if 0 in e))
    assert "edges" in checks.check_balls(balls, adj, expected, 2)


def test_oracle_process_output(ktree):
    m = random_chordal_graph(20, seed=2)
    request = {
        "g": [[v, list(nbrs)] for v, nbrs in adjacency(ktree).items()],
        "m": [[v, list(nbrs)] for v, nbrs in adjacency(m).items()],
        "radii": [1, 3],
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "checks.py")],
        input=json.dumps(request), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["chi"] == 3
    assert out["alpha"] == checks.independence_number(adjacency(ktree))
    nxm = nx.Graph(list(m.edges()))
    nxm.add_nodes_from(m.vertices())
    for r in (1, 3):
        got = {v: set(nodes) for v, nodes in out["ego"][str(r)]}
        assert got == {v: set(nx.ego_graph(nxm, v, radius=r)) for v in m.vertices()}


@pytest.mark.parametrize("seed", range(6))
def test_alpha_oracle_matches_networkx(seed):
    for graph in (
        random_k_tree(12, 2, seed=seed),
        random_chordal_graph(13, seed=seed),
        unit_interval_chain(14, seed=seed),
    ):
        nxg = nx.Graph()
        nxg.add_nodes_from(graph.vertices())
        nxg.add_edges_from(graph.edges())
        alpha = max(len(c) for c in nx.find_cliques(nx.complement(nxg)))
        assert checks.independence_number(adjacency(graph)) == alpha


def test_mcs_order_is_perfect_elimination_order():
    graph = random_chordal_graph(40, seed=5)
    adj = adjacency(graph)
    order = checks.mcs_peo(adj)
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in adj[v] if position[u] > position[v]]
        assert all(b in adj[a] for a in later for b in later if a != b)


def test_tracer_self_times_cover_wall_time():
    tracer = Tracer()

    def leaf():
        return sum(range(20000))

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def middle():
        return wrapped_leaf() + sum(range(20000)) + wrapped_leaf()

    root = tracer.wrap("root", tracer.wrap("middle", middle))
    walls = []
    for _ in range(2):
        t0 = perf_counter()
        root()
        walls.append(perf_counter() - t0)
    assert sorted(tracer.root_self_totals()) == [0, 4]
    calls = [("root", 0, walls[0]), ("root", 4, walls[1])]
    check_span_cover(tracer, calls)
    with pytest.raises(SystemExit, match="self times"):
        check_span_cover(tracer, [("root", 0, 2 * walls[0] + 0.01)])
    by_name = tracer.self_by_name()
    assert set(by_name) == {"root", "middle", "leaf"}
    # middle's own loop is as long as each leaf call, so it is no mere residue
    assert by_name["middle"] > 0.2 * by_name["leaf"]


def run_bench(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "message-level",
           "--seed", "3", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric(trace, tmp_path):
    # run on a copy, so the traced run's span file lands outside the tree
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, unit in ((m["name"], m["unit"]) for m in spec["end_to_end" if trace == "0" else "per_layer"]):
        assert result["metrics"][name]["unit"] == unit
    if trace == "1":
        assert list((tmp_path / "perfbench" / "out").glob("trace-message-level-3.json"))


def test_run_refuses_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
