"""Output checks for the paper-pipeline benchmark.

Every check compares a program output against a value computed apart
from the program (networkx, or this module's own Gavril greedy) or
against a property the paper proves.  A check returns ``None`` when the
output passes and a one-line reason when it does not, so the caller can
count the operation as failed and keep going.

The checks only read plain data -- adjacency sets, dicts, integers -- so
the tests can feed them deliberately broken outputs.

Run as a script, the module is the oracle process of ``run.py``: it reads
``{"g", "m", "radii"}`` as JSON on stdin, G and M as ``[vertex, [neighbors]]``
lists, and writes chi and alpha of G and the ego-graph node sets of M as
JSON on stdout.  networkx is imported only there, so the measuring
process never pays for it.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from typing import Any, Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Set

Vertex = Hashable
Adjacency = Mapping[Vertex, Iterable[Vertex]]


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def mcs_peo(adj: Adjacency) -> List[Vertex]:
    """A perfect elimination order of a chordal graph.

    Maximum cardinality search (Tarjan-Yannakakis) numbers the vertices
    so that the reverse of the visit order is a PEO whenever the graph is
    chordal.  Ties go to the smallest vertex, so the order is
    deterministic.
    """
    weight = {v: 0 for v in adj}
    heap = [(0, v) for v in sorted(adj)]
    heapq.heapify(heap)
    visited: Set[Vertex] = set()
    order: List[Vertex] = []
    while heap:
        neg_w, v = heapq.heappop(heap)
        if v in visited or -neg_w != weight[v]:
            continue
        visited.add(v)
        order.append(v)
        for u in adj[v]:
            if u not in visited:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    order.reverse()
    return order


def independence_number(adj: Adjacency) -> int:
    """alpha of a chordal graph by Gavril's greedy over a PEO.

    Taking each vertex of a PEO whose neighbors are all still untaken
    yields a maximum independent set: a simplicial vertex always lies in
    one.
    """
    blocked: Set[Vertex] = set()
    size = 0
    for v in mcs_peo(adj):
        if v in blocked:
            continue
        size += 1
        blocked.add(v)
        blocked.update(adj[v])
    return size


def lemma6_layer_bound(n: int) -> int:
    """Lemma 6: the peeling needs at most ceil(log2 n) + 1 layers."""
    return math.ceil(math.log2(max(n, 2))) + 1


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_coloring(
    adj: Adjacency, coloring: Mapping[Vertex, int], chi: int, k: int
) -> Optional[str]:
    """Proper on every edge and within Theorem 3's floor((1+1/k)chi)+1."""
    missing = [v for v in adj if v not in coloring]
    if missing:
        return f"{len(missing)} vertices uncolored, e.g. {missing[0]!r}"
    for v, nbrs in adj.items():
        for u in nbrs:
            if coloring[u] == coloring[v]:
                return f"edge {v!r}-{u!r} has both ends colored {coloring[v]}"
    used = len(set(coloring.values()))
    bound = chi + chi // k + 1
    if used > bound:
        return f"{used} colors exceed Theorem 3's bound {bound} (chi={chi}, k={k})"
    return None


def check_independent_set(
    adj: Adjacency, chosen: Iterable[Vertex], alpha: int, epsilon: float
) -> Optional[str]:
    """Independent on every edge and |I| >= alpha/(1+eps) (Theorem 7)."""
    chosen = set(chosen)
    stray = chosen - set(adj)
    if stray:
        return f"{len(stray)} chosen vertices are not in the graph"
    for v in chosen:
        for u in adj[v]:
            if u in chosen:
                return f"edge {v!r}-{u!r} has both ends in the set"
    if len(chosen) * (1 + epsilon) < alpha:
        return f"|I|={len(chosen)} is below alpha/(1+eps) = {alpha}/{1 + epsilon}"
    return None


def check_rounds(
    n: int,
    total_rounds: int,
    phase_rounds: int,
    layers: int,
    finish_time: Mapping[Vertex, int],
    vertices: Iterable[Vertex],
) -> Optional[str]:
    """Round accounting: total >= the peeling's rounds, Lemma 6's layer
    bound, and every node finishing by ``total_rounds``."""
    if total_rounds < phase_rounds:
        return f"total_rounds {total_rounds} < pruning rounds {phase_rounds}"
    bound = lemma6_layer_bound(n)
    if layers > bound:
        return f"{layers} layers exceed Lemma 6's bound {bound}"
    for v in vertices:
        t = finish_time.get(v)
        if t is None:
            return f"vertex {v!r} has no finish time"
        if t > total_rounds:
            return f"vertex {v!r} finishes at {t} > total_rounds {total_rounds}"
    return None


def check_decisions(
    decisions: Mapping[Vertex, bool], vertices: Set[Vertex], first_layer: Set[Vertex]
) -> Optional[str]:
    """Each node's decision equals its membership in the first layer of
    the centralized peeling (Section 3 coherence, Lemma 12); both
    outcomes must occur, or the comparison would be vacuous."""
    if set(decisions) != set(vertices):
        return "decisions do not cover exactly the graph's vertices"
    for v, joined in decisions.items():
        if joined != (v in first_layer):
            return f"node {v!r} decided {joined}, centralized peeling says {not joined}"
    outcomes = set(decisions.values())
    if outcomes != {True, False}:
        return f"only outcome {outcomes} occurred: the check is vacuous"
    return None


def ego_balls(adj: Adjacency, radius: int) -> Dict[Vertex, FrozenSet[Vertex]]:
    """Per vertex, the node set of its radius-r networkx ego graph.

    The ego graph is the subgraph induced on these nodes, so its edges
    follow from ``adj`` (see :func:`check_balls`).
    """
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(adj)
    g.add_edges_from((v, u) for v, nbrs in adj.items() for u in nbrs)
    return {v: frozenset(nx.ego_graph(g, v, radius=radius)) for v in adj}


def check_balls(
    balls: Mapping[Vertex, object],
    adj: Adjacency,
    expected: Mapping[Vertex, FrozenSet[Vertex]],
    radius: int,
) -> Optional[str]:
    """Every gathered ball equals the radius-r ego graph, nodes and edges.

    ``balls`` maps vertices to :class:`~repro.localmodel.gather.KnownBall`;
    only ``radius``, ``states`` and ``edges`` are read.  ``expected`` holds
    the ego graphs' node sets; their edges are the edges of ``adj`` with
    both ends inside.
    """
    if set(balls) != set(expected):
        return "gathered balls do not cover exactly the graph's vertices"
    for v, ball in balls.items():
        if ball.radius != radius:
            return f"ball of {v!r} has radius {ball.radius}, expected {radius}"
        nodes = expected[v]
        inside = set(ball.states)
        if inside != nodes:
            return f"ball of {v!r} has {len(inside)} nodes, ego graph has {len(nodes)}"
        got = {frozenset(e) for e in ball.edges if e[0] in inside and e[1] in inside}
        want = {frozenset((u, w)) for u in nodes for w in adj[u] if w in nodes}
        if got != want:
            return f"ball of {v!r} has {len(got)} inner edges, ego graph has {len(want)}"
    return None


# ----------------------------------------------------------------------
# oracle process
# ----------------------------------------------------------------------
def oracle(g: List[Any], m: List[Any], radii: Sequence[int]) -> Dict[str, Any]:
    """chi and alpha of G, and per radius the ego-graph node sets of M.

    Graphs come and go as ``[vertex, [vertices...]]`` pairs, since JSON
    object keys would turn integer vertices into strings.
    """
    import networkx as nx

    g_adj = {v: set(nbrs) for v, nbrs in g}
    m_adj = {v: set(nbrs) for v, nbrs in m}
    nxg = nx.Graph()
    nxg.add_nodes_from(g_adj)
    nxg.add_edges_from((v, u) for v, nbrs in g_adj.items() for u in nbrs)
    return {
        "chi": max((len(c) for c in nx.chordal_graph_cliques(nxg)), default=0),
        "alpha": independence_number(g_adj),
        "ego": {
            str(r): [[v, list(nodes)] for v, nodes in ego_balls(m_adj, r).items()]
            for r in radii
        },
    }


if __name__ == "__main__":
    json.dump(oracle(**json.load(sys.stdin)), sys.stdout)
