"""Clustered scale-free overlay generation.

The first min(n, m0) nodes form a seed clique; then preferential attachment
weighted by model similarity: an arriving node links to existing nodes with
probability proportional to degree times the overlap coefficient of the two
nodes' trained predicting-variable sets. Nodes at the edge limit are
excluded so the degree cap is hard. The overlay is held once,
as the padded neighbor matrix (`Overlay`) that growth writes and routing
reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

import numpy as np


class NoAttachmentTarget(RuntimeError):
    pass


@dataclass
class AttachmentParams:
    m0: int = 4
    m: int = 3
    similarity_floor: float = 0.05

    def __post_init__(self):
        if not 1 <= self.m < self.m0:
            raise ValueError(f"need 1 <= m < m0, got m={self.m}, m0={self.m0}")
        if not 0 <= self.similarity_floor < 1:
            raise ValueError("similarity_floor must be in [0, 1)")


class Overlay:
    """An undirected overlay over nodes 0..n-1, held once, as the padded
    neighbor matrix that growth writes and routing reads: `rows`, (n+1) x
    width, holds in row u u's neighbors ascending, then the pad node n, and
    in row n only pad; `degree[u]` counts u's neighbors. A full row doubles
    the width, so growth copies the matrix O(log max degree) times."""

    def __init__(self, node_count: int, edge_limit: int):
        self.rows = np.full((node_count + 1, 1), node_count, dtype=np.int32)
        self.degree = np.zeros(node_count, dtype=np.intp)
        self.edge_limit = edge_limit
        self.saturation_warnings = 0
        self.repair_edges = 0

    def neighbors(self, node: int) -> np.ndarray:
        """`node`'s neighbors, ascending: a view of its row."""
        return self.rows[node, : self.degree[node]]

    def add_edge(self, u: int, v: int):
        if u == v:
            raise ValueError("self-loop")
        if v in self.neighbors(u):
            raise ValueError(f"duplicate edge {u}-{v}")
        most = max(self.degree[u], self.degree[v])
        if most >= self.edge_limit:
            raise ValueError(f"edge {u}-{v} would exceed the edge limit")
        if most == self.rows.shape[1]:
            pad = ((0, 0), (0, most))
            self.rows = np.pad(self.rows, pad, constant_values=len(self.degree))
        for a, b in ((u, v), (v, u)):
            row = self.rows[a, : self.degree[a] + 1]
            row[-1] = b
            row.sort()
            self.degree[a] += 1

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once, (u, v) with u < v, ascending: the rows read in
        order."""
        n, body = len(self.degree), self.rows[:-1]
        ends = body[body < n]
        starts = np.repeat(np.arange(n), self.degree)
        once = starts < ends
        return list(zip(starts[once].tolist(), ends[once].tolist()))

    def write_edge_list(self, path):
        with open(path, "w") as f:
            for u, v in self.edges():
                f.write(f"{u} {v}\n")

    def write_degree_csv(self, path):
        with open(path, "w") as f:
            f.write("degree,count\n")
            for deg, count in sorted(degree_histogram(self).items()):
                f.write(f"{deg},{count}\n")


def overlap_coefficients(
    trainers: dict[int, list[int]], sizes: np.ndarray, ids: Collection[int]
) -> np.ndarray:
    """Overlap coefficient |A & B| / min(|A|, |B|) of the trained set `ids`
    with that of every earlier node, given per variable the earlier nodes
    that trained it and the earlier nodes' set sizes; zero where either set
    is empty."""
    earlier = itertools.chain.from_iterable(trainers.get(v, ()) for v in ids)
    shared = np.bincount(np.fromiter(earlier, np.intp), minlength=len(sizes))
    smaller = np.minimum(sizes, len(ids))
    return np.divide(shared, smaller, out=np.zeros(len(sizes)), where=smaller > 0)


def attachment_probabilities(
    degrees: np.ndarray,
    similarities: np.ndarray,
    edge_limit: int,
    similarity_floor: float = 0.0,
) -> np.ndarray:
    """Normalized attachment probabilities over the candidates with these
    degrees and similarities; saturated candidates get probability zero."""
    total = degrees.sum()
    sims = np.maximum(similarities, similarity_floor)
    weights = degrees / total * sims if total > 0 else sims
    weights = np.where(degrees >= edge_limit, 0.0, weights)
    wsum = weights.sum()
    if wsum <= 0:
        raise NoAttachmentTarget("all existing nodes saturated or zero-weight")
    return weights / wsum


def attach(
    overlay: Overlay,
    new_id: int,
    similarities: np.ndarray,
    params: AttachmentParams,
    rng: np.random.Generator,
):
    """Attach one arriving node to nodes 0..new_id-1 with up to m edges,
    drawn without replacement and re-normalized after each draw."""
    candidates = np.arange(new_id)
    for _ in range(params.m):
        if not len(candidates):
            break
        try:
            probs = attachment_probabilities(
                overlay.degree[candidates],
                similarities[candidates],
                overlay.edge_limit,
                params.similarity_floor,
            )
        except NoAttachmentTarget:
            overlay.saturation_warnings += 1
            break
        pick = rng.choice(len(candidates), p=probs)
        target = int(candidates[pick])
        overlay.add_edge(new_id, target)
        candidates = np.delete(candidates, pick)


def generate(
    params: AttachmentParams,
    trained: Sequence[Collection[int]],
    edge_limit: int,
    seed: int,
) -> Overlay:
    """Grow the overlay over nodes with the given trained predicting-variable
    ids: a clique of the first min(n, m0) nodes, then similarity-weighted
    preferential attachment for each subsequent node, followed by a
    connectivity repair pass; the matrix is then trimmed to the widest
    row."""
    n = len(trained)
    rng = np.random.default_rng(seed)
    overlay = Overlay(n, edge_limit)
    for u, v in itertools.combinations(range(min(n, params.m0)), 2):
        overlay.add_edge(u, v)
    sizes = np.array([len(ids) for ids in trained], dtype=np.int64)
    # per variable, the ids of the nodes so far that trained it, ascending
    trainers: dict[int, list[int]] = {}
    for new_id, ids in enumerate(trained):
        if new_id >= params.m0:
            sims = overlap_coefficients(trainers, sizes[:new_id], ids)
            attach(overlay, new_id, sims, params, rng)
        for v in ids:
            trainers.setdefault(v, []).append(new_id)
    _repair_connectivity(overlay)
    overlay.rows = overlay.rows[:, : max(1, overlay.degree.max())].copy()
    return overlay


def _components(overlay: Overlay) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for start in range(len(overlay.degree)):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nb in overlay.neighbors(node).tolist():
                if nb not in comp:
                    comp.add(nb)
                    frontier.append(nb)
        seen |= comp
        comps.append(comp)
    return comps


def _repair_connectivity(overlay: Overlay):
    """Join stray components to the largest one via its highest-degree
    unsaturated node; each repair is counted."""
    comps = sorted(_components(overlay), key=len, reverse=True)
    main = comps[0]
    degree = overlay.degree
    for comp in comps[1:]:
        anchors = [n for n in main if degree[n] < overlay.edge_limit]
        sources = [n for n in comp if degree[n] < overlay.edge_limit]
        if not anchors or not sources:
            overlay.saturation_warnings += 1
            continue
        anchor = max(anchors, key=lambda n: (degree[n], -n))
        overlay.add_edge(min(sources), anchor)
        overlay.repair_edges += 1
        main |= comp


def degree_histogram(overlay: Overlay) -> dict[int, int]:
    degrees, counts = np.unique(overlay.degree, return_counts=True)
    return dict(zip(degrees.tolist(), counts.tolist()))


def survival_slope(degrees: Iterable[int]) -> float:
    """Least-squares slope of the log-log complementary CDF of the degree
    sequence (power-law check). A line needs two points: fewer than two
    distinct positive degrees raise ValueError."""
    degs = np.sort(np.asarray(list(degrees), dtype=float))
    n = len(degs)
    ks = np.unique(degs[degs >= 1])
    if len(ks) < 2:
        raise ValueError(f"{len(ks)} distinct positive degrees, need 2 for a slope")
    survival = np.array([(degs >= k).sum() / n for k in ks])
    x, y = np.log10(ks), np.log10(survival)
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
