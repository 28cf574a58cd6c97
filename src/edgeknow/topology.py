"""Clustered scale-free overlay generation.

Preferential attachment weighted by model similarity: an arriving node links
to existing nodes with probability proportional to degree times the overlap
coefficient of the two nodes' trained predicting-variable sets. Nodes at the
edge limit are excluded so the degree cap is hard.
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


@dataclass
class Overlay:
    adjacency: dict[int, set[int]]
    edge_limit: int
    saturation_warnings: int = 0
    repair_edges: int = 0

    @property
    def nodes(self) -> list[int]:
        return sorted(self.adjacency)

    def neighbors(self, node: int) -> set[int]:
        return self.adjacency[node]

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])

    def add_edge(self, u: int, v: int):
        if u == v:
            raise ValueError("self-loop")
        if v in self.adjacency[u]:
            raise ValueError(f"duplicate edge {u}-{v}")
        if (
            self.degree(u) >= self.edge_limit
            or self.degree(v) >= self.edge_limit
        ):
            raise ValueError(f"edge {u}-{v} would exceed the edge limit")
        self.adjacency[u].add(v)
        self.adjacency[v].add(u)

    def edges(self) -> list[tuple[int, int]]:
        return sorted(
            (u, v) for u in self.adjacency for v in self.adjacency[u] if u < v
        )

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
    degree: np.ndarray,
    params: AttachmentParams,
    rng: np.random.Generator,
):
    """Attach one arriving node to nodes 0..new_id-1 with up to m edges,
    drawn without replacement and re-normalized after each draw; `degree`
    is kept in step with the overlay."""
    overlay.adjacency[new_id] = set()
    candidates = np.arange(new_id)
    for _ in range(params.m):
        if not len(candidates):
            break
        try:
            probs = attachment_probabilities(
                degree[candidates],
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
        degree[[new_id, target]] += 1
        candidates = np.delete(candidates, pick)


def generate(
    params: AttachmentParams,
    trained: Sequence[Collection[int]],
    edge_limit: int,
    seed: int,
) -> Overlay:
    """Grow the overlay over nodes with the given trained predicting-variable
    ids: a clique of the first m0 nodes, then similarity-weighted
    preferential attachment for each subsequent node, followed by a
    connectivity repair pass."""
    n = len(trained)
    if n < params.m0:
        raise ValueError(f"need at least m0={params.m0} nodes, got {n}")
    rng = np.random.default_rng(seed)
    overlay = Overlay(
        adjacency={i: set() for i in range(params.m0)},
        edge_limit=edge_limit,
    )
    for u in range(params.m0):
        for v in range(u + 1, params.m0):
            overlay.add_edge(u, v)
    degree = np.zeros(n, dtype=np.int64)
    degree[: params.m0] = params.m0 - 1
    sizes = np.array([len(ids) for ids in trained], dtype=np.int64)
    # per variable, the ids of the nodes so far that trained it, ascending
    trainers: dict[int, list[int]] = {}
    for new_id, ids in enumerate(trained):
        if new_id >= params.m0:
            sims = overlap_coefficients(trainers, sizes[:new_id], ids)
            attach(overlay, new_id, sims, degree, params, rng)
        for v in ids:
            trainers.setdefault(v, []).append(new_id)
    _repair_connectivity(overlay)
    return overlay


def _components(overlay: Overlay) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for start in overlay.nodes:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nb in overlay.adjacency[node]:
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
    for comp in comps[1:]:
        anchors = [
            n for n in main if overlay.degree(n) < overlay.edge_limit
        ]
        sources = [
            n for n in comp if overlay.degree(n) < overlay.edge_limit
        ]
        if not anchors or not sources:
            overlay.saturation_warnings += 1
            continue
        anchor = max(anchors, key=lambda n: (overlay.degree(n), -n))
        overlay.add_edge(min(sources), anchor)
        overlay.repair_edges += 1
        main |= comp


def degree_histogram(overlay: Overlay) -> dict[int, int]:
    hist: dict[int, int] = {}
    for node in overlay.adjacency:
        deg = overlay.degree(node)
        hist[deg] = hist.get(deg, 0) + 1
    return hist


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
