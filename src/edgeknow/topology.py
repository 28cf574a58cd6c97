"""Clustered scale-free overlay generation.

Preferential attachment weighted by model similarity: an arriving node links
to existing nodes with probability proportional to degree times the overlap
coefficient of the two nodes' trained predicting-variable sets. Nodes at the
edge limit are excluded so the degree cap is hard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .pgm import DiscretePgm


class IncompatibleModels(ValueError):
    pass


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


def similarity(pgm_a: DiscretePgm, pgm_b: DiscretePgm) -> float:
    """Overlap coefficient of the trained predicting-variable sets:
    |A & B| / min(|A|, |B|); zero when either set is empty."""
    if pgm_a.schema != pgm_b.schema:
        raise IncompatibleModels("schemas differ")
    a, b = pgm_a.trained_vars, pgm_b.trained_vars
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def attachment_probabilities(
    overlay: Overlay,
    arriving: DiscretePgm,
    existing: Sequence[tuple[int, DiscretePgm]],
    similarity_floor: float = 0.0,
) -> np.ndarray:
    """Normalized attachment probabilities over `existing`; saturated nodes
    get probability zero."""
    degrees = np.array([overlay.degree(n) for n, _ in existing], dtype=float)
    total = degrees.sum()
    weights = np.zeros(len(existing))
    for i, (node, pgm) in enumerate(existing):
        if overlay.degree(node) >= overlay.edge_limit:
            continue
        sim = max(similarity(arriving, pgm), similarity_floor)
        weights[i] = degrees[i] / total * sim if total > 0 else sim
    wsum = weights.sum()
    if wsum <= 0:
        raise NoAttachmentTarget("all existing nodes saturated or zero-weight")
    return weights / wsum


def attach(
    overlay: Overlay,
    new_id: int,
    new_pgm: DiscretePgm,
    pgms: Mapping[int, DiscretePgm],
    params: AttachmentParams,
    rng: np.random.Generator,
) -> int:
    """Attach one arriving node with up to m edges, drawn without replacement
    and re-normalized after each draw. Returns the number of edges created."""
    existing = [(n, pgms[n]) for n in overlay.nodes]
    overlay.adjacency[new_id] = set()
    created = 0
    for _ in range(params.m):
        pool = [
            (n, p)
            for n, p in existing
            if n not in overlay.adjacency[new_id]
        ]
        if not pool:
            break
        try:
            probs = attachment_probabilities(
                overlay, new_pgm, pool, params.similarity_floor
            )
        except NoAttachmentTarget:
            overlay.saturation_warnings += 1
            break
        target = pool[rng.choice(len(pool), p=probs)][0]
        overlay.add_edge(new_id, target)
        created += 1
    return created


def generate(
    params: AttachmentParams,
    node_pgms: Sequence[DiscretePgm],
    edge_limit: int,
    seed: int,
) -> Overlay:
    """Grow the overlay: a clique of the first m0 nodes, then similarity-
    weighted preferential attachment for each subsequent node, followed by a
    connectivity repair pass."""
    n = len(node_pgms)
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
    pgms = {i: node_pgms[i] for i in range(n)}
    for new_id in range(params.m0, n):
        attach(overlay, new_id, node_pgms[new_id], pgms, params, rng)
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
    sequence (power-law check)."""
    degs = np.sort(np.asarray(list(degrees), dtype=float))
    n = len(degs)
    ks = np.unique(degs[degs >= 1])
    survival = np.array([(degs >= k).sum() / n for k in ks])
    x, y = np.log10(ks), np.log10(survival)
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
