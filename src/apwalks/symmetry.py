"""Equal-value structure of the limiting probabilities.

Limiting probabilities from a fixed source fall into clusters of identical
values. Clusters implied by corner automorphisms are "explained"; the
remaining equalities are reported as-is, because they are observed
numerically but not implied by the corner group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SUM_TOL
from .network import OrbitPartition


@dataclass(frozen=True)
class ChiClustering:
    """Maximal clusters of equal limiting probability from one source.

    Clusters are ordered by ascending representative value; each cluster's
    nodes are ascending. The representative is the cluster mean.
    """

    source: int
    tolerance: float
    clusters: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.clusters)


@dataclass(frozen=True)
class OrbitConsistencyReport:
    """How a value clustering relates to an automorphism orbit partition."""

    source: int
    all_orbits_explained: bool
    split_orbits: tuple[tuple[int, ...], ...]
    unexplained_pairs: tuple[tuple[int, int], ...]


def cluster_equal_limits(
    chi_column: np.ndarray, tol: float, source: int = 0
) -> ChiClustering:
    """Greedily merge sorted column values whose adjacent gap is <= tol.

    Raises:
        ValueError: if ``tol`` is not finite and positive or the column is
            not a probability distribution.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    column = np.asarray(chi_column, dtype=float)
    # Negated: a NaN entry makes the sum NaN and fails the check.
    if not abs(column.sum() - 1.0) <= SUM_TOL:
        raise ValueError(
            f"chi column must sum to 1 within {SUM_TOL:g}, got {column.sum()!r}"
        )
    order = np.argsort(column, kind="stable")
    clusters: list[list[int]] = [[int(order[0]) + 1]]
    for idx in order[1:]:
        node = int(idx) + 1
        if column[idx] - column[clusters[-1][-1] - 1] <= tol:
            clusters[-1].append(node)
        else:
            clusters.append([node])
    return ChiClustering(
        source=source,
        tolerance=tol,
        clusters=tuple(tuple(sorted(c)) for c in clusters),
        values=tuple(float(np.mean(column[np.array(c) - 1])) for c in clusters),
    )


def orbit_consistency(
    clustering: ChiClustering, orbit_partition: OrbitPartition
) -> OrbitConsistencyReport:
    """Check that every orbit lands inside a single value cluster.

    Also lists every same-cluster pair of nodes the orbits do NOT relate;
    those equalities are real but unexplained by the supplied group.

    Raises:
        ValueError: if the two partitions cover different node sets.
    """
    cluster_nodes = sorted(n for c in clustering.clusters for n in c)
    orbit_nodes = sorted(n for c in orbit_partition.classes for n in c)
    if cluster_nodes != orbit_nodes:
        raise ValueError("clustering and orbit partition cover different nodes")

    orbit_of = {
        node: idx
        for idx, cls in enumerate(orbit_partition.classes)
        for node in cls
    }
    cluster_of = {
        node: idx for idx, cluster in enumerate(clustering.clusters) for node in cluster
    }
    split = tuple(
        cls
        for cls in orbit_partition.classes
        if len({cluster_of[n] for n in cls}) > 1
    )
    unexplained: list[tuple[int, int]] = []
    for cluster in clustering.clusters:
        for i, k in enumerate(cluster):
            for l in cluster[i + 1 :]:
                if orbit_of[k] != orbit_of[l]:
                    unexplained.append((k, l))
    return OrbitConsistencyReport(
        source=clustering.source,
        all_orbits_explained=not split,
        split_orbits=split,
        unexplained_pairs=tuple(sorted(unexplained)),
    )

