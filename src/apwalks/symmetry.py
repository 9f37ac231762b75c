"""Equal-value structure of the limiting probabilities.

Limiting probabilities from a fixed source fall into clusters of identical
values. Clusters implied by corner automorphisms are "explained"; the
remaining equalities are reported as-is, because they are observed
numerically but not implied by the corner group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SUM_TOL
from .network import OrbitPartition
from .spectral import gap_runs

#: Limiting probabilities this close are equal. An absolute tolerance on chi
#: merges different limits at G>=6 (ROADMAP item 1 replaces it).
CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class ChiClustering:
    """Maximal clusters of equal limiting probability from one source.

    Clusters are ordered by ascending representative value; each cluster's
    nodes are ascending. The representative is the cluster mean.
    """

    source: int
    clusters: tuple[tuple[int, ...], ...]
    values: tuple[float, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.clusters)


@dataclass(frozen=True)
class OrbitConsistencyReport:
    """How a value clustering relates to an automorphism orbit partition."""

    unexplained_pairs: tuple[tuple[int, int], ...]


def cluster_equal_limits(chi_column: np.ndarray, source: int) -> ChiClustering:
    """Cluster the column of limits from ``source`` by ``spectral.gap_runs`` at ``CLUSTER_TOL``.

    Raises:
        ValueError: if the column is not a probability distribution.
    """
    column = np.asarray(chi_column, dtype=float)
    order = np.argsort(column, kind="stable")
    ascending = column[order]
    runs = gap_runs(ascending, CLUSTER_TOL)
    # Negated: a NaN entry makes the sum NaN and fails the check.
    if not abs(column.sum() - 1.0) <= SUM_TOL:
        raise ValueError(
            f"chi column must sum to 1 within {SUM_TOL:g}, got {column.sum()!r}"
        )
    return ChiClustering(
        source=source,
        clusters=tuple(tuple((np.sort(order[a:b]) + 1).tolist()) for a, b in runs),
        # The mean in ascending-value order: another order can move the last bit.
        values=tuple(float(np.mean(ascending[a:b])) for a, b in runs),
    )


def orbit_consistency(
    clustering: ChiClustering, orbit_partition: OrbitPartition
) -> OrbitConsistencyReport:
    """List every same-cluster pair of nodes the orbits do NOT relate.

    Those equalities are real but unexplained by the supplied group.

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
    unexplained: list[tuple[int, int]] = []
    for cluster in clustering.clusters:
        for i, k in enumerate(cluster):
            for l in cluster[i + 1 :]:
                if orbit_of[k] != orbit_of[l]:
                    unexplained.append((k, l))
    return OrbitConsistencyReport(unexplained_pairs=tuple(sorted(unexplained)))

