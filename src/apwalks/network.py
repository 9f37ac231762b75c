"""Deterministic 2D Apollonian network construction and its corner symmetries.

The network starts from a triangle on nodes 1, 2, 3. Each generation inserts
one new node into every triangle created by the previous generation and
connects it to the triangle's three vertices. Node labels are assigned in
creation order, which makes the construction fully reproducible: the same
generation always yields the same labeled graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

#: Largest generation the generator will build (N = 1096 nodes); dense
#: eigendecomposition stays interactive up to this size.
GENERATION_CAP = 7

#: Most values (times x nodes) one probability series may hold. ``evolve``
#: holds its series once, as the propagation kernel's output, which the
#: writer reads row by row; a grid is refused before any work when it would
#: exceed this: 2**26 values is 0.5 GB, about 30 times the default grid of
#: 2000 times at G=7.
SERIES_VALUE_CAP = 2**26

#: All six permutations of the three corner nodes, identity first.
CORNER_PERMUTATIONS: tuple[tuple[int, int, int], ...] = tuple(
    sorted(permutations((1, 2, 3)))
)


class CapacityError(ValueError):
    """Requested generation exceeds the configured cap."""


def check_node(node: int, n: int) -> None:
    """Raise ``ValueError`` unless ``node`` is an integer label in 1..n."""
    if not isinstance(node, (int, np.integer)) or isinstance(node, bool):
        raise ValueError(f"node index must be an integer, got {node!r}")
    if not 1 <= node <= n:
        raise ValueError(f"node index {node} out of range 1..{n}")


@dataclass(frozen=True)
class NodeInfo:
    """Insertion record for one node.

    ``gen`` is the generation at which the node appeared; ``parent`` is the
    triangle (ascending vertex triple) it was inserted into, or ``None`` for
    the three initial corners.
    """

    gen: int
    parent: tuple[int, int, int] | None


@dataclass(frozen=True)
class Network:
    """An Apollonian network with 1-based node labels and full provenance.

    Immutable after construction; safe to share across workers.
    """

    generation: int
    node_count: int
    edges: tuple[tuple[int, int], ...]
    node_meta: tuple[NodeInfo, ...]
    central_node: int | None

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, indexed by ``node - 1``."""
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, j in self.edges:
            adj[i - 1].append(j)
            adj[j - 1].append(i)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @cached_property
    def parent_to_node(self) -> dict[tuple[int, int, int], int]:
        """Map from parent triangle to the node inserted into it."""
        return {
            info.parent: node
            for node, info in enumerate(self.node_meta, start=1)
            if info.parent is not None
        }

    def nodes_of_generation(self, gen: int) -> tuple[int, ...]:
        return tuple(
            node
            for node, info in enumerate(self.node_meta, start=1)
            if info.gen == gen
        )


@dataclass(frozen=True)
class NodePermutation:
    """A relabeling of the nodes; ``image[i - 1]`` is the image of node i."""

    image: tuple[int, ...]

    def __call__(self, node: int) -> int:
        return self.image[node - 1]


@dataclass(frozen=True)
class OrbitPartition:
    """Disjoint node classes closed under a group of automorphisms."""

    classes: tuple[tuple[int, ...], ...]
    group_used: str


def node_count_for_generation(generation: int) -> int:
    """Closed-form size N = 3 + (3**G - 1) / 2."""
    return 3 + (3**generation - 1) // 2


def generate_apollonian(generation: int) -> Network:
    """Build the Apollonian network of the given generation.

    Canonical labeling: nodes 1-3 are the corners; each generation visits the
    triangles created by the previous one in creation order and inserts one
    node per triangle, taking the next free label. Insertion into (a, b, c)
    creates the child triangles (a, b, new), (a, c, new), (b, c, new), in
    that order.

    Raises:
        ValueError: if ``generation`` is negative.
        CapacityError: if ``generation`` exceeds ``GENERATION_CAP``.
    """
    if not isinstance(generation, (int, np.integer)) or isinstance(generation, bool):
        raise ValueError(f"generation must be an integer, got {generation!r}")
    if generation < 0:
        raise ValueError(f"generation must be non-negative, got {generation}")
    if generation > GENERATION_CAP:
        raise CapacityError(
            f"generation {generation} exceeds the cap of {GENERATION_CAP} "
            f"(N = {node_count_for_generation(GENERATION_CAP)} nodes)"
        )

    meta: list[NodeInfo] = [NodeInfo(0, None)] * 3
    edges: list[tuple[int, int]] = [(1, 2), (1, 3), (2, 3)]
    frontier: list[tuple[int, int, int]] = [(1, 2, 3)]
    next_label = 4

    for gen in range(1, generation + 1):
        new_frontier: list[tuple[int, int, int]] = []
        for a, b, c in frontier:
            v = next_label
            next_label += 1
            meta.append(NodeInfo(gen, (a, b, c)))
            edges.extend([(a, v), (b, v), (c, v)])
            # a < b < c < v, so the child triples are already ascending.
            new_frontier.extend([(a, b, v), (a, c, v), (b, c, v)])
        frontier = new_frontier

    return Network(
        generation=generation,
        node_count=len(meta),
        edges=tuple(sorted(edges)),
        node_meta=tuple(meta),
        central_node=4 if generation >= 1 else None,
    )


def laplacian(net: Network) -> np.ndarray:
    """Dense Laplacian: degree on the diagonal, -1 per edge.

    With unit transmission rate this matrix doubles as the transport
    Hamiltonian for both the classical and the coherent walk.
    """
    n = net.node_count
    a = np.zeros((n, n), dtype=float)
    for i, j in net.edges:
        a[i - 1, j - 1] = -1.0
        a[j - 1, i - 1] = -1.0
    for v in range(n):
        a[v, v] = len(net.neighbors[v])
    return a


def corner_automorphism(
    net: Network, corner_perm: tuple[int, int, int]
) -> NodePermutation:
    """Extend a permutation of the corners {1, 2, 3} to the whole network.

    Every inserted node maps to the node whose parent triangle is the image
    of its own parent triangle, propagated in insertion order. The result is
    always a graph automorphism and fixes the central node.
    """
    if sorted(corner_perm) != [1, 2, 3]:
        raise ValueError(
            f"corner_perm must be a permutation of (1, 2, 3), got {corner_perm!r}"
        )
    image = [0] * net.node_count
    for corner in (1, 2, 3):
        image[corner - 1] = corner_perm[corner - 1]
    for node in range(4, net.node_count + 1):
        a, b, c = net.node_meta[node - 1].parent
        mapped = tuple(sorted((image[a - 1], image[b - 1], image[c - 1])))
        image[node - 1] = net.parent_to_node[mapped]
    return NodePermutation(tuple(image))


def corner_group(net: Network) -> tuple[NodePermutation, ...]:
    """All six automorphisms induced by permuting the corners."""
    return tuple(corner_automorphism(net, p) for p in CORNER_PERMUTATIONS)


def orbits(net: Network, fixed_source: int | None = None) -> OrbitPartition:
    """Partition the nodes into orbits of the corner group (``corner_group``).

    When ``fixed_source`` is given, only the automorphisms fixing that node
    act (its stabilizer within the corner group). Either set is a group, so
    a node's orbit is the set of its images under the acting automorphisms.
    Each class is sorted, and the classes are sorted by their smallest node.
    """
    perms = corner_group(net)
    if fixed_source is not None:
        check_node(fixed_source, net.node_count)
        perms = [p for p in perms if p(fixed_source) == fixed_source]
    classes = {tuple(sorted({p(v) for p in perms})) for v in range(1, net.node_count + 1)}
    used = f"{len(perms)} automorphisms"
    if fixed_source is not None:
        used += f" fixing node {fixed_source}"
    return OrbitPartition(classes=tuple(sorted(classes)), group_used=used)
