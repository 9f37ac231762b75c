import numpy as np
import pytest

from apwalks.network import (
    CORNER_PERMUTATIONS,
    GENERATION_CAP,
    CapacityError,
    NodePermutation,
    check_node,
    copy_map,
    corner_automorphism,
    corner_group,
    generate_apollonian,
    laplacian,
    node_count_for_generation,
    orbits,
)

# Expected parent triangles at G=3 under creation-order labeling.
G3_PARENTS = {
    4: (1, 2, 3),
    5: (1, 2, 4),
    6: (1, 3, 4),
    7: (2, 3, 4),
    8: (1, 2, 5),
    9: (1, 4, 5),
    10: (2, 4, 5),
    11: (1, 3, 6),
    12: (1, 4, 6),
    13: (3, 4, 6),
    14: (2, 3, 7),
    15: (2, 4, 7),
    16: (3, 4, 7),
}


def distances(net):
    """Edge distances: entry (j-1, k-1) is the first adjacency power reaching k from j."""
    n = net.node_count
    adj = np.zeros((n, n), dtype=int)
    for i, j in net.edges:
        adj[i - 1, j - 1] = adj[j - 1, i - 1] = 1
    reach = np.eye(n, dtype=bool)
    dist = np.full((n, n), -1)
    dist[reach] = 0
    frontier = reach
    for d in range(1, n):
        frontier = ((frontier.astype(int) @ adj) > 0) & ~reach
        if not frontier.any():
            break
        dist[frontier] = d
        reach |= frontier
    return dist


@pytest.mark.parametrize("g", range(0, 7))
def test_size_and_edge_formulas(pipe, g):
    net = pipe.net(g)
    assert net.node_count == 3 + (3**g - 1) // 2
    assert len(net.edges) == (3 ** (g + 1) + 3) // 2


@pytest.mark.parametrize("g", range(0, 6))
def test_simple_graph(pipe, g):
    net = pipe.net(g)
    assert len(set(net.edges)) == len(net.edges)
    for i, j in net.edges:
        assert 1 <= i < j <= net.node_count
    # connected: every node reaches every other
    assert (distances(net) >= 0).all()


def test_g0_is_triangle(pipe):
    net = pipe.net(0)
    assert net.node_count == 3
    assert net.edges == ((1, 2), (1, 3), (2, 3))
    assert net.central_node is None


def test_g1_is_complete_graph(pipe):
    net = pipe.net(1)
    assert net.node_count == 4
    assert net.edges == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert net.central_node == 4


def test_canonical_labeling_g3(pipe):
    net = pipe.net(3)
    for node, parent in G3_PARENTS.items():
        assert net.node_meta[node - 1].parent == parent


def test_insertion_order_generations(pipe):
    net = pipe.net(4)
    gens = [info.gen for info in net.node_meta]
    assert gens == sorted(gens)
    assert net.nodes_of_generation(0) == (1, 2, 3)
    assert net.nodes_of_generation(1) == (4,)
    assert net.nodes_of_generation(2) == (5, 6, 7)
    assert len(net.nodes_of_generation(4)) == 27


def test_generation_is_deterministic():
    a = generate_apollonian(4)
    b = generate_apollonian(4)
    assert a == b


@pytest.mark.parametrize("g", range(1, 6))
def test_inserted_nodes_link_to_their_triangle(pipe, g):
    net = pipe.net(g)
    for node in range(4, net.node_count + 1):
        info = net.node_meta[node - 1]
        earlier = tuple(n for n in net.neighbors[node - 1] if n < node)
        assert earlier == info.parent


def test_generation_validation():
    with pytest.raises(CapacityError, match=str(GENERATION_CAP)):
        generate_apollonian(GENERATION_CAP + 1)
    with pytest.raises(ValueError):
        generate_apollonian(-1)
    with pytest.raises(ValueError):
        generate_apollonian(2.5)


def test_node_count_helper():
    assert [node_count_for_generation(g) for g in range(5)] == [3, 4, 7, 16, 43]


@pytest.mark.parametrize("g", [-1, -2, -3])
def test_node_count_rejects_a_negative_generation(g):
    with pytest.raises(ValueError, match=f"non-negative, got {g}"):
        node_count_for_generation(g)


def test_laplacian_k4(pipe):
    h = laplacian(pipe.net(1))
    assert np.array_equal(h, 4.0 * np.eye(4) - np.ones((4, 4)))


def test_laplacian_central_degree_g2(pipe):
    h = laplacian(pipe.net(2))
    assert h[3, 3] == 6.0  # central node touches all six other nodes


@pytest.mark.parametrize("g", range(0, 6))
def test_laplacian_row_sums_and_symmetry(pipe, g):
    h = laplacian(pipe.net(g))
    assert np.array_equal(h, h.T)
    assert np.abs(h.sum(axis=1)).max() == 0.0
    net = pipe.net(g)
    assert all(h[v - 1, v - 1] == len(net.neighbors[v - 1]) for v in range(1, net.node_count + 1))


def test_distance_examples(pipe):
    net = pipe.net(3)
    dist = distances(net)
    assert dist[3, 0] == 1
    assert (np.diag(dist) == 0).all()
    # generation-3 nodes split by adjacency to the central node
    far = [n for n in net.nodes_of_generation(3) if dist[3, n - 1] == 2]
    near = [n for n in net.nodes_of_generation(3) if dist[3, n - 1] == 1]
    assert sorted(far) == [8, 11, 14]
    assert len(near) == 6


def test_identity_corner_permutation(pipe):
    perm = corner_automorphism(pipe.net(3), (1, 2, 3))
    assert perm.image == tuple(range(1, 17))


def test_corner_rotation_g2(pipe):
    # rotation 1 -> 2 -> 3 -> 1 carries node 5 (triangle 1,2,4) to node 7
    perm = corner_automorphism(pipe.net(2), (2, 3, 1))
    assert perm(4) == 4
    assert perm(5) == 7
    assert perm(7) == 6
    assert perm(6) == 5


def test_corner_automorphism_rejects_bad_permutation(pipe):
    with pytest.raises(ValueError):
        corner_automorphism(pipe.net(2), (1, 1, 2))


@pytest.mark.parametrize("g", range(0, 5))
def test_corner_extensions_preserve_edges(pipe, g):
    net = pipe.net(g)
    for perm in corner_group(net):
        assert sorted(perm.image) == list(range(1, net.node_count + 1))
        mapped = {tuple(sorted((perm(i), perm(j)))) for i, j in net.edges}
        assert mapped == set(net.edges)


@pytest.mark.parametrize("g", range(1, 8))
def test_copies_of_the_generation_below_tile_the_network(pipe, g):
    # Each copy maps G-1's edges onto G's; the copies share nodes 1-4 and
    # their edges among them, and together they are all of G.
    net, below = pipe.net(g), pipe.net(g - 1)
    copies = copy_map(net)
    images = [{tuple(sorted((c[i - 1], c[j - 1]))) for i, j in below.edges} for c in copies]
    assert set().union(*images) == set(net.edges)
    assert all(len(image) == len(below.edges) for image in images)
    assert set().union(*copies) == set(range(1, net.node_count + 1))
    for c, d in ((0, 1), (0, 2), (1, 2)):
        assert set(copies[c]) & set(copies[d]) <= {1, 2, 3, 4}
    assert [c[:3] for c in copies] == [(1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_generation_0_has_no_copies(pipe):
    with pytest.raises(ValueError, match="generation 0"):
        copy_map(pipe.net(0))


@pytest.mark.parametrize("node", [0, 8, -1, True])
def test_permutation_rejects_nodes_outside_1_to_n(pipe, node):
    # At G=2 (N=7) an index of node - 1 would map 0 to the image of node 7.
    with pytest.raises(ValueError, match="node index"):
        corner_group(pipe.net(2))[1](node)


def test_corner_extension_is_homomorphism(pipe):
    net = pipe.net(3)

    def compose_corners(p, q):
        return tuple(p[q[i] - 1] for i in range(3))

    for p in CORNER_PERMUTATIONS:
        for q in CORNER_PERMUTATIONS:
            outer = corner_automorphism(net, p)
            inner = corner_automorphism(net, q)
            lifted = NodePermutation(tuple(outer(v) for v in inner.image))
            direct = corner_automorphism(net, compose_corners(p, q))
            assert lifted == direct


@pytest.mark.parametrize("g", [2, 3, 4])
def test_automorphisms_preserve_degree_and_distance(pipe, g):
    net = pipe.net(g)
    dist = distances(net)
    for sigma in corner_group(net):
        for v in range(1, net.node_count + 1):
            assert len(net.neighbors[sigma(v) - 1]) == len(net.neighbors[v - 1])
        image = np.array(sigma.image) - 1
        assert np.array_equal(dist[np.ix_(image, image)], dist)


def test_orbits_g3_fixed_center(pipe):
    net = pipe.net(3)
    part = orbits(net, fixed_source=4)
    assert sorted(len(c) for c in part.classes) == [1, 3, 3, 3, 6]
    classes = {frozenset(c) for c in part.classes}
    assert frozenset({4}) in classes
    assert frozenset({1, 2, 3}) in classes
    assert frozenset({5, 6, 7}) in classes
    assert frozenset({8, 11, 14}) in classes
    assert frozenset({9, 10, 12, 13, 15, 16}) in classes


def test_orbits_g2_fixed_center(pipe):
    net = pipe.net(2)
    part = orbits(net, fixed_source=4)
    assert {frozenset(c) for c in part.classes} == {
        frozenset({4}),
        frozenset({1, 2, 3}),
        frozenset({5, 6, 7}),
    }


@pytest.mark.parametrize("source, count, group", [
    (None, 187, "6 automorphisms"),
    (4, 187, "6 automorphisms fixing node 4"),
    (8, 552, "2 automorphisms fixing node 8"),
    (64, 1096, "1 automorphisms fixing node 64"),
])
def test_orbit_counts_g7(pipe, source, count, group):
    part = orbits(pipe.net(7), fixed_source=source)
    assert (len(part.classes), part.group_used) == (count, group)


@pytest.mark.parametrize("g", range(0, 6))
def test_orbits_are_stabilizer_images_for_every_source(pipe, g):
    net = pipe.net(g)
    nodes = list(range(1, net.node_count + 1))
    for j in nodes:
        stabilizer = [p for p in corner_group(net) if p(j) == j]
        classes = orbits(net, fixed_source=j).classes
        assert sorted(v for c in classes for v in c) == nodes
        for c in classes:
            assert c == tuple(sorted({p(c[0]) for p in stabilizer}))
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)


def test_orbit_partition_lookup(pipe):
    net = pipe.net(3)
    part = orbits(net, fixed_source=4)
    assert next(c for c in part.classes if 9 in c) == (9, 10, 12, 13, 15, 16)


def test_check_node(pipe):
    net = pipe.net(1)
    with pytest.raises(ValueError):
        check_node(0, net.node_count)
    with pytest.raises(ValueError):
        check_node(5, net.node_count)
    with pytest.raises(ValueError):
        check_node(1.5, net.node_count)
