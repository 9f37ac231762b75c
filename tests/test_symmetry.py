import numpy as np
import pytest

from apwalks.network import corner_group, orbits
from apwalks.symmetry import cluster_equal_limits, orbit_consistency


def test_uniform_column_single_cluster():
    column = np.full(16, 1.0 / 16.0)
    clustering = cluster_equal_limits(column, 1e-9, source=1)
    assert clustering.sizes == (16,)
    assert clustering.values[0] == pytest.approx(1.0 / 16.0)


def test_cluster_rejects_bad_tolerance():
    column = np.full(16, 1.0 / 16.0)
    with pytest.raises(ValueError):
        cluster_equal_limits(column, 0.0)


def test_cluster_rejects_non_distribution():
    with pytest.raises(ValueError):
        cluster_equal_limits(np.array([0.5, 0.4]), 1e-9)


@pytest.mark.parametrize("column, tol", [
    (np.full(16, 1.0 / 16.0), np.inf),
    (np.full(16, 1.0 / 16.0), np.nan),
    (np.array([0.5, np.nan, 0.5]), 1e-9),
    (np.array([0.5, np.inf, 0.5]), 1e-9),
])
def test_cluster_rejects_non_finite_input(column, tol):
    with pytest.raises(ValueError):
        cluster_equal_limits(column, tol)


def test_g3_central_source_clusters(pipe):
    clustering = cluster_equal_limits(pipe.chi(3).column(4), 1e-9, source=4)
    assert sorted(clustering.sizes) == [1, 3, 3, 3, 6]
    # cluster values ascend and the largest belongs to the source itself
    assert list(clustering.values) == sorted(clustering.values)
    assert clustering.clusters[-1] == (4,)
    assert clustering.values[-1] == pytest.approx(0.8203739780288831, abs=1e-9)


def test_g3_clusters_match_orbits(pipe):
    net = pipe.net(3)
    clustering = cluster_equal_limits(pipe.chi(3).column(4), 1e-9, source=4)
    partition = orbits(net, corner_group(net), fixed_source=4)
    assert {frozenset(c) for c in clustering.clusters} == {
        frozenset(c) for c in partition.classes
    }
    report = orbit_consistency(clustering, partition)
    assert report.all_orbits_explained
    assert report.unexplained_pairs == ()


def test_g2_central_source_consistency(pipe):
    # every off-center value equals 2/49 exactly, so the corner orbit and the
    # inserted-node orbit share one cluster: a real equality the corner group
    # does not imply, and the report must say so
    net = pipe.net(2)
    clustering = cluster_equal_limits(pipe.chi(2).column(4), 1e-9, source=4)
    partition = orbits(net, corner_group(net), fixed_source=4)
    report = orbit_consistency(clustering, partition)
    assert report.all_orbits_explained
    assert report.unexplained_pairs == tuple(
        (k, l) for k in (1, 2, 3) for l in (5, 6, 7)
    )


def test_g3_offcenter_source_has_unexplained_pair(pipe):
    # source 9 sits in triangle (1, 4, 5); only the identity fixes it, yet
    # nodes 13 and 15 carry exactly equal limiting probability
    net = pipe.net(3)
    column = pipe.chi(3).column(9)
    clustering = cluster_equal_limits(column, 1e-9, source=9)
    partition = orbits(net, corner_group(net), fixed_source=9)
    assert partition.sizes == (1,) * 16
    report = orbit_consistency(clustering, partition)
    assert (13, 15) in report.unexplained_pairs
    assert abs(column[12] - column[14]) <= 1e-9
    gen3 = set(net.nodes_of_generation(3))
    assert any(k in gen3 and l in gen3 for k, l in report.unexplained_pairs)


def test_g4_offcenter_source_has_unexplained_pairs(pipe):
    net = pipe.net(4)
    column = pipe.chi(4).column(9)
    clustering = cluster_equal_limits(column, 1e-9, source=9)
    partition = orbits(net, corner_group(net), fixed_source=9)
    report = orbit_consistency(clustering, partition)
    assert len(report.unexplained_pairs) >= 1
    for k, l in report.unexplained_pairs:
        assert abs(column[k - 1] - column[l - 1]) <= 1e-9


def test_orbit_consistency_rejects_universe_mismatch(pipe):
    clustering = cluster_equal_limits(pipe.chi(2).column(4), 1e-9, source=4)
    net3 = pipe.net(3)
    partition = orbits(net3, corner_group(net3), fixed_source=4)
    with pytest.raises(ValueError):
        orbit_consistency(clustering, partition)


def test_clustering_invariant_under_source_fixing_automorphisms(pipe):
    # relabeling by any automorphism fixing the source must keep the size multiset
    net = pipe.net(3)
    chi = pipe.chi(3)
    base = cluster_equal_limits(chi.column(4), 1e-9, source=4)
    for sigma in corner_group(net):
        if sigma(4) != 4:
            continue
        permuted = np.empty(16)
        for k in range(1, 17):
            permuted[sigma(k) - 1] = chi.column(4)[k - 1]
        relabeled = cluster_equal_limits(permuted, 1e-9, source=4)
        assert sorted(relabeled.sizes) == sorted(base.sizes)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_localization_exceeds_equipartition(pipe, g):
    chi = pipe.chi(g)
    n = chi.order
    for j in range(1, n + 1):
        assert chi.column(j)[j - 1] > 1.0 / n
        assert chi.column(j)[j - 1] * n > 1.0


def test_localization_summary_g1(pipe):
    chi = pipe.chi(1)
    for j in range(1, chi.order + 1):
        assert chi.column(j)[j - 1] * chi.order == pytest.approx(2.5, abs=1e-12)


def test_localization_summary_g2_center(pipe):
    assert pipe.chi(2).column(4)[3] == pytest.approx(37.0 / 49.0, abs=1e-12)


@pytest.mark.parametrize("g", [3, 4])
def test_localization_argmax_is_source(pipe, g):
    chi = pipe.chi(g)
    for j in range(1, chi.order + 1):
        assert int(np.argmax(chi.column(j))) + 1 == j


def test_cluster_lookup(pipe):
    clustering = cluster_equal_limits(pipe.chi(3).column(4), 1e-9, source=4)
    assert [c for c in clustering.clusters if 4 in c] == [(4,)]
    assert not any(77 in c for c in clustering.clusters)
