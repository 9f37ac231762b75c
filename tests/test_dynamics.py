import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apwalks import dynamics
from apwalks.dynamics import (
    LimitingMatrix,
    TimeGrid,
    classical_probability,
    closed_form_g1,
    closed_form_g2,
    default_revival_window,
    evolve_series,
    finite_time_average,
    limiting_matrix,
    max_return_probability,
    quantum_probability,
    source_projections,
)
from apwalks.network import corner_group, generate_apollonian, laplacian, node_count_for_generation
from apwalks.spectral import (
    EigenspaceGrouping,
    NumericError,
    Spectrum,
    default_degeneracy_tolerance,
    eigendecompose,
    group_degenerate,
)
from apwalks.symmetry import cluster_equal_limits


def taylor_heat_column(h, j, t):
    """exp(-t h) e_j by direct series summation; independent of eigensolvers."""
    term = np.zeros(h.shape[0])
    term[j - 1] = 1.0
    total = term.copy()
    for order in range(1, 300):
        term = (-t / order) * (h @ term)
        total += term
        if np.abs(term).max() < 1e-17:
            break
    return total


def rotated_copy(s, grouping, seed):
    """A different valid eigenbasis: random orthogonal mix per degenerate group."""
    rng = np.random.default_rng(seed)
    q = s.eigenvectors.copy()
    for start, stop in grouping.groups:
        dim = stop - start
        gaussian = rng.normal(size=(dim, dim))
        ortho, _ = np.linalg.qr(gaussian)
        q[:, start:stop] = q[:, start:stop] @ ortho
    return Spectrum(eigenvalues=s.eigenvalues.copy(), eigenvectors=q)


def reference_limit_column(s, grouping, j):
    """chi e_j as sum over groups of (B_g B_g^T e_j)^2, one group at a time."""
    column = np.zeros(s.order)
    for start, stop in grouping.groups:
        block = s.eigenvectors[:, start:stop]
        column += (block @ block[j - 1]) ** 2
    return column


def reference_limit_matrix(s, grouping):
    return np.column_stack(
        [reference_limit_column(s, grouping, j) for j in range(1, s.order + 1)]
    )


def one_buffer_limit_matrix(s, grouping):
    """chi as one product of pair columns plus each large eigenspace squared whole."""
    v = s.eigenvectors
    small = [g for g in grouping.groups if g[1] - g[0] <= dynamics._PAIR_MAX_DIM]
    large = [g for g in grouping.groups if g[1] - g[0] > dynamics._PAIR_MAX_DIM]
    index = [(a, b) for start, stop in small
             for a in range(start, stop) for b in range(a, stop)]
    a, b = np.array(index, dtype=int).reshape(-1, 2).T
    pairs = v[:, a]
    pairs *= v[:, b]
    pairs[:, a != b] *= np.sqrt(2.0)
    chi = pairs @ pairs.T
    buffer = np.empty_like(chi)
    for start, stop in large:
        block = v[:, start:stop]
        np.matmul(block, block.T, out=buffer)
        buffer *= buffer
        chi += buffer
    return chi


# -- classical walk -----------------------------------------------------------

def test_classical_indicator_at_t0(pipe):
    row = classical_probability(pipe.projections(3, 5), 0.0)
    expected = np.zeros(16)
    expected[4] = 1.0
    assert np.abs(row - expected).max() <= 1e-12


def test_classical_k4_return_probability(pipe):
    # complete graph: p_jj(t) = 1/4 + (3/4) exp(-4t)
    for t in (0.0, 0.1, 0.5, 1.0, 3.0):
        for j in range(1, 5):
            expected = 0.25 + 0.75 * np.exp(-4.0 * t)
            assert abs(classical_probability(pipe.projections(1, j), t)[j - 1] - expected) <= 1e-12


def test_classical_equipartition_g3(pipe):
    row = classical_probability(pipe.projections(3, 4), 100.0)
    assert np.abs(row - 1.0 / 16.0).max() <= 1e-6


@pytest.mark.parametrize("g", range(0, 8))
def test_classical_walk_stays_stochastic_at_long_times(pipe, g):
    # The computed zero eigenvalue is a few 1e-15 off 0, so exp(-t E_0) taken
    # as computed drifts from 1 from t = 1e5 on; the rows' own sum check
    # would then raise.
    s = pipe.spectrum(g)
    rows = list(evolve_series(pipe.projections(g, 1), "classical",
                              TimeGrid(1e5, 1e12, 8, "logarithmic")))
    assert max(abs(row.sum() - 1.0) for row in rows) <= 1e-13
    assert np.abs(rows[-1] - 1.0 / s.order).max() <= 1e-15


def test_classical_rejects_negative_time(pipe):
    with pytest.raises(ValueError):
        classical_probability(pipe.projections(1, 1), -0.5)
    with pytest.raises(ValueError):
        classical_probability(pipe.projections(1, 1), float("nan"))


def test_classical_matches_series_oracle(pipe):
    for g in (0, 1, 2):
        h = laplacian(pipe.net(g))
        for j in range(1, h.shape[0] + 1):
            for t in (0.1, 0.5, 1.0):
                spectral = classical_probability(pipe.projections(g, j), t)
                assert np.abs(spectral - taylor_heat_column(h, j, t)).max() <= 1e-8


def test_classical_spectral_relaxation_bound(pipe, rng):
    # deviation from 1/N decays at least as fast as the spectral gap mode;
    # the small additive slack absorbs floating-point noise near zero
    for g in (1, 2, 3, 4):
        s = pipe.spectrum(g)
        n = s.order
        gap = s.eigenvalues[1]
        for t in rng.uniform(0.0, 50.0, size=5):
            j = int(rng.integers(1, n + 1))
            dev = np.abs(classical_probability(pipe.projections(g, j), float(t)) - 1.0 / n).max()
            assert dev <= np.exp(-gap * t) * np.sqrt(n) + 1e-13


# -- coherent walk ------------------------------------------------------------

def test_amplitude_at_t0(pipe):
    row = quantum_probability(pipe.projections(2, 3), 0.0)
    assert row[2] == pytest.approx(1.0, abs=1e-12)
    assert row[4] == pytest.approx(0.0, abs=1e-12)


def test_amplitude_squares_to_probability(pipe, rng):
    s = pipe.spectrum(3)
    for _ in range(5):
        j, k = (int(v) for v in rng.integers(1, 17, size=2))
        t = float(rng.uniform(0.0, 10.0))
        row = quantum_probability(pipe.projections(3, j), t)
        phases = np.exp(-1j * t * s.eigenvalues)
        amplitude = np.sum(phases * s.eigenvectors[j - 1, :] * s.eigenvectors[k - 1, :])
        assert abs(abs(amplitude) ** 2 - row[k - 1]) <= 1e-12


def test_quantum_indicator_at_t0(pipe):
    row = quantum_probability(pipe.projections(2, 6), 0.0)
    expected = np.zeros(7)
    expected[5] = 1.0
    assert np.abs(row - expected).max() <= 1e-12


def test_quantum_uniform_at_quarter_period_g1(pipe):
    # cos(4t) = -1 at t = pi/4 makes all four entries 1/4
    row = quantum_probability(pipe.projections(1, 2), np.pi / 4.0)
    assert np.abs(row - 0.25).max() <= 1e-12


def test_quantum_g2_values_at_pi_over_7(pipe):
    row = quantum_probability(pipe.projections(2, 4), np.pi / 7.0)
    assert row[3] == pytest.approx(25.0 / 49.0, abs=1e-12)
    for k in (1, 2, 3, 5, 6, 7):
        assert row[k - 1] == pytest.approx(4.0 / 49.0, abs=1e-12)


def test_closed_form_g1_values():
    assert closed_form_g1(2, 2, 0.0) == pytest.approx(1.0)
    assert closed_form_g1(2, 3, np.pi / 4.0) == pytest.approx(0.25)
    assert closed_form_g1(1, 1, np.pi / 2.0) == pytest.approx(1.0)  # revival at 2*pi/N


def test_closed_form_g2_values():
    assert closed_form_g2(4, 0.0) == pytest.approx(1.0)
    assert closed_form_g2(4, 2.0 * np.pi / 7.0) == pytest.approx(1.0)
    assert closed_form_g2(6, np.pi / 7.0) == pytest.approx(4.0 / 49.0)


def test_numerics_match_closed_form_g1(pipe):
    for t in np.linspace(0.0, 4.0 * np.pi, 1000):
        for j in range(1, 5):
            row = quantum_probability(pipe.projections(1, j), float(t))
            for k in range(1, 5):
                assert abs(row[k - 1] - closed_form_g1(j, k, float(t))) <= 1e-10


def test_numerics_match_closed_form_g2(pipe):
    for t in np.linspace(0.0, 4.0 * np.pi, 1000):
        row = quantum_probability(pipe.projections(2, 4), float(t))
        for k in range(1, 8):
            assert abs(row[k - 1] - closed_form_g2(k, float(t))) <= 1e-10


def test_quantum_rejects_bad_node(pipe):
    with pytest.raises(ValueError):
        quantum_probability(pipe.projections(1, 5), 1.0)
    with pytest.raises(ValueError):
        quantum_probability(pipe.projections(1, 0), 1.0)


# -- the distribution checks ----------------------------------------------------

def test_snapshot_rejects_bad_sum():
    with pytest.raises(NumericError,
                       match=r"^snapshot does not sum to 1 within 1e-10 at t=2.0: sum=1.2$"):
        dynamics._check_rows(np.array([1.0, 2.0]), np.array([[0.5, 0.5], [0.6, 0.6]]))


def test_snapshot_rejects_out_of_range_entry():
    with pytest.raises(NumericError, match=r"^snapshot entries escape \[0, 1\] beyond tolerance "
                                           r"at t=0.0 \(min -5.000e-01, max 1.500e\+00\)$"):
        dynamics._check_rows(np.array([0.0, 1.0]), np.array([[1.5, -0.5], [0.6, 0.6]]))


def test_snapshot_rejects_nan():
    with pytest.raises(NumericError, match="t=0.5"):
        dynamics._check_rows(np.array([0.5]), np.array([[1.0, np.nan]]))


def test_snapshot_values_read_only(pipe):
    series = evolve_series(pipe.projections(1, 1), "classical", TimeGrid(0.0, 1.0, 3))
    for row in (quantum_probability(pipe.projections(1, 1), 0.3), *series):
        with pytest.raises(ValueError):
            row[0] = 0.0


@pytest.mark.parametrize("node", [0, 8, -1, True])
def test_node_accessors_reject_nodes_outside_1_to_n(pipe, node):
    # At G=2 (N=7) an index of node - 1 would read node 7 for 0 and node 6 for -1.
    chi = pipe.chi(2)
    reads = (chi.column, lambda k: chi.value(k, 1), lambda j: chi.value(1, j),
             lambda j: pipe.projections(2, j))
    for read in reads:
        with pytest.raises(ValueError, match="node index"):
            read(node)


@pytest.mark.parametrize("g", range(0, 6))
def test_unitarity_and_stochasticity(pipe, rng, g):
    s = pipe.spectrum(g)
    n = s.order
    for _ in range(6):
        j = int(rng.integers(1, n + 1))
        t = float(rng.uniform(0.0, 50.0))
        p = pipe.projections(g, j)
        for row in (quantum_probability(p, t), classical_probability(p, t)):
            assert abs(float(row.sum()) - 1.0) <= 1e-10
            assert row.min() >= -1e-12


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_pair_symmetry(pipe, rng, g):
    s = pipe.spectrum(g)
    n = s.order
    for _ in range(8):
        j, k = (int(v) for v in rng.integers(1, n + 1, size=2))
        t = float(rng.uniform(0.0, 25.0))
        assert abs(
            quantum_probability(pipe.projections(g, j), t)[k - 1]
            - quantum_probability(pipe.projections(g, k), t)[j - 1]
        ) <= 1e-12
        assert abs(
            classical_probability(pipe.projections(g, j), t)[k - 1]
            - classical_probability(pipe.projections(g, k), t)[j - 1]
        ) <= 1e-12


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_automorphism_equivariance(pipe, rng, g):
    net = pipe.net(g)
    n = net.node_count
    for sigma in corner_group(net):
        j = int(rng.integers(1, n + 1))
        for t in (0.4, 3.7, 17.0):
            row = quantum_probability(pipe.projections(g, j), t)
            mapped = quantum_probability(pipe.projections(g, sigma(j)), t)
            for k in range(1, n + 1):
                assert abs(row[k - 1] - mapped[sigma(k) - 1]) <= 1e-10


# -- limiting probabilities -----------------------------------------------------

def test_limiting_g1(pipe):
    chi = pipe.chi(1)
    expected = np.full((4, 4), 1.0 / 8.0) + np.eye(4) * (5.0 / 8.0 - 1.0 / 8.0)
    assert np.abs(chi.entries - expected).max() <= 1e-12


def test_limiting_g2_central_column(pipe):
    chi = pipe.chi(2)
    assert chi.value(4, 4) == pytest.approx(37.0 / 49.0, abs=1e-12)
    for k in (1, 2, 3, 5, 6, 7):
        assert chi.value(k, 4) == pytest.approx(2.0 / 49.0, abs=1e-12)


@pytest.mark.parametrize("g", range(0, 6))
def test_limiting_column_sums_and_symmetry(pipe, g):
    chi = pipe.chi(g)
    assert np.abs(chi.entries.sum(axis=0) - 1.0).max() <= 1e-10
    assert np.abs(chi.entries - chi.entries.T).max() <= 1e-12
    assert chi.entries.min() >= 0.0


def test_limiting_argmax_is_source_g3(pipe):
    chi = pipe.chi(3)
    for j in range(1, 17):
        assert int(np.argmax(chi.column(j))) + 1 == j


def test_limiting_column_matches_matrix(pipe):
    s = pipe.spectrum(3)
    grouping = pipe.grouping(3)
    chi = pipe.chi(3)
    for j in (1, 4, 9):
        column = reference_limit_column(s, grouping, j)
        assert np.abs(column - chi.column(j)).max() <= 1e-14


def test_limiting_matrix_matches_reference_g5(pipe):
    s = pipe.spectrum(5)
    # eigh returns some degenerate eigenvalues bit-equal, so no tolerance
    # splits every group: build the one-mode grouping directly.
    singletons = EigenspaceGrouping(
        groups=tuple((n, n + 1) for n in range(s.order))
    )
    single_group = group_degenerate(s, 2.0 * float(s.eigenvalues[-1]))
    assert len(single_group.groups) == 1  # only the squared-projector buffer
    for grouping in (pipe.grouping(5), singletons, single_group):
        chi = limiting_matrix(s, grouping).entries
        assert np.abs(chi - reference_limit_matrix(s, grouping)).max() <= 1e-14
    chi = limiting_matrix(s, single_group).entries
    assert np.abs(chi - np.eye(s.order)).max() <= 1e-12


@pytest.mark.parametrize("g", [3, 4])
def test_limiting_matrix_clusters_match_reference(pipe, g):
    s, grouping = pipe.spectrum(g), pipe.grouping(g)
    chi = pipe.chi(g)
    for j in range(1, s.order + 1):
        reference = reference_limit_column(s, grouping, j)
        got = cluster_equal_limits(chi.column(j), j)
        assert got.clusters == cluster_equal_limits(reference, j).clusters


@pytest.mark.parametrize("g", range(0, 8))
def test_striped_limiting_matrix_equals_the_one_buffer_formula(pipe, g):
    s, grouping = pipe.spectrum(g), pipe.grouping(g)
    chi = limiting_matrix(s, grouping).entries
    assert chi.tobytes() == one_buffer_limit_matrix(s, grouping).tobytes()


@given(st.integers(0, 5), st.integers(1, 2**12), st.integers(0, 2**32 - 1))
def test_small_stripes_keep_chi_and_its_asymmetry(pipe, g, entries, seed):
    s, grouping = pipe.spectrum(g), pipe.grouping(g)
    noisy = np.random.default_rng(seed).normal(scale=1e-13, size=(s.order, s.order))
    with mock.patch.object(dynamics, "_STRIPE_ENTRIES", entries), \
            mock.patch.object(dynamics, "_CHECK_ENTRIES", entries):
        chi = limiting_matrix(s, grouping).entries
        noisy += chi
        asymmetry = [dynamics._asymmetry(m) for m in (chi, noisy)]
    reference = one_buffer_limit_matrix(s, grouping)
    assert np.abs(chi - reference).max() <= 4 * s.order * np.finfo(float).eps
    assert asymmetry == [np.abs(m - m.T).max() for m in (chi, noisy)]


def test_asymmetry_in_the_last_stripe_is_caught(pipe, monkeypatch):
    entries = pipe.chi(3).entries.copy()  # N = 16
    entries[-1, -2] += 1e-9
    monkeypatch.setattr(dynamics, "_CHECK_ENTRIES", 2 * 16)
    assert [r.start for r in dynamics._stripes(16, 16, dynamics._CHECK_ENTRIES)][-1] == 14
    with pytest.raises(NumericError, match="not symmetric"):
        LimitingMatrix(entries=entries)


def test_limiting_rejects_mismatched_grouping(pipe):
    with pytest.raises(ValueError):
        limiting_matrix(pipe.spectrum(2), pipe.grouping(3))
    with pytest.raises(ValueError):
        limiting_matrix(pipe.spectrum(3), pipe.grouping(2))


def test_limiting_matrix_type_rejects_bad_entries():
    with pytest.raises(NumericError, match="not symmetric"):
        LimitingMatrix(entries=np.array([[0.5, 0.1], [0.5, 0.8]]))
    with pytest.raises(NumericError, match="non-finite"):
        LimitingMatrix(entries=np.array([[0.5, 0.5], [0.5, np.nan]]))
    with pytest.raises(NumericError, match="non-finite"):
        LimitingMatrix(entries=np.array([[np.inf, 0.5], [0.5, 0.5]]))


# -- time grids and series -------------------------------------------------------

def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(start=-1.0, end=1.0, steps=10)
    with pytest.raises(ValueError):
        TimeGrid(start=0.0, end=1.0, steps=0)
    with pytest.raises(ValueError):
        TimeGrid(start=2.0, end=1.0, steps=10)
    with pytest.raises(ValueError):
        TimeGrid(start=0.0, end=1.0, steps=10, spacing="logarithmic")
    with pytest.raises(ValueError):
        TimeGrid(start=0.0, end=1.0, steps=10, spacing="geometric")
    with pytest.raises(ValueError):
        TimeGrid(start=0.01, end=float("inf"), steps=5)
    with pytest.raises(ValueError):
        TimeGrid(start=float("nan"), end=100.0, steps=1)


def test_time_grid_spacings():
    lin = TimeGrid(start=0.0, end=1.0, steps=11).times()
    assert np.allclose(lin, np.linspace(0.0, 1.0, 11))
    log = TimeGrid(start=0.01, end=100.0, steps=5, spacing="logarithmic").times()
    assert np.all(np.diff(log) > 0)
    assert log[0] == pytest.approx(0.01)
    assert log[-1] == pytest.approx(100.0)


def test_logarithmic_grids_are_geomspace_bit_for_bit():
    rng = np.random.default_rng(30)
    starts, spans = 10.0 ** rng.uniform(-8, 8, 300), 10.0 ** rng.uniform(-6, 8, 300)
    grids = [(0.01, 100.0, 2), (0.01, 100.0, 2000), (0.01, 100.0, 2_000_000),
             (1e-300, 1e300, 1001), (1e3, 1e300, 50), (1.0, 1.0 + 2**-52, 3), (5e-324, 1e-300, 17),
             *zip(starts, starts * (1 + spans), rng.integers(2, 5000, 300).tolist())]
    for start, end, steps in grids:
        times = TimeGrid(start, end, steps, "logarithmic").times()
        assert times.tobytes() == np.geomspace(start, end, steps).tobytes(), (start, end, steps)


@pytest.mark.parametrize("spacing", ["linear", "logarithmic"])
def test_one_point_grid_is_its_start(spacing):
    assert TimeGrid(5.0, 1.0, 1, spacing).times().tolist() == [5.0]


def test_single_point_grid(pipe):
    grid = TimeGrid(start=0.0, end=0.0, steps=1)
    series = evolve_series(pipe.projections(2, 4), "quantum", grid)
    assert len(series) == 1
    (row,) = series
    assert row[3] == pytest.approx(1.0, abs=1e-12)


def test_series_matches_closed_form_g1(pipe):
    grid = TimeGrid(start=0.0, end=4.0 * np.pi, steps=200)
    series = evolve_series(pipe.projections(1, 2), "quantum", grid)
    for t, row in zip(series.times, series, strict=True):
        for k in range(1, 5):
            assert abs(row[k - 1] - closed_form_g1(2, k, t)) <= 1e-10


def test_series_classical_ends_uniform_g3(pipe):
    grid = TimeGrid(start=0.01, end=100.0, steps=50, spacing="logarithmic")
    *_, last = evolve_series(pipe.projections(3, 4), "classical", grid)
    assert np.abs(last - 1.0 / 16.0).max() <= 1e-6


@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_series_matches_per_time_reference_across_blocks(pipe, kind):
    s = pipe.spectrum(4)
    rows = dynamics._BLOCK_ENTRIES // s.order
    grid = TimeGrid(start=0.0, end=30.0, steps=rows + rows // 2)
    series = evolve_series(pipe.projections(4, 7), kind, grid)
    assert len(series) > rows
    q, e = s.eigenvectors, s.eigenvalues
    w = q[6, :]
    worst = 0.0
    values = list(series)
    # every time around the block boundary, and a stride through the rest
    for i in [*range(rows - 100, rows + 100), *range(0, len(series), 250)]:
        t = series.times[i]
        if kind == "classical":
            expected = q @ (np.exp(-t * e) * w)
        else:
            expected = np.abs(q @ (np.exp(-1j * t * e) * w)) ** 2
        worst = max(worst, float(np.abs(values[i] - expected).max()))
    assert worst <= 1e-13


def test_series_rejects_nan_values():
    broken = Spectrum(eigenvalues=np.array([0.0, np.nan]),
                      eigenvectors=np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    p = source_projections(broken, EigenspaceGrouping(groups=((0, 1), (1, 2))), 1)
    for kind in ("classical", "quantum"):
        series = evolve_series(p, kind, TimeGrid(0.5, 1.0, 3))
        with pytest.raises(NumericError, match="t=0.5"):
            list(series)


def test_series_rejects_unknown_kind(pipe):
    # Refused when called, before any row is read or any output opened.
    with pytest.raises(ValueError, match="kind"):
        evolve_series(pipe.projections(1, 1), "ballistic", TimeGrid(0.0, 1.0, 3))
    with pytest.raises(ValueError, match="node index"):
        source_projections(pipe.spectrum(1), pipe.grouping(1), 5)


# -- revivals ---------------------------------------------------------------------

def test_perfect_revivals_g1_g2(pipe):
    for n_cycle in range(1, 6):
        for j in range(1, 5):
            t = 2.0 * np.pi * n_cycle / 4.0
            assert quantum_probability(pipe.projections(1, j), t)[j - 1] >= 1.0 - 1e-9
        t = 2.0 * np.pi * n_cycle / 7.0
        assert quantum_probability(pipe.projections(2, 4), t)[3] >= 1.0 - 1e-9


def test_max_return_probability_g1(pipe):
    window = TimeGrid(start=0.5, end=3.0, steps=100_001)
    t_star, p_star = max_return_probability(pipe.projections(1, 3), window)
    assert p_star >= 1.0 - 1e-8
    assert abs(t_star - np.pi / 2.0) <= 2.5e-5


def test_max_return_probability_g2(pipe):
    window = TimeGrid(start=0.5, end=1.5, steps=100_001)
    t_star, p_star = max_return_probability(pipe.projections(2, 4), window)
    assert p_star >= 1.0 - 1e-8
    assert abs(t_star - 2.0 * np.pi / 7.0) <= 1e-5


def test_partial_revival_g3(pipe):
    t_star, p_star = max_return_probability(pipe.projections(3, 4), default_revival_window())
    assert p_star < 1.0 - 1e-6
    # regression baseline observed on the default 1e5-point window
    assert p_star == pytest.approx(0.9987483113182943, abs=1e-6)
    assert t_star == pytest.approx(81.07030470304703, abs=1e-2)


def test_revival_window_must_exclude_zero(pipe):
    with pytest.raises(ValueError):
        max_return_probability(pipe.projections(1, 1), TimeGrid(0.0, 10.0, 100))


def test_revival_rejects_bad_source(pipe):
    with pytest.raises(ValueError, match="node index"):
        max_return_probability(pipe.projections(1, 0), TimeGrid(0.5, 3.0, 100))


@pytest.mark.parametrize("j", [4, 17, 43])
def test_max_return_probability_matches_reference_across_blocks(pipe, j):
    s = pipe.spectrum(4)
    # The scan's blocks are as wide as the eigenspaces that reach j.
    rows = dynamics._BLOCK_ENTRIES // pipe.projections(4, j).weights.shape[1]
    window = TimeGrid(0.05, 60.0, rows + rows // 2)
    times = window.times()
    w2 = s.eigenvectors[j - 1, :] ** 2
    reference = np.abs(np.exp(-1j * np.outer(times, s.eigenvalues)) @ w2) ** 2
    i = int(np.argmax(reference))
    t_star, p_star = max_return_probability(pipe.projections(4, j), window)
    assert t_star == times[i]
    assert abs(p_star - reference[i]) <= 1e-13


# -- eigenspaces that reach the source --------------------------------------------

EPS = np.finfo(float).eps


def phase_spread(s, grouping):
    """The largest distance of an eigenvalue from its eigenspace's value: the mean, 0 for the ground."""
    e = s.eigenvalues
    return max(float(np.abs(e[a:b] - (e[a:b].mean() if a else 0.0)).max())
               for a, b in grouping.groups)


def eigenspace_values(s, grouping):
    """Each mode's eigenspace value: the mean eigenvalue of its group, 0 for the ground."""
    means = [s.eigenvalues[a:b].mean() for a, b in grouping.groups[1:]]
    return np.repeat([0.0, *means], grouping.sizes)


def mode_sum_rows(s, j, times, kind, eigenvalues=None):
    """Rows from node j summed over every eigenpair, 200 times at a time: no grouping, no W_j."""
    v = s.eigenvectors
    e = s.eigenvalues if eigenvalues is None else eigenvalues
    rows = []
    for lo in range(0, len(times), 200):
        arg = np.outer(times[lo:lo + 200], e)
        if kind == "classical":
            rows.append((np.exp(-arg) * v[j - 1]) @ v.T)
        else:
            rows.append(np.abs((np.exp(-1j * arg) * v[j - 1]) @ v.T) ** 2)
    return np.vstack(rows)


def phase_bound(t, spread, n):
    """The module docstring's bound on an entry's distance from the sum over modes, with
    ``verify.check_unitarity_stochasticity``'s 16 N eps for rounding."""
    return 2.0 * t * spread + (t * spread) ** 2 + 16.0 * n * EPS


@st.composite
def sources(draw, max_generation):
    g = draw(st.integers(0, max_generation))
    return g, draw(st.integers(1, node_count_for_generation(g)))


def kept_groups(pipe, g, p):
    """Indices of the eigenspaces ``p`` keeps, found by their values: each lies between its gaps."""
    e, grouping = pipe.spectrum(g).eigenvalues, pipe.grouping(g)
    edges = [(e[stop - 1] + e[stop]) / 2.0 for _, stop in grouping.groups[:-1]]
    return np.searchsorted(edges, p.theta)


@given(sources(max_generation=5))
def test_source_projections_drop_at_most_the_weight_floor(pipe, source):
    g, j = source
    s, grouping, p = pipe.spectrum(g), pipe.grouping(g), pipe.projections(g, j)
    kept = kept_groups(pipe, g, p)
    assert np.all(np.diff(kept) > 0)
    row = s.eigenvectors[j - 1]
    reach = np.array([row[a:b] @ row[a:b] for a, b in grouping.groups])
    assert np.delete(reach, kept).sum() <= (s.order * EPS) ** 2
    # Only the smallest weights are dropped.
    assert np.delete(reach, kept).max(initial=0.0) <= reach[kept].min()
    # Column g is P_g e_j, and row j its weight ||P_g e_j||^2.
    for column, index in enumerate(kept):
        block = s.eigenvectors[:, slice(*grouping.groups[index])]
        assert np.abs(p.weights[:, column] - block @ block[j - 1]).max() <= s.order * EPS
    assert np.abs(p.weights[j - 1] - reach[kept]).max() <= s.order * EPS


@pytest.mark.parametrize("g, kept", [(3, 5), (7, 65)])
def test_central_node_reaches_few_modes(pipe, g, kept):
    # 2**(G-1) + 1 eigenspaces, each of one mode, reach the central node.
    assert pipe.projections(g, 4).weights.shape[1] == kept


@given(sources(max_generation=5), st.floats(0.0, 100.0))
def test_rows_equal_the_sums_over_modes(pipe, source, t):
    g, j = source
    s, p = pipe.spectrum(g), pipe.projections(g, j)
    bound = phase_bound(t, phase_spread(s, pipe.grouping(g)), s.order)
    for kind, propagate in (("quantum", quantum_probability), ("classical", classical_probability)):
        reference = mode_sum_rows(s, j, np.array([t]), kind)[0]
        assert np.abs(propagate(p, t) - reference).max() <= bound


@pytest.mark.parametrize("g", range(0, 6))
def test_revival_column_is_the_diagonal_of_the_full_rows(pipe, g):
    times = TimeGrid(0.05, 100.0, 500).times()
    for j in range(1, node_count_for_generation(g) + 1, 7):
        p = pipe.projections(g, j)
        full = dynamics._propagate(p.theta, p.weights, times, "quantum")[:, j - 1]
        column = dynamics._propagate(p.theta, p.weights[j - 1 : j], times, "quantum")[:, 0]
        assert np.abs(column - full).max() <= 4 * EPS, (g, j)


@pytest.mark.parametrize("g, j", [(6, 4), (6, 64), (6, 77), (7, 4), (7, 64), (7, 77)])
def test_series_at_g6_and_g7_match_the_sums_over_modes(pipe, g, j):
    # Against every mode at its eigenspace's value within 1e-13; against the
    # eigenvalues as computed within the phase bound on top (module docstring).
    s, grouping = pipe.spectrum(g), pipe.grouping(g)
    grid = TimeGrid(0.01, 100.0, 2000, "logarithmic")
    values, spread = eigenspace_values(s, grouping), phase_spread(s, grouping)
    for kind in ("quantum", "classical"):
        series = evolve_series(pipe.projections(g, j), kind, grid)
        rows = np.vstack(list(series))
        assert np.abs(rows - mode_sum_rows(s, j, series.times, kind, values)).max() <= 1e-13
        deviation = np.abs(rows - mode_sum_rows(s, j, series.times, kind)).max(axis=1)
        assert np.all(deviation <= 1e-13 + 2.0 * series.times * spread)


def test_series_holds_no_spectrum():
    s = eigendecompose(laplacian(generate_apollonian(3)))
    grouping = group_degenerate(s, default_degeneracy_tolerance(s))
    series = evolve_series(source_projections(s, grouping, 4), "quantum", TimeGrid(0.01, 1.0, 5))
    gone = weakref.ref(s), weakref.ref(s.eigenvectors)
    del s, grouping
    assert [ref() for ref in gone] == [None, None]
    assert len(list(series)) == 5


def _sampled_sources():
    """Every source at G <= 4; the center, a corner, the last node and two more at G = 5-6."""
    cases = [(g, j) for g in range(5) for j in range(1, node_count_for_generation(g) + 1)]
    for g in (5, 6):
        n = node_count_for_generation(g)
        cases += [(g, j) for j in (1, 4, 5, n // 2, n)]
    return cases


SOURCES = _sampled_sources()


# The two restricted sums against every mode, each mode at its eigenspace's
# value: they differ by the dropped eigenspaces and rounding alone.
def test_restricted_revival_scan_matches_every_mode_scan(pipe):
    window = TimeGrid(0.05, 200.0, 4000)
    times = window.times()
    for g, j in SOURCES:
        s = pipe.spectrum(g)
        w2 = s.eigenvectors[j - 1] ** 2
        values = eigenspace_values(s, pipe.grouping(g))
        reference = np.abs(np.exp(-1j * np.outer(times, values)) @ w2) ** 2
        i = int(np.argmax(reference))
        t_star, p_star = max_return_probability(pipe.projections(g, j), window)
        assert t_star == times[i], (g, j)
        assert abs(p_star - reference[i]) <= 4 * s.order * EPS, (g, j)


def test_restricted_time_average_matches_every_mode_average(pipe):
    for g, j in SOURCES:
        s, p = pipe.spectrum(g), pipe.projections(g, j)
        # The trapezoid on the grid the function derives from the horizon and
        # the eigenspace values.
        fastest = float(p.theta[-1] - p.theta[0])
        samples = max(1000, int(40.0 * max(fastest, 1.0) * 4))
        times = np.linspace(0.0, 40.0, samples)
        weights = np.ones(samples)
        weights[[0, -1]] = 0.5
        values = eigenspace_values(s, pipe.grouping(g))
        reference = weights @ mode_sum_rows(s, j, times, "quantum", values) / (samples - 1)
        average = finite_time_average(p, 40.0)
        assert np.abs(average - reference).max() <= 4 * s.order * EPS, (g, j)


def test_revival_scan_at_g7_keeps_its_maximum(pipe):
    t_star, p_star = max_return_probability(pipe.projections(7, 4), default_revival_window())
    assert t_star == pytest.approx(0.1959529595295953, abs=1e-12)
    assert p_star == pytest.approx(0.9976519358432645, abs=1e-12)


# -- long-time consistency ---------------------------------------------------------

@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_finite_time_average_converges_to_limit(pipe, g):
    chi = pipe.chi(g)
    j = 4 if g >= 1 else 2
    avg = finite_time_average(pipe.projections(g, j), 2000.0)
    assert np.abs(avg - chi.column(j)).max() <= 0.01


def test_finite_time_average_validation(pipe):
    with pytest.raises(ValueError):
        finite_time_average(pipe.projections(1, 1), 0.0)


@pytest.mark.parametrize("horizon", [np.inf, np.nan])
def test_finite_time_average_rejects_non_finite_horizon(pipe, horizon):
    with pytest.raises(ValueError, match="finite"):
        finite_time_average(pipe.projections(1, 1), horizon)


def test_eigenbasis_rotation_invariance(pipe):
    # quantities must not depend on the basis chosen inside degenerate spaces
    for g in (1, 2, 3):
        s = pipe.spectrum(g)
        grouping = pipe.grouping(g)
        alt = rotated_copy(s, grouping, seed=1000 + g)
        n = s.order
        chi = limiting_matrix(s, grouping).entries
        chi_alt = limiting_matrix(alt, grouping).entries
        assert np.abs(chi - chi_alt).max() <= 1e-10
        for t in (0.7, 5.3):
            for j in (1, n):
                p, p_alt = pipe.projections(g, j), source_projections(alt, grouping, j)
                a = quantum_probability(p, t)
                b = quantum_probability(p_alt, t)
                assert np.abs(a - b).max() <= 1e-10
                c = classical_probability(p, t)
                d = classical_probability(p_alt, t)
                assert np.abs(c - d).max() <= 1e-10
