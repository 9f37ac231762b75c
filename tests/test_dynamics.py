import numpy as np
import pytest

from apwalks import dynamics
from apwalks.dynamics import (
    LimitingMatrix,
    TimeGrid,
    TransitionSnapshot,
    classical_probability,
    closed_form_g1,
    closed_form_g2,
    default_revival_window,
    evolve_series,
    finite_time_average,
    limiting_matrix,
    limiting_probability,
    max_return_probability,
    quantum_probability,
)
from apwalks.network import corner_group, laplacian
from apwalks.spectral import NumericError, Spectrum, group_degenerate


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


# -- classical walk -----------------------------------------------------------

def test_classical_indicator_at_t0(pipe):
    snap = classical_probability(pipe.spectrum(3), 5, 0.0)
    expected = np.zeros(16)
    expected[4] = 1.0
    assert np.abs(snap.values - expected).max() <= 1e-12


def test_classical_k4_return_probability(pipe):
    # complete graph: p_jj(t) = 1/4 + (3/4) exp(-4t)
    s = pipe.spectrum(1)
    for t in (0.0, 0.1, 0.5, 1.0, 3.0):
        for j in range(1, 5):
            expected = 0.25 + 0.75 * np.exp(-4.0 * t)
            assert abs(classical_probability(s, j, t).value_at(j) - expected) <= 1e-12


def test_classical_equipartition_g3(pipe):
    snap = classical_probability(pipe.spectrum(3), 4, 100.0)
    assert np.abs(snap.values - 1.0 / 16.0).max() <= 1e-6


def test_classical_rejects_negative_time(pipe):
    with pytest.raises(ValueError):
        classical_probability(pipe.spectrum(1), 1, -0.5)
    with pytest.raises(ValueError):
        classical_probability(pipe.spectrum(1), 1, float("nan"))


def test_classical_matches_series_oracle(pipe):
    for g in (0, 1, 2):
        h = laplacian(pipe.net(g))
        s = pipe.spectrum(g)
        for j in range(1, h.shape[0] + 1):
            for t in (0.1, 0.5, 1.0):
                spectral = classical_probability(s, j, t).values
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
            dev = np.abs(classical_probability(s, j, float(t)).values - 1.0 / n).max()
            assert dev <= np.exp(-gap * t) * np.sqrt(n) + 1e-13


# -- coherent walk ------------------------------------------------------------

def test_amplitude_at_t0(pipe):
    s = pipe.spectrum(2)
    snap = quantum_probability(s, 3, 0.0)
    assert snap.value_at(3) == pytest.approx(1.0, abs=1e-12)
    assert snap.value_at(5) == pytest.approx(0.0, abs=1e-12)


def test_amplitude_squares_to_probability(pipe, rng):
    s = pipe.spectrum(3)
    for _ in range(5):
        j, k = (int(v) for v in rng.integers(1, 17, size=2))
        t = float(rng.uniform(0.0, 10.0))
        snap = quantum_probability(s, j, t)
        phases = np.exp(-1j * t * s.eigenvalues)
        amplitude = np.sum(phases * s.eigenvectors[j - 1, :] * s.eigenvectors[k - 1, :])
        assert abs(abs(amplitude) ** 2 - snap.value_at(k)) <= 1e-12


def test_quantum_indicator_at_t0(pipe):
    snap = quantum_probability(pipe.spectrum(2), 6, 0.0)
    expected = np.zeros(7)
    expected[5] = 1.0
    assert np.abs(snap.values - expected).max() <= 1e-12


def test_quantum_uniform_at_quarter_period_g1(pipe):
    # cos(4t) = -1 at t = pi/4 makes all four entries 1/4
    snap = quantum_probability(pipe.spectrum(1), 2, np.pi / 4.0)
    assert np.abs(snap.values - 0.25).max() <= 1e-12


def test_quantum_g2_values_at_pi_over_7(pipe):
    snap = quantum_probability(pipe.spectrum(2), 4, np.pi / 7.0)
    assert snap.value_at(4) == pytest.approx(25.0 / 49.0, abs=1e-12)
    for k in (1, 2, 3, 5, 6, 7):
        assert snap.value_at(k) == pytest.approx(4.0 / 49.0, abs=1e-12)


def test_closed_form_g1_values():
    assert closed_form_g1(2, 2, 0.0) == pytest.approx(1.0)
    assert closed_form_g1(2, 3, np.pi / 4.0) == pytest.approx(0.25)
    assert closed_form_g1(1, 1, np.pi / 2.0) == pytest.approx(1.0)  # revival at 2*pi/N


def test_closed_form_g2_values():
    assert closed_form_g2(4, 0.0) == pytest.approx(1.0)
    assert closed_form_g2(4, 2.0 * np.pi / 7.0) == pytest.approx(1.0)
    assert closed_form_g2(6, np.pi / 7.0) == pytest.approx(4.0 / 49.0)


def test_numerics_match_closed_form_g1(pipe):
    s = pipe.spectrum(1)
    for t in np.linspace(0.0, 4.0 * np.pi, 1000):
        for j in range(1, 5):
            snap = quantum_probability(s, j, float(t))
            for k in range(1, 5):
                assert abs(snap.value_at(k) - closed_form_g1(j, k, float(t))) <= 1e-10


def test_numerics_match_closed_form_g2(pipe):
    s = pipe.spectrum(2)
    for t in np.linspace(0.0, 4.0 * np.pi, 1000):
        snap = quantum_probability(s, 4, float(t))
        for k in range(1, 8):
            assert abs(snap.value_at(k) - closed_form_g2(k, float(t))) <= 1e-10


def test_quantum_rejects_bad_node(pipe):
    with pytest.raises(ValueError):
        quantum_probability(pipe.spectrum(1), 5, 1.0)
    with pytest.raises(ValueError):
        quantum_probability(pipe.spectrum(1), 0, 1.0)


# -- snapshots as values --------------------------------------------------------

def test_snapshot_rejects_bad_sum():
    with pytest.raises(NumericError):
        TransitionSnapshot(source=1, time=0.0, kind="quantum",
                           values=np.array([0.6, 0.6]))


def test_snapshot_rejects_out_of_range_entry():
    with pytest.raises(NumericError):
        TransitionSnapshot(source=1, time=0.0, kind="quantum",
                           values=np.array([1.5, -0.5]))


def test_snapshot_rejects_nan():
    with pytest.raises(NumericError, match="t=0.5"):
        TransitionSnapshot(source=1, time=0.5, kind="quantum",
                           values=np.array([1.0, np.nan]))


def test_snapshot_values_read_only(pipe):
    snap = quantum_probability(pipe.spectrum(1), 1, 0.3)
    with pytest.raises(ValueError):
        snap.values[0] = 0.0


@pytest.mark.parametrize("g", range(0, 6))
def test_unitarity_and_stochasticity(pipe, rng, g):
    s = pipe.spectrum(g)
    n = s.order
    for _ in range(6):
        j = int(rng.integers(1, n + 1))
        t = float(rng.uniform(0.0, 50.0))
        for snap in (quantum_probability(s, j, t), classical_probability(s, j, t)):
            assert abs(float(snap.values.sum()) - 1.0) <= 1e-10
            assert snap.values.min() >= -1e-12


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_pair_symmetry(pipe, rng, g):
    s = pipe.spectrum(g)
    n = s.order
    for _ in range(8):
        j, k = (int(v) for v in rng.integers(1, n + 1, size=2))
        t = float(rng.uniform(0.0, 25.0))
        assert abs(
            quantum_probability(s, j, t).value_at(k)
            - quantum_probability(s, k, t).value_at(j)
        ) <= 1e-12
        assert abs(
            classical_probability(s, j, t).value_at(k)
            - classical_probability(s, k, t).value_at(j)
        ) <= 1e-12


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_automorphism_equivariance(pipe, rng, g):
    net = pipe.net(g)
    s = pipe.spectrum(g)
    n = net.node_count
    for sigma in corner_group(net):
        j = int(rng.integers(1, n + 1))
        for t in (0.4, 3.7, 17.0):
            snap = quantum_probability(s, j, t)
            mapped = quantum_probability(s, sigma(j), t)
            for k in range(1, n + 1):
                assert abs(snap.value_at(k) - mapped.value_at(sigma(k))) <= 1e-10


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
        column = limiting_probability(s, grouping, j)
        assert np.abs(column - chi.column(j)).max() <= 1e-14


def test_limiting_rejects_mismatched_grouping(pipe):
    with pytest.raises(ValueError):
        limiting_probability(pipe.spectrum(3), pipe.grouping(2), 1)
    with pytest.raises(ValueError):
        limiting_matrix(pipe.spectrum(2), pipe.grouping(3))


def test_limiting_matrix_type_rejects_bad_entries():
    with pytest.raises(NumericError):
        LimitingMatrix(entries=np.array([[0.5, 0.1], [0.5, 0.8]]))
    with pytest.raises(NumericError):
        LimitingMatrix(entries=np.array([[0.5, 0.5], [0.5, np.nan]]))


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


def test_single_point_grid(pipe):
    grid = TimeGrid(start=0.0, end=0.0, steps=1)
    series = evolve_series(pipe.spectrum(2), 4, "quantum", grid)
    assert len(series) == 1
    assert series[0].value_at(4) == pytest.approx(1.0, abs=1e-12)


def test_series_matches_closed_form_g1(pipe):
    grid = TimeGrid(start=0.0, end=4.0 * np.pi, steps=200)
    series = evolve_series(pipe.spectrum(1), 2, "quantum", grid)
    for snap in series:
        for k in range(1, 5):
            assert abs(snap.value_at(k) - closed_form_g1(2, k, snap.time)) <= 1e-10


def test_series_classical_ends_uniform_g3(pipe):
    grid = TimeGrid(start=0.01, end=100.0, steps=50, spacing="logarithmic")
    series = evolve_series(pipe.spectrum(3), 4, "classical", grid)
    assert np.abs(series[-1].values - 1.0 / 16.0).max() <= 1e-6


@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_series_matches_per_time_reference_across_blocks(pipe, kind):
    s = pipe.spectrum(4)
    rows = dynamics._BLOCK_ENTRIES // s.order
    grid = TimeGrid(start=0.0, end=30.0, steps=rows + rows // 2)
    series = evolve_series(s, 7, kind, grid)
    assert len(series) > rows
    q, e = s.eigenvectors, s.eigenvalues
    w = q[6, :]
    worst = 0.0
    # every time around the block boundary, and a stride through the rest
    for snap in series[rows - 100 : rows + 100] + series[::250]:
        if kind == "classical":
            expected = q @ (np.exp(-snap.time * e) * w)
        else:
            expected = np.abs(q @ (np.exp(-1j * snap.time * e) * w)) ** 2
        worst = max(worst, float(np.abs(snap.values - expected).max()))
    assert worst <= 1e-13


def test_series_rejects_nan_values():
    broken = Spectrum(eigenvalues=np.array([0.0, np.nan]),
                      eigenvectors=np.eye(2))
    for kind in ("classical", "quantum"):
        with pytest.raises(NumericError, match="t=0.5"):
            evolve_series(broken, 1, kind, TimeGrid(0.5, 1.0, 3))


def test_series_rejects_unknown_kind(pipe):
    with pytest.raises(ValueError):
        evolve_series(pipe.spectrum(1), 1, "ballistic", TimeGrid(0.0, 1.0, 3))


# -- revivals ---------------------------------------------------------------------

def test_perfect_revivals_g1_g2(pipe):
    s1, s2 = pipe.spectrum(1), pipe.spectrum(2)
    for n_cycle in range(1, 6):
        for j in range(1, 5):
            t = 2.0 * np.pi * n_cycle / 4.0
            assert quantum_probability(s1, j, t).value_at(j) >= 1.0 - 1e-9
        t = 2.0 * np.pi * n_cycle / 7.0
        assert quantum_probability(s2, 4, t).value_at(4) >= 1.0 - 1e-9


def test_max_return_probability_g1(pipe):
    window = TimeGrid(start=0.5, end=3.0, steps=100_001)
    t_star, p_star = max_return_probability(pipe.spectrum(1), 3, window)
    assert p_star >= 1.0 - 1e-8
    assert abs(t_star - np.pi / 2.0) <= 2.5e-5


def test_max_return_probability_g2(pipe):
    window = TimeGrid(start=0.5, end=1.5, steps=100_001)
    t_star, p_star = max_return_probability(pipe.spectrum(2), 4, window)
    assert p_star >= 1.0 - 1e-8
    assert abs(t_star - 2.0 * np.pi / 7.0) <= 1e-5


def test_partial_revival_g3(pipe):
    t_star, p_star = max_return_probability(pipe.spectrum(3), 4, default_revival_window())
    assert p_star < 1.0 - 1e-6
    # regression baseline observed on the default 1e5-point window
    assert p_star == pytest.approx(0.9987483113182943, abs=1e-6)
    assert t_star == pytest.approx(81.07030470304703, abs=1e-2)


def test_revival_window_must_exclude_zero(pipe):
    with pytest.raises(ValueError):
        max_return_probability(pipe.spectrum(1), 1, TimeGrid(0.0, 10.0, 100))


# -- long-time consistency ---------------------------------------------------------

@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_finite_time_average_converges_to_limit(pipe, g):
    s = pipe.spectrum(g)
    chi = pipe.chi(g)
    j = 4 if g >= 1 else 2
    avg = finite_time_average(s, j, 2000.0)
    assert np.abs(avg - chi.column(j)).max() <= 0.01


def test_finite_time_average_validation(pipe):
    with pytest.raises(ValueError):
        finite_time_average(pipe.spectrum(1), 1, 0.0)
    with pytest.raises(ValueError):
        finite_time_average(pipe.spectrum(1), 1, 10.0, samples=1)


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
                a = quantum_probability(s, j, t).values
                b = quantum_probability(alt, j, t).values
                assert np.abs(a - b).max() <= 1e-10
                c = classical_probability(s, j, t).values
                d = classical_probability(alt, j, t).values
                assert np.abs(c - d).max() <= 1e-10
