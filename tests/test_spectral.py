from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from apwalks import spectral
from apwalks.network import laplacian
from apwalks.spectral import (
    NumericError,
    Spectrum,
    default_degeneracy_tolerance,
    eigendecompose,
    gap_runs,
    group_degenerate,
)
from apwalks.verify import Pipeline, _eigen_residual, check_reconstruction


def _spectrum_from_values(values):
    values = np.asarray(values, dtype=float)
    return Spectrum(eigenvalues=values, eigenvectors=np.eye(len(values)))


def test_k4_eigenvalues(pipe):
    s = pipe.spectrum(1)
    assert np.allclose(s.eigenvalues, [0.0, 4.0, 4.0, 4.0], atol=1e-12)


def test_identity_matrix():
    s = eigendecompose(np.eye(2))
    assert np.allclose(s.eigenvalues, [1.0, 1.0])
    assert np.allclose(s.eigenvectors.T @ s.eigenvectors, np.eye(2), atol=1e-15)


def test_g3_trace_equals_eigenvalue_sum(pipe):
    # 42 edges at G=3, so the trace (sum of degrees) is 84
    h = laplacian(pipe.net(3))
    assert h.trace() == 84.0
    s = pipe.spectrum(3)
    assert abs(s.eigenvalues.sum() - 84.0) <= 1e-9 * 84.0


@pytest.mark.parametrize("g", range(0, 8))
def test_reconstruction_and_orthonormality(pipe, g):
    h = laplacian(pipe.net(g))
    s = pipe.spectrum(g)
    q, e = s.eigenvectors, s.eigenvalues
    radius = max(1.0, float(np.abs(e).max()))
    assert np.abs(h - (q * e) @ q.T).max() <= 1e-10 * radius
    assert np.abs(q.T @ q - np.eye(s.order)).max() <= 1e-12
    assert np.all(np.diff(e) >= 0)


@pytest.mark.parametrize("g", range(0, 8))
def test_edge_list_eigen_residual_is_the_dense_one(pipe, g):
    # verify's residual H Q - Q E, with H Q summed from the edge list.
    s = pipe.spectrum(g)
    q, e = s.eigenvectors, s.eigenvalues
    radius = max(1.0, float(np.abs(e).max()))
    dense = laplacian(pipe.net(g)) @ q - q * e
    error = np.abs(_eigen_residual(pipe.net(g), s) - dense).max()
    assert error <= s.order * np.finfo(float).eps * radius


class _ShiftedPipeline(Pipeline):
    """G=5's middle eigenvalue moved by ``shift``, its eigenvector kept."""

    def __init__(self, shift):
        super().__init__()
        self.shift = shift

    def spectrum(self, g):
        s = super().spectrum(g)
        if g != 5:
            return s
        e = s.eigenvalues.copy()
        e[s.order // 2] += self.shift
        return Spectrum(eigenvalues=e, eigenvectors=s.eigenvectors)


# A shift of 1e-6 reads as a residual of 5.8e-9 (of the spectral radius), far
# above the check's 1e-10; a shift of 1e-8 reads as 5.8e-11 and passes, so the
# check resolves an eigenvalue to about 1e-8 at G=5.
@pytest.mark.parametrize("shift, passed", [(1e-6, False), (1e-8, True)])
def test_reconstruction_check_sees_a_moved_eigenvalue(shift, passed):
    result = check_reconstruction(_ShiftedPipeline(shift), 5)
    assert result.passed is passed
    assert result.detail["max_orthonormality_error"] <= 1e-12


@pytest.mark.parametrize("g", range(0, 6))
def test_ground_mode_is_uniform(pipe, g):
    s = pipe.spectrum(g)
    n = s.order
    assert abs(s.eigenvalues[0]) <= 1e-10
    assert s.eigenvalues[1] > 1e-10  # simple zero eigenvalue (connected graph)
    ground = s.eigenvectors[:, 0]
    uniform = np.full(n, 1.0 / np.sqrt(n))
    assert min(
        np.abs(ground - uniform).max(), np.abs(ground + uniform).max()
    ) <= 1e-10


@pytest.mark.parametrize("g", range(0, 7))
def test_positive_semidefinite(pipe, g):
    assert pipe.spectrum(g).eigenvalues.min() >= -1e-10


def test_determinism(pipe):
    # eigendecompose overwrites its input, so each call gets a fresh Laplacian.
    a = eigendecompose(laplacian(pipe.net(3)))
    b = eigendecompose(laplacian(pipe.net(3)))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def _assert_same_bits_as_numpy(h):
    values, vectors = np.linalg.eigh(h.copy())
    s = eigendecompose(h)
    assert np.array_equal(s.eigenvalues, values)
    assert np.array_equal(s.eigenvectors, vectors)


@pytest.mark.parametrize("g", range(0, 8))
def test_laplacian_spectrum_is_numpy_eigh_bit_for_bit(pipe, g):
    _assert_same_bits_as_numpy(laplacian(pipe.net(g)))


def test_mirrored_zeros_of_opposite_sign_give_numpy_eigh_bits(rng):
    # eigh reads the lower triangle; a Householder sign follows h[1, 0]'s.
    h = rng.standard_normal((6, 6))
    h += h.T
    h[1, 0], h[0, 1] = -0.0, 0.0
    _assert_same_bits_as_numpy(h)


@st.composite
def symmetric_matrices(draw):
    """Exactly symmetric matrices of order 1-40, with float or small-integer entries."""
    n = draw(st.integers(1, 40))
    entries = draw(st.sampled_from([
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        st.integers(-3, 3).map(float),  # degenerate eigenvalues
    ]))
    lower = np.tril(draw(arrays(np.float64, (n, n), elements=entries)))
    return lower + np.tril(lower, -1).T


@given(symmetric_matrices())
def test_symmetric_spectrum_is_numpy_eigh_bit_for_bit(h):
    _assert_same_bits_as_numpy(h)


def test_fallback_is_numpy_eigh_and_keeps_its_input(pipe, monkeypatch):
    h = laplacian(pipe.net(4))
    kept = h.copy()
    monkeypatch.setattr(spectral, "_DSYEVD", None)
    _assert_same_bits_as_numpy(h)
    assert np.array_equal(h, kept)


@pytest.mark.parametrize(("info", "error"), [(3, spectral.NumericError), (-4, RuntimeError)])
def test_solver_failures_raise(monkeypatch, info, error):
    def fail(*args):
        args[10].value = info  # the INFO argument

    monkeypatch.setattr(spectral, "_DSYEVD", fail)
    with pytest.raises(error):
        eigendecompose(np.eye(3))


def test_eigenvectors_are_a_read_only_c_array_of_their_own(pipe):
    h = laplacian(pipe.net(4))
    s = eigendecompose(h)
    assert s.eigenvectors.flags.c_contiguous
    assert not s.eigenvectors.flags.writeable
    assert not np.shares_memory(s.eigenvectors, h)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_rejects_non_finite(bad):
    m = np.eye(3)
    m[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        eigendecompose(m)


def test_rejects_non_symmetric():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        eigendecompose(m)


def test_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        eigendecompose(np.zeros((2, 3)))


def test_outputs_are_read_only(pipe):
    s = pipe.spectrum(2)
    with pytest.raises(ValueError):
        s.eigenvalues[0] = 1.0


def test_group_degenerate_k4(pipe):
    grouping = group_degenerate(pipe.spectrum(1), 1e-8)
    assert grouping.sizes == (1, 3)
    assert grouping.groups == ((0, 1), (1, 4))


def test_group_degenerate_distinct():
    grouping = group_degenerate(_spectrum_from_values([0.0, 1.0, 2.0]), 1e-8)
    assert grouping.sizes == (1, 1, 1)


def test_group_degenerate_near_zero_pair():
    grouping = group_degenerate(_spectrum_from_values([0.0, 1e-12, 5.0]), 1e-8)
    assert grouping.groups == ((0, 2), (2, 3))


def test_group_degenerate_rejects_bad_tolerance(pipe):
    with pytest.raises(ValueError):
        group_degenerate(pipe.spectrum(1), 0.0)
    with pytest.raises(ValueError):
        group_degenerate(pipe.spectrum(1), -1e-9)


@pytest.mark.parametrize("tol", [np.inf, np.nan])
def test_group_degenerate_rejects_non_finite_tolerance(pipe, tol):
    with pytest.raises(ValueError, match="finite"):
        group_degenerate(pipe.spectrum(1), tol)


def test_group_degenerate_idempotent_on_representatives(pipe):
    for g in range(0, 5):
        s = pipe.spectrum(g)
        tol = default_degeneracy_tolerance(s)
        grouping = group_degenerate(s, tol)
        reps = np.array([s.eigenvalues[start] for start, _ in grouping.groups])
        again = group_degenerate(_spectrum_from_values(reps), tol)
        assert again.sizes == (1,) * len(reps)


def test_grouping_respects_gap_structure(pipe):
    # within groups gaps <= tol, across adjacent groups > tol
    for g in range(0, 6):
        s = pipe.spectrum(g)
        tol = default_degeneracy_tolerance(s)
        grouping = group_degenerate(s, tol)
        e = s.eigenvalues
        for start, stop in grouping.groups:
            if stop - start > 1:
                assert e[stop - 1] - e[start] <= tol
        for (_, stop), (start, _) in zip(grouping.groups, grouping.groups[1:]):
            assert e[start] - e[stop - 1] > tol


def greedy_runs(values, tol):
    """The left-to-right loop ``gap_runs`` replaces, kept as its reference."""
    runs, start = [], 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol:
            runs.append((start, i))
            start = i
    return runs + [(start, len(values))]


# Multiples of 1e-9 against tol=1e-9 put many gaps within rounding of the tolerance.
@given(st.lists(st.integers(0, 12), max_size=30).map(sorted), st.sampled_from([1e-9, 2e-9]))
def test_gap_runs_matches_the_greedy_loop(steps, tol):
    values = np.array(steps, dtype=float) * 1e-9
    assert gap_runs(values, tol) == greedy_runs(values, tol)


def model_histogram(g):
    """Eigenspaces per dimension at generation g, from the exact multiplicity model.

    The triangle (G=0) and K4 (G=1) are written out. From G=2 on there are
    2^(G-1)+1 one-mode and 2^(G-1) two-mode eigenspaces, and for each
    k = 3..G there are 2^(G-k) of m_k modes, with m_3 = 3 and
    m_(k+1) = 3 m_k + 3: 5 * 2^(G-2) eigenspaces in all.
    """
    if g < 2:
        return {1: 1, g + 2: 1}
    histogram = {1: 2 ** (g - 1) + 1, 2: 2 ** (g - 1)}
    m = 3
    for k in range(3, g + 1):
        histogram[m] = 2 ** (g - k)
        m = 3 * m + 3
    return histogram


@pytest.mark.parametrize("g", [pytest.param(g, id=f"{g}-{sum(model_histogram(g).values())}")
                               for g in range(8)])
def test_eigenspace_count(pipe, g):
    # An exact count of eigenspaces of each dimension, not a tolerance.
    assert Counter(pipe.grouping(g).sizes) == model_histogram(g)


@pytest.mark.parametrize("g", range(2, 8))
def test_eigenspaces_reaching_the_central_node(pipe, g):
    # 2**(G - 1) + 1 eigenspaces carry weight on node 4 from G = 3 on. The
    # weights fall on either side of a wide gap: the smallest reaching weight
    # is 1.1e-6 (G = 7), the largest other one 2.2e-26.
    row = pipe.spectrum(g).eigenvectors[3]
    weights = np.array([np.sum(row[a:b] ** 2) for a, b in pipe.grouping(g).groups])
    reaching = weights > 1e-12
    assert reaching.sum() == (2 if g == 2 else 2 ** (g - 1) + 1)
    assert weights[reaching].min() > 1e-6
    assert weights[~reaching].max() < 1e-20


def _floor(values):
    return len(values) * np.finfo(float).eps * max(1.0, float(np.abs(values).max()))


@pytest.mark.parametrize("g", range(0, 8))
def test_measured_tolerance_keeps_the_fixed_rule_groups(pipe, g):
    s = pipe.spectrum(g)
    e = s.eigenvalues
    # The rule the measured tolerance replaced: 1e-8 max(1, lambda_max).
    assert list(pipe.grouping(g).groups) == gap_runs(e, 1e-8 * max(1.0, float(e[-1])))
    tol = default_degeneracy_tolerance(s)
    gaps = np.diff(e)
    between = np.array([stop - 1 for _, stop in pipe.grouping(g).groups[:-1]], dtype=int)
    assert 30 * np.delete(gaps, between).max(initial=0.0) <= tol
    assert 30 * tol <= gaps[between].min()


def test_gap_near_the_rounding_floor_raises():
    values = [0.0, 1.0, 1.0 + 100 * _floor([0.0, 1.0, 1.0])]
    with pytest.raises(NumericError, match="too close"):
        default_degeneracy_tolerance(_spectrum_from_values(values))


def test_one_eigenvalue_gets_the_floor():
    assert default_degeneracy_tolerance(_spectrum_from_values([5.0])) == _floor([5.0])


@st.composite
def planted_spectra(draw):
    """Eigenvalue clusters at least 1e-3 lambda_max apart, each spread over floor/10."""
    steps = draw(st.lists(st.integers(0, 999), max_size=7, unique=True))
    sizes = draw(st.lists(st.integers(1, 5), min_size=len(steps) + 1,
                          max_size=len(steps) + 1))
    scale = draw(st.floats(0.1, 1e3))
    centres = scale * np.array(sorted([*steps, 1000])) / 1000
    spread = _floor(np.full(sum(sizes), scale)) / 10
    values = [c + spread * draw(st.floats(0.0, 1.0)) for c, m in zip(centres, sizes)
              for _ in range(m)]
    stops = np.cumsum(sizes).tolist()
    return np.sort(values), list(zip([0, *stops[:-1]], stops))


@given(planted_spectra())
def test_measured_tolerance_recovers_planted_clusters(planted):
    values, groups = planted
    s = _spectrum_from_values(values)
    assert gap_runs(values, default_degeneracy_tolerance(s)) == groups
