"""Physics invariants as hypothesis properties over generations 0-4.

Each property holds for every generation, source, time and relabelling; the
tolerances are those of the matching ``verify`` checks.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from apwalks.dynamics import classical_probability, limiting_matrix, quantum_probability
from apwalks.network import corner_group, laplacian, node_count_for_generation
from apwalks.spectral import default_degeneracy_tolerance, eigendecompose, group_degenerate

PROPAGATORS = (quantum_probability, classical_probability)
generations = st.integers(0, 4)


@st.composite
def walks(draw, t_max):
    """A generation, a source node j, another node k and a time in [0, t_max]."""
    g = draw(generations)
    nodes = st.integers(1, node_count_for_generation(g))
    return g, draw(nodes), draw(nodes), draw(st.floats(0.0, t_max))


@given(walks(t_max=50.0))
def test_unitarity_and_stochasticity(pipe, walk):
    g, j, _, t = walk
    for propagate in PROPAGATORS:
        values = propagate(pipe.spectrum(g), j, t).values
        assert abs(values.sum() - 1.0) <= 1e-10
        assert values.min() >= -1e-12


@given(walks(t_max=20.0))
def test_pair_symmetry(pipe, walk):
    g, j, k, t = walk
    s = pipe.spectrum(g)
    for propagate in PROPAGATORS:
        assert abs(propagate(s, j, t).value_at(k) - propagate(s, k, t).value_at(j)) <= 1e-12


@given(walks(t_max=20.0), st.integers(0, 5))
def test_corner_group_equivariance(pipe, walk, element):
    g, j, _, t = walk
    sigma = corner_group(pipe.net(g))[element]
    image = np.array(sigma.image) - 1
    s = pipe.spectrum(g)
    for propagate in PROPAGATORS:
        # pi_{sigma k, sigma j}(t) = pi_{k j}(t) for every node k.
        mapped = propagate(s, sigma(j), t).values[image]
        assert np.abs(mapped - propagate(s, j, t).values).max() <= 1e-10


@st.composite
def relabellings(draw):
    g = draw(generations)
    return g, np.array(draw(st.permutations(range(node_count_for_generation(g)))))


@given(relabellings())
def test_chi_is_invariant_under_relabelling(pipe, relabelling):
    g, perm = relabelling  # old node i becomes node perm[i]
    h = np.empty((len(perm), len(perm)))
    h[np.ix_(perm, perm)] = laplacian(pipe.net(g))
    s = eigendecompose(h)
    chi = limiting_matrix(s, group_degenerate(s, default_degeneracy_tolerance(s)))
    assert np.abs(chi.entries[np.ix_(perm, perm)] - pipe.chi(g).entries).max() <= 1e-10
