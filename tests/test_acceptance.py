"""End-to-end acceptance checks for the whole pipeline.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or on
failure) and asserts its criterion at a fixed tolerance. Timed criteria
measure a fresh computation, not cached fixtures.
"""

import time

import numpy as np

from apwalks.dynamics import (
    classical_probability,
    closed_form_g1,
    closed_form_g2,
    default_revival_window,
    finite_time_average,
    max_return_probability,
    quantum_probability,
)
from apwalks.network import corner_group, generate_apollonian, laplacian, orbits
from apwalks.spectral import eigendecompose
from apwalks.symmetry import cluster_equal_limits, orbit_consistency

# Observed on the default 100000-point window over (0.1, 200]; kept as a
# regression baseline for the generation-3 partial revival.
G3_PARTIAL_REVIVAL_BASELINE = 0.9987483113182943


def report(number, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} ({detail})")
    assert ok, f"criterion {number} failed: {label} ({detail})"


def fresh_spectrum(g):
    return eigendecompose(laplacian(generate_apollonian(g)))


def test_criterion_1_g1_closed_form():
    start = time.perf_counter()
    s = fresh_spectrum(1)
    worst = 0.0
    for t in np.linspace(0.0, 4.0 * np.pi, 1000):
        for j in range(1, 5):
            snap = quantum_probability(s, j, float(t))
            for k in range(1, 5):
                worst = max(worst, abs(snap.value_at(k) - closed_form_g1(j, k, float(t))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, "generation-1 closed form reproduced",
           ok, f"max_err={worst:.3e} tol=1e-10, runtime={elapsed:.2f}s < 1s")


def test_criterion_2_g2_closed_form():
    start = time.perf_counter()
    s = fresh_spectrum(2)
    worst = 0.0
    for t in np.linspace(0.0, 4.0 * np.pi, 1000):
        snap = quantum_probability(s, 4, float(t))
        for k in range(1, 8):
            worst = max(worst, abs(snap.value_at(k) - closed_form_g2(k, float(t))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(2, "generation-2 closed form reproduced from the center",
           ok, f"max_err={worst:.3e} tol=1e-10, runtime={elapsed:.2f}s < 1s")


def test_criterion_3_perfect_revivals(pipe):
    s1, s2 = pipe.spectrum(1), pipe.spectrum(2)
    lowest = 1.0
    for cycle in range(1, 6):
        for j in range(1, 5):
            lowest = min(lowest, quantum_probability(
                s1, j, 2.0 * np.pi * cycle / 4.0).value_at(j))
        lowest = min(lowest, quantum_probability(
            s2, 4, 2.0 * np.pi * cycle / 7.0).value_at(4))
    ok = lowest >= 1.0 - 1e-9
    report(3, "perfect revivals at multiples of 2*pi/N for G=1 and G=2",
           ok, f"min_return={lowest:.12f} >= 1-1e-9")


def test_criterion_4_partial_revival_g3(pipe):
    window = default_revival_window()
    t_star, p_star = max_return_probability(pipe.spectrum(3), 4, window)
    ok = p_star < 1.0 - 1e-6 and abs(p_star - G3_PARTIAL_REVIVAL_BASELINE) <= 1e-6
    report(4, "generation-3 revivals are only partial",
           ok, f"max={p_star:.12f} at t={t_star:.4f} on {window.steps} points, "
               f"baseline={G3_PARTIAL_REVIVAL_BASELINE:.12f}")


def test_criterion_5_classical_equipartition():
    start = time.perf_counter()
    devs = {}
    for g in (3, 4):
        s = fresh_spectrum(g)
        n = s.order
        snap = classical_probability(s, 4, 100.0)
        devs[g] = float(np.abs(snap.values - 1.0 / n).max())
    elapsed = time.perf_counter() - start
    ok = max(devs.values()) <= 1e-6 and elapsed < 5.0
    report(5, "classical walk reaches equipartition by t=100 for G=3,4",
           ok, f"max_dev={max(devs.values()):.3e} tol=1e-6, runtime={elapsed:.2f}s < 5s")


def test_criterion_6_localization(pipe):
    ok = True
    for g in (3, 4):
        chi = pipe.chi(g)
        n = chi.order
        for j in range(1, n + 1):
            column = chi.column(j)
            ok = ok and int(np.argmax(column)) + 1 == j and column[j - 1] > 1.0 / n
    report(6, "every source is its own most likely long-time target (G=3,4)",
           ok, "argmax chi[:,j] == j and chi_jj > 1/N for all j")


def test_criterion_7_cluster_structure(pipe):
    net = pipe.net(3)
    clustering = cluster_equal_limits(pipe.chi(3).column(4), 4)
    partition = orbits(net, fixed_source=4)
    sizes = sorted(clustering.sizes)
    matches = {frozenset(c) for c in clustering.clusters} == {
        frozenset(c) for c in partition.classes
    }
    ok = len(clustering.clusters) == 5 and sizes == [1, 3, 3, 3, 6] and matches
    report(7, "central-source value clusters equal the corner orbits (G=3)",
           ok, f"sizes={sizes}, matches_orbits={matches}")


def test_criterion_8_unexplained_equalities(pipe):
    net = pipe.net(3)
    source = next(
        n for n in net.nodes_of_generation(3)
        if net.central_node in net.neighbors[n - 1]
    )
    column = pipe.chi(3).column(source)
    clustering = cluster_equal_limits(column, source)
    partition = orbits(net, fixed_source=source)
    consistency = orbit_consistency(clustering, partition)
    gen3 = set(net.nodes_of_generation(3))
    pairs = [
        (k, l)
        for k, l in consistency.unexplained_pairs
        if k in gen3 and l in gen3 and abs(column[k - 1] - column[l - 1]) <= 1e-9
    ]
    ok = bool(pairs)
    report(8, "equal limits exist beyond the corner group (G=3, off-center source)",
           ok, f"source={source}, pairs={pairs}, gap<=1e-9")


def test_criterion_9_return_probability_grows(pipe):
    chi3 = pipe.chi(3).value(4, 4)
    chi4 = pipe.chi(4).value(4, 4)
    ok = chi4 > chi3
    report(9, "long-time return probability grows with generation",
           ok, f"chi_44: G=3 {chi3:.12f} -> G=4 {chi4:.12f}")


def test_criterion_10a_unitarity_stochasticity(pipe):
    rng = np.random.default_rng(42)
    worst_sum, worst_entry = 0.0, 0.0
    for g in range(0, 6):
        s = pipe.spectrum(g)
        n = s.order
        for _ in range(5):
            j = int(rng.integers(1, n + 1))
            t = float(rng.uniform(0.0, 50.0))
            for snap in (quantum_probability(s, j, t), classical_probability(s, j, t)):
                worst_sum = max(worst_sum, abs(float(snap.values.sum()) - 1.0))
                worst_entry = min(worst_entry, float(snap.values.min()))
    ok = worst_sum <= 1e-10 and worst_entry >= -1e-12
    report("10a", "snapshots are normalized distributions (G<=5)",
           ok, f"max_sum_err={worst_sum:.3e}, min_entry={worst_entry:.3e}")


def test_criterion_10b_pair_symmetry(pipe):
    rng = np.random.default_rng(43)
    worst = 0.0
    for g in (1, 2, 3, 4):
        s = pipe.spectrum(g)
        n = s.order
        for _ in range(8):
            j, k = (int(v) for v in rng.integers(1, n + 1, size=2))
            t = float(rng.uniform(0.0, 25.0))
            worst = max(worst, abs(
                quantum_probability(s, j, t).value_at(k)
                - quantum_probability(s, k, t).value_at(j)))
            worst = max(worst, abs(
                classical_probability(s, j, t).value_at(k)
                - classical_probability(s, k, t).value_at(j)))
    ok = worst <= 1e-12
    report("10b", "transition probabilities are symmetric in source/target",
           ok, f"max_asymmetry={worst:.3e} tol=1e-12")


def test_criterion_10c_equivariance(pipe):
    rng = np.random.default_rng(44)
    worst = 0.0
    for g in (1, 2, 3, 4):
        net = pipe.net(g)
        s = pipe.spectrum(g)
        n = net.node_count
        for sigma in corner_group(net):
            j = int(rng.integers(1, n + 1))
            t = float(rng.uniform(0.0, 20.0))
            snap = quantum_probability(s, j, t)
            mapped = quantum_probability(s, sigma(j), t)
            for k in range(1, n + 1):
                worst = max(worst, abs(snap.value_at(k) - mapped.value_at(sigma(k))))
    ok = worst <= 1e-10
    report("10c", "corner automorphisms leave the dynamics invariant",
           ok, f"max_mismatch={worst:.3e} tol=1e-10")


def test_criterion_10d_reconstruction(pipe):
    worst_rec, worst_orth = 0.0, 0.0
    for g in range(0, 6):
        h = laplacian(pipe.net(g))
        s = pipe.spectrum(g)
        q, e = s.eigenvectors, s.eigenvalues
        radius = max(1.0, float(np.abs(e).max()))
        worst_rec = max(worst_rec, float(np.abs(h - (q * e) @ q.T).max()) / radius)
        worst_orth = max(worst_orth, float(np.abs(q.T @ q - np.eye(s.order)).max()))
    ok = worst_rec <= 1e-10 and worst_orth <= 1e-12
    report("10d", "eigendecomposition reconstructs the Laplacian",
           ok, f"max_rec={worst_rec:.3e} tol=1e-10, max_orth={worst_orth:.3e} tol=1e-12")


def test_criterion_10e_finite_time_average(pipe):
    worst = 0.0
    for g in (0, 1, 2, 3):
        s = pipe.spectrum(g)
        chi = pipe.chi(g)
        j = 4 if g >= 1 else 1
        avg = finite_time_average(s, j, 2000.0)
        worst = max(worst, float(np.abs(avg - chi.column(j)).max()))
    ok = worst <= 0.01
    report("10e", "finite-horizon averages converge to the limiting values (G<=3)",
           ok, f"max_dev={worst:.3e} tol=0.01 at T=2000")


def test_criterion_10f_heat_kernel_oracle(pipe):
    # brute-force series for exp(-tA), fully independent of the eigensolver
    def series_column(h, j, t):
        term = np.zeros(h.shape[0])
        term[j - 1] = 1.0
        total = term.copy()
        for order in range(1, 300):
            term = (-t / order) * (h @ term)
            total += term
            if np.abs(term).max() < 1e-17:
                break
        return total

    worst = 0.0
    for g in (0, 1, 2):
        net = pipe.net(g)
        h = laplacian(net)
        s = pipe.spectrum(g)
        for j in range(1, net.node_count + 1):
            for t in (0.1, 0.5, 1.0):
                spectral = classical_probability(s, j, t).values
                worst = max(worst, float(np.abs(spectral - series_column(h, j, t)).max()))
    ok = worst <= 1e-8
    report("10f", "spectral heat kernel matches the power-series oracle (G<=2, t<=1)",
           ok, f"max_err={worst:.3e} tol=1e-8")


def test_verification_command_agrees(pipe):
    # the shipped verify runner reaches the same verdict
    from apwalks.verify import run_verification

    verdict = run_verification(4)
    ok = verdict.passed
    report("cli", "built-in verification suite passes at max generation 4",
           ok, f"{sum(c.passed for c in verdict.checks)}/{len(verdict.checks)} checks")
