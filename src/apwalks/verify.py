"""Self-verification checks wiring the whole pipeline together.

Each check recomputes a published quantity (closed forms, revivals,
equipartition, localization, cluster structure) or a structural property
(unitarity, symmetry, equivariance, reconstruction) and compares at a fixed
tolerance. Checks are gated by the generation they need, so the runner
executes everything reachable up to a configured maximum generation.

With two CPUs (``fork.two_cpus``) the runner splits the checks between two
processes. This one diagonalizes the largest generation first and then runs
``check_reconstruction``, the only check that reads a generation above 5;
one forked child runs every other check and hands back its results. The
report lists the checks in the same order with the same values as on one
CPU, where both shares run in this process one after the other, so the
verdict's bytes do not depend on the CPU count.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import fork
from .dynamics import (
    ENTRY_FLOOR,
    SUM_TOL,
    LimitingMatrix,
    TimeGrid,
    _stripes,
    classical_probability,
    closed_form_g1,
    closed_form_g2,
    default_revival_window,
    evolve_series,
    finite_time_average,
    limiting_matrix,
    max_return_probability,
    quantum_probability,
)
from .network import Network, corner_group, generate_apollonian, laplacian, orbits
from .spectral import (
    EigenspaceGrouping,
    Spectrum,
    default_degeneracy_tolerance,
    eigendecompose,
    group_degenerate,
)
from .symmetry import cluster_equal_limits, orbit_consistency


@dataclass(frozen=True)
class CheckResult:
    name: str
    generation: int
    passed: bool
    detail: dict


@dataclass(frozen=True)
class VerificationReport:
    max_generation: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(bool(c.passed) for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "max_generation": self.max_generation,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "generation": c.generation,
                    "passed": bool(c.passed),
                    "detail": dict(c.detail),
                }
                for c in self.checks
            ],
        }


class Pipeline:
    """Caches networks, spectra, groupings and limiting matrices by generation."""

    def __init__(self) -> None:
        self._nets: dict[int, Network] = {}
        self._spectra: dict[int, Spectrum] = {}
        self._groupings: dict[int, EigenspaceGrouping] = {}
        self._chis: dict[int, LimitingMatrix] = {}

    def net(self, g: int) -> Network:
        if g not in self._nets:
            self._nets[g] = generate_apollonian(g)
        return self._nets[g]

    def spectrum(self, g: int) -> Spectrum:
        if g not in self._spectra:
            self._spectra[g] = eigendecompose(laplacian(self.net(g)))
        return self._spectra[g]

    def grouping(self, g: int) -> EigenspaceGrouping:
        if g not in self._groupings:
            s = self.spectrum(g)
            self._groupings[g] = group_degenerate(s, default_degeneracy_tolerance(s))
        return self._groupings[g]

    def chi(self, g: int) -> LimitingMatrix:
        if g not in self._chis:
            self._chis[g] = limiting_matrix(self.spectrum(g), self.grouping(g))
        return self._chis[g]


def _closed_form_errors(pipe: Pipeline, g: int) -> float:
    """Max abs deviation of the coherent numerics from the closed form."""
    s = pipe.spectrum(g)
    n = s.order
    grid = TimeGrid(0.0, 4.0 * math.pi, 1000, "linear")
    times = grid.times()
    worst = 0.0
    sources = range(1, n + 1) if g == 1 else (4,)
    for j in sources:
        series = evolve_series(s, j, "quantum", grid)
        numeric = np.array([snap.values for snap in series])
        expected = np.column_stack([
            closed_form_g1(j, k, times) if g == 1 else closed_form_g2(k, times)
            for k in range(1, n + 1)
        ])
        worst = max(worst, float(np.abs(numeric - expected).max()))
    return worst


def check_eq_g1(pipe: Pipeline) -> CheckResult:
    err = _closed_form_errors(pipe, 1)
    return CheckResult(
        "closed_form_g1_reproduction", 1, err <= 1e-10, {"max_abs_error": err}
    )


def check_eq_g2(pipe: Pipeline) -> CheckResult:
    err = _closed_form_errors(pipe, 2)
    return CheckResult(
        "closed_form_g2_reproduction", 2, err <= 1e-10, {"max_abs_error": err}
    )


def check_perfect_revivals(pipe: Pipeline, max_generation: int) -> CheckResult:
    worst = 1.0
    cases = []
    for g, sources in ((1, (1, 2, 3, 4)), (2, (4,))):
        if g > max_generation:
            continue
        s = pipe.spectrum(g)
        n = s.order
        for j in sources:
            for cycle in range(1, 6):
                t = 2.0 * math.pi * cycle / n
                p = quantum_probability(s, j, t).value_at(j)
                worst = min(worst, p)
        cases.append(g)
    return CheckResult(
        "perfect_revivals",
        max(cases),
        worst >= 1.0 - 1e-9,
        {"generations": cases, "min_return_probability": worst},
    )


def check_partial_revival_g3(pipe: Pipeline) -> CheckResult:
    window = default_revival_window()
    t_star, p_star = max_return_probability(pipe.spectrum(3), 4, window)
    return CheckResult(
        "partial_revival_g3",
        3,
        p_star < 1.0 - 1e-6,
        {
            "observed_max": p_star,
            "at_time": t_star,
            "grid_points": window.steps,
            "window": [window.start, window.end],
        },
    )


def check_equipartition(pipe: Pipeline, g: int) -> CheckResult:
    s = pipe.spectrum(g)
    n = s.order
    snap = classical_probability(s, 4, 100.0)
    dev = float(np.abs(snap.values - 1.0 / n).max())
    return CheckResult(
        f"classical_equipartition_g{g}", g, dev <= 1e-6, {"max_deviation": dev}
    )


def check_localization(pipe: Pipeline, g: int) -> CheckResult:
    chi = pipe.chi(g)
    n = chi.order
    argmax_ok = all(
        int(np.argmax(chi.column(j))) + 1 == j for j in range(1, n + 1)
    )
    above = all(chi.value(j, j) > 1.0 / n for j in range(1, n + 1))
    return CheckResult(
        f"localization_g{g}",
        g,
        argmax_ok and above,
        {"argmax_is_source": argmax_ok, "self_exceeds_equipartition": above},
    )


def check_cluster_structure_g3(pipe: Pipeline) -> CheckResult:
    net = pipe.net(3)
    chi = pipe.chi(3)
    clustering = cluster_equal_limits(chi.column(4), 4)
    partition = orbits(net, fixed_source=4)
    sizes_ok = sorted(clustering.sizes) == [1, 3, 3, 3, 6]
    match = {frozenset(c) for c in clustering.clusters} == {
        frozenset(c) for c in partition.classes
    }
    return CheckResult(
        "chi_cluster_structure_g3",
        3,
        sizes_ok and match,
        {"cluster_sizes": sorted(clustering.sizes), "matches_orbits": match},
    )


def _gen3_source_adjacent_to_center(net: Network) -> int:
    for node in net.nodes_of_generation(3):
        if net.central_node in net.neighbors[node - 1]:
            return node
    raise ValueError("network has no generation-3 node adjacent to the center")


def check_unexplained_pairs(pipe: Pipeline, g: int) -> CheckResult:
    net = pipe.net(g)
    chi = pipe.chi(g)
    source = _gen3_source_adjacent_to_center(net)
    clustering = cluster_equal_limits(chi.column(source), source)
    partition = orbits(net, fixed_source=source)
    report = orbit_consistency(clustering, partition)
    gen3 = set(net.nodes_of_generation(3))
    pairs = [(k, l) for k, l in report.unexplained_pairs if k in gen3 and l in gen3]
    return CheckResult(
        f"unexplained_equal_pairs_g{g}",
        g,
        bool(pairs),
        {
            "source": source,
            "pairs": [list(p) for p in pairs],
            "all_unexplained_pairs": [list(p) for p in report.unexplained_pairs],
        },
    )


def check_return_growth(pipe: Pipeline) -> CheckResult:
    chi3 = pipe.chi(3).value(4, 4)
    chi4 = pipe.chi(4).value(4, 4)
    return CheckResult(
        "return_probability_growth",
        4,
        chi4 > chi3,
        {"chi_44_g3": chi3, "chi_44_g4": chi4},
    )


def check_unitarity_stochasticity(pipe: Pipeline, max_g: int) -> CheckResult:
    rng = np.random.default_rng(20240811)
    worst_sum = 0.0
    worst_entry = 0.0
    top = min(max_g, 5)
    for g in range(0, top + 1):
        s = pipe.spectrum(g)
        n = s.order
        for _ in range(4):
            j = int(rng.integers(1, n + 1))
            t = float(rng.uniform(0.0, 50.0))
            for snap in (quantum_probability(s, j, t), classical_probability(s, j, t)):
                worst_sum = max(worst_sum, abs(float(snap.values.sum()) - 1.0))
                worst_entry = min(worst_entry, float(snap.values.min()))
    passed = worst_sum <= SUM_TOL and worst_entry >= ENTRY_FLOOR
    return CheckResult(
        "property_unitarity_stochasticity",
        top,
        passed,
        {"max_sum_error": worst_sum, "min_entry": worst_entry},
    )


def check_pair_symmetry(pipe: Pipeline, max_g: int) -> CheckResult:
    rng = np.random.default_rng(20240812)
    worst = 0.0
    top = min(max_g, 4)
    for g in range(1, top + 1):
        s = pipe.spectrum(g)
        n = s.order
        for _ in range(6):
            j, k = (int(v) for v in rng.integers(1, n + 1, size=2))
            t = float(rng.uniform(0.0, 20.0))
            q = quantum_probability(s, j, t).value_at(k)
            q_rev = quantum_probability(s, k, t).value_at(j)
            c = classical_probability(s, j, t).value_at(k)
            c_rev = classical_probability(s, k, t).value_at(j)
            worst = max(worst, abs(q - q_rev), abs(c - c_rev))
    return CheckResult(
        "property_pair_symmetry", top, worst <= 1e-12, {"max_asymmetry": worst}
    )


def check_equivariance(pipe: Pipeline, max_g: int) -> CheckResult:
    rng = np.random.default_rng(20240813)
    worst = 0.0
    top = min(max_g, 4)
    for g in range(1, top + 1):
        net = pipe.net(g)
        s = pipe.spectrum(g)
        n = net.node_count
        for sigma in corner_group(net):
            j = int(rng.integers(1, n + 1))
            t = float(rng.uniform(0.0, 20.0))
            snap = quantum_probability(s, j, t)
            mapped = quantum_probability(s, sigma(j), t)
            image = np.array(sigma.image) - 1
            worst = max(worst, float(np.abs(snap.values - mapped.values[image]).max()))
    return CheckResult(
        "property_automorphism_equivariance",
        top,
        worst <= 1e-10,
        {"max_mismatch": worst},
    )


def _reconstruction_residual(s: Spectrum, net: Network) -> np.ndarray:
    """Q E Q^T - H, with the bits of the dense formula and no second N x N array.

    Q E is formed one row stripe at a time (``dynamics._stripes``), each
    stripe's product written into the result. H comes off in place from the
    edge list: x + 1 rounds as x - (-1) off the diagonal, x - 0 = x, and the
    degree comes off the diagonal.
    """
    q, e = s.eigenvectors, s.eigenvalues
    x = np.empty((s.order, s.order))
    for rows in _stripes(s.order):
        np.matmul(q[rows] * e, q.T, out=x[rows])
    i, j = np.array(net.edges).T - 1
    x[i, j] += 1.0
    x[j, i] += 1.0
    x[np.diag_indices(s.order)] -= np.bincount(np.r_[i, j], minlength=s.order)
    return x


def check_reconstruction(pipe: Pipeline, max_g: int) -> CheckResult:
    worst_rec = 0.0
    worst_orth = 0.0
    for g in range(0, max_g + 1):
        s = pipe.spectrum(g)
        q, e = s.eigenvectors, s.eigenvalues
        radius = max(1.0, float(np.abs(e).max()))
        # One N x N array for both residuals: |Q E Q^T - H| equals |H - Q E Q^T|
        # bit for bit, and subtracting 1 on the diagonal only equals
        # subtracting the identity.
        x = _reconstruction_residual(s, pipe.net(g))
        rec = float(np.abs(x, out=x).max()) / radius
        np.matmul(q.T, q, out=x)
        x[np.diag_indices(s.order)] -= 1.0
        orth = float(np.abs(x, out=x).max())
        worst_rec = max(worst_rec, rec)
        worst_orth = max(worst_orth, orth)
    passed = worst_rec <= 1e-10 and worst_orth <= 1e-12
    return CheckResult(
        "property_eigendecomposition",
        max_g,
        passed,
        {"max_reconstruction_error": worst_rec, "max_orthonormality_error": worst_orth},
    )


def check_time_average(pipe: Pipeline, max_g: int) -> CheckResult:
    worst = 0.0
    top = min(max_g, 3)
    for g in range(0, top + 1):
        s = pipe.spectrum(g)
        chi = pipe.chi(g)
        j = 4 if g >= 1 else 1
        avg = finite_time_average(s, j, 2000.0)
        worst = max(worst, float(np.abs(avg - chi.column(j)).max()))
    return CheckResult(
        "property_finite_time_average",
        top,
        worst <= 0.01,
        {"horizon": 2000.0, "max_deviation": worst},
    )


def _taylor_heat_column(h: np.ndarray, j: int, t: float) -> np.ndarray:
    """Column j of exp(-t h) by direct series summation (independent route)."""
    n = h.shape[0]
    term = np.zeros(n)
    term[j - 1] = 1.0
    total = term.copy()
    for order in range(1, 200):
        term = (-t / order) * (h @ term)
        total += term
        if float(np.abs(term).max()) < 1e-16:
            break
    return total


def check_taylor_oracle(pipe: Pipeline, max_g: int) -> CheckResult:
    worst = 0.0
    top = min(max_g, 2)
    for g in range(0, top + 1):
        net = pipe.net(g)
        h = laplacian(net)
        s = pipe.spectrum(g)
        for j in range(1, net.node_count + 1):
            for t in (0.25, 1.0):
                spectral = classical_probability(s, j, t).values
                series = _taylor_heat_column(h, j, t)
                worst = max(worst, float(np.abs(spectral - series).max()))
    return CheckResult(
        "property_heat_kernel_series_oracle",
        top,
        worst <= 1e-8,
        {"max_abs_error": worst},
    )


def run_verification(max_generation: int) -> VerificationReport:
    """Run every check whose required generation is available.

    On two CPUs the checks are split between this process and one forked
    child (see the module docstring). An exception a check raises in the
    child reaches the caller with its own type.

    Raises:
        CapacityError: if ``max_generation`` exceeds the cap, before any
            check runs or any process is forked.
    """
    if max_generation < 0:
        raise ValueError("max generation must be non-negative")
    pipe = Pipeline()
    pipe.net(max_generation)  # a CapacityError before any fork
    if fork.two_cpus():
        with fork.child(lambda part: _dump_other_checks(pipe, max_generation, part)) as join:
            reconstruction = _reconstruction_largest_first(pipe, max_generation)
            checks = pickle.load(join())
        if isinstance(checks, Exception):
            raise checks
    else:
        reconstruction = _reconstruction_largest_first(pipe, max_generation)
        checks = _other_checks(pipe, max_generation)
    checks[checks.index(None)] = reconstruction
    return VerificationReport(max_generation=max_generation, checks=tuple(checks))


def _reconstruction_largest_first(pipe: Pipeline, max_generation: int) -> CheckResult:
    # The largest eigendecomposition first, while the fewest other arrays
    # are alive: its transient is the largest after this check's own.
    pipe.spectrum(max_generation)
    return check_reconstruction(pipe, max_generation)


def _dump_other_checks(pipe: Pipeline, max_generation: int, part: BinaryIO) -> None:
    """Pickle ``_other_checks`` to ``part``, or the exception it raised (in the forked child)."""
    try:
        checks = _other_checks(pipe, max_generation)
    except Exception as exc:
        checks = exc
    pickle.dump(checks, part)


def _other_checks(pipe: Pipeline, max_generation: int) -> list[CheckResult | None]:
    """Every check but the reconstruction, in report order; ``None`` holds its place."""
    checks: list[CheckResult | None] = []
    if max_generation >= 1:
        checks.append(check_eq_g1(pipe))
    if max_generation >= 2:
        checks.append(check_eq_g2(pipe))
    if max_generation >= 1:
        checks.append(check_perfect_revivals(pipe, max_generation))
    if max_generation >= 3:
        checks.append(check_partial_revival_g3(pipe))
        checks.append(check_equipartition(pipe, 3))
        checks.append(check_localization(pipe, 3))
        checks.append(check_cluster_structure_g3(pipe))
        checks.append(check_unexplained_pairs(pipe, 3))
    if max_generation >= 4:
        checks.append(check_equipartition(pipe, 4))
        checks.append(check_localization(pipe, 4))
        checks.append(check_return_growth(pipe))
    checks.append(check_unitarity_stochasticity(pipe, max_generation))
    if max_generation >= 1:
        checks.append(check_pair_symmetry(pipe, max_generation))
        checks.append(check_equivariance(pipe, max_generation))
    checks.append(None)
    checks.append(check_time_average(pipe, max_generation))
    checks.append(check_taylor_oracle(pipe, max_generation))
    return checks
