"""Self-verification checks wiring the whole pipeline together.

Each check recomputes a published quantity (closed forms, revivals,
equipartition, localization, cluster structure) or a structural property
(unitarity, symmetry, equivariance, and the eigendecomposition's residual
H Q - Q E and orthonormality) and compares at a fixed tolerance. Checks are
gated by the generation they need, so the runner executes everything
reachable up to a configured maximum generation. The checks and every CLI
command build their networks, spectra and limiting matrices through
``Pipeline``.

The runner splits the checks in two through ``fork.split``. This process
runs ``check_reconstruction``, the only check that reads a generation above 5
(it holds one N x N array beside the spectrum, for both residuals), which
builds the largest generation first, with the generations it is built from;
a forked child runs every other check and hands back its results, pickled.
On one CPU, or if the child fails, this process runs those checks itself,
after its own. The verdict lists the checks in the same order with the same
values either way, so the verdict's bytes, and any exception raised instead,
do not depend on the CPU count.
"""

from __future__ import annotations

import math
import pickle
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from . import fork
from .dynamics import (
    ENTRY_FLOOR,
    SUM_TOL,
    LimitingMatrix,
    SourceProjections,
    TimeGrid,
    _propagate,
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
from .network import Network, copy_map, corner_group, generate_apollonian, laplacian, orbits
from .spectral import (
    EigenspaceGrouping,
    Spectrum,
    default_degeneracy_tolerance,
    eigendecompose,
    group_degenerate,
    spectrum_from_copies,
)
from .symmetry import cluster_equal_limits, orbit_consistency

_T = TypeVar("_T")

#: Largest generation whose spectrum is one dense solve of its Laplacian; each
#: larger one is built from copies of the one below (``spectrum_from_copies``).
#: Every copy step adds rounding, and at G=7 node 4's eigenspaces beyond the 65
#: that reach it must carry at most (N eps)^2 = 5.9e-26 in all, which
#: ``dynamics.source_projections`` drops. Built from a dense G=5 they carry
#: 1.1e-26; from G=4 2.0e-26, from G=3 4.9e-26 and from G=2 3.1e-26. A dense
#: G=5 (N=124) costs under 2 ms.
DENSE_BASE = 5


@dataclass(frozen=True)
class CheckResult:
    name: str
    generation: int
    passed: bool
    detail: dict


class Pipeline:
    """Caches networks, spectra, groupings, limiting matrices and W_j by generation.

    The one place a generation becomes a network, its Laplacian spectrum, the
    spectrum's degeneracy grouping, the limiting matrix chi and a source's
    projections W_j, for the CLI and for the checks here. A spectrum is one
    dense solve up to ``DENSE_BASE`` and is built from the generation below
    above it. It lives
    in this module, and not in one of its own, because ``bench/traced.py``
    times the layer functions only where ``cli`` and ``verify`` bind them, and
    each method looks them up here when it builds; calls made from another
    module would go untimed.
    """

    def __init__(self) -> None:
        self._built: dict[tuple[str, int], Any] = {}

    def _memo(self, stage: str, g: int, build: Callable[[], _T]) -> _T:
        """``build()``'s result for ``(stage, g)``, built on the first call only."""
        if (stage, g) not in self._built:
            self._built[stage, g] = build()
        return self._built[stage, g]

    def net(self, g: int) -> Network:
        return self._memo("net", g, lambda: generate_apollonian(g))

    def spectrum(self, g: int) -> Spectrum:
        def build() -> Spectrum:
            if g <= DENSE_BASE:
                return eigendecompose(laplacian(self.net(g)))
            net = self.net(g)
            return spectrum_from_copies(self.spectrum(g - 1), self.grouping(g - 1),
                                        copy_map(net), net.edges, eigendecompose)
        return self._memo("spectrum", g, build)

    def grouping(self, g: int) -> EigenspaceGrouping:
        def build() -> EigenspaceGrouping:
            s = self.spectrum(g)
            return group_degenerate(s, default_degeneracy_tolerance(s))
        return self._memo("grouping", g, build)

    def chi(self, g: int) -> LimitingMatrix:
        return self._memo("chi", g, lambda: limiting_matrix(self.spectrum(g), self.grouping(g)))

    def projections(self, g: int, j: int) -> SourceProjections:
        return self._memo(f"projections from {j}", g,
                          lambda: source_projections(self.spectrum(g), self.grouping(g), j))


def _closed_form_errors(pipe: Pipeline, g: int) -> float:
    """Max abs deviation of the coherent numerics from the closed form."""
    n = pipe.net(g).node_count
    grid = TimeGrid(0.0, 4.0 * math.pi, 1000, "linear")
    times = grid.times()
    worst = 0.0
    sources = range(1, n + 1) if g == 1 else (4,)
    for j in sources:
        numeric = np.array(list(evolve_series(pipe.projections(g, j), kind="quantum", grid=grid)))
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
        n = pipe.net(g).node_count
        for j in sources:
            for cycle in range(1, 6):
                t = 2.0 * math.pi * cycle / n
                p = quantum_probability(pipe.projections(g, j), t)[j - 1]
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
    t_star, p_star = max_return_probability(pipe.projections(3, 4), window)
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
    p = pipe.projections(g, 4)
    dev = float(np.abs(classical_probability(p, 100.0) - 1.0 / p.order).max())
    return CheckResult(
        f"classical_equipartition_g{g}", g, dev <= 1e-6, {"max_deviation": dev}
    )


def check_localization(pipe: Pipeline, g: int) -> CheckResult:
    chi = pipe.chi(g)
    n = chi.order
    argmax_ok = bool((np.argmax(chi.entries, axis=0) == np.arange(n)).all())
    above = bool((np.diagonal(chi.entries) > 1.0 / n).all())
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
    """The kernel's rows at sampled sources and times, G <= 5, against a sum over modes.

    The rows come straight from ``dynamics._propagate``, before the checks
    that would raise on them. Each must sum to 1 within ``SUM_TOL``, keep its
    entries above ``ENTRY_FLOOR``, and lie within
    ``2 t spread + (t spread)^2 + 16 N eps`` of the same row summed over every
    eigenpair (E_n, q_n) as computed, which reads no grouping and no W_j. ``spread`` is the largest distance of an
    eigenvalue from its eigenspace's value, the mean of the group (0 for the
    ground): the phase bound of the ``dynamics`` module docstring. Measured
    at these samples, the largest deviation is 9.2 N eps (G=1, t = 39),
    0.07 of its tolerance.
    """
    rng = np.random.default_rng(20240811)
    worst_sum = 0.0
    worst_entry = 0.0
    worst_dev = 0.0
    worst_ratio = 0.0
    top = min(max_g, 5)
    for g in range(0, top + 1):
        s, grouping = pipe.spectrum(g), pipe.grouping(g)
        e, v = s.eigenvalues, s.eigenvectors
        n = s.order
        spread = max(float(np.abs(e[start:stop] - (e[start:stop].mean() if start else 0.0)).max())
                     for start, stop in grouping.groups)
        for _ in range(4):
            j = int(rng.integers(1, n + 1))
            t = float(rng.uniform(0.0, 50.0))
            p = pipe.projections(g, j)
            tol = 2.0 * t * spread + (t * spread) ** 2 + 16.0 * n * float(np.finfo(float).eps)
            modes = {"quantum": np.abs(v @ (np.exp(-1j * t * e) * v[j - 1])) ** 2,
                     "classical": v @ (np.exp(-t * e) * v[j - 1])}
            for kind, reference in modes.items():
                row = _propagate(p.theta, p.weights, np.array([t]), kind)[0]
                worst_sum = max(worst_sum, abs(float(row.sum()) - 1.0))
                worst_entry = min(worst_entry, float(row.min()))
                dev = float(np.abs(row - reference).max())
                worst_dev, worst_ratio = max(worst_dev, dev), max(worst_ratio, dev / tol)
    passed = worst_sum <= SUM_TOL and worst_entry >= ENTRY_FLOOR and worst_ratio <= 1.0
    return CheckResult(
        "property_unitarity_stochasticity",
        top,
        passed,
        {"max_sum_error": worst_sum, "min_entry": worst_entry,
         "max_mode_sum_deviation": worst_dev, "max_deviation_over_tolerance": worst_ratio,
         "tolerance": "2 t spread + (t spread)^2 + 16 N eps"},
    )


def check_pair_symmetry(pipe: Pipeline, max_g: int) -> CheckResult:
    rng = np.random.default_rng(20240812)
    worst = 0.0
    top = min(max_g, 4)
    for g in range(1, top + 1):
        n = pipe.net(g).node_count
        for _ in range(6):
            j, k = (int(v) for v in rng.integers(1, n + 1, size=2))
            t = float(rng.uniform(0.0, 20.0))
            p, p_rev = pipe.projections(g, j), pipe.projections(g, k)
            q = quantum_probability(p, t)[k - 1]
            q_rev = quantum_probability(p_rev, t)[j - 1]
            c = classical_probability(p, t)[k - 1]
            c_rev = classical_probability(p_rev, t)[j - 1]
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
        n = net.node_count
        for sigma in corner_group(net):
            j = int(rng.integers(1, n + 1))
            t = float(rng.uniform(0.0, 20.0))
            row = quantum_probability(pipe.projections(g, j), t)
            mapped = quantum_probability(pipe.projections(g, sigma(j)), t)
            image = np.array(sigma.image) - 1
            worst = max(worst, float(np.abs(row - mapped[image]).max()))
    return CheckResult(
        "property_automorphism_equivariance",
        top,
        worst <= 1e-10,
        {"max_mismatch": worst},
    )


def _eigen_residual(net: Network, s: Spectrum) -> np.ndarray:
    """H Q - Q E, with H Q taken from the edge list.

    Row k of H Q is degree(k) q[k] less the rows of k's neighbours, taken one
    edge at a time: ``q[index]`` would copy 3N x N entries.
    """
    q = s.eigenvectors
    x = np.subtract.outer([len(nbrs) for nbrs in net.neighbors], s.eigenvalues)
    x *= q
    for a, b in net.edges:
        x[a - 1] -= q[b - 1]
        x[b - 1] -= q[a - 1]
    return x


def check_reconstruction(pipe: Pipeline, max_g: int) -> CheckResult:
    """Residuals of H Q = Q E and Q^T Q = I up to max_g, largest generation first.

    The largest build, the biggest transient after this check's own, then runs
    while the fewest other arrays are alive; a max over generations ignores order.
    """
    worst_rec = 0.0
    worst_orth = 0.0
    for g in reversed(range(max_g + 1)):
        s = pipe.spectrum(g)
        q, e = s.eigenvectors, s.eigenvalues
        radius = max(1.0, float(np.abs(e).max()))
        x = _eigen_residual(pipe.net(g), s)
        rec = float(np.abs(x, out=x).max()) / radius
        # The same buffer for Q^T Q - I.
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
        chi = pipe.chi(g)
        j = 4 if g >= 1 else 1
        avg = finite_time_average(pipe.projections(g, j), 2000.0)
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
        for j in range(1, net.node_count + 1):
            for t in (0.25, 1.0):
                spectral = classical_probability(pipe.projections(g, j), t)
                series = _taylor_heat_column(h, j, t)
                worst = max(worst, float(np.abs(spectral - series).max()))
    return CheckResult(
        "property_heat_kernel_series_oracle",
        top,
        worst <= 1e-8,
        {"max_abs_error": worst},
    )


def run_verification(max_generation: int) -> dict:
    """Run every check whose required generation is available.

    Returns the verdict document that ``verify`` prints: ``{"max_generation",
    "passed", "checks": [{"name", "generation", "passed", "detail"}, ...]}``,
    which passes when every check passes.

    The checks are split between this process and one forked child (see the
    module docstring); a check that raises in the child raises again here,
    when this process runs the child's checks itself.

    Raises:
        ValueError: if ``max_generation`` is negative.
        CapacityError: if ``max_generation`` exceeds the cap, before any
            check runs or any process is forked.
    """
    if max_generation < 0:
        raise ValueError("max generation must be non-negative")
    pipe = Pipeline()
    pipe.net(max_generation)  # a CapacityError before any fork
    reconstruction, checks = fork.split(
        lambda: check_reconstruction(pipe, max_generation),
        lambda part: pickle.dump(_other_checks(pipe, max_generation), part),
        pickle.load, lambda: _other_checks(pipe, max_generation))
    checks[checks.index(None)] = reconstruction
    return {
        "max_generation": max_generation,
        "passed": all(bool(c.passed) for c in checks),
        "checks": [{"name": c.name, "generation": c.generation, "passed": bool(c.passed),
                    "detail": dict(c.detail)} for c in checks],
    }


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
