"""Coherent and classical continuous-time transport on Apollonian networks."""

from .dynamics import (
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
    max_return_probability,
    quantum_probability,
)
from .network import (
    GENERATION_CAP,
    CapacityError,
    Network,
    NodePermutation,
    OrbitPartition,
    corner_automorphism,
    corner_group,
    generate_apollonian,
    laplacian,
    orbits,
)
from .spectral import (
    EigenspaceGrouping,
    NumericError,
    Spectrum,
    default_degeneracy_tolerance,
    eigendecompose,
    group_degenerate,
)
from .symmetry import (
    ChiClustering,
    OrbitConsistencyReport,
    cluster_equal_limits,
    orbit_consistency,
)
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ChiClustering",
    "EigenspaceGrouping",
    "GENERATION_CAP",
    "LimitingMatrix",
    "Network",
    "NodePermutation",
    "NumericError",
    "OrbitConsistencyReport",
    "OrbitPartition",
    "Spectrum",
    "TimeGrid",
    "TransitionSnapshot",
    "VerificationReport",
    "classical_probability",
    "closed_form_g1",
    "closed_form_g2",
    "cluster_equal_limits",
    "corner_automorphism",
    "corner_group",
    "default_degeneracy_tolerance",
    "default_revival_window",
    "eigendecompose",
    "evolve_series",
    "finite_time_average",
    "generate_apollonian",
    "group_degenerate",
    "laplacian",
    "limiting_matrix",
    "max_return_probability",
    "orbit_consistency",
    "orbits",
    "quantum_probability",
    "run_verification",
]
