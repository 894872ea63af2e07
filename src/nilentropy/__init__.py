"""Exact arithmetic in finitely generated torsion-free nilpotent groups,
with growth measurement under automorphism iteration.

Groups are presented in Mal'cev coordinates of the second kind over a
Hall basis of basic commutators; multiplication, inversion and the scaled
logarithm and exponential are integer polynomial maps compiled once per
group, and a power ``g^n`` is ``exp(n log g)`` through the last two.  On
top of the arithmetic sit automorphisms with spectral reports, metric
tools (BFS balls, box-length proxy), growth series with entropy and
degree fits, and the constructions used by the experiments: quotients,
subgroup lattices, semidirect extensions, and surface-relator quotients.
"""

from .autom import (
    Endomorphism,
    SpectralReport,
    abelianization_matrix,
    apply,
    builtin_automorphism,
    compose,
    graded_matrix,
    identity_endomorphism,
    invert,
    is_automorphism,
    is_homologically_trivial,
    iterate,
    linearization_matrix,
    spectral_report,
)
from .constructions import (
    SemidirectSpec,
    SubgroupLattice,
    free_nilpotent,
    lower_central_series,
    quotient_ranks,
    relator_check,
    semidirect_unipotent,
    subgroup_closure,
    surface_quotient,
    truncate,
    upper_central_dimensions,
    upper_central_lengths,
)
from .growth import (
    DegenerateFitError,
    EntropyEstimate,
    ExponentialSeriesError,
    GrowthEntry,
    GrowthSeries,
    InsufficientDataError,
    PolyFit,
    abelian_comparison,
    distortion_profile,
    entropy_estimate,
    finite_index_experiment,
    growth_series,
    poly_degree_fit,
    quotient_tower,
    series_from_csv,
    series_to_csv,
    unipotent_degree_sweep,
)
from .hall import BasicCommutator, HallBasis
from .nilgroup import (
    BallBudgetExceeded,
    GroupSpec,
    GrowthWarning,
    IntegralityError,
    KaridiBand,
    KaridiEstimate,
    SpecError,
    SpecFormatError,
    TorsionDetected,
    WordExpr,
    bfs_ball,
    commutator,
    conjugate,
    eval_word,
    geodesic_length,
    identity,
    inverse,
    karidi_band,
    karidi_length,
    multiply,
    power,
    project,
    rewrite_mod_last_term,
    spec_from_json,
    spec_to_json,
    vector_from_json,
    vector_to_json,
)

__version__ = "0.1.0"
