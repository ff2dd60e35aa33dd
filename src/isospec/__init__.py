"""Isoperimetric spectra of finite Markov chains on directed graphs.

Exact computation of the mean isoperimetric constants iota_n / iota~_n with
witnesses, pi-weighted Laplacian spectra, sign-graph (nodal) analysis,
Cheeger-type and Courant-Hilbert-type inequality checks, and graph
homomorphism comparison bounds, all at desk scale with rational arithmetic.
"""

__version__ = "0.1.0"

from .calculus import (
    CombinatorialLaplacian,
    combinatorial_laplacian,
    divergence,
    duval_reiner_sides,
    gradient,
    gradient_norm1,
    inner_pi,
    laplacian_apply,
    laplacian_matrix,
)
from .chains import (
    MarkovChain,
    build_chain,
    lazy_max_degree_kernel,
    natural_walk,
    reversibilize,
)
from .documents import parse_chain, parse_graph, parse_map
from .errors import (
    CapExceeded,
    ConvergenceError,
    FrameNotOrthonormal,
    InvalidDocument,
    InvalidFamily,
    IsospecError,
    KernelError,
    NoNowherezeroStationary,
    PreconditionUnmet,
)
from .graphs import (
    Graph,
    SubsetFamily,
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    make_graph,
    path_graph,
    petersen_graph,
    subset_family,
    three_clique_graph,
)
from .homomorphism import (
    ComparisonConstants,
    HomWitness,
    comparison_check,
    comparison_constants,
    courant_hilbert_check,
    no_hom_search,
    validate_hom,
)
from .isoperimetry import (
    IsoperimetricReport,
    PositiveOrthonormalFamily,
    classical_cheeger,
    enumerate_families,
    family_objective,
    gamma_objective,
    isoperimetric_constant,
    isoperimetric_table,
    level_set_rounding,
    structural_inequalities_check,
    supergeometric_classify,
)
from .nodal import (
    CompatibleSet,
    SignDecomposition,
    bipolar_part_check,
    cheeger_lower,
    cheeger_upper,
    compatible_set_search,
    duval_reiner_bound,
    excessive_check,
    gen_cheeger_probe,
    sign_decomposition,
)
from .spectral import SpectrumReport, ky_fan_value, spectrum
