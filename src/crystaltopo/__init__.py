"""Exact topological analysis of defective crystal lattices.

Build delta-complexes from Bravais-lattice samples (or explicit cell
lists), compute homology and cohomology over Z, Z/2 and R by exact Smith
reduction, analyze vertex-sampled order-parameter fields for extension
obstructions, and run Kirchhoff consistency checks on the 1-skeleton.
"""

__version__ = "0.1.0"

from .complexes import (
    Cell,
    Chain,
    Cochain,
    DeltaComplex,
    RING_INT,
    RING_MOD2,
    RING_REAL,
    SCHEME_CUBIC,
    SCHEME_TRIANGULAR,
    barycentric_subdivide,
    boundary_map,
    boundary_of_cell,
    build_complex,
    coboundary_map,
    validate_complex,
)
from .errors import (
    AmbiguousSamplingError,
    ComplexBuildError,
    CoverageError,
    CrystalTopoError,
    DefectLocusError,
    DegenerateGeneratorsError,
    DimensionError,
    DocumentError,
    InternalInconsistencyError,
    UnsupportedConfigurationError,
)
from .homology import (
    HomologyGroup,
    OrientabilityReport,
    betti_numbers,
    cohomology,
    euler_characteristic,
    homology,
    homology_generators,
    is_boundary,
    is_cycle,
    are_homologous,
    orientability,
    vertex_components,
)
from .lattice import (
    BOUNDARY_CONSTANT,
    BOUNDARY_FREE,
    BOUNDARY_PERIODIC,
    DefectSpec,
    LatticeSpec,
    apply_constant_boundary,
    apply_defects,
    build_lattice_complex,
    check_generators,
    reciprocal_basis,
    unit_cell_volume,
)
from .network import (
    CurrentLawReport,
    PotentialReport,
    check_current_law,
    potential_check,
)
from .obstruction import (
    ExtensionReport,
    IndexSumReport,
    ObstructionCochain,
    evaluate,
    extend_field,
    index_sum_check,
    obstruction_class,
    obstruction_cochain,
    pair_with_generators,
    verify_cocycle,
)
from .orderfield import (
    CoefficientGroup,
    OrderField,
    OrderSpace,
    boundary_class,
    boundary_classes,
    make_space,
    pi0_classes,
    rp_parity,
    sphere_degree,
    torus_winding,
    winding_number,
)
from .snf import (
    SmithDecomposition,
    smith_normal_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
