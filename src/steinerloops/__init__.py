"""Steiner triple systems, their loops, and extension machinery.

The package is organized around three layers:

* :mod:`steinerloops.design_core`: systems, loops, subloops and quotients,
  Veblen points, configuration census, isomorphism search;
* :mod:`steinerloops.schreier`: factor systems and the GF(2) classification
  of central extensions up to equivalence and isomorphism;
* :mod:`steinerloops.steiner_operator`: general extensions through families
  of Latin squares, block completion and the doubling construction.

:mod:`steinerloops.catalog` ships the worked-example fixtures and the
projective/affine generators; :mod:`steinerloops.cli` exposes everything as
the ``steiner`` command.
"""

from .catalog import ag, fixture, fixture_keys, pg
from .design_core import (
    ConfigCensus,
    PermGroup,
    QuotientLoop,
    SteinerLoop,
    Subloop,
    TripleSystem,
    admissible,
    admissible_factorization,
    are_isomorphic,
    automorphisms,
    census,
    check_normal_triple_fano,
    coset_generated_subsystem,
    generated_subloop,
    hyperplanes,
    is_normal,
    is_projective_hyperplane,
    loop_from_system,
    normality_witness,
    quotient,
    subloop,
    system_from_loop,
    validate_system,
    veblen_points,
    veblen_points_pasch,
)
from .schreier import (
    ClassificationReport,
    Cochain1,
    ElemAbelian2,
    FactorSystem,
    apply_aut,
    are_equivalent,
    build_schreier,
    classify,
    coboundary,
    count_nonequivalent,
    enumerate_factor_systems,
    further_veblen,
    hom_set,
    is_coboundary,
    projectivity_threshold,
    veblen_existence,
    zero_factor_system,
)
from .steiner_operator import (
    IsotopyFamily,
    LatinSquare,
    SteinerOperator,
    build_extension,
    complete_from_blocks,
    double,
    double_operator,
    enumerate_symmetric_squares,
    find_equivalence,
    operator_from_extension,
    verify_isotopy_family,
)

__version__ = "0.1.0"
