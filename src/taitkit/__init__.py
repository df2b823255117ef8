"""Chessboard Goeritz forms, flype moves, and flype-orbit search on
alternating link diagrams."""

from .codecs import (
    DiagramDocument,
    load_bundled_table,
    load_table,
    parse_gauss,
    parse_pd_text,
    serialize_pd,
)
from .diagram import (
    Color,
    Coloring,
    Diagram,
    Region,
    build_from_crossing_list,
    color_chessboard,
    crossing_signs,
    is_alternating,
    is_prime_diagram,
    is_reduced,
    mirror_diagram,
    trace_regions,
    writhe,
)
from .flype import FlypeSite, apply_flype, find_flype_sites
from .form_ops import add_twists, block_sum, restrict
from .goeritz import (
    ChessboardSummary,
    Definiteness,
    SymmetricIntForm,
    ValidationReport,
    beta1_chessboard,
    check_identities,
    chessboard_summaries,
    definiteness,
    goeritz_matrix,
    link_determinant,
    slopes,
)
from .orbit import (
    CanonicalCode,
    FlypeRelation,
    OrbitReport,
    Relation,
    canonical_code,
    flype_orbit,
    invariant_vector,
    is_flype_related,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
