"""Exact invariants of torus manifolds over simple polytopes with holes."""

from .charpair import (
    CharacteristicPair,
    ValidationReport,
    VertexFrame,
    all_signs,
    is_positive_omniorientation,
    validate,
    vertex_frame,
)
from .dim4 import (
    HomologyProfile,
    IntersectionData,
    StructureFlags,
    chern_numbers_dim4,
    homology_groups,
    intersection_form,
    structure_flags,
)
from .exactlin import RatVector, det_exact, smith_normal_form, unimodular_inverse
from .genus import (
    ChiYPolynomial,
    chi_y,
    find_generic_nu,
    vertex_index,
)
from .mac import (
    EmbeddingChart,
    KernelData,
    embedding_chart,
    freeness_check,
    kernel_data,
)
from .polytope import (
    HalfSpace,
    PolytopeWithHoles,
    SimplePolytope,
    build_polytope,
    build_with_holes,
    place_holes,
    polygon_from_vertices,
)

__version__ = "0.1.0"

__all__ = [
    "CharacteristicPair",
    "ChiYPolynomial",
    "EmbeddingChart",
    "HalfSpace",
    "HomologyProfile",
    "IntersectionData",
    "KernelData",
    "PolytopeWithHoles",
    "RatVector",
    "SimplePolytope",
    "StructureFlags",
    "ValidationReport",
    "VertexFrame",
    "all_signs",
    "build_polytope",
    "build_with_holes",
    "chern_numbers_dim4",
    "chi_y",
    "det_exact",
    "embedding_chart",
    "find_generic_nu",
    "freeness_check",
    "homology_groups",
    "intersection_form",
    "is_positive_omniorientation",
    "kernel_data",
    "place_holes",
    "polygon_from_vertices",
    "smith_normal_form",
    "structure_flags",
    "unimodular_inverse",
    "validate",
    "vertex_frame",
    "vertex_index",
]
