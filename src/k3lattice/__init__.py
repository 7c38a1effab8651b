"""Exact-arithmetic toolkit for even integral lattices, rational quadratic
form invariants, and the combinatorics of elliptic fibrations, together with
a registry of machine-checked numeric claims.

Everything computes over Python integers and fractions; there is no floating
point anywhere in the package.
"""

from .lattice import (
    Lattice,
    FiniteQuadraticForm,
    direct_sum,
    discriminant_group,
    hyperbolic,
    orthogonal_complement,
    rank_one,
    rescale,
    root_lattice,
    saturation,
)
from .glue import GlueSpec, adjoin, build_named, even_overlattices, find_isotropic_glue
from .quadform import (
    GLOBAL,
    REAL,
    QuadFormInvariants,
    anisotropic_dimension,
    diagonalize,
    has_k_planes,
    hasse_invariant,
    hilbert_symbol,
    invariants,
    rationally_equivalent,
    witt_index,
)
from .k3embed import (
    build_V,
    definite_isomorphic,
    embed_standard,
    genus_equal,
    transcendental_of,
)
from .lattice_io import LatticeFileError, load_lattice, save_lattice

__all__ = [
    "Lattice",
    "FiniteQuadraticForm",
    "QuadFormInvariants",
    "GlueSpec",
    "LatticeFileError",
    "GLOBAL",
    "REAL",
    "adjoin",
    "anisotropic_dimension",
    "build_V",
    "build_named",
    "definite_isomorphic",
    "diagonalize",
    "direct_sum",
    "discriminant_group",
    "embed_standard",
    "even_overlattices",
    "find_isotropic_glue",
    "genus_equal",
    "has_k_planes",
    "hasse_invariant",
    "hilbert_symbol",
    "hyperbolic",
    "invariants",
    "load_lattice",
    "orthogonal_complement",
    "rank_one",
    "rationally_equivalent",
    "rescale",
    "root_lattice",
    "saturation",
    "save_lattice",
    "transcendental_of",
    "witt_index",
]
