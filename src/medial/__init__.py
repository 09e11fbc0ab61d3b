"""Medial layer graphs of abstract 4-polytopes of type {3, q, 3}.

Build the symmetry group of a polytope either from a finitely presented
string C-group (Todd-Coxeter enumeration) or from 2x2 matrices over an
Eisenstein residue ring, extract the bipartite cubic incidence graph of its
1- and 2-faces, and classify that graph as t-transitive (with sign) or
semisymmetric of type (t1, t2).
"""

from .catalog import (
    SchlafliType,
    ToroidalParams,
    simplex_toroidal_1296,
    toroidal_map,
    universal_locally_toroidal,
)
from .eisenstein import (
    EisensteinInt,
    Factorization,
    ResidueRing,
    ScalarGroup,
    admissible_subgroups,
    factor,
    parse_eisenstein,
    vertex_count,
)
from .fpgroup import CosetTable, Presentation, coset_enumeration
from .graphsym import (
    Arc,
    BipartiteCubicGraph,
    Classification,
    automorphism_group,
    classify,
    gray_oracle,
    is_isomorphic,
    t_arc_count,
    validate,
)
from .matgroup import (
    MatrixGroup,
    ResidueMatrix,
    find_generators,
    generate_group,
    regularity_test,
)
from .permgroup import Permutation, PermutationGroup
from .polytope import (
    PolytopeHandle,
    RotationGroup,
    StringCGroup,
    handle_from_matrix_group,
    handle_from_presentation,
    is_directly_regular,
    medial_layer_graph,
    self_duality_test,
    validate_rotation_group,
    validate_string_cgroup,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
