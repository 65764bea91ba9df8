"""Progression-free set construction and certification toolkit.

Exact rational arithmetic throughout: block geometry and weights, slice
decompositions of torus products, shifted embeddings of cyclic-group
products, transfer to {1,...,N}, classical baselines, and exhaustive
verification of every emitted set.
"""

from .baselines import behrend_set, halfbox_set
from .blocks import (
    BuildingBlock,
    DegeneratePieceError,
    NotInBlockError,
    OutsideDomainError,
    halfmod_square,
)
from .budget import BudgetError
from .dsets import DiscreteSet
from .groups import (
    BuildOptions,
    best_slice,
    build_fpn_set,
    build_group_set,
    embed_point,
    fiber_reduce,
    search_shift,
)
from .integers import (
    ParameterError,
    build_integer_set,
    build_integer_set_direct,
    choose_dimension,
    choose_moduli,
    crt_decode,
    crt_encode,
    first_primes,
)
from .slicing import (
    SliceParams,
    in_delta_box,
    in_slice,
    is_progression_mod1,
    midpoint_candidates,
    slice_index_of,
    weight_sum,
)
from .verify import (
    VerificationReport,
    area_oracle,
    check_sweeps,
    density_estimate,
    verify_group_set,
    verify_integer_set,
)

__version__ = "0.1.0"
