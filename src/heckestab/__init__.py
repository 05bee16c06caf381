"""Exact computations with Iwahori-Hecke algebras of type A at generic q.

Everything is carried out over the rational function field Q(q): no
floating point and no sampled values of q; every rank, solve and verdict
is exact.  The package covers the T-basis algebra itself,
seminormal (Young) representations, Specht module decompositions, and
towers of compatible modules with their induction, degree, weight, and
stability invariants.
"""

from .hecke import (
    HeckeElement,
    ModulePresentation,
    index_rep,
    induce_pair,
    mult,
    regular_representation,
    tau,
)
from .linalg import (
    EchelonBasis,
    ExactMatrix,
    kernel_basis,
    quotient_structure,
    rank,
)
from .partitions import (
    partition_label,
    partitions_of,
    pieri_add,
    row_standard_tableaux,
    stable_multiplicity_oracle,
    syt_count,
    syt_enumerate,
    unpad,
)
from .qfield import ONE, Q, ZERO, Scalar, q_power, scal
from .sequences import (
    ConsistentSequence,
    SequenceMorphism,
    build_M,
    build_M_specht,
    build_Mm,
    check_consistency,
    degrees,
    free_cover,
    generation_degree,
    is_uniformly_stable,
    load_sequence,
    multiplicity_table,
    noetherian_experiment,
    non_finitely_generated,
    phi_a,
    save_sequence,
    seq_kernel,
    shift,
    shift_decompose_Mm,
    span,
    weight,
)
from .specht import (
    character,
    character_table,
    coinvariant_quotient,
    decompose,
    specht_module,
)
from .symgroup import (
    Permutation,
    coset_min_reps,
    double_coset_min_reps,
    double_coset_stabilization,
    permutations_of,
)
from .verify import run_criteria, verify_all

__all__ = [
    "Scalar", "scal", "q_power", "ZERO", "ONE", "Q",
    "ExactMatrix", "EchelonBasis", "rank", "kernel_basis",
    "quotient_structure",
    "Permutation", "permutations_of", "coset_min_reps",
    "double_coset_min_reps", "double_coset_stabilization",
    "partitions_of", "syt_count", "syt_enumerate", "row_standard_tableaux",
    "pieri_add", "unpad", "partition_label", "stable_multiplicity_oracle",
    "HeckeElement", "mult", "tau", "ModulePresentation",
    "regular_representation", "index_rep", "induce_pair",
    "specht_module", "character", "character_table", "decompose",
    "coinvariant_quotient",
    "ConsistentSequence", "SequenceMorphism", "check_consistency",
    "build_M", "build_Mm", "build_M_specht", "non_finitely_generated",
    "span", "generation_degree", "free_cover", "phi_a", "degrees",
    "weight", "multiplicity_table", "is_uniformly_stable",
    "shift", "shift_decompose_Mm", "noetherian_experiment",
    "seq_kernel",
    "save_sequence", "load_sequence",
    "run_criteria", "verify_all",
]
