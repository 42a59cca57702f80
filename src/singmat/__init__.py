"""Singularity of sparse random zero-one matrices.

Exact linear algebra over GF(2), prime fields, and the rationals;
reproducible samplers for the Bernoulli and combinatorial models;
singularity certificates; kernel structure analysis; closed-form bound
evaluation; and a Monte Carlo threshold harness.
"""

from .bounds import (
    AtomResult,
    DisagreementEstimate,
    binomial_point_mass,
    max_atom_bernoulli,
    max_atom_combinatorial,
    p_even,
    pairing_disagreement_prob,
    union_bound_ber,
    union_bound_comb,
)
from .certify import SingularityCertificate, is_singular_exact, verify_certificate
from .exactla import kernel_gf2, kernel_rational, rank_gf2
from .harness import (
    AutopsyReport,
    CellAggregate,
    ComplementReport,
    DecompositionReport,
    SweepConfig,
    TrialRecord,
    run_sweep,
    subthreshold_autopsy,
    verify_complement,
    verify_lemma21,
)
from .matrices import BitMatrix
from .models import (
    LineReport,
    PairingSample,
    SampleSpec,
    find_duplicate_or_zero_lines,
    sample,
    sample_bernoulli,
    sample_combinatorial,
    sample_pairing,
    sample_row,
)
from .structure import (
    KernelStructureReport,
    MinSupportReport,
    PropertyPredicate,
    analyze_vector,
    enumerate_gf2_kernel_min_support,
    enumerate_modq_bad_vectors,
    eval_predicate,
)

__version__ = "0.1.0"

__all__ = [
    "AtomResult",
    "AutopsyReport",
    "BitMatrix",
    "CellAggregate",
    "ComplementReport",
    "DecompositionReport",
    "DisagreementEstimate",
    "KernelStructureReport",
    "LineReport",
    "MinSupportReport",
    "PairingSample",
    "PropertyPredicate",
    "SampleSpec",
    "SingularityCertificate",
    "SweepConfig",
    "TrialRecord",
    "analyze_vector",
    "binomial_point_mass",
    "enumerate_gf2_kernel_min_support",
    "enumerate_modq_bad_vectors",
    "eval_predicate",
    "find_duplicate_or_zero_lines",
    "is_singular_exact",
    "kernel_gf2",
    "kernel_rational",
    "max_atom_bernoulli",
    "max_atom_combinatorial",
    "p_even",
    "pairing_disagreement_prob",
    "rank_gf2",
    "run_sweep",
    "sample",
    "sample_bernoulli",
    "sample_combinatorial",
    "sample_pairing",
    "sample_row",
    "subthreshold_autopsy",
    "union_bound_ber",
    "union_bound_comb",
    "verify_certificate",
    "verify_complement",
    "verify_lemma21",
]
