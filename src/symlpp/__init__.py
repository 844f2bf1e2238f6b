"""Symmetrized last-passage percolation: exact laws, tableau combinatorics,
and classical-group matrix averages, cross-checked against Monte Carlo."""

from .core import (
    DistributionTable,
    IntMatrix,
    ModelSpec,
    Partition,
    Rational,
    alternating_sum,
    conjugate,
    partitions_in_box,
)
from .lpp import (
    SampleBatch,
    last_passage,
    last_passage_bernoulli,
    mc_distribution,
    sample_batch,
    sample_matrix,
)
from .numerics import (
    GeomInv,
    PolyPlus,
    SymbolSpec,
    det_exact,
    fourier_coefficients,
    pfaffian,
)
from .rmt import (
    ClassFunctionSpec,
    GroupSpec,
    group_average,
    model_rmt_distribution,
    o_average,
    sp_average,
    u_average,
)
from .rsk import Tableau, TableauPair, dual_rsk, evacuate, rsk
from .symfunc import (
    domino_tilable,
    exact_distribution,
    pointreflection_selfdual_sum,
    pointreflection_selfdual_table,
    schur,
    selfdual_schur,
    two_quotient,
)
from .variants import exact_table, model_rmt_table
from .harness import hammersley_check, verify_model

__all__ = [name for name in dir() if not name.startswith("_")]
