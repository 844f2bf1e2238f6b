"""Symmetrized last-passage percolation: exact laws, tableau combinatorics,
and classical-group matrix averages, cross-checked against Monte Carlo.

The package exports the library counterparts of the CLI commands, except
that of `rsk`, symlpp.rsk.rsk, so that symlpp.rsk stays the module.  Everything
else is imported from its module, and the test witnesses from symlpp.oracles.
"""

from .core import ModelSpec
from .lpp import mc_distribution, sample_chunks
from .variants import exact_table, model_rmt_table
from .harness import hammersley_check, verify_model

__all__ = ["ModelSpec", "exact_table", "model_rmt_table", "mc_distribution", "sample_chunks",
           "verify_model", "hammersley_check"]
