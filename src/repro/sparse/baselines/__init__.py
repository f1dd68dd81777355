"""Comparator solvers for Table I.

The cuBLAS/cuSOLVER loop and the STRUMPACK v6.3.1 model are launch
strategies of the multifrontal GPU factorization
(``multifrontal_factor_gpu(strategy="looped" | "strumpack")``); the
one comparator with a schedule of its own lives here:

* ``superlu_like_factor`` — SuperLU_Dist-style CPU panels + GPU GEMMs.
"""

from .superlu_like import superlu_like_factor

__all__ = ["superlu_like_factor"]
