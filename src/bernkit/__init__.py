"""Exact-arithmetic toolkit for Bernoulli, Stirling, harmonic and
poly-Bernoulli numbers, with identity and congruence verification suites."""

from .classical import (bernoulli, bernoulli_poly, bernoulli_poly_at, cauchy1,
                        euler_number, hw, worpitzky_bernoulli)
from .congr import check_congruence, prime_sweep, rational_mod
from .fps import Egf, named_series
from .identities import (IdentityCase, SweepBounds, eval_identity,
                         verify_all, verify_identity)
from .polybern import dibernoulli, dibernoulli_at_one, poly_bernoulli
from .seqcore import (binom, binom_int, factorial, harmonic, harmonic_gen,
                      stirling1, stirling2)

__version__ = "0.1.0"

__all__ = [
    "Egf", "IdentityCase", "SweepBounds",
    "bernoulli", "bernoulli_poly", "bernoulli_poly_at", "binom", "binom_int",
    "cauchy1", "check_congruence", "dibernoulli", "dibernoulli_at_one",
    "euler_number", "eval_identity",
    "factorial", "harmonic", "harmonic_gen", "hw",
    "named_series", "poly_bernoulli", "prime_sweep", "rational_mod",
    "stirling1", "stirling2", "verify_all", "verify_identity",
    "worpitzky_bernoulli",
]
