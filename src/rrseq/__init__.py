"""Random residue sequences.

Integer rows whose periodic autocorrelation becomes two-valued (nonzero
peak, zero everywhere else) after reduction modulo a suitable prime.
The package builds the seed rows, computes exact autocorrelation
profiles, finds the prime moduli by factoring the gcd of the off-peak
values, certifies the result, and sweeps starting primes to regenerate
the reference tables.
"""

from .correlation import CorrProfile, autocorr_mod, periodic_autocorr
from .modsearch import (
    CandidateModulus,
    ModulusSearchOutcome,
    SearchStatus,
    SelectionPolicy,
    SweepRow,
    find_modulus,
    search_prime,
    sweep,
)
from .numtheory import (
    DEFAULT_BUDGET,
    FactorBudget,
    Factorization,
    factorize,
    gcd_many,
    is_prime,
    primes_up_to,
)
from .sequence import (
    ROW_DOUBLING,
    ROW_KINDS,
    ROW_POWERS,
    build_seed,
    doubling_seed,
    power_seed,
)
from .verify import (
    BinaryWitness,
    RRCertificate,
    check_rr,
    enumerate_binary_ideal,
    gram_check,
    scan_masks,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryWitness",
    "CandidateModulus",
    "CorrProfile",
    "DEFAULT_BUDGET",
    "FactorBudget",
    "Factorization",
    "ModulusSearchOutcome",
    "RRCertificate",
    "ROW_DOUBLING",
    "ROW_KINDS",
    "ROW_POWERS",
    "SearchStatus",
    "SelectionPolicy",
    "SweepRow",
    "autocorr_mod",
    "build_seed",
    "check_rr",
    "doubling_seed",
    "enumerate_binary_ideal",
    "factorize",
    "find_modulus",
    "gcd_many",
    "gram_check",
    "is_prime",
    "periodic_autocorr",
    "power_seed",
    "primes_up_to",
    "scan_masks",
    "search_prime",
    "sweep",
]
