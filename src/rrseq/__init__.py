"""Random residue sequences.

Integer rows whose periodic autocorrelation becomes two-valued (nonzero
peak, zero everywhere else) after reduction modulo a suitable prime.
The package builds the seed rows, computes exact autocorrelation
profiles, finds the prime moduli by factoring the gcd of the off-peak
values, certifies the result, and sweeps starting primes to regenerate
the reference tables.

The certificates (`rrseq.verify`), the exact profiles
(`rrseq.correlation`) and the mod-2 witness scan (`rrseq.witness`) load
at first use: their public names resolve through the module
`__getattr__` below, which imports the owning module and binds the name
here, so the next lookup is a plain attribute.  The search and the
sweep take no certificate, no witness, and no profile of a doubling
row, so `import rrseq` and a search or sweep of doubling rows compile
none of the three.  The package imports the standard library only.
"""

from importlib import import_module

from .modsearch import (
    ModulusSearchOutcome,
    SearchStatus,
    SelectionPolicy,
    SweepRow,
    find_modulus,
    sweep,
)
from .numtheory import (
    FactorBudget,
    Factorization,
    factorize,
    gcd_many,
    is_prime,
    primes_up_to,
)
from .sequence import build_seed

# Each name loaded at first use, and the submodule that defines it.
_LAZY = {
    "BinaryWitness": "witness",
    "RRCertificate": "verify",
    "check_rr": "verify",
    "enumerate_binary_ideal": "witness",
    "gram_check": "verify",
    "scan_masks": "witness",
    "CorrProfile": "correlation",
    "autocorr_mod": "correlation",
    "periodic_autocorr": "correlation",
}


def __getattr__(name: str):
    """A name of `_LAZY`, from its submodule, imported now (PEP 562)."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "BinaryWitness",
    "CorrProfile",
    "FactorBudget",
    "Factorization",
    "ModulusSearchOutcome",
    "RRCertificate",
    "SearchStatus",
    "SelectionPolicy",
    "SweepRow",
    "autocorr_mod",
    "build_seed",
    "check_rr",
    "enumerate_binary_ideal",
    "factorize",
    "find_modulus",
    "gcd_many",
    "gram_check",
    "is_prime",
    "periodic_autocorr",
    "primes_up_to",
    "scan_masks",
    "sweep",
]
