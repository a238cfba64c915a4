"""Random residue sequences.

Integer rows whose periodic autocorrelation becomes two-valued (nonzero
peak, zero everywhere else) after reduction modulo a suitable prime.
The package builds the seed rows, computes exact autocorrelation
profiles, finds the prime moduli by factoring the gcd of the off-peak
values, certifies the result, and sweeps starting primes to regenerate
the reference tables.

The loading rule: `import rrseq` loads no submodule, each public name
loads its module at first use, and each `rrseq` subcommand loads what it
uses.  `_PUBLIC` maps each public name to the submodule that defines it;
the module `__getattr__` below imports that submodule at the name's
first lookup and binds the name here, so the next lookup is a plain
attribute.  A caller that wants a submodule itself, such as
`rrseq.numtheory`, imports it.  The package imports the standard library
only.
"""

from importlib import import_module

# Each public name, in `__all__` order, and the submodule that defines it.
_PUBLIC = {
    "BinaryWitness": "witness",
    "CorrProfile": "correlation",
    "FactorBudget": "numtheory",
    "Factorization": "numtheory",
    "ModulusSearchOutcome": "modsearch",
    "RRCertificate": "verify",
    "SearchStatus": "modsearch",
    "SelectionPolicy": "modsearch",
    "SweepRow": "modsearch",
    "autocorr_mod": "correlation",
    "build_seed": "sequence",
    "check_rr": "verify",
    "enumerate_binary_ideal": "witness",
    "factorize": "numtheory",
    "find_modulus": "modsearch",
    "gcd_many": "numtheory",
    "gram_check": "verify",
    "is_prime": "numtheory",
    "periodic_autocorr": "correlation",
    "primes_up_to": "numtheory",
    "scan_masks": "witness",
    "sweep": "modsearch",
}


def __getattr__(name: str):
    """A name of `_PUBLIC`, from its submodule, imported now (PEP 562)."""
    module = _PUBLIC.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC})


__version__ = "0.1.0"

__all__ = list(_PUBLIC)
