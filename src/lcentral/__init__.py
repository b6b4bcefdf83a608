"""Twisted central L-values of newforms over number fields.

Exact ray class character machinery (Gauss sums, root numbers, Galois
averages) together with a smoothed approximate functional equation for the
L-values themselves, plus the lattice-point counting used to control the
averaged sums.
"""

from .fields import FieldElement, NumberFieldData, nf_load
from .roots import CyclotomicNumber, RootOfUnity

__all__ = [
    "CyclotomicNumber",
    "FieldElement",
    "NumberFieldData",
    "RootOfUnity",
    "nf_load",
]

__version__ = "0.1.0"
