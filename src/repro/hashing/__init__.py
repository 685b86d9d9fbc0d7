"""Pseudo-random hash and ±1 ("ξ") families used by sketches.

This subpackage is the substrate the paper's reference [17] (Rusu & Dobra,
*Pseudo-random number generation for sketch-based estimations*, TODS 2007)
covers: the families of random variables sketches are built from.

Two kinds of objects live here:

* **value hashes** mapping keys to integers — :class:`PolynomialHashFamily`
  (k-wise independent, polynomials over a Mersenne prime) and
  :class:`BucketHashFamily` (maps keys to sketch buckets);
* **sign families** mapping keys to ±1 — :class:`FourWiseSignFamily`
  (degree-3 polynomial construction, the classic AGMS choice) and
  :class:`EH3SignFamily` (the EH3 generator: exactly 3-wise independent,
  extremely fast, and the scheme recommended by [17] for practice).

All families are vectorized over numpy arrays of keys and evaluate one or
more independent *rows* at once, since sketches always need many independent
copies of the basic estimator.
"""

from .families import (
    MERSENNE_P31,
    MERSENNE_P61,
    BucketHashFamily,
    PolynomialHashFamily,
)
from .signs import EH3SignFamily, FourWiseSignFamily, SignFamily

__all__ = [
    "MERSENNE_P31",
    "MERSENNE_P61",
    "PolynomialHashFamily",
    "BucketHashFamily",
    "SignFamily",
    "FourWiseSignFamily",
    "EH3SignFamily",
]
