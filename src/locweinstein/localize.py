"""Prime localization of homology and the disk classification pipeline.

Localized profiles are computed by transforming integral invariant
factors, never by working over Z[1/P].  Quasi-isomorphism of bounded
complexes of free modules over Z (or a localization) is detected by
comparing homology profiles; over a hereditary ring such complexes are
formal, so this is a complete test.
"""

from ._primes import PrimeSet, is_prime, prime_divisors
from .zcomplex import HomologyProfile, homology

__all__ = [
    "PrimeSet", "is_prime", "prime_divisors",
    "CategoryClass", "localized_homology", "field_homology", "quasi_iso",
    "classify_disks", "category_nontrivial_over", "CompositeModulusError",
]


class CompositeModulusError(ValueError):
    """Field coefficients require a prime modulus."""


class CategoryClass:
    """Quasi-equivalence class of a localized category: full, localized at
    a nonempty zero-free prime set, or trivial."""

    __slots__ = ("kind", "primes")

    def __init__(self, kind, primes=None):
        if kind not in ("full", "localized", "trivial"):
            raise ValueError(f"unknown class kind {kind!r}")
        if kind == "localized":
            if primes is None or primes.contains_zero or not primes.primes:
                raise ValueError("localized class needs a nonempty zero-free prime set")
        else:
            primes = None
        self.kind = kind
        self.primes = primes

    @classmethod
    def from_prime_set(cls, P):
        if P.contains_zero:
            return cls("trivial")
        if not P.primes:
            return cls("full")
        return cls("localized", P)

    def __eq__(self, other):
        return (isinstance(other, CategoryClass)
                and self.kind == other.kind and self.primes == other.primes)

    def __hash__(self):
        return hash((self.kind, self.primes))

    def __repr__(self):
        if self.kind == "localized":
            return f"CategoryClass(localized, {self.primes})"
        return f"CategoryClass({self.kind})"

    def to_json_dict(self):
        out = {"class": self.kind}
        out["primes"] = list(self.primes.primes) if self.primes else []
        return out


def _strip_primes(factor, P):
    for p in P:
        while factor % p == 0:
            factor //= p
    return factor


def localized_homology(C, P):
    """Integral homology with all P-primary torsion removed."""
    if P.contains_zero:
        raise ValueError("localization at 0 is the trivial category")
    base = homology(C)
    data = {}
    for k, (free, torsion) in base.data.items():
        stripped = tuple(t for t in (_strip_primes(t, P) for t in torsion)
                         if t >= 2)
        data[k] = (free, stripped)
    return HomologyProfile(data)


def field_homology(C, q):
    """Per-degree ranks of H^*(C tensor F_q), by mod-q Gaussian elimination."""
    if not is_prime(q):
        raise CompositeModulusError(f"{q} is not prime")
    ranks = {}
    for k in C.support():
        r = (C.rank(k)
             - _mod_rank(C.d(k), q)
             - _mod_rank(C.d(k - 1), q))
        if r:
            ranks[k] = r
    return ranks


def _mod_rank(M, q):
    """Rank of M over F_q."""
    rows = [[e % q for e in M.row(i)] for i in range(M.rows)]
    rank = 0
    col = 0
    while rank < len(rows) and col < M.cols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        rows[rank] = [(v * inv) % q for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def quasi_iso(C, D, P=None):
    """True iff C and D have equal homology profiles after inverting P."""
    if P is None:
        P = PrimeSet()
    return localized_homology(C, P) == localized_homology(D, P)


def classify_disks(disks):
    """Classify the localization determined by a collection of disk complexes.

    Read off each disk's homology, which carries the same information as
    its elementary splitting: Trivial as soon as some disk has free
    homology (a free summand, so that disk split-generates); otherwise
    localized at the union of primes dividing the torsion, which is Full
    when that union is empty.  The answer depends only on the
    split-closure of the collection: it is invariant under
    quasi-isomorphism, shifts and direct sums.
    """
    primes = set()
    for disk in disks:
        prof = homology(disk)
        if any(prof.free_rank(k) for k in prof.support()):
            return CategoryClass("trivial")
        for k in prof.support():
            # Each invariant factor divides the last one.
            primes.update(prime_divisors(prof.torsion(k)[-1]))
    return CategoryClass.from_prime_set(PrimeSet(primes))


def category_nontrivial_over(cls, q):
    """Whether the classified category survives F_q coefficients."""
    if not is_prime(q):
        raise CompositeModulusError(f"{q} is not prime")
    if cls.kind == "trivial":
        return False
    if cls.kind == "localized" and q in cls.primes:
        return False
    return True
