"""Splitting a FreeComplex into elementary summands with a certificate.

Every bounded complex of free Z-modules is isomorphic (not merely
quasi-isomorphic) to a direct sum of one-term complexes Z[d] and two-term
complexes Z[d+1] --m--> Z[d].  The splitting proceeds degree by degree:
the kernel of each differential is a saturated sublattice with free image,
so the complement injects into the next degree and its SNF produces the
elementary blocks.
"""

from .intlin import IntMatrix, snf
from ._primes import PrimeSet, prime_divisors
from .zcomplex import FreeComplex, direct_sum, elementary_complex


class ElementarySummand:
    """kind is "free" (Z[d]), "torsion" (Z[d+1] --m--> Z[d], m >= 2) or
    "acyclic" (the m = 1 case)."""

    __slots__ = ("kind", "d", "m")

    def __init__(self, kind, d, m=None):
        if kind not in ("free", "torsion", "acyclic"):
            raise ValueError(f"unknown summand kind {kind!r}")
        if kind == "torsion" and (m is None or m < 2):
            raise ValueError("torsion summand needs m >= 2")
        if kind == "acyclic":
            m = 1
        if kind == "free":
            m = None
        self.kind = kind
        self.d = d
        self.m = m

    def key(self):
        return (self.kind, self.d, self.m)

    def __eq__(self, other):
        return isinstance(other, ElementarySummand) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.kind == "free":
            return f"Free(d={self.d})"
        if self.kind == "acyclic":
            return f"Acyclic(d={self.d})"
        return f"Torsion(d={self.d}, m={self.m})"

    def to_json_dict(self):
        out = {"kind": self.kind, "d": self.d}
        if self.m is not None:
            out["m"] = self.m
        return out

    def to_complex(self):
        if self.kind == "free":
            return FreeComplex({-self.d: 1})
        return elementary_complex(self.m, self.d)


class Decomposition:
    """Summands plus per-degree unimodular basis changes.

    `certificate[k]` maps old coordinates of C^k to new ones; conjugating
    each differential, d' = T_{k+1} * d^k * T_k^{-1}, yields the elementary
    block form recorded in `layout`.  `inverse[k]` is T_k^{-1}, kept so
    that checking the certificate needs no elimination; it is not part of
    the JSON form.  `layout` holds (degree, source_col, target_row, m) for
    each two-term block in the new bases.
    """

    __slots__ = ("summands", "certificate", "inverse", "layout")

    def __init__(self, summands, certificate, inverse, layout):
        self.summands = list(summands)
        self.certificate = dict(certificate)
        self.inverse = dict(inverse)
        self.layout = list(layout)

    def transform(self, k):
        return self.certificate.get(k)

    def block_form(self, k, rows, cols):
        """Expected conjugated differential at degree k."""
        out = [0] * (rows * cols)
        for deg, col, row, m in self.layout:
            if deg == k:
                out[row * cols + col] = m
        return IntMatrix(rows, cols, out)

    def to_json_dict(self):
        return {
            "summands": [s.to_json_dict() for s in self.summands],
            "certificate": {str(k): t.to_rows()
                            for k, t in sorted(self.certificate.items())},
            "layout": [list(entry) for entry in self.layout],
        }


def elementary_decomposition(C):
    """Split C into elementary summands with an exact certificate.

    Degrees are processed in increasing order.  Basis vectors already hit
    by a nonzero block from below lie in the kernel of the next
    differential (m * d(e) = 0 forces d(e) = 0 over Z), so each step only
    rearranges the remaining columns.  Each SNF, U * sub * V = S, updates
    T_k by V^{-1} and T_{k+1} by U, and their inverses by V and U^{-1}.
    """
    support = C.support()
    transforms = {k: IntMatrix.identity(C.rank(k)) for k in support}
    inverses = dict(transforms)
    layout = []
    summands = []

    for k in support:
        rk = C.rank(k)
        rk1 = C.rank(k + 1)
        t_next = transforms.get(k + 1, IntMatrix.identity(rk1))
        d_cur = t_next * C.d(k) * inverses[k]
        free_cols = [j for j in range(rk) if j not in _incoming(layout, k)]
        # Columns of already-paired targets are exactly zero; keep them fixed.
        sub = IntMatrix(rk1, len(free_cols),
                        [d_cur.at(i, j) for i in range(rk1) for j in free_cols])
        res = snf(sub)
        transforms[k] = _embed(res.V_inv, free_cols, rk) * transforms[k]
        inverses[k] = inverses[k] * _embed(res.V, free_cols, rk)
        if k + 1 in transforms:
            transforms[k + 1] = res.U * transforms[k + 1]
            inverses[k + 1] = inverses[k + 1] * res.U_inv
        diag = res.diagonal()
        for idx, col in enumerate(free_cols):
            m = diag[idx] if idx < len(diag) else 0
            if m != 0:
                # Embedding keeps free-column positions, so in the new basis
                # the block sits at (row idx, col free_cols[idx]).
                layout.append((k, col, idx, m))
                kind = "acyclic" if m == 1 else "torsion"
                summands.append(ElementarySummand(kind, -(k + 1), m))
            else:
                summands.append(ElementarySummand("free", -k))
    return Decomposition(summands, transforms, inverses, layout)


def _incoming(layout, k):
    """Row indices at degree k that are targets of a block from k - 1."""
    return {row for (deg, _col, row, _m) in layout if deg + 1 == k}


def _embed(block, cols, n):
    """Extend a unimodular matrix acting on the listed coordinates by the
    identity on the rest."""
    out = IntMatrix.identity(n).to_rows()
    for bi, i in enumerate(cols):
        for bj, j in enumerate(cols):
            out[i][j] = block.at(bi, bj)
    return IntMatrix.from_rows(out, cols=n)


def _is_square(t, n):
    return isinstance(t, IntMatrix) and t.rows == t.cols == n


def verify_certificate(C, decomposition):
    """Check the certificate without any elimination.

    T_k * T_k^{-1} = I proves each T_k unimodular; conjugating C's
    differentials must then yield the recorded block form exactly.  A
    missing, misshapen or inconsistent certificate gives False.
    """
    for deg, col, row, _m in decomposition.layout:
        if not (0 <= col < C.rank(deg) and 0 <= row < C.rank(deg + 1)):
            return False
    checked = {}
    # Descending, so T_{k+1} is checked before it conjugates d^k.
    for k in reversed(C.support()):
        n = C.rank(k)
        t, t_inv = decomposition.transform(k), decomposition.inverse.get(k)
        if not (_is_square(t, n) and _is_square(t_inv, n)) \
                or t * t_inv != IntMatrix.identity(n):
            return False
        t_next = checked.get(k + 1, IntMatrix.identity(C.rank(k + 1)))
        if t_next * C.d(k) * t_inv != decomposition.block_form(
                k, C.rank(k + 1), n):
            return False
        checked[k] = t
    return True


def reassemble(decomposition):
    """Block-diagonal complex built from the summand list."""
    summands = (decomposition.summands
                if isinstance(decomposition, Decomposition) else list(decomposition))
    out = FreeComplex({})
    for s in summands:
        out = direct_sum(out, s.to_complex())
    return out


def prime_content(decomposition):
    """Primes carried by the summands, per the split-closure rule.

    A free summand split-generates everything, reported as {0}; otherwise
    the result is the set of primes dividing any torsion m.  Acyclic
    summands are zero objects and contribute nothing.
    """
    summands = (decomposition.summands
                if isinstance(decomposition, Decomposition) else list(decomposition))
    if any(s.kind == "free" for s in summands):
        return PrimeSet(contains_zero=True)
    primes = set()
    for s in summands:
        if s.kind == "torsion":
            primes.update(prime_divisors(s.m))
    return PrimeSet(primes)
