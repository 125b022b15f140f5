"""Twisted complexes over the graded ring Z[u], deg u = 1 - n.

This models the wrapped category of T*S^n generated by a cotangent fiber:
objects are finite sums of shifted copies of the fiber with a strictly
triangular degree-1 differential whose entries are integer multiples of
powers of u.  The zero-section is the cone on u.  Since deg u < 0, each
hom degree between two such objects is a finite free Z-module, so window
cohomology and the geometricity obstruction are exact computations.
Twisted complexes are valid by construction: the constructor checks that
delta is strictly triangular, degree-pure and squares to zero.
"""

from functools import cache

from .intlin import IntMatrix, require_ints, snf
from .zcomplex import FreeComplex, HomologyProfile, homology, json_field


class WindowError(ValueError):
    """The requested degree window cannot certify the computation."""


class InvalidTwisted(ValueError):
    """The data does not describe a twisted complex over the sphere ring."""


class SphereRing:
    """The graded ring Z[u] with deg u = 1 - n, n >= 2."""

    __slots__ = ("n",)

    def __init__(self, n):
        require_ints([n], "sphere dimension")
        if n < 2:
            raise ValueError("sphere dimension must be >= 2")
        self.n = n

    @property
    def deg_u(self):
        return 1 - self.n

    def __eq__(self, other):
        return isinstance(other, SphereRing) and self.n == other.n

    def __hash__(self):
        return hash(("SphereRing", self.n))

    def __repr__(self):
        return f"SphereRing(n={self.n})"


class TwistedComplexA:
    """Sum of shifted fiber copies A[s_i] with triangular differential.

    `delta` maps (target, source) index pairs to (coeff, power): the
    component from summand `source` into summand `target` is
    coeff * u^power, nonzero only for target > source.  Degree purity pins
    the power: power * (1 - n) + shifts[source] - shifts[target] = 1.
    Raises InvalidTwisted unless delta is a valid twisted differential.
    """

    __slots__ = ("ring", "shifts", "delta")

    def __init__(self, ring, shifts, delta=None):
        self.ring = ring
        self.shifts = tuple(shifts)
        require_ints(self.shifts, "shifts")
        clean = {}
        for (tgt, src), (coeff, power) in (delta or {}).items():
            require_ints((tgt, src, coeff, power), "delta entries")
            if coeff == 0:
                continue
            if not (0 <= src < len(self.shifts) and 0 <= tgt < len(self.shifts)):
                raise InvalidTwisted("delta index out of range")
            if power < 0:
                raise InvalidTwisted("negative power of u")
            clean[(tgt, src)] = (coeff, power)
        self.delta = clean
        require_valid_twisted(self)

    def expected_power(self, tgt, src):
        """The unique power of u legal at this slot, or None."""
        num = 1 - self.shifts[src] + self.shifts[tgt]
        den = self.ring.deg_u
        if num % den != 0:
            return None
        p = num // den
        return p if p >= 0 else None

    def __eq__(self, other):
        return (isinstance(other, TwistedComplexA)
                and self.ring == other.ring and self.shifts == other.shifts
                and self.delta == other.delta)

    def __repr__(self):
        return f"TwistedComplexA(n={self.ring.n}, shifts={list(self.shifts)})"

    def to_json_dict(self):
        return {
            "n": self.ring.n,
            "shifts": list(self.shifts),
            "delta": [{"row": tgt, "col": src, "coeffs": [[power, coeff]]}
                      for (tgt, src), (coeff, power) in sorted(self.delta.items())],
        }

    @classmethod
    def from_json_dict(cls, data):
        ring = SphereRing(data["n"])
        delta, seen = {}, set()
        for ent in json_field(data, "delta", list):
            tgt, src = ent["row"], ent["col"]
            coeffs = json_field(ent, "coeffs", list)
            # Checked before the terms are merged, where 1.0 would pass as 1.
            require_ints([tgt, src, *(x for term in coeffs for x in term)],
                         "delta entries")
            if (tgt, src) in seen:
                raise InvalidTwisted(f"repeated delta entry ({tgt}, {src})")
            seen.add((tgt, src))
            terms = {}
            for power, coeff in coeffs:
                terms[power] = terms.get(power, 0) + coeff
            terms = {p: c for p, c in terms.items() if c}
            if not terms:
                continue
            if len(terms) > 1:
                raise InvalidTwisted("entry mixes distinct powers of u")
            ((power, coeff),) = terms.items()
            delta[(tgt, src)] = (coeff, power)
        return cls(ring, json_field(data, "shifts", list), delta)


def require_valid_twisted(T):
    """Raise InvalidTwisted unless delta is strictly triangular,
    degree-pure, and squares to 0."""
    for (tgt, src), (_, power) in T.delta.items():
        if tgt <= src or T.expected_power(tgt, src) != power:
            raise InvalidTwisted("not a valid twisted complex")
    # delta * delta = 0, composing monomials in Z[u]: degree purity pins
    # the power of every path, so only the coefficients can cancel.
    leaving = {}
    for (tgt, mid), (a, _) in T.delta.items():
        leaving.setdefault(mid, []).append((tgt, a))
    square = {}
    for (mid, src), (b, _) in T.delta.items():
        for tgt, a in leaving.get(mid, ()):
            square[(tgt, src)] = square.get((tgt, src), 0) + a * b
    if any(square.values()):
        raise InvalidTwisted("not a valid twisted complex")


def from_zcomplex(C, ring):
    """Image of a finite cochain complex under tensoring with the fiber.

    One summand A[-k] per generator in degree k, delta entries the integer
    differential entries times u^0.
    """
    shifts = []
    index = {}
    for k in C.support():
        for j in range(C.rank(k)):
            index[(k, j)] = len(shifts)
            shifts.append(-k)
    delta = {}
    for k, mat in C.differentials.items():
        for i in range(mat.rows):
            for j in range(mat.cols):
                v = mat.at(i, j)
                if v:
                    delta[(index[(k + 1, i)], index[(k, j)])] = (v, 0)
    return TwistedComplexA(ring, shifts, delta)


def zero_section(ring):
    """The cone on u: summands A[n], A[0] with delta = u."""
    return TwistedComplexA(ring, [ring.n, 0], {(1, 0): (1, 1)})


def fiber(ring):
    """The cotangent fiber itself: a single unshifted summand."""
    return TwistedComplexA(ring, [0])


class WindowProfile(HomologyProfile):
    """Hom-complex cohomology restricted to the degree window [lo, hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi, data):
        super().__init__(data)
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        return (isinstance(other, WindowProfile) and self.lo == other.lo
                and self.hi == other.hi and self.data == other.data)

    def __repr__(self):
        return f"WindowProfile([{self.lo}, {self.hi}], {self.data})"

    def to_json_dict(self):
        return {"window": [self.lo, self.hi],
                "profile": super().to_json_dict()}


def _hom_basis(T1, T2, d):
    """Basis of the degree-d hom group: triples (i, j, p) for a map
    u^p: summand i of T1 -> summand j of T2."""
    den = T1.ring.deg_u
    out = []
    for i, s in enumerate(T1.shifts):
        for j, t in enumerate(T2.shifts):
            num = d - s + t
            if num % den == 0 and num // den >= 0:
                out.append((i, j, num // den))
    return out


def _hom_differential(T1, T2, basis_d, basis_next, d):
    """Matrix of the hom differential delta2 o phi - (-1)^d phi o delta1."""
    pos = {b: r for r, b in enumerate(basis_next)}
    sign = -1 if d % 2 else 1
    rows = len(basis_next)
    cols = len(basis_d)
    out = [0] * (rows * cols)
    for c, (i, j, p) in enumerate(basis_d):
        for (tgt, src), (coeff, power) in T2.delta.items():
            if src == j:
                out[pos[(i, tgt, p + power)] * cols + c] += coeff
        for (tgt, src), (coeff, power) in T1.delta.items():
            if tgt == i:
                out[pos[(src, j, p + power)] * cols + c] -= sign * coeff
    return IntMatrix(rows, cols, out)


def _hom_complex(T1, T2, lo, hi):
    """The hom complex as a FreeComplex over [lo, hi], with basis lists.

    Each degree is finite rank (deg u < 0 pins at most one power per
    summand pair), so the computation is exact with no truncation.
    """
    bases = {d: _hom_basis(T1, T2, d) for d in range(lo, hi + 1)}
    degrees = {d: len(b) for d, b in bases.items() if b}
    diffs = {}
    for d in range(lo, hi):
        if degrees.get(d, 0) and degrees.get(d + 1, 0):
            diffs[d] = _hom_differential(T1, T2, bases[d], bases[d + 1], d)
    return FreeComplex(degrees, diffs), bases


def hom_cohomology(T1, T2, window):
    """Cohomology of hom(T1, T2) on the window, exact at every degree."""
    lo, hi = window
    if lo > hi:
        raise WindowError("empty window")
    if T1.ring != T2.ring:
        raise ValueError("objects live over different rings")
    cx, _ = _hom_complex(T1, T2, lo - 1, hi + 1)
    prof = homology(cx)
    data = {k: prof.data[k] for k in prof.data if lo <= k <= hi}
    return WindowProfile(lo, hi, data)


def _end_generator(ring):
    """A cocycle generating H^n(End(zero_section)) = Z, as a coefficient
    vector over the degree-n hom basis, normalized so that the
    inclusion-then-projection component has coefficient +1."""
    zs = zero_section(ring)
    n = ring.n
    cx, bases = _hom_complex(zs, zs, n - 1, n + 1)
    cycles = snf(cx.d(n))
    # Rows r.. of V^-1 give a cycle's coordinates in the kernel basis.
    coords = IntMatrix.from_rows(cycles.V_inv.to_rows()[cycles.rank():],
                                 cols=cx.rank(n))
    res = snf(coords * cx.d(n - 1))
    z = coords.rows
    if z - res.rank() != 1:
        raise InvalidTwisted("H^n(End(zero_section)) is not free of rank 1")
    gen = cycles.kernel().apply(res.U_inv.column(z - 1))
    # Fix the sign via the u^0 component A[n] -> A[0].
    marker = bases[n].index((0, 1, 0))
    if gen[marker] == 0:
        raise InvalidTwisted("generator misses the marker component")
    if gen[marker] < 0:
        gen = [-v for v in gen]
    return gen, bases[n]


def x_action_test(T, window):
    """Necessary geometricity condition from the zero-section action.

    Computes M = hom(zero_section, T) and the right action of a generator
    x of H^n(End(zero_section)); returns True ("pass") iff the induced map
    H^k(M) -> H^{k+n}(M) vanishes for every k with both degrees in the
    window.  Objects in the image of tensoring with the fiber must pass.
    """
    lo, hi = window
    n = T.ring.n
    if hi - lo < n:
        raise WindowError("window must span at least n degrees")
    if not T.shifts:
        return True
    zs = zero_section(T.ring)
    x_vec, x_basis = _end_generator(T.ring)
    x_comps = {}
    for coeff, (i, j, p) in zip(x_vec, x_basis):
        if coeff:
            x_comps[(j, i)] = (coeff, p)  # keyed by (target, source)
    cx, bases = _hom_complex(zs, T, lo - 1, hi + 1)
    # Each differential is factored once, for its kernel and as a target.
    factored = cache(lambda j: snf(cx.d(j)))

    for k in range(lo, hi - n + 1):
        if not bases.get(k):
            continue
        basis_k = bases[k]
        basis_kn = bases[k + n]
        pos = {b: r for r, b in enumerate(basis_kn)}
        rows, cols = len(basis_kn), len(basis_k)
        act = [0] * (rows * cols)
        for c, (i, j, p) in enumerate(basis_k):
            # phi o x: precompose with components of x into zs summand i.
            for (tgt, src), (coeff, power) in x_comps.items():
                if tgt == i:
                    act[pos[(src, j, p + power)] * cols + c] += coeff
        X = IntMatrix(rows, cols, act)
        Z = factored(k).kernel()
        target = factored(k + n - 1)
        for col in range(Z.cols):
            w = X.apply(Z.column(col))
            if any(w) and target.solve(w) is None:
                return False
    return True
