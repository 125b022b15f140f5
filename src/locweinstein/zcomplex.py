"""Bounded cochain complexes of finitely generated free abelian groups.

Grading convention used throughout the package: Z[d] is a copy of Z placed
in cohomological degree -d, and differentials raise degree by 1.  Shifting
by k sends degree j to degree j - k and multiplies differentials by (-1)^k.

Complexes and chain maps are valid by construction: their constructors
check shapes, d o d = 0 and commutation with d once, so no function that
takes one checks it again.
"""

from .intlin import IntMatrix, parse_int, require_ints, snf

_JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}


def json_field(data, key, kind):
    """data[key], or an empty `kind` when the key is absent, after checking
    that data is a JSON object and the field has the JSON type `kind`."""
    if not isinstance(data, dict):
        raise TypeError("expected a JSON object")
    value = data.get(key, kind())
    if not isinstance(value, kind):
        raise TypeError(f"{key!r} must be {_JSON_TYPES[kind]}")
    return value


class InvalidComplex(ValueError):
    """The data does not describe a cochain complex."""


class FreeComplex:
    """A bounded complex of free Z-modules.

    `degrees` maps degree k to rank(C^k) (only nonzero ranks stored);
    `differentials` maps k to the matrix of d^k: C^k -> C^{k+1}, of shape
    rank(C^{k+1}) x rank(C^k).  Raises InvalidComplex unless d o d = 0.
    """

    __slots__ = ("degrees", "differentials")

    def __init__(self, degrees, differentials=None):
        differentials = differentials or {}
        require_ints([*degrees, *degrees.values(), *differentials],
                     "degrees and ranks")
        self.degrees = {k: r for k, r in degrees.items() if r != 0}
        if any(r < 0 for r in self.degrees.values()):
            raise InvalidComplex("negative rank")
        diffs = {}
        for k, mat in differentials.items():
            if mat.rows != self.rank(k + 1) or mat.cols != self.rank(k):
                raise InvalidComplex(
                    f"differential at degree {k} has shape "
                    f"{mat.rows}x{mat.cols}, expected "
                    f"{self.rank(k + 1)}x{self.rank(k)}")
            if mat.rows and mat.cols and not mat.is_zero():
                diffs[k] = mat
        self.differentials = diffs
        require_valid(self)

    def rank(self, k):
        return self.degrees.get(k, 0)

    def d(self, k):
        """Differential C^k -> C^{k+1}, a zero matrix when not stored."""
        return self.differentials.get(
            k, IntMatrix.zeros(self.rank(k + 1), self.rank(k)))

    def support(self):
        return sorted(self.degrees)

    def __eq__(self, other):
        return (isinstance(other, FreeComplex)
                and self.degrees == other.degrees
                and self.differentials == other.differentials)

    def __repr__(self):
        return f"FreeComplex(degrees={self.degrees})"

    def to_json_dict(self):
        return {
            "degrees": {str(k): r for k, r in sorted(self.degrees.items())},
            "differentials": {str(k): m.to_rows()
                              for k, m in sorted(self.differentials.items())},
        }

    @classmethod
    def from_json_dict(cls, data):
        """Load the JSON form; an empty row list means no differential."""
        degrees = {parse_int(k): r
                   for k, r in json_field(data, "degrees", dict).items()}
        diffs = {}
        for k, rows in json_field(data, "differentials", dict).items():
            k = parse_int(k)
            if not (isinstance(rows, list)
                    and all(isinstance(row, list) for row in rows)):
                raise TypeError(f"differential {k} must be an array of arrays")
            if rows:
                diffs[k] = IntMatrix.from_rows(rows)
        return cls(degrees, diffs)


class ChainMap:
    """A degree-0 cochain map between two FreeComplexes.

    Raises InvalidComplex unless the components commute with d.
    """

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        require_ints(components, "component degrees")
        comps = {}
        for k, mat in components.items():
            if mat.rows != target.rank(k) or mat.cols != source.rank(k):
                raise InvalidComplex(
                    f"component at degree {k} has wrong shape")
            if mat.rows and mat.cols and not mat.is_zero():
                comps[k] = mat
        self.components = comps
        for k in set(source.degrees) | set(target.degrees):
            lhs = self.component(k + 1) * source.d(k)
            if lhs != target.d(k) * self.component(k):
                raise InvalidComplex(
                    "chain map components do not commute with d")

    def component(self, k):
        return self.components.get(
            k, IntMatrix.zeros(self.target.rank(k), self.source.rank(k)))


class HomologyProfile:
    """Per-degree free rank plus invariant-factor torsion list.

    This is a complete quasi-isomorphism invariant for bounded complexes of
    free Z-modules, in canonical form: factors positive, each dividing the
    next, trivial degrees omitted.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        clean = {}
        for k, (free, torsion) in data.items():
            torsion = tuple(torsion)
            if any(t < 2 for t in torsion):
                raise ValueError("torsion invariant factors must be >= 2")
            for a, b in zip(torsion, torsion[1:]):
                if b % a != 0:
                    raise ValueError("torsion list must be a divisibility chain")
            if free or torsion:
                clean[k] = (free, torsion)
        self.data = clean

    def free_rank(self, k):
        return self.data.get(k, (0, ()))[0]

    def torsion(self, k):
        return self.data.get(k, (0, ()))[1]

    def support(self):
        return sorted(self.data)

    def is_trivial(self):
        return not self.data

    def __eq__(self, other):
        return isinstance(other, HomologyProfile) and self.data == other.data

    def __repr__(self):
        return f"HomologyProfile({self.data})"

    def to_json_dict(self):
        return {str(k): {"free": f, "torsion": list(t)}
                for k, (f, t) in sorted(self.data.items())}


def require_valid(C):
    """Raise InvalidComplex unless d^{k+1} d^k = 0 for every k.

    Shapes were checked on entry and an unstored differential is zero, so
    only consecutive stored differentials can compose to something nonzero.
    """
    for k, mat in C.differentials.items():
        nxt = C.differentials.get(k + 1)
        if nxt is not None and not (nxt * mat).is_zero():
            raise InvalidComplex("d o d != 0")


def elementary_complex(m, d):
    """The two-term complex Z[d+1] --m--> Z[d].

    Z in degrees -(d+1) and -d with differential (m).  It is also the
    complex of the shifted Moore-space disk with torsion parameter m:
    m = 1 gives the zero object, m = 0 the fiber representative.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    degrees = {-(d + 1): 1, -d: 1}
    diffs = {-(d + 1): IntMatrix(1, 1, [m])}
    return FreeComplex(degrees, diffs)


def homology(C):
    """Integral cohomology of C as a HomologyProfile, one SNF per differential.

    H^k has free rank rank C^k - rank d^k - rank d^{k-1}, and its torsion
    is the invariant factors >= 2 of d^{k-1}: im d^{k-1} lies in the
    saturated ker d^k, so the torsion of coker d^{k-1} lies there too.
    """
    factors = {k: snf(mat).invariant_factors()
               for k, mat in C.differentials.items()}
    data = {}
    for k in C.support():
        incoming = factors.get(k - 1, [])
        free = C.rank(k) - len(factors.get(k, [])) - len(incoming)
        torsion = tuple(f for f in incoming if f >= 2)
        if free or torsion:
            data[k] = (free, torsion)
    return HomologyProfile(data)


def shift(C, k):
    """The shifted complex C[k]: degree j of C[k] is degree j + k of C,
    with differentials scaled by (-1)^k."""
    sign = -1 if k % 2 else 1
    degrees = {j - k: r for j, r in C.degrees.items()}
    diffs = {j - k: mat.scaled(sign) for j, mat in C.differentials.items()}
    return FreeComplex(degrees, diffs)


def direct_sum(C, D):
    """Block-diagonal direct sum."""
    degrees = {}
    for k in set(C.degrees) | set(D.degrees):
        degrees[k] = C.rank(k) + D.rank(k)
    diffs = {}
    for k in set(C.differentials) | set(D.differentials):
        a, b = C.d(k), D.d(k)
        rows = a.rows + b.rows
        cols = a.cols + b.cols
        out = [0] * (rows * cols)
        for i in range(a.rows):
            for j in range(a.cols):
                out[i * cols + j] = a.at(i, j)
        for i in range(b.rows):
            for j in range(b.cols):
                out[(a.rows + i) * cols + (a.cols + j)] = b.at(i, j)
        diffs[k] = IntMatrix(rows, cols, out)
    return FreeComplex(degrees, diffs)


def cone(f):
    """Mapping cone of a chain map: cone(f)^k = source^{k+1} + target^k,
    differential [[-d_source, 0], [f, d_target]]."""
    C, D = f.source, f.target
    degrees = {}
    for k in set(j - 1 for j in C.degrees) | set(D.degrees):
        r = C.rank(k + 1) + D.rank(k)
        if r:
            degrees[k] = r
    diffs = {}
    for k in degrees:
        rows = C.rank(k + 2) + D.rank(k + 1)
        cols = C.rank(k + 1) + D.rank(k)
        if rows == 0 or cols == 0:
            continue
        dc = C.d(k + 1)
        dd = D.d(k)
        fk = f.component(k + 1)
        out = [0] * (rows * cols)
        for i in range(dc.rows):
            for j in range(dc.cols):
                out[i * cols + j] = -dc.at(i, j)
        for i in range(fk.rows):
            for j in range(fk.cols):
                out[(dc.rows + i) * cols + j] = fk.at(i, j)
        for i in range(dd.rows):
            for j in range(dd.cols):
                out[(dc.rows + i) * cols + (dc.cols + j)] = dd.at(i, j)
        diffs[k] = IntMatrix(rows, cols, out)
    return FreeComplex(degrees, diffs)


def scalar_map(C, m):
    """The chain map m * Id_C."""
    comps = {k: IntMatrix(r, r, [m if i == j else 0
                                 for i in range(r) for j in range(r)])
             for k, r in C.degrees.items()}
    return ChainMap(C, C, comps)


def zero_map(C, D):
    return ChainMap(C, D, {})


def euler_characteristic(C):
    """Alternating sum of ranks."""
    return sum((-1) ** (k % 2) * r for k, r in C.degrees.items())
