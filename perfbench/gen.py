"""Seeded input generators and the answers they are known to have.

Nothing here imports the library: inputs are plain lists and dicts in the
library's JSON forms, so a faster library can never look like faster
set-up.  Every complex is a direct sum of elementary summands hidden by
unimodular basis changes, which fixes its homology, decomposition and
class in advance.
"""

import random

# Torsion parameters factor into primes <= 5, so expected answers need only
# trial division.
SMALL_M = (2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 25, 30)
# The smallest prime above 2^64: a torsion factor the deterministic
# Miller-Rabin in `_primes` refuses to test.
BIG_PRIME = 2 ** 64 + 13


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------- matrices

def matmul(a, b):
    """Product of two matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def unimodular_pair(rng, n):
    """A random unimodular T and its inverse, built together one
    elementary operation at a time: T <- E T and T^-1 <- T^-1 E^-1."""
    t, tinv = identity(n), identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0 and i != j:
            q = rng.choice((-2, -1, 1, 2))
            t[i] = [a + q * b for a, b in zip(t[i], t[j])]
            for row in tinv:
                row[j] -= q * row[i]
        elif kind == 1:
            t[i], t[j] = t[j], t[i]
            for row in tinv:
                row[i], row[j] = row[j], row[i]
        else:
            t[i] = [-a for a in t[i]]
            for row in tinv:
                row[i] = -row[i]
    return t, tinv


def full_rank_mod_p(rows, p=2_147_483_647):
    """True when the square matrix is invertible mod p, hence over Q."""
    a = [[v % p for v in row] for row in rows]
    n = len(a)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return False
        a[c], a[piv] = a[piv], a[c]
        inv = pow(a[c][c], p - 2, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return True


def dense_matrix(rng, n):
    """A dense n x n matrix with entries in [-100, 100], redrawn until
    nonsingular."""
    while True:
        rows = [[rng.randint(-100, 100) for _ in range(n)] for _ in range(n)]
        if full_rank_mod_p(rows):
            return rows


# ---------------------------------------------------------------- summands
#
# A summand is (kind, d, m) as in decompose.ElementarySummand: "free" is Z
# in degree -d; "torsion"/"acyclic" is Z[d+1] --m--> Z[d], i.e. degrees
# -(d+1) and -d with differential m (m = 1 for acyclic).

def random_summands(rng, lo, hi, rank, free_ok=True):
    """Summands supported in degrees lo..hi with total rank `rank`."""
    out = []
    while rank > 0:
        kinds = ["torsion", "torsion", "acyclic"] + (["free"] if free_ok else [])
        kind = "free" if rank == 1 and free_ok else rng.choice(kinds)
        if rank == 1 and kind != "free":
            break
        if kind == "free":
            out.append(("free", -rng.randint(lo, hi), None))
            rank -= 1
        else:
            top = rng.randint(lo + 1, hi)  # degree -d, so -(d+1) >= lo
            m = rng.choice(SMALL_M) if kind == "torsion" else 1
            out.append((kind, -top, m))
            rank -= 2
    return out


def block_complex(summands):
    """Degrees and block-diagonal differentials of the summands' direct sum."""
    degrees = {}
    slots = []
    for kind, d, m in summands:
        if kind == "free":
            degrees[-d] = degrees.get(-d, 0) + 1
            continue
        lo, hi = -(d + 1), -d
        src, dst = degrees.get(lo, 0), degrees.get(hi, 0)
        degrees[lo], degrees[hi] = src + 1, dst + 1
        slots.append((lo, dst, src, m))
    diffs = {}
    for k, row, col, m in slots:
        mat = diffs.setdefault(k, [[0] * degrees[k] for _ in range(degrees[k + 1])])
        mat[row][col] = m
    return degrees, diffs


def disguised_complex(rng, summands):
    """JSON form of the summands' direct sum after d^k -> T_{k+1} d^k T_k^-1."""
    degrees, diffs = block_complex(summands)
    pairs = {k: unimodular_pair(rng, r) for k, r in degrees.items()}
    out = {}
    for k, mat in sorted(diffs.items()):
        conj = matmul(matmul(pairs[k + 1][0], mat), pairs[k][1])
        if any(any(row) for row in conj):
            out[str(k)] = conj
    return {"degrees": {str(k): r for k, r in sorted(degrees.items())},
            "differentials": out}


def two_term(rows):
    n = len(rows)
    return {"degrees": {"0": n, "1": n}, "differentials": {"0": rows}}


def twisted_image(cx, n):
    """JSON form of from_zcomplex(cx): one summand A[-k] per generator in
    degree k, the differential's entries as coefficients of u^0."""
    index = {}
    shifts = []
    for k in sorted(cx["degrees"], key=int):
        for j in range(cx["degrees"][k]):
            index[(int(k), j)] = len(shifts)
            shifts.append(-int(k))
    delta = []
    for k, rows in sorted(cx["differentials"].items(), key=lambda kv: int(kv[0])):
        k = int(k)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    delta.append({"row": index[(k + 1, i)], "col": index[(k, j)],
                                  "coeffs": [[0, v]]})
    delta.sort(key=lambda e: (e["row"], e["col"]))
    return {"n": n, "shifts": shifts, "delta": delta}


# ---------------------------------------------------------- expected answers

def factor_small(m):
    """Prime factorization {p: e} by trial division (m is small or prime)."""
    out = {}
    p = 2
    while p * p <= m and p < 1000:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1  # only BIG_PRIME is left over here
    return out


def invariant_factors(ms):
    """Invariant factors (>= 2, ascending chain) of the direct sum of Z/m."""
    by_prime = {}
    for m in ms:
        for p, e in factor_small(m).items():
            by_prime.setdefault(p, []).append(e)
    length = max((len(es) for es in by_prime.values()), default=0)
    factors = [1] * length
    for p, es in by_prime.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            factors[length - 1 - i] *= p ** e
    return [f for f in factors if f >= 2]


def strip(m, primes):
    for p in primes:
        while m % p == 0:
            m //= p
    return m


def expected_homology(summands, primes=()):
    """{degree: (free rank, torsion chain)} with the given primes inverted."""
    free, tors = {}, {}
    for kind, d, m in summands:
        if kind == "free":
            free[-d] = free.get(-d, 0) + 1
        elif kind == "torsion":
            tors.setdefault(-d, []).append(strip(m, primes))
    out = {}
    for k in set(free) | set(tors):
        chain = tuple(invariant_factors(tors.get(k, [])))
        if free.get(k, 0) or chain:
            out[k] = (free.get(k, 0), chain)
    return out


def expected_field_ranks(summands, q):
    ranks = {}
    for kind, d, m in summands:
        hit = [-d] if kind == "free" else (
            [-d, -(d + 1)] if kind == "torsion" and m % q == 0 else [])
        for k in hit:
            ranks[k] = ranks.get(k, 0) + 1
    return ranks


def expected_class(disks):
    """CategoryClass.to_json_dict() of classify_disks on these summand lists."""
    primes = set()
    for summands in disks:
        for kind, _d, m in summands:
            if kind == "free":
                return {"class": "trivial", "primes": []}
            if kind == "torsion":
                primes.update(factor_small(m))
    if not primes:
        return {"class": "full", "primes": []}
    return {"class": "localized", "primes": sorted(primes)}
