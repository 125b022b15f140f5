import random

import pytest

from locweinstein.intlin import IntMatrix, kernel_basis
from locweinstein.zcomplex import FreeComplex, direct_sum


def random_matrix(rng, rows, cols, bound=100):
    return IntMatrix(rows, cols,
                     [rng.randint(-bound, bound) for _ in range(rows * cols)])


def random_unimodular(rng, n, ops=None):
    """Product of elementary row operations; always determinant +-1."""
    rows = IntMatrix.identity(n).to_rows()
    if n == 0:
        return IntMatrix(0, 0, [])
    for _ in range(ops if ops is not None else 2 * n):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            q = rng.choice([-2, -1, 1, 2])
            for c in range(n):
                rows[i][c] += q * rows[j][c]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-v for v in rows[i]]
    return IntMatrix.from_rows(rows, cols=n)


def random_complex(rng, lo=-5, hi=5, max_rank=6, coeff=3, entry_bound=None):
    """A random valid complex: each differential's rows are drawn from the
    saturated left-kernel of the previous one, so d o d = 0 exactly.  With
    `entry_bound`, rows whose entries overflow the bound are redrawn (a
    zero row after ten tries), keeping validity."""
    degrees = {}
    span = sorted(rng.sample(range(lo, hi + 1), rng.randint(1, hi - lo)))
    start, end = span[0], span[-1]
    for k in range(start, end + 1):
        r = rng.randint(0, max_rank)
        if r:
            degrees[k] = r
    diffs = {}
    prev = None
    for k in range(start, end + 1):
        rk, rk1 = degrees.get(k, 0), degrees.get(k + 1, 0)
        if rk == 0 or rk1 == 0:
            prev = None
            continue
        if prev is None:
            allowed = IntMatrix.identity(rk)
        else:
            allowed = kernel_basis(prev.transpose())
        rows = []
        for _ in range(rk1):
            combo = [0] * rk
            for _attempt in range(10):
                combo = [0] * rk
                for c in range(allowed.cols):
                    q = rng.randint(-coeff, coeff)
                    if q:
                        col = allowed.column(c)
                        combo = [a + q * b for a, b in zip(combo, col)]
                if entry_bound is None or all(abs(v) <= entry_bound
                                              for v in combo):
                    break
            else:
                combo = [0] * rk
            rows.append(combo)
        mat = IntMatrix.from_rows(rows, cols=rk)
        diffs[k] = mat
        prev = mat
    return FreeComplex(degrees, diffs)


def conjugated_sum(rng, summands):
    """Direct sum of the given elementary summands, disguised by random
    unimodular basis changes in every degree."""
    C = FreeComplex({})
    for s in summands:
        C = direct_sum(C, s.to_complex())
    from locweinstein.intlin import inverse_unimodular
    transforms = {k: random_unimodular(rng, C.rank(k)) for k in C.support()}
    diffs = {}
    for k in C.support():
        t_next = transforms.get(k + 1, IntMatrix.identity(C.rank(k + 1)))
        mat = t_next * C.d(k) * inverse_unimodular(transforms[k])
        if not mat.is_zero():
            diffs[k] = mat
    return FreeComplex(C.degrees, diffs)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
