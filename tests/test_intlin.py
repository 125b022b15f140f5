import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from locweinstein.intlin import (DimensionError, IntMatrix,
                                 inverse_unimodular, kernel_basis, snf,
                                 solve)
from conftest import random_matrix


def check_snf(M):
    res = snf(M)
    assert res.U * M * res.V == res.S
    # An integer two-sided inverse proves U and V unimodular.
    assert res.U * res.U_inv == IntMatrix.identity(M.rows)
    assert res.V * res.V_inv == IntMatrix.identity(M.cols)
    diag = res.diagonal()
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert nonzero == diag[:len(nonzero)], "zeros must come last"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # off-diagonal entries vanish
    for i in range(res.S.rows):
        for j in range(res.S.cols):
            if i != j:
                assert res.S.at(i, j) == 0
    return res


def test_snf_identity():
    I = IntMatrix.identity(2)
    res = check_snf(I)
    assert res.S == I
    assert res.U == I
    assert res.V == I


def test_snf_example():
    # gcd of entries is 2 and |det| = 8, so the invariant factors are 2, 4
    res = check_snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert res.diagonal() == [2, 4]


def test_snf_zero_matrix():
    res = check_snf(IntMatrix.zeros(2, 3))
    assert res.S == IntMatrix.zeros(2, 3)
    assert res.U == IntMatrix.identity(2)
    assert res.V == IntMatrix.identity(3)


def test_snf_degenerate_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        check_snf(IntMatrix.zeros(rows, cols))


def test_snf_random():
    rng = random.Random(1)
    for _ in range(200):
        M = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), 50)
        check_snf(M)


def test_snf_matches_sympy_invariant_factors():
    rng = random.Random(5)
    for _ in range(200):
        M = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), 50)
        want = [abs(int(f)) for f in
                invariant_factors(Matrix(M.to_rows()), domain=ZZ) if f]
        assert check_snf(M).invariant_factors() == want


CERTIFICATES = ("U", "V", "U_inv", "V_inv")


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    return IntMatrix(rows, cols, draw(st.lists(
        st.integers(-50, 50), min_size=rows * cols, max_size=rows * cols)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(), st.permutations(CERTIFICATES))
def test_replayed_certificates(M, order):
    res = check_snf(M)
    want = [abs(int(f)) for f in
            invariant_factors(Matrix(M.to_rows()), domain=ZZ) if f] \
        if M.rows and M.cols else []
    assert res.invariant_factors() == want
    # Each certificate is replayed on its own first read, in any order.
    again = snf(M)
    for name in order:
        assert getattr(again, name) == getattr(res, name), name


def test_snf_certificates_dense_40():
    M = random_matrix(random.Random(40), 40, 40, 9)
    res = snf(M)
    assert res.U * M * res.V == res.S
    assert res.U * res.U_inv == IntMatrix.identity(40)


def test_snf_result_solve_many_right_hand_sides():
    rng = random.Random(6)
    for _ in range(50):
        M = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 10)
        res = snf(M)
        for _ in range(4):
            b = M.apply([rng.randint(-5, 5) for _ in range(M.cols)])
            x = res.solve(b)
            assert x == solve(M, b)
            assert M.apply(x) == b
        b = [rng.randint(-5, 5) for _ in range(M.rows)]
        assert res.solve(b) == solve(M, b)
    with pytest.raises(DimensionError):
        snf(IntMatrix.from_rows([[2, 3]])).solve([1, 2])


def test_inverse_unimodular_rejects():
    with pytest.raises(ValueError, match="singular"):
        inverse_unimodular(IntMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="not unimodular"):
        inverse_unimodular(IntMatrix.from_rows([[2]]))
    with pytest.raises(DimensionError):
        inverse_unimodular(IntMatrix.zeros(1, 2))


def test_kernel_injective():
    assert kernel_basis(IntMatrix.from_rows([[2]])).cols == 0


def test_kernel_difference():
    K = kernel_basis(IntMatrix.from_rows([[1, -1]]))
    assert K.cols == 1
    v = K.column(0)
    assert v in ([1, 1], [-1, -1])


def test_kernel_zero_map():
    K = kernel_basis(IntMatrix.zeros(1, 2))
    assert K.cols == 2
    assert K * inverse_unimodular(K) == IntMatrix.identity(2)


def test_kernel_properties():
    rng = random.Random(2)
    for _ in range(100):
        M = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 20)
        K = kernel_basis(M)
        assert (M * K).is_zero()
        assert K.cols == M.cols - snf(M).rank()
        # saturation: every kernel vector has integral coordinates in K
        if K.cols:
            coeffs = [rng.randint(-3, 3) for _ in range(K.cols)]
            v = K.apply(coeffs)
            assert solve(K, v) is not None


def test_solve_scalar():
    assert solve(IntMatrix.from_rows([[2]]), [4]) == [2]
    assert solve(IntMatrix.from_rows([[2]]), [3]) is None


def test_solve_bezout():
    x = solve(IntMatrix.from_rows([[2, 3]]), [1])
    assert x is not None
    assert 2 * x[0] + 3 * x[1] == 1


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve(IntMatrix.from_rows([[2, 3]]), [1, 2])


def test_solve_random_consistency():
    rng = random.Random(3)
    for _ in range(100):
        M = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 10)
        x0 = [rng.randint(-5, 5) for _ in range(M.cols)]
        b = M.apply(x0)
        x = solve(M, b)
        assert x is not None
        assert M.apply(x) == b


def test_inverse_unimodular():
    rng = random.Random(4)
    from conftest import random_unimodular
    for _ in range(50):
        n = rng.randint(1, 6)
        U = random_unimodular(rng, n)
        assert U * inverse_unimodular(U) == IntMatrix.identity(n)


def test_matrix_shape_errors():
    with pytest.raises(DimensionError):
        IntMatrix(2, 2, [1, 2, 3])
    with pytest.raises(DimensionError):
        IntMatrix.from_rows([[1, 2], [3]])
