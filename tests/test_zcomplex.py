import random

import pytest
from hypothesis import given, settings, strategies as st

from locweinstein.intlin import IntMatrix
from locweinstein.zcomplex import (ChainMap, FreeComplex, HomologyProfile,
                                   InvalidComplex, cone, direct_sum,
                                   elementary_complex, euler_characteristic,
                                   homology, scalar_map, shift, zero_map)
from conftest import random_complex


def test_validate_single_generator():
    assert FreeComplex({0: 1}).degrees == {0: 1}


def test_validate_rejects_nonzero_square():
    with pytest.raises(InvalidComplex):
        FreeComplex({0: 1, 1: 1, 2: 1},
                    {0: IntMatrix.from_rows([[1]]),
                     1: IntMatrix.from_rows([[1]])})


def test_validate_elementary():
    assert elementary_complex(6, 0).d(-1) == IntMatrix.from_rows([[6]])


def test_elementary_shape():
    C = elementary_complex(6, 0)
    assert C.degrees == {-1: 1, 0: 1}
    assert C.d(-1) == IntMatrix.from_rows([[6]])


def test_elementary_zero_differential():
    C = elementary_complex(0, 2)
    assert C.degrees == {-3: 1, -2: 1}
    assert C.differentials == {}


def test_elementary_unit_is_acyclic():
    assert homology(elementary_complex(1, 0)).is_trivial()


def test_elementary_rejects_negative():
    with pytest.raises(ValueError):
        elementary_complex(-2, 0)


def test_homology_elementary():
    assert homology(elementary_complex(6, 0)) == HomologyProfile({0: (0, (6,))})


def test_homology_empty():
    assert homology(FreeComplex({})).is_trivial()


def test_homology_moore_placement():
    # torsion [m] lands in degree -d
    for m, d in [(4, 2), (9, -1)]:
        prof = homology(elementary_complex(m, d))
        assert prof.data == {-d: (0, (m,))}


def test_shift_matches_elementary():
    C = shift(elementary_complex(6, 0), 3)
    assert homology(C) == homology(elementary_complex(6, 3))


def test_shift_identity():
    C = elementary_complex(4, 1)
    assert shift(C, 0) == C


def test_shift_reindexes_homology(rng):
    for _ in range(20):
        C = random_complex(rng, max_rank=4)
        k = rng.randint(-3, 3)
        base = homology(C)
        shifted = homology(shift(C, k))
        assert shifted.data == {j - k: v for j, v in base.data.items()}


def test_shift_double_is_flat(rng):
    C = random_complex(rng, max_rank=3)
    assert shift(shift(C, 1), -1) == C


def test_direct_sum_with_zero():
    C = elementary_complex(5, 0)
    assert direct_sum(C, FreeComplex({})) == C


def test_direct_sum_crt():
    S = direct_sum(elementary_complex(2, 0), elementary_complex(3, 0))
    assert homology(S) == HomologyProfile({0: (0, (6,))})


def test_direct_sum_profile_additive(rng):
    # free ranks add; torsion merges per degree
    for _ in range(30):
        C = random_complex(rng, max_rank=3)
        D = random_complex(rng, max_rank=3)
        hs = homology(direct_sum(C, D))
        hc, hd = homology(C), homology(D)
        for k in set(hc.data) | set(hd.data):
            assert hs.free_rank(k) == hc.free_rank(k) + hd.free_rank(k)
            merged = sorted(hc.torsion(k) + hd.torsion(k))
            assert sorted(_primary_parts(hs.torsion(k))) == \
                sorted(_primary_parts(tuple(merged)))


def _primary_parts(torsion):
    from sympy import factorint
    out = []
    for t in torsion:
        for p, e in factorint(t).items():
            out.append(p ** e)
    return out


def test_cone_of_multiplication():
    C = FreeComplex({0: 1})
    cn = cone(scalar_map(C, 5))
    assert homology(cn) == homology(elementary_complex(5, 0))


def test_cone_of_identity_acyclic(rng):
    C = random_complex(rng, max_rank=3)
    assert homology(cone(scalar_map(C, 1))).is_trivial()


def test_cone_of_zero_map(rng):
    for _ in range(20):
        C = random_complex(rng, max_rank=3)
        D = random_complex(rng, max_rank=3)
        cn = cone(zero_map(C, D))
        assert homology(cn) == homology(direct_sum(shift(C, 1), D))


def test_cone_rejects_noncommuting():
    C = elementary_complex(2, 0)
    with pytest.raises(InvalidComplex):
        ChainMap(C, C, {-1: IntMatrix.from_rows([[1]])})


def test_euler_characteristic_elementary():
    for m in (1, 6):
        for d in (-2, 0, 3):
            assert euler_characteristic(elementary_complex(m, d)) == 0


def test_euler_characteristic_point():
    assert euler_characteristic(FreeComplex({0: 1})) == 1


def test_euler_characteristic_additive(rng):
    for _ in range(20):
        C = random_complex(rng, max_rank=4)
        D = random_complex(rng, max_rank=4)
        assert euler_characteristic(direct_sum(C, D)) == \
            euler_characteristic(C) + euler_characteristic(D)


def test_euler_equals_alternating_free_rank(rng):
    for _ in range(20):
        C = random_complex(rng, max_rank=4)
        prof = homology(C)
        chi = sum((-1) ** (k % 2) * prof.free_rank(k) for k in prof.support())
        assert euler_characteristic(C) == chi


def test_homology_basis_change_invariant(rng):
    from conftest import random_unimodular
    from locweinstein.intlin import inverse_unimodular
    for _ in range(20):
        C = random_complex(rng, max_rank=4)
        transforms = {k: random_unimodular(rng, C.rank(k)) for k in C.support()}
        diffs = {}
        for k in C.support():
            t_next = transforms.get(k + 1, IntMatrix.identity(C.rank(k + 1)))
            mat = t_next * C.d(k) * inverse_unimodular(transforms[k])
            if not mat.is_zero():
                diffs[k] = mat
        assert homology(FreeComplex(C.degrees, diffs)) == homology(C)


def test_cone_long_exact_rank_bound(rng):
    for _ in range(20):
        C = random_complex(rng, max_rank=3)
        D = random_complex(rng, max_rank=3)
        cn = cone(zero_map(C, D))
        hc, hd, hcone = homology(C), homology(D), homology(cn)
        for k in hcone.support():
            assert hcone.free_rank(k) <= hc.free_rank(k + 1) + hd.free_rank(k)


def test_json_round_trip(rng):
    import json
    for _ in range(20):
        C = random_complex(rng, max_rank=4)
        blob = json.dumps(C.to_json_dict(), sort_keys=True)
        D = FreeComplex.from_json_dict(json.loads(blob))
        assert D == C
        assert json.dumps(D.to_json_dict(), sort_keys=True) == blob
    # An empty row list is no differential, whatever the ranks around it.
    raw = {"degrees": {"0": 2, "1": 3}, "differentials": {"0": []}}
    assert FreeComplex.from_json_dict(raw) == \
        FreeComplex.from_json_dict({"degrees": raw["degrees"]})


# Complexes are valid by construction: the constructor is the only check.

def _plain_product(a, b):
    """Rows of a * b for row lists a (p x q) and b (q x r)."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@st.composite
def raw_complexes(draw):
    """Ranks of three or four consecutive degrees and small random
    differentials between them, with no regard for d o d."""
    ranks = draw(st.lists(st.integers(0, 3), min_size=3, max_size=4))
    diffs = [draw(st.lists(st.lists(st.integers(-2, 2), min_size=c, max_size=c),
                           min_size=r, max_size=r))
             for c, r in zip(ranks, ranks[1:])]
    return ranks, diffs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw_complexes())
def test_construction_rejects_exactly_nonzero_squares(raw):
    ranks, diffs = raw
    bad = any(any(any(row) for row in _plain_product(b, a))
              for a, b in zip(diffs, diffs[1:]) if a and b)
    degrees = dict(enumerate(ranks))
    mats = {k: IntMatrix(ranks[k + 1], ranks[k],
                         [e for row in rows for e in row])
            for k, rows in enumerate(diffs)}
    if bad:
        with pytest.raises(InvalidComplex):
            FreeComplex(degrees, mats)
    else:
        C = FreeComplex(degrees, mats)
        assert all(C.d(k) == m for k, m in mats.items())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32),
       st.integers(-3, 3), st.integers(-4, 4))
def test_operations_on_valid_complexes_construct(seed_c, seed_d, k, m):
    C = random_complex(random.Random(seed_c), max_rank=3)
    D = random_complex(random.Random(seed_d), max_rank=3)
    assert shift(C, k).degrees == {j - k: r for j, r in C.degrees.items()}
    assert direct_sum(C, D).rank(0) == C.rank(0) + D.rank(0)
    assert isinstance(cone(scalar_map(C, m)), FreeComplex)
