import random

import pytest

from locweinstein.intlin import IntMatrix
from locweinstein.zcomplex import (ChainMap, FreeComplex, HomologyProfile,
                                   InvalidComplex, cone, direct_sum,
                                   elementary_complex, euler_characteristic,
                                   homology, scalar_map, shift, validate,
                                   zero_map)
from conftest import random_complex


def test_validate_single_generator():
    assert validate(FreeComplex({0: 1}))


def test_validate_rejects_nonzero_square():
    C = FreeComplex({0: 1, 1: 1, 2: 1},
                    {0: IntMatrix.from_rows([[1]]),
                     1: IntMatrix.from_rows([[1]])})
    assert not validate(C)


def test_validate_elementary():
    assert validate(elementary_complex(6, 0))


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
    bad = ChainMap(C, C, {-1: IntMatrix.from_rows([[1]])})
    with pytest.raises(InvalidComplex):
        cone(bad)


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
