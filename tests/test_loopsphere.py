import pytest
from sympy import factorint

from locweinstein.loopsphere import (InvalidTwisted, SphereRing,
                                     TwistedComplexA, WindowError,
                                     WindowProfile, fiber, from_zcomplex,
                                     hom_cohomology, x_action_test,
                                     zero_section)
from locweinstein.zcomplex import (FreeComplex, elementary_complex, homology)
from locweinstein.intlin import IntMatrix
from conftest import random_complex


R3 = SphereRing(3)


def test_ring_basics():
    assert R3.deg_u == -2
    assert SphereRing(5).deg_u == -4
    with pytest.raises(ValueError):
        SphereRing(1)


def test_expected_power():
    zs = zero_section(R3)
    assert zs.expected_power(1, 0) == 1
    assert zs.expected_power(0, 1) is None  # would need u^{-1}


def test_validate_rejects_upper_triangular():
    with pytest.raises(InvalidTwisted):  # u^1 cannot map A[0] to A[3]
        TwistedComplexA(R3, [0, 3], {(1, 0): (1, 1)})
    with pytest.raises(InvalidTwisted):  # strictly lower triangular only
        TwistedComplexA(R3, [0, 3], {(0, 1): (1, 1)})


def test_validate_rejects_wrong_power():
    with pytest.raises(InvalidTwisted):
        TwistedComplexA(R3, [3, 0], {(1, 0): (1, -1)})
    with pytest.raises(InvalidTwisted):
        TwistedComplexA(R3, [3, 0], {(1, 0): (1, 2)})


def test_validate_rejects_nonsquare_zero():
    # three fiber summands u^0 -> u^0 with nonvanishing composite
    with pytest.raises(InvalidTwisted):
        TwistedComplexA(R3, [2, 1, 0], {(1, 0): (1, 0), (2, 1): (1, 0)})
    S = TwistedComplexA(R3, [2, 1, 1, 0],
                        {(1, 0): (1, 0), (2, 0): (-1, 0),
                         (3, 1): (1, 0), (3, 2): (1, 0)})
    assert len(S.delta) == 4


def test_fiber_and_zero_section_are_valid():
    assert fiber(R3).delta == {}
    assert zero_section(R3).delta == {(1, 0): (1, 1)}
    assert zero_section(SphereRing(6)).shifts == (6, 0)


def test_from_zcomplex_matches_by_hand():
    T = from_zcomplex(elementary_complex(6, 0), R3)
    assert T.shifts == (1, 0)
    assert T.delta == {(1, 0): (6, 0)}


def test_from_zcomplex_random_is_valid(rng):
    for _ in range(25):
        C = random_complex(rng)
        T = from_zcomplex(C, R3)
        assert len(T.shifts) == sum(C.degrees.values())


def test_json_round_trip():
    zs = zero_section(R3)
    assert TwistedComplexA.from_json_dict(zs.to_json_dict()) == zs
    with pytest.raises(InvalidTwisted):
        TwistedComplexA.from_json_dict(
            {"n": 3, "shifts": [3, 0],
             "delta": [{"row": 1, "col": 0, "coeffs": [[1, 1], [0, 2]]}]})


def test_fiber_self_hom():
    # End(fiber) = Z[u]: Z in degrees 0, 1-n, 2(1-n), ...
    prof = hom_cohomology(fiber(R3), fiber(R3), (-5, 5))
    assert prof.data == {0: (1, ()), -2: (1, ()), -4: (1, ())}


def test_zero_section_self_hom_is_sphere_cohomology():
    for n in (3, 4, 6):
        ring = SphereRing(n)
        zs = zero_section(ring)
        prof = hom_cohomology(zs, zs, (-2 * n, 2 * n))
        assert prof.data == {0: (1, ()), n: (1, ())}


def test_hom_window_errors():
    with pytest.raises(WindowError):
        hom_cohomology(fiber(R3), fiber(R3), (2, 1))
    with pytest.raises(ValueError):
        hom_cohomology(fiber(R3), fiber(SphereRing(4)), (0, 1))


def test_window_profile_accessors():
    prof = hom_cohomology(zero_section(R3), zero_section(R3), (-1, 4))
    assert prof.free_rank(3) == 1
    assert prof.free_rank(2) == 0
    assert prof.torsion(3) == ()
    assert prof.support() == [0, 3]
    assert prof.to_json_dict()["window"] == [-1, 4]


def merged_profile(C, d, n):
    """Independent model: hom(fiber, C tensor fiber)^d = (+)_{p>=0}
    H^{d + p(n-1)}(C), merging torsion by multiset."""
    H = homology(C).data
    free, tors = 0, []
    p = 0
    while True:
        k = d + p * (n - 1)
        if H and k > max(H):
            break
        f, t = H.get(k, (0, ()))
        free += f
        tors.extend(t)
        p += 1
        if not H:
            break
    return free, primary_parts(tors)


def primary_parts(torsion):
    # compare groups, not invariant factors: Z/12 = Z/3 (+) Z/4
    return sorted(p ** e for m in torsion for p, e in factorint(m).items())


def test_hom_from_fiber_tensor_formula(rng):
    for _ in range(20):
        C = random_complex(rng, max_rank=4)
        T = from_zcomplex(C, R3)
        prof = hom_cohomology(fiber(R3), T, (-8, 8))
        for d in range(-8, 9):
            f, t = prof.data.get(d, (0, ()))
            ef, et = merged_profile(C, d, 3)
            assert f == ef, (d, prof.data)
            assert primary_parts(t) == et


def test_x_action_fails_on_zero_section():
    assert x_action_test(zero_section(R3), (-4, 4)) is False
    assert x_action_test(zero_section(SphereRing(6)), (-7, 7)) is False


def test_x_action_passes_on_fiber_images(rng):
    assert x_action_test(fiber(R3), (-4, 4)) is True
    for _ in range(15):
        C = random_complex(rng, max_rank=4)
        assert x_action_test(from_zcomplex(C, R3), (-9, 9)) is True


def test_x_action_window_too_small():
    with pytest.raises(WindowError):
        x_action_test(zero_section(R3), (0, 2))


def test_x_action_empty_object():
    assert x_action_test(TwistedComplexA(R3, []), (-4, 4)) is True


def test_x_action_rejects_invalid():
    with pytest.raises(InvalidTwisted):
        TwistedComplexA(R3, [2, 1, 0], {(1, 0): (1, 0), (2, 1): (1, 0)})
