import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, nextprime

from locweinstein.localize import (CategoryClass, CompositeModulusError,
                                   PrimeSet, category_nontrivial_over,
                                   classify_disks, field_homology, is_prime,
                                   localized_homology, quasi_iso)
from locweinstein.decompose import elementary_decomposition, reassemble
from locweinstein.zcomplex import (FreeComplex, cone, direct_sum,
                                   elementary_complex, homology, scalar_map,
                                   shift)
from conftest import random_complex


def test_prime_set_canonical():
    P = PrimeSet([5, 2, 2, 3])
    assert P.primes == (2, 3, 5)
    assert not P.contains_zero
    assert PrimeSet([2, 0]).contains_zero


def test_prime_set_rejects_composite():
    with pytest.raises(ValueError):
        PrimeSet([4])


def test_is_prime_deterministic():
    assert is_prime(2) and is_prime(97) and is_prime(2 ** 61 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2 ** 60)
    assert not is_prime(2 ** 64)
    assert is_prime(nextprime(2 ** 64))


def test_classify_prime_above_two_to_the_64():
    p = nextprime(2 ** 64)
    cls = classify_disks([elementary_complex(p, 0)])
    assert cls == CategoryClass("localized", PrimeSet([p]))


def test_localized_homology_strips_two():
    prof = localized_homology(elementary_complex(6, 0), PrimeSet([2]))
    assert prof.data == {0: (0, (3,))}


def test_localized_homology_kills_all():
    prof = localized_homology(elementary_complex(6, 0), PrimeSet([2, 3]))
    assert prof.is_trivial()


def test_localized_homology_empty_set_is_identity(rng):
    for _ in range(20):
        C = random_complex(rng, max_rank=4)
        assert localized_homology(C, PrimeSet()) == homology(C)


def test_localized_homology_rejects_zero():
    with pytest.raises(ValueError):
        localized_homology(elementary_complex(2, 0), PrimeSet([0]))


def test_field_homology_elementary():
    assert field_homology(elementary_complex(6, 0), 2) == {-1: 1, 0: 1}
    assert field_homology(elementary_complex(6, 0), 5) == {}
    assert field_homology(FreeComplex({0: 1}), 7) == {0: 1}


def test_field_homology_rejects_composite():
    with pytest.raises(CompositeModulusError):
        field_homology(FreeComplex({0: 1}), 6)


def universal_coefficients_rank(prof, k, q):
    """Expected F_q rank from the integral profile."""
    return (prof.free_rank(k)
            + sum(1 for t in prof.torsion(k) if t % q == 0)
            + sum(1 for t in prof.torsion(k + 1) if t % q == 0))


def test_universal_coefficients(rng):
    for _ in range(60):
        C = random_complex(rng, max_rank=4)
        prof = homology(C)
        for q in (2, 3, 5, 7):
            fq = field_homology(C, q)
            degrees = set(fq) | set(prof.support()) | \
                {k - 1 for k in prof.support()}
            for k in degrees:
                assert fq.get(k, 0) == universal_coefficients_rank(prof, k, q)


def primary_parts(profile):
    """Per degree: free rank and the sorted prime-power elementary divisors,
    so that direct sums of profiles are plain concatenations."""
    return {k: (profile.free_rank(k),
                sorted(p ** e for t in profile.torsion(k)
                       for p, e in factorint(t).items()))
            for k in profile.support()}


seeds = st.integers(0, 2 ** 32)
prime_sets = st.lists(st.sampled_from([2, 3, 5, 7]), max_size=3).map(PrimeSet)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seeds, seeds, st.integers(-3, 3), prime_sets)
def test_localization_commutes_with_shift_and_sum(seed_c, seed_d, k, P):
    C = random_complex(random.Random(seed_c), max_rank=3)
    D = random_complex(random.Random(seed_d), max_rank=3)
    local_c = localized_homology(C, P)
    assert localized_homology(shift(C, k), P).data == \
        {j - k: h for j, h in local_c.data.items()}
    # C + C puts torsion of both summands in the same degrees.
    for other in (D, C):
        summed = primary_parts(local_c)
        for j, (free, parts) in primary_parts(localized_homology(other, P)).items():
            have_free, have_parts = summed.get(j, (0, []))
            summed[j] = (have_free + free, sorted(have_parts + parts))
        assert primary_parts(localized_homology(direct_sum(C, other), P)) == summed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seeds, st.integers(1, 60), st.booleans(), prime_sets)
def test_scalar_cone_is_trivial_once_its_primes_are_inverted(seed, m, negate, P):
    # Multiplication by m is invertible away from the primes of m.
    C = random_complex(random.Random(seed), max_rank=3)
    P = PrimeSet(list(P) + list(factorint(m)))
    cx = cone(scalar_map(C, -m if negate else m))
    assert localized_homology(cx, P).is_trivial()


def test_quasi_iso_moore_vs_elementary():
    # Z/6 = Z/2 + Z/3: the Moore disk for 6 is a sum of those for 2 and 3.
    assert quasi_iso(elementary_complex(6, 2),
                     direct_sum(elementary_complex(2, 2),
                                elementary_complex(3, 2)))


def test_quasi_iso_distinguishes_torsion():
    assert not quasi_iso(elementary_complex(2, 0), elementary_complex(4, 0))


def test_quasi_iso_after_inverting():
    assert quasi_iso(elementary_complex(2, 0), FreeComplex({}), PrimeSet([2]))


def test_classify_examples():
    assert classify_disks([elementary_complex(6, 1)]) == \
        CategoryClass("localized", PrimeSet([2, 3]))
    assert classify_disks([]) == CategoryClass("full")
    assert classify_disks([FreeComplex({0: 1})]) == CategoryClass("trivial")
    assert classify_disks([elementary_complex(4, 0)]) == \
        CategoryClass("localized", PrimeSet([2]))


def test_classify_invariance(rng):
    for _ in range(25):
        disks = [random_complex(rng, max_rank=3) for _ in range(rng.randint(1, 3))]
        base = classify_disks(disks)
        shifted = disks[:]
        shifted[0] = shift(shifted[0], rng.randint(-2, 2))
        assert classify_disks(shifted) == base
        assert classify_disks(disks + [direct_sum(disks[0], disks[-1])]) == base
        rebuilt = disks[:]
        rebuilt[-1] = reassemble(elementary_decomposition(rebuilt[-1]))
        assert classify_disks(rebuilt) == base


def test_euler_shortcut(rng):
    from locweinstein.zcomplex import euler_characteristic
    for _ in range(40):
        disk = random_complex(rng, max_rank=3)
        if euler_characteristic(disk) != 0:
            assert classify_disks([disk]) == CategoryClass("trivial")


def test_category_nontrivial_over():
    loc = CategoryClass("localized", PrimeSet([2, 3]))
    assert category_nontrivial_over(loc, 5)
    assert not category_nontrivial_over(loc, 2)
    assert not category_nontrivial_over(CategoryClass("trivial"), 7)
    assert category_nontrivial_over(CategoryClass("full"), 2)


def test_category_class_json():
    assert CategoryClass("localized", PrimeSet([3, 2])).to_json_dict() == \
        {"class": "localized", "primes": [2, 3]}
    assert CategoryClass("full").to_json_dict() == {"class": "full", "primes": []}
