import itertools

import pytest

from locweinstein.intlin import IntMatrix
from locweinstein.localize import CategoryClass, PrimeSet, \
    category_nontrivial_over
from locweinstein.weinstein import (HandlePresentation, SubdomainSpec,
                                    classify_presentation, embeddable,
                                    embedding_witness, induced_spec,
                                    lattice_chain, p_handle_disks,
                                    replace_handles, subdomain_classify)
from locweinstein.zcomplex import (FreeComplex, elementary_complex, homology)


def test_moore_disk_matches_elementary():
    # The Moore-space disk with torsion parameter m is Z[d+1] --m--> Z[d].
    C = elementary_complex(6, 0)
    assert C == FreeComplex({-1: 1, 0: 1}, {-1: IntMatrix.from_rows([[6]])})
    assert homology(C).data == {0: (0, (6,))}


def test_moore_disk_unit_is_acyclic():
    assert homology(elementary_complex(1, 0)).is_trivial()


def test_moore_disk_fiber_representative():
    C = elementary_complex(0, 0)
    assert homology(C).data == {-1: (1, ()), 0: (1, ())}


def test_p_handle_disks():
    assert p_handle_disks(PrimeSet([2, 3])) == \
        [elementary_complex(2, 0), elementary_complex(3, 0)]
    assert p_handle_disks(PrimeSet()) == []
    assert p_handle_disks(PrimeSet([0])) == [FreeComplex({0: 1})]


def test_replace_handles_empty_set_is_identity():
    H = HandlePresentation.standard("X", 3)
    H2 = replace_handles(H, PrimeSet())
    assert H2.critical_handles == H.critical_handles
    assert classify_presentation(H2) == CategoryClass("full")


def test_replace_handles_carves_disks():
    H = replace_handles(HandlePresentation.standard("X", 2), PrimeSet([2]))
    spec = induced_spec(H)
    assert spec.carved == [elementary_complex(2, 0), elementary_complex(2, 0)]
    assert subdomain_classify(spec) == CategoryClass("localized", PrimeSet([2]))


def test_replace_handles_flexibilization():
    H = replace_handles(HandlePresentation.standard("X", 2), PrimeSet([0]))
    assert classify_presentation(H) == CategoryClass("trivial")


def test_subdomain_classify_examples():
    assert subdomain_classify(SubdomainSpec("T*S^3", [elementary_complex(6, 1)])) \
        == CategoryClass("localized", PrimeSet([2, 3]))
    assert subdomain_classify(SubdomainSpec("T*S^3")) == CategoryClass("full")
    assert subdomain_classify(SubdomainSpec("T*S^3", [FreeComplex({0: 1})])) \
        == CategoryClass("trivial")


def test_embeddable_examples():
    assert embeddable(PrimeSet([2, 3]), PrimeSet([2]))
    assert not embeddable(PrimeSet([2]), PrimeSet([3]))
    assert embeddable(PrimeSet([0]), PrimeSet([7, 13]))


def test_embeddable_order_properties():
    universe = [PrimeSet(s) for r in range(4)
                for s in itertools.combinations((2, 3, 5), r)]
    for P in universe:
        assert embeddable(P, P)
    for P in universe:
        for Q in universe:
            for R in universe:
                if embeddable(P, Q) and embeddable(Q, R):
                    assert embeddable(P, R)
            if embeddable(P, Q) and embeddable(Q, P):
                assert P == Q


def test_embedding_witness():
    assert embedding_witness(PrimeSet([2]), PrimeSet([3])) == 3
    assert embedding_witness(PrimeSet([2, 3]), PrimeSet([2])) is None
    assert embedding_witness(PrimeSet([7]), PrimeSet([7, 11])) == 11


def test_embedding_witness_obstruction_semantics():
    sets = [PrimeSet(s, z)
            for z in (False, True)
            for r in range(3)
            for s in itertools.combinations((2, 3, 5), r)]
    H = HandlePresentation.standard("X", 1)
    for P in sets:
        for Q in sets:
            w = embedding_witness(P, Q)
            if embeddable(P, Q):
                assert w is None
            else:
                cls_p = classify_presentation(replace_handles(H, P))
                cls_q = classify_presentation(replace_handles(H, Q))
                assert category_nontrivial_over(cls_p, w)
                assert not category_nontrivial_over(cls_q, w)


def test_connected_sum():
    # Decorating one handle with P and another with Q carves the
    # union of the two prime sets, with 0 absorbing.
    for P, Q, want in [(PrimeSet([2]), PrimeSet([3]), PrimeSet([2, 3])),
                       (PrimeSet([5]), PrimeSet(), PrimeSet([5])),
                       (PrimeSet([0]), PrimeSet([5]), PrimeSet([0, 5]))]:
        assert P.union(Q) == want
        assert classify_presentation(HandlePresentation("X", [P, Q])) == \
            CategoryClass.from_prime_set(want)


def test_connected_sum_monoid_laws():
    a, b, c = PrimeSet([2]), PrimeSet([3, 5]), PrimeSet([0])
    assert a.union(b) == b.union(a)
    assert a.union(b).union(c) == a.union(b.union(c))
    assert a.union(PrimeSet()) == a
    assert a.union(PrimeSet([0])).contains_zero


def test_lattice_chain():
    chain = lattice_chain([2, 3, 5])
    assert chain == [PrimeSet(), PrimeSet([2]), PrimeSet([2, 3]),
                     PrimeSet([2, 3, 5])]
    assert lattice_chain([]) == [PrimeSet()]
    for small, big in zip(chain, chain[1:]):
        assert embeddable(big, small)
        assert not embeddable(small, big)


def test_lattice_chain_rejects_duplicates():
    with pytest.raises(ValueError):
        lattice_chain([2, 2])


def test_dichotomy_grid():
    # triviality over F_q iff q in P or 0 in P
    H = HandlePresentation.standard("X", 2)
    elements = (2, 3, 5, 7, 0)
    for r in range(len(elements) + 1):
        for sub in itertools.combinations(elements, r):
            P = PrimeSet(sub)
            cls = classify_presentation(replace_handles(H, P))
            for q in (2, 3, 5, 7, 11):
                expected = not (q in P.primes or P.contains_zero)
                assert category_nontrivial_over(cls, q) == expected
