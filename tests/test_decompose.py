from collections import Counter

import pytest
from sympy import factorint

from locweinstein.decompose import (Decomposition, ElementarySummand,
                                    elementary_decomposition, prime_content,
                                    reassemble, verify_certificate)
from locweinstein.intlin import IntMatrix
from locweinstein.localize import PrimeSet
from locweinstein.zcomplex import (FreeComplex, direct_sum,
                                   elementary_complex, homology, shift)
from conftest import conjugated_sum, random_complex


def summand_counter(dec):
    return Counter(s.key() for s in dec.summands)


def test_already_elementary():
    dec = elementary_decomposition(elementary_complex(6, 0))
    assert [s.key() for s in dec.summands] == [("torsion", 0, 6)]
    assert verify_certificate(elementary_complex(6, 0), dec)


def test_diagonal_two_three():
    # SNF of diag(2, 3) is diag(1, 6): one acyclic and one Torsion(6) block
    C = FreeComplex({0: 2, 1: 2}, {0: IntMatrix.from_rows([[2, 0], [0, 3]])})
    dec = elementary_decomposition(C)
    assert summand_counter(dec) == Counter(
        {("acyclic", -1, 1): 1, ("torsion", -1, 6): 1})
    assert verify_certificate(C, dec)


def test_single_free_generator():
    dec = elementary_decomposition(FreeComplex({-5: 1}))
    assert [s.key() for s in dec.summands] == [("free", 5, None)]


def test_reassemble_empty():
    assert reassemble(Decomposition([], {}, {}, [])) == FreeComplex({})


def test_reassemble_two_torsion():
    dec = [ElementarySummand("torsion", 0, 2), ElementarySummand("torsion", 0, 3)]
    assert homology(reassemble(dec)).data == {0: (0, (6,))}


def test_round_trip_random(rng):
    for _ in range(150):
        C = random_complex(rng, max_rank=5)
        dec = elementary_decomposition(C)
        assert verify_certificate(C, dec)
        assert homology(reassemble(dec)) == homology(C)


def primary_counter(summands):
    # Decomposing diag(5, 6, 5) yields factors 1, 5, 30, so only the
    # prime-power content per degree is invariant, not the torsion multiset.
    out = Counter()
    for s in summands:
        if s.kind == "free":
            out[("free", s.d)] += 1
        elif s.kind == "torsion":
            for p, e in factorint(s.m).items():
                out[("torsion", s.d, p ** e)] += 1
    return out


def test_idempotent_on_elementary(rng):
    for _ in range(30):
        summands = [ElementarySummand("torsion", rng.randint(-3, 3),
                                      rng.randint(2, 20))
                    for _ in range(rng.randint(1, 4))]
        summands += [ElementarySummand("free", rng.randint(-3, 3))
                     for _ in range(rng.randint(0, 2))]
        C = reassemble(summands)
        dec = elementary_decomposition(C)
        assert primary_counter(dec.summands) == primary_counter(summands)


def test_recovers_disguised_summands(rng):
    # unimodular disguise never changes the summand multiset
    for _ in range(30):
        summands = [ElementarySummand("torsion", 0, 4),
                    ElementarySummand("free", 1),
                    ElementarySummand("acyclic", -1)]
        C = conjugated_sum(rng, summands)
        dec = elementary_decomposition(C)
        assert verify_certificate(C, dec)
        assert summand_counter(dec) == Counter(s.key() for s in summands)


def test_prime_content_torsion():
    assert prime_content([ElementarySummand("torsion", 0, 6)]) == PrimeSet([2, 3])


def test_prime_content_free_absorbs():
    assert prime_content([ElementarySummand("free", 0)]) == \
        PrimeSet(contains_zero=True)


def test_prime_content_acyclic_empty():
    assert prime_content([ElementarySummand("acyclic", 0)]) == PrimeSet()


def test_prime_content_sum_and_shift_invariant(rng):
    for _ in range(20):
        C = random_complex(rng, max_rank=4)
        D = random_complex(rng, max_rank=4)
        pc = prime_content(elementary_decomposition(C))
        pd = prime_content(elementary_decomposition(D))
        ps = prime_content(elementary_decomposition(direct_sum(C, D)))
        assert ps == pc.union(pd)
        k = rng.randint(-2, 2)
        assert prime_content(elementary_decomposition(shift(C, k))) == pc


def test_invalid_complex_rejected():
    from locweinstein.zcomplex import InvalidComplex
    with pytest.raises(InvalidComplex):
        FreeComplex({0: 1, 1: 1, 2: 1},
                    {0: IntMatrix.from_rows([[1]]),
                     1: IntMatrix.from_rows([[1]])})


def tampered(dec, certificate=None, inverse=None, layout=None):
    return Decomposition(dec.summands,
                         dec.certificate if certificate is None else certificate,
                         dec.inverse if inverse is None else inverse,
                         dec.layout if layout is None else layout)


def test_verify_rejects_non_unimodular_transform():
    C = elementary_complex(6, 0)
    dec = elementary_decomposition(C)
    bad = tampered(dec, certificate={**dec.certificate,
                                     -1: IntMatrix.from_rows([[2]])})
    assert verify_certificate(C, bad) is False


def test_verify_rejects_missing_degree():
    C = elementary_complex(6, 0)
    dec = elementary_decomposition(C)
    certificate = dict(dec.certificate)
    del certificate[-1]
    assert verify_certificate(C, tampered(dec, certificate=certificate)) is False


def test_verify_rejects_wrong_layout_entry():
    C = FreeComplex({0: 2, 1: 2}, {0: IntMatrix.from_rows([[2, 0], [0, 3]])})
    dec = elementary_decomposition(C)
    deg, col, row, m = dec.layout[-1]
    for entry in [(deg, col, row, m + 1), (deg, col, row + 5, m),
                  (deg + 7, col, row, m)]:
        bad = tampered(dec, layout=dec.layout[:-1] + [entry])
        assert verify_certificate(C, bad) is False


def test_verify_rejects_missing_or_wrong_inverse(rng):
    C = conjugated_sum(rng, [ElementarySummand("torsion", 0, 4),
                             ElementarySummand("free", 1)])
    dec = elementary_decomposition(C)
    k = C.support()[0]
    inverse = dict(dec.inverse)
    del inverse[k]
    assert verify_certificate(C, tampered(dec, inverse=inverse)) is False
    n = C.rank(k)
    wrong = {**dec.inverse, k: dec.inverse[k] * IntMatrix.identity(n).scaled(-1)}
    assert verify_certificate(C, tampered(dec, inverse=wrong)) is False


def test_inverse_is_not_serialized(rng):
    C = conjugated_sum(rng, [ElementarySummand("torsion", 0, 4)])
    dec = elementary_decomposition(C)
    for k, t in dec.certificate.items():
        assert t * dec.inverse[k] == IntMatrix.identity(C.rank(k))
    assert set(dec.to_json_dict()) == {"summands", "certificate", "layout"}
