"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Every criterion that admits an independent oracle uses one implemented here
from scratch (fraction-free ranks, mod-q elimination, minor gcds) rather
than the library's own SNF pipeline.
"""

import io
import itertools
import math
import time
from fractions import Fraction
from pathlib import Path
import random

import pytest
from sympy import factorint

from locweinstein.cli import run as cli_run
from locweinstein.decompose import elementary_decomposition, reassemble, \
    verify_certificate
from locweinstein.intlin import IntMatrix, snf
from locweinstein.localize import (CategoryClass, PrimeSet, classify_disks,
                                   category_nontrivial_over, field_homology)
from locweinstein.loopsphere import (SphereRing, from_zcomplex,
                                     hom_cohomology, x_action_test,
                                     zero_section)
from locweinstein.weinstein import (HandlePresentation, classify_presentation,
                                    embeddable, embedding_witness,
                                    replace_handles)
from locweinstein.zcomplex import (elementary_complex, euler_characteristic,
                                   homology)
from conftest import random_complex, random_matrix


def report(number, label, ok, elapsed, limit=None):
    verdict = "PASS" if ok else "FAIL"
    timing = f", {elapsed:.2f}s" + (f" < {limit}s" if limit else "")
    print(f"ACCEPTANCE {number}: {verdict} ({label}{timing})", flush=True)
    assert ok, f"criterion {number} ({label})"
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s"


# --- independent oracle helpers -------------------------------------------


def frac_rank(mat):
    """Rank over Q by plain fraction Gaussian elimination."""
    rows = [[Fraction(mat.at(i, j)) for j in range(mat.cols)]
            for i in range(mat.rows)]
    rank = 0
    for col in range(mat.cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def modq_rank(mat, q):
    """Rank over F_q by mod-q Gaussian elimination."""
    rows = [[mat.at(i, j) % q for j in range(mat.cols)]
            for i in range(mat.rows)]
    rank = 0
    for col in range(mat.cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        rows[rank] = [v * inv % q for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def frac_det(rows):
    """Determinant over Q of a square list-of-lists matrix."""
    n = len(rows)
    rows = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def minor_gcd(mat, r):
    """gcd of all r x r minors; equals the product of invariant factors."""
    if r == 0:
        return 1
    g = 0
    grid = [[mat.at(i, j) for j in range(mat.cols)] for i in range(mat.rows)]
    for rows_sel in itertools.combinations(range(mat.rows), r):
        for cols_sel in itertools.combinations(range(mat.cols), r):
            sub = [[grid[i][j] for j in cols_sel] for i in rows_sel]
            d = frac_det(sub)
            assert d.denominator == 1
            g = math.gcd(g, int(d))
            if g == 1:
                return 1
    return g


def oracle_classify(disks):
    """Independent classification: rational ranks give free homology, mod-q
    ranks detect torsion primes, candidate primes come from minor gcds."""
    has_free = False
    primes = set()
    for C in disks:
        ranks = {k: frac_rank(C.d(k)) for k in C.support()}
        ranks[min(C.support(), default=0) - 1] = 0
        betti = {k: C.rank(k) - ranks.get(k, 0) - ranks.get(k - 1, 0)
                 for k in C.support()}
        if any(betti.values()):
            has_free = True
            continue
        candidates = set()
        for k in C.support():
            g = minor_gcd(C.d(k), frac_rank(C.d(k)))
            candidates |= set(factorint(g))
        for q in candidates:
            qranks = {k: modq_rank(C.d(k), q) for k in C.support()}
            qranks[min(C.support()) - 1] = 0
            for k in C.support():
                if C.rank(k) - qranks.get(k, 0) - qranks.get(k - 1, 0) \
                        > betti[k]:
                    primes.add(q)
                    break
    if has_free:
        return CategoryClass("trivial")
    if primes:
        return CategoryClass("localized", PrimeSet(sorted(primes)))
    return CategoryClass("full")


# --- the nine criteria -----------------------------------------------------


def test_criterion_1_snf_certificates():
    rng = random.Random(101)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        M = random_matrix(rng, rows, cols, bound=100)
        res = snf(M)
        if res.U * M * res.V != res.S:
            ok = False
        if abs(int(frac_det(res.U.to_rows()))) != 1 \
                or abs(int(frac_det(res.V.to_rows()))) != 1:
            ok = False
        diag = [res.S.at(i, i) for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if a < 0 or (b and (a == 0 or b % a)):
                ok = False
        for i in range(rows):
            for j in range(cols):
                if i != j and res.S.at(i, j):
                    ok = False
        if res.rank() != frac_rank(M):
            ok = False
    elapsed = time.perf_counter() - start
    report(1, "SNF certificates, 1000 matrices", ok, elapsed, limit=10)


def test_criterion_2_decomposition_round_trip():
    rng = random.Random(202)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        C = random_complex(rng, lo=-5, hi=5, max_rank=6, entry_bound=50)
        dec = elementary_decomposition(C)
        if not verify_certificate(C, dec):
            ok = False
        if homology(reassemble(dec)) != homology(C):
            ok = False
    elapsed = time.perf_counter() - start
    report(2, "decomposition round trip, 1000 complexes", ok, elapsed,
           limit=60)


def test_criterion_3_universal_coefficients():
    rng = random.Random(303)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        C = random_complex(rng, max_rank=5)
        H = homology(C).data
        for q in (2, 3, 5, 7):
            got = field_homology(C, q)
            degrees = set(H) | {k - 1 for k in H}
            for k in degrees:
                free, tors = H.get(k, (0, ()))
                _, tors_up = H.get(k + 1, (0, ()))
                want = free + sum(1 for m in tors if m % q == 0) \
                    + sum(1 for m in tors_up if m % q == 0)
                if got.get(k, 0) != want:
                    ok = False
            if any(k not in degrees and v for k, v in got.items()):
                ok = False
    elapsed = time.perf_counter() - start
    report(3, "universal coefficients, 500 complexes x q in {2,3,5,7}", ok,
           elapsed)


def test_criterion_4_dichotomy():
    start = time.perf_counter()
    ok = True
    std = HandlePresentation.standard("X", 2)
    for r in range(6):
        for sub in itertools.combinations((2, 3, 5, 7, 0), r):
            P = PrimeSet(sub)
            cls = classify_presentation(replace_handles(std, P))
            for q in (2, 3, 5, 7, 11):
                trivial = not category_nontrivial_over(cls, q)
                if trivial != (q in P.primes or P.contains_zero):
                    ok = False
    elapsed = time.perf_counter() - start
    report(4, "dichotomy over P subsets of {2,3,5,7,0}", ok, elapsed)


def test_criterion_5_classification_oracle():
    rng = random.Random(505)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        disks = [random_complex(rng, lo=-3, hi=3, max_rank=4)
                 for _ in range(rng.randint(1, 3))]
        got = classify_disks(disks)
        if got != oracle_classify(disks):
            ok = False
        if any(euler_characteristic(C) != 0 for C in disks) \
                and got != CategoryClass("trivial"):
            ok = False
    elapsed = time.perf_counter() - start
    report(5, "disk classification vs rank oracle, 500 collections", ok,
           elapsed)


def test_criterion_6_lattice():
    start = time.perf_counter()
    ok = True
    sets = [PrimeSet(sub) for r in range(5)
            for sub in itertools.combinations((2, 3, 5, 0), r)]
    for P in sets:
        for Q in sets:
            want = (set(Q.primes) <= set(P.primes)
                    and not (Q.contains_zero and not P.contains_zero)) \
                or P.contains_zero
            if embeddable(P, Q) != want:
                ok = False
            w = embedding_witness(P, Q)
            if embeddable(P, Q):
                if w is not None:
                    ok = False
            else:
                std = HandlePresentation.standard("X", 1)
                cls_p = classify_presentation(replace_handles(std, P))
                cls_q = classify_presentation(replace_handles(std, Q))
                if w is None or not category_nontrivial_over(cls_p, w) \
                        or category_nontrivial_over(cls_q, w):
                    ok = False
        if not embeddable(P, P):
            ok = False
    for P in sets:
        for Q in sets:
            for R in sets:
                if embeddable(P, Q) and embeddable(Q, R) \
                        and not embeddable(P, R):
                    ok = False
            if not P.contains_zero and not Q.contains_zero \
                    and embeddable(P, Q) and embeddable(Q, P) and P != Q:
                ok = False
    elapsed = time.perf_counter() - start
    report(6, "lattice order on subsets of {2,3,5,0}", ok, elapsed)


def test_criterion_7_sphere_model():
    rng = random.Random(707)
    start = time.perf_counter()
    ok = True
    for n in (3, 6):
        ring = SphereRing(n)
        prof = hom_cohomology(zero_section(ring), zero_section(ring),
                              (-2 * n, 2 * n))
        if prof.data != {0: (1, ()), n: (1, ())}:
            ok = False
        if x_action_test(zero_section(ring), (-n - 1, n + 1)):
            ok = False
    for i in range(500):
        ring = SphereRing(3 if i % 2 else 6)
        C = random_complex(rng, lo=-3, hi=3, max_rank=3)
        if not x_action_test(from_zcomplex(C, ring),
                             (-3 - ring.n, 3 + ring.n)):
            ok = False
    elapsed = time.perf_counter() - start
    report(7, "sphere model, n in {3,6}, 500 fiber images", ok, elapsed,
           limit=120)


def moore_disk_homology(m, d):
    """Closed form: Z in degrees -d-1 and -d for m = 0, nothing for m = 1,
    Z/m in degree -d for m >= 2."""
    if m == 0:
        return {-d - 1: (1, ()), -d: (1, ())}
    if m == 1:
        return {}
    return {-d: (0, (m,))}


def test_criterion_8_moore_disks():
    start = time.perf_counter()
    ok = all(homology(elementary_complex(m, d)).data
             == moore_disk_homology(m, d)
             for m in range(31) for d in range(-5, 6))
    elapsed = time.perf_counter() - start
    report(8, "Moore-disk homology, m in [0,30], d in [-5,5]", ok, elapsed)


def test_criterion_9_cli_golden():
    from test_cli import CASES, GOLDEN, invoke
    start = time.perf_counter()
    ok = len(CASES) + 1 >= 10
    seen = set()
    for argv, expected in CASES:
        code, out, err = invoke(argv)
        if code != 0 or out != (GOLDEN / expected).read_text():
            ok = False
        seen.add(next(a for a in argv
                      if a in ("homology", "decompose", "classify",
                               "embeddable", "chain", "sphere-end",
                               "sphere-geometric")))
    code, out, err = invoke(["homology", "homology_bad.json"])
    if code != 1 or err != (GOLDEN / "homology_bad.err").read_text():
        ok = False
    if seen != {"homology", "decompose", "classify", "embeddable", "chain",
                "sphere-end", "sphere-geometric"}:
        ok = False
    elapsed = time.perf_counter() - start
    report(9, f"CLI golden files, {len(CASES) + 1} pairs, all subcommands",
           ok, elapsed)
