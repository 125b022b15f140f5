"""Queries that read only invariant factors never replay a certificate.

`snf` keeps S and its operation log; U, V and their inverses are replayed
from the log by `intlin._replay` on first read.  Patching that helper to
raise shows which callers read certificates.
"""

import io
import random

import pytest

from locweinstein import intlin
from locweinstein.cli import run
from locweinstein.decompose import ElementarySummand, elementary_decomposition
from locweinstein.localize import (PrimeSet, classify_disks, field_homology,
                                   localized_homology, quasi_iso)
from locweinstein.loopsphere import (SphereRing, hom_cohomology, x_action_test,
                                     zero_section)
from locweinstein.zcomplex import homology
from conftest import conjugated_sum
from test_cli import GOLDEN

SUMMANDS = [ElementarySummand("torsion", 0, 6), ElementarySummand("free", 1),
            ElementarySummand("torsion", -1, 4), ElementarySummand("acyclic", 0),
            ElementarySummand("torsion", 1, 9)]
# Quasi-isomorphic to SUMMANDS: Z/6 = Z/2 + Z/3, and the acyclic part drops.
SPLIT = [ElementarySummand("torsion", 0, 2), ElementarySummand("torsion", 0, 3),
         ElementarySummand("free", 1), ElementarySummand("torsion", -1, 4),
         ElementarySummand("torsion", 1, 9)]
TORSION = SUMMANDS[:1] + SUMMANDS[2:]


def replay_refused(*args):
    raise AssertionError("certificate replayed")


def answers(C, D, E, zs):
    out = io.StringIO()
    code = run(["homology", str(GOLDEN / "homology_moore.json")], stdout=out)
    return [homology(C), localized_homology(C, PrimeSet([2])),
            quasi_iso(C, D), quasi_iso(C, E, PrimeSet([2, 3])),
            classify_disks([C]), classify_disks([E]), field_homology(C, 3),
            hom_cohomology(zs, zs, (-6, 6)), (code, out.getvalue())]


def test_invariant_factor_queries_never_replay(monkeypatch):
    # Disguising the summands inverts unimodular matrices, which replays.
    rng = random.Random(7)
    inputs = [conjugated_sum(rng, s) for s in (SUMMANDS, SPLIT, TORSION)]
    want = answers(*inputs, zero_section(SphereRing(3)))
    monkeypatch.setattr(intlin, "_replay", replay_refused)
    assert answers(*inputs, zero_section(SphereRing(3))) == want
    assert want[2] is True and want[3] is False
    assert want[-1] == (0, (GOLDEN / "homology_moore.out").read_text())


def test_certified_queries_do_replay(monkeypatch):
    C = conjugated_sum(random.Random(7), SUMMANDS)
    zs = zero_section(SphereRing(3))
    monkeypatch.setattr(intlin, "_replay", replay_refused)
    with pytest.raises(AssertionError, match="replayed"):
        elementary_decomposition(C)
    with pytest.raises(AssertionError, match="replayed"):
        x_action_test(zs, (-6, 6))
