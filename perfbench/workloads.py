"""The three workloads: seeded inputs, the queries run on them, and the
check each query's answer must pass.

A workload turns its plain-data inputs into library objects in
`convert` (timed as part of set-up) and lists its queries in `queries`.
A query is one top-level library call or one CLI invocation; its `check`
runs outside the timed region and raises `WrongAnswer` on a wrong result.
"""

import collections
import io
import json
import os
import random
import subprocess
import sys

import gen

import locweinstein as lw
from locweinstein import cli


class WrongAnswer(AssertionError):
    """A query returned a result that contradicts its known answer."""


class QueryFailed(Exception):
    """A CLI query exited with an unexpected code or printed a traceback."""


def expect(cond, what):
    if not cond:
        raise WrongAnswer(what)


Query = collections.namedtuple("Query", "label fn check")


def profile(h):
    """HomologyProfile or WindowProfile data as {degree: (free, torsion)}."""
    return {k: (f, tuple(t)) for k, (f, t) in h.data.items()}


def decomposition_homology(dec):
    """Homology implied by a decomposition's summand list."""
    return gen.expected_homology(
        [(s.kind, s.d, s.m) for s in dec.summands])


def decompose_then_verify(C):
    """Two queries sharing one decomposition; verify fails if decompose did."""
    box = {}

    def decompose():
        box["dec"] = lw.elementary_decomposition(C)
        return box["dec"]

    def verify():
        return lw.verify_certificate(C, box.pop("dec"))

    return decompose, verify


def summand_ranks(dec):
    ranks = {}
    for s in dec.summands:
        for k in ([-s.d] if s.kind == "free" else [-s.d, -(s.d + 1)]):
            ranks[k] = ranks.get(k, 0) + 1
    return ranks


# ------------------------------------------------------------ batch-complexes

class BatchComplexes:
    """Many small disguised complexes through every ℤ-level query."""

    name = "batch-complexes"
    COMPLEXES = 120
    GROUP = 3
    PROBE_EVERY = 10  # after every 10th group, the same disks led by a 2^64+13 disk
    LOCALIZE_AT = ((2,), (3,), (2, 3), (5,))

    def __init__(self, root, seed, work):
        rng = gen.rng_for(self.name, seed)
        self.summands, self.raw, self.primes = [], [], []
        for i in range(self.COMPLEXES):
            # Ranks sweep 4..40 in a fixed order; the seed picks the contents.
            rank = 4 + (36 * i) // (self.COMPLEXES - 1)
            sm = gen.random_summands(rng, -3, 3, rank,
                                     free_ok=rng.random() < 2 / 3)
            self.summands.append(sm)
            self.raw.append(gen.disguised_complex(rng, sm))
            self.primes.append(rng.choice(self.LOCALIZE_AT))
        self.groups = []
        self.probes = []  # (summands, raw) of the disks with torsion 2^64+13
        for g in range(self.COMPLEXES // self.GROUP):
            members = list(range(g * self.GROUP, (g + 1) * self.GROUP))
            self.groups.append((None, members))
            if g % self.PROBE_EVERY == self.PROBE_EVERY - 1:
                top = rng.randint(-2, 3)
                sm = [("torsion", -top, gen.BIG_PRIME),
                      ("torsion", -rng.randint(-2, 3), rng.choice(gen.SMALL_M))]
                self.probes.append((sm, gen.disguised_complex(rng, sm)))
                self.groups.append((len(self.probes) - 1, members))

    def convert(self):
        return {
            "complexes": [lw.FreeComplex.from_json_dict(c) for c in self.raw],
            "primes": [lw.PrimeSet(p) for p in self.primes],
            "probes": [lw.FreeComplex.from_json_dict(raw) for _, raw in self.probes],
        }

    def prepare(self, objs):
        pass

    def queries(self, objs):
        out = []
        cxs = objs["complexes"]
        for i, (C, P, sm) in enumerate(zip(cxs, objs["primes"], self.summands)):
            primes = self.primes[i]
            decompose, verify = decompose_then_verify(C)
            out += [
                Query("homology", lambda C=C: lw.homology(C),
                      lambda h, sm=sm: expect(profile(h) == gen.expected_homology(sm),
                                              "homology")),
                Query("decompose", decompose,
                      lambda d, sm=sm, C=C: expect(
                          decomposition_homology(d) == gen.expected_homology(sm)
                          and summand_ranks(d) == C.degrees, "decomposition")),
                Query("verify", verify, lambda ok: expect(ok is True, "certificate")),
                Query("localized",
                      lambda C=C, P=P: lw.localized_homology(C, P),
                      lambda h, sm=sm, primes=primes: expect(
                          profile(h) == gen.expected_homology(sm, primes),
                          "localized homology")),
            ]
            for q in (2, 3):
                out.append(Query(
                    "field", lambda C=C, q=q: lw.field_homology(C, q),
                    lambda r, sm=sm, q=q: expect(
                        r == gen.expected_field_ranks(sm, q), "field homology")))
        for probe, members in self.groups:
            disks = [cxs[j] for j in members]
            known = [self.summands[j] for j in members]
            if probe is not None:
                disks = [objs["probes"][probe]] + disks
                known = [self.probes[probe][0]] + known
            out.append(Query(
                "classify", lambda disks=disks: lw.classify_disks(disks),
                lambda c, known=known: expect(
                    c.to_json_dict() == gen.expected_class(known), "class")))
        return out


# ------------------------------------------------------------ dense-two-term

class DenseTwoTerm:
    """A few large dense Z^n --M--> Z^n: entry growth, not call overhead."""

    name = "dense-two-term"
    SNF_SIZES = (40, 60)
    HOMOLOGY_SIZES = (40,)
    DECOMPOSE_SIZE = 24

    def __init__(self, root, seed, work):
        rng = gen.rng_for(self.name, seed)
        self.raw = {n: gen.dense_matrix(rng, n)
                    for n in self.SNF_SIZES + (self.DECOMPOSE_SIZE,)}
        self.det = {}
        self.factors = {}  # invariant factors of snf answers that passed
        self.passed = {}  # n -> (S, U, V) of the snf answer that passed

    def convert(self):
        mats = {n: lw.IntMatrix.from_rows(self.raw[n]) for n in self.SNF_SIZES}
        cxs = {n: lw.FreeComplex.from_json_dict(gen.two_term(self.raw[n]))
               for n in self.HOMOLOGY_SIZES + (self.DECOMPOSE_SIZE,)}
        return {"mats": mats, "complexes": cxs}

    def _det(self, n):
        # sympy's determinant is the outside reference: |det M| = product of
        # the invariant factors, which with U M V = S makes U, V unimodular.
        if n not in self.det:
            from sympy import ZZ
            from sympy.polys.matrices import DomainMatrix
            self.det[n] = abs(int(DomainMatrix(self.raw[n], (n, n), ZZ).det()))
        return self.det[n]

    def _factors_ok(self, n, factors):
        prod = 1
        for f in factors:
            prod *= f
        chain = all(b % a == 0 for a, b in zip(factors, factors[1:]))
        return chain and len(factors) == n and prod == self._det(n)

    def _check_snf(self, n, res):
        if self.passed.get(n) == (res.S, res.U, res.V):
            return  # equal to an answer that passed every check below
        rows = self.raw[n]
        diag = res.diagonal()
        expect(self._factors_ok(n, diag) and all(d > 0 for d in diag),
               f"snf({n}) invariant factors")
        S = res.S.to_rows()
        expect(all(S[i][j] == (diag[i] if i == j else 0)
                   for i in range(n) for j in range(n)), f"snf({n}) shape")
        # U M V = S, checked on random row vectors x: x U M V = x S.  A wrong
        # certificate survives one vector with probability below 2^-64.
        rng = random.Random(n)
        U, V = res.U.to_rows(), res.V.to_rows()
        for _ in range(2):
            x = [rng.getrandbits(64) for _ in range(n)]
            lhs = gen.matmul(gen.matmul(gen.matmul([x], U), rows), V)[0]
            expect(lhs == [x[i] * diag[i] for i in range(n)],
                   f"snf({n}) certificate")
        self.factors[n] = diag
        self.passed[n] = (res.S, res.U, res.V)

    def prepare(self, objs):
        pass

    def queries(self, objs):
        mats, cxs = objs["mats"], objs["complexes"]
        out = []
        for n in self.SNF_SIZES:
            out.append(Query("snf", lambda n=n: lw.snf(mats[n]),
                             lambda r, n=n: self._check_snf(n, r)))
        for n in self.HOMOLOGY_SIZES:
            out.append(Query("homology", lambda n=n: lw.homology(cxs[n]),
                             lambda h, n=n: self._check_homology(n, h)))
        n = self.DECOMPOSE_SIZE
        decompose, verify = decompose_then_verify(cxs[n])

        def check_dec(d):
            ms = sorted(s.m for s in d.summands if s.kind != "free")
            expect(len(ms) == len(d.summands) and self._factors_ok(n, ms)
                   and summand_ranks(d) == cxs[n].degrees, "decomposition")

        out.append(Query("decompose", decompose, check_dec))
        out.append(Query("verify", verify, lambda ok: expect(ok is True, "certificate")))
        return out

    def _check_homology(self, n, h):
        # M is nonsingular, so H^0 = 0 and H^1 = coker M, whose torsion is
        # the invariant factors >= 2 of M.
        data = profile(h)
        torsion = data.get(1, (0, ()))[1]
        factors = [1] * (n - len(torsion)) + list(torsion)
        expect(set(data) <= {1} and data.get(1, (0,))[0] == 0
               and self._factors_ok(n, factors), f"homology({n})")
        if n in self.factors:
            expect(factors == self.factors[n], f"homology({n}) against snf")


# ------------------------------------------------------------ cli-golden

GOLDEN_CASES = (
    (["homology", "homology_moore.json"], "homology_moore.out"),
    (["homology", "homology_free.json"], "homology_free.out"),
    (["decompose", "decompose_diag.json"], "decompose_diag.out"),
    (["decompose", "decompose_mixed.json"], "decompose_mixed.out"),
    (["classify", "classify_localized.json"], "classify_localized.out"),
    (["classify", "classify_full.json"], "classify_full.out"),
    (["classify", "classify_trivial.json"], "classify_trivial.out"),
    (["embeddable", "--P", "2,3", "--Q", "2"], "embeddable_yes.out"),
    (["embeddable", "--P", "2", "--Q", "3"], "embeddable_no.out"),
    (["chain", "--primes", "2,3,5"], "chain_235.out"),
    (["sphere-end", "--n", "3", "--lo", "-6", "--hi", "6"], "sphere_end_n3.out"),
    (["sphere-geometric", "geom_zero_section.json", "--lo", "-4", "--hi", "4"],
     "geom_zero_section.out"),
    (["sphere-geometric", "geom_fiber_image.json", "--lo", "-4", "--hi", "4"],
     "geom_fiber_image.out"),
    (["--format", "text", "homology", "homology_moore.json"],
     "homology_moore.txt.out"),
)


def cli_env(root):
    env = {k: v for k, v in os.environ.items() if k != cli.FORMAT_ENV}
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(argv, root, work):
    """Run one command to completion; returns (code, stdout, stderr, peak
    RSS in KiB) of that child alone."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        proc = subprocess.Popen(argv, cwd=root, env=cli_env(root),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss


def run_inprocess(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue().encode(), err.getvalue().encode()


class CliGolden:
    """One client, one fresh `python -m locweinstein.cli` per query."""

    name = "cli-golden"

    def __init__(self, root, seed, work):
        self.root = root
        self.work = work
        golden = root / "tests" / "golden"
        rng = gen.rng_for(self.name, seed)
        cases = []
        for argv, expected in GOLDEN_CASES:
            argv = [str(golden / a) if a.endswith(".json") else a for a in argv]
            cases.append((argv, 0, (golden / expected).read_bytes(), b"", None))
        cases.append((["homology", str(golden / "homology_bad.json")], 1, b"",
                       (golden / "homology_bad.err").read_bytes(), None))
        # Seeded moderate inputs; their stdout must match in-process cli.run.
        hom = gen.random_summands(rng, -3, 3, 24)
        dec = gen.random_summands(rng, -3, 3, 12)
        disks = [gen.random_summands(rng, -2, 2, 6, free_ok=False) for _ in range(3)]
        geo = gen.random_summands(rng, -3, 3, 12)
        n = rng.choice((3, 6))
        self.inputs = {
            "homology.json": gen.disguised_complex(rng, hom),
            "decompose.json": gen.disguised_complex(rng, dec),
            "classify.json": {"ambient": "T*S^3",
                              "carved": [gen.disguised_complex(rng, d) for d in disks]},
            "geometric.json": gen.twisted_image(gen.disguised_complex(rng, geo), n),
        }
        half = rng.randint(12, 20)
        generated = [
            (["homology", "homology.json"],
             lambda p, sm=hom: expect(_degrees(p["homology"]) == gen.expected_homology(sm),
                                      "cli homology")),
            (["decompose", "decompose.json"],
             lambda p, sm=dec: expect(
                 gen.expected_homology([(s["kind"], s["d"], s.get("m"))
                                        for s in p["decomposition"]["summands"]])
                 == gen.expected_homology(sm), "cli decompose")),
            (["classify", "classify.json"],
             lambda p, ds=disks: expect(
                 {"class": p["class"], "primes": p["primes"]} == gen.expected_class(ds),
                 "cli classify")),
            (["sphere-end", "--n", str(n), "--lo", str(-half), "--hi", str(half)],
             lambda p, n=n: expect(
                 _degrees(p["end_cohomology"]["profile"]) == {0: (1, ()), n: (1, ())},
                 "cli sphere-end")),
            (["sphere-geometric", "geometric.json", "--lo", "-12", "--hi", "12"],
             lambda p: expect(p["x_action"] == "pass", "cli sphere-geometric")),
        ]
        for argv, check in generated:
            argv = [str(self.work / a) if a.endswith(".json") else a for a in argv]
            cases.append((argv, 0, None, b"", check))
        self.cases = cases

    def convert(self):
        """For the CLI, set-up writes the generated inputs as files."""
        self.work.mkdir(parents=True, exist_ok=True)
        for name, data in self.inputs.items():
            (self.work / name).write_text(json.dumps(data))
        return None

    def prepare(self, objs):
        """Fill in stdout for generated inputs from in-process cli.run and
        check those answers against the known summands."""
        filled = []
        for argv, code, out, err, check in self.cases:
            if out is None:
                got_code, out, got_err = run_inprocess(argv)
                expect(got_code == code and got_err == err, f"in-process {argv[0]}")
                check(json.loads(out))
            filled.append((argv, code, out, err))
        self.cases = filled

    def queries(self, objs):
        """Each case as a fresh `python -m locweinstein.cli` subprocess."""
        self.peak_kib = 0
        base = [sys.executable, "-m", "locweinstein.cli"]

        def spawned(argv):
            code, out, err, rss = spawn(base + argv, self.root, self.work)
            self.peak_kib = max(self.peak_kib, rss)
            return code, out, err

        return self._queries(spawned)

    def inprocess_queries(self):
        """The same cases through cli.run in this process."""
        return self._queries(run_inprocess)

    def _queries(self, invoke):
        out = []
        for argv, code, stdout, stderr in self.cases:
            def fn(argv=argv, code=code):
                got, so, se = invoke(argv)
                if got != code or b"Traceback" in se:
                    raise QueryFailed(f"exit {got}: {se[-200:]!r}")
                return so, se

            def check(res, stdout=stdout, stderr=stderr, argv=argv):
                expect(res == (stdout, stderr), f"cli {argv}")
            label = "text" if argv[0] == "--format" else argv[0]
            out.append(Query(label, fn, check))
        return out


def _degrees(profile_json):
    return {int(k): (v["free"], tuple(v["torsion"])) for k, v in profile_json.items()}


WORKLOADS = {w.name: w for w in (CliGolden, BatchComplexes, DenseTwoTerm)}
