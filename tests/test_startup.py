"""sympy loads on the first prime query, not at start-up.

Each case runs in a fresh interpreter, since an import made by any earlier
test would already sit in this process's sys.modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from sympy import nextprime

from test_cli import CASES, GOLDEN

ROOT = Path(__file__).resolve().parent.parent

# cli.run on sys.argv[1:], then one JSON line: [exit code, stdout, sympy loaded].
CLI_PROBE = """
import io, json, sys
from locweinstein.cli import run
out = io.StringIO()
code = run(sys.argv[1:], stdout=out)
print(json.dumps([code, out.getvalue(), "sympy" in sys.modules]))
"""

NO_PRIMES = [(argv, expected) for argv, expected in CASES
             if {"homology", "decompose", "sphere-end", "sphere-geometric"} & set(argv)
             or expected in ("classify_full.out", "classify_trivial.out")]


def fresh(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def fresh_cli(argv):
    return fresh(CLI_PROBE, *(str(GOLDEN / a) if a.endswith(".json") else a
                              for a in argv))


@pytest.mark.parametrize("argv,expected", NO_PRIMES, ids=[c[1] for c in NO_PRIMES])
def test_prime_free_query_does_not_load_sympy(argv, expected):
    code, out, sympy_loaded = fresh_cli(argv)
    assert code == 0
    assert out == (GOLDEN / expected).read_text()
    assert not sympy_loaded


@pytest.mark.parametrize("argv,expected", [
    (["classify", "classify_localized.json"], "classify_localized.out"),
    (["chain", "--primes", "2,3,5"], "chain_235.out"),
])
def test_prime_query_loads_sympy_on_first_use(argv, expected):
    code, out, sympy_loaded = fresh_cli(argv)
    assert code == 0
    assert out == (GOLDEN / expected).read_text()
    assert sympy_loaded


def test_embedding_witness_first_nextprime():
    # P = {2, 3} against Q = {0}: the witness steps 2 -> 3 -> 5 by nextprime.
    code, out, _ = fresh_cli(["embeddable", "--P", "2,3", "--Q", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["embeddable"] is False
    assert payload["witness"] == 5


def test_prime_divisors_first_call():
    p = nextprime(2 ** 64)
    divisors = fresh("""
import json, sys
from locweinstein._primes import prime_divisors
assert "sympy" not in sys.modules
print(json.dumps(prime_divisors(int(sys.argv[1]))))
""", str(p * 6))
    assert divisors == [2, 3, p]
