import io
import json
import os
from pathlib import Path

import pytest

from locweinstein.cli import run

GOLDEN = Path(__file__).parent / "golden"

CASES = [
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
    (["sphere-end", "--n", "3", "--lo", "-6", "--hi", "6"],
     "sphere_end_n3.out"),
    (["sphere-geometric", "geom_zero_section.json", "--lo", "-4", "--hi", "4"],
     "geom_zero_section.out"),
    (["sphere-geometric", "geom_fiber_image.json", "--lo", "-4", "--hi", "4"],
     "geom_fiber_image.out"),
    (["--format", "text", "homology", "homology_moore.json"],
     "homology_moore.txt.out"),
]


def invoke(argv):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv,expected", CASES, ids=[c[1] for c in CASES])
def test_golden(argv, expected):
    code, out, err = invoke(argv)
    assert code == 0, err
    assert out == (GOLDEN / expected).read_text()


def test_golden_error_case():
    code, out, err = invoke(["homology", "homology_bad.json"])
    assert code == 1
    assert out == ""
    assert err == (GOLDEN / "homology_bad.err").read_text()


def test_output_is_deterministic():
    first = invoke(["decompose", "decompose_diag.json"])
    second = invoke(["decompose", "decompose_diag.json"])
    assert first == second


def test_json_lines_parse():
    for argv, expected in CASES:
        if "--format" in argv:
            continue
        _, out, _ = invoke(argv)
        payload = json.loads(out)
        assert payload["schema"] == "locweinstein/1"


def test_missing_file_is_domain_error():
    code, out, err = invoke(["homology", str(GOLDEN / "no_such_file.json")])
    assert code == 1
    assert json.loads(err)["error"] == "bad-input"


def test_usage_errors_exit_2():
    for argv in (["no-such-command"], [], ["embeddable", "--P", "2"]):
        code, _, _ = invoke(argv)
        assert code == 2


def test_bad_prime_set():
    code, _, err = invoke(["embeddable", "--P", "4", "--Q", "2"])
    assert code == 1
    assert json.loads(err)["error"] == "invalid-prime"
    code, _, err = invoke(["chain", "--primes", "2,0"])
    assert code == 1


def test_integer_text_must_be_canonical():
    code, out, err = invoke(["embeddable", "--P", "2,+3", "--Q", "2"])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "invalid-prime"
    code, out, _ = invoke(["sphere-end", "--n", "1_0", "--lo", "0", "--hi", "1"])
    assert code == 2
    assert out == ""


def test_window_error_reported():
    code, _, err = invoke(["sphere-geometric",
                           str(GOLDEN / "geom_zero_section.json"),
                           "--lo", "0", "--hi", "2"])
    assert code == 1
    assert json.loads(err)["error"] == "uncertifiable-window"


def test_format_env_var():
    old = os.environ.get("LOCWEINSTEIN_FORMAT")
    os.environ["LOCWEINSTEIN_FORMAT"] = "text"
    try:
        _, out, _ = invoke(["homology", "homology_moore.json"])
    finally:
        if old is None:
            del os.environ["LOCWEINSTEIN_FORMAT"]
        else:
            os.environ["LOCWEINSTEIN_FORMAT"] = old
    assert out == (GOLDEN / "homology_moore.txt.out").read_text()


def test_stdin_input(monkeypatch):
    import sys
    monkeypatch.setattr(
        sys, "stdin", io.StringIO((GOLDEN / "homology_moore.json").read_text()))
    code, out, _ = invoke(["homology", "-"])
    assert code == 0
    assert out == (GOLDEN / "homology_moore.out").read_text()


GEOMETRIC = ["sphere-geometric", "-", "--lo", "-4", "--hi", "4"]

BAD_INPUTS = [
    ("float", ["homology", "-"],
     {"degrees": {"0": 1, "1": 1}, "differentials": {"0": [[2.7]]}},
     "invalid-complex"),
    ("bool", ["homology", "-"],
     {"degrees": {"0": 1, "1": 1}, "differentials": {"0": [[True]]}},
     "invalid-complex"),
    ("array", ["homology", "-"], [{"degrees": {"0": 1}}], "bad-input"),
    ("carved-string", ["classify", "-"], {"carved": "abc"}, "invalid-complex"),
    ("carved-number", ["classify", "-"], {"carved": [1]}, "invalid-complex"),
    ("degrees-list", ["homology", "-"], {"degrees": []}, "invalid-complex"),
    ("fractional-rank", ["homology", "-"],
     {"degrees": {"0": 1.9, "1": True}, "differentials": {"0": [[2]]}},
     "invalid-complex"),
    ("fractional-twisted", GEOMETRIC,
     {"n": 3.7, "shifts": [1.5, 0],
      "delta": [{"row": 1, "col": 0, "coeffs": [[0, 6.9]]}]},
     "invalid-twisted"),
    ("infinite-rank", ["homology", "-"], {"degrees": {"0": float("inf")}},
     "invalid-complex"),
    ("infinite-n", GEOMETRIC, {"n": float("inf"), "shifts": [0]},
     "invalid-twisted"),
    ("infinite-shift", GEOMETRIC, {"n": 3, "shifts": [float("inf")]},
     "invalid-twisted"),
    ("string-rank", ["homology", "-"], {"degrees": {"0": "1"}},
     "invalid-complex"),
    ("exponent-rank", ["homology", "-"], {"degrees": {"0": 1e20}},
     "invalid-complex"),
    ("spaced-key", ["homology", "-"],
     {"degrees": {"0": 1}, "differentials": {" 0": []}}, "invalid-complex"),
    ("underscore-key", ["homology", "-"], {"degrees": {"1_0": 1}},
     "invalid-complex"),
    ("minus-zero-key", ["homology", "-"], {"degrees": {"-0": 1}},
     "invalid-complex"),
    ("leading-zero-key", ["homology", "-"], {"degrees": {"01": 1}},
     "invalid-complex"),
    ("float-row", GEOMETRIC,
     {"n": 3, "shifts": [3, 0],
      "delta": [{"row": 1.0, "col": 0, "coeffs": [[1, 1]]}]},
     "invalid-twisted"),
    ("bool-n", GEOMETRIC, {"n": True, "shifts": [0]}, "invalid-twisted"),
    ("string-shifts", GEOMETRIC, {"n": 3, "shifts": ""}, "invalid-twisted"),
    ("carved-empty-string", ["classify", "-"], {"carved": ""},
     "invalid-complex"),
    ("ambient-list", ["classify", "-"], {"ambient": [1]}, "invalid-complex"),
    ("string-rows", ["homology", "-"],
     {"degrees": {"1": 2}, "differentials": {"0": ["", {}]}},
     "invalid-complex"),
    # Ambiguous input is refused, not resolved in favor of one reading.
    ("repeated-key", ["homology", "-"],
     '{"degrees": {"0": 1, "0": 2}, "differentials": {}}', "bad-input"),
    ("repeated-delta-entry", GEOMETRIC,
     {"n": 3, "shifts": [3, 0],
      "delta": [{"row": 1, "col": 0, "coeffs": [[1, 2]]},
                {"row": 1, "col": 0, "coeffs": [[1, 2], [1, -2]]}]},
     "invalid-twisted"),
]


@pytest.mark.parametrize("argv,payload,code", [b[1:] for b in BAD_INPUTS],
                         ids=[b[0] for b in BAD_INPUTS])
def test_bad_input_is_json_error(monkeypatch, argv, payload, code):
    import sys
    text = payload if isinstance(payload, str) else json.dumps(payload)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    status, out, err = invoke(argv)
    assert status == 1
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] == code


def test_deeply_nested_json_is_bad_input(monkeypatch):
    import sys
    depth = 100_000
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * depth + "]" * depth))
    status, out, err = invoke(["homology", "-"])
    assert status == 1
    assert out == ""
    assert json.loads(err)["error"] == "bad-input"


def test_classify_prime_above_two_to_the_64(monkeypatch):
    import sys
    from sympy import nextprime
    p = nextprime(2 ** 64)
    spec = {"carved": [{"degrees": {"-1": 1, "0": 1},
                        "differentials": {"-1": [[p]]}}]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(spec)))
    status, out, err = invoke(["classify", "-"])
    assert status == 0, err
    assert json.loads(out)["primes"] == [p]
