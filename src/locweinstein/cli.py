"""Command-line front end: JSON in, JSON or plain-text reports out.

Exit codes: 0 success, 1 domain error (reported as a JSON error object),
2 usage error.  Identical inputs produce byte-identical output.
"""

import argparse
import json
import os
import sys

from . import __version__
from ._primes import PrimeSet, parse_ints
from .decompose import elementary_decomposition
from .intlin import parse_int
from .loopsphere import (SphereRing, TwistedComplexA, WindowError,
                         hom_cohomology, x_action_test, zero_section)
from .weinstein import (SubdomainSpec, embeddable, embedding_witness,
                        lattice_chain, subdomain_classify)
from .zcomplex import FreeComplex, homology

SCHEMA = "locweinstein/1"
FORMAT_ENV = "LOCWEINSTEIN_FORMAT"


class DomainError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _emit(payload, fmt, out):
    payload = {"schema": SCHEMA, **payload}
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        out.write("\n")
    else:
        for key in sorted(payload):
            out.write(f"{key}: {json.dumps(payload[key], sort_keys=True)}\n")


def _unique_keys(pairs):
    """object_pairs_hook refusing a repeated key rather than keeping the last."""
    data = dict(pairs)
    if len(data) < len(pairs):
        raise ValueError("repeated key in a JSON object")
    return data


def _read_json(path):
    try:
        if path == "-":
            data = json.load(sys.stdin, object_pairs_hook=_unique_keys)
        else:
            with open(path) as fh:
                data = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError("bad-input", str(exc)) from exc
    if not isinstance(data, dict):
        raise DomainError("bad-input", "top-level JSON value must be an object")
    return data


def _guard(code, fn, *args):
    """fn(*args), reporting a rejected input as a DomainError: a WindowError
    as uncertifiable-window, any other as `code`."""
    try:
        return fn(*args)
    except WindowError as exc:
        raise DomainError("uncertifiable-window", str(exc)) from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise DomainError(code, str(exc)) from exc


def _cmd_homology(args, fmt, out):
    cx = _guard("invalid-complex", FreeComplex.from_json_dict,
                _read_json(args.input))
    _emit({"homology": homology(cx).to_json_dict()}, fmt, out)


def _cmd_decompose(args, fmt, out):
    cx = _guard("invalid-complex", FreeComplex.from_json_dict,
                _read_json(args.input))
    dec = elementary_decomposition(cx)
    _emit({"decomposition": dec.to_json_dict()}, fmt, out)


def _cmd_classify(args, fmt, out):
    spec = _guard("invalid-complex", SubdomainSpec.from_json_dict,
                  _read_json(args.input))
    _emit(subdomain_classify(spec).to_json_dict(), fmt, out)


def _cmd_embeddable(args, fmt, out):
    P = _guard("invalid-prime", PrimeSet.parse, args.P)
    Q = _guard("invalid-prime", PrimeSet.parse, args.Q)
    ok = embeddable(P, Q)
    payload = {"embeddable": ok}
    witness = embedding_witness(P, Q)
    if witness is not None:
        payload["witness"] = witness
    _emit(payload, fmt, out)


def _cmd_chain(args, fmt, out):
    chain = _guard("invalid-prime",
                   lambda: lattice_chain(parse_ints(args.primes)))
    _emit({"chain": [ps.to_json_list() for ps in chain]}, fmt, out)


def _cmd_sphere_end(args, fmt, out):
    zs = zero_section(_guard("invalid-dimension", SphereRing, args.n))
    prof = _guard("invalid-twisted", hom_cohomology, zs, zs, (args.lo, args.hi))
    _emit({"end_cohomology": prof.to_json_dict()}, fmt, out)


def _cmd_sphere_geometric(args, fmt, out):
    T = _guard("invalid-twisted", TwistedComplexA.from_json_dict,
               _read_json(args.input))
    verdict = _guard("invalid-twisted", x_action_test, T, (args.lo, args.hi))
    _emit({"x_action": "pass" if verdict else "fail"}, fmt, out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="locweinstein",
        description="Cochain-complex calculus for prime-localized subdomains.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--format", choices=("json", "text"),
                        default=os.environ.get(FORMAT_ENV, "json"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="integral homology profile of a complex")
    p.add_argument("input", help="FreeComplex JSON file, or - for stdin")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("decompose", help="elementary decomposition with certificate")
    p.add_argument("input")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("classify", help="classify a carved disk collection")
    p.add_argument("input", help="SubdomainSpec JSON file, or - for stdin")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("embeddable", help="test the subdomain lattice order")
    p.add_argument("--P", required=True, help="comma-separated primes, 0 allowed")
    p.add_argument("--Q", required=True)
    p.set_defaults(func=_cmd_embeddable)

    p = sub.add_parser("chain", help="prefix chain of prime sets")
    p.add_argument("--primes", required=True, help="comma-separated distinct primes")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("sphere-end",
                       help="window cohomology of End(zero_section) over Z[u]")
    p.add_argument("--n", type=parse_int, required=True)
    p.add_argument("--lo", type=parse_int, required=True)
    p.add_argument("--hi", type=parse_int, required=True)
    p.set_defaults(func=_cmd_sphere_end)

    p = sub.add_parser("sphere-geometric",
                       help="necessary geometricity test for a twisted complex")
    p.add_argument("input", help="TwistedComplexA JSON file, or - for stdin")
    p.add_argument("--lo", type=parse_int, required=True)
    p.add_argument("--hi", type=parse_int, required=True)
    p.set_defaults(func=_cmd_sphere_geometric)

    return parser


def run(argv=None, stdout=None, stderr=None):
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        args.func(args, args.format, stdout)
    except DomainError as exc:
        stderr.write(json.dumps(
            {"schema": SCHEMA, "error": exc.code, "message": str(exc)},
            sort_keys=True))
        stderr.write("\n")
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
