"""Spans and counters recorded from outside the package.

`Tracer.install` replaces each traced function by a wrapper in every
`locweinstein` module that holds it under any name: `zcomplex`,
`decompose` and `loopsphere` import `snf`, `kernel_basis` and `solve`
themselves, so patching `intlin` alone would miss their calls.  Spans are
kept in memory as (name, start, end, parent) and written out at the end.
The tracer's own hooks run in `trace.hook` spans, so their time is not
charged to the layer that called the traced function.
"""

import gzip
import json
import sys
import time

# (module, attribute, span name).  IntMatrix.__mul__ is patched on the class.
TARGETS = (
    ("intlin", "snf", "intlin.snf"),
    ("intlin", "kernel_basis", "intlin.kernel_basis"),
    ("intlin", "solve", "intlin.solve"),
    ("intlin", "inverse_unimodular", "intlin.inverse_unimodular"),
    ("zcomplex", "homology", "zcomplex.homology"),
    ("zcomplex", "require_valid", "zcomplex.require_valid"),
    ("decompose", "elementary_decomposition", "decompose.elementary_decomposition"),
    ("decompose", "verify_certificate", "decompose.verify_certificate"),
    ("localize", "localized_homology", "localize.localized_homology"),
    ("localize", "field_homology", "localize.field_homology"),
    ("localize", "classify_disks", "localize.classify_disks"),
    ("_primes", "prime_divisors", "primes.prime_divisors"),
    ("_primes", "is_prime", "primes.is_prime"),
    ("weinstein", "subdomain_classify", "weinstein.subdomain_classify"),
    ("loopsphere", "x_action_test", "loopsphere.x_action_test"),
    ("loopsphere", "hom_cohomology", "loopsphere.hom_cohomology"),
    ("loopsphere", "_hom_complex", "loopsphere._hom_complex"),
    ("loopsphere", "_end_generator", "loopsphere._end_generator"),
    ("cli", "run", "cli.run"),
)

# Per-layer metrics: (name, unit, better), in report order.
SELF_TIMES = ("intlin.snf", "intlin.inverse_unimodular", "intlin.matmul",
              "zcomplex.homology", "zcomplex.require_valid",
              "decompose.elementary_decomposition",
              "decompose.verify_certificate", "localize.classify_disks",
              "localize.field_homology", "primes.prime_divisors",
              "weinstein.subdomain_classify", "loopsphere.x_action_test",
              "loopsphere.hom_cohomology", "loopsphere._hom_complex",
              "cli.run")
CALLS = ("intlin.snf", "intlin.solve", "intlin.kernel_basis",
         "zcomplex.require_valid", "primes.prime_divisors", "primes.is_prime",
         "loopsphere._end_generator")
PER_LAYER = (
    [(f"{n}.self_s", "s", "lower") for n in SELF_TIMES]
    + [(f"{n}.calls", "count", "lower") for n in CALLS]
    + [("intlin.cert_bits_max", "bits", "lower"),
       ("intlin.snf.repeat_ratio", "ratio", "lower"),
       ("loopsphere._end_generator.useful_ratio", "ratio", "higher"),
       ("cli.import_s", "s", "lower"),
       ("cli.spawn_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


def _max_bits(m):
    return max((abs(e).bit_length() for row in m.to_rows() for e in row),
               default=0)


class Tracer:
    """Collects spans while installed; `uninstall` restores the package."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._undo = []
        self.snf_seen = set()
        self.snf_repeats = 0
        self.cert_bits_max = 0
        self.rings = set()

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recording a span per call; `before(*args)` and
        `after(result)` run as `trace.hook` spans beside it."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def hook(callback, *args):
            start = clock()
            callback(*args)
            spans.append(["trace.hook", start, clock(), stack[-1] if stack else -1])

        def traced(*args, **kwargs):
            if before is not None:
                hook(before, *args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                hook(after, result)
            return result

        return traced

    def _snf_before(self, m):
        if m in self.snf_seen:
            self.snf_repeats += 1
        else:
            self.snf_seen.add(m)

    def _snf_after(self, res):
        self.cert_bits_max = max(self.cert_bits_max, _max_bits(res.U),
                                 _max_bits(res.V))

    def install(self):
        pkg = "locweinstein"
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        hooks = {"intlin.snf": (self._snf_before, self._snf_after),
                 "loopsphere._end_generator": (self.rings.add, None)}
        for mod, attr, name in TARGETS:
            original = getattr(sys.modules[f"{pkg}.{mod}"], attr)
            wrapper = self.wrap(name, original, *hooks.get(name, (None, None)))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        matrix = sys.modules[f"{pkg}.intlin"].IntMatrix
        original = matrix.__mul__
        matrix.__mul__ = self.wrap("intlin.matmul", original)
        self._undo.append((matrix, "__mul__", original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer_metrics(self):
        """Per-layer self times and counters over all recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = {}, {}
        for (name, start, end, _), covered in zip(spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
            calls[name] = calls.get(name, 0) + 1
        out = {f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_TIMES}
        out.update({f"{n}.calls": calls.get(n, 0) for n in CALLS})
        snf_calls = calls.get("intlin.snf", 0)
        gen_calls = calls.get("loopsphere._end_generator", 0)
        out["intlin.cert_bits_max"] = self.cert_bits_max
        out["intlin.snf.repeat_ratio"] = (self.snf_repeats / snf_calls
                                          if snf_calls else 0.0)
        out["loopsphere._end_generator.useful_ratio"] = (
            len(self.rings) / gen_calls if gen_calls else 0.0)
        return out

    def write(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
