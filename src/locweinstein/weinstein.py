"""Handle-calculus layer: subdomain specs, P-handle replacement, the
embeddability lattice, and the end-to-end classification.

All geometry is forgotten; a subdomain is represented by the complexes of
its carved co-core disks, which is exactly the input the classification
consumes.
"""

from ._primes import PrimeSet
from .localize import CategoryClass, classify_disks
from .zcomplex import FreeComplex, elementary_complex, json_field


class SubdomainSpec:
    """An ambient label plus the carved co-core disk complexes."""

    __slots__ = ("ambient", "carved")

    def __init__(self, ambient, carved=()):
        self.ambient = ambient
        self.carved = list(carved)

    @classmethod
    def from_json_dict(cls, data):
        return cls(json_field(data, "ambient", str),
                   [FreeComplex.from_json_dict(c)
                    for c in json_field(data, "carved", list)])


class HandlePresentation:
    """Subcritical part label plus critical handles, each decorated with a
    PrimeSet (the empty set for a standard handle)."""

    __slots__ = ("subcritical", "critical_handles")

    def __init__(self, subcritical, critical_handles=()):
        self.subcritical = subcritical
        self.critical_handles = list(critical_handles)

    @classmethod
    def standard(cls, label, n_handles):
        return cls(label, [PrimeSet() for _ in range(n_handles)])

def p_handle_disks(P):
    """Disks carved by decorating one critical handle with P.

    One cone(p * Id) per prime p; a single free generator when 0 is
    present (that disk split-generates, so the result is trivial)."""
    if P.contains_zero:
        return [FreeComplex({0: 1})]
    return [elementary_complex(p, 0) for p in P.primes]


def replace_handles(H, P):
    """Decorate every critical handle of H with P."""
    return HandlePresentation(H.subcritical, [P for _ in H.critical_handles])


def induced_spec(H, ambient=None):
    """The subdomain spec carved by a decorated handle presentation."""
    carved = []
    for dec in H.critical_handles:
        carved.extend(p_handle_disks(dec))
    return SubdomainSpec(ambient if ambient is not None else H.subcritical, carved)


def subdomain_classify(S):
    return classify_disks(S.carved)


def classify_presentation(H):
    return subdomain_classify(induced_spec(H))


def embeddable(P, Q):
    """Whether the P-subdomain embeds in the Q-subdomain: Q subset of P,
    or 0 in P."""
    if P.contains_zero:
        return True
    return Q <= P


def embedding_witness(P, Q):
    """An obstruction prime when the embedding fails, else None.

    The returned q satisfies: the P-subdomain's category is nontrivial
    over F_q while the Q-subdomain's is trivial over F_q.  When Q brings
    only the element 0, any prime outside P works; the smallest is chosen.
    """
    if embeddable(P, Q):
        return None
    extra = sorted(set(Q.primes) - set(P.primes))
    if extra:
        return extra[0]
    # Here Q contains 0 but P does not: every F_q kills the Q-side.
    from sympy import nextprime
    q = 2
    while q in P.primes:
        q = nextprime(q)
    return q


def lattice_chain(primes):
    """Prefix chain of prime sets for a list of distinct primes:
    empty set, {p1}, {p1, p2}, ..."""
    if len(set(primes)) != len(primes):
        raise ValueError("duplicate primes in chain")
    if 0 in primes:
        raise ValueError("a chain takes primes only, not 0")
    return [PrimeSet(primes[:i]) for i in range(len(primes) + 1)]
