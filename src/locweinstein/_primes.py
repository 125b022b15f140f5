"""Prime sets and primality, shared by localize and decompose."""

from .intlin import parse_int

# sympy is imported on first use: loading it is most of the CLI's start-up time.


def is_prime(n):
    """sympy's isprime: a proof below 2^64, BPSW above.

    No BPSW pseudoprime is known; it is the same test `factorint` trusts
    for the prime divisors it returns, so those are accepted unchanged.
    """
    from sympy import isprime
    return isprime(n)


def prime_divisors(m):
    """Sorted prime divisors of |m|, m != 0."""
    m = abs(m)
    if m == 0:
        raise ValueError("0 has no prime divisors")
    from sympy import factorint
    return sorted(factorint(m))


def parse_ints(text):
    """Comma-separated canonical integers such as "2,3,0"; "" gives []."""
    return [parse_int(tok) for tok in text.split(",")] if text else []


class PrimeSet:
    """A finite set of primes, possibly empty, possibly containing 0.

    0 stands for the flexibilizing element: any set containing it behaves
    as trivializing in all queries.
    """

    __slots__ = ("contains_zero", "primes")

    def __init__(self, primes=(), contains_zero=False):
        ps = set()
        for p in primes:
            if p == 0:
                contains_zero = True
                continue
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            ps.add(p)
        self.contains_zero = bool(contains_zero)
        self.primes = tuple(sorted(ps))

    @classmethod
    def parse(cls, text):
        """Parse a comma-separated list such as "2,3,0"; "" is the empty set."""
        return cls(parse_ints(text))

    def is_empty(self):
        return not self.contains_zero and not self.primes

    def __contains__(self, p):
        if p == 0:
            return self.contains_zero
        return p in self.primes

    def __iter__(self):
        return iter(self.primes)

    def __eq__(self, other):
        return (isinstance(other, PrimeSet)
                and self.contains_zero == other.contains_zero
                and self.primes == other.primes)

    def __hash__(self):
        return hash((self.contains_zero, self.primes))

    def __le__(self, other):
        """Subset, with 0 treated as an element."""
        if self.contains_zero and not other.contains_zero:
            return False
        return set(self.primes) <= set(other.primes)

    def union(self, other):
        return PrimeSet(self.primes + other.primes,
                        self.contains_zero or other.contains_zero)

    def __repr__(self):
        elems = (["0"] if self.contains_zero else []) + [str(p) for p in self.primes]
        return "PrimeSet({%s})" % ", ".join(elems)

    def to_json_list(self):
        return ([0] if self.contains_zero else []) + list(self.primes)
