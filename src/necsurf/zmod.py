"""Exact modular arithmetic underlying the class-counting formulas.

Everything here is plain integer arithmetic, no floats: the Euler totient,
its companion ``psi`` with psi(p^a) = (p-2)*p^(a-1), a generating set of
the unit group, CRT solving, lifting units along reduction maps
Z_N* -> Z_n*, Harvey's criterion for generating a cyclic group by three
elements of prescribed orders summing to zero, and the Maclachlan
decomposition of an order triple.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, exponent), ...) with p ascending."""
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return factorize(n)[0][0]


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def euler_phi(n: int) -> int:
    """Number of units of Z_n; euler_phi(1) = 1."""
    if n < 1:
        raise ValueError(f"euler_phi expects n >= 1, got {n}")
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def psi(c: int) -> int:
    """Multiplicative companion of the totient: psi(p^a) = (p-2)*p^(a-1).

    psi(1) = 1, and psi(c) = 0 whenever c is even.  psi(c) counts the
    a in Z_c with both a and a+1 units, which is how it enters the
    equivalence-class counts.
    """
    if c < 1:
        raise ValueError(f"psi expects c >= 1, got {c}")
    out = 1
    for p, e in factorize(c):
        out *= (p - 2) * p ** (e - 1)
    return out


def order_mod(a: int, n: int) -> int:
    """Order of a in the additive group Z_n."""
    if n < 1:
        raise ValueError(f"order_mod expects modulus >= 1, got {n}")
    return n // math.gcd(a % n, n)


@lru_cache(maxsize=None)
def units(n: int) -> tuple[int, ...]:
    """The units of Z_n, ascending.  units(1) = (0,)."""
    if n == 1:
        return (0,)
    return tuple(u for u in range(1, n) if math.gcd(u, n) == 1)


def _primitive_root(p: int, q: int) -> int:
    """Least generator of the cyclic group Z_q^*, for q a power of an odd prime p."""
    phi = q // p * (p - 1)
    return next(
        g for g in range(2, q)
        if g % p and all(pow(g, phi // r, q) != 1 for r, _ in factorize(phi))
    )


@lru_cache(maxsize=None)
def unit_generators(n: int) -> tuple[int, ...]:
    """A generating set of Z_n^*: one generator per cyclic factor of each Z_{p^a}^*.

    Z_n^* is the product of the Z_{p^a}^* over p^a || n.  Each factor is
    cyclic, generated by a primitive root, except for 2^a with a >= 3,
    where it is <-1> x <5>; Z_4^* is <3> and Z_2^* is trivial.  Each
    generator is lifted to Z_n as the unit that is 1 modulo the other
    prime powers.  unit_generators(1) = unit_generators(2) = ().
    """
    out = []
    for p, a in factorize(n):
        q = p**a
        if p != 2:
            gens: tuple[int, ...] = (_primitive_root(p, q),)
        else:
            gens = () if a == 1 else (3,) if a == 2 else (q - 1, 5)
        out.extend(crt_solve(g, q, 1, n // q) for g in gens)
    return tuple(out)


def crt_solve(a: int, m: int, b: int, n: int) -> int | None:
    """Solve x = a (mod m), x = b (mod n).

    Returns the unique solution mod lcm(m, n), or None when the system is
    inconsistent, i.e. a != b (mod gcd(m, n)).
    """
    if m < 1 or n < 1:
        raise ValueError("moduli must be >= 1")
    g = math.gcd(m, n)
    if (a - b) % g != 0:
        return None
    lcm = m // g * n
    # x = a + m*t with t = (b-a)/g * inverse(m/g) mod n/g
    mg, ng = m // g, n // g
    t = ((b - a) // g * pow(mg, -1, ng)) % ng if ng > 1 else 0
    return (a + m * t) % lcm


def lift_unit(a: int, n: int, N: int) -> int:
    """Smallest c with c = a (mod n) and gcd(c, N) = 1, for n dividing N.

    The reduction map Z_N* -> Z_n* is onto, so c always exists.
    """
    if n < 1 or N < 1 or N % n != 0:
        raise ValueError(f"need n | N, got n={n}, N={N}")
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    c = a
    while math.gcd(c, N) != 1:
        c += n
        if c > N + n:  # cannot happen: the reduction map is onto
            raise AssertionError(f"no unit lift of {a} mod {n} to mod {N}")
    return c


def harvey_check(m: int, n: int, l: int, N: int) -> bool:
    """Can Z_N be generated by elements of orders m, n, l summing to zero?

    True iff N = lcm(m,n) = lcm(m,l) = lcm(n,l) and, for even N, exactly
    one of N/m, N/n, N/l is even.  The all-equal edge (2,2,2,2) fails:
    none of the three quotients is even.
    """
    if min(m, n, l, N) < 1:
        raise ValueError("orders must be >= 1")
    if not (math.lcm(m, n) == math.lcm(m, l) == math.lcm(n, l) == N):
        return False
    if N % 2 == 0:
        evens = sum(1 for q in (N // m, N // n, N // l) if q % 2 == 0)
        return evens == 1
    return True


class _QuadFields(NamedTuple):
    a: int
    a1: int
    a2: int
    a3: int


class MaclachlanQuad(_QuadFields):
    """Decomposition (A, A1, A2, A3) of an order triple (m, n, l).

    A1 = N/m, A2 = N/n, A3 = N/l are pairwise coprime and A = N/(A1*A2*A3);
    then m = A*A2*A3, n = A*A1*A3, l = A*A1*A2 and N = A*A1*A2*A3.  A itself
    may share prime factors with the Ai (e.g. the triple (12, 12, 6) gives
    (6, 1, 1, 2)), which the counting formulas exploit.  An immutable
    tuple of its fields: it hashes and compares by value, and also equals
    a plain tuple of the same fields.
    """

    __slots__ = ()

    def __new__(cls, a: int, a1: int, a2: int, a3: int) -> "MaclachlanQuad":
        self = tuple.__new__(cls, (a, a1, a2, a3))
        if math.gcd(a1, a2) != 1 or math.gcd(a1, a3) != 1 or math.gcd(a2, a3) != 1:
            raise AssertionError(f"A1, A2, A3 not pairwise coprime in {self}")
        return self

    @classmethod
    def _make(cls, fields) -> "MaclachlanQuad":
        """Build through ``__new__``, so that ``_make`` and ``_replace`` keep its check."""
        return cls(*fields)

    @property
    def m(self) -> int:
        return self.a * self.a2 * self.a3

    @property
    def n(self) -> int:
        return self.a * self.a1 * self.a3

    @property
    def l(self) -> int:
        return self.a * self.a1 * self.a2

    @property
    def order(self) -> int:
        return self.a * self.a1 * self.a2 * self.a3


def maclachlan(m: int, n: int, l: int) -> MaclachlanQuad:
    """Maclachlan decomposition of (m, n, l); requires the lcm condition."""
    if min(m, n, l) < 1:
        raise ValueError("orders must be >= 1")
    N = math.lcm(m, n)
    if not (math.lcm(m, l) == math.lcm(n, l) == N):
        raise ValueError(f"({m}, {n}, {l}) violates the pairwise lcm condition")
    a1, a2, a3 = N // m, N // n, N // l
    if N % (a1 * a2 * a3) != 0:
        raise AssertionError(f"A1*A2*A3 does not divide N for ({m}, {n}, {l})")
    quad = MaclachlanQuad(N // (a1 * a2 * a3), a1, a2, a3)
    assert (quad.m, quad.n, quad.l, quad.order) == (m, n, l, N)
    return quad


def biggest_coprime_divisor(a: int, b: int) -> int:
    """Largest divisor of a coprime to b."""
    if a < 1 or b < 1:
        raise ValueError("arguments must be >= 1")
    while True:
        g = math.gcd(a, b)
        if g == 1:
            return a
        a //= g
