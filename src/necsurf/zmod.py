"""Exact modular arithmetic underlying the class-counting formulas.

Everything here is plain integer arithmetic, no floats: factorisation
below ``FACTORIZE_BOUND`` (trial division, Pollard's rho and
deterministic Miller-Rabin), the Euler totient,
its companion ``psi`` with psi(p^a) = (p-2)*p^(a-1), a generating set of
the unit group, CRT solving, lifting units along reduction maps
Z_N* -> Z_n*, Harvey's criterion for generating a cyclic group by three
elements of prescribed orders summing to zero, and the Maclachlan
decomposition of an order triple.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import NamedTuple


class _Checked:
    """First base of a checked NamedTuple: ``_make`` and ``_replace`` go through its ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


# Miller-Rabin on the 13 prime bases 2..41 is exact below this bound (J. Sorenson
# and J. Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
FACTORIZE_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, ascending, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


_SMALL_PRIMES = _primes_below(1000)


def _is_prime_mr(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 41 below ``FACTORIZE_BOUND``."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho with Brent's cycle search.

    The walk is y -> y^2 + c from y = 2, with c = 1, 2, ... tried in turn;
    the gcds are batched over 128 steps, and a batch that overshoots to n
    is replayed one step at a time (J. M. Pollard, BIT 15, 1975; R. P.
    Brent, BIT 20, 1980).
    """
    c = 0
    while True:
        c += 1
        y, r, g, q = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _large_prime_factors(n: int) -> list[int]:
    """The prime factors of n > 1, with multiplicity, when no prime below 1000 divides n."""
    if _is_prime_mr(n):
        return [n]
    d = _rho_factor(n)
    return _large_prime_factors(d) + _large_prime_factors(n // d)


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of 1 <= n < ``FACTORIZE_BOUND`` as ((p, exponent), ...), p ascending.

    Trial division by the primes below 1000 first, which alone factors
    every n below 1000^2.  What it leaves of a larger n, when that is
    1000^2 or more, has no prime factor below 1000: it is split by
    Pollard's rho, each part proved prime or composite by deterministic
    Miller-Rabin, exact below the bound.
    """
    if not 1 <= n < FACTORIZE_BOUND:
        raise ValueError(f"factorize expects 1 <= n < {FACTORIZE_BOUND}, got {n}")
    out = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n >= 1000 * 1000:  # every prime below 1000 was tried
        out.extend(sorted(Counter(_large_prime_factors(n)).items()))
    elif n > 1:
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
def order_table(n: int) -> tuple[int, ...]:
    """``order_mod(v, n)`` for every residue v in 0..n-1, built once per n and kept."""
    if n < 1:
        raise ValueError(f"order_table expects modulus >= 1, got {n}")
    return tuple(n // math.gcd(v, n) for v in range(n))


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


class MaclachlanQuad(_Checked, _QuadFields):
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
