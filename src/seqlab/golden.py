"""Exact arithmetic in Q(tau), the quadratic field of the golden mean.

A number a + b*tau with rational a, b, where tau is the positive root of
x^2 = x + 1, is stored as one integer triple (p, q, d) with a = p/d, b = q/d,
d > 0 and gcd(p, q, d) = 1, so the field operations are integer formulas and
no Fraction is built on the way. All comparisons are exact: a sign is decided
in integer arithmetic alone, never through floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from itertools import pairwise

Rational = int | Fraction

_FIBS = [0, 1]


def fib(n: int) -> int:
    """n-th Fibonacci number (F_0 = 0, F_1 = 1), arbitrary precision."""
    if n < 0:
        raise ValueError(f"fib is defined for n >= 0, got {n}")
    while len(_FIBS) <= n:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS[n]


def sqrt5_sign(p: Rational, q: Rational) -> int:
    """Exact sign of p + q*sqrt(5) for rational p, q.

    When p and q disagree in sign, the larger of p^2 and 5*q^2 decides;
    they cannot be equal for nonzero rationals because sqrt(5) is irrational.
    """
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0)
    if sq == 0:
        return sp
    if sp == 0:
        return sq
    if sp == sq:
        return sp
    pp = p * p
    qq = 5 * q * q
    if pp == qq:  # would mean p/q = +-sqrt(5), impossible over Q
        raise ArithmeticError("p^2 == 5*q^2 with nonzero rational p, q")
    return sp if pp > qq else sq


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"rational coefficient required, got {type(value).__name__}")


def _floor_surd(p: int, q: int, r: int, s: int) -> tuple[int, bool]:
    """floor((p + q*sqrt(r)) / s) for integers p, q, r >= 0 and s > 0, and
    whether the quotient is an integer. The floor of q*sqrt(r) comes from
    math.isqrt, so the result is exact at any size.
    """
    root = math.isqrt(q * q * r)
    irrational = root * root != q * q * r
    num = p + (root if q >= 0 else -root - irrational)
    return num // s, not irrational and num % s == 0


def surd_decimal(p: int, q: int, r: int, s: int, places: int = 6, *, upward: bool = False) -> str:
    """(p + q*sqrt(r)) / s as a decimal with `places` places, exact rounding.

    Rounds to nearest (ties to even) by default; with `upward` it rounds
    toward +infinity, so the rendering of an upper bound is never below
    it. The digit is decided in integer arithmetic, with no tolerance.
    """
    scale = 10**places
    if upward:
        low, _ = _floor_surd(-p * scale, -q * scale, r, s)
        units = -low
    else:
        twice, exact = _floor_surd(2 * p * scale, 2 * q * scale, r, s)
        units = (twice + 1) // 2
        if exact and twice % 2 and units % 2:  # a tie goes to the even neighbour
            units -= 1
    digits = str(abs(units)).rjust(places + 1, "0")
    if places:
        digits = f"{digits[:-places]}.{digits[-places:]}"
    negative = _floor_surd(p, q, r, s)[0] < 0
    return ("-" if negative else "") + digits


@total_ordering
class GoldenNumber:
    """Immutable element (p + q*tau) / d of Q(tau), held as one integer triple.

    The triple has d > 0 and gcd(p, q, d) = 1. That form is unique, so == is
    a comparison of triples, and each of +, -, * is one integer formula
    reduced by one three-argument gcd. The coefficients a = p/d and b = q/d
    of a + b*tau are read as Fractions.
    """

    __slots__ = ("_pqd",)

    def __init__(self, a: Rational = 0, b: Rational = 0) -> None:
        if isinstance(a, int) and isinstance(b, int):
            pqd = (int(a), int(b), 1)
        else:
            a, b = _as_fraction(a), _as_fraction(b)
            # no factor is common to all three: a prime's full power in the lcm
            # divides one denominator, whose coprime numerator it then misses
            d = math.lcm(a.denominator, b.denominator)
            pqd = (a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d)
        object.__setattr__(self, "_pqd", pqd)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GoldenNumber is immutable")

    @property
    def a(self) -> Fraction:
        p, _, d = self._pqd
        return Fraction(p, d)

    @property
    def b(self) -> Fraction:
        _, q, d = self._pqd
        return Fraction(q, d)

    def __add__(self, other: object) -> GoldenNumber:
        o = _triple(other)
        if o is None:
            return NotImplemented
        (p, q, d), (r, s, e) = self._pqd, o
        return _reduced(p * e + r * d, q * e + s * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> GoldenNumber:
        p, q, d = self._pqd
        return _held(-p, -q, d)

    def __sub__(self, other: object) -> GoldenNumber:
        o = _triple(other)
        if o is None:
            return NotImplemented
        (p, q, d), (r, s, e) = self._pqd, o
        return _reduced(p * e - r * d, q * e - s * d, d * e)

    def __rsub__(self, other: object) -> GoldenNumber:
        o = _triple(other)
        if o is None:
            return NotImplemented
        (p, q, d), (r, s, e) = self._pqd, o
        return _reduced(r * d - p * e, s * d - q * e, d * e)

    def __mul__(self, other: object) -> GoldenNumber:
        o = _triple(other)
        if o is None:
            return NotImplemented
        # (p + q*tau)(r + s*tau) with tau^2 = tau + 1
        (p, q, d), (r, s, e) = self._pqd, o
        return _reduced(p * r + q * s, p * s + q * r + q * s, d * e)

    __rmul__ = __mul__

    @property
    def norm(self) -> Fraction:
        """Field norm (a + b*tau)(a + b - b*tau) = a^2 + a*b - b^2."""
        p, q, d = self._pqd
        return Fraction(p * p + p * q - q * q, d * d)

    def conjugate(self) -> GoldenNumber:
        """Image under tau -> 1 - tau, the nontrivial field automorphism."""
        p, q, d = self._pqd
        return _held(p + q, -q, d)  # gcd(p + q, q, d) = gcd(p, q, d) = 1

    def inverse(self) -> GoldenNumber:
        """d / (p + q*tau) = d*(p + q - q*tau) / N, with N = p^2 + pq - q^2."""
        p, q, d = self._pqd
        n = p * p + p * q - q * q
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(tau)")
        if n < 0:
            d, n = -d, -n
        return _reduced(d * (p + q), -d * q, n)

    def __pow__(self, exponent: int) -> GoldenNumber:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def sign(self) -> int:
        """Exact sign: (p + q*tau) / d = ((2p + q) + q*sqrt(5)) / (2d), and d > 0."""
        p, q, _ = self._pqd
        return sqrt5_sign(2 * p + q, q)

    def __abs__(self) -> GoldenNumber:
        return -self if self.sign() < 0 else self

    def __floor__(self) -> int:
        """Exact floor, so math.floor(x) is decided in integers."""
        return _floor_surd(*self.surd())[0]

    def __eq__(self, other: object) -> bool:
        o = _triple(other)
        if o is None:
            return NotImplemented
        return self._pqd == o

    def __lt__(self, other: object) -> bool:
        o = _triple(other)
        if o is None:
            return NotImplemented
        # the sign of other - self; its denominator d*e is positive
        (p, q, d), (r, s, e) = self._pqd, o
        t = s * d - q * e
        return sqrt5_sign(2 * (r * d - p * e) + t, t) > 0

    def __hash__(self) -> int:
        if self._pqd[1] == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        p, q, _ = self._pqd
        return p != 0 or q != 0

    def surd(self) -> tuple[int, int, int, int]:
        """Integers (p, q, 5, s), s > 0, with self = (p + q*sqrt(5)) / s."""
        p, q, d = self._pqd
        return 2 * p + q, q, 5, 2 * d

    def decimal(self, places: int = 6, *, upward: bool = False) -> str:
        """Rendering with `places` decimal places; see surd_decimal."""
        return surd_decimal(*self.surd(), places, upward=upward)

    def to_json_dict(self) -> dict[str, int]:
        """Exact coefficients: a = a_num/a_den, b = b_num/b_den."""
        a, b = self.a, self.b
        return {
            "a_num": a.numerator,
            "a_den": a.denominator,
            "b_num": b.numerator,
            "b_den": b.denominator,
        }

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        sign = "-" if b < 0 else "+"
        mag = "tau" if abs(b) == 1 else f"{abs(b)}*tau"
        if a == 0:
            return mag if sign == "+" else f"-{mag}"
        return f"{a} {sign} {mag}"

    def __repr__(self) -> str:
        return f"GoldenNumber({self.a!r}, {self.b!r})"


def _held(p: int, q: int, d: int) -> GoldenNumber:
    """The GoldenNumber of a triple already in reduced form."""
    x = object.__new__(GoldenNumber)
    object.__setattr__(x, "_pqd", (p, q, d))
    return x


def _reduced(p: int, q: int, d: int) -> GoldenNumber:
    """The GoldenNumber (p + q*tau) / d for d > 0, reduced by gcd(p, q, d)."""
    g = math.gcd(p, q, d)
    return _held(p // g, q // g, d // g)


def _triple(value: object) -> tuple[int, int, int] | None:
    """The reduced triple of a GoldenNumber, int or Fraction; None for anything else."""
    if isinstance(value, GoldenNumber):
        return value._pqd
    if isinstance(value, int):
        return int(value), 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    return None


ZERO = GoldenNumber(0, 0)
ONE = GoldenNumber(1, 0)
TAU = GoldenNumber(0, 1)


def tau_pow(n: int) -> GoldenNumber:
    """tau**n as an exact GoldenNumber, any integer n.

    For n >= 1 this is F_{n-1} + F_n * tau; a negative power is the field
    inverse of the positive one.
    """
    if n < 0:
        return tau_pow(-n).inverse()
    if n == 0:
        return ONE
    return GoldenNumber(fib(n - 1), fib(n))


@dataclass
class FibPropertyReport:
    """Pass/fail summary for the classical Fibonacci identities."""

    results: dict[str, bool] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.results.values())


def verify_fib_properties(n_max: int) -> FibPropertyReport:
    """Check the classical identities exactly for all indices up to n_max.

    Covers: Cassini's identity, coprimality of neighbours, the golden
    remainder F_{n+1} - tau*F_n = (-1)^n / tau^n, strict shrinking of
    |F_{n+1}/F_n - tau| (the limit statement, checked as monotonicity),
    sign alternation with strictly decreasing |F_{n+1} - tau*F_n|, and the
    index-addition rule F_{m+1}F_{n+1} + F_m F_n = F_{m+n+1}.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    # F_0 .. F_{2N+1}: index addition reaches F_{m+n+1}
    F = list(map(fib, range(2 * n_max + 2)))
    indices = range(0, n_max + 1)
    remainders = [GoldenNumber(F[n + 1], -F[n]) for n in indices]
    gaps = (abs(GoldenNumber(Fraction(F[n + 1], F[n]), -1)) for n in indices[1:])
    # Each identity is a lazy stream of the witnesses of its failures in check
    # order, so only the cases up to its first failure are ever computed.
    failures = {
        "cassini": (
            f"n={n}" for n in indices[1:] if F[n + 1] * F[n - 1] - F[n] ** 2 != (-1) ** n
        ),
        "coprimality": (f"n={n}" for n in indices if math.gcd(F[n], F[n + 1]) != 1),
        # tau_pow(-n) is a field inverse, not the closed form, so both sides are independent
        "golden_remainder": (
            f"n={n}" for n in indices if remainders[n] != (-1) ** n * tau_pow(-n)
        ),
        "ratio_convergence": (
            f"n={n}" for n, (prev, gap) in enumerate(pairwise(gaps), start=2) if not gap < prev
        ),
        # at each n the sign is checked before the shrinking magnitude
        "remainder_alternation": (
            f"n={n} {part}"
            for n, rem in enumerate(remainders)
            for part, holds in (
                ("sign", rem.sign() == (-1) ** n),
                ("magnitude", n == 0 or abs(rem) < abs(remainders[n - 1])),
            )
            if not holds
        ),
        # row m reads F_{n+1}, F_n and F_{m+n+1} for n = m..N off three slices
        "index_addition": (
            f"m={m} n={n}"
            for m in indices
            for n, x, y, z in zip(indices[m:], F[m + 1:], F[m:], F[2 * m + 1:])
            if F[m + 1] * x + F[m] * y != z
        ),
    }
    report = FibPropertyReport()
    for name, witnesses in failures.items():
        witness = next(witnesses, None)
        report.results[name] = witness is None
        if witness is not None:
            report.failures[name] = witness
    return report
