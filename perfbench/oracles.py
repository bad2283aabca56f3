"""Independent reference computations used to check seqlab's outputs.

Nothing here imports seqlab: every value is rebuilt from the definitions
(standard Fibonacci words, the 2-adic form of the constant-gap period,
integer-only arithmetic in Q(sqrt r)), so a defect in the program cannot
hide behind the same defect in its checker.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# sequences


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fibonacci_word(n: int) -> str:
    """Prefix of length n of the Fibonacci word, by s_{k+1} = s_k s_{k-1}."""
    prev, cur = "b", "a"
    while len(cur) < n:
        prev, cur = cur, cur + prev
    return cur[:n]


def gap_period(delta: int, hatted: bool = False) -> list[str]:
    """Period of y_delta: position 0 holds 1, position i > 0 holds
    delta - v2(i), where v2 is the 2-adic valuation."""
    size = 2 ** (delta - 1)
    period = ["1"] + [str(delta - ((i & -i).bit_length() - 1)) for i in range(1, size)]
    return [t + "'" for t in period] if hatted else period


def iter_colouring(delta: int, n: int):
    """v_delta by definition: the k-th a of the Fibonacci word takes letter k
    of y_delta, the k-th b takes letter k of the hatted twin."""
    plain, hat = gap_period(delta), gap_period(delta, hatted=True)
    size = len(plain)
    i = j = 0
    for c in fibonacci_word(n):
        if c == "a":
            yield plain[i % size]
            i += 1
        else:
            yield hat[j % size]
            j += 1


def colouring_word(delta: int, n: int) -> list[str]:
    return list(iter_colouring(delta, n))


# ---------------------------------------------------------------------------
# exact numbers: (p + q*sqrt(r)) / s with integers p, q, r >= 0 and s > 0

Surd = tuple[int, int, int, int]


def surd(p: Fraction | int, q: Fraction | int = 0, r: int = 5) -> Surd:
    p, q = Fraction(p), Fraction(q)
    s = p.denominator * q.denominator // math.gcd(p.denominator, q.denominator)
    return (int(p * s), int(q * s), r, s)


def golden(a: Fraction | int, b: Fraction | int) -> Surd:
    """a + b*tau = (a + b/2) + (b/2)*sqrt(5)."""
    a, b = Fraction(a), Fraction(b)
    return surd(a + b / 2, b / 2)


def _floor_root_term(q: int, r: int) -> int:
    """floor(q * sqrt(r)) for integers q and r >= 0."""
    mag = math.isqrt(q * q * r)
    if q >= 0:
        return mag
    return -mag if mag * mag == q * q * r else -mag - 1


def floor_scaled(x: Surd, scale: int) -> tuple[int, bool]:
    """(floor(scale * x), whether scale * x is an integer)."""
    p, q, r, s = x
    qs = q * scale
    root = _floor_root_term(qs, r)
    exact_root = qs == 0 or math.isqrt(r) ** 2 == r
    num = p * scale + root
    return num // s, exact_root and num % s == 0


def sign(x: Surd) -> int:
    p, q, r, _ = x
    lo, exact = floor_scaled((p, q, r, 1), 1)
    if exact:
        return (lo > 0) - (lo < 0)
    return 1 if lo >= 0 else -1


def sub(x: Surd, y: Surd) -> Surd:
    """x - y for two surds over the same radicand."""
    px, qx, r, sx = x
    py, qy, ry, sy = y
    if qx and qy and r != ry:
        raise ValueError("surds over different radicands")
    r = r if qx else ry
    return (px * sy - py * sx, qx * sy - qy * sx, r, sx * sy)


_DECIMAL = re.compile(r"-?\d+\.\d{6}(?!\d)")


def decimal_ok(text: str, x: Surd, places: int = 6) -> bool:
    """A rendering passes when it is within one unit in the last place of the
    exact value, rounded in either direction."""
    if not re.fullmatch(r"-?\d+\.\d+", text) or len(text.split(".")[1]) != places:
        return False
    digits = int(text.replace(".", "").replace("-", ""))
    value = -digits if text.startswith("-") else digits
    lo, exact = floor_scaled(x, 10**places)
    return value == lo if exact else value in (lo, lo + 1)


def mask_decimals(text: str) -> str:
    return _DECIMAL.sub("#.######", text)


# ---------------------------------------------------------------------------
# the paper's bounds, from their definitions


def tau_pow(k: int) -> tuple[int, int]:
    """tau**k as integers (a, b) with tau**k = a + b*tau."""
    if k >= 1:
        return fib(k - 1), fib(k)
    if k == 0:
        return 1, 0
    m = -k
    sgn = -1 if m % 2 else 1
    return sgn * fib(m + 1), -sgn * fib(m)


def colouring_bound(delta: int) -> tuple[int, int, Fraction, Fraction]:
    """(H, n0, a, b): the bound 1 + tau^(1-n0)/H = a + b*tau, where n0 is the
    level with tau^(n0+1) <= H < tau^(n0+2)."""
    H = 2 ** (delta - 1)
    level = -1
    while True:
        a, b = tau_pow(level + 2)
        if sign(sub(golden(a, b), golden(H, 0))) > 0:
            break
        level += 1
    a, b = tau_pow(1 - level)
    return H, level, 1 + Fraction(a, H), Fraction(b, H)


def coarse_bound(d: int) -> tuple[Fraction, Fraction]:
    """1 + tau^3 / 2^(d-2) as (a, b)."""
    a, b = tau_pow(3)
    return 1 + Fraction(a, 2 ** (d - 2)), Fraction(b, 2 ** (d - 2))


# best known repetitive thresholds RTB*(d) for even d <= 10, with the marker
# that says whether they meet the colouring bound ("=") or sit below it ("<")
KNOWN_THRESHOLDS: dict[int, tuple[Surd, str]] = {
    2: (golden(2, 1), "="),
    4: (golden(1, Fraction(1, 2)), "="),
    6: ((75, 3, 65, 80), "<"),
    8: (golden(Fraction(5, 4), Fraction(-1, 8)), "="),
    10: ((364, -21, 7, 304), "<"),
}


def below_bound(exponent: Fraction, bound: tuple[Fraction, Fraction]) -> bool:
    """Exact test exponent <= a + b*tau."""
    a, b = bound
    return sign(golden(a - exponent, b)) >= 0


# ---------------------------------------------------------------------------
# repetitions


def max_power_brute(word: list[str]) -> tuple[Fraction, int, int]:
    """(exponent, period, position) of the highest fractional power of a short
    word, ties to the smaller period and then the smaller position."""
    n = len(word)
    best = (Fraction(0), 0, 0)
    for p in range(1, n):
        for i in range(n - p):
            run = 0
            while i + run + p < n and word[i + run] == word[i + run + p]:
                run += 1
            exp = Fraction(run + p, p)
            if exp > best[0]:
                best = (exp, p, i)
    return best


def longest_run(codes, p: int) -> tuple[int, int]:
    """(run, start) of the longest stretch with codes[i] == codes[i + p],
    earliest start on ties; codes is a numpy integer array."""
    eq = np.concatenate(([0], (codes[p:] == codes[:-p]).astype(np.int8), [0]))
    edges = np.flatnonzero(np.diff(eq))
    if edges.size == 0:
        return 0, 0
    starts, ends = edges[0::2], edges[1::2]
    k = int(np.argmax(ends - starts))
    return int(ends[k] - starts[k]), int(starts[k])


def return_words_brute(text: str, factor: str) -> tuple[list[str], list[int]]:
    """Distinct return words in order of first appearance, and all positions."""
    positions = []
    pos = text.find(factor)
    while pos != -1:
        positions.append(pos)
        pos = text.find(factor, pos + 1)
    seen: list[str] = []
    for start, end in zip(positions, positions[1:]):
        gap = text[start:end]
        if gap not in seen:
            seen.append(gap)
    return seen, positions
