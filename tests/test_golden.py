import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqlab
from seqlab.golden import (
    ONE,
    TAU,
    ZERO,
    GoldenNumber,
    fib,
    sqrt5_sign,
    surd_decimal,
    tau_pow,
    verify_fib_properties,
)
from seqlab.verify import _interval_sign


def interval_sign(p: Fraction, q: Fraction) -> int:
    """Independent oracle: sign of p + q*sqrt(5) via integer brackets."""
    if q == 0:
        return (p > 0) - (p < 0)
    big_p = p.numerator * q.denominator
    big_q = q.numerator * p.denominator
    bits = 200
    while True:
        scale = 1 << bits
        root = math.isqrt(5 * scale * scale)
        ends = (big_p * scale + big_q * root, big_p * scale + big_q * (root + 1))
        if min(ends) > 0:
            return 1
        if max(ends) < 0:
            return -1
        bits *= 2


fractions = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=1000
)


def test_fib_values():
    assert [fib(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert fib(100) == 354224848179261915075  # needs arbitrary precision


def test_tau_satisfies_quadratic():
    assert TAU * TAU == TAU + ONE
    assert TAU.inverse() == TAU - ONE
    assert (TAU * TAU - TAU - ONE) == ZERO


def test_tau_pow_matches_fib_coefficients():
    for n in range(1, 30):
        assert tau_pow(n) == GoldenNumber(fib(n - 1), fib(n))
    assert tau_pow(0) == ONE


def test_tau_pow_additivity():
    powers = {n: tau_pow(n) for n in range(-20, 21)}
    for m in range(-20, 21):
        for n in range(-20, 21):
            if -20 <= m + n <= 20:
                assert powers[m] * powers[n] == powers[m + n]


def test_negative_powers_alternate():
    # tau^(-n) = (-1)^n (F_{n+1} - F_n tau)
    for n in [*range(1, 40), 500]:
        expected = GoldenNumber(fib(n + 1), -fib(n))
        if n % 2:
            expected = -expected
        assert tau_pow(-n) == expected
        assert tau_pow(-n) * tau_pow(n) == ONE


def test_golden_remainder_sign_alternation():
    for n in range(1, 201):
        remainder = GoldenNumber(fib(n + 1), -fib(n))
        assert remainder.sign() == (1 if n % 2 == 0 else -1)


def test_sign_bulk_random_agreement():
    rng = random.Random(12345)
    for _ in range(10**4):
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
        assert GoldenNumber(a, b).sign() == interval_sign(a + b / 2, b / 2)


@given(a=fractions, b=fractions)
def test_sign_agrees_with_interval_oracle(a, b):
    assert GoldenNumber(a, b).sign() == interval_sign(a + b / 2, b / 2)


big_fractions = st.builds(
    Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**25)
)


@pytest.mark.oracle
@settings(max_examples=300)
@given(a=big_fractions, b=big_fractions)
def test_sign_of_large_fractions_agrees_with_verify_interval_sign(a, b):
    assert GoldenNumber(a, b).sign() == _interval_sign(a + b / 2, b / 2)


def test_sign_near_zero_with_unequal_denominators():
    # F_{n+1}/F_n - tau, and the golden remainder over 7 nudged by 10^-30: each is
    # within tau^-n of zero, and the denominators of a and b differ
    for n in range(3, 80):
        nudged = [GoldenNumber(Fraction(fib(n + 1), 7) + Fraction(s, 10**30), Fraction(-fib(n), 7))
                  for s in (-1, 1)]
        for x in (GoldenNumber(Fraction(fib(n + 1), fib(n)), -1), *nudged):
            assert x.a.denominator != x.b.denominator
            assert x.sign() == (-x).sign() * -1 == (-1) ** n
            assert x.sign() == _interval_sign(x.a + x.b / 2, x.b / 2)


@given(a=fractions, b=fractions)
def test_floor_is_bracketed_by_the_interval_oracle(a, b):
    x = GoldenNumber(a, b)
    floor = math.floor(x)
    assert isinstance(floor, int)
    # floor <= x < floor + 1, each side decided by the oracle
    assert interval_sign(a - floor + b / 2, b / 2) >= 0
    assert interval_sign(a - floor - 1 + b / 2, b / 2) < 0


def test_floor_of_integers_and_powers():
    assert [math.floor(GoldenNumber(k)) for k in (-2, 0, 3)] == [-2, 0, 3]
    assert math.floor(TAU) == 1 and math.floor(-TAU) == -2
    # tau^n = L_n - (-1/tau)^n for the Lucas number L_n = F_{n-1} + F_{n+1}
    for n in range(2, 60):
        lucas = fib(n - 1) + fib(n + 1)
        assert math.floor(tau_pow(n)) == (lucas - 1 if n % 2 == 0 else lucas)


@given(a=fractions, b=fractions, c=fractions, d=fractions)
@settings(max_examples=200)
def test_ring_identities(a, b, c, d):
    x = GoldenNumber(a, b)
    y = GoldenNumber(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * x == x * x + y * x
    assert x - y == -(y - x)


@given(a=fractions, b=fractions)
def test_norm_is_product_with_conjugate(a, b):
    x = GoldenNumber(a, b)
    product = x * x.conjugate()
    assert product.b == 0
    assert product.a == x.norm


@given(a=fractions, b=fractions)
def test_inverse_round_trip(a, b):
    x = GoldenNumber(a, b)
    if x == ZERO:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == ONE


def test_pow_is_repeated_multiplication():
    x = GoldenNumber(Fraction(3, 2), Fraction(-1, 4))
    acc = ONE
    for exponent in range(6):
        assert x**exponent == acc
        acc = acc * x
    assert TAU**-3 == tau_pow(-3)


class PairReference:
    """a + b*tau held as two Fractions, with the field formulas written on them."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return PairReference(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return PairReference(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        a, b, c, d = self.a, self.b, o.a, o.b
        return PairReference(a * c + b * d, a * d + b * c + b * d)

    def inverse(self):
        a, b = self.a, self.b
        n = a * a + a * b - b * b
        return PairReference((a + b) / n, -b / n)

    def __pow__(self, exponent):
        base = self.inverse() if exponent < 0 else self
        result = PairReference(1)
        for _ in range(abs(exponent)):
            result = result * base
        return result

    def sign(self):
        a, b = self.a, self.b
        return sqrt5_sign(2 * a.numerator * b.denominator + b.numerator * a.denominator,
                          b.numerator * a.denominator)

    def surd(self):
        den = math.lcm(self.a.denominator, self.b.denominator)
        return int((2 * self.a + self.b) * den), int(self.b * den), 5, 2 * den

    def hash(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def json(self):
        return {"a_num": self.a.numerator, "a_den": self.a.denominator,
                "b_num": self.b.numerator, "b_den": self.b.denominator}

    def str(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        sign = "-" if b < 0 else "+"
        mag = "tau" if abs(b) == 1 else f"{abs(b)}*tau"
        if a == 0:
            return mag if sign == "+" else f"-{mag}"
        return f"{a} {sign} {mag}"

    def repr(self):
        return f"GoldenNumber({self.a!r}, {self.b!r})"


def assert_same(x, ref):
    """Everything a GoldenNumber shows, read against the pair reference."""
    assert (x.a, x.b) == (ref.a, ref.b)
    assert x.sign() == ref.sign()
    assert x.surd() == ref.surd()
    for upward in (False, True):
        assert x.decimal(6, upward=upward) == surd_decimal(*ref.surd(), 6, upward=upward)
    floor = math.floor(x)
    assert (ref - PairReference(floor)).sign() >= 0 > (ref - PairReference(floor + 1)).sign()
    assert hash(x) == ref.hash()
    assert x.to_json_dict() == ref.json()
    assert str(x) == ref.str()
    assert repr(x) == ref.repr()
    if ref.b == 0:
        assert x == ref.a and ref.a == x and hash(x) == hash(ref.a)
        if ref.a.denominator == 1:
            assert x == int(ref.a) and hash(x) == hash(int(ref.a))


coefficients = st.one_of(st.integers(-20, 20), fractions,
                         st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-3, 7)]))


@pytest.mark.oracle
@given(a=coefficients, b=st.one_of(st.just(0), coefficients), c=coefficients,
       d=st.one_of(st.just(0), coefficients), exponent=st.integers(-5, 5))
@example(a=0, b=0, c=Fraction(-1, 2), d=Fraction(1, 2), exponent=-5)
@example(a=Fraction(5, 4), b=Fraction(-1, 8), c=2, d=0, exponent=3)
@example(a=Fraction(1, 6), b=Fraction(1, 10), c=Fraction(1, 15), d=Fraction(-1, 10), exponent=-1)
@settings(max_examples=150, deadline=None)
def test_golden_number_matches_the_fraction_pair_reference(a, b, c, d, exponent):
    x, y = GoldenNumber(a, b), GoldenNumber(c, d)
    rx, ry = PairReference(a, b), PairReference(c, d)
    assert_same(x, rx)
    assert_same(y, ry)
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(x * y, rx * ry)
    assert_same(c + x, PairReference(c) + rx)
    assert_same(c - x, PairReference(c) - rx)
    assert_same(x * c, rx * PairReference(c))
    assert (x < y) == ((ry - rx).sign() > 0)
    assert (x == y) == ((rx.a, rx.b) == (ry.a, ry.b))
    assert (x == y) <= (hash(x) == hash(y))
    # equal values built along different paths compare and hash equal
    assert x + y - y == x and hash(x + y - y) == hash(x)
    if rx.a or rx.b:
        assert_same(x.inverse(), rx.inverse())
        assert_same(x**exponent, rx**exponent)
        assert x * x.inverse() == ONE
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        assert x**abs(exponent) == (ONE if exponent == 0 else ZERO)


def test_decimal_rendering():
    assert TAU.decimal() == "1.618034"
    assert (TAU + 2).decimal() == "3.618034"
    assert GoldenNumber(Fraction(13, 16), Fraction(1, 8)).decimal() == "1.014754"
    assert (ONE - TAU).decimal() == "-0.618034"
    assert TAU.decimal(places=10) == "1.6180339887"


def test_str_canonical_forms():
    assert str(TAU + 2) == "2 + tau"
    assert str(GoldenNumber(Fraction(5, 4), Fraction(-1, 8))) == "5/4 - 1/8*tau"
    assert str(GoldenNumber(Fraction(5, 4))) == "5/4"
    assert str(ZERO) == "0"


def test_hash_consistent_with_rationals():
    assert hash(GoldenNumber(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert GoldenNumber(2, 0) == 2


def test_sqrt5_sign_plain_cases():
    assert sqrt5_sign(0, 0) == 0
    assert sqrt5_sign(Fraction(9, 4), -1) == 1  # 9/4 > sqrt5
    assert sqrt5_sign(Fraction(11, 5), -1) == -1  # 11/5 < sqrt5
    assert sqrt5_sign(-3, 1) == -1
    assert sqrt5_sign(-2, 1) == 1


def test_verify_fib_properties():
    report = verify_fib_properties(200)
    assert report.all_pass
    assert sorted(report.results) == [
        "cassini",
        "coprimality",
        "golden_remainder",
        "index_addition",
        "ratio_convergence",
        "remainder_alternation",
    ]
    assert report.failures == {}
    with pytest.raises(ValueError):
        verify_fib_properties(1)


@pytest.mark.parametrize("wrong_f7, alternation", [(14, "n=6 magnitude"), (12, "n=6 sign")])
def test_verify_fib_properties_reports_first_failures(monkeypatch, wrong_f7, alternation):
    # one wrong Fibonacci number, F_7 = 13, breaks every identity; the
    # witnesses pin where each check stops and in which order it looks
    real_fib = seqlab.golden.fib
    monkeypatch.setattr(
        seqlab.golden, "fib", lambda n: wrong_f7 if n == 7 else real_fib(n)
    )
    report = verify_fib_properties(30)
    assert list(report.results.items()) == [
        ("cassini", False),
        ("coprimality", False),
        ("golden_remainder", False),
        ("ratio_convergence", False),
        ("remainder_alternation", False),
        ("index_addition", False),
    ]
    assert report.failures == {
        "cassini": "n=6",
        "coprimality": "n=6",
        "golden_remainder": "n=6",
        "ratio_convergence": "n=6",
        "remainder_alternation": alternation,
        "index_addition": "m=1 n=5",
    }
    assert not report.all_pass


def floating_point_uses(tree: ast.AST) -> list[str]:
    """float(...) calls, math.sqrt, and imports of decimal in one module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append(f"float call at line {node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt" \
                and isinstance(node.value, ast.Name) and node.value.id == "math":
            found.append(f"math.sqrt at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math" \
                and any(alias.name == "sqrt" for alias in node.names):
            found.append(f"math.sqrt import at line {node.lineno}")
        elif isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "decimal" for alias in node.names):
            found.append(f"decimal import at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "decimal":
            found.append(f"decimal import at line {node.lineno}")
    return found


def test_no_floating_point_in_source():
    # the README's claim: no decision in seqlab touches floating point
    sources = sorted(Path(seqlab.__file__).parent.glob("*.py"))
    assert sources
    found = {
        path.name: uses
        for path in sources
        if (uses := floating_point_uses(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}
    with pytest.raises(TypeError):
        float(GoldenNumber(1, 1))
