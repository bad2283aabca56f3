"""Asymptotic repetition exponents and their exact golden-mean bounds.

The centrepiece is the bound for the coloured Fibonacci word over 2*delta
letters: with H = 2^(delta-1) and the unique level n0 satisfying
tau^(n0+1) <= H < tau^(n0+2), the asymptotic critical exponent is at most
1 + 1/(H * tau^(n0-1)). Everything on that path is exact, the decimal
renderings and the comparisons with known thresholds included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .analysis import RepetitionRecord, max_fractional_power
from .golden import ONE, GoldenNumber, _floor_surd, fib, sqrt5_sign, surd_decimal, tau_pow
from .words import ColouringGenerator, SequenceGenerator, colouring


@dataclass(frozen=True)
class ExponentEstimate:
    """A computed stand-in for an asymptotic critical exponent, with the
    repetition that produced it when it comes from a scan (`witness`).
    Scan results are lower estimates: the true exponent can only be larger.
    """

    estimate: Fraction
    witness: RepetitionRecord | None = None


@dataclass(frozen=True)
class BoundResult:
    """Exact upper bound for the coloured sequence over 2*delta letters."""

    delta: int
    d: int
    period_length: int  # H = 2^(delta-1)
    level: int  # the n0 with tau^(n0+1) <= H < tau^(n0+2)
    bound: GoldenNumber

    def bound_decimal(self) -> str:
        """The bound rounded up to 6 decimal places, so the printed number is
        never below the exact bound and stays a true upper bound.
        """
        return self.bound.decimal(6, upward=True)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "delta": self.delta,
            "d": self.d,
            "H": self.period_length,
            "N0": self.level,
            "bound_exact": self.bound.to_json_dict(),
            "bound_decimal": self.bound_decimal(),
        }


@dataclass(frozen=True)
class CoefficientBoundCertificate:
    """Exhaustive certificate that golden-proximity forces large coefficients.

    For a threshold c strictly between |F_{n+1} - tau*F_n| and
    |F_n - tau*F_{n-1}|, every pair (kappa, lam) up to F_{n+3} with
    kappa + lam >= 1 and |kappa - tau*lam| < c was checked to satisfy
    kappa >= F_{n+1} and lam >= F_n. Row lam holds the kappa strictly
    between lam*tau - c and lam*tau + c; two exact floors count them.
    """

    n: int
    threshold: GoldenNumber
    kappa_min: int
    lambda_min: int
    search_limit: int
    qualifying_pairs: int
    violations: tuple[tuple[int, int], ...]  # kappa-major order
    minimal_pair_qualifies: bool

    @property
    def passed(self) -> bool:
        return not self.violations and self.minimal_pair_qualifies


def fibonacci_asymptotic_estimate(n: int) -> ExponentEstimate:
    """Asymptotic critical exponent of the Fibonacci word from closed forms.

    Uses the level-n bispecial length F_{n+3} - 2 against the shorter return
    word length F_{n+1}; the ratio increases strictly towards tau^2 in n, so
    the estimate 1 + ratio approaches 2 + tau from below.
    """
    if n < 3:
        raise ValueError(f"level must be at least 3, got {n}")
    return ExponentEstimate(1 + Fraction(fib(n + 3) - 2, fib(n + 1)))


def coefficient_lower_bounds(n: int, c: GoldenNumber | None = None) -> CoefficientBoundCertificate:
    """Count the certificate for level n; c defaults to the midpoint of
    the admissible interval. Raises ValueError when c is not strictly inside
    (|F_{n+1} - tau*F_n|, |F_n - tau*F_{n-1}|) = (tau^-n, tau^(1-n)).
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    lo, hi = tau_pow(-n), tau_pow(1 - n)
    if c is None:
        c = (lo + hi) * Fraction(1, 2)
    if not lo < c < hi:
        raise ValueError(
            f"threshold {c} is not strictly between {lo} and {hi} (level {n})"
        )

    kappa_min, lambda_min = fib(n + 1), fib(n)
    limit = fib(n + 3)
    qualifying = 0
    violations: list[tuple[int, int]] = []
    minimal_ok = False
    cp, cq, _, cs = c.surd()
    for lam in range(0, limit + 1):
        # row lam: the kappa strictly between lam*tau - c and lam*tau + c, (0, 0) left out;
        # with m = lam*cs, +-lam*tau - c = ((+-m - 2cp) + (+-m - 2cq)*sqrt(5)) / (2cs)
        m = lam * cs
        low = max(_floor_surd(m - 2 * cp, m - 2 * cq, 5, 2 * cs)[0] + 1, 1 if lam == 0 else 0)
        high = min(-_floor_surd(-m - 2 * cp, -m - 2 * cq, 5, 2 * cs)[0] - 1, limit)
        qualifying += max(high - low + 1, 0)
        if lam == lambda_min:
            minimal_ok = low <= kappa_min <= high
        top = high if lam < lambda_min else min(high, kappa_min - 1)
        violations.extend(product(range(low, top + 1), [lam]))
    return CoefficientBoundCertificate(
        n=n,
        threshold=c,
        kappa_min=kappa_min,
        lambda_min=lambda_min,
        search_limit=limit,
        qualifying_pairs=qualifying,
        violations=tuple(sorted(violations)),
        minimal_pair_qualifies=minimal_ok,
    )


def colouring_exponent_bound(delta: int) -> BoundResult:
    """Exact upper bound 1 + tau^(1-n0)/H for the 2*delta-letter colouring."""
    if not 1 <= delta <= 9:
        raise ValueError(f"delta must be in 1..9, got {delta}")
    H = 2 ** (delta - 1)
    level = -1
    while not (tau_pow(level + 2) - H).sign() > 0:
        level += 1
    assert (GoldenNumber(H) - tau_pow(level + 1)).sign() >= 0
    bound = ONE + tau_pow(1 - level) * Fraction(1, H)
    return BoundResult(delta=delta, d=2 * delta, period_length=H, level=level, bound=bound)


def colouring_coefficient_certificate(delta: int) -> CoefficientBoundCertificate:
    """Run the coefficient certificate at the colouring's own threshold
    tau^2 / H and its level n0. Needs delta >= 3 so that n0 >= 1.
    """
    result = colouring_exponent_bound(delta)
    if result.level < 1:
        raise ValueError(
            f"delta {delta} has level {result.level}; the certificate needs level >= 1"
        )
    c = tau_pow(2) * Fraction(1, result.period_length)
    return coefficient_lower_bounds(result.level, c)


def shortest_return_lower_bound(index: int, delta: int) -> int:
    """Every return word of the level-`index` bispecial factor of the
    colouring has length at least H * F_(n0 + index + 2).
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    result = colouring_exponent_bound(delta)
    return result.period_length * fib(result.level + index + 2)


def repetitive_threshold_bound(d: int) -> GoldenNumber:
    """Coarse bound 1 + tau^3 / 2^(d-2) for balanced sequences over d letters
    (d even, at most 18, where the colouring bound it is compared with is defined).
    It implies the paper's 1 + tau^3 / 2^(d-3) for every d >= 2: for odd d,
    `split_letter` on the (d-1)-letter colouring does not raise the exponent.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError(f"d must be an even integer >= 2, got {d}")
    if d > 18:
        raise ValueError(f"d must be <= 18, got {d}")
    return ONE + tau_pow(3) * Fraction(1, 2 ** (d - 2))


SPLIT_LETTERS = ("A", "B")


def split_letter(base: SequenceGenerator, target: str) -> ColouringGenerator:
    """Alternating split of one letter into two: the base recoloured
    letter-wise with period ("A", "B") for `target` and (c,) for every other
    letter c. Takes a d-letter balanced sequence to a (d+1)-letter balanced
    one without raising the asymptotic critical exponent.

    The base's letter table, every letter it can emit, decides exactly: the
    split is refused when `target` is not in it, or when "A" or "B" is, since
    the split would then merge `target` into a letter already there.
    """
    letters = set(base._table.tolist())
    if target not in letters:
        raise ValueError(f"letter {target!r} is not a letter of the base")
    for fresh in SPLIT_LETTERS:
        if fresh in letters:
            raise ValueError(f"letter {fresh!r} is already a letter of the base")
    return ColouringGenerator(base, lambda c: SPLIT_LETTERS if c == target else (c,))


def empirical_asymptotic_estimate(delta: int, horizon: int, min_period: int) -> ExponentEstimate:
    """Scan the colouring for its strongest long-period repetition.

    A lower estimate of the asymptotic critical exponent: the maximum exact
    exponent among repetitions with period in [min_period, max_period] in
    prefix(horizon), where max_period = min(horizon // 2, 20 * min_period) is
    enough to see several bispecial levels above min_period.
    """
    if not 1 <= delta <= 5:
        raise ValueError(f"delta must be in 1..5 for the scan, got {delta}")
    if horizon > 10**6:
        raise ValueError(f"horizon capped at 10^6 for the scan, got {horizon}")
    max_period = min(horizon // 2, 20 * min_period)
    record = max_fractional_power(colouring(delta), horizon, min_period, max_period)
    return ExponentEstimate(estimate=record.exponent, witness=record)


# best published values of the repetitive threshold RTB*(d) for even d, as
# (p, q, r, s) for (p+q*sqrt(r))/s; those in Q(tau) are written as a + b*tau
_KNOWN_THRESHOLDS: dict[int, tuple[int, int, int, int]] = {
    2: GoldenNumber(2, 1).surd(),
    4: GoldenNumber(1, Fraction(1, 2)).surd(),
    6: (75, 3, 65, 80),
    8: GoldenNumber(Fraction(5, 4), Fraction(-1, 8)).surd(),
    10: (364, -21, 7, 304),
}


@dataclass(frozen=True)
class ThresholdRow:
    d: int
    period_length: int
    level: int
    bound: GoldenNumber
    bound_decimal: str
    rtb_star_decimal: str
    marker: str

    def to_json_dict(self) -> dict[str, object]:
        return {
            "d": self.d,
            "H": self.period_length,
            "N0": self.level,
            "bound_exact": self.bound.to_json_dict(),
            "bound_decimal": self.bound_decimal,
            "rtb_star_decimal": self.rtb_star_decimal,
            "marker": self.marker,
        }


def _marker(bound: GoldenNumber, known: tuple[int, int, int, int]) -> str:
    """"=" when the known threshold equals the bound, "<" when it is below.

    With bound = (P + Q*sqrt5)/S and known = (p + q*sqrt(r))/s, the sign of
    bound - known is that of u + v for u = (Ps - pS) + Qs*sqrt5 and
    v = -qS*sqrt(r), which is 0 when r = 0. When u and v differ in sign,
    the sign of u^2 - v^2 decides which one dominates; both signs are exact.
    """
    big_p, big_q, _, big_s = bound.surd()
    p, q, r, s = known
    a, b, c = big_p * s - p * big_s, big_q * s, -q * big_s if r else 0
    u, v = sqrt5_sign(a, b), (c > 0) - (c < 0)
    if u * v < 0:
        u *= sqrt5_sign(a * a + 5 * b * b - c * c * r, 2 * a * b)
        v = 0
    return {0: "=", 1: "<", -1: ">"}[u or v]


def threshold_table(d_max: int = 10) -> list[ThresholdRow]:
    """One row per even alphabet size up to d_max: the exact colouring bound
    next to the best known threshold value, with a marker telling whether the
    known value meets the bound ("=") or sits strictly below it ("<").
    Bound decimals are rounded up, as the bounds are upper bounds; the
    best-known values are rounded to nearest.
    """
    if d_max < 2 or d_max % 2 != 0 or d_max > 10:
        raise ValueError(f"d_max must be an even integer in 2..10, got {d_max}")
    rows = []
    for d in range(2, d_max + 1, 2):
        result = colouring_exponent_bound(d // 2)
        known = _KNOWN_THRESHOLDS[d]
        rows.append(
            ThresholdRow(
                d=d,
                period_length=result.period_length,
                level=result.level,
                bound=result.bound,
                bound_decimal=result.bound_decimal(),
                rtb_star_decimal=surd_decimal(*known),
                marker=_marker(result.bound, known),
            )
        )
    return rows


EXPECTED_MARKERS: dict[int, str] = {2: "=", 4: "=", 6: "<", 8: "=", 10: "<"}
