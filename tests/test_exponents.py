import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqlab.exponents import (
    EXPECTED_MARKERS,
    CoefficientBoundCertificate,
    _marker,
    coefficient_lower_bounds,
    colouring_coefficient_certificate,
    colouring_exponent_bound,
    empirical_asymptotic_estimate,
    fibonacci_asymptotic_estimate,
    repetitive_threshold_bound,
    shortest_return_lower_bound,
    split_letter,
    threshold_table,
)
from seqlab.golden import ONE, TAU, GoldenNumber, fib, sqrt5_sign, tau_pow
from seqlab.words import PeriodicGenerator, Word, colouring


def test_closed_form_estimate_increases_below_two_plus_tau():
    assert fibonacci_asymptotic_estimate(3).estimate == 3
    previous = None
    for n in range(3, 51):
        estimate = fibonacci_asymptotic_estimate(n).estimate
        assert estimate == 1 + Fraction(fib(n + 3) - 2, fib(n + 1))
        if previous is not None:
            assert estimate > previous
        assert (TAU + 2 - estimate).sign() > 0
        previous = estimate


def test_ratio_close_to_limit_at_30():
    estimate = fibonacci_asymptotic_estimate(30)
    gap = TAU + 2 - estimate.estimate
    assert gap.sign() > 0
    assert (gap - Fraction(1, 10**5)).sign() < 0


def test_bound_exact_values():
    expected = {
        1: GoldenNumber(2, 1),
        2: GoldenNumber(1, Fraction(1, 2)),
        3: GoldenNumber(Fraction(5, 4)),
        4: ONE + (tau_pow(2) * 8).inverse(),
        5: ONE + (tau_pow(3) * 16).inverse(),
    }
    assert expected[4] == GoldenNumber(Fraction(5, 4), Fraction(-1, 8))
    assert expected[5] == GoldenNumber(Fraction(13, 16), Fraction(1, 8))
    for delta, bound in expected.items():
        assert colouring_exponent_bound(delta).bound == bound


def test_bound_levels_and_shape():
    for delta, level in [(1, -1), (2, 0), (3, 1), (4, 3), (5, 4)]:
        result = colouring_exponent_bound(delta)
        assert result.level == level
        assert result.period_length == 2 ** (delta - 1)
        assert result.d == 2 * delta
        # bound = 1 + tau^(1-level)/H exactly
        rebuilt = ONE + tau_pow(1 - level) * Fraction(1, result.period_length)
        assert result.bound == rebuilt


def test_level_bracketing_all_deltas():
    for delta in range(1, 10):
        result = colouring_exponent_bound(delta)
        period = GoldenNumber(result.period_length)
        assert (period - tau_pow(result.level + 1)).sign() >= 0
        assert (tau_pow(result.level + 2) - period).sign() > 0


def test_bound_decimals():
    decimals = [colouring_exponent_bound(d).bound_decimal() for d in range(1, 10)]
    assert decimals == [
        "3.618034", "1.809017", "1.250000", "1.047746", "1.014755",
        "1.002818", "1.000871", "1.000167", "1.000052",
    ]
    # upper bounds round up: bound <= rendered < bound + 10^-6, decided exactly
    for delta, text in zip(range(1, 10), decimals):
        bound = colouring_exponent_bound(delta).bound
        rendered = GoldenNumber(Fraction(text))
        assert (rendered - bound).sign() >= 0
        assert (bound + Fraction(1, 10**6) - rendered).sign() > 0


def test_bound_rejects_out_of_range():
    with pytest.raises(ValueError):
        colouring_exponent_bound(0)
    with pytest.raises(ValueError):
        colouring_exponent_bound(10)


def test_coarse_bound_dominates_exactly():
    for d in range(2, 19, 2):
        coarse = repetitive_threshold_bound(d)
        assert coarse == ONE + tau_pow(3) * Fraction(1, 2 ** (d - 2))
        fine = colouring_exponent_bound(d // 2).bound
        assert (coarse - fine).sign() >= 0
        if d >= 4:
            assert (coarse - fine).sign() > 0


def test_coarse_bound_validation():
    with pytest.raises(ValueError):
        repetitive_threshold_bound(3)
    with pytest.raises(ValueError):
        repetitive_threshold_bound(20)


def test_coefficient_certificates():
    for n in range(1, 11):
        cert = coefficient_lower_bounds(n)
        assert cert.passed
        assert cert.kappa_min == fib(n + 1)
        assert cert.lambda_min == fib(n)
        assert cert.minimal_pair_qualifies
        assert cert.violations == ()
        assert cert.search_limit == fib(n + 3)


def test_certificate_threshold_bracketing():
    cert = coefficient_lower_bounds(4)
    low = abs(GoldenNumber(fib(5), -fib(4)))
    high = abs(GoldenNumber(fib(4), -fib(3)))
    assert (cert.threshold - low).sign() > 0
    assert (high - cert.threshold).sign() > 0


def grid_certificate(n: int, c: GoldenNumber) -> CoefficientBoundCertificate:
    """Oracle: the certificate by testing every pair of the (F_{n+3} + 1)^2 grid."""
    # clear denominators once: c = (P + Q*tau) / D with integer P, Q, D > 0
    denom = math.lcm(c.a.denominator, c.b.denominator)
    p_int = int(c.a * denom)
    q_int = int(c.b * denom)
    kappa_min, lambda_min = fib(n + 1), fib(n)
    limit = fib(n + 3)
    qualifying = 0
    violations = []
    minimal_ok = False
    for kappa in range(0, limit + 1):
        dk = denom * kappa
        for lam in range(0, limit + 1):
            if kappa == 0 and lam == 0:
                continue
            dl = denom * lam
            # c - (kappa - lam*tau) > 0 and c + (kappa - lam*tau) > 0
            b1 = q_int + dl
            if sqrt5_sign(2 * (p_int - dk) + b1, b1) <= 0:
                continue
            b2 = q_int - dl
            if sqrt5_sign(2 * (p_int + dk) + b2, b2) <= 0:
                continue
            qualifying += 1
            if kappa == kappa_min and lam == lambda_min:
                minimal_ok = True
            if kappa < kappa_min or lam < lambda_min:
                violations.append((kappa, lam))
    return CoefficientBoundCertificate(
        n=n,
        threshold=c,
        kappa_min=kappa_min,
        lambda_min=lambda_min,
        search_limit=limit,
        qualifying_pairs=qualifying,
        violations=tuple(violations),
        minimal_pair_qualifies=minimal_ok,
    )


def test_certificate_matches_grid_oracle_at_default_thresholds():
    for n in range(1, 13):
        cert = coefficient_lower_bounds(n)
        assert cert == grid_certificate(n, cert.threshold)


@st.composite
def certificate_thresholds(draw):
    n = draw(st.integers(1, 9))
    lo = abs(GoldenNumber(fib(n + 1), -fib(n)))
    hi = abs(GoldenNumber(fib(n), -fib(n - 1)))
    t = draw(st.fractions(0, 1, max_denominator=10**6).filter(lambda t: 0 < t < 1))
    return n, lo + (hi - lo) * t


def _colouring_threshold(delta: int) -> tuple[int, GoldenNumber]:
    result = colouring_exponent_bound(delta)
    return result.level, tau_pow(2) * Fraction(1, result.period_length)


@pytest.mark.oracle
@settings(max_examples=200, deadline=None)
@given(certificate_thresholds())
@example(_colouring_threshold(3))
@example(_colouring_threshold(4))
@example(_colouring_threshold(5))
@example(_colouring_threshold(6))
def test_certificate_matches_grid_oracle(case):
    n, c = case
    assert coefficient_lower_bounds(n, c) == grid_certificate(n, c)


def golden_row_certificate(n: int, c: GoldenNumber) -> CoefficientBoundCertificate:
    """Oracle: the certificate's rows bounded by GoldenNumber floors of
    lam*tau - c and -lam*tau - c."""
    kappa_min, lambda_min = fib(n + 1), fib(n)
    limit = fib(n + 3)
    qualifying = 0
    violations = []
    minimal_ok = False
    for lam in range(0, limit + 1):
        centre = GoldenNumber(0, lam)
        low = max(math.floor(centre - c) + 1, 1 if lam == 0 else 0)
        high = min(-math.floor(-centre - c) - 1, limit)
        qualifying += max(high - low + 1, 0)
        if lam == lambda_min:
            minimal_ok = low <= kappa_min <= high
        top = high if lam < lambda_min else min(high, kappa_min - 1)
        violations += [(kappa, lam) for kappa in range(low, top + 1)]
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


def test_certificate_rows_match_golden_oracle_at_default_thresholds():
    for n in range(1, 17):
        cert = coefficient_lower_bounds(n)
        assert cert == golden_row_certificate(n, cert.threshold)


def test_certificate_rows_match_golden_oracle_at_colouring_thresholds():
    for delta in range(3, 10):
        n, c = _colouring_threshold(delta)
        assert colouring_coefficient_certificate(delta) == golden_row_certificate(n, c)


@pytest.mark.oracle
@settings(max_examples=200, deadline=None)
@given(certificate_thresholds())
def test_certificate_rows_match_golden_oracle(case):
    n, c = case
    assert coefficient_lower_bounds(n, c) == golden_row_certificate(n, c)


def test_colouring_certificates():
    for delta in (3, 4, 5):
        cert = colouring_coefficient_certificate(delta)
        assert cert.passed
        level = colouring_exponent_bound(delta).level
        assert cert.n == level
        # threshold is tau^2/H, strictly inside the certified interval
        period = 2 ** (delta - 1)
        assert cert.threshold == tau_pow(2) * Fraction(1, period)
    for delta in (1, 2):
        with pytest.raises(ValueError):
            colouring_coefficient_certificate(delta)


def test_shortest_return_lower_bounds():
    # H * F(level + n + 2): scans meet these exactly at every observed level
    assert [shortest_return_lower_bound(n, 3) for n in range(1, 6)] == [
        12, 20, 32, 52, 84,
    ]
    assert [shortest_return_lower_bound(n, 1) for n in range(1, 6)] == [
        1, 2, 3, 5, 8,
    ]
    for n in range(1, 8):
        level = colouring_exponent_bound(4).level
        assert shortest_return_lower_bound(n, 4) == 8 * fib(level + n + 2)


def test_split_letter_shape():
    split = split_letter(colouring(2), "2")
    snapshot = split.letters(4096)
    assert sorted(set(snapshot)) == ["1", "1'", "2'", "A", "B"]
    fresh = [t for t in snapshot if t in ("A", "B")]
    # replaced letter alternates between the two fresh letters
    assert fresh == ["A", "B"] * (len(fresh) // 2) + ["A"] * (len(fresh) % 2)
    base = colouring(2).letters(4096)
    restored = ["2" if t in ("A", "B") else t for t in snapshot]
    assert restored == base


def test_split_letter_unknown_target():
    with pytest.raises(ValueError):
        split_letter(colouring(2), "9")


def test_split_letter_refuses_fresh_letters_already_present():
    # a second split would reuse A and B and merge the two split letters
    once = split_letter(colouring(2), "2")
    with pytest.raises(ValueError, match="letter 'A' is already a letter of the base"):
        split_letter(once, "1")


def test_split_letter_refuses_a_fresh_letter_anywhere_in_the_base():
    # A first occurs at position 4500; splitting x0 into A and B would merge it
    names = [f"x{i}" for i in range(5000)]
    base = PeriodicGenerator(Word(names[:4500] + ["A"] + names[4500:]))
    with pytest.raises(ValueError, match="letter 'A'"):
        split_letter(base, "x0")


def test_split_letter_accepts_a_target_anywhere_in_the_base():
    base = PeriodicGenerator(Word(f"x{i}" for i in range(5000)))
    split = split_letter(base, "x4200")
    snapshot = split.letters(10002)
    assert [snapshot[4200], snapshot[9200]] == ["A", "B"]
    restored = ["x4200" if t in ("A", "B") else t for t in snapshot]
    assert restored == base.letters(10002)


def test_empirical_estimate_quick():
    estimate = empirical_asymptotic_estimate(1, 10**4, 30)
    bound = colouring_exponent_bound(1).bound
    assert (bound + Fraction(1, 10**9) - estimate.estimate).sign() > 0
    assert estimate.witness is not None
    assert estimate.witness.period >= 30


def test_empirical_estimate_validation():
    with pytest.raises(ValueError):
        empirical_asymptotic_estimate(6, 1000, 10)
    with pytest.raises(ValueError):
        empirical_asymptotic_estimate(2, 10**6 + 1, 10)


def test_threshold_table_contents():
    rows = threshold_table(10)
    assert [row.d for row in rows] == [2, 4, 6, 8, 10]
    assert [row.marker for row in rows] == ["=", "=", "<", "=", "<"]
    assert [row.marker for row in rows] == [EXPECTED_MARKERS[row.d] for row in rows]
    assert [row.bound_decimal for row in rows] == [
        "3.618034", "1.809017", "1.250000", "1.047746", "1.014755",
    ]
    assert [row.rtb_star_decimal for row in rows] == [
        "3.618034", "1.809017", "1.239835", "1.047746", "1.014603",
    ]
    first = rows[0].to_json_dict()
    assert first["bound_exact"] == {"a_num": 2, "a_den": 1, "b_num": 1, "b_den": 1}


def test_threshold_table_validation():
    with pytest.raises(ValueError):
        threshold_table(12)
    with pytest.raises(ValueError):
        threshold_table(3)


def test_hatted_letters_stay_distinct_after_split():
    # splitting never invents hats: fresh letters are plain
    split = split_letter(colouring(2), "1")
    assert not any(t.endswith("'") for t in split.letters(512) if t in ("A", "B"))


def surd_bracket(p: Fraction, q: Fraction, r: int, bits: int) -> tuple[Fraction, Fraction]:
    """An interval around p + q*sqrt(r), from floor(2^bits * sqrt(r))."""
    root = Fraction(math.isqrt(r << (2 * bits)), 1 << bits)
    ends = (p + q * root, p + q * (root + Fraction(1, 1 << bits)))
    return min(ends), max(ends)


def bracket_marker(bound: GoldenNumber, known: tuple[int, int, int, int]) -> str:
    """The marker by interval brackets that narrow until they separate; when
    512 bits do not separate them, the two values are taken as equal.
    """
    p, q, r, s = known
    for bits in (8, 32, 128, 512):
        b_lo, b_hi = surd_bracket(bound.a + bound.b / 2, bound.b / 2, 5, bits)
        k_lo, k_hi = surd_bracket(Fraction(p, s), Fraction(q, s), r, bits)
        if b_lo > k_hi:
            return "<"
        if b_hi < k_lo:
            return ">"
    return "="


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


@st.composite
def marker_cases(draw):
    bound = GoldenNumber(draw(rationals), draw(rationals))
    if draw(st.booleans()):
        p, q, _, s = bound.surd()  # equal to the bound, or off by a tiny integer
        known = (p + draw(st.integers(-1, 1)), q, 5, s)
    else:
        known = (draw(st.integers(-10**5, 10**5)), draw(st.integers(-10**3, 10**3)),
                 draw(st.integers(0, 200)), draw(st.integers(1, 10**4)))
    return bound, known


@settings(max_examples=500, deadline=None)
@given(marker_cases())
@example((colouring_exponent_bound(3).bound, (75, 3, 65, 80)))
@example((colouring_exponent_bound(5).bound, (364, -21, 7, 304)))
@example((GoldenNumber(Fraction(5, 4)), (5, 0, 0, 4)))
@example((GoldenNumber(Fraction(5, 4)), (0, 5, 1, 4)))
@example((GoldenNumber(2), (0, 1, 4, 1)))
@example((GoldenNumber(0), (0, 1, 0, 1)))
def test_marker_sign_against_interval_brackets(case):
    bound, known = case
    assert _marker(bound, known) == bracket_marker(bound, known)
