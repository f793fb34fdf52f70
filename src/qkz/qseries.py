"""q-Pochhammer machinery, balanced brackets, q-binomials, Euler product
coefficients, and terminating basic hypergeometric evaluators.

All functions are ring-generic: scalars may be rationals, h-jets, or
truncated Lambda-series, as long as the required divisions exist.
"""

from __future__ import annotations

from .errors import DegenerateParameterError
from .scalars import (ONE, TruncatedSeries, _reduced, dot, is_plain, product, quotient,
                      series_exp)


class LambdaSeries(TruncatedSeries):
    """Truncated univariate series in the instanton variable Lambda."""


def _qpoch_prefixes(a, q, n: int, reduced: bool) -> list:
    """[(a; q)_0, ..., (a; q)_n] by the prefix rule
    (a; q)_(j+1) = (a; q)_j (1 - a q^j).  For rational a = an/ad and
    q = qn/qd a prefix is the int pair prod_i (ad qd^i - an qn^i) and
    ad^j qd^(j(j-1)/2), reduced into a Rat if `reduced`; otherwise it is a
    ring value."""
    if n < 0:
        raise ValueError("a q-Pochhammer length needs n >= 0")
    if is_plain(a) and is_plain(q):
        an, ad, qn, qd = a.numerator, a.denominator, q.numerator, q.denominator
        num = den = 1
        out = [_reduced(num, den) if reduced else (num, den)]
        for _ in range(n):
            num *= ad - an
            den *= ad
            an *= qn
            ad *= qd
            out.append(_reduced(num, den) if reduced else (num, den))
        return out
    out, aq = [ONE], a
    for _ in range(n):
        out.append(out[-1] * (1 - aq))
        aq = aq * q
    return out


def qpoch(a, q, n: int):
    """(a; q)_n = prod_{i<n} (1 - a q^i), n >= 0, reduced once at rational a, q."""
    last = _qpoch_prefixes(a, q, n, reduced=False)[n]
    return _reduced(*last) if is_plain(a) and is_plain(q) else last


def qpoch_run(a, q, n: int) -> list:
    """[(a; q)_0, ..., (a; q)_n], each reduced once at rational a, q."""
    return _qpoch_prefixes(a, q, n, reduced=True)


def qbracket_poch(sqrt_u, sqrt_q, n: int):
    """[u; q]_n = u^(-n/2) q^(-n(n-1)/4) (u; q)_n, via exact square roots.

    Equals the product [u][qu]...[q^(n-1)u] with [v] = v^(-1/2) - v^(1/2).
    n(n-1) is even, so only integer powers of the square roots occur.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return quotient(qpoch(sqrt_u * sqrt_u, sqrt_q * sqrt_q, n),
                    sqrt_u ** n * sqrt_q ** (n * (n - 1) // 2),
                    "square-root input to the bracket")


def bracket_parts(a, b):
    """[u] = u^(-1/2) - u^(1/2) as the unreduced int pair (b^2 - a^2, a b)
    for sqrt(u) = a/b.  [u; q]_n is the product of [u q^i] over i < n."""
    if a == 0 or b == 0:
        raise DegenerateParameterError("zero square-root input to the bracket")
    return b * b - a * a, a * b


def qbinom(n: int, k: int, q):
    """Gaussian binomial coefficient, by the product-of-ratios form."""
    if not 0 <= k <= n:
        raise ValueError(f"qbinom out of range: n={n}, k={k}")
    return quotient(qpoch(q ** (n - k + 1), q, k), qpoch(q, q, k), "1 - q^i in qbinom")


def qfactorial(n: int, q):
    """[n]_q! with [k]_q = (1 - q^k)/(1 - q), that is (q; q)_n / (1 - q)^n."""
    return quotient(qpoch(q, q, n), (1 - q) ** n, "1 - q in qfactorial")


def phi_coeffs(c, q, order: int, inverted: bool = False):
    """Series coefficients of phi(c z) = (c z; q)_infty, or of 1/phi(c z).

    Euler: phi(cz) has z^j coefficient (-1)^j q^(j(j-1)/2) c^j / (q;q)_j,
    and 1/phi(cz) has c^j / (q;q)_j; the (q;q)_j are one prefix run.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return [quotient(c ** j if inverted else (-c) ** j * q ** (j * (j - 1) // 2),
                     qq, f"(q;q)_{j}") for j, qq in enumerate(qpoch_run(q, q, order))]


def dbl_qt_poch_series(c, q, t, order: int) -> LambdaSeries:
    """(c Lambda; q, t)_infty truncated at Lambda-order `order`.

    Uses the exponential form exp(-sum_{n>=1} (c Lambda)^n / (n (1-q^n)(1-t^n))).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return series_exp(LambdaSeries(
        [0] + [quotient(-c ** n, (1 - q ** n) * (1 - t ** n) * n, f"(1 - q^{n})(1 - t^{n})")
               for n in range(1, order + 1)]))


def hyper_terms(nums, dens, q, z, count: int, what: str) -> list:
    """[t_0, ..., t_count] of the r-phi-s term rule

        t_k = z^k prod_a (a; q)_k / prod_b (b; q)_k,

    one checked division per step (Gasper-Rahman, ch. 1).  The lower
    parameters carry (q; q)_k explicitly when the series has it."""
    terms = [ONE]
    for k in range(1, count + 1):
        qk = q ** (k - 1)
        num = product([z, *(1 - a * qk for a in nums)])
        den = product(1 - b * qk for b in dens)
        terms.append(terms[-1] * quotient(num, den, f"{what} at k={k}"))
    return terms


def heine_2phi1(a, b, c, base, z_order: int) -> LambdaSeries:
    """Truncated 2phi1(a, b; c; base, z) as a series in z."""
    if z_order < 0:
        raise ValueError("z_order must be >= 0")
    return LambdaSeries(hyper_terms((a, b), (base, c), base, 1, z_order,
                                    "2phi1 denominator"))


def very_well_poised(a, params, nmax: int, q, z):
    """Terminating very-well-poised series sum_{k<=nmax} with parameters.

    sum_k (a)_k / (q)_k * (1 - a q^{2k})/(1 - a) * z^k
          * prod_p (p)_k / (q a / p)_k
    """
    terms = hyper_terms((a, *params), (q, *(q * a / p for p in params)), q, z, nmax,
                        "very-well-poised denominator")
    return dot((term, quotient(1 - a * q ** (2 * k), 1 - a,
                               "1 - a in the very-well-poised series"))
               for k, term in enumerate(terms))


def w10_9(a, b, c, d, e, f, g, n: int, q):
    """Terminating 10W9(a; b, c, d, e, f, g, q^-n; q, q)."""
    return very_well_poised(a, (b, c, d, e, f, g, q ** (-n)), n, q, q)


def bailey_check(a, b, c, d, e, f, n: int, q):
    """Both sides of Bailey's transformation for terminating 10W9, with g
    solved from the balancing condition q^2 a^3 = b c d e f g q^-n.
    Returns (lhs, rhs); the transformation asserts lhs == rhs.
    """
    g = q ** (2 + n) * a ** 3 / (b * c * d * e * f)
    lhs = w10_9(a, b, c, d, e, f, g, n, q)
    pref_num = product(qpoch(base, q, n)
                       for base in (a * q, a * q / (e * f), a * q / (e * g), a * q / (f * g)))
    pref_den = product(qpoch(base, q, n)
                       for base in (a * q / e, a * q / f, a * q / g, a * q / (e * f * g)))
    a2 = q * a ** 2 / (b * c * d)
    rhs = quotient(pref_num, pref_den, "prefactor Pochhammer") * w10_9(
        a2, a * q / (b * c), a * q / (b * d), a * q / (c * d), e, f, g, n, q)
    return lhs, rhs
