"""Exact scalar rings and generic parameter points.

Three kinds of scalars circulate in this package:

* ``Rat`` -- arbitrary-precision rationals (gmpy2.mpq when available,
  ``fractions.Fraction`` otherwise).  All identities are certified by exact
  equality of such numbers; nothing is ever rounded.
* ``HJet`` -- truncated power series in a formal variable h, used to take
  the small-h (four-dimensional) limit order by order.
* ``ParamPoint`` -- a rational point for the parameters (q, t, Q, d1..d4),
  stored through their *fourth roots* so that every square root the
  formulas need (sqrt(q), sqrt(t), kappa = t^(-1/2), sqrt of spectral
  monomials, ...) is again an exact rational monomial.  Such a monomial is
  a ``Monomial``, its exponent vector over the seven roots.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd

from .errors import DegenerateParameterError, QkzError, SamplingError

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def rat(num, den=1):
    return Rat(num, den)


def rat_from_str(s: str):
    """Parse "p/s" (or "p") into a Rat."""
    return Rat(s)


def is_plain(x) -> bool:
    """True for ground-ring scalars (int / Rat), False for jets and series."""
    return isinstance(x, int) or type(x) is type(ZERO)


def invertible(x) -> bool:
    """Invertibility test that works across all scalar kinds."""
    if is_plain(x):
        return x != 0
    return x.invertible()


def quotient(num, den, what: str):
    """num / den, or DegenerateParameterError when den is not invertible;
    the one checked division for a denominator a degenerate point can zero."""
    if not invertible(den):
        raise DegenerateParameterError(f"{what} vanishes")
    return num / den


def reciprocal(x):
    """1 / x in the ring of x: an exact rational, or the series inverse."""
    return ONE / x if is_plain(x) else x.inverse()


_PLAIN_TYPES = frozenset({int, bool, type(ZERO)})


def dot(pairs):
    """sum(x * y for x, y in pairs), exactly; terms with a zero factor are
    skipped, and with none left the result is the int 0.

    The plain terms (int / Rat) are summed as one int pair over the least
    common multiple of their denominators and reduced once, into one Rat;
    the others use their ring's + and *."""
    num, den = 0, 1
    plain = False
    rest = None
    for x, y in pairs:
        if type(x) in _PLAIN_TYPES and type(y) in _PLAIN_TYPES:
            if x and y:
                plain = True
                d = x.denominator * y.denominator
                if d == den:
                    num += x.numerator * y.numerator
                else:
                    g = gcd(den, d)
                    num = num * (d // g) + x.numerator * y.numerator * (den // g)
                    den *= d // g
        elif x != 0 and y != 0:
            rest = x * y if rest is None else rest + x * y
    if not plain:
        return 0 if rest is None else rest
    total = Rat(num, den)
    return total if rest is None else rest + total


def product(values):
    """The exact product of the values: the plain ones (int / Rat) as one int
    pair, reduced once into one Rat, times the others by their ring's *."""
    num = den = 1
    rest = None
    for v in values:
        if type(v) in _PLAIN_TYPES:
            num *= v.numerator
            den *= v.denominator
        else:
            rest = v if rest is None else rest * v
    total = Rat(num, den)
    return total if rest is None else rest * total


class TruncatedSeries:
    """Truncated power series over an arbitrary commutative coefficient ring.

    The order (truncation degree) is fixed per instance; binary operations
    require equal orders.  Shared base of HJet and LambdaSeries.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, order: int):
        return cls((value,) + (0,) * order)

    @classmethod
    def variable(cls, order: int):
        """The series generator (h or Lambda) truncated at the given order."""
        if order < 1:
            raise ValueError("need order >= 1 to represent the variable")
        return cls((0, 1) + (0,) * (order - 1))

    def _wrap(self, coeffs):
        return type(self)(coeffs)

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            if type(other) is not type(self):
                raise TypeError(
                    f"cannot mix {type(self).__name__} with {type(other).__name__}")
            if other.order != self.order:
                raise ValueError("truncation orders differ")
            return other
        if is_plain(other):
            return type(self).constant(other, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(a + b for a, b in zip(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(-a for a in self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(a - b for a, b in zip(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if is_plain(other):
            return self._wrap(a * other for a in self.coeffs)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        return self._wrap(dot(zip(a, b[k::-1])) for k in range(len(a)))

    __rmul__ = __mul__

    def invertible(self) -> bool:
        return invertible(self.coeffs[0])

    def inverse(self):
        c0 = self.coeffs[0]
        if not invertible(c0):
            raise ZeroDivisionError(
                f"{type(self).__name__} with non-invertible constant term")
        inv0 = reciprocal(c0)
        out = [inv0]
        for k in range(1, len(self.coeffs)):
            acc = dot(zip(self.coeffs[1:k + 1], out[::-1]))
            out.append(-(acc * inv0) if acc != 0 else 0 * inv0)
        return self._wrap(out)

    def __truediv__(self, other):
        if is_plain(other):
            # multiply by the exact reciprocal: int/int would go float
            return self * (ONE / other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = type(self).constant(1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return type(self) is type(other) and all(
                a == b for a, b in zip(self.coeffs, other.coeffs))
        if is_plain(other):
            return self.coeffs[0] == other and all(c == 0 for c in self.coeffs[1:])
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)})"

    def shift_variable(self, factor):
        """Substitute var -> factor*var (coefficient j picks up factor^j)."""
        return self._wrap(c * factor ** j for j, c in enumerate(self.coeffs))

    def mul_variable_power(self, power: int):
        """Multiply by var^power (power >= 0), truncating at the same order."""
        if power < 0:
            raise ValueError("negative powers of the variable are not representable")
        keep = max(0, self.order + 1 - power)
        return self._wrap((0,) * (self.order + 1 - keep) + self.coeffs[:keep])

    def valuation(self):
        """Index of the first nonzero coefficient, or None if all vanish."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None


def series_exp(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a truncated series with vanishing constant term, one `dot` per
    coefficient: e = exp(s) solves e' = s' e, so n e_n = sum_k k s_k e_(n-k)."""
    c = s.coeffs
    if c[0] != 0:
        raise ValueError("series_exp needs zero constant term")
    e = [ONE]
    for n in range(1, len(c)):
        e.append(dot((k * c[k], e[n - k]) for k in range(1, n + 1)) * Rat(1, n))
    return type(s)(e)


class HJet(TruncatedSeries):
    """Truncated jet in the limit variable h."""


def exp_jet(c, order: int) -> HJet:
    """exp(c*h) as an HJet: coefficients c^k / k!."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return series_exp(HJet([0, c, *[0] * (order - 1)][: order + 1]))


_ROOT_FIELDS = ("rq", "rt", "rQ", "rd1", "rd2", "rd3", "rd4")


class Monomial(tuple):
    """A monomial rq^e_q rt^e_t rQ^e_Q rd1^e_1 ... rd4^e_4 on the fourth-root
    lattice, as its exponent vector (e_q, e_t, e_Q, e_1, ..., e_4).

    Monomials multiply by adding vectors, so `+`, `-` and negation are the
    product, the quotient and the inverse; `half()` is the exact square
    root.  `ParamPoint.at` evaluates one at a point.
    """

    __slots__ = ()

    def __add__(self, other):
        return Monomial(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        return Monomial(a - b for a, b in zip(self, other))

    def __neg__(self):
        return Monomial(-a for a in self)

    def half(self) -> "Monomial":
        """The square root; every exponent must be even."""
        if any(e % 2 for e in self):
            raise QkzError(f"monomial {tuple(self)} has no exact square root on the lattice")
        return Monomial(e // 2 for e in self)


@dataclass(frozen=True)
class ParamPoint:
    """Fourth-root parameterization of (q, t, Q, d1..d4).

    q = rq^4 and so on; kappa = t^(-1/2) = rt^(-2).  Optional integer
    overrides (m, n) force d2 = q^-m and d3 = q^-n exactly (rd2 = rq^-m,
    rd3 = rq^-n), which is the mass truncation used throughout.
    """

    rq: object
    rt: object
    rQ: object
    rd1: object
    rd2: object
    rd3: object
    rd4: object
    m: int | None = None
    n: int | None = None

    def __post_init__(self):
        for name in _ROOT_FIELDS:
            if getattr(self, name) == 0:
                raise DegenerateParameterError(f"fourth root {name} is zero")

    # -- derived accessors, each computed on first read and kept -------------

    @cached_property
    def q(self):
        return self.rq ** 4

    @cached_property
    def t(self):
        return self.rt ** 4

    @cached_property
    def Q(self):
        return self.rQ ** 4

    @cached_property
    def d1(self):
        return self.rd1 ** 4

    @cached_property
    def d2(self):
        return self.rd2 ** 4

    @cached_property
    def d3(self):
        return self.rd3 ** 4

    @cached_property
    def d4(self):
        return self.rd4 ** 4

    def at(self, mono: Monomial):
        """The value of a lattice monomial at this point."""
        return product(getattr(self, name) ** e for name, e in zip(_ROOT_FIELDS, mono) if e)

    # -- overrides ----------------------------------------------------------

    def with_overrides(self, m: int, n: int) -> "ParamPoint":
        """Force d2 = q^-m, d3 = q^-n exactly (mass truncation)."""
        if m < 0 or n < 0:
            raise ValueError("overrides require m, n >= 0")
        return ParamPoint(
            self.rq, self.rt, self.rQ,
            self.rd1, self.rq ** (-m), self.rq ** (-n), self.rd4,
            m=m, n=n,
        )

    def replace_roots(self, **kwargs) -> "ParamPoint":
        fields = {name: getattr(self, name) for name in _ROOT_FIELDS}
        fields.update(kwargs)
        return ParamPoint(**fields, m=self.m, n=self.n)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        obj = {name: str(getattr(self, name)) for name in _ROOT_FIELDS}
        if self.m is not None:
            obj["m"] = self.m
        if self.n is not None:
            obj["n"] = self.n
        return json.dumps(obj, sort_keys=True)


def shakirov_eigenvalue(p: ParamPoint, k: int, ell: int):
    """Diagonal eigenvalue of the non-stationary solve at monomial (k, ell).

    For x-degree a = k - ell the two Borel passes contribute q^(a(a+1)) and
    the inverse shifts contribute (qtQ)^(-a) t^(-ell); as a + ell = k, the
    product is q^(a^2) t^(-k) Q^(-a).
    """
    a = k - ell
    return product([p.q ** (a * a), p.t ** (-k), p.Q ** (-a)])


MAX_RESAMPLES = 10_000


@lru_cache(maxsize=256)
def sample_generic_point(seed: int, guard: int = 8) -> ParamPoint:
    """Deterministically sample a generic ParamPoint.

    Memoized: the result depends on (seed, guard) alone and ParamPoint is
    frozen, so the callers of one (seed, guard) share one point.

    Fourth roots are reduced fractions p/s with 2 <= p, s <= 97.  The point
    is resampled until the degeneracy guards pass: q^a t^b Q^c != 1 for
    0 < max(|a|,|b|,|c|) <= guard (which covers q^j, t^j != 1), and
    the level-by-level eigenvalues lambda_{k,l} != 1 on the guard window.
    """
    rng = random.Random(seed)
    for _ in range(MAX_RESAMPLES):
        roots = [_draw_root(rng) for _ in range(7)]
        point = ParamPoint(*roots)
        if _passes_guards(point, guard):
            return point
    raise SamplingError(f"no generic point found for seed={seed}, guard={guard}")


def _draw_root(rng: random.Random):
    while True:
        p = rng.randint(2, 97)
        s = rng.randint(2, 97)
        if p == s:
            continue
        r = Rat(p, s)
        if r.numerator >= 2 and r.denominator >= 2:
            return r


def _passes_guards(p: ParamPoint, guard: int) -> bool:
    # q, t and Q are fourth powers, hence positive.  So Q^c = 1 for some
    # c != 0 only at Q = 1, when the powers of Q collapse to {1}; otherwise
    # they are distinct, and (the set being closed under inversion)
    # q^a t^b Q^c = 1 for some c iff q^a t^b is one of them.
    Q_powers = set(_power_table(p.Q, guard).values())
    if len(Q_powers) < 2 * guard + 1:
        return False
    qa = _power_table(p.q, guard)
    tb = _power_table(p.t, guard)
    for a in range(-guard, guard + 1):
        for b in range(-guard, guard + 1):
            if (a or b) and qa[a] * tb[b] in Q_powers:
                return False
    for k in range(guard + 1):
        for ell in range(guard + 1):
            if k == 0 and ell == 0:
                continue
            if shakirov_eigenvalue(p, k, ell) == 1:
                return False
    return True


def _power_table(base, guard: int) -> dict:
    return {j: base ** j for j in range(-guard, guard + 1)}
