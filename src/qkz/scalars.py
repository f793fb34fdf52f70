"""Exact scalar rings and generic parameter points.

Three kinds of scalars circulate in this package:

* ``Rat`` -- arbitrary-precision rationals (gmpy2.mpq when available,
  otherwise a ``fractions.Fraction`` subclass with fast same-type
  arithmetic).  All identities are certified by exact
  equality of such numbers; nothing is ever rounded.  An int, a ``Rat``
  or a ``Fraction`` is a plain scalar (`is_plain`): any exact rational.
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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import DegenerateParameterError, QkzError, SamplingError

try:
    from gmpy2 import mpq as Rat
    _reduced = Rat
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    def _rat(n: int, d: int, _new=object.__new__):
        """The Rat n/d of a reduced pair with d > 0, built without checks."""
        r = _new(Rat)
        r._numerator = n
        r._denominator = d
        return r

    def _reduced(n: int, d: int):
        """The Rat n/d of an int pair with d != 0, reduced by one gcd."""
        g = gcd(n, d) if d > 0 else -gcd(n, d)
        return _rat(n // g, d // g)

    class Rat(Fraction):
        """`fractions.Fraction` with fast same-type arithmetic.

        For a Rat or int operand (bool included) +, -, *, /, negation,
        int powers, == and bool take the reductions of Fraction (Henrici's,
        Knuth TAOCP vol. 2 4.5.1) with none of its operand dispatch, and
        build the result directly.  Everything else is Fraction's own: any
        other operand goes to the Fraction method, whose result is returned
        as it is -- a Fraction, which is plain too, a float, or, for a
        series, NotImplemented, so the series' reflected operator runs.  A
        zero divisor takes the Fraction path too, which raises
        ZeroDivisionError."""

        __slots__ = ()

        def __add__(a, b):
            if type(b) is Rat:
                na, da = a._numerator, a._denominator
                nb, db = b._numerator, b._denominator
                g = gcd(da, db)
                if g == 1:
                    return _rat(na * db + da * nb, da * db)
                s = da // g
                t = na * (db // g) + nb * s
                g2 = gcd(t, g)
                if g2 == 1:
                    return _rat(t, s * db)
                return _rat(t // g2, s * (db // g2))
            if isinstance(b, int):
                return _rat(a._numerator + a._denominator * b, a._denominator)
            return Fraction.__add__(a, b)

        __radd__ = __add__

        def __sub__(a, b):
            if type(b) is Rat:
                na, da = a._numerator, a._denominator
                nb, db = b._numerator, b._denominator
                g = gcd(da, db)
                if g == 1:
                    return _rat(na * db - da * nb, da * db)
                s = da // g
                t = na * (db // g) - nb * s
                g2 = gcd(t, g)
                if g2 == 1:
                    return _rat(t, s * db)
                return _rat(t // g2, s * (db // g2))
            if isinstance(b, int):
                return _rat(a._numerator - a._denominator * b, a._denominator)
            return Fraction.__sub__(a, b)

        def __rsub__(a, b):
            if isinstance(b, int):
                return _rat(a._denominator * b - a._numerator, a._denominator)
            return Fraction.__rsub__(a, b)

        def __mul__(a, b):
            if type(b) is Rat:
                na, da = a._numerator, a._denominator
                nb, db = b._numerator, b._denominator
                g1 = gcd(na, db)
                if g1 > 1:
                    na //= g1
                    db //= g1
                g2 = gcd(nb, da)
                if g2 > 1:
                    nb //= g2
                    da //= g2
                return _rat(na * nb, db * da)
            if isinstance(b, int):
                da = a._denominator
                g = gcd(b, da)
                if g > 1:
                    return _rat(a._numerator * (b // g), da // g)
                return _rat(a._numerator * b, da)
            return Fraction.__mul__(a, b)

        __rmul__ = __mul__

        def __truediv__(a, b):
            if type(b) is Rat and b._numerator:
                na, da = a._numerator, a._denominator
                nb, db = b._numerator, b._denominator
                g1 = gcd(na, nb)
                if g1 > 1:
                    na //= g1
                    nb //= g1
                g2 = gcd(db, da)
                if g2 > 1:
                    da //= g2
                    db //= g2
                n, d = na * db, nb * da
            elif isinstance(b, int) and b:
                g = gcd(a._numerator, b)
                n, d = a._numerator // g, a._denominator * (b // g)
            else:
                return Fraction.__truediv__(a, b)
            return _rat(-n, -d) if d < 0 else _rat(n, d)

        def __rtruediv__(a, b):
            na = a._numerator
            if isinstance(b, int) and na:
                g = gcd(b, na)
                n, d = (b // g) * a._denominator, na // g
                return _rat(-n, -d) if d < 0 else _rat(n, d)
            return Fraction.__rtruediv__(a, b)

        def __neg__(a):
            return _rat(-a._numerator, a._denominator)

        def __pow__(a, b):
            if isinstance(b, int):
                na, da = a._numerator, a._denominator
                if b >= 0:
                    return _rat(na ** b, da ** b)
                if na > 0:
                    return _rat(da ** -b, na ** -b)
                if na < 0:
                    return _rat((-da) ** -b, (-na) ** -b)
            return Fraction.__pow__(a, b)

        def __eq__(a, b):
            if type(b) is Rat:
                return a._numerator == b._numerator and a._denominator == b._denominator
            if isinstance(b, int):
                return a._numerator == b and a._denominator == 1
            return Fraction.__eq__(a, b)

        # defining __eq__ clears the inherited hash
        __hash__ = Fraction.__hash__

        def __bool__(a):
            return a._numerator != 0

ZERO = Rat(0)
ONE = Rat(1)


_PLAIN_TYPES = frozenset({int, bool, type(ZERO), Fraction})


def is_plain(x) -> bool:
    """True for ground-ring scalars, any exact rational (int / Rat /
    Fraction), False for jets and series."""
    return type(x) in _PLAIN_TYPES


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


def pair_sum(terms):
    """The sum of the fractions n/d given as int pairs (n, d), d != 0, as
    one int pair over the least common multiple of the denominators,
    reduced once (`_reduced`); the int 0 when every n is 0."""
    num, den = 0, 1
    nonzero = False
    for n, d in terms:
        if n:
            nonzero = True
            if d == den:
                num += n
            else:
                g = gcd(den, d)
                num = num * (d // g) + n * (den // g)
                den *= d // g
    return _reduced(num, den) if nonzero else 0


def dot(pairs):
    """sum(x * y for x, y in pairs), exactly; terms with a zero factor are
    skipped, and with none left the result is the int 0.

    The plain terms (exact rationals) are summed as int pairs by `pair_sum`; the
    others use their ring's + and *."""
    plain = []
    rest = None
    for x, y in pairs:
        if type(x) in _PLAIN_TYPES and type(y) in _PLAIN_TYPES:
            if x and y:
                plain.append((x.numerator * y.numerator, x.denominator * y.denominator))
        elif x != 0 and y != 0:
            rest = x * y if rest is None else rest + x * y
    total = pair_sum(plain)
    if rest is None:
        return total
    return rest if type(total) is int else rest + total


def int_pairs(values):
    """The (numerator, denominator) of each value in the list, all of them
    plain (exact rationals); a value of another ring raises ``ValueError``."""
    if not _PLAIN_TYPES.issuperset(map(type, values)):
        raise ValueError("int pairs need int or rational values, not "
                         + ", ".join(sorted({type(v).__name__ for v in values
                                             if type(v) not in _PLAIN_TYPES})))
    return [(v.numerator, v.denominator) for v in values]


def product(values):
    """The exact product of the values: the plain ones (rationals) as one int
    pair, reduced once into one Rat, times the others by their ring's *."""
    num = den = 1
    rest = None
    for v in values:
        if type(v) in _PLAIN_TYPES:
            num *= v.numerator
            den *= v.denominator
        else:
            rest = v if rest is None else rest * v
    total = _reduced(num, den)
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
            return type(self) is type(other) and self.coeffs == other.coeffs
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

    q = rq^4 and so on, each computed once at construction; kappa =
    t^(-1/2) = rt^(-2).  Optional integer overrides (m, n) force
    d2 = q^-m and d3 = q^-n exactly (rd2 = rq^-m, rd3 = rq^-n), which is
    the mass truncation used throughout; `window` reads them.  Equality
    and hashing see only the roots and the overrides; a derived point is
    `dataclasses.replace` of this one.
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
    q: object = field(init=False, repr=False, compare=False)
    t: object = field(init=False, repr=False, compare=False)
    Q: object = field(init=False, repr=False, compare=False)
    d1: object = field(init=False, repr=False, compare=False)
    d2: object = field(init=False, repr=False, compare=False)
    d3: object = field(init=False, repr=False, compare=False)
    d4: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in _ROOT_FIELDS:
            root = getattr(self, name)
            if root == 0:
                raise DegenerateParameterError(f"fourth root {name} is zero")
            object.__setattr__(self, name[1:], root ** 4)

    @property
    def window(self) -> tuple[int, int]:
        """(m, n) of a mass-truncated point, or QkzError without overrides."""
        if self.m is None or self.n is None:
            raise QkzError("needs a mass-truncated point (d2 = q^-m, d3 = q^-n)")
        return self.m, self.n

    def at(self, mono: Monomial):
        """The value of a lattice monomial at this point."""
        return product(getattr(self, name) ** e for name, e in zip(_ROOT_FIELDS, mono) if e)

    def with_overrides(self, m: int, n: int) -> "ParamPoint":
        """Force d2 = q^-m, d3 = q^-n exactly (mass truncation)."""
        if m < 0 or n < 0:
            raise ValueError("overrides require m, n >= 0")
        return replace(self, rd2=self.rq ** (-m), rd3=self.rq ** (-n), m=m, n=n)

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
GUARD = 8  # the least guard of a sampled point; a deeper computation asks for more


@lru_cache(maxsize=256)
def sample_generic_point(seed: int, guard: int = GUARD) -> ParamPoint:
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


def coprime_base(values) -> list:
    """Pairwise coprime integers > 1 such that the numerator and the
    denominator of each nonzero rational in `values` is a product of their
    powers, by gcd refinement: two members with a common factor g > 1 give
    way to a/g, g and b/g (dropping 1s), which keeps every number a product
    of their powers, and the product of all members falls at each step, so
    the refinement ends."""
    pending = {abs(x) for v in values for x in (v.numerator, v.denominator)} - {1}
    base = []
    while pending:
        a = pending.pop()
        for b in base:
            g = gcd(a, b)
            if g > 1:
                base.remove(b)
                pending |= {a // g, g, b // g} - {1}
                break
        else:
            base.append(a)
    return sorted(base)


def exponent_vector(x, base):
    """The exponents e with |x| = prod base_i^e_i for a nonzero rational x,
    or None when x is not such a product.  The base is pairwise coprime, so
    the exponents are unique, and for rationals over one base,
    prod x_j^c_j = +-1 exactly when sum c_j e_j = 0."""
    num, den = abs(x.numerator), x.denominator
    out = []
    for b in base:
        e = 0
        while num % b == 0:
            num //= b
            e += 1
        while den % b == 0:
            den //= b
            e -= 1
        out.append(e)
    return tuple(out) if num == den == 1 else None


def _passes_guards(p: ParamPoint, guard: int) -> bool:
    # q, t and Q are the fourth powers of rq, rt and rQ, so q^a t^b Q^c = 1
    # exactly when a v_q + b v_t + c v_Q = 0 for the exponent vectors of the
    # roots over one coprime base, and lambda_{k,l} = q^(a^2) t^(-k) Q^(-a)
    # with a = k - l is 1 exactly when a^2 v_q - k v_t - a v_Q = 0.  The
    # powers of Q are distinct unless v_Q = 0 (Q = 1), and the set is closed
    # under negation, so a relation with a or b nonzero puts a v_q + b v_t
    # in it.
    roots = (p.rq, p.rt, p.rQ)
    base = coprime_base(roots)
    vq, vt, vQ = (exponent_vector(r, base) for r in roots)

    def monomial(a, b, c):
        # from a list: a tuple built from a generator is resized, and the
        # tuple free list would keep each of them
        return tuple([a * x + b * y + c * z for x, y, z in zip(vq, vt, vQ)])

    span = range(-guard, guard + 1)
    Q_powers = {monomial(0, 0, c) for c in span}
    if len(Q_powers) < 2 * guard + 1:
        return False
    if any(monomial(a, b, 0) in Q_powers for a in span for b in span if a or b):
        return False
    one = monomial(0, 0, 0)
    return all(monomial((k - ell) ** 2, -k, ell - k) != one
               for k in range(guard + 1) for ell in range(guard + 1) if k or ell)
