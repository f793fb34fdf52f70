"""Bivariate formal series on the cone spanned by x and Lambda/x, the
q-Borel transformation, shift operators, multiplication by Euler-product
factors, the gauge-transformed Hamiltonian and its level-by-level solver,
plus the coupled two-step form of the same equation.

A ConeSeries stores coefficients c[k][l] of the monomial x^k (Lambda/x)^l
on the rectangle 0 <= k <= kmax, 0 <= l <= lmax.  Every operator used here
raises (k, l) componentwise, so rectangle truncation is sound: dropped
monomials can never re-enter the window.
"""

from __future__ import annotations

import io
from dataclasses import replace
from typing import NamedTuple

from .errors import ResonanceError
from .qseries import LambdaSeries, dbl_qt_poch_series, phi_coeffs
from .scalars import ParamPoint, TruncatedSeries, dot, is_plain, shakirov_eigenvalue

# Each axis monomial x, Lambda/x, Lambda as its (k, l) step on the grid.
AXIS_X = (1, 0)
AXIS_LX = (0, 1)
AXIS_L = (1, 1)


class ConeSeries:
    __slots__ = ("kmax", "lmax", "c")

    def __init__(self, kmax: int, lmax: int, coeffs=None):
        self.kmax = kmax
        self.lmax = lmax
        if coeffs is None:
            self.c = [[0] * (lmax + 1) for _ in range(kmax + 1)]
        else:
            self.c = [list(row) for row in coeffs]
            if len(self.c) != kmax + 1 or any(len(r) != lmax + 1 for r in self.c):
                raise ValueError("coefficient grid does not match truncation orders")

    @classmethod
    def one(cls, kmax: int, lmax: int) -> "ConeSeries":
        s = cls(kmax, lmax)
        s.c[0][0] = 1
        return s

    def scale(self, value) -> "ConeSeries":
        return ConeSeries(self.kmax, self.lmax, [
            [a * value for a in row] for row in self.c])

    def __eq__(self, other):
        if not isinstance(other, ConeSeries):
            return NotImplemented
        return (self.kmax, self.lmax) == (other.kmax, other.lmax) and all(
            a == b for ra, rb in zip(self.c, other.c) for a, b in zip(ra, rb))

    def __repr__(self):
        terms = [
            f"({self.c[k][l]!r}) x^{k}(L/x)^{l}"
            for k in range(self.kmax + 1)
            for l in range(self.lmax + 1)
            if self.c[k][l] != 0
        ]
        return "ConeSeries(" + " + ".join(terms[:12]) + (" + ..." if len(terms) > 12 else "") + ")"

    # -- operators -----------------------------------------------------------

    def apply(self, stages, top: int | None = None) -> "ConeSeries":
        """The image under the composite of `stages`, first stage first, on
        the levels k + l <= top (every level when top is None); the cells
        above `top` are left the int 0.  No stage lowers k or l, so those
        levels read only the input's levels up to `top` and equal the
        levels of the whole image."""
        bufs = [self.c] + [_grid(self.kmax, self.lmax) for _ in stages]
        last = self.kmax + self.lmax if top is None else min(top, self.kmax + self.lmax)
        for level in range(last + 1):
            _fill_level(stages, bufs, level)
        return ConeSeries(self.kmax, self.lmax, bufs[-1])

    def borel(self, q, direction: int = 1, x_offset: int = 0,
              top: int | None = None) -> "ConeSeries":
        """q-Borel transformation (see `_borel_stage`) on the levels up to
        `top` (see `apply`)."""
        return self.apply([_borel_stage(q, self.kmax, self.lmax, direction, x_offset)], top)

    def shift(self, p_x, p_lambda) -> "ConeSeries":
        """Substitute x -> p_x x, Lambda -> p_lambda Lambda."""
        return self.apply([_shift_stage(p_x, p_lambda, self.kmax, self.lmax)])

    def mul_phi(self, c, q, axis, inverted: bool = False,
                top: int | None = None) -> "ConeSeries":
        """Multiply by phi(c*m) or 1/phi(c*m) truncated on the rectangle, on
        the levels up to `top` (see `apply`)."""
        return self.apply([_phi_stage(c, q, axis, self.kmax, self.lmax, inverted)], top)

    def dump_csv(self) -> str:
        """k, l, numerator, denominator rows."""
        buf = io.StringIO()
        buf.write("k,l,numerator,denominator\n")
        for k in range(self.kmax + 1):
            for l in range(self.lmax + 1):
                num, den = _num_den(self.c[k][l])
                buf.write(f"{k},{l},{num},{den}\n")
        return buf.getvalue()


def _num_den(v):
    if is_plain(v):
        return v.numerator, v.denominator
    raise TypeError(f"cannot dump scalar of type {type(v).__name__}")


# -- operators as lists of stages ------------------------------------------------
#
# Every stage raises (k, l) componentwise or keeps it fixed, so a stage's output
# on level L (the cells with k + l = L) needs only its input on levels <= L, and
# its level-L-to-level-L part is diagonal.  A composite operator is a list of
# stages, applied first to last, and is evaluated one level at a time.

class Stage(NamedTuple):
    """A diagonal weight per cell (`axis` None, `values` a grid), or the
    multiplication by sum_j values[j] m^j along an axis monomial m."""
    values: list
    axis: tuple | None = None


def _grid(kmax: int, lmax: int) -> list:
    return [[0] * (lmax + 1) for _ in range(kmax + 1)]


def _reach(axis, k: int, l: int) -> int:
    """Highest power of the axis monomial that divides x^k (Lambda/x)^l."""
    return min(top for top, step in zip((k, l), axis) if step)


def _level_cells(kmax: int, lmax: int, level: int) -> list:
    return [(k, level - k) for k in range(max(0, level - lmax), min(kmax, level) + 1)]


def _weight_stage(kmax: int, lmax: int, weight) -> Stage:
    return Stage([[weight(k, l) for l in range(lmax + 1)] for k in range(kmax + 1)])


def _borel_stage(q, kmax: int, lmax: int, direction: int = 1, x_offset: int = 0) -> Stage:
    """q-Borel transformation: weight q^(+/- a(a+1)/2) on x-degree a = k - l.
    a(a+1) is even, so plain q powers suffice.  x_offset shifts the
    effective x-degree (for identities applied to x^n times a cone series)."""
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")

    def weight(k, l):
        a = k - l + x_offset
        return q ** (direction * (a * (a + 1) // 2))

    return _weight_stage(kmax, lmax, weight)


def _shift_stage(p_x, p_lambda, kmax: int, lmax: int) -> Stage:
    return _weight_stage(kmax, lmax, lambda k, l: p_x ** (k - l) * p_lambda ** l)


def _phi_stage(c, q, axis, kmax: int, lmax: int, inverted: bool = False) -> Stage:
    return Stage(phi_coeffs(c, q, _reach(axis, kmax, lmax), inverted=inverted), axis)


def _merged(first: Stage, second: Stage) -> Stage:
    """One stage for two multiplications along one axis: the product of
    their series, truncated at their common reach."""
    product = TruncatedSeries(first.values) * TruncatedSeries(second.values)
    return Stage(list(product.coeffs), first.axis)


def _fill_level(stages, bufs, level: int) -> None:
    """Set level `level` of every stage's output bufs[i + 1] from its input
    bufs[i], whose levels up to `level` must already be set."""
    cells = _level_cells(len(bufs[0]) - 1, len(bufs[0][0]) - 1, level)
    for (values, axis), src, dst in zip(stages, bufs, bufs[1:]):
        if axis is None:
            for k, l in cells:
                v = src[k][l]
                dst[k][l] = values[k][l] * v if v else v
            continue
        dk, dl = axis
        last = len(values) - 1
        for k, l in cells:
            top = min(k if dk else last, l if dl else last, last)
            dst[k][l] = dot((values[j], src[k - j * dk][l - j * dl])
                            for j in range(top + 1))


def _diagonal(stage: Stage, k: int, l: int):
    """The stage's weight from cell (k, l) of its input to the same cell."""
    return stage.values[0] if stage.axis else stage.values[k][l]


def _k_stages(p: ParamPoint, kmax: int, lmax: int, scale=(1, 1)) -> list:
    """K = 1/(phi(qx) phi(L/x)) . B . 1/(phi(-d1 x) phi(-d3 L/x)) under
    x -> sx x, L/x -> slx L/x for scale = (sx, slx).  B commutes with the
    scaling, so at `_t_scale(p)` this is T(K) =
    1/(phi(-d2 x) phi(-d4 L/x)) . B . 1/(phi(d1 d2 x/q) phi(d3 d4 L/x))."""
    q = p.q
    sx, slx = scale
    return [_phi_stage(-p.d1 * sx, q, AXIS_X, kmax, lmax, inverted=True),
            _phi_stage(-p.d3 * slx, q, AXIS_LX, kmax, lmax, inverted=True),
            _borel_stage(q, kmax, lmax),
            _phi_stage(q * sx, q, AXIS_X, kmax, lmax, inverted=True),
            _phi_stage(slx, q, AXIS_LX, kmax, lmax, inverted=True)]


def _hs_stages(p: ParamPoint, kmax: int, lmax: int) -> list:
    """The gauge-transformed Hamiltonian

        1/(phi(qx) phi(L/x)) . B .
        phi(L) phi(d1 d2 d3 d4 L / q) /
            (phi(-d1 x) phi(-d2 x) phi(-d3 L/x) phi(-d4 L/x)) . B .
        1/(phi(d1 d2 x / q) phi(d3 d4 L/x))

    as K . phi(L) phi(d1 d2 d3 d4 L / q) . T(K): the multiplications between
    the two Borel maps commute on the rectangle, so the two along x, the two
    along L/x and the two along L are each one stage.  All factors have
    unit constant term and the Borel transformation fixes degree zero, so
    c00 is preserved."""
    q = p.q
    tk, k = _k_stages(p, kmax, lmax, _t_scale(p)), _k_stages(p, kmax, lmax)
    along_l = _merged(_phi_stage(1, q, AXIS_L, kmax, lmax),
                      _phi_stage(p.d1 * p.d2 * p.d3 * p.d4 / q, q, AXIS_L, kmax, lmax))
    # tk and k are each: along x, along L/x, the Borel map, along x, along L/x
    return tk[:3] + [_merged(tk[3], k[0]), _merged(tk[4], k[1]), along_l] + k[2:]


def _double_shift_stage(p: ParamPoint, kmax: int, lmax: int) -> Stage:
    """T^-1_{qtQ,x} T^-1_{t,Lambda}: x -> x/(qtQ), Lambda -> Lambda/t."""
    return _shift_stage(1 / (p.q * p.t * p.Q), 1 / p.t, kmax, lmax)


def _full_step_stages(p: ParamPoint, kmax: int, lmax: int) -> list:
    """The full right-hand-side operator H_S T^-1_{qtQ,x} T^-1_{t,Lambda}."""
    return [_double_shift_stage(p, kmax, lmax)] + _hs_stages(p, kmax, lmax)


def apply_full_step(s: ConeSeries, p: ParamPoint) -> ConeSeries:
    """H_S T^-1_{qtQ,x} T^-1_{t,Lambda} applied to the whole series."""
    return s.apply(_full_step_stages(p, s.kmax, s.lmax))


def solve_shakirov(p: ParamPoint, kmax: int, lmax: int) -> ConeSeries:
    """Unique series with c00 = 1 fixed by Psi = H_S T^-1 T^-1 Psi.

    The operator splits as (diagonal eigenvalues) + (strictly degree
    raising), so the coefficients are determined level by level in the
    total degree k + l:  c_{k,l} = (lower-level image) / (1 - lambda_{k,l}).
    Each level of every stage is filled once with Psi's level still zero,
    which gives the lower-level image; once Psi's level is solved, each
    stage's level gains only its diagonal chain.
    """
    stages = _full_step_stages(p, kmax, lmax)
    bufs = [_grid(kmax, lmax) for _ in range(len(stages) + 1)]
    psi = bufs[0]
    psi[0][0] = 1
    _fill_level(stages, bufs, 0)
    for level in range(1, kmax + lmax + 1):
        _fill_level(stages, bufs, level)
        for k, ell in _level_cells(kmax, lmax, level):
            lam = shakirov_eigenvalue(p, k, ell)
            if lam == 1:
                raise ResonanceError(
                    f"resonant eigenvalue at (k, l) = ({k}, {ell}); resample")
            value = psi[k][ell] = bufs[-1][k][ell] / (1 - lam)
            for stage, buf in zip(stages, bufs[1:]):
                value = _diagonal(stage, k, ell) * value
                buf[k][ell] = buf[k][ell] + value
    return ConeSeries(kmax, lmax, psi)


def coupled_transform_point(p: ParamPoint) -> ParamPoint:
    """Parameter half of the substitution T:
    d2 -> q/(t Q d2), d4 -> q Q / d4 (exact on the fourth-root lattice)."""
    return replace(p, rd2=p.rq / (p.rt * p.rQ * p.rd2), rd4=p.rq * p.rQ / p.rd4)


def _t_scale(p: ParamPoint) -> tuple:
    """Variable half of the substitution T: x -> -d2 x / q, L/x -> -d4 L/x."""
    return -p.d2 / p.q, -p.d4


def coupling_series(p: ParamPoint, order: int) -> tuple[LambdaSeries, LambdaSeries]:
    """(g, T(g)) with

        g    = (t d2 d4 L/q, d1 d3 L; q,t)_inf / (t L, t d1 d2 d3 d4 L/q; q,t)_inf,
        T(g) = (L, d1 d2 d3 d4 L/q; q,t)_inf / (t d2 d4 L/q, d1 d3 L; q,t)_inf;

    the denominator of T(g) is the numerator of g, so it is built once."""
    q, t = p.q, p.t
    d1, d2, d3, d4 = p.d1, p.d2, p.d3, p.d4
    shared = dbl_qt_poch_series(t * d2 * d4 / q, q, t, order) \
        * dbl_qt_poch_series(d1 * d3, q, t, order)
    den = dbl_qt_poch_series(t, q, t, order) \
        * dbl_qt_poch_series(t * d1 * d2 * d3 * d4 / q, q, t, order)
    tnum = dbl_qt_poch_series(1, q, t, order) \
        * dbl_qt_poch_series(d1 * d2 * d3 * d4 / q, q, t, order)
    return shared * den.inverse(), tnum * shared.inverse()


def coupled_step(p: ParamPoint, psi: ConeSeries):
    """Coupled form of the equation: with chi := T(psi),

        psi = g K chi       and      chi = T(g K chi) = T(g) T(K) T^2(psi),

    where T^2 is the plain double shift (x -> x/(qtQ), L -> L/t).  chi is
    realized by re-solving at the transformed point and rescaling the series
    variables by `_t_scale`.

    Returns the two relations as ((psi, g K chi), (chi, T(g K chi))), each
    pair of sides expected equal on the whole truncation rectangle.
    """
    kmax, lmax = psi.kmax, psi.lmax
    p2 = coupled_transform_point(p)
    chi_raw = solve_shakirov(p2, kmax, lmax)
    sx, slx = scale = _t_scale(p)
    chi = chi_raw.shift(sx, sx * slx)
    g, tg = coupling_series(p, min(kmax, lmax))
    tk_t2 = [_double_shift_stage(p, kmax, lmax)] + _k_stages(p, kmax, lmax, scale)
    return ((psi, chi.apply(_k_stages(p, kmax, lmax) + [Stage(g.coeffs, AXIS_L)])),
            (chi, psi.apply(tk_t2 + [Stage(tg.coeffs, AXIS_L)])))
