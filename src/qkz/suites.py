"""Suite registry: deterministic parameter sampling, check execution with
machine-readable reports, and the exact-equality pass criterion.

Every check feeds the exact scalars it compares, pair by pair, to one
`Recorder`.  A check passes iff every compared pair is equal and at least
one pair has a side that is not 0; a failure reports the first mismatch
location with both values as strings, and every check reports how many
pairs it compared.  Reports are deterministic for a fixed config (timing
fields aside).
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import __version__
from .errors import ConfigError, QkzError
from .scalars import (GUARD, Rat, TruncatedSeries, coprime_base, exp_jet, exponent_vector,
                      sample_generic_point)
from .qseries import bailey_check, qpoch_run
from .cone import ConeSeries, solve_shakirov, coupled_step, AXIS_X, AXIS_LX, AXIS_L
from .laumon import BracketTable, residues, z_al, z_al_truncated
from .partitions import partitions_of
from .linalg import ScalarMatrix
from .rmatrix import (
    dual_qkz_residuals, expansion_matrices, h4d_matrix, heine_dual_residuals,
    heine_solution_pair, kz_form_matrix, qkz_residual, r1_fourd, r_closed_form, r_hg_matrix,
    r_via_linear_system)
from .jackson import (
    JacksonParams, al_jackson_compare, d2_matrix, ito_A, ito_A_via_R, ito_R, ito_R_alt,
    ito_qkz_check, matsuo_e, matsuo_e_brute, matsuo_prefactors)

DEFAULT_SEEDS = (1, 2, 3)
# the options a suite may read besides seeds; a run that leaves one unset
# takes its registry row's `acceptance` value, or None where the row sweeps it
SUITE_OPTIONS = ("kmax", "lmax", "m", "n", "N", "jet_order")
# (low, high) bounds of those options, shared by the suite registry and the
# dump commands
_NATURAL = (0, math.inf)
_LAMBDA_ORDER = {"lmax": (1, math.inf)}
WINDOW = {"m": _NATURAL, "n": _NATURAL}
SERIES_ORDERS = {"kmax": _NATURAL, "lmax": _NATURAL}
WINDOWED = {**WINDOW, **_LAMBDA_ORDER}


@dataclass
class SuiteConfig:
    """A run's inputs, which its report gives as `config`: the suite, the
    seeds, one point each, and the options in the suite's `limits`, each
    set to the row's `acceptance` value (None if swept) when left unset."""
    suite: str
    seeds: tuple = DEFAULT_SEEDS
    kmax: int | None = None
    lmax: int | None = None
    m: int | None = None
    n: int | None = None
    N: int | None = None
    jet_order: int | None = None

    def __post_init__(self):
        spec = SUITES.get(self.suite)
        if spec is None:
            raise ConfigError(f"unknown suite id {self.suite!r}")
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"a seed repeats in {list(self.seeds)}")
        check_limits(self.suite, spec.limits, self)
        for opt in spec.limits:
            if getattr(self, opt) is None:
                setattr(self, opt, spec.acceptance.get(opt))

    def options(self) -> dict:
        """The options its suite reads, by name; the others stay None."""
        return {opt: getattr(self, opt) for opt in SUITES[self.suite].limits}


def check_limits(owner: str, limits: dict, options) -> None:
    """ConfigError unless --m and --n are set together, and every option of
    SUITE_OPTIONS that `options` sets (as an attribute) is one that `limits`
    names and lies within its (low, high) bounds."""
    if (options.m is None) != (options.n is None):
        raise ConfigError("--m and --n must be given together")
    for opt in SUITE_OPTIONS:
        value = getattr(options, opt, None)
        if value is None:
            continue
        flag = "--" + opt.replace("_", "-")
        if opt not in limits:
            raise ConfigError(f"{owner} does not read {flag}")
        lo, hi = limits[opt]
        if not lo <= value <= hi:
            raise ConfigError(f"{owner} needs {lo} <= {flag} <= {hi}, got {value}")


class _Mismatch(Exception):
    """Stops a check at its first unequal pair; args[0] is the report's
    mismatch record."""


# sides of a comparison whose record also gives the difference, as "value"
RESIDUAL = ("value", "left", "right")


class Recorder:
    """The one comparison path of a check.

    A check feeds `compare` every pair of exact scalars that it claims
    equal, one pair at a time, with the pair's location, or feeds
    `compare_fractions` a pair of fractions given as unreduced int pairs,
    which it compares by cross-multiplication and reduces only to write a
    mismatch record (NEKRASOV_3WAY compares all of its pairs so).  The
    recorder counts the pairs (`compared`) and the pairs with a side that
    is not 0 (`nonzero`), and stops the check at the first unequal pair by
    raising `_Mismatch`.  It also keeps the check's `orders` and its one
    `point`, which the report carries whether the check passes, meets a
    mismatch or meets a degenerate point."""

    __slots__ = ("compared", "nonzero", "point", "orders")

    def __init__(self):
        self.compared = self.nonzero = 0
        self.point = self.orders = None

    def begin(self, point: str) -> None:
        """Record the check's point (as JSON), before it builds anything."""
        self.point = point

    def compare(self, left, right, where: dict, sides=("left", "right")) -> None:
        """Record left == right at `where`.  The mismatch record is `where`
        plus the two values as strings under the names `sides`; with
        RESIDUAL it gives their difference first."""
        self.compared += 1
        if left or right:
            self.nonzero += 1
        if left != right:
            values = (left, right) if len(sides) == 2 else (left - right, left, right)
            raise _Mismatch({**where, **{name: str(v) for name, v in zip(sides, values)}})

    def compare_fractions(self, left, right, where: dict, sides=("left", "right")) -> None:
        """`compare` for two fractions given as unreduced int pairs
        (num, den), by cross-multiplication: nothing is reduced unless the
        pair is unequal, and then each side is written as its Rat.  A zero
        denominator raises ValueError, since a d == c b would then hold
        whatever the other side is."""
        (a, b), (c, d) = left, right
        if not b or not d:
            raise ValueError(f"zero denominator in a compared fraction at {where}")
        self.compared += 1
        if a or c:
            self.nonzero += 1
        if a * d != c * b:
            raise _Mismatch({**where, sides[0]: str(Rat(a, b)), sides[1]: str(Rat(c, d))})

    def series(self, left, right, through: int, where: dict, sides=RESIDUAL) -> None:
        """Two truncated series, coefficients 0..through, at "order"; a
        side that ends below `through` raises ValueError."""
        pairs = zip(_coefficients(left, through), _coefficients(right, through))
        for b, (x, y) in enumerate(pairs):
            self.compare(x, y, {**where, "order": b}, sides)

    def matrix(self, left, right, where: dict, sides=("left", "right"), first: int = 0) -> None:
        """Two matrices of one shape (else ValueError), entry by entry in
        row-major order, at "i" and "j": the indices of a window whose first
        row and column is `first`."""
        left.check_shape(right)
        for i in range(left.rows):
            for j in range(left.cols):
                self.compare(left[i, j], right[i, j],
                             {"i": i + first, "j": j + first, **where}, sides)

    def cone(self, left, right, order: int, where: dict, sides=("left", "right")) -> None:
        """Two cone series of one shape (else ValueError) on the cells
        k + l <= order, k-major, at "k" and "l"."""
        if (left.kmax, left.lmax) != (right.kmax, right.lmax):
            raise ValueError("cone shapes differ")
        for k in range(min(left.kmax, order) + 1):
            for l in range(min(left.lmax, order - k) + 1):
                self.compare(left.c[k][l], right.c[k][l], {**where, "k": k, "l": l}, sides)


def _coefficients(s, through: int):
    """Coefficients 0..through of a truncated series; a plain scalar, such
    as the int 0 of a matrix-product entry with no nonzero term, is a
    constant series.  A series of lower order raises ValueError: the
    coefficients it lacks are unknown, not 0."""
    if not isinstance(s, TruncatedSeries):
        return (s,) + (0,) * through
    if s.order < through:
        raise ValueError(f"a series of order {s.order} compared through order {through}")
    return s.coeffs[:through + 1]


def sample_point(seed: int, reach: int = 0, window=None):
    """The point at `seed`, guarded at max(GUARD, reach), on the window
    (m, n) if given: the one point rule of the checks and the dumps."""
    p = sample_generic_point(seed, max(GUARD, reach))
    return p if window is None else p.with_overrides(*window)


def _sample_point(rec: Recorder, seed: int, reach: int = 0, window=None):
    """The check's one `sample_point`, begun on `rec`.  The guard covers
    only a finite window, so a denominator downstream may still vanish there;
    the DegenerateParameterError that says so fails the check, whose report
    names this point: no check moves past a degenerate point."""
    p = sample_point(seed, reach, window)
    rec.begin(p.to_json())
    return p


def _rng_rationals(seed: int, count: int):
    return _draw_rationals(random.Random(seed ^ 0x5EED), count, 61)


def _draw_rationals(rng: random.Random, count: int, hi: int) -> list:
    """`count` rationals p/s with 2 <= p, s <= hi, drawn until p != s: none
    is 1, where a bracket [1] = 0 would zero a comparison."""
    out = []
    while len(out) < count:
        p, s = rng.randint(2, hi), rng.randint(2, hi)
        if p != s:
            out.append(Rat(p, s))
    return out


def _spectral_draws(rng: random.Random, p, bound: int):
    """sqrt(u) values from `_draw_rationals(rng, 1, 30)`, each redrawn while
    u = q^a kappa^b for some |a|, |b| <= bound: there a bracket
    [u q^-a kappa^-b] = [1] is 0, and a comparison of zero factors cannot
    fail.  With q = rq^4 and kappa = rt^-2 that is v_su = 2a v_rq - b v_rt
    over the exponent vectors of the roots, so su is on the lattice exactly
    when v_su + b v_rt is one of the vectors 2a v_rq."""
    base = coprime_base((p.rq, p.rt))
    vq, vt = exponent_vector(p.rq, base), exponent_vector(p.rt, base)
    span = range(-bound, bound + 1)
    q_powers = {tuple(2 * a * x for x in vq) for a in span}
    while True:
        [su] = _draw_rationals(rng, 1, 30)
        v = exponent_vector(su, base)
        if v is None or not any(tuple(s + b * y for s, y in zip(v, vt)) in q_powers
                                for b in span):
            yield su


# -- individual checks ---------------------------------------------------------
#
# Each check is called with a Recorder and its arguments.  It sets the
# recorder's orders, begins its one point on the recorder, feeds every
# comparison to the recorder, and returns its info (or None).


def chk_shakirov(rec: Recorder, seed: int, kmax: int, lmax: int):
    rec.orders = {"kmax": kmax, "lmax": lmax}
    p = _sample_point(rec, seed, max(kmax, lmax))
    rec.cone(z_al(p, kmax, lmax), solve_shakirov(p, kmax, lmax), kmax + lmax, {},
             ("laumon", "solver"))


_THREEWAY_WINDOWS = ((1, 0), (0, 1), (2, 0), (1, 1), (2, 1), (2, 2))


def _display_matrix_2x2(d1, d4, lam, q):
    e = ScalarMatrix(2, 2, [0] * 4)
    e[0, 0] = (1 - d1 * lam / q) / (1 - lam / q)
    e[0, 1] = -(1 - d1) / (1 - lam / q)
    e[1, 0] = -lam * q * (1 - d4 / q) / (1 - lam / q)
    e[1, 1] = q ** 2 * (1 - d4 * lam / q ** 2) / (1 - lam / q)
    return e


def _display_matrix_3x3(d1, d4, lam, q):
    D = (1 - lam / q ** 2) * (1 - lam / q)
    e = ScalarMatrix(3, 3, [0] * 9)
    e[0, 0] = (1 - d1 * lam / q ** 2) * (1 - d1 * lam / q) / D
    e[0, 1] = -(1 + q) * (1 - d1) * (1 - d1 * lam / q) / (q * D)
    e[0, 2] = (1 - d1) * (1 - d1 * q) / (q * D)
    e[1, 0] = -lam * q * (1 - d4 / q) * (1 - d1 * lam / q) / D
    e[1, 1] = (q ** 2 * (1 - d1 * lam / q) * (1 - d4 * lam / q ** 2)
               + lam * q * (1 - d1 * q) * (1 - d4 / q ** 2)) / D
    e[1, 2] = -q ** 2 * (1 - d1 * q) * (1 - d4 * lam / q ** 3) / D
    e[2, 0] = lam ** 2 * q ** 3 * (1 - d4 / q ** 2) * (1 - d4 / q) / D
    e[2, 1] = -lam * q ** 4 * (1 + q) * (1 - d4 / q ** 2) * (1 - d4 * lam / q ** 3) / D
    e[2, 2] = q ** 6 * (1 - d4 * lam / q ** 4) * (1 - d4 * lam / q ** 3) / D
    return e


def chk_rmatrix_3way(rec: Recorder, seed: int):
    rec.orders = {"windows": list(_THREEWAY_WINDOWS)}
    lams = _rng_rationals(seed, 3)
    p = _sample_point(rec, seed)
    q, d1, d4 = p.q, p.d1, p.d4
    for lam in lams:
        solved = {}
        for (m, n) in _THREEWAY_WINDOWS:
            S, T = expansion_matrices(m, n, d1, d4, lam, q)
            a = solved[m, n] = r_via_linear_system(S, T)
            b = r_closed_form(m, n, d1, d4, lam, q)
            c = r_hg_matrix(m, n, d1, d4, lam, q)
            for other, tag in ((b, "closed"), (c, "hypergeometric")):
                rec.matrix(a, other, {"window": [m, n], "lambda": str(lam), "vs": tag},
                           first=-n)
            rec.matrix(S, a @ T, {"window": [m, n], "reason": "defining relation residual"},
                       first=-n)
        for builder, (m, n) in ((_display_matrix_2x2, (1, 0)),
                                (_display_matrix_3x3, (2, 0))):
            rec.matrix(solved[m, n], builder(d1, d4, lam, q),
                       {"window": [m, n], "lambda": str(lam), "vs": "display"}, first=-n)


def chk_qkz_matrix(rec: Recorder, seed: int, m: int, n: int, lmax: int):
    through = lmax - 1
    rec.orders = {"m": m, "n": n, "lmax": lmax, "checked_through": through}
    # each compared coefficient is causal in Lambda, so the sides are built
    # at the compared order (at least 1, which LambdaSeries.variable needs)
    left, right = qkz_residual(_sample_point(rec, seed, window=(m, n)), max(1, through))
    for J, (a, b) in enumerate(zip(left, right)):
        rec.series(a, b, through, {"component": J - n})


def chk_dual_qkz(rec: Recorder, seed: int, m: int, n: int, lmax: int):
    rec.orders = {"m": m, "n": n, "lmax": lmax}
    left, right = dual_qkz_residuals(_sample_point(rec, seed, window=(m, n)), lmax)
    for index, (a, b) in enumerate(zip(left, right)):
        i, k = divmod(index, m + n + 1)
        rec.series(a, b, lmax, {"i": i - n, "k": k - n})


def chk_ito_qkz(rec: Recorder, seed: int, m: int, n: int, lmax: int):
    through = lmax - 1
    rec.orders = {"m": m, "n": n, "lmax": lmax, "checked_through": through}
    a2 = _rng_rationals(seed + 17, 1)[0]
    jp = JacksonParams.from_point(_sample_point(rec, seed, window=(m, n)), a2)
    # built at the compared order, as in chk_qkz_matrix
    for name, (left, right) in ito_qkz_check(jp, max(1, through)).items():
        # the Lambda^0 constants come as constant series: only order 0 can differ
        for index, (a, b) in enumerate(zip(left, right)):
            rec.series(a, b, 0 if name == "Lambda^0" else through,
                       {"equation": name, "index": index})


_COMM_WINDOWS = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (2, 1), 4: (2, 2)}


def chk_commutativity(rec: Recorder, seed: int, N: int):
    rec.orders = {"N": N}
    m, n = _COMM_WINDOWS[N]
    a2 = _rng_rationals(seed + 29, 1)[0]
    lam = _rng_rationals(seed + 31, 1)[0]
    jp = JacksonParams.from_point(_sample_point(rec, seed, window=(m, n)), a2)
    R, A, D2 = ito_R(jp), ito_A(jp, lam), d2_matrix(jp, lam)
    if N:
        # at N = 0 the three matrices are 1x1, and commute whatever they hold
        rec.matrix(R @ D2 @ A, A @ R @ D2, {"relation": "R D2 A - A R D2"}, RESIDUAL)
    rec.matrix(ito_R_alt(jp), R, {"relation": "U'D'L' vs LDU"})
    rec.matrix(ito_A_via_R(jp, lam), A, {"relation": "A vs s T(R) D"})


def chk_al_jackson(rec: Recorder, seed: int, m: int, n: int, lmax: int):
    rec.orders = {"m": m, "n": n, "lmax": lmax}
    a2 = _rng_rationals(seed + 43, 1)[0]
    laumon, jackson, info, pivot = al_jackson_compare(
        _sample_point(rec, seed, window=(m, n)), a2, lmax)
    sides = ("jackson", "laumon")
    for J, (vp, vz) in enumerate(info["leading_orders"]):
        if vp is None and vz is None:
            continue  # zero through lmax on both sides: starts at a higher order
        where = {"component": J - n}
        rec.compare(vp, vz, {**where, "reason": "leading order"}, sides)
        rec.series(jackson[J] * laumon[J].coeffs[vz], laumon[J] * jackson[J].coeffs[vp],
                   lmax, where, sides)
    # the two normalizations the cross-multiplied pairs cancel, each against
    # its closed form: the empty pair alone gives x^0 Lambda^0 the weight 1
    rec.compare(laumon[n].coeffs[0], 1, {"component": 0, "order": 0},
                ("laumon", "empty_pair"))
    rec.compare(*pivot, {"reason": "Jackson pivot"}, ("lattice_sum", "closed_form"))
    return info


def chk_nekrasov_3way(rec: Recorder, seed: int, pair_count: int = 200, max_size: int = 8):
    rec.orders = {"pairs": pair_count, "max_size": max_size, "orbifold_orders": [2, 3, 4]}
    p = _sample_point(rec, seed)
    rng = random.Random(seed ^ 0xA11CE)
    draws = _spectral_draws(rng, p, 2 * max_size + 4)
    for trial in range(pair_count):
        lam = rng.choice(partitions_of(rng.randint(0, max_size)))
        mu = rng.choice(partitions_of(rng.randint(0, max_size)))
        su = next(draws)
        pair = [list(lam), list(mu)]
        table = BracketTable(su, p)
        # each form's brackets are multiplied once, grouped by kappa
        # exponent, and every orbifold order reads its residues from them
        row_groups, floor_groups = table.rows(lam, mu), table.floors(lam, mu)
        box = table.box(lam, mu)
        for order in (2, 3, 4):
            rows = residues(row_groups, order)
            for k, (row, floor) in enumerate(zip(rows, residues(floor_groups, order))):
                rec.compare_fractions(row, floor, {"pair": pair, "n": order, "k": k},
                                      ("row_form", "floor_form"))
            k_product = (math.prod(num for num, _ in rows), math.prod(den for _, den in rows))
            rec.compare_fractions(k_product, box, {"pair": pair, "n": order},
                                  ("k_product", "box_product"))


def chk_pentagon(rec: Recorder, seed: int, order: int = 6):
    rec.orders = {"total_order": order}
    p = _sample_point(rec, seed)
    alpha, beta = _rng_rationals(seed + 3, 2)
    q = p.q
    K = L = order
    one = ConeSeries.one(K, L)
    # every side is filled only on the levels k + l <= order that it compares;
    # the two prefixes the main and Borel sides share are built once
    inv = one.mul_phi(alpha, q, AXIS_X, inverted=True, top=order) \
             .mul_phi(beta, q, AXIS_LX, inverted=True, top=order)
    fwd = one.mul_phi(alpha, q, AXIS_X, top=order).mul_phi(beta, q, AXIS_LX, top=order)
    lhs = inv.mul_phi(alpha * beta, q, AXIS_L, top=order)
    qq = qpoch_run(q, q, order)
    rhs = ConeSeries(K, L)
    for k in range(K + 1):
        for l in range(order - k + 1):
            rhs.c[k][l] = alpha ** k * beta ** l * q ** (k * l) / (qq[k] * qq[l])
    rec.cone(lhs, rhs, order, {})
    # Borel identities on x^n-shifted cones, n = -2..2, both directions
    for nn in range(-2, 3):
        lhs1 = inv.borel(q, x_offset=nn, top=order)
        rhs1 = one.mul_phi(-q ** (1 + nn) * alpha, q, AXIS_X, top=order) \
                  .mul_phi(-q ** (-nn) * beta, q, AXIS_LX, top=order) \
                  .mul_phi(alpha * beta, q, AXIS_L, inverted=True, top=order) \
                  .scale(q ** ((nn * (nn + 1)) // 2))
        rec.cone(lhs1, rhs1, order, {"variant": "borel", "n": nn})
        lhs2 = fwd.borel(q, direction=-1, x_offset=nn, top=order)
        rhs2 = one.mul_phi(-alpha / q ** (1 + nn), q, AXIS_X, inverted=True, top=order) \
                  .mul_phi(-q ** nn * beta, q, AXIS_LX, inverted=True, top=order) \
                  .mul_phi(alpha * beta / q, q, AXIS_L, top=order) \
                  .scale(q ** (-(nn * (nn + 1)) // 2))
        rec.cone(lhs2, rhs2, order, {"variant": "borel inverse", "n": nn})


def chk_bailey(rec: Recorder, seed: int, nmax: int = 4):
    rec.orders = {"nmax": nmax}
    a, b, c, d, e, f = _rng_rationals(seed + 7, 6)
    q = _rng_rationals(seed + 13, 1)[0]
    rec.begin(json.dumps({"a": str(a), "b": str(b), "c": str(c), "d": str(d),
                          "e": str(e), "f": str(f), "q": str(q)}))
    for n in range(nmax + 1):
        lhs, rhs = bailey_check(a, b, c, d, e, f, n, q)
        rec.compare(lhs, rhs, {"n": n}, ("lhs", "rhs"))


def chk_shuffle(rec: Recorder, seed: int, nmax: int = 4):
    rec.orders = {"N_max": nmax}
    rng = random.Random(seed ^ 0x5FF1E)
    q, a, b = _rng_rationals(seed + 19, 3)
    rec.begin(json.dumps({"q": str(q), "a": str(a), "b": str(b)}))
    for N in range(1, nmax + 1):
        z = []
        while len(z) < N:
            v = Rat(rng.randint(2, 80), rng.randint(2, 80))
            if v not in z:
                z.append(v)
        sums = matsuo_e(a, b, z, q)
        for k, prefactor in enumerate(matsuo_prefactors(N, q)):
            rec.compare(prefactor * sums[k], matsuo_e_brute(k, a, b, z, q), {"N": N, "k": k},
                        ("factored", "antisymmetrized"))


def chk_coupled(rec: Recorder, seed: int, kmax: int, lmax: int):
    rec.orders = {"kmax": kmax, "lmax": lmax, "total_order": min(kmax, lmax)}
    p = _sample_point(rec, seed, max(kmax, lmax))
    relations = coupled_step(p, solve_shakirov(p, kmax, lmax))
    for tag, (left, right) in zip(("psi = g K chi", "chi = T(g K chi)"), relations):
        rec.cone(left, right, kmax + lmax, {"relation": tag}, RESIDUAL)


_FOURD_WINDOWS = ((1, 0), (2, 1))


def chk_fourd(rec: Recorder, seed: int, jet_order: int):
    rec.orders = {"jet_order": jet_order, "windows": list(_FOURD_WINDOWS)}
    m1, m4, kap, ac = _rng_rationals(seed + 37, 4)
    lam = _rng_rationals(seed + 41, 1)[0]
    rec.begin(json.dumps({"m1": str(m1), "m4": str(m4), "kappa": str(kap),
                          "a": str(ac), "lambda": str(lam)}))
    for (m, n) in _FOURD_WINDOWS:
        mvec = (m1, -m, -n, m4)
        h0, h1 = _fourd_jets(m, n, m1, m4, lam, jet_order)
        r1 = r1_fourd(mvec, m, n, lam)
        window = {"window": [m, n]}
        rec.matrix(h0, ScalarMatrix.identity(m + n + 1), {**window, "order": "h^0"},
                   ("value", "identity"), first=-n)
        rec.matrix(h1, r1, {**window, "order": "h^1"}, ("jet", "tridiagonal"), first=-n)
        H, A0, A1 = h4d_matrix(mvec, (kap, ac), m, n, lam)
        rec.matrix(H, r1, {**window, "relation": "H_4d vs h^1 matrix"}, first=-n)
        split = A0 + A1.scale(lam / (lam - 1))
        theta = ScalarMatrix.diagonal(range(-n, m + 1))
        rec.matrix(H - theta.scale(kap + 1 + ac), split,
                   {**window, "relation": "H_4d - (kappa+1+a) theta vs A0 + L A1/(L-1)"},
                   first=-n)
        rec.matrix(kz_form_matrix(mvec, (kap, ac), m, n, lam), split,
                   {**window, "relation": "KZ form vs A0 + L A1/(L-1)"}, first=-n)
    # the tabulated 4x4 window (free masses m2, m4): m1 = -2, m3 = -1.
    m2v, m4v = _rng_rationals(seed + 43, 2)
    tab = _fourd_table_m2_n1(m2v, m4v, lam)
    rec.matrix(r1_fourd((-2, m2v, -1, m4v), 2, 1, lam), tab,
               {"relation": "4x4 tabulated case"}, first=-1)
    _, h1 = _fourd_jets(2, 1, m2v, m4v, lam, jet_order)
    rec.matrix(h1, tab, {"relation": "4x4 vs jets"}, ("jet", "tabulated"), first=-1)


def _fourd_jets(m: int, n: int, mass1, mass4, lam, jet_order: int):
    """The h^0 and h^1 coefficient matrices of the R-matrix on window (m, n)
    at q = e^h, d1 = e^(mass1 h), d4 = e^(mass4 h), over h-jets."""
    rj = r_via_linear_system(*expansion_matrices(
        m, n, exp_jet(mass1, jet_order), exp_jet(mass4, jet_order),
        lam, exp_jet(1, jet_order)))
    return [ScalarMatrix(rj.rows, rj.cols, [x.coeffs[b] for x in rj.entries]) for b in (0, 1)]


def _fourd_table_m2_n1(m2, m4, lam):
    """First-order matrix for the window [-1, 2] with masses (-2, m2, -1, m4),
    tabulated entrywise (the source display carries an overall sign flip
    relative to the true expansion; this table is the jet-verified sign)."""
    den = lam - 1
    rows = [
        [3 * (lam * m2 - lam) / den, -3 * (m2 - 1) / den, Rat(0), Rat(0)],
        [-lam * m4 / den, (2 * lam * m2 + lam * m4) / den, -2 * m2 / den, Rat(0)],
        [Rat(0), -2 * lam * (m4 - 1) / den,
         (lam + lam * m2 + 2 * lam * m4 - 2) / den, (-m2 - 1) / den],
        [Rat(0), Rat(0), -3 * (lam * m4 - 2 * lam) / den, 3 * (lam * m4 - 2) / den],
    ]
    return ScalarMatrix.from_rows(rows)


def chk_heine(rec: Recorder, seed: int, lmax: int):
    rec.orders = {"lmax": lmax}
    p = _sample_point(rec, seed, window=(1, 0))
    comps = z_al_truncated(p, lmax)
    pair = heine_solution_pair(p, lmax)
    equations = heine_dual_residuals(p, pair)
    # the explicit pair solves the Lambda-shifted form: y_j(L) = psi_j(L / t)
    y0, y1, (_, _, _, c1) = pair
    y0L, y1L = y0.shift_variable(c1), y1.shift_variable(c1)
    sh0, sh1 = (c.shift_variable(1 / p.t) for c in comps)
    for left, right, relation in ((y0L * sh1, y1L * sh0, "cross-multiplied pair"),
                                  (y0L, sh0, "componentwise pair"),
                                  (y1L, sh1, "componentwise pair")):
        rec.series(left, right, lmax, {"relation": relation}, ("left", "right"))
    for tag, (left, right) in zip(("z1-shift", "z2-shift"), equations):
        for index, (a, b) in enumerate(zip(left, right)):
            rec.series(a, b, lmax, {"relation": tag, "index": index})


# -- suite registry -------------------------------------------------------------

class Suite(NamedTuple):
    """A check (called with a Recorder, a seed and the options it reads),
    its name template (formatted with the check's arguments), the
    (low, high) bounds of each option the suite reads besides seeds, its
    sweep: option values, one check per entry, for a run that leaves those
    options unset, and its acceptance options (at DEFAULT_SEEDS)."""
    check: Callable
    name: str
    limits: dict = {}
    sweep: tuple = ()
    acceptance: dict = {}


def _window_sweep(windows):
    return tuple({"m": m, "n": n} for m, n in windows)


_QKZ_WINDOWS = ((1, 0), (1, 1), (2, 1))
_ALJ_WINDOWS = tuple((m, s - m) for s in range(4) for m in range(s + 1))

SUITES = {
    "SHAKIROV_EQ": Suite(chk_shakirov, "solver = partition sum, seed {seed}", SERIES_ORDERS,
                         acceptance={"kmax": 4, "lmax": 4}),
    "RMATRIX_3WAY": Suite(chk_rmatrix_3way, "three realizations agree, seed {seed}"),
    "QKZ_MATRIX": Suite(chk_qkz_matrix, "q-KZ window ({m},{n}), seed {seed}",
                        WINDOWED, _window_sweep(_QKZ_WINDOWS), acceptance={"lmax": 4}),
    "DUAL_QKZ": Suite(chk_dual_qkz, "dual q-KZ window ({m},{n}), seed {seed}",
                      WINDOWED, _window_sweep(_QKZ_WINDOWS[:2]), acceptance={"lmax": 3}),
    "ITO_QKZ": Suite(chk_ito_qkz, "lattice-sum equations ({m},{n}), seed {seed}",
                     WINDOWED, _window_sweep(_QKZ_WINDOWS), acceptance={"lmax": 3}),
    "COMMUTATIVITY": Suite(
        chk_commutativity, "R D2 A = A R D2 at N={N}, seed {seed}",
        {"N": (min(_COMM_WINDOWS), max(_COMM_WINDOWS))}, tuple({"N": N} for N in _COMM_WINDOWS)),
    "AL_EQ_JACKSON": Suite(
        chk_al_jackson, "partition sum = lattice sum ({m},{n}), seed {seed}",
        WINDOWED, _window_sweep(_ALJ_WINDOWS), acceptance={"lmax": 3}),
    "NEKRASOV_3WAY": Suite(chk_nekrasov_3way, "orbifolded factor forms, seed {seed}"),
    "PENTAGON": Suite(chk_pentagon, "dilogarithm expansion, seed {seed}"),
    "BAILEY": Suite(chk_bailey, "10W9 transformation, seed {seed}"),
    "SHUFFLE": Suite(chk_shuffle, "factorized antisymmetrization, seed {seed}"),
    "COUPLED": Suite(chk_coupled, "coupled two-step system, seed {seed}", SERIES_ORDERS,
                     acceptance={"kmax": 4, "lmax": 4}),
    "FOURD_LIMIT": Suite(chk_fourd, "small-h limit, seed {seed}", {"jet_order": (1, math.inf)},
                         acceptance={"jet_order": 2}),
    "HEINE_EXAMPLE": Suite(chk_heine, "basic hypergeometric pair, seed {seed}", _LAMBDA_ORDER,
                           acceptance={"lmax": 4}),
}


def suite_tasks(cfg: SuiteConfig) -> list:
    """(suite, arguments) of every check of a run, seed by seed.  A check
    reads the options its suite bounds from `cfg`; where the options of the
    suite's sweep are unset, each sweep entry sets them for one check."""
    given = cfg.options()
    sweep = [entry for entry in SUITES[cfg.suite].sweep
             if all(given[opt] is None for opt in entry)]
    return [(cfg.suite, {"seed": s, **given, **entry})
            for s in cfg.seeds for entry in sweep or [{}]]


def _execute(task):
    """Run one check and build its report record.  The check passes iff it
    compares no unequal pair and at least one pair with a nonzero side.  A
    QkzError, such as the DegenerateParameterError of a degenerate point,
    fails it, and its mismatch gives the exception's type and message
    beside the check's point and orders.  Any other exception is a fault in
    the program: it fails this check with status "error", reports no point
    or orders, and leaves the other checks running."""
    suite, kwargs = task
    spec = SUITES[suite]
    start = time.monotonic()
    rec = Recorder()
    info = None
    try:
        info = spec.check(rec, **kwargs)
        if not rec.nonzero:
            raise _Mismatch({"reason": "no compared value is nonzero",
                             "compared": rec.compared})
        status, mismatch = "pass", None
    except _Mismatch as exc:
        status, mismatch, info = "fail", exc.args[0], None
    except QkzError as exc:
        status, mismatch = "fail", {"type": type(exc).__name__, "message": str(exc)}
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        status, mismatch = "error", {
            "type": type(exc).__name__, "message": str(exc),
            "where": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"}
        rec.point = rec.orders = None
    return {"name": spec.name.format(**kwargs), "status": status, "point": rec.point,
            "orders": rec.orders, "mismatch": mismatch,
            "time_ms": int((time.monotonic() - start) * 1000),
            "stats": {"compared": rec.compared, "nonzero": rec.nonzero},
            **({"info": info} if info is not None else {})}


def worker_count(n_tasks: int) -> int:
    """The size of the worker pool: QKZ_THREADS (an integer >= 1, else
    ConfigError) or the CPU count, and at most one worker per task."""
    env = os.environ.get("QKZ_THREADS")
    try:
        cap = int(env) if env else os.cpu_count() or 1
    except ValueError:
        raise ConfigError(f"QKZ_THREADS must be an integer, got {env!r}") from None
    if cap < 1:
        raise ConfigError(f"QKZ_THREADS must be at least 1, got {env!r}")
    return max(1, min(cap, n_tasks))


def run_suite(cfg: SuiteConfig) -> dict:
    tasks = suite_tasks(cfg)
    workers = worker_count(len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_execute, tasks))
    else:
        records = [_execute(t) for t in tasks]
    return {
        "suite": cfg.suite,
        "version": __version__,
        "env": {"backend": f"{Rat.__module__}.{Rat.__name__}",
                "python": sys.version.split()[0], "workers": workers},
        "config": {"suite": cfg.suite, "seeds": list(cfg.seeds), **cfg.options()},
        "checks": records,
    }


def report_passed(report: dict) -> bool:
    return all(c["status"] == "pass" for c in report["checks"])


def write_report(report: dict, fmt: str) -> str:
    """The report as the text of format `fmt`, "json" or "csv"."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=False) + "\n"
    lines = ["name,status,point,orders,mismatch,time_ms,compared,nonzero"]
    for c in report["checks"]:
        cells = [c["name"], c["status"],
                 json.dumps(c.get("point")), json.dumps(c.get("orders")),
                 json.dumps(c.get("mismatch")), str(c["time_ms"]),
                 str(c["stats"]["compared"]), str(c["stats"]["nonzero"])]
        lines.append(",".join('"' + cell.replace('"', '""') + '"' for cell in cells))
    return "\n".join(lines) + "\n"
