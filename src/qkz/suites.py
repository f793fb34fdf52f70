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
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

from . import __version__
from .errors import ConfigError, DegenerateParameterError, QkzError, SingularMatrixError
from .scalars import Rat, TruncatedSeries, exp_jet, product, sample_generic_point
from .qseries import bailey_check, qpoch
from .cone import ConeSeries, solve_shakirov, coupled_step, AXIS_X, AXIS_LX, AXIS_L
from .laumon import nek_orb, nek_orb_floor, total_nekrasov_bracket, z_al, z_al_truncated
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
SEED_STRIDE = 1_000_003
RETRY_STRIDE = 7_777_777
MAX_POINT_RETRIES = 12


@dataclass
class SuiteConfig:
    suite: str
    seeds: tuple = DEFAULT_SEEDS
    points: int = 1
    kmax: int = 4
    lmax: int = 4
    m: int | None = None
    n: int | None = None
    N: int | None = None
    jet_order: int = 2
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        spec = SUITES.get(self.suite)
        if spec is None:
            raise ConfigError(f"unknown suite id {self.suite!r}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown report format {self.format!r}")
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.points < 1:
            raise ConfigError(f"--points must be at least 1, got {self.points}")
        seeds = self.expanded_seeds()
        if len(set(seeds)) < len(seeds):
            raise ConfigError(f"a seed repeats in {seeds} (each --seed S checks "
                              f"S + {SEED_STRIDE} k for k < --points)")
        if (self.m is None) != (self.n is None):
            raise ConfigError("--m and --n must be given together")
        for opt in ("m", "n", "N"):
            if getattr(self, opt) is not None and opt not in spec.limits:
                raise ConfigError(f"{self.suite} does not read --{opt}")
        check_limits(self.suite, spec.limits, self)

    def expanded_seeds(self) -> list:
        """Every seed the run checks: each --seed S with its --points draws."""
        return [s + SEED_STRIDE * k for s in self.seeds for k in range(self.points)]


def check_limits(owner: str, limits: dict, options) -> None:
    """ConfigError unless every option in `limits` that `options` sets (as
    an attribute) lies within its (low, high) bounds."""
    for opt, (lo, hi) in limits.items():
        value = getattr(options, opt)
        if value is not None and not lo <= value <= hi:
            flag = "--" + opt.replace("_", "-")
            raise ConfigError(f"{owner} needs {lo} <= {flag} <= {hi}, got {value}")


class _Mismatch(Exception):
    """Stops a check at its first unequal pair; args[0] is the report's
    mismatch record."""


# sides of a comparison whose record also gives the difference, as "value"
RESIDUAL = ("value", "left", "right")


class Recorder:
    """The one comparison path of a check.

    A check feeds `compare` every pair of exact scalars that it claims
    equal, one pair at a time, with the pair's location.  The recorder
    counts the pairs (`compared`) and the pairs with a side that is not 0
    (`nonzero`), and stops the check at the first unequal pair by raising
    `_Mismatch`.  It also keeps the check's `orders` and the `point` of
    the current attempt, which the report of a mismatch carries."""

    __slots__ = ("compared", "nonzero", "point", "orders")

    def __init__(self):
        self.compared = self.nonzero = 0
        self.point = self.orders = None

    def begin(self, point: str) -> None:
        """Start an attempt at `point` (as JSON); the counts restart."""
        self.point = point
        self.compared = self.nonzero = 0

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

    def series(self, left, right, through: int, where: dict, sides=RESIDUAL) -> None:
        """Two truncated series, coefficients 0..through, at "order"."""
        pairs = zip(_coefficients(left, through), _coefficients(right, through))
        for b, (x, y) in enumerate(pairs):
            self.compare(x, y, {**where, "order": b}, sides)

    def matrix(self, left, right, where: dict, sides=("left", "right"), first: int = 0) -> None:
        """Two matrices, entry by entry in row-major order, at "i" and "j":
        the indices of a window whose first row and column is `first`."""
        for i in range(left.rows):
            for j in range(left.cols):
                self.compare(left[i, j], right[i, j],
                             {"i": i + first, "j": j + first, **where}, sides)

    def cone(self, left, right, order: int, where: dict, sides=("left", "right")) -> None:
        """Two cone series on the cells k + l <= order, k-major, at "k" and "l"."""
        for k in range(min(left.kmax, order) + 1):
            for l in range(min(left.lmax, order - k) + 1):
                self.compare(left.c[k][l], right.c[k][l], {**where, "k": k, "l": l}, sides)


def _coefficients(s, through: int):
    """Coefficients 0..through of a truncated series; a plain scalar, such
    as the int 0 of a matrix-product entry with no nonzero term, is a
    constant series."""
    return s.coeffs[:through + 1] if isinstance(s, TruncatedSeries) else (s,) + (0,) * through


def _sample_with_retries(rec: Recorder, seed: int, guard: int, attempt_fn, overrides=None):
    """Sample a point; on a degeneracy signal in attempt_fn, retry with
    deterministically derived seeds (sampling guards cover only a finite
    window, so downstream denominators may still collapse at unlucky points).
    Only DegenerateParameterError and SingularMatrixError signal degeneracy;
    any other exception is a fault and propagates from the first attempt,
    as does a mismatch.  Each attempt begins afresh on `rec`."""
    last = None
    for k in range(MAX_POINT_RETRIES):
        s = seed + RETRY_STRIDE * k
        p = sample_generic_point(s, guard)
        if overrides is not None:
            p = p.with_overrides(*overrides)
        rec.begin(p.to_json())
        try:
            return p, attempt_fn(p)
        except (DegenerateParameterError, SingularMatrixError) as exc:
            last = exc
    raise QkzError(f"no usable generic point after retries: {last}")


def _rng_rationals(seed: int, count: int, lo=2, hi=61):
    rng = random.Random(seed ^ 0x5EED)
    out = []
    while len(out) < count:
        p, s = rng.randint(lo, hi), rng.randint(lo, hi)
        if p != s:
            out.append(Rat(p, s))
    return out


# -- individual checks ---------------------------------------------------------
#
# Each check is called with a Recorder and its arguments.  It sets the
# recorder's orders, begins an attempt at each point it tries, feeds every
# comparison to the recorder, and returns its info (or None).


def chk_shakirov(rec: Recorder, seed: int, kmax: int, lmax: int):
    rec.orders = {"kmax": kmax, "lmax": lmax}
    guard = max(8, kmax, lmax)

    def attempt(p):
        return z_al(p, kmax, lmax), solve_shakirov(p, kmax, lmax)

    _, (za, ps) = _sample_with_retries(rec, seed, guard, attempt)
    rec.cone(za, ps, kmax + lmax, {}, ("laumon", "solver"))


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
    _sample_with_retries(rec, seed, 8, lambda p: _rmatrix_3way_compare(rec, p, lams))


def _rmatrix_3way_compare(rec: Recorder, p, lams):
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
    rec.orders = {"m": m, "n": n, "lmax": lmax, "checked_through": lmax - 1}
    _, (left, right) = _sample_with_retries(
        rec, seed, 8, lambda p: qkz_residual(m, n, p, lmax), overrides=(m, n))
    for J, (a, b) in enumerate(zip(left, right)):
        rec.series(a, b, lmax - 1, {"component": J - n})


def chk_dual_qkz(rec: Recorder, seed: int, m: int, n: int, lmax: int):
    rec.orders = {"m": m, "n": n, "lmax": lmax}
    _, (left, right) = _sample_with_retries(
        rec, seed, 8, lambda p: dual_qkz_residuals(m, n, p, lmax), overrides=(m, n))
    for index, (a, b) in enumerate(zip(left, right)):
        i, k = divmod(index, m + n + 1)
        rec.series(a, b, lmax, {"i": i - n, "k": k - n})


def chk_ito_qkz(rec: Recorder, seed: int, m: int, n: int, lmax: int):
    rec.orders = {"m": m, "n": n, "lmax": lmax, "checked_through": lmax - 1}
    a2 = _rng_rationals(seed + 17, 1)[0]

    def attempt(p):
        return ito_qkz_check(JacksonParams.from_point(p, a2), lmax)

    _, equations = _sample_with_retries(rec, seed, 8, attempt, overrides=(m, n))
    for name, (left, right) in equations.items():
        # the Lambda^0 constants come as constant series: only order 0 can differ
        through = 0 if name == "Lambda^0" else lmax - 1
        for index, (a, b) in enumerate(zip(left, right)):
            rec.series(a, b, through, {"equation": name, "index": index})


_COMM_WINDOWS = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (2, 1), 4: (2, 2)}


def chk_commutativity(rec: Recorder, seed: int, N: int):
    rec.orders = {"N": N}
    m, n = _COMM_WINDOWS[N]
    a2 = _rng_rationals(seed + 29, 1)[0]
    lam = _rng_rationals(seed + 31, 1)[0]

    def attempt(p):
        jp = JacksonParams.from_point(p, a2)
        return (ito_R(jp), ito_A(jp, lam), d2_matrix(jp, lam), ito_R_alt(jp),
                ito_A_via_R(jp, lam))

    _, (R, A, D2, alt, via) = _sample_with_retries(rec, seed, 8, attempt, overrides=(m, n))
    if N:
        # at N = 0 the three matrices are 1x1, and commute whatever they hold
        rec.matrix(R @ D2 @ A, A @ R @ D2, {"relation": "R D2 A - A R D2"}, RESIDUAL)
    rec.matrix(alt, R, {"relation": "U'D'L' vs LDU"})
    rec.matrix(via, A, {"relation": "A vs s T(R) D"})


def chk_al_jackson(rec: Recorder, seed: int, m: int, n: int, lmax: int):
    rec.orders = {"m": m, "n": n, "lmax": lmax}
    a2 = _rng_rationals(seed + 43, 1)[0]
    _, (laumon, jackson, info) = _sample_with_retries(
        rec, seed, 8, lambda p: al_jackson_compare(p, a2, lmax), overrides=(m, n))
    sides = ("jackson", "laumon")
    for J, (vp, vz) in enumerate(info["leading_orders"]):
        if vp is None and vz is None:
            continue  # zero through lmax on both sides: starts at a higher order
        where = {"component": J - n}
        rec.compare(vp, vz, {**where, "reason": "leading order"}, sides)
        rec.series(jackson[J] * laumon[J].coeffs[vz], laumon[J] * jackson[J].coeffs[vp],
                   lmax, where, sides)
    return info


def chk_nekrasov_3way(rec: Recorder, seed: int, pair_count: int = 200, max_size: int = 8):
    rec.orders = {"pairs": pair_count, "max_size": max_size, "orbifold_orders": [2, 3, 4]}
    p = sample_generic_point(seed, 8)
    rec.begin(p.to_json())
    rng = random.Random(seed ^ 0xA11CE)
    for trial in range(pair_count):
        lam = rng.choice(partitions_of(rng.randint(0, max_size)))
        mu = rng.choice(partitions_of(rng.randint(0, max_size - 0)))
        su = Rat(rng.randint(2, 30), rng.randint(2, 30))
        pair = [list(lam.parts), list(mu.parts)]
        for order in (2, 3, 4):
            factors = []
            for k in range(order):
                a = nek_orb(k, order, lam, mu, su, p)
                rec.compare(a, nek_orb_floor(k, order, lam, mu, su, p),
                            {"pair": pair, "n": order, "k": k}, ("row_form", "floor_form"))
                factors.append(a)
            rec.compare(product(factors), total_nekrasov_bracket(lam, mu, su, p),
                        {"pair": pair, "n": order}, ("k_product", "box_product"))


def chk_pentagon(rec: Recorder, seed: int, order: int = 6):
    rec.orders = {"total_order": order}
    p = sample_generic_point(seed, 8)
    rec.begin(p.to_json())
    alpha, beta = _rng_rationals(seed + 3, 2)
    q = p.q
    K = L = order
    one = ConeSeries.one(K, L)
    # the two prefixes the main and Borel sides share, built once
    inv = one.mul_phi(alpha, q, AXIS_X, inverted=True).mul_phi(beta, q, AXIS_LX, inverted=True)
    fwd = one.mul_phi(alpha, q, AXIS_X).mul_phi(beta, q, AXIS_LX)
    lhs = inv.mul_phi(alpha * beta, q, AXIS_L)
    rhs = ConeSeries(K, L)
    for k in range(K + 1):
        for l in range(L + 1):
            rhs.c[k][l] = alpha ** k * beta ** l * q ** (k * l) \
                / (qpoch(q, q, k) * qpoch(q, q, l))
    rec.cone(lhs, rhs, order, {})
    # Borel identities on x^n-shifted cones, n = -2..2, both directions
    for nn in range(-2, 3):
        lhs1 = inv.borel(q, x_offset=nn)
        rhs1 = one.mul_phi(-q ** (1 + nn) * alpha, q, AXIS_X) \
                  .mul_phi(-q ** (-nn) * beta, q, AXIS_LX) \
                  .mul_phi(alpha * beta, q, AXIS_L, inverted=True) \
                  .scale(q ** ((nn * (nn + 1)) // 2))
        rec.cone(lhs1, rhs1, order, {"variant": "borel", "n": nn})
        lhs2 = fwd.borel(q, direction=-1, x_offset=nn)
        rhs2 = one.mul_phi(-alpha / q ** (1 + nn), q, AXIS_X, inverted=True) \
                  .mul_phi(-q ** nn * beta, q, AXIS_LX, inverted=True) \
                  .mul_phi(alpha * beta / q, q, AXIS_L) \
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


def chk_coupled(rec: Recorder, seed: int, order: int = 4):
    rec.orders = {"kmax": order, "lmax": order, "total_order": order}

    def attempt(p):
        return coupled_step(p, solve_shakirov(p, order, order))

    _, relations = _sample_with_retries(rec, seed, 8, attempt)
    for tag, (left, right) in zip(("psi = g K chi", "chi = T(g K chi)"), relations):
        rec.cone(left, right, 2 * order, {"relation": tag}, RESIDUAL)


_FOURD_WINDOWS = ((1, 0), (2, 1))


def chk_fourd(rec: Recorder, seed: int, jet_order: int = 2):
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


def chk_heine(rec: Recorder, seed: int, lmax: int = 4):
    rec.orders = {"lmax": lmax}

    def attempt(p):
        comps = z_al_truncated(1, 0, p, lmax)
        pair = heine_solution_pair(p, lmax)
        return comps, pair, heine_dual_residuals(p, pair)

    p, (comps, pair, equations) = _sample_with_retries(
        rec, seed, 8, attempt, overrides=(1, 0))
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
    """A check (called with a Recorder and its arguments), its name template
    (formatted with the check's arguments), the config -> per-seed argument
    dicts map, and the (low, high) bounds of each option the suite reads
    besides seeds and points."""
    check: Callable
    name: str
    args: Callable = lambda cfg: [{}]
    limits: dict = {}


def _windows(default):
    return lambda cfg: [{"m": m, "n": n, "lmax": cfg.lmax}
                        for m, n in (default if cfg.m is None else ((cfg.m, cfg.n),))]


_QKZ_WINDOWS = ((1, 0), (1, 1), (2, 1))
_DUAL_WINDOWS = ((1, 0), (1, 1))
_ALJ_WINDOWS = tuple((m, s - m) for s in range(4) for m in range(s + 1))
_SERIES_ORDERS = {"kmax": (0, math.inf), "lmax": (0, math.inf)}
_LAMBDA_ORDER = {"lmax": (1, math.inf)}
_WINDOWED = {"m": (0, math.inf), "n": (0, math.inf), **_LAMBDA_ORDER}

SUITES = {
    "SHAKIROV_EQ": Suite(chk_shakirov, "solver = partition sum, seed {seed}",
                         lambda c: [{"kmax": c.kmax, "lmax": c.lmax}], _SERIES_ORDERS),
    "RMATRIX_3WAY": Suite(chk_rmatrix_3way, "three realizations agree, seed {seed}"),
    "QKZ_MATRIX": Suite(chk_qkz_matrix, "q-KZ window ({m},{n}), seed {seed}",
                        _windows(_QKZ_WINDOWS), _WINDOWED),
    "DUAL_QKZ": Suite(chk_dual_qkz, "dual q-KZ window ({m},{n}), seed {seed}",
                      _windows(_DUAL_WINDOWS), _WINDOWED),
    "ITO_QKZ": Suite(chk_ito_qkz, "lattice-sum equations ({m},{n}), seed {seed}",
                     _windows(_QKZ_WINDOWS), _WINDOWED),
    "COMMUTATIVITY": Suite(
        chk_commutativity, "R D2 A = A R D2 at N={N}, seed {seed}",
        lambda c: [{"N": N} for N in (_COMM_WINDOWS if c.N is None else (c.N,))],
        {"N": (min(_COMM_WINDOWS), max(_COMM_WINDOWS))}),
    "AL_EQ_JACKSON": Suite(
        chk_al_jackson, "partition sum = lattice sum ({m},{n}), seed {seed}",
        _windows(_ALJ_WINDOWS), _WINDOWED),
    "NEKRASOV_3WAY": Suite(chk_nekrasov_3way, "orbifolded factor forms, seed {seed}"),
    "PENTAGON": Suite(chk_pentagon, "dilogarithm expansion, seed {seed}"),
    "BAILEY": Suite(chk_bailey, "10W9 transformation, seed {seed}"),
    "SHUFFLE": Suite(chk_shuffle, "factorized antisymmetrization, seed {seed}"),
    "COUPLED": Suite(chk_coupled, "coupled two-step system, seed {seed}",
                     lambda c: [{"order": min(c.kmax, c.lmax)}], _SERIES_ORDERS),
    "FOURD_LIMIT": Suite(
        chk_fourd, "small-h limit, seed {seed}",
        lambda c: [{"jet_order": c.jet_order}], {"jet_order": (1, math.inf)}),
    "HEINE_EXAMPLE": Suite(chk_heine, "basic hypergeometric pair, seed {seed}",
                           lambda c: [{"lmax": c.lmax}], _LAMBDA_ORDER),
}


def _execute(task):
    """Run one check and build its report record.  The check passes iff it
    compares no unequal pair and at least one pair with a nonzero side.  A
    QkzError fails it; any other exception is a fault in the program: it
    fails this check with status "error" and leaves the other checks
    running.  A check that raises reports no point or orders."""
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
        status, mismatch = "fail", {"error": str(exc)}
        rec.point = rec.orders = None
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
    env = os.environ.get("QKZ_THREADS")
    try:
        cap = max(1, int(env)) if env else os.cpu_count() or 1
    except ValueError:
        raise ConfigError(f"QKZ_THREADS must be an integer, got {env!r}") from None
    return max(1, min(cap, n_tasks))


def run_suite(cfg: SuiteConfig) -> dict:
    spec = SUITES[cfg.suite]
    tasks = [(cfg.suite, {"seed": s, **kwargs})
             for s in cfg.expanded_seeds() for kwargs in spec.args(cfg)]
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
        "config": {**asdict(cfg), "seeds": list(cfg.seeds)},
        "checks": records,
    }


def report_passed(report: dict) -> bool:
    return all(c["status"] == "pass" for c in report["checks"])


def write_report(report: dict, path: str | None, fmt: str) -> str:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=False) + "\n"
    else:
        lines = ["name,status,point,orders,mismatch,time_ms"]
        for c in report["checks"]:
            cells = [c["name"], c["status"],
                     json.dumps(c.get("point")), json.dumps(c.get("orders")),
                     json.dumps(c.get("mismatch")), str(c["time_ms"])]
            lines.append(",".join('"' + cell.replace('"', '""') + '"' for cell in cells))
        text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
