"""Suite registry: deterministic parameter sampling, check execution with
machine-readable reports, and the exact-equality pass criterion.

Every check compares exact scalars; a suite passes iff every compared pair
is equal.  Failures report the first mismatch location with both values
as strings.  Reports are deterministic for a fixed config (timing fields
aside).
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

from . import __version__
from .errors import ConfigError, DegenerateParameterError, QkzError, SingularMatrixError
from .scalars import HJet, Rat, exp_jet, product, sample_generic_point
from .qseries import bailey_check, qpoch
from .cone import ConeSeries, solve_shakirov, coupled_step, AXIS_X, AXIS_LX, AXIS_L
from .laumon import nek_orb, nek_orb_floor, total_nekrasov_bracket, z_al, z_al_truncated
from .partitions import partitions_of
from .linalg import ScalarMatrix
from .rmatrix import (
    defining_relation_residuals, dual_qkz_residuals, expansion_matrices, h4d_matrix,
    heine_dual_residuals, heine_solution_pair, kz_form_matrix, qkz_residual, r1_fourd,
    r_closed_form, r_hg_matrix, r_via_linear_system)
from .jackson import (
    JacksonParams, al_jackson_compare, commutativity_check, d2_matrix, ito_A, ito_A_via_R,
    ito_R, ito_R_alt, ito_qkz_check, matsuo_e, matsuo_e_brute, matsuo_prefactors)

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
        if (self.m is None) != (self.n is None):
            raise ConfigError("--m and --n must be given together")
        for opt in ("m", "n", "N"):
            if getattr(self, opt) is not None and opt not in spec.limits:
                raise ConfigError(f"{self.suite} does not read --{opt}")
        check_limits(self.suite, spec.limits, self)


def check_limits(owner: str, limits: dict, options) -> None:
    """ConfigError unless every option in `limits` that `options` sets (as
    an attribute) lies within its (low, high) bounds."""
    for opt, (lo, hi) in limits.items():
        value = getattr(options, opt)
        if value is not None and not lo <= value <= hi:
            flag = "--" + opt.replace("_", "-")
            raise ConfigError(f"{owner} needs {lo} <= {flag} <= {hi}, got {value}")


def _sample_with_retries(seed: int, guard: int, attempt_fn, overrides=None):
    """Sample a point; on a degeneracy signal in attempt_fn, retry with
    deterministically derived seeds (sampling guards cover only a finite
    window, so downstream denominators may still collapse at unlucky points).
    Only DegenerateParameterError and SingularMatrixError signal degeneracy;
    any other exception is a fault and propagates from the first attempt."""
    last = None
    for k in range(MAX_POINT_RETRIES):
        s = seed + RETRY_STRIDE * k
        p = sample_generic_point(s, guard)
        if overrides is not None:
            p = p.with_overrides(*overrides)
        try:
            return p, attempt_fn(p)
        except (DegenerateParameterError, SingularMatrixError) as exc:
            last = exc
    raise QkzError(f"no usable generic point after retries: {last}")


def _series_zero_through(series_list, order: int):
    """First violation of zero-ness through the given order, or None."""
    for idx, s in enumerate(series_list):
        for b in range(min(order, s.order) + 1):
            if s.coeffs[b] != 0:
                return {"index": idx, "order": b, "value": str(s.coeffs[b])}
    return None


def _matrix_mismatch(a: ScalarMatrix, b: ScalarMatrix, tags=None):
    """First differing entry, with ``tags`` appended to the record, or None."""
    for i in range(a.rows):
        for j in range(a.cols):
            if a[i, j] != b[i, j]:
                return {"i": i, "j": j, "left": str(a[i, j]), "right": str(b[i, j]),
                        **(tags or {})}
    return None


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
# Each check returns (point, orders, mismatch[, info]); mismatch None is a pass.


def chk_shakirov(seed: int, kmax: int, lmax: int):
    guard = max(8, kmax, lmax)

    def attempt(p):
        za = z_al(p, kmax, lmax)
        ps = solve_shakirov(p, kmax, lmax)
        return za, ps

    p, (za, ps) = _sample_with_retries(seed, guard, attempt)
    mm = za.first_mismatch(ps)
    if mm is not None:
        k, l, a, b = mm
        mm = {"k": k, "l": l, "laumon": str(a), "solver": str(b)}
    return p.to_json(), {"kmax": kmax, "lmax": lmax}, mm


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


def chk_rmatrix_3way(seed: int):
    lams = _rng_rationals(seed, 3)

    p, mismatch = _sample_with_retries(seed, 8, lambda pt: _rmatrix_3way_mismatch(pt, lams))
    return p.to_json(), {"windows": list(_THREEWAY_WINDOWS)}, mismatch


def _rmatrix_3way_mismatch(p, lams):
    q, d1, d4 = p.q, p.d1, p.d4
    for lam in lams:
        solved = {}
        for (m, n) in _THREEWAY_WINDOWS:
            S, T = expansion_matrices(m, n, d1, d4, lam, q)
            a = solved[m, n] = r_via_linear_system(S, T)
            b = r_closed_form(m, n, d1, d4, lam, q)
            c = r_hg_matrix(m, n, d1, d4, lam, q)
            for other, tag in ((b, "closed"), (c, "hypergeometric")):
                mm = _matrix_mismatch(a, other,
                                      {"window": [m, n], "lambda": str(lam), "vs": tag})
                if mm is not None:
                    return mm
            bad = defining_relation_residuals(S, T, a).first_nonzero()
            if bad is not None:
                return {"window": [m, n], "row": bad[0] - n,
                        "reason": "defining relation residual"}
        for builder, (m, n) in ((_display_matrix_2x2, (1, 0)),
                                (_display_matrix_3x3, (2, 0))):
            mm = _matrix_mismatch(solved[m, n], builder(d1, d4, lam, q),
                                  {"window": [m, n], "lambda": str(lam), "vs": "display"})
            if mm is not None:
                return mm
    return None


def chk_qkz_matrix(seed: int, m: int, n: int, lmax: int):
    def attempt(p):
        return qkz_residual(m, n, p, lmax)

    p, res = _sample_with_retries(seed, 8, attempt, overrides=(m, n))
    bad = _series_zero_through(res, lmax - 1)
    if bad is not None:
        bad["component"] = bad.pop("index") - n
    return p.to_json(), {"m": m, "n": n, "lmax": lmax, "checked_through": lmax - 1}, bad


def chk_dual_qkz(seed: int, m: int, n: int, lmax: int):
    def attempt(p):
        return dual_qkz_residuals(m, n, p, lmax)

    p, res = _sample_with_retries(seed, 8, attempt, overrides=(m, n))
    bad = _series_zero_through(res, lmax)
    if bad is not None:
        i, k = divmod(bad.pop("index"), m + n + 1)
        bad.update(i=i - n, k=k - n)
    return p.to_json(), {"m": m, "n": n, "lmax": lmax}, bad


def chk_ito_qkz(seed: int, m: int, n: int, lmax: int):
    a2 = _rng_rationals(seed + 17, 1)[0]

    def attempt(p):
        jp = JacksonParams.from_point(p, a2)
        return ito_qkz_check(jp, lmax)

    p, res = _sample_with_retries(seed, 8, attempt, overrides=(m, n))
    bad = None
    for name, series_list in res.items():
        bad = _series_zero_through(series_list, lmax - 1)
        if bad is not None:
            bad["equation"] = name
            break
    return p.to_json(), {"m": m, "n": n, "lmax": lmax, "checked_through": lmax - 1}, bad


_COMM_WINDOWS = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (2, 1), 4: (2, 2)}


def chk_commutativity(seed: int, N: int):
    m, n = _COMM_WINDOWS[N]
    a2 = _rng_rationals(seed + 29, 1)[0]
    lam = _rng_rationals(seed + 31, 1)[0]

    def attempt(p):
        jp = JacksonParams.from_point(p, a2)
        base = ito_R(jp)
        direct = ito_A(jp, lam)
        res = commutativity_check(base, direct, d2_matrix(jp, lam))
        return res, ito_R_alt(jp), base, ito_A_via_R(jp, lam), direct

    p, matrices = _sample_with_retries(seed, 8, attempt, overrides=(m, n))
    return p.to_json(), {"N": N}, _commutativity_mismatch(*matrices)


def _commutativity_mismatch(res, alt, base, via, direct):
    if not res.is_zero():
        i, j, v = res.first_nonzero()
        return {"i": i, "j": j, "value": str(v), "relation": "R D2 A - A R D2"}
    return (_matrix_mismatch(alt, base, {"relation": "U'D'L' vs LDU"})
            or _matrix_mismatch(via, direct, {"relation": "A vs s T(R) D"}))


def chk_al_jackson(seed: int, m: int, n: int, lmax: int):
    a2 = _rng_rationals(seed + 43, 1)[0]

    def attempt(p):
        return al_jackson_compare(p, a2, lmax)

    p, rec = _sample_with_retries(seed, 8, attempt, overrides=(m, n))
    orders = {"m": m, "n": n, "lmax": lmax}
    if not rec["ok"]:
        return p.to_json(), orders, rec["mismatch"]
    return p.to_json(), orders, None, {
        "lambda_dictionary": rec["lambda_dictionary"],
        "component_constants": rec["component_constants"],
        "leading_orders": rec["leading_orders"]}


def chk_nekrasov_3way(seed: int, pair_count: int = 200, max_size: int = 8):
    p = sample_generic_point(seed, 8)
    orders = {"pairs": pair_count, "max_size": max_size, "orbifold_orders": [2, 3, 4]}
    rng = random.Random(seed ^ 0xA11CE)
    return p.to_json(), orders, _nekrasov_mismatch(p, rng, pair_count, max_size)


def _nekrasov_mismatch(p, rng, pair_count, max_size):
    for trial in range(pair_count):
        lam = rng.choice(partitions_of(rng.randint(0, max_size)))
        mu = rng.choice(partitions_of(rng.randint(0, max_size - 0)))
        su = Rat(rng.randint(2, 30), rng.randint(2, 30))
        for order in (2, 3, 4):
            factors = []
            for k in range(order):
                a = nek_orb(k, order, lam, mu, su, p)
                b = nek_orb_floor(k, order, lam, mu, su, p)
                if a != b:
                    return {"pair": [list(lam.parts), list(mu.parts)],
                            "n": order, "k": k,
                            "row_form": str(a), "floor_form": str(b)}
                factors.append(a)
            total = product(factors)
            box = total_nekrasov_bracket(lam, mu, su, p)
            if total != box:
                return {"pair": [list(lam.parts), list(mu.parts)], "n": order,
                        "k_product": str(total), "box_product": str(box)}
    return None


def chk_pentagon(seed: int, order: int = 6):
    p = sample_generic_point(seed, 8)
    alpha, beta = _rng_rationals(seed + 3, 2)
    return p.to_json(), {"total_order": order}, _pentagon_mismatch(p.q, alpha, beta, order)


def _pentagon_mismatch(q, alpha, beta, order):
    K = L = order
    one = ConeSeries.one(K, L)
    lhs = one.mul_phi(alpha, q, AXIS_X, inverted=True) \
             .mul_phi(beta, q, AXIS_LX, inverted=True) \
             .mul_phi(alpha * beta, q, AXIS_L)
    rhs = ConeSeries(K, L)
    for k in range(K + 1):
        for l in range(L + 1):
            rhs.c[k][l] = alpha ** k * beta ** l * q ** (k * l) \
                / (qpoch(q, q, k) * qpoch(q, q, l))
    if not lhs.agrees_to_total_order(rhs, order):
        mm = lhs.first_mismatch(rhs)
        return {"k": mm[0], "l": mm[1], "left": str(mm[2]), "right": str(mm[3])}
    # Borel identities on x^n-shifted cones, n = -2..2, both directions
    for nn in range(-2, 3):
        lhs1 = one.mul_phi(alpha, q, AXIS_X, inverted=True) \
                  .mul_phi(beta, q, AXIS_LX, inverted=True).borel(q, x_offset=nn)
        rhs1 = one.mul_phi(-q ** (1 + nn) * alpha, q, AXIS_X) \
                  .mul_phi(-q ** (-nn) * beta, q, AXIS_LX) \
                  .mul_phi(alpha * beta, q, AXIS_L, inverted=True) \
                  .scale(q ** ((nn * (nn + 1)) // 2))
        if not lhs1.agrees_to_total_order(rhs1, order):
            return {"variant": "borel", "n": nn}
        lhs2 = one.mul_phi(alpha, q, AXIS_X).mul_phi(beta, q, AXIS_LX) \
                  .borel(q, direction=-1, x_offset=nn)
        rhs2 = one.mul_phi(-alpha / q ** (1 + nn), q, AXIS_X, inverted=True) \
                  .mul_phi(-q ** nn * beta, q, AXIS_LX, inverted=True) \
                  .mul_phi(alpha * beta / q, q, AXIS_L) \
                  .scale(q ** (-(nn * (nn + 1)) // 2))
        if not lhs2.agrees_to_total_order(rhs2, order):
            return {"variant": "borel inverse", "n": nn}
    return None


def chk_bailey(seed: int, nmax: int = 4):
    a, b, c, d, e, f = _rng_rationals(seed + 7, 6)
    q = _rng_rationals(seed + 13, 1)[0]
    point = json.dumps({"a": str(a), "b": str(b), "c": str(c), "d": str(d),
                        "e": str(e), "f": str(f), "q": str(q)})
    for n in range(nmax + 1):
        lhs, rhs = bailey_check(a, b, c, d, e, f, n, q)
        if lhs != rhs:
            return point, {"nmax": nmax}, {"n": n, "lhs": str(lhs), "rhs": str(rhs)}
    return point, {"nmax": nmax}, None


def chk_shuffle(seed: int, nmax: int = 4):
    rng = random.Random(seed ^ 0x5FF1E)
    q, a, b = _rng_rationals(seed + 19, 3)
    point = json.dumps({"q": str(q), "a": str(a), "b": str(b)})
    for N in range(1, nmax + 1):
        z = []
        while len(z) < N:
            v = Rat(rng.randint(2, 80), rng.randint(2, 80))
            if v not in z:
                z.append(v)
        sums = matsuo_e(a, b, z, q)
        for k, prefactor in enumerate(matsuo_prefactors(N, q)):
            lhs = prefactor * sums[k]
            rhs = matsuo_e_brute(k, a, b, z, q)
            if lhs != rhs:
                return point, {"N_max": nmax}, {"N": N, "k": k, "factored": str(lhs),
                                                "antisymmetrized": str(rhs)}
    return point, {"N_max": nmax}, None


def chk_coupled(seed: int, order: int = 4):
    def attempt(p):
        psi = solve_shakirov(p, order, order)
        return coupled_step(p, psi)

    p, (chi, (r1, r2)) = _sample_with_retries(seed, 8, attempt)
    mm = None
    for tag, res in (("psi = g K chi", r1), ("chi = T(g K chi)", r2)):
        if not res.is_zero():
            k, l, value, _ = res.first_mismatch(ConeSeries(order, order))
            mm = {"relation": tag, "k": k, "l": l, "value": str(value)}
            break
    return p.to_json(), {"kmax": order, "lmax": order, "total_order": order}, mm


_FOURD_WINDOWS = ((1, 0), (2, 1))


def chk_fourd(seed: int, jet_order: int = 2):
    m1, m4, kap, ac = _rng_rationals(seed + 37, 4)
    lam = _rng_rationals(seed + 41, 1)[0]
    point = json.dumps({"m1": str(m1), "m4": str(m4), "kappa": str(kap),
                        "a": str(ac), "lambda": str(lam)})
    orders = {"jet_order": jet_order, "windows": list(_FOURD_WINDOWS)}
    return point, orders, _fourd_mismatch(seed, m1, m4, kap, ac, lam, jet_order)


def _fourd_mismatch(seed, m1, m4, kap, ac, lam, jet_order):
    for (m, n) in _FOURD_WINDOWS:
        qj = exp_jet(1, jet_order)
        d1j = exp_jet(m1, jet_order)
        d4j = exp_jet(m4, jet_order)
        rj = r_via_linear_system(
            *expansion_matrices(m, n, d1j, d4j, HJet.constant(lam, jet_order), qj))
        r1 = r1_fourd((m1, -m, -n, m4), m, n, lam)
        size = m + n + 1
        for i in range(size):
            for j in range(size):
                want0 = 1 if i == j else 0
                if rj[i, j].coeffs[0] != want0:
                    return {"window": [m, n], "i": i - n, "j": j - n,
                            "order": "h^0", "value": str(rj[i, j].coeffs[0])}
                if rj[i, j].coeffs[1] != r1[i, j]:
                    return {"window": [m, n], "i": i - n, "j": j - n,
                            "order": "h^1", "jet": str(rj[i, j].coeffs[1]),
                            "tridiagonal": str(r1[i, j])}
        H, A0, A1 = h4d_matrix((m1, -m, -n, m4), (kap, ac), m, n, lam)
        mm = _matrix_mismatch(H, r1, {"relation": "H_4d vs h^1 matrix"})
        if mm is not None:
            return mm
        kz = kz_form_matrix((m1, -m, -n, m4), (kap, ac), m, n, lam)
        target = A0 + A1.scale(lam / (lam - 1))
        mm = _matrix_mismatch(kz, target, {"relation": "KZ form vs A0 + L A1/(L-1)"})
        if mm is not None:
            return mm
    # the tabulated 4x4 window (free masses m2, m4): m1 = -2, m3 = -1.
    m2v, m4v = _rng_rationals(seed + 43, 2)
    tab = _fourd_table_m2_n1(m2v, m4v, lam)
    got = r1_fourd((-2, m2v, -1, m4v), 2, 1, lam)
    mm = _matrix_mismatch(got, tab, {"relation": "4x4 tabulated case"})
    if mm is not None:
        return mm
    jq = exp_jet(1, jet_order)
    rj = r_via_linear_system(*expansion_matrices(
        2, 1, exp_jet(m2v, jet_order), exp_jet(m4v, jet_order),
        HJet.constant(lam, jet_order), jq))
    for i in range(4):
        for j in range(4):
            if rj[i, j].coeffs[1] != tab[i, j]:
                return {"relation": "4x4 vs jets", "i": i - 1, "j": j - 1}
    return None


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


def chk_heine(seed: int, lmax: int = 4):
    def attempt(p):
        comps = z_al_truncated(1, 0, p, lmax)
        pair = heine_solution_pair(p, lmax)
        return comps, pair, heine_dual_residuals(p, pair)

    p, (comps, pair, residuals) = _sample_with_retries(
        seed, 8, attempt, overrides=(1, 0))
    return p.to_json(), {"lmax": lmax}, _heine_mismatch(p, comps, pair, residuals, lmax)


def _heine_mismatch(p, comps, pair, residuals, lmax):
    # the explicit pair solves the Lambda-shifted form: y_j(L) = psi_j(L / t)
    y0, y1, (_, _, _, c1) = pair
    y0L = y0.shift_variable(c1)
    y1L = y1.shift_variable(c1)
    sh0 = comps[0].shift_variable(1 / p.t)
    sh1 = comps[1].shift_variable(1 / p.t)
    if y0L * sh1 != y1L * sh0:
        return {"relation": "cross-multiplied pair"}
    if y0L != sh0 or y1L != sh1:
        return {"relation": "componentwise pair"}
    for tag, res in zip(("z1-shift", "z2-shift"), residuals):
        bad = _series_zero_through(res, lmax)
        if bad is not None:
            bad["relation"] = tag
            return bad
    return None


# -- suite registry -------------------------------------------------------------

class Suite(NamedTuple):
    """A check, its name template (formatted with the check's arguments), the
    config -> per-seed argument dicts map, and the (low, high) bounds of each
    option the suite reads besides seeds and points."""
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
    """Run one check and build its report record.  Any exception other than
    a QkzError is a fault in the program: it fails this check with status
    "error" and leaves the other checks running."""
    suite, kwargs = task
    spec = SUITES[suite]
    start = time.monotonic()
    point, orders, info = None, None, []
    try:
        point, orders, mismatch, *info = spec.check(**kwargs)
        status = "pass" if mismatch is None else "fail"
    except QkzError as exc:
        status, mismatch = "fail", {"error": str(exc)}
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        status, mismatch = "error", {
            "type": type(exc).__name__, "message": str(exc),
            "where": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"}
    return {"name": spec.name.format(**kwargs), "status": status, "point": point,
            "orders": orders, "mismatch": mismatch,
            "time_ms": int((time.monotonic() - start) * 1000),
            **({"info": info[0]} if info else {})}


def worker_count(n_tasks: int) -> int:
    env = os.environ.get("QKZ_THREADS")
    try:
        cap = max(1, int(env)) if env else os.cpu_count() or 1
    except ValueError:
        raise ConfigError(f"QKZ_THREADS must be an integer, got {env!r}") from None
    return max(1, min(cap, n_tasks))


def run_suite(cfg: SuiteConfig) -> dict:
    spec = SUITES[cfg.suite]
    seeds = [s + SEED_STRIDE * k for s in cfg.seeds for k in range(cfg.points)]
    tasks = [(cfg.suite, {"seed": s, **kwargs}) for s in seeds for kwargs in spec.args(cfg)]
    workers = worker_count(len(tasks))
    if workers > 1:
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
