"""Acceptance suite: one check per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time

import pytest

import dworklab as dl
from dworklab import ringmat
from dworklab.hasse_witt import PointKit
from conftest import rand_admissible_tuple, rand_laurent, seeded
from oracles import leading_term_lex, oracle_mul


def _verdict(num, label, ok, detail=""):
    line = f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _kz(p, N, g, m=1):
    ctx = dl.ctx_new(p, N, m)
    return ctx, dl.KZConfig(ctx, g)


def _points(p, g, m, count, seed, ctx):
    return [pt.lift for pt in dl.sample_domain_points(p, g, m, count, seed, ctx)]


def test_criterion_1_ghost_divisibility():
    t0 = time.time()
    rng = seeded(101)
    cases = []
    for i in range(24):
        cases.append(rand_admissible_tuple(rng, p=3, l=4 if i == 0 else None))
    for _ in range(24):
        cases.append(rand_admissible_tuple(rng, p=5))
    for _ in range(2):
        # p = 5 at full length l = 4, kept tiny
        ctx = dl.ctx_new(5, 5, 1)
        lams = [rand_laurent(rng, ctx, 1, 1, 0, 4, 2, zdeg=1)
                for _ in range(5)]
        from dworklab.ghosts import AdmissibleTuple

        tup = AdmissibleTuple(lams, (0,), periodic=False)
        assert tup.certificate.ok
        cases.append(tup)
    assert len(cases) == 50
    worst = None
    for tup in cases:
        l = len(tup.lams) - 1
        gs = dl.ghost_sequence(tup, l)
        for s, v in enumerate(gs.min_vals):
            assert v >= min(s, tup.ctx.N), (s, v)
            worst = v - s if worst is None else min(worst, v - s)
    _verdict(1, "ghost coefficients divisible by p^s on 50 admissible tuples",
             True, f"min slack {worst}, {time.time() - t0:.1f}s")


def test_criterion_2_decomposition():
    t0 = time.time()
    ctx, cfg = _kz(3, 4, 1)
    tup = dl.kz_tuple(cfg, length=3)
    gs = dl.ghost_sequence(tup, 2)
    ok = True
    for s in (1, 2):
        rep = dl.verify_decomposition(gs.tup, s)
        ok = ok and rep.passed and rep.observed_min_valuation == ctx.N
        ok = ok and rep.extra["ghost_block_valuation"] >= s
    ctx5, cfg5 = _kz(5, 4, 2, m=2)
    pts = _points(5, 2, 2, 20, 202, ctx5)
    tup5 = dl.kz_tuple(cfg5, length=4)
    for s in (1, 2, 3):
        rep = dl.verify_decomposition(tup5, s, points=pts)
        ok = ok and rep.passed and rep.observed_min_valuation == ctx5.N
        ok = ok and rep.extra["ghost_block_valuation"] >= s
    _verdict(2, "ghost decomposition identity, exact symbolic + 20 points",
             ok, f"{time.time() - t0:.1f}s")


def test_criterion_3_factorization_mod_p():
    t0 = time.time()
    ctx, cfg = _kz(3, 4, 1)
    tup = dl.kz_tuple(cfg, length=3)
    ok = True
    for s in (1, 2):
        rep = dl.verify_frobenius_factorization(tup, s)
        ok = ok and rep.passed
    for p in (5, 7):
        ctxp, cfgp = _kz(p, 4, 2, m=2)
        pts = _points(p, 2, 2, 5, 303, ctxp)
        tupp = dl.kz_tuple(cfgp, length=4)
        for s in (1, 2, 3):
            rep = dl.verify_frobenius_factorization(
                tupp, s, points=pts)
            ok = ok and rep.passed
    _verdict(3, "mod-p factorization into twisted level-1 matrices", ok,
             f"{time.time() - t0:.1f}s")


def test_criterion_4_ratio_and_det():
    t0 = time.time()
    ctx, cfg = _kz(3, 4, 1)
    tup = dl.kz_tuple(cfg, length=3)
    r_sym = dl.verify_dwork_ratio(tup, 2)
    d_sym = dl.verify_det_congruence(tup, 2)
    ok = r_sym.passed and d_sym.passed
    ctx5, cfg5 = _kz(5, 5, 2, m=2)
    pts = _points(5, 2, 2, 20, 404, ctx5)
    tup5 = dl.kz_tuple(cfg5, length=4)
    r_pw = dl.verify_dwork_ratio(tup5, 3, points=pts)
    d_pw = dl.verify_det_congruence(tup5, 3, points=pts)
    ok = ok and r_pw.passed and d_pw.passed
    detail = (f"sym vals {r_sym.observed_min_valuation}/"
              f"{d_sym.observed_min_valuation} >= 2, "
              f"pointwise {r_pw.observed_min_valuation}/"
              f"{d_pw.observed_min_valuation} >= 3, {time.time() - t0:.1f}s")
    _verdict(4, "ratio congruence and determinant corollary", ok, detail)


def test_criterion_5_derivative_congruences():
    t0 = time.time()
    ctx, cfg = _kz(3, 5, 1)
    tup = dl.kz_tuple(cfg, length=3)
    ok = True
    for m in (0, 1):
        rep = dl.verify_derivative_congruence(tup, 2, m=m, v=1)
        ok = ok and rep.passed and rep.claimed_valuation == 2 + m
    rep = dl.verify_second_derivative_congruence(tup, 2, u=1, v=2)
    ok = ok and rep.passed
    ctx5, cfg5 = _kz(5, 5, 2, m=2)
    pts = _points(5, 2, 2, 20, 505, ctx5)
    tup5 = dl.kz_tuple(cfg5, length=4)
    for m in (0, 1):
        rep = dl.verify_derivative_congruence(
            tup5, 3, m=m, v=2, points=pts)
        ok = ok and rep.passed and rep.claimed_valuation == 3 + m
    for (u, v) in ((1, 2), (4, 4)):
        rep = dl.verify_second_derivative_congruence(
            tup5, 3, u=u, v=v, points=pts)
        ok = ok and rep.passed and rep.claimed_valuation == 3
    _verdict(5, "derivative congruences at p^(s+m) and p^s", ok,
             f"{time.time() - t0:.1f}s")


def test_criterion_6_kz_residual():
    t0 = time.time()
    ctx, cfg = _kz(3, 4, 1)
    ok = True
    for s in (1, 2):
        rep = dl.kz_residual(cfg, s)
        ok = ok and rep.passed
        ok = ok and all(v >= s for v in rep.extra["column_sum_valuations"])
        ids = dl.verify_phi_identities(cfg, s)
        ok = ok and ids.passed and ids.observed_min_valuation == ctx.N
    ctx5, cfg5 = _kz(5, 4, 2, m=2)
    pts = _points(5, 2, 2, 20, 606, ctx5)
    for s in (1, 2, 3):
        rep = dl.kz_residual(cfg5, s, points=pts)
        ok = ok and rep.passed and rep.observed_min_valuation >= s
    _verdict(6, "KZ residual and column sums modulo p^s + proof identities",
             ok, f"{time.time() - t0:.1f}s")


def _stabilizes_mod_p(cfg, domain, s_max):
    """J_s = J_1 mod p for s <= s_max at each point, through limit_frames: its
    I_decay profile is >= s + 1 at index s, which telescopes to the
    corollary, and each difference to J_1 is checked as well."""
    ring = ringmat.scalar_ring(cfg.ctx)
    for pt in domain:
        frag = dl.limit_frames(cfg, pt, s_max,
                               PointKit(cfg.ctx, cfg.delta, pt.lift))
        if not all(v >= s + 1 for s, v in enumerate(frag["decay_J"])):
            return False
        J1 = frag["J_seq"][0]
        if any(ringmat.min_val(ring, ringmat.mat_sub(ring, J, J1)) < 1
               for J in frag["J_seq"][1:]):
            return False
    return True


def test_criterion_7_frame_congruence():
    t0 = time.time()
    ctx3, cfg3 = _kz(3, 5, 1, m=2)
    dom3 = dl.sample_domain_points(3, 1, 2, 6, 707, ctx3)
    ok = True
    vals = []
    for s in (1, 2, 3):
        rep = dl.verify_solution_congruence(
            cfg3, s, points=[pt.lift for pt in dom3])
        ok = ok and rep.passed and rep.observed_min_valuation >= s
        vals.append(rep.observed_min_valuation)
    ok = ok and _stabilizes_mod_p(cfg3, dom3, 3)
    ctx5, cfg5 = _kz(5, 4, 2, m=2)
    dom5 = dl.sample_domain_points(5, 2, 2, 5, 708, ctx5)
    rep5 = dl.verify_solution_congruence(
        cfg5, 2, points=[pt.lift for pt in dom5])
    ok = ok and rep5.passed and _stabilizes_mod_p(cfg5, dom5, 3)
    _verdict(7, "frame congruences across s = 1..3 and mod-p stabilization",
             ok, f"chain valuations {vals}, {time.time() - t0:.1f}s")


def test_criterion_8_nonzero_det_and_leading_terms():
    t0 = time.time()
    import math

    ok = True
    for p, g in ((3, 1), (5, 2), (7, 2)):
        ctx = dl.ctx_new(p, 1, 1)
        cfg = dl.KZConfig(ctx, g)
        F = dl.master_polynomial(cfg, 1)
        A = dl.hw_matrix(1, F, cfg.delta)
        e = (p - 1) // 2
        det = dl.hw_det(ringmat.poly_ring(ctx, 0, cfg.n), A)
        ok = ok and not det.is_zero()
        c, key = leading_term_lex(det)
        exp = [0] * cfg.n
        for v in range(1, g + 1):
            for i in range(1, 2 * g + 1 - 2 * v + 1):
                exp[i - 1] += e
        ok = ok and key == tuple(exp) and c in (1, p - 1)
        if g == 2:
            pattern = {
                (1, 1): ([e, e, e, 0, 0], 1),
                (1, 2): ([e - 1, 0, 0, 0, 0], math.comb(e, 1)),
                (2, 1): ([e, e, e, 1, 0], math.comb(e, 1)),
                (2, 2): ([e, 0, 0, 0, 0], 1),
            }
            for (u, v), (exp_uv, b) in pattern.items():
                cc, kk = leading_term_lex(A[u - 1][v - 1])
                ok = ok and kk == tuple(exp_uv)
                ok = ok and cc % p in (b % p, (-b) % p)
    _verdict(8, "nonzero mod-p determinant with exact leading terms", ok,
             f"{time.time() - t0:.1f}s")


def test_criterion_9_nonempty_bound():
    t0 = time.time()
    res = dl.scan_domain(3, 1, 2)
    ok = (res.in_d_count == 648 and res.nonempty_bound == 638
          and res.in_d_count >= res.nonempty_bound)
    _verdict(9, "exhaustive domain count vs lower bound", ok,
             f"648 >= 638, {time.time() - t0:.1f}s")


def test_criterion_10_limit_certificates():
    t0 = time.time()
    ok = True
    for p, g, s_max, seed in ((3, 1, 4, 1001), (7, 2, 3, 1002)):
        N = s_max + 1
        ctx = dl.ctx_new(p, N, 2)
        cfg = dl.KZConfig(ctx, g)
        pts = dl.sample_domain_points(p, g, 2, 5, seed, ctx)
        for pt in pts:
            rep = dl.limit_report(cfg, pt, s_max)
            ok = ok and all(v == 0 for v in rep.frag["det_valuations"])
            for name in ("decay_A", "decay_J", "decay_K", "decay_B"):
                ok = ok and all(
                    v >= s + 1 for s, v in enumerate(rep.frag[name]))
            for cert in rep.certificates:
                ok = ok and cert.passed
            ok = ok and rep.passed  # the verdict `limit` exits with
    from dworklab.limits import det_degree

    assert 7**2 > 2 * det_degree(7, 2)  # rank guarantee precondition
    assert 3**2 > 2 * det_degree(3, 1)
    _verdict(10, "limit decay, unit determinants and all certificates at "
                 "10 scanned points", ok, f"{time.time() - t0:.1f}s")


def test_criterion_11_oracle_equivalence():
    t0 = time.time()
    rng = seeded(1103)
    ok = True
    for _ in range(1000):
        p, N = rng.choice([(3, 1), (3, 2), (3, 4), (5, 1), (5, 2)])
        ctx = dl.ctx_new(p, N, 1)
        n = rng.randint(1, 3)
        a = rand_laurent(rng, ctx, 1, n, -3, 5, 6, neg_z=True)
        b = rand_laurent(rng, ctx, 1, n, -3, 5, 6, neg_z=True)
        ok = ok and (a * b).terms == oracle_mul(a.terms, b.terms, p, N)
    # scalar ring against big integers
    ctx = dl.ctx_new(3, 4, 1)
    q = 81
    for _ in range(10_000):
        x, y = rng.randrange(-(10**6), 10**6), rng.randrange(-(10**6), 10**6)
        ok = ok and ctx.mul(ctx.from_int(x), ctx.from_int(y)) == x * y % q
        ok = ok and ctx.add(ctx.from_int(x), ctx.from_int(y)) == (x + y) % q
    _verdict(11, "polynomial and scalar arithmetic match brute-force oracles",
             ok, f"{time.time() - t0:.1f}s")


@pytest.mark.parametrize("p,N,s,g,m,seed", [(7, 6, 4, 2, 1, 0), (5, 5, 3, 2, 2, 0)])
def test_ratio_and_det_are_sharp_pointwise(p, N, s, g, m, seed):
    """With headroom N >= s + 1 the pointwise ratio and det congruences
    reach exactly the claimed exponent s.  A(s + 1, W_s) and its partners
    are read by base-p digits here, so a read from a wrong level, index or
    twist moves the observed valuation."""
    ctx, cfg = _kz(p, N, g, m)
    pts = _points(p, g, m, 4, seed, ctx)
    tup = dl.kz_tuple(cfg, length=s + 1)
    for verify in (dl.verify_dwork_ratio, dl.verify_det_congruence):
        rep = verify(tup, s, points=pts)
        assert rep.claimed_valuation == s
        assert rep.observed_min_valuation == s


@pytest.mark.parametrize("theorem,expected", [("ratio", 3), ("det", 3),
                                              ("der2", 3), ("1.6i", 1)])
def test_symbolic_verdicts_are_sharp(theorem, expected):
    """At (p, N, s, g) = (3, 5, 3, 1) the symbolic verdicts reach exactly
    the claimed exponent.  Their matrices are read off factored forms, so a
    wrong term in that read lowers the observed valuation."""
    ctx, cfg = _kz(3, 5, 1)
    tup = dl.kz_tuple(cfg, length=4)
    verify = {
        "ratio": dl.verify_dwork_ratio,
        "det": dl.verify_det_congruence,
        "der2": lambda t, s: dl.verify_second_derivative_congruence(
            t, s, u=1, v=1),
        "1.6i": dl.verify_frobenius_factorization,
    }[theorem]
    rep = verify(tup, 3)
    assert rep.claimed_valuation == expected
    assert rep.observed_min_valuation == rep.claimed_valuation


def test_frame_checks_are_sharp_pointwise():
    """The pointwise KZ residual and frame congruence at p = 5, N = 5,
    s = 3, g = 2 over F_25 points reach exactly the claimed exponent 3."""
    ctx, cfg = _kz(5, 5, 2, 2)
    pts = _points(5, 2, 2, 4, 0, ctx)
    for rep in (dl.kz_residual(cfg, 3, points=pts),
                dl.verify_solution_congruence(cfg, 3, points=pts)):
        assert rep.claimed_valuation == 3
        assert rep.observed_min_valuation == rep.claimed_valuation


@pytest.mark.parametrize("theorem,claimed", [("der", 4), ("der2", 3),
                                             ("1.6i", 1)])
def test_derivative_and_factorization_are_sharp_pointwise(theorem, claimed):
    """At p = 5, N = 5, s = 3, g = 2 over four F_25 points the pointwise
    derivative congruence (twist m = 1), the second-derivative congruence
    and the factorization mod p reach exactly their claimed exponents."""
    ctx, cfg = _kz(5, 5, 2, 2)
    pts = _points(5, 2, 2, 4, 0, ctx)
    tup = dl.kz_tuple(cfg, length=4)
    rep = {
        "der": lambda: dl.verify_derivative_congruence(
            tup, 3, m=1, v=1, points=pts),
        "der2": lambda: dl.verify_second_derivative_congruence(
            tup, 3, u=1, v=1, points=pts),
        "1.6i": lambda: dl.verify_frobenius_factorization(
            tup, 3, points=pts),
    }[theorem]()
    assert rep.claimed_valuation == claimed
    assert rep.observed_min_valuation == claimed
