import pytest

import dworklab as dl
from dworklab import dwork, laurent, limits, ringmat
from dworklab.errors import (
    ConfigError,
    DegenerateTuple,
    IndexOutOfRange,
    InvalidParameter,
    NotAdmissible,
    PrecisionTooLow,
    SizeCapExceeded,
)
from dworklab.ghosts import AdmissibleTuple
from dworklab.hasse_witt import PointKit, SymbolicKit
from dworklab.laurent import LaurentPoly, TBox
from conftest import rand_admissible_tuple, rand_laurent, seeded
from oracles import rand, rand_unit


def kz_bits(p, N, g, length):
    ctx = dl.ctx_new(p, N, 1)
    cfg = dl.KZConfig(ctx, g)
    return ctx, cfg, dl.kz_tuple(cfg, length=length)


def ext_points(p, g, m, count, seed, N):
    ctx = dl.ctx_new(p, N, m)
    pts = dl.sample_domain_points(p, g, m, count, seed, ctx)
    return ctx, [pt.lift for pt in pts]


# -- decomposition -----------------------------------------------------------


def test_decomposition_s0_trivial():
    ctx, cfg, tup = kz_bits(3, 3, 1, 1)
    rep = dl.verify_decomposition(tup, 0)
    assert rep.passed and rep.observed_min_valuation == ctx.N


def test_decomposition_symbolic():
    ctx, cfg, tup = kz_bits(3, 4, 1, 3)
    gs = dl.ghost_sequence(tup, 2)
    for s in (1, 2):
        rep = dl.verify_decomposition(gs.tup, s)
        assert rep.passed
        assert rep.observed_min_valuation == ctx.N
        # Lemma-style ghost block divisibility, and it is sharp
        assert rep.extra["ghost_block_valuation"] == s


def test_decomposition_pointwise():
    ctx, pts = ext_points(5, 2, 2, 6, 3, N=4)
    cfg = dl.KZConfig(ctx, 2)
    tup = dl.kz_tuple(cfg, length=4)
    rep = dl.verify_decomposition(tup, 3, points=pts)
    assert rep.passed and rep.observed_min_valuation == ctx.N
    assert rep.extra["ghost_block_valuation"] == 3


def test_ghost_dense_matches_symbolic():
    ctx, cfg, tup = kz_bits(3, 4, 1, 3)
    gs = dl.ghost_sequence(tup, 2)
    rng = seeded(77)
    a = [rand(ctx, rng) for _ in range(3)]
    blocks = dwork._ghost_blocks(PointKit(ctx, tup.delta, a), tup,
                                  *dwork._ghost_plan(tup, 2))
    for s in range(3):
        assert blocks[s] == dl.hw_matrix_at(s + 1, gs.V[s], tup.delta, a)


def test_ghost_blocks_match_the_full_ghosts():
    """The slice recursion against A(j+1, V_j) of the expanded ghosts, for
    random tuples (unfactored, some Laurent in t and z) and kz tuples:
    symbolically, and at a unit point against V_j evaluated there."""
    rng = seeded(91)
    tuples = [rand_admissible_tuple(rng) for _ in range(20)]
    tuples += [kz_bits(3, N, 1, N)[2] for N in (3, 4)]
    assert any(lam.factored is None and lam.newton_box().lo[0] < 0
               for tup in tuples for lam in tup.lams)
    for tup in tuples:
        ctx, l, n = tup.ctx, len(tup.lams) - 1, tup.lam(0).n
        gs = dl.ghost_sequence(tup, l)
        a = [rand_unit(ctx, rng) for _ in range(n)]
        plan = dwork._ghost_plan(tup, l)
        sym = dwork._ghost_blocks(SymbolicKit(ctx, tup.delta, n), tup, *plan)
        at = dwork._ghost_blocks(PointKit(ctx, tup.delta, a), tup, *plan)
        for j in range(l + 1):
            assert sym[j] == dl.hw_matrix(j + 1, gs.V[j], tup.delta)
            assert at[j] == dl.hw_matrix_at(j + 1, gs.V[j], tup.delta, a)


def test_decomposition_plans_the_ghost_recursion_once(monkeypatch):
    """The plan depends on the tuple and s alone: four points, one plan."""
    ctx, pts = ext_points(5, 2, 2, 4, 3, N=5)
    tup = dl.kz_tuple(dl.KZConfig(ctx, 2), length=4)
    calls = []

    def counted(*args, real=dwork._ghost_plan):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dwork, "_ghost_plan", counted)
    rep = dl.verify_decomposition(tup, 3, points=pts)
    assert rep.passed and rep.points == 4
    assert calls == [(tup, 3)]


def test_decomposition_needs_precision_for_the_ghosts():
    ctx, pts = ext_points(3, 1, 2, 2, 5, N=2)
    tup = dl.kz_tuple(dl.KZConfig(ctx, 1), length=4)
    for points in (None, pts):
        with pytest.raises(PrecisionTooLow):
            dl.verify_decomposition(tup, 3, points=points)


# -- factorization mod p ------------------------------------------------------


def test_factorization_symbolic_and_trivial():
    ctx, cfg, tup = kz_bits(3, 4, 1, 3)
    rep0 = dl.verify_frobenius_factorization(tup, 0)
    assert rep0.passed and rep0.observed_min_valuation == ctx.N
    rep = dl.verify_frobenius_factorization(tup, 2)
    assert rep.passed and rep.observed_min_valuation >= 1
    ones = AdmissibleTuple(
        [LaurentPoly.one(ctx, 1, 1)] * 3, (0,), periodic=False
    )
    repo = dl.verify_frobenius_factorization(ones, 2)
    assert repo.passed


def test_factorization_pointwise():
    ctx, pts = ext_points(7, 2, 2, 4, 5, N=4)
    cfg = dl.KZConfig(ctx, 2)
    tup = dl.kz_tuple(cfg, length=4)
    rep = dl.verify_frobenius_factorization(tup, 3, points=pts)
    assert rep.passed


# -- ratio and determinant congruences ----------------------------------------


def test_ratio_s1_equals_factorization_statement():
    ctx, cfg, tup = kz_bits(3, 3, 1, 2)
    r1 = dl.verify_dwork_ratio(tup, 1)
    f1 = dl.verify_frobenius_factorization(tup, 1)
    assert r1.passed and f1.passed
    assert r1.claimed_valuation == 1 == f1.claimed_valuation


def test_ratio_symbolic_and_points_coherent():
    ctx, cfg, tup = kz_bits(3, 4, 1, 3)
    rep = dl.verify_dwork_ratio(tup, 2)
    assert rep.passed and rep.observed_min_valuation >= 2
    rng = seeded(15)
    pts = [[rand_unit(ctx, rng) for _ in range(3)] for _ in range(20)]
    good = [
        a for a in pts
        if ctx.is_unit(dl.hw_det(ringmat.scalar_ring(ctx), dl.hw_matrix_at(
            1, dl.master_polynomial(cfg, 1), cfg.delta, a)))
    ]
    rep_pw = dl.verify_dwork_ratio(tup, 2, points=good)
    # pointwise evaluations inherit at least the symbolic valuation
    assert rep_pw.observed_min_valuation >= rep.observed_min_valuation


def test_symbolic_ratio_packs_its_twisted_product(monkeypatch):
    """At (p, N, s, g) = (3, 5, 3, 1) the symbolic ratio multiplies a
    15-term Frobenius-twisted determinant by a 678-term entry; its box is
    dense enough that the product goes through Kronecker substitution."""
    tup = kz_bits(3, 5, 1, 4)[2]
    shapes = []

    def spy(ctx, a, b, real=laurent._packed_convolve):
        out = real(ctx, a, b)
        shapes.append((len(a), len(b), out is not None))
        return out

    monkeypatch.setattr(laurent, "_packed_convolve", spy)
    assert dl.verify_dwork_ratio(tup, 3).passed
    assert (15, 678, True) in shapes


def test_det_congruence():
    ctx, cfg, tup = kz_bits(3, 4, 1, 3)
    rep = dl.verify_det_congruence(tup, 2)
    assert rep.passed and rep.observed_min_valuation >= 2
    # for g = 1 the determinant form is the ratio itself
    r = dl.verify_dwork_ratio(tup, 2)
    assert r.observed_min_valuation == rep.observed_min_valuation


def test_ratio_monotone_in_s():
    ctx, pts = ext_points(3, 1, 2, 5, 9, N=6)
    cfg = dl.KZConfig(ctx, 1)
    tup = dl.kz_tuple(cfg, length=5)
    vals = []
    for s in (1, 2, 3, 4):
        rep = dl.verify_dwork_ratio(tup, s, points=pts)
        assert rep.passed
        vals.append(rep.observed_min_valuation)
    assert vals == sorted(vals)


INVERTING = [dl.verify_dwork_ratio, dl.verify_det_congruence,
             dl.verify_derivative_congruence,
             dl.verify_second_derivative_congruence]


def test_degenerate_tuple_detected():
    ctx = dl.ctx_new(3, 3, 1)
    # t + z1 has A(1, .) entry Cf_2 = 0: degenerate for Delta = {1}
    lam = LaurentPoly(ctx, 1, 1, {(1, 0): 1, (0, 1): 1})
    tup = AdmissibleTuple([lam, lam], (1,), periodic=False)
    assert tup.certificate.ok
    for verify in INVERTING:
        for points in (None, [(1,), (2,)]):
            with pytest.raises(DegenerateTuple, match="has valuation 3"):
                verify(tup, 1, points=points)


@pytest.mark.parametrize("verify", INVERTING, ids=lambda f: f.__name__)
def test_a_degenerate_first_member_is_refused_in_both_modes(verify):
    """Only det A(1, L_0) vanishes: ratio and det clear by det Y =
    det A(1, W_0), which the statement certifies, so no point passes
    vacuously with X = Y = 0."""
    ctx = dl.ctx_new(3, 4, 1)
    l0 = LaurentPoly(ctx, 1, 1, {(1, 0): 1, (0, 1): 1})  # t + z1
    l1 = LaurentPoly(ctx, 1, 1, {(2, 0): 1, (1, 1): 1, (0, 0): 1})
    tup = AdmissibleTuple([l0, l1, l1], (1,), periodic=False)
    assert tup.certificate.ok
    for points in (None, [(1,), (2,), (4,)]):
        with pytest.raises(DegenerateTuple, match="has valuation 4"):
            verify(tup, 1, points=points)


@pytest.mark.parametrize("verify", [
    dl.verify_decomposition, dl.verify_frobenius_factorization,
    dl.verify_dwork_ratio, dl.verify_det_congruence,
    dl.verify_derivative_congruence, dl.verify_second_derivative_congruence,
], ids=lambda f: f.__name__)
def test_non_admissible_tuples_are_refused_in_both_modes(verify):
    """F = t^5 + z_1 has the t-box [0, 5], whose certificate fails at
    q = 2 for Delta = {1}; no verifier may scan such a tuple."""
    ctx = dl.ctx_new(3, 4)
    F = LaurentPoly(ctx, 1, 1, {(5, 0): 1, (0, 1): 1})
    tup = AdmissibleTuple([F] * 3, (1,))
    assert not tup.certificate.ok
    for points in (None, [(2,)]):
        with pytest.raises(NotAdmissible):
            verify(tup, 1, points=points)


@pytest.mark.parametrize("points", [None, [(2, 3, 4)]],
                         ids=["symbolic", "pointwise"])
@pytest.mark.parametrize("verify", [
    dl.verify_decomposition, dl.verify_frobenius_factorization,
    dl.verify_dwork_ratio, dl.verify_det_congruence,
    dl.verify_derivative_congruence, dl.verify_second_derivative_congruence,
], ids=lambda f: f.__name__)
def test_a_tuple_without_L_s_is_refused_before_the_mode(verify, points):
    """Every verifier checks for a member L_s with its other checks, so a
    too-short tuple raises IndexOutOfRange whatever the mode."""
    ctx, cfg, tup = kz_bits(3, 4, 1, 2)
    with pytest.raises(IndexOutOfRange):
        verify(tup, 2, points=points)


def test_symbolic_gate_raises():
    ctx = dl.ctx_new(5, 4, 1)
    cfg = dl.KZConfig(ctx, 2)
    tup = dl.kz_tuple(cfg, length=3)
    with pytest.raises(SizeCapExceeded):
        dl.verify_dwork_ratio(tup, 2)


def _charged(kit_log, verify, tup, s):
    """The symbolic report of verify(tup, s), which must pass, and the terms
    its kit charged."""
    rep = verify(tup, s)
    assert rep.passed
    return rep, [x for x in kit_log if isinstance(x, SymbolicKit)][-1].charged


def test_symbolic_gate_counts_the_entries_read(kit_log):
    """The symbolic kit charges the compositions its reads form: at p = 3,
    s = 4 these are 9,330 for the ratio (the full W_4 would be 122^3 terms)
    and 18,102 for the ghost decomposition, which adds the slice reads of
    its recursion.  At s = 5 decomp charges 160,179, within
    SYMBOLIC_READ_CAP, and passes, and so do the ratio, det, der2 and 1.6i;
    at p = 7, g = 2, s = 1 every verifier's reads pass the cap."""
    ctx = dl.ctx_new(3, 6, 1)
    tup = dl.kz_tuple(dl.KZConfig(ctx, 1), length=6)
    assert _charged(kit_log, dl.verify_dwork_ratio, tup, 4)[1] == 9_330
    rep, charged = _charged(kit_log, dl.verify_decomposition, tup, 4)
    assert charged == 18_102 and rep.extra["ghost_block_valuation"] == 4
    tup7 = dl.kz_tuple(dl.KZConfig(dl.ctx_new(3, 7, 1), 1), length=6)
    assert _charged(kit_log, dl.verify_decomposition, tup7, 5)[1] == 160_179
    for verify in (dl.verify_dwork_ratio, dl.verify_det_congruence,
                   dl.verify_second_derivative_congruence,
                   dl.verify_frobenius_factorization):
        _charged(kit_log, verify, tup7, 5)
    big = dl.kz_tuple(dl.KZConfig(dl.ctx_new(7, 3, 1), 2), length=2)
    for verify in (dl.verify_decomposition, dl.verify_frobenius_factorization,
                   dl.verify_dwork_ratio, dl.verify_det_congruence,
                   dl.verify_derivative_congruence,
                   dl.verify_second_derivative_congruence):
        with pytest.raises(SizeCapExceeded):
            verify(big, 1)


def test_symbolic_gate_passes_on_either_bound(kit_log):
    """The charge is what the reads form, whatever the size of the full
    expansion: at p = 11, g = 3, s = 0 the full W_0 has 6^7 = 279,936
    compositions, and decomp reads 153,610 of them."""
    ctx = dl.ctx_new(11, 2, 1)
    tup = dl.kz_tuple(dl.KZConfig(ctx, 3), length=1)
    rep, charged = _charged(kit_log, dl.verify_decomposition, tup, 0)
    assert charged == 153_610 and rep.observed_min_valuation == ctx.N


# -- derivative congruences ---------------------------------------------------


def test_derivative_symbolic():
    ctx, cfg, tup = kz_bits(3, 4, 1, 3)
    rep = dl.verify_derivative_congruence(tup, 2, m=0, v=1)
    assert rep.passed and rep.observed_min_valuation >= 2
    rep1 = dl.verify_derivative_congruence(tup, 1, m=1, v=2)
    assert rep1.passed and rep1.claimed_valuation == 2


def test_derivative_pointwise_with_twist():
    ctx, pts = ext_points(3, 1, 2, 5, 21, N=4)
    cfg = dl.KZConfig(ctx, 1)
    tup = dl.kz_tuple(cfg, length=3)
    rep = dl.verify_derivative_congruence(
        tup, 1, m=1, v=2, points=pts)
    assert rep.passed and rep.observed_min_valuation >= 2


def test_derivative_constant_tuple_zero():
    ctx = dl.ctx_new(3, 3, 1)
    lam = LaurentPoly.const(ctx, 1, 2, 2)
    tup = AdmissibleTuple([lam] * 3, (0,), periodic=False)
    for m in (0, 1):
        rep = dl.verify_derivative_congruence(tup, 2, m=m, v=1)
        assert rep.passed and rep.observed_min_valuation == ctx.N
    rep2 = dl.verify_second_derivative_congruence(tup, 2, u=1, v=2)
    assert rep2.passed and rep2.observed_min_valuation == ctx.N
    # claims beyond the working precision are rejected, not faked
    from dworklab.errors import PrecisionTooLow

    with pytest.raises(PrecisionTooLow):
        dl.verify_derivative_congruence(tup, 2, m=3, v=1)


def test_periodic_tuple_matches_finite():
    ctx = dl.ctx_new(3, 4, 1)
    cfg = dl.KZConfig(ctx, 1)
    fin = dl.kz_tuple(cfg, length=3)
    per = dl.kz_tuple(cfg)  # infinite constant pattern
    assert per.periodic and per.certificate.ok and per.certificate.complete
    r1 = dl.verify_dwork_ratio(fin, 2)
    r2 = dl.verify_dwork_ratio(per, 2)
    assert r1.observed_min_valuation == r2.observed_min_valuation
    assert per.W(4, 2).factored == \
        dl.master_polynomial(cfg, 3).factored


def test_second_derivative():
    ctx, cfg, tup = kz_bits(3, 4, 1, 3)
    rep = dl.verify_second_derivative_congruence(
        tup, 2, u=1, v=2)
    assert rep.passed and rep.observed_min_valuation >= 2
    ctx2, pts = ext_points(3, 1, 2, 5, 23, N=3)
    cfg2 = dl.KZConfig(ctx2, 1)
    tup2 = dl.kz_tuple(cfg2, length=2)
    for (u, v) in [(1, 1), (1, 2), (3, 3)]:
        rep = dl.verify_second_derivative_congruence(
            tup2, 1, u=u, v=v, points=pts)
        assert rep.passed


def test_second_derivative_diagonal_matches_symbolic():
    from dworklab.hasse_witt import DenseCache, hw_second_derivative_at
    from oracles import hw_eval

    ctx = dl.ctx_new(3, 3, 1)
    cfg = dl.KZConfig(ctx, 1)
    rng = seeded(25)
    for s in (1, 2):
        phi = dl.master_polynomial(cfg, s)
        kit = SymbolicKit(ctx, cfg.delta, cfg.n)
        dsyms = {u: kit.d2A(s, phi, u, u) for u in (1, 2, 3)}
        for _ in range(20):
            a = [rand(ctx, rng) for _ in range(3)]
            at = PointKit(ctx, cfg.delta, a)
            for u in range(1, 4):
                direct = hw_second_derivative_at(s, phi, cfg.delta, a, u, u,
                                                 DenseCache())
                assert direct == hw_eval(dsyms[u], a) == at.d2A(s, phi, u, u)


# -- structural identities ----------------------------------------------------


def poly_matrix_inverse(ctx, ring, A, n):
    """Inverse of a polynomial matrix whose determinant is a unit constant
    plus p-divisible terms (p-nilpotency makes the series finite)."""
    det = ringmat.det(ring, A)
    const = det.terms.get((0,) * n, ctx.zero())
    c_inv = ctx.inv(const)
    rest = det - LaurentPoly.const(ctx, 0, n, const)
    e = rest.cmul(ctx.neg(c_inv))  # det = const (1 - e)
    inv_det = LaurentPoly.one(ctx, 0, n)
    power = LaurentPoly.one(ctx, 0, n)
    for _ in range(1, ctx.N):
        power = power * e
        if power.is_zero():
            break
        inv_det = inv_det + power
    inv_det = inv_det.cmul(c_inv)
    adj = ringmat.adjugate(ring, A)
    return [[entry * inv_det for entry in row] for row in adj]


def test_matrix_calculus_identity_exact():
    # D_u(D_v A . A^-1) = D_u D_v A . A^-1 - (D_v A . A^-1)(D_u A . A^-1)
    ctx = dl.ctx_new(3, 3, 1)
    ring = ringmat.poly_ring(ctx, 0, 2)
    rng = seeded(37)
    for _ in range(5):
        g = 2
        while True:
            C = [[rand(ctx, rng) for _ in range(g)] for _ in range(g)]
            if ctx.is_unit(ringmat.det(ringmat.scalar_ring(ctx), C)):
                break
        A = [
            [
                LaurentPoly.const(ctx, 0, 2, C[i][j])
                + rand_laurent(rng, ctx, 0, 2, 0, 0, 3).cmul(3)
                for j in range(g)
            ]
            for i in range(g)
        ]
        Ainv = poly_matrix_inverse(ctx, ring, A, 2)
        assert ringmat.mat_mul(ring, A, Ainv) == ringmat.identity(ring, g)
        for (u, v) in [(1, 2), (2, 2)]:
            dA_v = [[e.partial_z(v) for e in row] for row in A]
            dA_u = [[e.partial_z(u) for e in row] for row in A]
            dA_uv = [[e.partial_z(v).partial_z(u) for e in row] for row in A]
            M = ringmat.mat_mul(ring, dA_v, Ainv)
            dM = [[e.partial_z(u) for e in row] for row in M]
            rhs = ringmat.mat_sub(
                ring,
                ringmat.mat_mul(ring, dA_uv, Ainv),
                ringmat.mat_mul(
                    ring,
                    ringmat.mat_mul(ring, dA_v, Ainv),
                    ringmat.mat_mul(ring, dA_u, Ainv),
                ),
            )
            assert dM == rhs


def test_sigma_twist_scaling():
    # if D_v(F1) F2 = D_v(G1) G2 mod p^s then the sigma^m images differ by
    # valuation >= s + m
    ctx = dl.ctx_new(3, 5, 1)
    rng = seeded(41)
    s, m = 2, 1
    p = 3
    for _ in range(10):
        F1 = rand_laurent(rng, ctx, 0, 2, 0, 0, 4)
        F2 = rand_laurent(rng, ctx, 0, 2, 0, 0, 4)
        X = rand_laurent(rng, ctx, 0, 2, 0, 0, 3)
        Y = rand_laurent(rng, ctx, 0, 2, 0, 0, 3)
        G1 = F1 + X.cmul(p**s)
        G2 = F2 + Y.cmul(p**s)
        v = 1
        base = F1.partial_z(v) * F2 - G1.partial_z(v) * G2
        assert base.is_zero() or base.valuation() >= s
        zfac = LaurentPoly(ctx, 0, 2, {(p**m - 1, 0): ctx.from_int(p**m)})
        # chain rule: D_v(sigma^m H) = p^m z_v^(p^m - 1) sigma^m(D_v H)
        assert F1.frobenius_sub(m).partial_z(v) == \
            zfac * F1.partial_z(v).frobenius_sub(m)
        twisted = (
            F1.frobenius_sub(m).partial_z(v) * F2.frobenius_sub(m)
            - G1.frobenius_sub(m).partial_z(v) * G2.frobenius_sub(m)
        )
        assert twisted == zfac * base.frobenius_sub(m)
        assert twisted.is_zero() or twisted.valuation() >= s + m


def test_report_shape():
    ctx, cfg, tup = kz_bits(3, 3, 1, 2)
    rep = dl.verify_dwork_ratio(tup, 1)
    doc = rep.to_json()
    assert doc["theorem_id"] == "ratio"
    assert doc["verdict"] == "pass"
    assert doc["claimed_valuation"] == 1
    assert "description" in doc and "config" in doc


def test_user_parameter_checks_raise_invalid_parameter():
    """Out-of-range user parameters are configuration errors that remain
    ValueErrors for existing callers."""
    assert issubclass(InvalidParameter, ConfigError)
    assert issubclass(InvalidParameter, ValueError)
    ctx = dl.ctx_new(3, 3, 1)
    cfg = dl.KZConfig(ctx, 1)
    tup = dl.kz_tuple(cfg, length=2)
    cfg32 = dl.KZConfig(dl.ctx_new(3, 3, 2), 1)
    pt = dl.sample_domain_points(3, 1, 2, 1, 0, cfg32.ctx)[0]
    checks = [
        lambda: dl.ctx_new(3, 0),
        lambda: dl.ctx_new(3, 2, 0),
        lambda: dl.KZConfig(ctx, 0),
        lambda: dl.KZConfig(ctx, 2),
        lambda: dl.master_polynomial(cfg, 0),
        lambda: dl.verify_dwork_ratio(tup, 0),
        lambda: dl.verify_det_congruence(tup, 0),
        lambda: dl.verify_derivative_congruence(tup, 0),
        lambda: dl.verify_second_derivative_congruence(tup, 0),
        lambda: dl.verify_decomposition(tup, -1),
        lambda: dl.verify_frobenius_factorization(tup, -1),
        lambda: dl.verify_derivative_congruence(tup, 1, m=-1),
        lambda: dl.verify_derivative_congruence(
            tup, 1, m=-1, points=[(1, 2, 4)]),
        lambda: AdmissibleTuple((), (1,)),
        lambda: dl.limit_frames(cfg32, pt, 3,
                                PointKit(cfg32.ctx, cfg32.delta, pt.lift)),
        lambda: AdmissibleTuple(tup.lams, ()),
        lambda: dl.check_admissible([TBox((0,), (1,))] * 2, (1,), p=3,
                                    periodic=True, depth=0),
    ]
    # a malformed point: m-tuple coordinates over m = 1, or no lift at all
    cfg5 = dl.KZConfig(dl.ctx_new(5, 4, 1), 1)
    tup5 = dl.kz_tuple(cfg5, length=3)
    bad = [((1, 0), (2, 0), (3, 0))]
    checks += [
        lambda: dl.verify_dwork_ratio(tup5, 1, points=bad),
        lambda: dl.verify_decomposition(tup5, 1, points=bad),
        lambda: dl.kz_residual(cfg5, 1, points=bad),
    ]
    for check in checks:
        with pytest.raises(InvalidParameter):
            check()
    # an unlifted point is refused under its own index, not as point 0
    unlifted = next(q for q in dl.scan_domain(5, 1, 1).points if q.in_D_o)
    assert unlifted.lift is None and unlifted.index == 7
    for check in (
        lambda: dl.rank_check(cfg5, unlifted, limits._frame(cfg5, 1, PointKit(
            cfg5.ctx, cfg5.delta, unlifted.lift, unlifted.index))),
        lambda: dl.limit_report(cfg5, unlifted, 3),
    ):
        with pytest.raises(InvalidParameter, match="point 7 "):
            check()
