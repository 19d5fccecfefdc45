from functools import reduce

import pytest

import dworklab as dl
from dworklab import ringmat
from dworklab.errors import (
    DirectionOutOfRange,
    NonUnitDifference,
    NotDivisible,
    OutsideDomain,
    SizeCapExceeded,
)
from dworklab.hasse_witt import DenseCache, PointKit, SymbolicKit
from dworklab.kz import (
    _flat,
    column_sum_valuations,
    gaudin_defect,
    ps_solution_derivative,
)
from dworklab.laurent import LaurentPoly
from conftest import seeded
from oracles import (
    eval_all,
    first_row_gradient,
    gaudin,
    leading_term_lex,
    oracle_kz_derivative,
    rand,
    rand_unit,
    solution_coefficient,
)


def setup(p, N, g, m=1):
    ctx = dl.ctx_new(p, N, m)
    return ctx, dl.KZConfig(ctx, g)


def symbolic(cfg):
    return SymbolicKit(cfg.ctx, cfg.delta, cfg.n)


def test_config_guard():
    ctx = dl.ctx_new(3, 2, 1)
    with pytest.raises(ValueError):
        dl.KZConfig(ctx, 2)  # p = 3 < 2g + 1 = 5


def test_master_polynomial():
    ctx, cfg = setup(3, 2, 1)
    phi = dl.master_polynomial(cfg, 1)
    assert phi.factored == ((1, 1), (2, 1), (3, 1))
    for s in (1, 2):
        ph = dl.master_polynomial(cfg, s)
        assert ph.newton_box().hi[0] == 3 * (3**s - 1) // 2
    # telescoping Phi_s = F F^p ... F^(p^(s-1))
    F = dl.master_polynomial(cfg, 1)
    acc = F
    for k in range(1, 3):
        acc = acc * (F ** (3**k))
    assert acc.factored == dl.master_polynomial(cfg, 3).factored


def test_solutions_level1():
    ctx, cfg = setup(3, 3, 1)
    kit = symbolic(cfg)
    I = dl.ps_solutions(cfg, 1, kit)
    one = LaurentPoly.one(ctx, 0, 3)
    assert all(row == [one] for row in I)
    assert reduce(kit.ring.add, (row[0] for row in I)) == \
        LaurentPoly.const(ctx, 0, 3, 3)
    assert column_sum_valuations(kit.ring, I) == [1]
    # out-of-range column extracts zero
    assert solution_coefficient(cfg, 1, cfg.g + 1, 1).is_zero()
    rng = seeded(3)
    a = [rand(ctx, rng) for _ in range(3)]
    assert ctx.is_zero(solution_coefficient(cfg, 1, cfg.g + 1, 2,
                                            PointKit(ctx, cfg.delta, a)))


def test_gradient_relation_exact():
    """The z-gradient of the first row of A(s, Phi_s), read through each
    kit's dA, is ((1 - p^s)/2) I_s."""
    for p, g, m in [(3, 1, 1), (7, 1, 1), (5, 1, 2), (5, 2, 2)]:
        ctx, cfg = setup(p, 4, g, m)
        rng = seeded(5)
        for s in (1, 2):
            scal = ctx.from_int((1 - ctx.p**s) // 2)
            G = first_row_gradient(cfg, s)
            I = dl.ps_solutions(cfg, s, symbolic(cfg))
            assert all(
                G[i][l] == I[i][l].cmul(scal)
                for i in range(cfg.n) for l in range(cfg.g)
            )
            a = [rand(ctx, rng) for _ in range(cfg.n)]
            Ga = first_row_gradient(cfg, s, PointKit(ctx, cfg.delta, a))
            Ia = dl.ps_solutions(cfg, s, PointKit(ctx, cfg.delta, a))
            assert all(
                Ga[i][l] == ctx.mul(scal, Ia[i][l])
                for i in range(cfg.n) for l in range(cfg.g)
            )


def _derivative_oracle(ctx, cfg, s, i, a):
    return oracle_kz_derivative(a, i, cfg.exponent(s), cfg.g, ctx.p, ctx.N,
                                ctx.m, ctx.modulus)


@pytest.mark.parametrize("p,N,g,s,m", [(5, 4, 1, 2, 1), (3, 3, 1, 1, 2),
                                        (3, 4, 1, 2, 2), (5, 3, 2, 1, 2)])
def test_symbolic_frames_match_pointwise_frames(p, N, g, s, m):
    """Symbolic frames, their z-derivatives and the first-row gradient,
    evaluated at o-domain points, against the pointwise paths."""
    ctx, cfg = setup(p, N, g, m)

    def at(rows, a):
        return [[eval_all(x, [], a) for x in row] for row in rows]

    kit = symbolic(cfg)
    I = dl.ps_solutions(cfg, s, kit)
    dI = {i: ps_solution_derivative(cfg, s, i, kit)
          for i in range(1, cfg.n + 1)}
    grad = first_row_gradient(cfg, s)
    for pt in dl.sample_domain_points(p, g, m, 3, 5, ctx):
        a = pt.lift
        kit = PointKit(ctx, cfg.delta, a)
        assert at(I, a) == dl.ps_solutions(cfg, s, kit)
        for i, rows in dI.items():
            assert at(rows, a) == ps_solution_derivative(cfg, s, i, kit)
        assert at(grad, a) == first_row_gradient(cfg, s, kit)
        for ell in range(g + 2):
            sym = solution_coefficient(cfg, s, ell, 2)
            assert at([[sym]], a)[0][0] == solution_coefficient(cfg, s, ell, 2, kit)


@pytest.mark.parametrize("p,s,g", [(3, 1, 1), (3, 2, 1), (5, 2, 1),
                                   (7, 1, 1)])
def test_frame_derivative_charges_every_read_before_the_first(p, s, g,
                                                              monkeypatch):
    """The symbolic frame derivative charges all its quotient reads before
    the first: with the budget one term below the statement's total it is
    refused at once, with no coeffs_t read, and at the total it reads one
    quotient per row whose scale is nonzero mod q (at p^s = 3 the diagonal
    scale e - 1 is 0)."""
    ctx, cfg = setup(p, 4, g)
    reads = []
    real = LaurentPoly.coeffs_t
    monkeypatch.setattr(LaurentPoly, "coeffs_t",
                        lambda F, indices: reads.append(F) or real(F, indices))
    kit = SymbolicKit(ctx, cfg.delta, cfg.n)
    want = ps_solution_derivative(cfg, s, 2, kit)
    total = kit.charged
    assert len(reads) == cfg.n - (cfg.exponent(s) == 1)
    reads.clear()
    with pytest.raises(SizeCapExceeded,
                       match=f"{total} terms, past the cap of {total - 1};"):
        ps_solution_derivative(cfg, s, 2, SymbolicKit(
            ctx, cfg.delta, cfg.n, budget=total - 1))
    assert reads == []
    assert ps_solution_derivative(cfg, s, 2, SymbolicKit(
        ctx, cfg.delta, cfg.n, budget=total)) == want


def test_partial_fraction_derivative_matches_two_divisions():
    for p, g, m in [(5, 1, 1), (7, 2, 1), (5, 1, 2), (5, 2, 2)]:
        ctx, cfg = setup(p, 4, g, m)
        rng = seeded(31 * p + 7 * g + m)
        for s in (1, 2):
            for pt in dl.sample_domain_points(p, g, m, 2, rng.randrange(99), ctx):
                # any lift of an o-domain residue tuple stays in the o-domain
                a = tuple(ctx.add(x, ctx.scal_int(rand(ctx, rng), p))
                          for x in pt.lift)
                kit = PointKit(ctx, cfg.delta, a)
                for i in range(1, cfg.n + 1):
                    got = ps_solution_derivative(cfg, s, i, kit)
                    assert got == _derivative_oracle(ctx, cfg, s, i, a)


def test_derivatives_invert_nothing_and_differences_once_per_pair(
        monkeypatch):
    """Frame derivatives are windows of the base, with no inversion at all;
    ``diff_inverse``, which the KZ certificates use, inverts each difference
    once per unordered pair and certifies it."""
    ctx, cfg = setup(5, 4, 2, 2)
    (pt,) = dl.sample_domain_points(5, 2, 2, 1, 8, ctx)
    inverted = []
    real_inv = type(ctx).inv
    monkeypatch.setattr(type(ctx), "inv",
                        lambda self, x: inverted.append(x) or real_inv(self, x))
    cache = PointKit(ctx, cfg.delta, pt.lift)
    for s in (1, 2):
        for i in range(1, cfg.n + 1):
            ps_solution_derivative(cfg, s, i, cache)
    assert inverted == []
    for i in range(1, cfg.n + 1):
        for k in range(1, cfg.n + 1):
            if k != i:
                cache.diff_inverse(i, k)
    a = pt.lift
    assert sorted(inverted) == sorted(ctx.sub(a[i], a[k])
                                      for i in range(cfg.n)
                                      for k in range(i + 1, cfg.n))
    for i, k in ((4, 2), (2, 4)):
        inv = cache.diff_inverse(i, k)
        assert ctx.mul(inv, ctx.sub(a[i - 1], a[k - 1])) == ctx.one()
    # the kit certifies each difference it inverts
    b = (a[0], ctx.add(a[0], ctx.from_int(5)), *a[2:])
    for i, k in ((1, 2), (2, 1)):
        with pytest.raises(NonUnitDifference, match="z_1 - z_2 has valuation 1"):
            PointKit(ctx, cfg.delta, b).diff_inverse(i, k)


def test_derivative_at_non_unit_difference():
    # a_1 = a_2 mod p: every direction reads the same windows as at a
    # residue-distinct point; there is no inversion to fall back from
    for p, m in ((7, 1), (5, 2)):
        ctx, cfg = setup(p, 4, 2, m)
        rng = seeded(40 + m)
        (pt,) = dl.sample_domain_points(p, 2, m, 1, 3, ctx)
        a = list(pt.lift)
        a[1] = ctx.add(a[0], ctx.scal_int(rand_unit(ctx, rng), p))
        for s in (1, 2):
            for i in (1, 2, 3):
                got = ps_solution_derivative(cfg, s, i, PointKit(ctx, cfg.delta, a))
                assert got == _derivative_oracle(ctx, cfg, s, i, a)


MEMOS = ("_powers", "_digit_terms", "_windows", "_cofactor")


def test_window_reads_share_their_memo_and_reject_a_missing_factor():
    ctx, cfg = setup(5, 3, 1, 2)
    (pt,) = dl.sample_domain_points(5, 1, 2, 1, 0, ctx)
    phi = dl.master_polynomial(cfg, 1)
    cache = PointKit(ctx, cfg.delta, pt.lift)
    rows = cache.frame(phi, (4, 9))
    memo = [dict(getattr(cache, name)) for name in MEMOS]
    roots = tuple(r for r, _ in phi.roots_at(cache.point(0)))
    assert {key[1] for key in cache._powers} == {roots}
    assert len(cache._cofactor) == cfg.n  # one per row
    assert cache.frame(phi, (4, 9)) == rows
    assert [getattr(cache, name) for name in MEMOS] == memo
    # a factor (t - z_i) absent from the form divides nothing
    lacking = LaurentPoly.from_factors(ctx, cfg.n, [(1, 2), (2, 2)])
    with pytest.raises(NotDivisible):
        cache.frame(lacking, (4, 9))
    with pytest.raises(NotDivisible):
        cache.quotient_coeffs(lacking, pt.lift, (4,), [3])


def test_kz_tuple_is_periodic_unless_given_a_length():
    ctx, cfg = setup(3, 4, 1, 1)
    infinite, finite = dl.kz_tuple(cfg), dl.kz_tuple(cfg, length=3)
    assert infinite.periodic and len(infinite.lams) == 1
    assert infinite.lam(7) is infinite.lam(0)
    assert not finite.periodic and len(finite.lams) == 3
    with pytest.raises(dl.IndexOutOfRange):
        finite.lam(3)


def test_direction_indices_are_validated():
    ctx, cfg = setup(5, 4, 2, 1)
    a = [0, 1, 2, 3, 4]
    tup = dl.kz_tuple(cfg, length=3)
    phi = dl.master_polynomial(cfg, 1)
    for bad in (0, cfg.n + 1):
        with pytest.raises(DirectionOutOfRange):
            ps_solution_derivative(cfg, 1, bad, PointKit(ctx, cfg.delta, a))
        with pytest.raises(DirectionOutOfRange):
            dl.kz_residual(cfg, 1, i=bad, points=[a])
        with pytest.raises(DirectionOutOfRange):
            dl.hw_derivative_at(1, phi, cfg.delta, a, bad, DenseCache())
        with pytest.raises(DirectionOutOfRange):
            dl.verify_derivative_congruence(tup, 1, v=bad, points=[a])
        with pytest.raises(DirectionOutOfRange):
            dl.verify_second_derivative_congruence(
                tup, 1, u=bad, v=1, points=[a])
    assert issubclass(DirectionOutOfRange, dl.ConfigError)


def test_gaudin_assembly():
    ctx, cfg = setup(3, 2, 1)
    with pytest.raises(NonUnitDifference):
        gaudin(cfg, 1, [0, 1, 3])  # 0 - 3 is not a unit
    H1 = gaudin(cfg, 1, [0, 1, 2])
    # independent assembly from the exchange matrices
    def omega(i, j, n=3):
        M = [[0] * n for _ in range(n)]
        M[i - 1][i - 1] = M[j - 1][j - 1] = -1
        M[i - 1][j - 1] = M[j - 1][i - 1] = 1
        return M

    half = ctx.inv(2)
    a = [0, 1, 2]
    expect = [[0] * 3 for _ in range(3)]
    for j in (2, 3):
        c = ctx.mul(half, ctx.inv(ctx.sub(a[0], a[j - 1])))
        O = omega(1, j)
        for r in range(3):
            for s_ in range(3):
                expect[r][s_] = ctx.add(expect[r][s_],
                                        ctx.scal_int(c, O[r][s_]))
    assert H1 == expect
    # zero row sums for every H_i, and sum_i H_i = 0
    sring = ringmat.scalar_ring(ctx)
    total = None
    for i in (1, 2, 3):
        H = gaudin(cfg, i, a)
        for row in H:
            acc = ctx.zero()
            for x in row:
                acc = ctx.add(acc, x)
            assert ctx.is_zero(acc)
        total = H if total is None else ringmat.mat_add(sring, total, H)
    assert all(ctx.is_zero(x) for row in total for x in row)


@pytest.mark.parametrize("p,m,g", [(5, 1, 1), (5, 2, 1), (7, 1, 2)])
def test_gaudin_action_by_inverses_and_by_cofactors(p, m, g):
    """The one Gaudin defect with a zero dI against the matrix oracle at
    o-domain points: with scale 1 and the halved inverses (a_i - a_k)^-1 / 2
    it is -H_i I, and with scale P and the halved cofactors P/(a_i - a_k) / 2
    it is -P H_i I, P = prod_{k != i}(a_i - a_k)."""
    ctx, cfg = setup(p, 4, g, m)
    ring = ringmat.scalar_ring(ctx)
    half = (ctx.q + 1) // 2
    zero = [[ctx.zero()] * g for _ in range(cfg.n)]
    rng = seeded(p + m + g)
    for pt in dl.sample_domain_points(p, g, m, 3, 21, ctx):
        a = pt.lift
        I = [[rand(ctx, rng) for _ in range(g)] for _ in range(cfg.n)]
        for i in range(1, cfg.n + 1):
            diffs = {k: ctx.sub(a[i - 1], a[k - 1])
                     for k in range(1, cfg.n + 1) if k != i}
            inverses = {k: ctx.inv(d) for k, d in diffs.items()}
            P = reduce(ctx.mul, diffs.values())
            cofactors = {k: ctx.mul(P, inv) for k, inv in inverses.items()}
            minus_HI = ringmat.mat_mul(ring, gaudin(cfg, i, a), [
                [ctx.neg(x) for x in row] for row in I])
            assert gaudin_defect(ring, i, zero, I, ring.one, {
                k: ring.scal(half, c) for k, c in inverses.items()}) == minus_HI
            assert gaudin_defect(ring, i, zero, I, P, {
                k: ring.scal(half, c) for k, c in cofactors.items()}) == \
                ringmat.mat_scal(ring, P, minus_HI)


def test_residual_symbolic():
    ctx, cfg = setup(3, 4, 1)
    rep1 = dl.kz_residual(cfg, 1)
    assert rep1.passed
    assert rep1.extra["column_sum_valuations"] == [1]
    rep2 = dl.kz_residual(cfg, 2)
    assert rep2.passed and rep2.observed_min_valuation >= 2


def test_residual_level1_is_exactly_zero_by_hand():
    # I_1 is the all-ones frame: the Gaudin rows sum to zero and dI_1 = 0
    ctx, cfg = setup(3, 3, 1)
    rng = seeded(8)
    pts = dl.sample_domain_points(3, 1, 2, 3, 13, dl.ctx_new(3, 3, 2))
    cfg2 = dl.KZConfig(dl.ctx_new(3, 3, 2), 1)
    for pt in pts:
        I = dl.ps_solutions(cfg2, 1, PointKit(cfg2.ctx, cfg2.delta, pt.lift))
        assert all(x == cfg2.ctx.one() for row in I for x in row)
        for i in (1, 2, 3):
            H = gaudin(cfg2, i, pt.lift)
            HI = ringmat.mat_mul(ringmat.scalar_ring(cfg2.ctx), H, I)
            assert all(cfg2.ctx.is_zero(x) for row in HI for x in row)


def test_residual_pointwise():
    ctx = dl.ctx_new(5, 4, 2)
    cfg = dl.KZConfig(ctx, 2)
    pts = [pt.lift for pt in dl.sample_domain_points(5, 2, 2, 6, 17, ctx)]
    rep = dl.kz_residual(cfg, 2, points=pts)
    assert rep.passed and rep.observed_min_valuation >= 2


def test_phi_identities():
    ctx, cfg = setup(3, 2, 1)
    for s in (1, 2):
        rep = dl.verify_phi_identities(cfg, s)
        assert rep.passed
        assert rep.observed_min_valuation == ctx.N  # exact, not just mod p^s
    # first identity evaluated at points
    rng = seeded(11)
    phi = dl.master_polynomial(cfg, 1)
    e = cfg.exponent(1)
    for _ in range(100):
        a = [rand(ctx, rng) for _ in range(3)]
        tv = rand(ctx, rng)
        lhs = ctx.zero()
        for i in (1, 2, 3):
            off, co = phi.synth_div_linear(z_index=i).dense_t(a)
            acc = ctx.zero()
            for k in reversed(range(len(co))):
                acc = ctx.add(ctx.mul(acc, tv), co[k])
            lhs = ctx.add(lhs, acc)
        lhs = ctx.scal_int(lhs, e)
        offp, cop = phi.dense_t(a)
        dphi = [ctx.scal_int(c, k) for k, c in enumerate(cop)][1:]
        rhs = ctx.zero()
        for k in reversed(range(len(dphi))):
            rhs = ctx.add(ctx.mul(rhs, tv), dphi[k])
        assert lhs == rhs
    # the forms have integer coefficients, so m = 2 checks the same lists
    cfg2 = setup(3, 4, 1, m=2)[1]
    for s in (1, 2):
        assert (dl.verify_phi_identities(cfg2, s).to_json()
                == dl.verify_phi_identities(setup(3, 4, 1)[1], s).to_json())


def test_flat_read_is_the_image_of_the_terms():
    """_flat on random factored forms (uneven multiplicities, a missing
    index, a single factor) is the image of the expanded terms at t = 1,
    and each term's t-exponent is the degree minus |alpha|, so that image
    loses nothing."""
    rng = seeded(23)
    ctx = dl.ctx_new(3, 3)
    for trial in range(12):
        n = rng.randint(2, 4)
        idx = list(range(1, n + 1))
        if trial % 3 == 1:
            idx.remove(rng.choice(idx))
        elif trial % 3 == 2:
            idx = [rng.choice(idx)]
        F = LaurentPoly.from_factors(ctx, n,
                                     [(i, rng.randint(1, 6)) for i in idx])
        deg = sum(e for _, e in F.factored)
        base = max(e for _, e in F.factored) + 1 + trial % 2
        image = [0] * base**n
        for (k, *alpha), c in F.terms.items():
            assert k == deg - sum(alpha)
            image[sum(a * base**j for j, a in enumerate(alpha))] = c
        assert _flat(F, base) == image


def test_solution_congruence_symbolic_and_pointwise():
    ctx, cfg = setup(3, 4, 1)
    rep = dl.verify_solution_congruence(cfg, 1)
    assert rep.passed and rep.observed_min_valuation >= 1
    ctx2 = dl.ctx_new(3, 5, 2)
    cfg2 = dl.KZConfig(ctx2, 1)
    domain = dl.sample_domain_points(3, 1, 2, 6, 19, ctx2)
    pts = [pt.lift for pt in domain]
    for s in (1, 2, 3):
        rep = dl.verify_solution_congruence(cfg2, s, points=pts)
        assert rep.passed and rep.observed_min_valuation >= s
    # corollary at the same points: J_s = J_1 mod p, by limit_frames' gated
    # I_decay (consecutive differences >= s) and by the differences to J_1
    ring = ringmat.scalar_ring(ctx2)
    for pt in domain:
        frag = dl.limit_frames(cfg2, pt, 3,
                               PointKit(ctx2, cfg2.delta, pt.lift))
        assert frag["decay_J"] == [1, 2]
        for J in frag["J_seq"][1:]:
            diff = ringmat.mat_sub(ring, J, frag["J_seq"][0])
            assert ringmat.min_val(ring, diff) >= 1


def test_symbolic_frame_congruence_certifies_its_determinants(monkeypatch):
    """coS clears by det A(s, Phi_s) and det A(s+1, Phi_(s+1)); a symbolic
    A(s, Phi_s) planted = 0 mod p is refused, not cleared by."""
    ctx, cfg = setup(3, 4, 1)
    real = SymbolicKit.A

    def planted(kit, level, F, twist=0):
        A = real(kit, level, F, twist)
        return [[x.cmul(ctx.from_int(3)) for x in row] for row in A] \
            if level == 1 else A

    monkeypatch.setattr(SymbolicKit, "A", planted)
    with pytest.raises(OutsideDomain,
                       match=r"det A\(1, Phi_1\) has valuation 1"):
        dl.verify_solution_congruence(cfg, 1)


def test_solution_minor_leading_term():
    # the g x g minor of I_1 in rows 1, 3, ..., 2g-1: monomial pattern and
    # degree g^2 (p-1)/2 - g (g+1)/2 < d, with a unit leading coefficient
    for p, g in [(5, 2), (7, 2)]:
        ctx = dl.ctx_new(p, 2, 1)
        cfg = dl.KZConfig(ctx, g)
        I = dl.ps_solutions(cfg, 1, symbolic(cfg))
        ring = ringmat.poly_ring(ctx, 0, cfg.n)
        rows = [I[r] for r in range(0, 2 * g - 1, 2)]
        minor = ringmat.det(ring, rows)
        assert not minor.is_zero()
        c, key = leading_term_lex(minor)
        e = (p - 1) // 2
        exp = [0] * cfg.n
        for l in range(1, g + 1):
            for i in range(1, 2 * g - 2 * l + 1):
                exp[i - 1] += e
            exp[2 * g - 2 * l] += e - l
        assert key == tuple(exp)
        assert ctx.is_unit(c)
        deg = g * g * (p - 1) // 2 - g * (g + 1) // 2
        assert sum(key) == deg
        assert deg < (p - 1) * g * g // 2

