import math

import pytest

import dworklab as dl
from dworklab import ringmat
from dworklab.errors import NotFactored, SingularModP
from dworklab.hasse_witt import (
    DenseCache,
    PointKit,
    SymbolicKit,
    _coeffs_at,
    _rows,
    hw_indices,
    hw_inverse_at,
    hw_second_derivative_at,
)
from dworklab.laurent import LaurentPoly
from conftest import seeded
from oracles import (
    expanded_past_the_base_rule,
    hw_eval,
    is_expanded,
    leading_term_lex,
    oracle_expand_factors,
    rand,
    z_var,
)


def kz_setup(p, N, g, m=1):
    ctx = dl.ctx_new(p, N, m)
    cfg = dl.KZConfig(ctx, g)
    return ctx, cfg, dl.master_polynomial(cfg, 1)


def test_symbolic_examples():
    ctx, cfg, F = kz_setup(3, 2, 1)
    one = LaurentPoly.one(ctx, 1, 3)
    zero_matrix = dl.hw_matrix(1, one, cfg.delta)
    assert all(e.is_zero() for row in zero_matrix for e in row)
    A = dl.hw_matrix(1, F, cfg.delta)
    zs = [z_var(ctx, 0, 3, i) for i in (1, 2, 3)]
    assert A[0][0] == -(zs[0] + zs[1] + zs[2])


def test_point_examples():
    ctx, cfg, F = kz_setup(3, 2, 1)
    A = dl.hw_matrix_at(1, F, cfg.delta, [0, 1, 3])
    assert A == [[5]]
    A2 = dl.hw_matrix_at(1, F, cfg.delta, [0, 1, 2])
    assert A2 == [[6]]
    assert ctx.val(A2[0][0]) == 1
    one = LaurentPoly.one(ctx, 1, 3)
    Z = dl.hw_matrix_at(3, one, cfg.delta, [0, 1, 2])
    assert Z == [[0]]


def test_point_symbolic_consistency():
    rng = seeded(17)
    for p, g, m, level in [(3, 1, 1, 1), (5, 2, 1, 1), (3, 1, 2, 1),
                           (5, 1, 2, 1), (3, 1, 2, 2)]:
        ctx, cfg, _ = kz_setup(p, 3, g, m)
        F = dl.master_polynomial(cfg, level)
        sym = dl.hw_matrix(level, F, cfg.delta)
        for _ in range(10):
            a = [rand(ctx, rng) for _ in range(cfg.n)]
            via_sym = hw_eval(sym, a)
            direct = dl.hw_matrix_at(level, F, cfg.delta, a)
            assert via_sym == direct


@pytest.mark.parametrize("p,N,g,m,level", [(3, 4, 1, 1, 2), (3, 3, 1, 2, 2),
                                           (5, 2, 2, 1, 1)])
def test_hw_matrix_reads_factored_form_without_expanding(p, N, g, m, level):
    ctx, cfg, _ = kz_setup(p, N, g, m)
    W = dl.master_polynomial(cfg, level)
    A = dl.hw_matrix(level, W, cfg.delta)
    assert not is_expanded(W)
    ref = LaurentPoly(ctx, 1, cfg.n, oracle_expand_factors(
        p, N, m, ctx.modulus, cfg.n, W.factored))
    assert A == dl.hw_matrix(level, ref, cfg.delta)


def leading_term_expected(p, g, u, v):
    e = (p - 1) // 2
    n = 2 * g + 1
    exp = [0] * n
    for i in range(1, 2 * g + 1 - 2 * v + 1):
        exp[i - 1] = e
    if v >= u:
        exp[2 * g + 1 - 2 * v - 1] -= v - u
        b = math.comb(e, v - u)
    else:
        exp[2 * g + 2 - 2 * v - 1] += u - v
        b = math.comb(e, u - v)
    return tuple(exp), b


@pytest.mark.parametrize("p,g", [(5, 2), (7, 2)])
def test_entry_leading_terms(p, g):
    ctx, cfg, F = kz_setup(p, 1, g)
    A = dl.hw_matrix(1, F, cfg.delta)
    for u in range(1, g + 1):
        for v in range(1, g + 1):
            coeff, key = leading_term_lex(A[u - 1][v - 1])
            exp, b = leading_term_expected(p, g, u, v)
            assert key == exp
            assert coeff % p in (b % p, (-b) % p)


@pytest.mark.parametrize("p,g", [(3, 1), (5, 2), (7, 2)])
def test_det_leading_term_and_homogeneity(p, g):
    ctx, cfg, F = kz_setup(p, 1, g)
    A = dl.hw_matrix(1, F, cfg.delta)
    det = dl.hw_det(ringmat.poly_ring(ctx, 0, cfg.n), A)
    assert not det.is_zero()
    c, key = leading_term_lex(det)
    e = (p - 1) // 2
    exp = [0] * cfg.n
    for v in range(1, g + 1):
        for i in range(1, 2 * g + 1 - 2 * v + 1):
            exp[i - 1] += e
    assert key == tuple(exp)
    assert c in (1, p - 1)  # product of the +-1 diagonal leading coefficients
    d = (p - 1) * g * g // 2
    assert {sum(k) for k in det.terms} == {d}


def test_det_scalar_form():
    ctx, cfg, F = kz_setup(3, 2, 1)
    A = dl.hw_matrix_at(1, F, cfg.delta, [0, 1, 3])
    assert dl.hw_det(ringmat.scalar_ring(ctx), A) == 5


def test_inverse_examples():
    ctx, cfg, F = kz_setup(3, 2, 1)
    assert hw_inverse_at(ctx, [[1]]) == [[1]]
    A = dl.hw_matrix_at(1, F, cfg.delta, [0, 1, 3])  # entry 5
    assert hw_inverse_at(ctx, A) == [[2]]
    with pytest.raises(SingularModP):
        hw_inverse_at(ctx, [[3]])


def test_inverse_random_matrices():
    """A unit determinant gives a two-sided inverse; any other raises
    SingularModP in mat_inv_scalar itself."""
    for m in (1, 2):
        _check_random_inverses(dl.ctx_new(5, 3, m), seeded(23 + m))


def _check_random_inverses(ctx, rng):
    ring = ringmat.scalar_ring(ctx)
    units = singular = 0
    while units < 100 or singular < 20:
        g = rng.randint(1, 3)
        M = [[rand(ctx, rng) for _ in range(g)] for _ in range(g)]
        if rng.random() < 0.3:  # row i = c row j + p row i: det = 0 mod p
            i, j = rng.randrange(g), rng.randrange(g)
            c = rand(ctx, rng) if i != j else ctx.zero()
            M[i] = [ctx.add(ctx.mul(c, y), ctx.scal_int(x, ctx.p))
                    for x, y in zip(M[i], M[j])]
        if ctx.is_unit(ringmat.det(ring, M)):
            units += 1
            inv = ringmat.mat_inv_scalar(ctx, M)
            assert ringmat.mat_mul(ring, M, inv) == ringmat.identity(ring, g)
            assert ringmat.mat_mul(ring, inv, M) == ringmat.identity(ring, g)
        else:
            singular += 1
            with pytest.raises(SingularModP):
                ringmat.mat_inv_scalar(ctx, M)


def test_derivative_at_examples():
    ctx, cfg, F = kz_setup(3, 2, 1)
    got = dl.hw_derivative_at(1, F, cfg.delta, [0, 1, 3], 1, DenseCache())
    assert got == [[8]]  # -1 mod 9: d/dz1 of -(z1+z2+z3)
    # multiplicity congruent to zero modulo p^N kills the matrix
    ctx9 = dl.ctx_new(3, 2, 1)
    cfg9 = dl.KZConfig(ctx9, 1)
    F9 = dl.master_polynomial(cfg9, 1) ** 9  # multiplicities 9 = 0 mod 9
    Z = dl.hw_derivative_at(1, F9, cfg9.delta, [0, 1, 3], 1, DenseCache())
    assert Z == [[0]]
    expanded = LaurentPoly(ctx, 1, 3, dict(F.terms))
    with pytest.raises(NotFactored):
        dl.hw_derivative_at(1, expanded, cfg.delta, [0, 1, 3], 1,
                            DenseCache())


@pytest.mark.parametrize("p,g,s", [(3, 1, 1), (3, 1, 2), (5, 2, 1)])
def test_derivative_matches_symbolic(p, g, s):
    ctx = dl.ctx_new(p, 4, 1)
    cfg = dl.KZConfig(ctx, g)
    phi = dl.master_polynomial(cfg, s)
    kit = SymbolicKit(ctx, cfg.delta, cfg.n)
    rng = seeded(29)
    for v in range(1, cfg.n + 1):
        dsym = kit.dA(s, phi, v)
        for _ in range(8):
            a = [rand(ctx, rng) for _ in range(cfg.n)]
            direct = dl.hw_derivative_at(s, phi, cfg.delta, a, v,
                                         DenseCache())
            assert hw_eval(dsym, a) == direct
            assert PointKit(ctx, cfg.delta, a).dA(s, phi, v) == direct


def test_second_derivative_matches_symbolic():
    ctx = dl.ctx_new(3, 3, 1)
    cfg = dl.KZConfig(ctx, 1)
    for s in (1, 2):
        phi = dl.master_polynomial(cfg, s)
        kit = SymbolicKit(ctx, cfg.delta, cfg.n)
        rng = seeded(31)
        for (u, v) in [(1, 2), (2, 2), (1, 1), (3, 1)]:
            dsym = kit.d2A(s, phi, u, v)
            for _ in range(10):
                a = [rand(ctx, rng) for _ in range(cfg.n)]
                direct = hw_second_derivative_at(s, phi, cfg.delta, a, u, v,
                                                 DenseCache())
                assert hw_eval(dsym, a) == direct
                assert PointKit(ctx, cfg.delta, a).d2A(s, phi, u, v) == direct


def _cache_forms(ctx, g):
    """Factored forms: a KZ master polynomial with odd multiplicity (p = 3,
    7) or even (p = 5), and a form with mixed multiplicities."""
    cfg = dl.KZConfig(ctx, g)
    s = {3: 3, 5: 2, 7: 3}[ctx.p]
    mixed = LaurentPoly.from_factors(ctx, 3, [(1, 37), (2, 50), (3, 5)])
    return [(dl.master_polynomial(cfg, s), cfg.delta, cfg.n),
            (mixed, (1, 2), 3)]


@pytest.mark.parametrize("p,N,m,g", [(7, 4, 1, 2), (5, 3, 2, 2), (3, 3, 3, 1)])
def test_cache_entries_and_expansion_in_either_order(p, N, m, g):
    """A factored form is read as windows of c L^b, before and after a read
    of its quotients: A at every level whose indices fall inside, at and
    past the degree, and ``coeffs`` below 0, inside and past the degree,
    agree with the direct expansion either way.  Two points on one cache
    keep their own windows, no power of L past the base rule is expanded,
    and no factored key enters the expansion memo."""
    ctx = dl.ctx_new(p, N, m)
    rng = seeded(97 * p + m)
    for F, delta, n in _cache_forms(ctx, g):
        points = [tuple(rand(ctx, rng) for _ in range(n)) for _ in range(2)]
        direct = {(level, a): dl.hw_matrix_at(level, F, delta, a)
                  for level in (1, 2, 3, 4) for a in points}
        cache = DenseCache()
        for _ in range(2):  # the second pass reads the stored windows
            for (level, a), want in direct.items():
                assert _rows(cache.quotient_coeffs(F, a, hw_indices(
                    p, level, delta)), len(delta)) == want
        assert {roots for _, roots, _ in cache._windows} >= {
            tuple(r for r, _ in F.roots_at(a)) for a in points}
        assert expanded_past_the_base_rule(cache) == []
        assert not cache._store
        for a in points:
            off, full = F.dense_t(a)
            indices = list(range(-3, off + len(full) + 3))
            want = _coeffs_at(ctx, off, full, indices)
            kit = PointKit(ctx, delta, a)
            for _ in range(2):  # before and after a read of quotients
                assert kit.coeffs(F, indices) == want
                for level in (1, 2, 3, 4):
                    assert kit.A(level, F) == direct[level, a]
                kit.frame(F, indices[:4])
            assert expanded_past_the_base_rule(kit) == []
            assert not kit._store
