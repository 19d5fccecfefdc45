from operator import add

import pytest

import dworklab as dl
from dworklab import dense, laurent
from dworklab.errors import (
    NonUnitAtNegativeExponent,
    NotDivisible,
    NotFactored,
    SizeCapExceeded,
    UnsupportedArity,
    ZeroPolynomial,
)
from dworklab.hasse_witt import DenseCache
from dworklab.laurent import LaurentPoly, TBox, _convolve, _packed_convolve
from conftest import rand_coeff, rand_laurent, seeded
from oracles import (
    dense_linear_pow,
    oracle_dense_mul,
    oracle_div_linear,
    oracle_expand_factors,
    oracle_mul,
    coeff_t,
    eval_all,
    leading_term_lex,
    rand,
    rand_unit,
    is_expanded,
    t_var,
    z_var,
)


def C(p=3, N=2, m=1):
    return dl.ctx_new(p, N, m)


def tvar(ctx, n=0):
    return t_var(ctx, 1, n)


def zvar(ctx, i, n=3):
    return z_var(ctx, 1, n, i)


def test_mul_examples():
    ctx = C()
    t = tvar(ctx)
    tinv = LaurentPoly(ctx, 1, 0, {(-1,): 1})
    assert t * tinv == LaurentPoly.one(ctx, 1, 0)

    n = 3
    t = tvar(ctx, n)
    z1, z2 = zvar(ctx, 1), zvar(ctx, 2)
    prod = (t - z1) * (t - z2)
    expect = (t * t) - t * (z1 + z2) + z1 * z2
    assert prod == expect


def test_coeff_t4_of_square_matches_symmetric_functions():
    ctx = C(3, 2)
    n = 3
    t = tvar(ctx, n)
    zs = [zvar(ctx, i) for i in (1, 2, 3)]
    f = (t - zs[0]) * (t - zs[1]) * (t - zs[2])
    sq = f * f
    e1 = zs[0] + zs[1] + zs[2]
    e2 = zs[0] * zs[1] + zs[0] * zs[2] + zs[1] * zs[2]
    got = coeff_t(sq, 4)
    want = coeff_t(e1 * e1 + e2.cmul(2), 0)
    assert got == want
    # and against the convolution oracle
    assert sq.terms == oracle_mul(f.terms, f.terms, 3, 2)


def test_pow_examples():
    ctx = C(3, 1)
    t = tvar(ctx, 0)
    one = LaurentPoly.one(ctx, 1, 0)
    f = t - one
    assert f**0 == one
    cube = f**3
    assert cube == LaurentPoly(ctx, 1, 0, {(3,): 1, (0,): 2})  # t^3 - 1 mod 3

    ctx9 = C(3, 2)
    cfg = dl.KZConfig(ctx9, 1)
    F = dl.master_polynomial(cfg, 1)
    phi2 = dl.master_polynomial(cfg, 2)
    lhs = F**4
    assert lhs.factored == phi2.factored  # (p^2 - 1)/2 = 4
    by_mul = F * F * F * F
    assert LaurentPoly(ctx9, 1, 3, dict(lhs.terms)) == LaurentPoly(
        ctx9, 1, 3, dict(by_mul.terms)
    )


def test_frobenius_sub():
    ctx = C(3, 2)
    f = tvar(ctx, 1) + z_var(ctx, 1, 1, 1)
    assert f.frobenius_sub(0) == f
    g = f.frobenius_sub(1)
    assert g == LaurentPoly(ctx, 1, 1, {(3, 0): 1, (0, 3): 1})
    rng = seeded(2)
    for _ in range(100):
        h = rand_laurent(rng, ctx, 1, 2, -2, 3, 4)
        a = [rand_unit(ctx, rng) for _ in range(2)]
        ap = [ctx.frob(x, 1) for x in a]
        lhs = h.frobenius_sub(1).eval_z(a)
        rhs = h.eval_z(ap)
        # sigma(F)(a) = F(a^p) including the t variable twist
        tv = rand_unit(ctx, rng)
        assert eval_all(lhs, [tv], []) == eval_all(rhs, [ctx.frob(tv, 1)], [])


def test_coeff_t_examples():
    ctx = C(3, 2)
    f = LaurentPoly(ctx, 1, 1, {(2, 1): 1, (1, 0): 3})  # t^2 z1 + 3t
    assert coeff_t(f, 2) == LaurentPoly(ctx, 0, 1, {(1,): 1})
    n = 3
    t = tvar(ctx, n)
    zs = [zvar(ctx, i) for i in (1, 2, 3)]
    f = (t - zs[0]) * (t - zs[1]) * (t - zs[2])
    got = coeff_t(f, 2)
    e1 = coeff_t(zs[0] + zs[1] + zs[2], 0)
    assert got == -e1
    assert coeff_t(f, 7).is_zero()


def test_coeffs_t_filters_expanded_polynomials():
    ctx = C(3, 2)
    f = LaurentPoly(ctx, 1, 2, {(2, 1, 0): 1, (1, 0, 0): 3, (2, 0, 4): 5})
    a, b, c, a2 = f.coeffs_t([2, -1, (1,), 2])
    assert a == LaurentPoly(ctx, 0, 2, {(1, 0): 1, (0, 4): 5})
    assert b.is_zero() and c == LaurentPoly(ctx, 0, 2, {(0, 0): 3})
    assert a2 == a
    with pytest.raises(UnsupportedArity):
        f.coeffs_t([(1, 2)])


FACTORED_CASES = {
    # odd degree: a sign (-1)^j in place of (-1)^(e-j) negates F
    "z-only": (3, 2, 1, 3, [(1, 3), (2, 1), (3, 3)]),
    # z indices listed out of order and not 1..k
    "sparse z indices": (5, 2, 1, 4, [(4, 2), (2, 3)]),
    "repeated z index": (3, 3, 1, 2, [(1, 2), (2, 1), (1, 3)]),
    "m = 2 z-only": (3, 2, 2, 3, [(1, 2), (3, 3), (2, 1)]),
    # C(3, 1) = C(3, 2) = 3 vanish mod 3
    "binomials vanish mod q": (3, 1, 1, 2, [(1, 3), (2, 3)]),
    # 3 * 3 vanishes mod 9 although neither factor does
    "products vanish mod q": (3, 2, 1, 2, [(1, 3), (2, 3)]),
    "no factors": (3, 2, 1, 2, []),
}


@pytest.mark.parametrize("case", sorted(FACTORED_CASES))
def test_coeffs_t_on_factored_forms_matches_expand_and_filter(case):
    p, N, m, n, factors = FACTORED_CASES[case]
    ctx = dl.ctx_new(p, N, m)
    F = LaurentPoly.from_factors(ctx, n, factors)
    ref = oracle_expand_factors(p, N, m, ctx.modulus, n, factors)
    deg = sum(e for _, e in factors)
    ks = list(range(-2, deg + 3))
    got = F.coeffs_t(ks)
    assert not is_expanded(F)
    for k, poly in zip(ks, got):
        assert poly.r == 0 and poly.n == n
        assert poly.terms == {key[1:]: c for key, c in ref.items() if key[0] == k}
    assert coeff_t(F, deg) == got[ks.index(deg)]
    assert F.terms == ref


def test_coeffs_t_on_random_factored_forms():
    rng = seeded(29)
    for _ in range(40):
        p, N, m = rng.choice([(3, 1, 1), (3, 2, 1), (5, 2, 1), (3, 2, 2)])
        n = rng.randint(1, 4)
        factors = [(rng.randint(1, n), rng.randint(1, 5))
                   for _ in range(rng.randint(1, 4))]
        ctx = dl.ctx_new(p, N, m)
        F = LaurentPoly.from_factors(ctx, n, factors)
        ref = oracle_expand_factors(p, N, m, ctx.modulus, n, factors)
        ks = [rng.randint(-1, sum(e for _, e in factors) + 1) for _ in range(4)]
        for k, poly in zip(ks, F.coeffs_t(ks)):
            assert poly.terms == {key[1:]: c for key, c in ref.items()
                                  if key[0] == k}, (factors, k)
        assert not is_expanded(F)


def test_coeffs_t_caps_the_terms_a_read_would_form():
    ctx = C(7, 1)
    F = LaurentPoly.from_factors(ctx, 5, [(i, 100) for i in range(1, 6)])
    # 101^5 terms in all, 15 of them at t^2, tens of millions at t^250
    assert len(coeff_t(F, 2).terms) == 15
    with pytest.raises(SizeCapExceeded):
        F.coeffs_t([2, 250])
    with pytest.raises(SizeCapExceeded):
        F.terms
    assert not is_expanded(F)


def test_read_size_counts_the_terms_a_read_forms():
    """A read is charged the terms it forms at each distinct requested
    t-exponent: the compositions of a factored form, the stored terms at
    those exponents once expanded (not every stored term)."""
    F = LaurentPoly.from_factors(C(5, 2), 3, [(1, 2), (2, 3), (3, 1)])
    ks = [1, 4, 4, 9]  # 9 is past the degree
    factored = F.read_size(ks)
    formed = sum(len(coeff_t(F, k).terms) for k in set(ks))
    assert not is_expanded(F)
    assert len(F.terms) > F.read_size(ks) == factored == formed == 3 + 5


def test_partial_z():
    ctx = C(3, 2)
    z1 = z_var(ctx, 0, 2, 1)
    sq = z1 * z1
    assert sq.partial_z(1) == z1.cmul(2)
    n = 3
    t = tvar(ctx, n)
    zs = [zvar(ctx, i) for i in (1, 2, 3)]
    f = (t - zs[0]) * (t - zs[1]) * (t - zs[2])
    d = coeff_t(f, 2).partial_z(1)
    assert d == LaurentPoly(ctx, 0, 3, {(0, 0, 0): 8})  # -1 mod 9
    inv = LaurentPoly(ctx, 0, 1, {(-1,): 1})
    assert inv.partial_z(1) == LaurentPoly(ctx, 0, 1, {(-2,): 8})


def test_eval_z():
    ctx = C(3, 2)
    f = LaurentPoly(ctx, 0, 2, {(1, 0): 1, (0, 1): 1})  # z1 + z2
    got = f.eval_z([1, 2])
    assert got.terms == {(): 3}
    cfg = dl.KZConfig(ctx, 1)
    phi = dl.master_polynomial(cfg, 1)
    off, co = phi.dense_t([0, 1, 3])
    assert off == 0
    # t(t-1)(t-3) = t^3 - 4t^2 + 3t mod 9
    assert co == [0, 3, 5, 1]
    rng = seeded(4)
    for _ in range(100):
        h = rand_laurent(rng, ctx, 1, 2, 0, 3, 5)
        a = [rand(ctx, rng) for _ in range(2)]
        v = rng.randint(0, 3)
        assert eval_all(coeff_t(h.eval_z(a), v), [], []) == \
            eval_all(coeff_t(h, v).eval_z(a), [], [])
    bad = LaurentPoly(ctx, 0, 1, {(-1,): 1})
    with pytest.raises(NonUnitAtNegativeExponent):
        bad.eval_z([3])


def test_synth_div_linear():
    ctx = C(3, 2)
    n = 3
    t = tvar(ctx, n)
    zs = [zvar(ctx, i) for i in (1, 2, 3)]
    cfg = dl.KZConfig(ctx, 1)
    phi = dl.master_polynomial(cfg, 1)
    # the factor is dropped from the factored form
    qf = phi.synth_div_linear(z_index=1)
    assert qf.factored == ((2, 1), (3, 1)) and not is_expanded(qf)
    assert qf.newton_box() == TBox((0,), (2,))
    assert qf.terms == ((t - zs[1]) * (t - zs[2])).terms
    # a multiplicity goes down by one per division
    q = dl.master_polynomial(cfg, 2)  # every multiplicity is 4
    for _ in range(3):
        q = q.synth_div_linear(z_index=2)
    assert q.factored == ((1, 4), (2, 1), (3, 4))
    assert q.synth_div_linear(z_index=2).factored == ((1, 4), (3, 4))
    # an expanded form is refused, and so is an absent factor
    with pytest.raises(NotFactored):
        LaurentPoly(ctx, 1, 3, dict(phi.terms)).synth_div_linear(z_index=1)
    with pytest.raises(NotDivisible):
        phi.synth_div_linear(z_index=1).synth_div_linear(z_index=1)
    with pytest.raises(NotDivisible):
        LaurentPoly.from_factors(ctx, 3, [(2, 1)]).synth_div_linear(z_index=3)


def test_from_factors_merges_repeated_indices_into_one_key():
    ctx = C(3, 2)
    F = LaurentPoly.from_factors(ctx, 3, [(3, 2), (1, 1), (2, 0), (3, 1), (1, 2)])
    G = LaurentPoly.from_factors(ctx, 3, [(1, 3), (3, 3)])
    assert F.factored == G.factored == ((1, 3), (3, 3))
    assert F.terms == oracle_expand_factors(3, 2, 1, ctx.modulus, 3,
                                            [(1, 3), (3, 3)])
    # equal forms share one DenseCache entry
    cache, a = DenseCache(), (1, 2, 4)
    assert cache.get(F, a) is cache.get(G, a)


def test_roots_at_checks_the_arity_of_the_point():
    ctx = C(3, 2)
    phi = dl.master_polynomial(dl.KZConfig(ctx, 1), 1)
    assert phi.roots_at([0, 1, 3]) == [(0, 1), (1, 1), (3, 1)]
    for a in ([0, 1], [0, 1, 3, 4]):
        with pytest.raises(UnsupportedArity):
            phi.roots_at(a)


def test_newton_box():
    ctx = C(3, 2)
    cfg = dl.KZConfig(ctx, 1)
    phi = dl.master_polynomial(cfg, 1)
    assert phi.newton_box() == TBox((0,), (3,))  # [0, gp + (p-1)/2 - g]
    f = LaurentPoly(ctx, 1, 0, {(-1,): 1, (1,): 1})
    assert f.newton_box() == TBox((-1,), (1,))
    with pytest.raises(ZeroPolynomial):
        LaurentPoly.zero(ctx, 1, 0).newton_box()
    rng = seeded(14)
    ctx3 = C(3, 1)
    for _ in range(40):
        a = rand_laurent(rng, ctx3, 1, 1, -2, 3, 3)
        b = rand_laurent(rng, ctx3, 1, 1, -1, 2, 3)
        prod = a * b
        if prod.is_zero():
            continue
        box = prod.newton_box()
        A, B = a.newton_box(), b.newton_box()
        outer = TBox(tuple(map(add, A.lo, B.lo)), tuple(map(add, A.hi, B.hi)))
        # equality holds for r = 1 products of nonzero polynomials mod p
        assert box == outer


def test_leading_term_lex():
    ctx = C(3, 2)
    f = LaurentPoly(ctx, 0, 2, {(1, 0): 1, (0, 2): 1})  # z1 + z2^2
    c, key = leading_term_lex(f)
    assert (c, key) == (1, (1, 0))
    with pytest.raises(ZeroPolynomial):
        leading_term_lex(LaurentPoly.zero(ctx, 0, 2))
    rng = seeded(21)
    ctx7 = C(7, 1)
    for _ in range(100):
        a = rand_laurent(rng, ctx7, 0, 3, 0, 0, 4)
        b = rand_laurent(rng, ctx7, 0, 3, 0, 0, 4)
        prod = a * b
        if prod.is_zero():
            continue
        ca, ka = leading_term_lex(a)
        cb, kb = leading_term_lex(b)
        cp, kp = leading_term_lex(prod)
        assert kp == tuple(x + y for x, y in zip(ka, kb))
        assert cp == ctx7.mul(ca, cb)


def test_rand_laurent_keys_have_one_part_per_variable():
    rng = seeded(5)
    ctx = C(3, 2)
    for r in (0, 1):
        for n in (1, 2, 3):
            f = rand_laurent(rng, ctx, r, n, -2, 3, 6, neg_z=True)
            assert {len(key) for key in f.terms} == {r + n}


def test_ring_axioms_against_oracle():
    rng = seeded(31)
    for _ in range(300):
        p, N = rng.choice([(3, 1), (3, 2), (3, 4), (5, 2)])
        ctx = C(p, N)
        n = rng.randint(1, 3)
        a = rand_laurent(rng, ctx, 1, n, -2, 4, 5, neg_z=True)
        b = rand_laurent(rng, ctx, 1, n, -2, 4, 5, neg_z=True)
        c = rand_laurent(rng, ctx, 1, n, -2, 4, 5, neg_z=True)
        assert (a * b).terms == oracle_mul(a.terms, b.terms, p, N)
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a - a == LaurentPoly.zero(ctx, 1, n)


def _check_product(ctx, a, b):
    """_convolve against the oracle loop; True when the packed path ran."""
    packed = []

    def spy(*args):
        packed.append(_packed_convolve(*args) is not None)
        return None  # the dict loop then runs too, as a second witness

    got = _convolve(ctx, a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_packed_convolve", spy)
        loop = _convolve(ctx, a, b)
    assert got == loop == oracle_mul(a, b, ctx.p, ctx.N, ctx.m, ctx.modulus)
    return packed == [True]


def _homogeneous(rng, ctx, n, degree, count, scale=1):
    """Up to count random terms of total degree ``degree`` in n variables,
    some exponents negative, every exponent times ``scale``."""
    terms = {}
    for _ in range(count):
        head = [rng.randint(-1, 2) for _ in range(n - 1)]
        key = tuple(scale * e for e in head + [degree - sum(head)])
        terms[key] = rand_coeff(rng, ctx, nonzero=True)
    return terms


@pytest.mark.parametrize("p,N,m", [(3, 1, 1), (3, 3, 1), (3, 2, 2), (5, 1, 2)])
def test_packed_products_match_the_dict_loop(p, N, m):
    """Laurent products by Kronecker substitution against the oracle loop:
    negative exponents, homogeneous operands (one variable dropped) and
    non-homogeneous ones, Frobenius-strided operands (box too sparse, dict
    loop), cancelling coefficients over N = 1, and empty or single-term
    operands; both paths must run."""
    ctx = dl.ctx_new(p, N, m)
    rng = seeded(100 * p + 10 * N + m)
    one = {(0, 2, -1): ctx.one()}
    assert _convolve(ctx, {}, one) == _convolve(ctx, one, {}) == {}
    paths = []
    for _ in range(12):
        n = rng.randint(2, 4)
        deg = rng.randint(-2, 4)
        a = _homogeneous(rng, ctx, n, deg, rng.randint(16, 60))
        b = _homogeneous(rng, ctx, n, rng.randint(0, 5), rng.randint(16, 90))
        twisted = _homogeneous(rng, ctx, n, deg, rng.randint(16, 40), scale=p)
        single = {next(iter(b)): rand_coeff(rng, ctx, nonzero=True)}
        mixed = rand_laurent(rng, ctx, 1, n - 1, -3, 6, 60, zdeg=2,
                             neg_z=True).terms
        for x, y in ((a, b), (b, a), (twisted, b), (single, a), (mixed, b),
                     (mixed, mixed)):
            if len(next(iter(x))) == len(next(iter(y))):
                paths.append(_check_product(ctx, x, y))
    assert any(paths) and not all(paths)


@pytest.mark.parametrize("short,stride,packed", [
    (16, 2, True),   # box 2 * 214, 3 * 428 <= 16 * 100 pairs
    (16, 3, False),  # box 2 * 313, 3 * 626 > 1600
    (15, 1, True),   # box 2 * 114, 3 * 228 <= 1500
    (16, 1, True),
])
def test_packed_product_thresholds(short, stride, packed):
    """Non-homogeneous operands t^i z^(i mod 2) and t^(stride j) with
    negative t-exponents, on both sides of the box rule: the product packs
    when its box is at most a third of the term pairs, whatever the
    shorter operand's term count."""
    for m in (1, 2):
        ctx = dl.ctx_new(3, 2, m)
        rng = seeded(short * stride + m)
        a = {(i - 7, i % 2): rand_coeff(rng, ctx, nonzero=True)
             for i in range(short)}
        b = {(stride * j - 20, 0): rand_coeff(rng, ctx, nonzero=True)
             for j in range(100)}
        assert _check_product(ctx, a, b) is packed
        assert _check_product(ctx, b, a) is packed


def test_operands_under_four_terms_never_pack():
    """The box is at least the longer operand's term count, with equality
    only for a single-term operand, so the box rule never packs an operand
    of 1, 2 or 3 terms (and ``_convolve`` does not ask it to): not against
    a dense square, an interval or a homogeneous diagonal.  Four terms in a
    2 x 2 square pack against a dense 10 x 10 square (box 11 * 11,
    3 * 121 <= 400 pairs)."""
    ctx = C(3, 2)
    rng = seeded(4)
    square = {(i, j): rand_coeff(rng, ctx, nonzero=True)
              for i in range(10) for j in range(10)}
    corners = [(0, 0), (1, 1), (0, 1), (1, 0)]
    for k in range(1, 5):
        a = {key: rand_coeff(rng, ctx, nonzero=True) for key in corners[:k]}
        assert (_packed_convolve(ctx, a, square) is None) is (k < 4)
        assert _check_product(ctx, a, square) is (k == 4)
    line = {(j, 0): 1 for j in range(100)}
    diagonal = {(j, 9 - j): 1 for j in range(-40, 60)}
    for _ in range(30):
        heads = rng.sample(range(-3, 4), rng.randint(1, 3))
        for key, b in ((lambda h: (h, rng.randint(-3, 3)), square),
                       (lambda h: (h, 0), line),
                       (lambda h: (h, 2 - h), diagonal)):
            a = {key(h): 1 for h in heads}
            assert _packed_convolve(ctx, a, b) is None
            _check_product(ctx, a, b)


def test_pair_cap_applies_to_the_dict_loop_only(monkeypatch):
    """Packed products are capped by their box, not by their term pairs:
    under a low PAIR_CAP a dense homogeneous product still packs (the dict
    loop would refuse it), a Frobenius-twisted one is refused, and a low
    SOFT_TERM_CAP refuses the packed one."""
    ctx = C(3, 2)
    rng = seeded(1)
    a = _homogeneous(rng, ctx, 3, 2, 60)
    b = _homogeneous(rng, ctx, 3, 3, 90)
    twisted = _homogeneous(rng, ctx, 3, 2, 40, scale=3)
    poly = {key: LaurentPoly(ctx, 0, 3, terms)
            for key, terms in (("a", a), ("b", b), ("twisted", twisted))}
    monkeypatch.setattr(laurent, "PAIR_CAP", 100)
    assert min(len(a), len(twisted)) * len(b) > 100
    product = poly["a"] * poly["b"]
    assert product.terms == oracle_mul(a, b, ctx.p, ctx.N)
    with pytest.raises(SizeCapExceeded):
        poly["twisted"] * poly["b"]
    monkeypatch.setattr(laurent, "SOFT_TERM_CAP", 10)
    with pytest.raises(SizeCapExceeded):
        poly["a"] * poly["b"]


def test_freshman_and_iterated_congruence():
    rng = seeded(8)
    for _ in range(25):
        p = rng.choice((3, 5))
        ctx = C(p, 3)
        f = rand_laurent(rng, ctx, 1, 2, -1, 2, 3)
        fp = f**p
        sig = f.frobenius_sub(1)
        assert (fp - sig).valuation() >= 1
        # f^(p^i) = sigma(f^(p^(i-1))) mod p^i
        for i in (1, 2):
            lhs = f ** (p**i)
            rhs = (f ** (p ** (i - 1))).frobenius_sub(1)
            assert (lhs - rhs).valuation() >= i


def test_dense_kernels_cross_check():
    rng = seeded(12)
    for p, N, m in [(3, 3, 1), (5, 4, 1), (3, 2, 2), (5, 3, 2)]:
        ctx = dl.ctx_new(p, N, m)
        for ln in (3, 40, 90):
            a = [rand(ctx, rng) for _ in range(ln)]
            b = [rand(ctx, rng) for _ in range(ln + 7)]
            got = dense.dense_mul(ctx, a, b)
            school = (
                dense._school_mul_int(a, b, ctx.q) if m == 1
                else dense._school_mul_ext(ctx, a, b)
            )
            assert got == school
            assert got == oracle_dense_mul(a, b, p, N, m, ctx.modulus)
        # kronecker path explicitly
        a = [rand(ctx, rng) for _ in range(200)]
        b = [rand(ctx, rng) for _ in range(150)]
        fast = dense._kron_mul(ctx, a, b)
        slow = (
            dense._school_mul_int(a, b, ctx.q) if m == 1
            else dense._school_mul_ext(ctx, a, b)
        )
        assert fast == slow


def test_dense_pow_and_division():
    ctx = dl.ctx_new(5, 3, 2)
    rng = seeded(6)
    root = rand(ctx, rng)
    f = dense_linear_pow(ctx, root, 9)
    assert len(f) == 10
    quot, rem = dense.dense_div_linear(ctx, f, root)
    assert ctx.is_zero(rem)
    assert quot == dense_linear_pow(ctx, root, 8)
    base = dense.dense_from_roots(ctx, [(root, 1)])
    assert dense.dense_pow(ctx, base, 9) == f


def test_dense_div_linear_matches_reference_loop():
    for p, N, m in [(5, 4, 1), (7, 3, 1), (5, 5, 2), (3, 4, 2), (3, 3, 3)]:
        ctx = dl.ctx_new(p, N, m)
        rng = seeded(100 * m + p)
        for d in (0, 1, 2, 17, 300):
            f = [rand(ctx, rng) for _ in range(d + 1)]
            root = rand(ctx, rng)
            got = dense.dense_div_linear(ctx, f, root)
            assert got == oracle_div_linear(f, root, p, N, m, ctx.modulus)
        # an exact division round-trips with a zero remainder; a unit shift
        # of the root leaves a nonzero one
        g = [rand(ctx, rng) for _ in range(40)]
        root = rand(ctx, rng)
        f = dense.dense_mul(ctx, g, [ctx.neg(root), ctx.one()])
        assert dense.dense_div_linear(ctx, f, root) == (g, ctx.zero())
        other = ctx.add(root, ctx.one())
        quot, rem = dense.dense_div_linear(ctx, f, other)
        assert not ctx.is_zero(rem)
        assert (quot, rem) == oracle_div_linear(f, other, p, N, m, ctx.modulus)


def test_json_roundtrip_and_sorting():
    for m in (1, 2):
        ctx = dl.ctx_new(3, 2, m)
        rng = seeded(m)
        f = rand_laurent(rng, ctx, 1, 2, -2, 3, 6, neg_z=True)
        doc = f.to_json()
        keys = [tuple(d["t"]) + tuple(d["z"]) for d in doc["terms"]]
        assert keys == sorted(keys)
        back = LaurentPoly.from_json(ctx, doc)
        assert back == f


def test_exponent_keys_of_the_wrong_length_are_refused():
    """Every key has r + n entries; a longer one was once built silently
    and cut short by a product.  ``from_json`` still checks the t/z split,
    which a key of the right total length can get wrong."""
    ctx = dl.ctx_new(3, 2)
    for r, n, key in ((0, 2, (1, 0, 2)), (1, 1, (1,)), (1, 2, (0, 1, 0, 0))):
        with pytest.raises(ValueError):
            LaurentPoly(ctx, r, n, {key: 1})
        with pytest.raises(ValueError):
            LaurentPoly(ctx, r, n, {(0,) * (r + n): 1, key: 1})
    with pytest.raises(ValueError):
        LaurentPoly.from_json(ctx, {"r": 1, "n": 1, "terms": [
            {"t": [0, 1], "z": [], "c": "1"}]})
