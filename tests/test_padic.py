import itertools

import pytest

import dworklab as dl
from dworklab.errors import NotAUnit, NotPrime, OddPrimeRequired
from dworklab.padic import PadicCtx, is_prime
from conftest import seeded
from oracles import (
    M1_MODULUS,
    M3_FULL_TAIL,
    M4_FULL_TAIL,
    SIGMA_FAULTS,
    coeff_add,
    coeff_mul,
    embed,
    oracle_sigma,
    oracle_teichmueller,
    oracle_tuple_mul,
    poly_divides,
    rand,
    rand_unit,
    reduce_to,
    val_label,
)


def test_ctx_examples():
    ctx = dl.ctx_new(3, 2, 1)
    assert ctx.modulus == (0, 1)
    assert ctx.q == 9
    ctx2 = dl.ctx_new(3, 1, 2)
    assert ctx2.modulus == (1, 0, 1)  # x^2 + 1, smallest lex irreducible
    with pytest.raises(OddPrimeRequired):
        dl.ctx_new(2, 1, 1)
    with pytest.raises(NotPrime):
        dl.ctx_new(9, 1, 1)
    with pytest.raises(ValueError):
        dl.ctx_new(3, 0, 1)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2), (5, 3)])
def test_modulus_irreducible_by_trial_division(p, m):
    ctx = dl.ctx_new(p, 1, m)
    f = list(ctx.modulus)
    for d in range(1, m // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            assert not poly_divides(divisor, f, p)


def test_modulus_is_minimal_lex():
    # every smaller candidate must be reducible
    for p, m in [(3, 2), (5, 2)]:
        ctx = dl.ctx_new(p, 1, m)
        mod_k = sum(c * p**i for i, c in enumerate(ctx.modulus[:-1]))
        for k in range(mod_k):
            digits = []
            kk = k
            for _ in range(m):
                digits.append(kk % p)
                kk //= p
            cand = digits + [1]
            assert any(
                poly_divides(list(tail) + [1], cand, p)
                for d in range(1, m // 2 + 1)
                for tail in itertools.product(range(p), repeat=d)
            )


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
                                 (5, 2), (5, 3), (7, 2)])
def test_irreducibility_test_agrees_with_trial_division(p, m):
    """Ben-Or's test against trial division by every monic polynomial of
    degree 1..m//2, on every monic polynomial of degree m.  At m = 4 and 6
    the test must see factors of degree 2 and 3 with no root, such as
    x^4 + 1 = (x^2 + x + 2)(x^2 + 2x + 2) over F_3."""
    from dworklab.padic import _is_irreducible_mod_p

    divisors = [list(tail) + [1] for d in range(1, m // 2 + 1)
                for tail in itertools.product(range(p), repeat=d)]
    for tail in itertools.product(range(p), repeat=m):
        f = list(tail) + [1]
        assert _is_irreducible_mod_p(f, p) == (
            not any(poly_divides(d, f, p) for d in divisors)), f


def test_teichmueller_examples():
    ctx = dl.ctx_new(3, 2, 1)
    assert ctx.teichmueller(1) == 1
    assert ctx.teichmueller(2) == 8  # -1 mod 9
    ctx5 = dl.ctx_new(5, 3, 1)
    brute = next(x for x in range(125) if x % 5 == 2 and pow(x, 5, 125) == x)
    assert brute == 57
    assert ctx5.teichmueller(2) == 57
    assert ctx5.teichmueller(0) == 0
    assert ctx5.teichmueller(5) == 0  # residue zero maps to zero


@pytest.mark.parametrize(
    "p,N,m", [(3, 4, 1), (5, 2, 1), (7, 2, 1), (3, 2, 2), (3, 2, 4)]
)
def test_teichmueller_fixed_point_exhaustive(p, N, m):
    ctx = dl.ctx_new(p, N, m)
    e = p**m
    residues = (
        range(p) if m == 1 else itertools.product(range(p), repeat=m)
    )
    for u in residues:
        x = ctx.from_coeffs((u,) if m == 1 else u)
        t = ctx.teichmueller(x)
        assert ctx.pow(t, e) == t
        # t = u mod p
        assert all(
            (a - b) % p == 0 for a, b in zip(ctx.coeffs(t), ctx.coeffs(x))
        )


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_teichmueller_runs_ceil_n_minus_1_over_m_powers(monkeypatch, p, m):
    """Each x -> x^(p^m) gains m digits from a residue, so the lift takes
    ceil((N - 1) / m) powers and equals the loop that runs until the value
    repeats."""
    calls = []
    real = dl.PadicCtx.pow

    def counting(ctx, a, e):
        calls.append(e)
        return real(ctx, a, e)

    monkeypatch.setattr(dl.PadicCtx, "pow", counting)
    rng = seeded(p * 10 + m)
    for N in range(1, 9):
        ctx = dl.ctx_new(p, N, m)
        for _ in range(15):
            x = rand_unit(ctx, rng)
            want = oracle_teichmueller(ctx, x)
            calls.clear()
            assert ctx.teichmueller(x) == want
            assert calls == [p**m] * -(-(N - 1) // m)


@pytest.mark.parametrize("p,modulus", [(3, None), (5, None), (7, None),
                                       (3, (2, 1, 1)), (5, (2, 1, 1))])
def test_m2_mul_matches_the_generic_tuple_product(p, modulus):
    """mul at m = 2 under x^2 + c (ctx_new's choice) and under x^2 + x + 2,
    irreducible over F_3 and F_5, whose x term the fold reads."""
    rng = seeded(p)
    for N in range(1, 8):
        ctx = (dl.PadicCtx(p, N, 2, modulus) if modulus
               else dl.ctx_new(p, N, 2))
        assert (ctx.modulus[1] != 0) == (modulus is not None)
        top = (ctx.q - 1, ctx.q - 1)
        xs = [top, (0, ctx.q - 1), (ctx.q - 1, 0), ctx.zero(), ctx.one()]
        xs += [rand(ctx, rng) for _ in range(20)]
        for a in xs:
            for b in xs:
                assert ctx.mul(a, b) == oracle_tuple_mul(ctx, a, b)


@pytest.mark.parametrize("p,N,m,modulus", [
    (7, 3, 1, None), (5, 3, 2, None), (5, 4, 2, M1_MODULUS), (3, 3, 3, None),
    (3, 3, 3, M3_FULL_TAIL), (3, 2, 4, None), (3, 2, 4, M4_FULL_TAIL)])
def test_dot_is_the_reduced_sum_of_oracle_products(p, N, m, modulus):
    """PadicCtx.dot on reduced coordinates, on unreduced ones up to 4 q^2
    (dot reduces once, so a caller need not), on negative ones and on
    every pairing of the three, and on no pairs at all."""
    ctx = dl.PadicCtx(p, N, m, modulus) if modulus else dl.ctx_new(p, N, m)
    q, rng = ctx.q, seeded(100 * p + 10 * N + m)
    spans = [(0, q - 1), (q, 4 * q * q), (-4 * q * q, -1)]

    def elem(lo, hi):
        cs = [rng.randint(lo, hi) for _ in range(m)]
        return cs[0] if m == 1 else tuple(cs)

    for (xlo, xhi), (ylo, yhi) in itertools.product(spans, repeat=2):
        for n in (1, 2, 7):
            xs = [elem(xlo, xhi) for _ in range(n)]
            ys = [elem(ylo, yhi) for _ in range(n)]
            want = ctx.zero()
            for x, y in zip(xs, ys):
                want = coeff_add(want, coeff_mul(x, y, p, N, m, ctx.modulus),
                                 p, N, m)
            assert ctx.dot(xs, ys) == want
    top = ctx.q - 1 if m == 1 else (ctx.q - 1,) * m
    assert ctx.dot([top] * 5, [top] * 5) == ctx.scal_int(ctx.mul(top, top), 5)
    assert ctx.dot([], []) == ctx.zero()


def test_valuation_examples():
    ctx = dl.ctx_new(3, 3, 1)
    assert ctx.val(0) == 3
    assert val_label(ctx, ctx.val(0)) == ">=3"
    assert ctx.val(3) == 1
    ctx2 = dl.ctx_new(3, 2, 1)
    assert ctx2.val(ctx2.sub(ctx2.teichmueller(2), 2)) == 1  # 8 - 2 = 6


def test_valuation_multiplicative_exhaustive():
    ctx = dl.ctx_new(3, 3, 1)  # p^N = 27
    for x in range(27):
        for y in range(27):
            lhs = ctx.val(ctx.mul(x, y))
            rhs = min(ctx.val(x) + ctx.val(y), 3)
            assert lhs == rhs
    ext = dl.ctx_new(3, 2, 2)  # p^N = 9 per coordinate
    elems = [(a, b) for a in range(9) for b in range(9)]
    rng = seeded(11)
    for _ in range(4000):
        x = rng.choice(elems)
        y = rng.choice(elems)
        assert ext.val(ext.mul(x, y)) == min(ext.val(x) + ext.val(y), 2)


@pytest.mark.parametrize("p,N,m", [(3, 3, 1), (5, 2, 1), (3, 2, 2),
                                   (5, 2, 2), (3, 2, 3)])
def test_valuation_is_the_least_coefficient_valuation(p, N, m):
    """val, one path for every m, against the least valuation of the
    coordinates counted by trial division, over every element."""
    ctx = dl.ctx_new(p, N, m)

    def int_val(c):
        v = 0
        while v < N and c % p ** (v + 1) == 0:
            v += 1
        return v

    for coeffs in itertools.product(range(ctx.q), repeat=m):
        x = ctx.from_coeffs(coeffs)
        assert ctx.val(x) == min(map(int_val, coeffs))


def _sieve(n):
    flags = [False, False] + [True] * (n - 1)
    for k in range(2, int(n**0.5) + 1):
        if flags[k]:
            flags[k * k::k] = [False] * len(flags[k * k::k])
    return flags


def _strong_probable_prime(n, w):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(w, d, n)
    return x in (1, n - 1) or any(pow(x, 2**j, n) == n - 1 for j in range(r))


def test_is_prime_agrees_with_a_sieve():
    """Every n below 10^4; those past the largest witness 37 reach the
    Miller-Rabin loop."""
    flags = _sieve(10**4)
    assert [n for n in range(10**4) if is_prime(n)] == [
        n for n, f in enumerate(flags) if f]


@pytest.mark.parametrize("n,prime", [
    (3_215_031_751, False),  # 151 * 751 * 28351
    (3_825_123_056_546_413_051, False),  # 149491 * 747451 * 34233211
    (2**61 - 1, True),
])
def test_is_prime_on_strong_pseudoprimes_and_a_mersenne_prime(n, prime):
    """The composites are strong probable primes to the bases 2, 3, 5 and 7,
    so only the later witnesses of the loop expose them."""
    assert all(_strong_probable_prime(n, w) for w in (2, 3, 5, 7))
    assert is_prime(n) is prime


def test_unit_inverse_examples():
    ctx = dl.ctx_new(3, 2, 1)
    assert ctx.inv(1) == 1
    assert ctx.inv(2) == 5
    with pytest.raises(NotAUnit):
        ctx.inv(3)


@pytest.mark.parametrize("p,N,m", [(3, 4, 1), (5, 3, 1), (3, 3, 2), (7, 2, 2)])
def test_unit_inverse_involution(p, N, m):
    ctx = dl.ctx_new(p, N, m)
    rng = seeded(5)
    for _ in range(60):
        x = rand_unit(ctx, rng)
        y = ctx.inv(x)
        assert ctx.mul(x, y) == ctx.one()
        assert ctx.inv(y) == x


def test_ring_ops_match_bigint_oracle():
    ctx = dl.ctx_new(5, 4, 1)
    q = 5**4
    rng = seeded(13)
    for _ in range(4000):
        a = rng.randrange(-(10**9), 10**9)
        b = rng.randrange(-(10**9), 10**9)
        xa, xb = ctx.from_int(a), ctx.from_int(b)
        assert ctx.add(xa, xb) == (a + b) % q
        assert ctx.sub(xa, xb) == (a - b) % q
        assert ctx.mul(xa, xb) == (a * b) % q
        assert ctx.neg(xa) == (-a) % q
    for _ in range(50):
        a = rng.randrange(10**6)
        e = rng.randrange(40)
        assert ctx.pow(ctx.from_int(a), e) == pow(a, e, q)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_negative_powers_are_refused(m):
    """PadicCtx.pow takes e >= 0 at every m: its callers invert first."""
    ctx = dl.ctx_new(5, 3, m)
    with pytest.raises(ValueError, match="negative powers"):
        ctx.pow(ctx.from_int(2), -3)


def test_frobenius_is_exponentiation():
    ctx = dl.ctx_new(3, 3, 2)
    rng = seeded(3)
    for _ in range(20):
        x = rand(ctx, rng)
        assert ctx.frob(x, 1) == ctx.pow(x, 3)
        assert ctx.frob(x, 2) == ctx.pow(ctx.pow(x, 3), 3)


def sigma_of(ctx, xs, j=1):
    """PadicCtx.sigma on a list of elements, through their columns."""
    cols = ctx.sigma([list(c) for c in zip(*map(ctx.coeffs, xs))], j)
    return [ctx.from_coeffs(c) for c in zip(*cols)]


def broken_sigma_laws(ctx, rng):
    """The names of the laws of the Frobenius automorphism that
    PadicCtx.sigma breaks at ctx, on random elements: a ring map (sums,
    products, ``dot``), sigma^j the j-th iterate with sigma^m = id, fixing
    Z/p^N, sigma(w) = w^p for Teichmueller elements w, and sigma, sigma^2
    equal to the Newton oracle's."""
    m, q = ctx.m, ctx.q
    xs = [rand(ctx, rng) for _ in range(8)]
    ys = [rand(ctx, rng) for _ in range(8)]
    sx, sy = sigma_of(ctx, xs), sigma_of(ctx, ys)
    ws = [ctx.teichmueller(x) for x in xs]
    ints = [ctx.from_int(rng.randrange(q)) for _ in range(4)]
    iterates = [xs]
    for _ in range(m):
        iterates.append(sigma_of(ctx, iterates[-1]))
    laws = {
        "sum": sigma_of(ctx, list(map(ctx.add, xs, ys))) == list(
            map(ctx.add, sx, sy)),
        "product": sigma_of(ctx, list(map(ctx.mul, xs, ys))) == list(
            map(ctx.mul, sx, sy)),
        "dot": sigma_of(ctx, [ctx.dot(xs, ys)]) == [ctx.dot(sx, sy)],
        "iterates": all(sigma_of(ctx, xs, j) == it
                        for j, it in enumerate(iterates)),
        "order m": iterates[m] == xs and sigma_of(ctx, xs, m) == xs,
        "fixes Z/p^N": sigma_of(ctx, ints) == ints,
        "Teichmueller": sigma_of(ctx, ws) == [ctx.frob(w) for w in ws],
        "oracle": m == 1 or all(
            sigma_of(ctx, xs[:3], j) == [oracle_sigma(ctx, x, j)
                                         for x in xs[:3]] for j in (1, 2)),
    }
    return sorted(name for name, holds in laws.items() if not holds)


@pytest.mark.parametrize("p,N,m", [(5, 4, 1), (3, 6, 2), (5, 5, 2),
                                   (5, 7, 2), (3, 6, 3), (7, 4, 3),
                                   (7, 4, 4), (3, 8, 5)])
def test_sigma_is_the_frobenius_automorphism(p, N, m):
    """sigma from the Teichmueller digits of x keeps every law, and equals
    the root of the modulus that Newton steps find from x^p."""
    ctx = dl.ctx_new(p, N, m)
    assert broken_sigma_laws(ctx, seeded(40 + 10 * p + m)) == []


@pytest.mark.parametrize("fault", SIGMA_FAULTS)
@pytest.mark.parametrize("p,N,m", [(5, 5, 2), (3, 6, 3)])
def test_a_planted_sigma_fault_breaks_a_law(p, N, m, fault, monkeypatch):
    """sigma(x) = x (sigma the identity) or sigma(x) off by p^(N - 1)
    breaks a law that ``broken_sigma_laws`` checks."""
    monkeypatch.setattr(PadicCtx, "_frobenius_x", fault)
    ctx = dl.ctx_new(p, N, m)
    assert broken_sigma_laws(ctx, seeded(40 + 10 * p + m))


@pytest.mark.parametrize("p,N,m", [(3, 6, 3), (7, 4, 4), (3, 8, 5)])
def test_sigma_powers_read_the_digits_of_x_once(monkeypatch, p, N, m):
    """sigma^j(x) for j >= 2 is sigma of sigma^(j - 1)(x), one linear map:
    forming every sigma^j, the highest first, takes the N Teichmueller
    lifts of the digits of x once."""
    calls = []
    real = PadicCtx.teichmueller
    monkeypatch.setattr(PadicCtx, "teichmueller",
                        lambda ctx, a: calls.append(a) or real(ctx, a))
    ctx = dl.ctx_new(p, N, m)
    x = (0, 1) + (0,) * (m - 2)
    powers = [ctx.sigma([[c] for c in x], j) for j in reversed(range(1, m))]
    assert len(calls) == N
    monkeypatch.undo()
    want = [[[c] for c in oracle_sigma(ctx, x, j)] for j in range(1, m)]
    assert powers[::-1] == want


def test_embed_and_reduce():
    lo = dl.ctx_new(3, 1, 2)
    hi = dl.ctx_new(3, 4, 2)
    x = (2, 1)
    up = embed(hi, lo, x)
    assert up == (2, 1)
    assert reduce_to(hi, lo, hi.add(up, hi.scal_int(hi.one(), 9))) == x


def test_serialization_roundtrip():
    for p, N, m in [(3, 2, 1), (5, 2, 2)]:
        ctx = dl.ctx_new(p, N, m)
        doc = ctx.to_json()
        back = dl.PadicCtx.from_json(doc)
        assert back == ctx
        rng = seeded(7)
        x = rand(ctx, rng)
        assert ctx.elem_from_json(ctx.elem_to_json(x)) == x
