"""Point-kit reads as windows of c L^b, read by the base-p digits of b.

At a point a, a read of a factored F = prod (t - z_i)^e_i, or of its
quotient by one or two factors, is c L^b with L = prod (t - a_i) over the
factors left, b their least multiplicity rounded down to a multiple of p
and c the short cofactor.  A window of L^b past the base rule is read off
B = L^r sum_(j < N) C(b1, j) D^j X^(N - 1 - j) and a window of
L'^(b1 - N + 1) at the next twist (``hasse_witt.DenseCache``); below it
L^b is expanded.  These tests check every read against synthetic division
of the full expansion (``oracle_quotient_coeffs``), with the base rule
lowered so that small forms recurse, plant two faults in the digit terms
that a window must show, and count what the pointwise statements do: no
division, no inversion in a frame derivative and no expansion of a power of
L past the base rule; moving the rule changes cost, never a report.
"""

import inspect
import io
from collections import defaultdict
from functools import cache

import pytest

import dworklab as dl
from dworklab import dense, hasse_witt, limits
from dworklab.cli import run
from dworklab.errors import NotDivisible
from dworklab.hasse_witt import (
    EXPAND_DEGREE,
    DenseCache,
    PointKit,
    _coeffs_at,
    hw_derivative_at,
    hw_indices,
)
from dworklab.laurent import LaurentPoly
from dworklab.padic import PadicCtx
from conftest import seeded
from oracles import (
    SIGMA_FAULTS,
    coeff_mul,
    expanded_past_the_base_rule,
    identity_x,
    oracle_expand_roots,
    oracle_power,
    oracle_quotient_coeffs,
    rand,
    rand_unit,
)


def _points(ctx, n, rng):
    """A random point, and one with a_2 = a_1 mod p (a non-unit difference)."""
    a = [rand(ctx, rng) for _ in range(n)]
    b = [a[0], ctx.add(a[0], ctx.scal_int(rand_unit(ctx, rng), ctx.p)), *a[2:]]
    return [tuple(a), tuple(b)]


def _forms(ctx, rng):
    """(F, delta): KZ master polynomials Phi_1 and Phi_2 at g = 1 (and g = 2
    when p >= 5), then random factored forms over n = 3 with every
    multiplicity in 0..3."""
    out = []
    for g in (1, 2):
        if ctx.p >= 2 * g + 1:
            cfg = dl.KZConfig(ctx, g)
            out += [(dl.master_polynomial(cfg, s), cfg.delta) for s in (1, 2)]
    for mults in ([(1, 3), (2, 3), (3, 3)], [(1, 0), (2, 1), (3, 2)],
                  [(i, rng.randrange(4)) for i in (1, 2, 3)]):
        out.append((LaurentPoly.from_factors(ctx, 3, mults), (1, 2)))
    return out


@pytest.mark.parametrize("g", [1, 2])
def test_a_deep_read_expands_no_power_past_the_base_rule(g):
    """A(4, Phi_4) at p = 7 (L^1200, of degree 3600 or 6000) reads its g^2
    coefficients over two digit levels of the point's one root tuple (the
    next level reads sigma(L), so no twisted roots), equal to the direct
    expansion's, and expands no power of L past the base rule."""
    ctx = dl.ctx_new(7, 2, 1)
    cfg = dl.KZConfig(ctx, g)
    F, rng = dl.master_polynomial(cfg, 4), seeded(g)
    a = tuple(rand(ctx, rng) for _ in range(cfg.n))
    cache = DenseCache()
    indices = hw_indices(7, 4, cfg.delta)
    off, full = F.dense_t(a)
    assert cache.quotient_coeffs(F, a, indices) == _coeffs_at(
        ctx, off, full, indices)
    assert [roots for _, roots in cache._digit_terms] == [a]
    assert sum(memo is not None for _, memo in cache._windows.values()) == 2
    assert expanded_past_the_base_rule(cache) == []
    assert max(map(len, cache._powers.values())) <= EXPAND_DEGREE + 1


def _outcome(read):
    """read(), or "NotDivisible" when it refuses a division."""
    try:
        return read()
    except NotDivisible:
        return "NotDivisible"


@pytest.mark.parametrize("p,N,m", [(5, 3, 1), (7, 2, 1), (5, 3, 2),
                                   (3, 3, 3)])
def test_window_reads_match_division_of_the_full_expansion(p, N, m):
    ctx = dl.ctx_new(p, N, m)
    q, args = ctx.q, (p, N, m, ctx.modulus)
    rng = seeded(700 + 10 * p + m)

    def scaled(c, row):
        unit = c % q if m == 1 else (c % q,) + (0,) * (m - 1)
        return [coeff_mul(unit, x, *args) for x in row]

    for F, delta in _forms(ctx, rng):
        n, mults = F.n, dict(F.factored)
        deg = sum(mults.values())
        spots = list(range(-1, deg + 2))  # every coefficient, and beyond
        for a in _points(ctx, n, rng):
            twisted = {k: tuple(oracle_power(x, p**k, *args) for x in a)
                       for k in range(3)}
            full = {k: oracle_expand_roots(b, mults, *args)
                    for k, b in twisted.items()}

            def oracle(divided, indices, twist=0, factor=1):
                if factor % q == 0:
                    return [ctx.zero()] * len(indices)
                return scaled(factor, oracle_quotient_coeffs(
                    full[twist], twisted[twist], mults, divided, indices,
                    *args))

            kit = PointKit(ctx, delta, a)
            # frames, built lazily, then every frame derivative row
            assert _outcome(lambda: kit.frame(F, spots)) == _outcome(
                lambda: [oracle([i], spots) for i in range(1, n + 1)])
            for i in range(1, n + 1):
                ei = mults.get(i, 0)
                assert _outcome(lambda: kit.frame_derivative(
                    F, i, spots)) == _outcome(lambda: [
                        oracle([i, k], spots, factor=-(ei - (k == i)))
                        for k in range(1, n + 1)])
            for level in (1, 2):
                idx = hw_indices(p, level, delta)

                def rows(flat):
                    return [flat[r * len(delta):(r + 1) * len(delta)]
                            for r in range(len(delta))]

                for twist in range(3):
                    assert kit.A(level, F, twist) == rows(oracle([], idx, twist))
                    for v in range(1, n + 1):
                        ev = mults.get(v, 0)
                        assert kit.dA(level, F, v, twist) == rows(
                            oracle([v], idx, twist, -ev))
                # a point of int coordinates reads as its ring elements
                ints = [v + 3 for v in range(n)]
                assert hw_derivative_at(level, F, delta, ints, n, DenseCache(
                    )) == PointKit(ctx, delta, ints).dA(level, F, n)
                for u in range(1, n + 1):
                    for v in range(1, n + 1):  # u = v and u != v
                        eu, ev = mults.get(u, 0), mults.get(v, 0)
                        factor = eu * (ev - (u == v))
                        assert kit.d2A(level, F, u, v) == rows(
                            oracle([u, v], idx, 0, factor))


def _digit_forms(p, N):
    """Factored forms over n = 3 with unequal multiplicities whose least
    multiplicity b, and b - 1 and b - 2 for the divided reads, fall on both
    sides of the base rule b // p < N once EXPAND_DEGREE is 0: below it
    (b // p < N - 1 included), just past it, and two digit levels deep.
    Factor 1 has multiplicity 1 in the first form, so that a divided read
    empties it."""
    out = [[(1, 1), (2, p * N + 1), (3, p * N + 4)]]
    for b in (1, p * N - 1, p * N + 2, p * p * N + 2 * p + 1):
        out.append([(1, b + 2), (2, b), (3, b + 3)])
    return out


def _points_with_zero(ctx, rng):
    """A random point (not Teichmueller), and one with a zero coordinate."""
    a = tuple(rand(ctx, rng) for _ in range(3))
    return [a, (a[0], ctx.zero(), a[2])]


def _digit_reads(ctx, rng):
    """(read, want) pairs: every coefficient of each form of
    ``_digit_forms`` and of its quotients by one and two factors, read
    through a fresh kit and by synthetic division of the full expansion."""
    p, N, m = ctx.p, ctx.N, ctx.m
    args = p, N, m, ctx.modulus
    for mults in _digit_forms(p, N):
        F = LaurentPoly.from_factors(ctx, 3, mults)
        mult = dict(F.factored)
        spots = list(range(-1, sum(mult.values()) + 2))
        for a in _points_with_zero(ctx, rng):
            full = oracle_expand_roots(a, mult, *args)
            kit = PointKit(ctx, (1,), a)
            for divided in ([], [1], [2], [1, 3], [3, 3]):
                yield (lambda: kit.quotient_coeffs(F, a, spots, divided),
                       oracle_quotient_coeffs(full, a, mult, divided, spots,
                                              *args))


DIGIT_CONTEXTS = [(3, 2, 1), (5, 3, 1), (3, 3, 2), (5, 2, 2), (3, 2, 3)]


@pytest.mark.parametrize("p,N,m", DIGIT_CONTEXTS)
def test_digit_recursion_reads_match_the_full_expansion(p, N, m,
                                                       monkeypatch):
    """With the base rule lowered to b // p < N, every read of forms with
    unequal multiplicities, at a random point and at one with a zero
    coordinate, equals synthetic division of the full expansion, on both
    sides of the rule and two digit levels deep."""
    monkeypatch.setattr(hasse_witt, "EXPAND_DEGREE", 0)
    ctx = dl.ctx_new(p, N, m)
    digits = []
    original = DenseCache._digits

    def counted(cache, ctx, roots):
        digits.append(roots)
        return original(cache, ctx, roots)

    monkeypatch.setattr(DenseCache, "_digits", counted)
    for read, want in _digit_reads(ctx, seeded(300 + 10 * p + m)):
        assert read() == want
    assert digits  # the recursion ran


def _offset_D(ctx, Lp, ys):
    """frobenius_terms with p^(N - 1) added to the constant of L^p, so of
    D = L^p - L'(t^p) = p E."""
    Lp = [ctx.add(Lp[0], ctx.from_int(ctx.p ** (ctx.N - 1)))] + Lp[1:]
    return FROBENIUS_TERMS(ctx, Lp, ys)


def _no_last_term(ctx, Lp, ys):
    """frobenius_terms without the term j = N - 1, D^(N - 1)."""
    width, size, terms = FROBENIUS_TERMS(ctx, Lp, ys)
    return width, size, terms[:-1] + [[0] * len(terms[-1])]


FROBENIUS_TERMS = dense.frobenius_terms


@pytest.mark.parametrize("fault", [_offset_D, _no_last_term])
@pytest.mark.parametrize("p,N,m", DIGIT_CONTEXTS)
def test_a_planted_digit_fault_changes_a_window(p, N, m, fault, monkeypatch):
    """D = p E off by p^(N - 1) in one coefficient, or the last term of the
    truncation dropped, changes some read.  (E off by p^(N - 1) would be
    D off by p^N = 0: the digit terms need E only mod p^(N - 1).)"""
    monkeypatch.setattr(hasse_witt, "EXPAND_DEGREE", 0)
    monkeypatch.setattr(dense, "frobenius_terms", fault)
    ctx = dl.ctx_new(p, N, m)
    assert any(read() != want for read, want in _digit_reads(
        ctx, seeded(300 + 10 * p + m)))


# ---------------------------------------------------------------------------
# what the pointwise statements do, counted


KIT_READS = ("A", "coeffs", "dA", "d2A", "frame", "frame_derivative")
QUOTIENT_READS = {"dA", "d2A", "frame", "frame_derivative"}


class _Counts:
    """Counts of one statement run over its point kits: divisions, PadicCtx
    inversions inside frame derivatives, the length of every
    ``dense_from_roots`` output, every kit, and per (kit, form, twist) the
    kit reads in order."""

    def __init__(self, monkeypatch):
        self.divisions = self.inversions = 0
        self.kits, self.reads, self.expansions = [], defaultdict(list), []
        self._in_derivative = False
        init, inv = PointKit.__init__, PadicCtx.inv
        div, from_roots = dense.dense_div_linear, dense.dense_from_roots

        def kit_init(kit, *args, **kwargs):
            init(kit, *args, **kwargs)
            self.kits.append(kit)

        def counted_inv(ctx, x):
            self.inversions += self._in_derivative
            return inv(ctx, x)

        def counted_div(*args):
            self.divisions += 1
            return div(*args)

        def measured_from_roots(*args):
            out = from_roots(*args)
            self.expansions.append(len(out))
            return out

        monkeypatch.setattr(PointKit, "__init__", kit_init)
        monkeypatch.setattr(PadicCtx, "inv", counted_inv)
        monkeypatch.setattr(dense, "dense_div_linear", counted_div)
        monkeypatch.setattr(dense, "dense_from_roots", measured_from_roots)
        for name in KIT_READS:
            monkeypatch.setattr(PointKit, name, self._logged(name))

    def _logged(self, name):
        method = getattr(PointKit, name)
        signature = inspect.signature(method)

        def logged(kit, *args, **kwargs):
            bound = signature.bind(kit, *args, **kwargs).arguments
            key = id(kit), bound["F"].factored, bound.get("twist", 0)
            self.reads[key].append(name)
            self._in_derivative = name == "frame_derivative"
            try:
                return method(kit, *args, **kwargs)
            finally:
                self._in_derivative = False
        return logged

    def quotient_forms(self):
        """The (kit, form, twist) keys read for quotients, each with the
        kit reads made on it in order."""
        return {key: names for key, names in self.reads.items()
                if QUOTIENT_READS & set(names)}

    def check_expansions(self):
        """No kit expands a power of L past the base rule or keeps a
        factored form's expansion, and every ``dense_from_roots`` output is
        a linear product or a cofactor: e - b < p + 2 per factor."""
        for kit in self.kits:
            assert expanded_past_the_base_rule(kit) == []
            assert not kit._store
        kit = self.kits[0]
        assert max(self.expansions) <= (kit.ctx.p + 1) * kit.n + 1


def _kz(p, N, g, m):
    ctx = dl.ctx_new(p, N, m)
    return ctx, dl.KZConfig(ctx, g)


@cache
def _quotient_statements():
    """name -> run of the statements that read quotients, at small
    configurations."""
    ctx, cfg = _kz(5, 4, 2, 2)
    (pt,) = dl.sample_domain_points(5, 2, 2, 1, 8, ctx)
    points = [pt.lift]
    tup = dl.kz_tuple(cfg)
    ctx1, cfg1 = _kz(5, 4, 1, 2)
    lim = limits.nth_domain_point(5, 1, 2, 0, 0, ctx1)
    return {
        "coS": lambda: dl.verify_solution_congruence(cfg, 2, points),
        "residual": lambda: dl.kz_residual(cfg, 2, points=points),
        "der": lambda: dl.verify_derivative_congruence(
            tup, 2, m=1, v=2, points=points),
        "der2": lambda: dl.verify_second_derivative_congruence(
            tup, 2, u=1, v=2, points=points),
        "der2-diagonal": lambda: dl.verify_second_derivative_congruence(
            tup, 2, u=3, v=3, points=points),
        "limit": lambda: limits.limit_report(cfg1, lim, 3),
        "rank-frame": lambda: limits._frame(cfg1, 1, PointKit(
            ctx1, cfg1.delta, lim.lift)),
    }


@pytest.mark.parametrize("name", ["coS", "residual", "der", "der2",
                                  "der2-diagonal", "limit", "rank-frame"])
def test_quotient_statements_divide_nothing_past_the_base_rule(
        name, monkeypatch):
    """Each statement that reads quotients runs no synthetic division, its
    frame derivatives invert nothing, and no kit expands a power of L past
    the base rule: every other expansion is a linear product or a
    cofactor."""
    counts = _Counts(monkeypatch)
    _quotient_statements()[name]()
    assert counts.divisions == 0
    assert counts.inversions == 0
    assert counts.quotient_forms()
    counts.check_expansions()


@pytest.mark.parametrize("theorem", ["ratio", "det"])
def test_ratio_and_det_read_A_within_the_base_rule(theorem, monkeypatch):
    ctx, cfg = _kz(5, 4, 2, 2)
    (pt,) = dl.sample_domain_points(5, 2, 2, 1, 8, ctx)
    verify = {"ratio": dl.verify_dwork_ratio,
              "det": dl.verify_det_congruence}[theorem]
    counts = _Counts(monkeypatch)
    assert verify(dl.kz_tuple(cfg), 3, points=[pt.lift]).passed
    assert counts.kits and counts.divisions == 0
    assert counts.quotient_forms() == {}
    counts.check_expansions()
    assert all(any(memo is not None for _, memo in kit._windows.values())
               for kit in counts.kits)  # A(4, W_3) recursed


QUOTIENT_COMMANDS = [
    "kz-verify --check coS --p 7 --N 4 --g 2 --s 2",
    "kz-verify --check residual --p 7 --N 4 --g 2 --s 2",
    "congruence --theorem der --p 7 --N 4 --g 2 --s 2 --m 1 --v 2",
    "congruence --theorem der2 --p 7 --N 4 --g 2 --s 2 --u 1 --v 2",
    "limit --p 5 --N 4 --g 1 --point 0 --smax 3",
    "kz-verify --check minor --p 7 --N 4 --g 2 --s 1",
]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("argv", QUOTIENT_COMMANDS,
                         ids=lambda a: " ".join(a.split()[:3]))
def test_the_base_rule_changes_cost_never_results(argv, m, monkeypatch):
    """Each statement prints the same report, byte for byte, whether every
    power of L is read by digits where it can be (EXPAND_DEGREE = 0) or
    expanded outright."""
    argv = argv.split() + (["--m", str(m)] if argv.startswith("limit") else
                           ["--ext", str(m), "--points", "2", "--seed", "1"])

    def report():
        out = io.StringIO()
        assert run(argv, out=out) == 0
        return out.getvalue()

    reports = set()
    for limit in (0, EXPAND_DEGREE, 10**9):
        monkeypatch.setattr(hasse_witt, "EXPAND_DEGREE", limit)
        reports.add(report())
    assert len(reports) == 1


def test_a_divided_set_is_one_read_in_either_order(monkeypatch):
    """A frame derivative reads F/((t - z_i)(t - z_k)) as (i, k) and as
    (k, i), one quotient whatever the order, so both share one memo entry:
    one coS point at (5, 5, 3, 2) over F_25 holds 42 reads, where keys in
    the order of the divided set held 62."""
    counts = _Counts(monkeypatch)
    argv = "kz-verify --check coS --p 5 --N 5 --g 2 --s 3 --points 1 --ext 2"
    assert run(argv.split(), out=io.StringIO()) == 0
    (kit,) = counts.kits
    assert len(kit._reads) == 42


# ---------------------------------------------------------------------------
# twisted reads at a Teichmueller point: sigma-conjugates of the point's own


TWIST_CONTEXTS = [(5, 3, 2), (3, 3, 2), (3, 2, 3)]


def _twisted_reads(ctx, rng):
    """Every A and dA at levels 1 and 2 and every coefficient, at twists
    0..m + 1, of the forms of ``_forms`` and ``_digit_forms`` at a
    Teichmueller point, each form through a fresh kit; and the kits."""
    p, N, m = ctx.p, ctx.N, ctx.m
    forms = _forms(ctx, rng) + [(LaurentPoly.from_factors(ctx, 3, mults),
                                 (1, 2)) for mults in _digit_forms(p, N)]
    reads, kits = [], []
    for F, delta in forms:
        a = tuple(ctx.teichmueller(rand(ctx, rng)) for _ in range(F.n))
        kit = PointKit(ctx, delta, a)
        kits.append(kit)
        spots = list(range(-1, sum(e for _, e in F.factored) + 2))
        for twist in range(m + 2):
            reads.append(kit.coeffs(F, spots, twist))
            for level in (1, 2):
                reads.append(kit.A(level, F, twist))
                reads += [kit.dA(level, F, v, twist)
                          for v in range(1, F.n + 1)]
    return reads, kits


def _forced_reads(ctx, seed, monkeypatch):
    """``_twisted_reads`` with every twist read at the twisted point
    a^(p^j), as at a point that sigma^m does not fix."""
    with monkeypatch.context() as patch:
        patch.setattr(PointKit, "_twisted",
                      lambda kit, F, twist, read: read(kit.point(twist)))
        return _twisted_reads(ctx, seeded(seed))[0]


@pytest.mark.parametrize("p,N,m", TWIST_CONTEXTS)
def test_twisted_reads_at_a_teichmueller_point_are_sigma_conjugates(
        p, N, m, monkeypatch):
    """With the base rule lowered, so that the digit levels recurse, every
    twisted read at a Teichmueller point equals the read at the twisted
    point a^(p^j), and every read and digit level of a kit is keyed by the
    point's own root tuple."""
    monkeypatch.setattr(hasse_witt, "EXPAND_DEGREE", 0)
    ctx, seed = dl.ctx_new(p, N, m), 500 + 10 * p + m
    reads, kits = _twisted_reads(ctx, seeded(seed))
    assert reads == _forced_reads(ctx, seed, monkeypatch)
    for kit in kits:
        coordinates = set(kit.point(0))
        assert {key[2] for key in kit._reads} == {kit.point(0)}
        assert all(set(roots) <= coordinates for _, roots, _ in kit._windows)
    assert any(kit._digit_terms for kit in kits)  # the recursion ran


@pytest.mark.parametrize("fault", SIGMA_FAULTS)
@pytest.mark.parametrize("p,N,m", TWIST_CONTEXTS[:2])
def test_a_planted_sigma_fault_changes_a_twisted_read(p, N, m, fault,
                                                      monkeypatch):
    """sigma the identity, or sigma(x) off by p^(N - 1), changes some
    twisted read at m = 2 against the read at the twisted point, with the
    digit levels expanded (sigma read only by the twists) and recursing."""
    monkeypatch.setattr(PadicCtx, "_frobenius_x", fault)
    ctx, seed = dl.ctx_new(p, N, m), 500 + 10 * p + m
    for limit in (EXPAND_DEGREE, 0):
        monkeypatch.setattr(hasse_witt, "EXPAND_DEGREE", limit)
        reads = _twisted_reads(ctx, seeded(seed))[0]
        assert reads != _forced_reads(ctx, seed, monkeypatch)


def _limit_report():
    out = io.StringIO()
    run("limit --p 5 --N 5 --g 1 --m 2 --point 3 --smax 4".split(), out=out)
    return out.getvalue()


def test_limit_at_m2_reads_twists_as_sigma_conjugates(monkeypatch):
    """The limit report at m = 2, whose ratios read A(s - 1, Phi_(s - 1))
    at the twist, is the same byte for byte when the twist is read at the
    twisted point, and sigma the identity changes it (sigma(x) off by
    p^(N - 1) is below the valuations it shows)."""
    want = _limit_report()
    with monkeypatch.context() as patch:
        patch.setattr(PointKit, "_twisted",
                      lambda kit, F, twist, read: read(kit.point(twist)))
        assert _limit_report() == want
    monkeypatch.setattr(PadicCtx, "_frobenius_x", identity_x)
    assert _limit_report() != want


def test_a_point_off_the_teichmueller_lifts_reads_its_twist():
    """At a point that sigma^m does not fix, twisted reads go through the
    twisted point: its root tuple is memoized next to the point's."""
    ctx = dl.ctx_new(5, 3, 2)
    cfg = dl.KZConfig(ctx, 2)
    kit = PointKit(ctx, cfg.delta, tuple(rand(ctx, seeded(7))
                                         for _ in range(cfg.n)))
    assert kit.point(2) != kit.point(0)
    F = dl.master_polynomial(cfg, 2)
    assert kit.A(2, F, 1) == PointKit(ctx, cfg.delta, kit.point(1)).A(2, F)
    assert {key[2] for key in kit._reads} == {kit.point(1)}
