"""Point-kit reads as windows of one split per (form, point).

At a point a, a factored F = prod (t - z_i)^e_i is kept as one split
F(t, a) = R^2 c, R = prod (t - a_i)^floor(max(e_i - h, 0) / 2), with the
squares of R formed where read.  Every read is a window of those squares
against the cofactor c less the divided factors: with h = 2 each frame
row, frame derivative row, dA, d2A and A, with h = 0 (c of degree at most
n) A and ``coeffs`` of a form whose quotients are not read.  A statement
that reads quotients of F declares it (``reads_quotients``) before its first
read, so that A comes off the h = 2 split its quotients need and F has no
second split; the declaration changes what is built, never a report.
These tests check every read against synthetic division of the full
expansion (``oracle_quotient_coeffs``), and count what the pointwise
statements do: no division, no inversion in a frame derivative, one h = 2
split per (form, point) read for quotients and no longer expansion, while
ratio and det read A off h = 0 splits only.
"""

import inspect
import io
from collections import defaultdict
from functools import cache

import pytest

import dworklab as dl
from dworklab import dense, limits
from dworklab.cli import run
from dworklab.errors import NotDivisible
from dworklab.hasse_witt import (
    DenseCache,
    PointKit,
    hw_derivative_at,
    hw_indices,
)
from dworklab.laurent import LaurentPoly
from dworklab.padic import PadicCtx
from conftest import seeded
from oracles import (
    coeff_mul,
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
def test_a_split_keeps_only_the_squares_its_windows_read(g):
    """A(4, Phi_4) at p = 7 reads g^2 coefficients of R^2 c, R of degree
    d = 600 n: the memo holds at most g^2 len(c) squares, not 2d + 1."""
    ctx = dl.ctx_new(7, 2, 1)
    cfg = dl.KZConfig(ctx, g)
    F, rng = dl.master_polynomial(cfg, 4), seeded(g)
    a = tuple(rand(ctx, rng) for _ in range(cfg.n))
    cache = DenseCache()
    indices = hw_indices(7, 4, cfg.delta)
    assert cache.quotient_coeffs(F, a, indices) == sum(
        dl.hw_matrix_at(4, F, cfg.delta, a), [])
    ((squares, _, _),) = cache._splits.values()
    (c,) = cache._cofactor.values()
    assert squares.d == 600 * cfg.n
    assert 0 < len(squares.S) <= g * g * len(c) < 2 * squares.d + 1


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
                    kit.reads_quotients(F, twist)
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


# ---------------------------------------------------------------------------
# what the pointwise statements do, counted


KIT_READS = ("reads_quotients", "A", "coeffs", "dA", "d2A", "frame",
             "frame_derivative")
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


def _kz(p, N, g, m):
    ctx = dl.ctx_new(p, N, m)
    return ctx, dl.KZConfig(ctx, g)


@cache
def _quotient_statements():
    """name -> (run, h = 2 splits per kit) of the statements that read
    quotients, at small configurations."""
    ctx, cfg = _kz(5, 4, 2, 2)
    (pt,) = dl.sample_domain_points(5, 2, 2, 1, 8, ctx)
    points = [pt.lift]
    tup = dl.kz_tuple(cfg)
    ctx1, cfg1 = _kz(5, 4, 1, 2)
    lim = limits.nth_domain_point(5, 1, 2, 0, 0, ctx1)
    return {
        "coS": (lambda: dl.verify_solution_congruence(cfg, 2, points), 2),
        "residual": (lambda: dl.kz_residual(cfg, 2, points=points), 1),
        "der": (lambda: dl.verify_derivative_congruence(
            tup, 2, m=1, v=2, points=points), 2),
        "der2": (lambda: dl.verify_second_derivative_congruence(
            tup, 2, u=1, v=2, points=points), 2),
        "der2-diagonal": (lambda: dl.verify_second_derivative_congruence(
            tup, 2, u=3, v=3, points=points), 2),
        "limit": (lambda: limits.limit_report(cfg1, lim, 3), 3),
        "rank-frame": (lambda: limits._frame(cfg1, 1, PointKit(
            ctx1, cfg1.delta, lim.lift)), 1),
    }


@pytest.mark.parametrize("name", ["coS", "residual", "der", "der2",
                                  "der2-diagonal", "limit", "rank-frame"])
def test_quotient_statements_expand_one_base_and_divide_nothing(
        name, monkeypatch):
    """Each statement that reads quotients declares a form to its kit
    before any other read of that form, so A comes off the form's one
    h = 2 split, and the form has no h = 0 split and no expansion besides.
    No ``dense_from_roots`` output is longer than a cofactor (degree at most
    3n) but the splits' R themselves; the statement runs no synthetic
    division, and its frame derivatives invert nothing."""
    run, splits = _quotient_statements()[name]
    counts = _Counts(monkeypatch)
    run()
    assert counts.divisions == 0
    assert counts.inversions == 0
    quotient_forms = counts.quotient_forms()
    assert quotient_forms
    for key, names in quotient_forms.items():
        assert names[0] == "reads_quotients", (name, key, names)
    lengths = []
    for kit in counts.kits:
        assert [h for _, h in kit._splits].count(2) == splits
        assert len(kit._divided) == splits
        for key in kit._divided:
            assert (key, 2) in kit._splits, name
            assert (key, 0) not in kit._splits and key not in kit._store
        lengths += [squares.d + 1 for squares, _, _ in kit._splits.values()]
    cofactor = 3 * counts.kits[0].n + 1
    assert sorted(n for n in counts.expansions if n > cofactor) == sorted(
        n for n in lengths if n > cofactor)


@pytest.mark.parametrize("theorem", ["ratio", "det"])
def test_ratio_and_det_read_A_off_the_half_split(theorem, monkeypatch):
    ctx, cfg = _kz(5, 4, 2, 2)
    (pt,) = dl.sample_domain_points(5, 2, 2, 1, 8, ctx)
    verify = {"ratio": dl.verify_dwork_ratio,
              "det": dl.verify_det_congruence}[theorem]
    counts = _Counts(monkeypatch)
    assert verify(dl.kz_tuple(cfg), 3, points=[pt.lift]).passed
    assert counts.kits and counts.divisions == 0
    assert counts.quotient_forms() == {}
    for kit in counts.kits:
        assert kit._splits and {h for _, h in kit._splits} == {0}
        assert not kit._divided and not kit._store


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
def test_the_declaration_changes_cost_never_results(argv, m, monkeypatch):
    """Each statement that declares the forms it reads quotients of prints
    the same report, byte for byte, when the declaration does nothing, and
    its A reads come off h = 0 splits built besides."""
    argv = argv.split() + (["--m", str(m)] if argv.startswith("limit") else
                           ["--ext", str(m), "--points", "2", "--seed", "1"])

    def report():
        out = io.StringIO()
        assert run(argv, out=out) == 0
        return out.getvalue()

    declared = report()
    monkeypatch.setattr(PointKit, "reads_quotients",
                        lambda kit, F, twist=0: F)
    assert report() == declared
