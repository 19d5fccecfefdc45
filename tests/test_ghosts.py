import itertools

import pytest

import dworklab as dl
from dworklab import ghosts
from dworklab.errors import IndexOutOfRange, PrecisionTooLow, UnsupportedArity
from dworklab.ghosts import AdmissibleTuple, check_admissible
from dworklab.laurent import LaurentPoly, TBox
from conftest import PlantedGhostFault, rand_admissible_tuple, seeded
from oracles import oracle_constant_ok


def const_tuple(ctx, n, value, length):
    lam = LaurentPoly.const(ctx, 1, n, value)
    return AdmissibleTuple([lam] * length, (0,), periodic=False)


def test_big_product_examples():
    ctx = dl.ctx_new(3, 3, 1)
    cfg = dl.KZConfig(ctx, 1)
    tup = dl.kz_tuple(cfg, length=3)
    F = dl.master_polynomial(cfg, 1)
    assert tup.W(2, 2).factored == F.factored
    # constant tuple: W_s = c^(1 + p + ... + p^s)
    ctup = const_tuple(ctx, 1, 2, 3)
    W2 = ctup.W(2, 0)
    assert W2 == LaurentPoly.const(ctx, 1, 1, pow(2, 1 + 3 + 9, 27))
    # (F, F, ...): W_{s-1} built from index 0 equals Phi_s
    phi3 = dl.master_polynomial(cfg, 3)
    assert tup.W(2, 0).factored == phi3.factored
    with pytest.raises(IndexOutOfRange):
        tup.W(5, 0)
    with pytest.raises(IndexOutOfRange):
        tup.W(2, 3)


def test_ghost_base_cases():
    ctx = dl.ctx_new(3, 3, 1)
    cfg = dl.KZConfig(ctx, 1)
    tup = dl.kz_tuple(cfg, length=3)
    gs = dl.ghost_sequence(tup, 2)
    F = dl.master_polynomial(cfg, 1)
    assert gs.V[0] == LaurentPoly(ctx, 1, 3, dict(F.terms))
    # V_1 = F (F^p - sigma F)
    Ft = LaurentPoly(ctx, 1, 3, dict(F.terms))
    v1 = Ft * (Ft**3 - Ft.frobenius_sub(1))
    assert gs.V[1] == v1
    assert gs.min_vals[1] >= 1 and gs.min_vals[2] >= 2

    ones = const_tuple(ctx, 1, 1, 4)
    gs1 = dl.ghost_sequence(ones, 3)
    assert gs1.V[0] == LaurentPoly.one(ctx, 1, 1)
    assert all(v.is_zero() for v in gs1.V[1:])


def test_ghost_precision_guard():
    ctx = dl.ctx_new(3, 1, 1)
    cfg = dl.KZConfig(ctx, 1)
    tup = dl.kz_tuple(cfg, length=3)
    with pytest.raises(PrecisionTooLow):
        dl.ghost_sequence(tup, 2)


def test_ghost_divisibility_randomized():
    rng = seeded(42)
    for _ in range(10):
        tup = rand_admissible_tuple(rng)
        l = len(tup.lams) - 1
        gs = dl.ghost_sequence(tup, l)
        for s, v in enumerate(gs.min_vals):
            assert v >= min(s, tup.ctx.N)


def test_ghost_sequence_reports_planted_divisibility_failure():
    ctx = dl.ctx_new(3, 3, 1)
    F = dl.master_polynomial(dl.KZConfig(ctx, 1), 1)
    Ft = LaurentPoly(ctx, 1, 3, dict(F.terms))
    honest = dl.ghost_sequence(AdmissibleTuple([Ft, Ft], (1,)), 1)
    planted = dl.ghost_sequence(PlantedGhostFault([Ft, Ft], (1,)), 1)
    assert honest.min_vals[1] >= 1
    assert planted.min_vals == [0, 0]


def test_ghost_newton_box_inclusion():
    rng = seeded(43)
    for _ in range(8):
        tup = rand_admissible_tuple(rng, p=3)
        l = len(tup.lams) - 1
        gs = dl.ghost_sequence(tup, l)
        p = tup.ctx.p
        for s in range(l + 1):
            if gs.V[s].is_zero():
                continue
            box = gs.V[s].newton_box()
            lo = sum(p**k * tup.lam(k).newton_box().lo[0] for k in range(s + 1))
            hi = sum(p**k * tup.lam(k).newton_box().hi[0] for k in range(s + 1))
            assert lo <= box.lo[0] and box.hi[0] <= hi


def test_ghost_reconstruction_exact():
    rng = seeded(44)
    for _ in range(6):
        tup = rand_admissible_tuple(rng)
        l = len(tup.lams) - 1
        gs = dl.ghost_sequence(tup, l)
        for s in range(l + 1):
            w = tup.W(s, 0)
            w = LaurentPoly(tup.ctx, w.r, w.n, dict(w.terms))
            acc = gs.V[s]
            for j in range(1, s + 1):
                acc = acc + gs.V[j - 1] * tup.W(s, j).frobenius_sub(j)
            assert acc == w


def test_check_admissible_examples():
    # wide example tuple is admissible for every window length
    for p in (3, 5, 7):
        cert = check_admissible(
            [TBox((-(p - 1) // 2,), (3 * (p - 1) // 2,))],
            (0, 1), p=p, periodic=True,
        )
        assert cert.ok and cert.complete
    # the KZ interval [0, gp + (p-1)/2 - g]
    for p, g in [(3, 1), (5, 1), (5, 2), (7, 2)]:
        hi = g * p + (p - 1) // 2 - g
        cert = check_admissible(
            [TBox((0,), (hi,))], tuple(range(1, g + 1)), p=p, periodic=True,
        )
        assert cert.ok and cert.complete
    # spec counterexample: Delta = {1}, N = [0, p^2], p = 3
    cert = check_admissible([TBox((0,), (9,))], (1,), p=3, periodic=True)
    assert not cert.ok
    assert cert.witness["window_length"] == 1
    assert cert.witness["q"][0] in (2, 3)


def test_all_window_check_matches_exact_rationals():
    """The constant tuple's limit q-ranges, found by integer division,
    agree with the exact-rational reference over a grid of boxes and
    Deltas."""
    deltas = [dl for k in (1, 2)
              for dl in itertools.combinations(range(-3, 4), k)]
    for p in (3, 5, 7):
        for lo in range(-12, 13):
            for hi in range(lo, 13):
                box = TBox((lo,), (hi,))
                for dl in deltas:
                    ok, w, witness = oracle_constant_ok(
                        box, tuple((d,) for d in dl), p)
                    assert check_admissible([box], dl, p, periodic=True) == (
                        ok, True, w, witness), (p, box, dl)


def test_check_admissible_finite_windows():
    # finite tuples check all windows 0 <= i <= j < l
    cert = check_admissible(
        [TBox((0,), (2,)), TBox((0,), (2,)), TBox((0,), (100,))],
        (0,), p=3, periodic=False,
    )
    # the huge last box never appears in a window sum (j < l), windows use
    # boxes 0 and 1 only
    assert cert.ok
    cert2 = check_admissible(
        [TBox((0,), (9,)), TBox((0,), (0,)), TBox((0,), (0,))],
        (1,), p=3, periodic=False,
    )
    assert not cert2.ok


def test_admissibility_witness_is_the_first_missing_lattice_point(monkeypatch):
    """The q-box of a window is walked in lexicographic order, the last
    coordinate fastest, and refused past ENUM_CAP points."""
    boxes = [TBox((0, 0), (5, 5))] * 2  # one window, q in {0, 1}^2
    for delta, first in ((((0, 0),), (0, 1)), (((0, 0), (0, 1)), (1, 0))):
        cert = check_admissible(boxes, delta, p=3, periodic=False)
        assert not cert.ok and cert.witness["q"] == first
        cert = check_admissible(boxes[:1], delta, p=3, periodic=True)
        assert cert.witness == {"window_length": 1, "delta": (0, 0),
                                "q": first}
    monkeypatch.setattr(ghosts, "ENUM_CAP", 3)
    for periodic in (False, True):
        with pytest.raises(UnsupportedArity):
            check_admissible(boxes, ((0, 0),), p=3, periodic=periodic)


def test_subtuple_admissibility():
    rng = seeded(45)
    for _ in range(10):
        tup = rand_admissible_tuple(rng)
        boxes = [lam.newton_box() for lam in tup.lams]
        l = len(boxes) - 1
        for i in range(l + 1):
            for j in range(i, l + 1):
                cert = check_admissible(
                    boxes[i:j + 1], tup.delta, p=tup.ctx.p, periodic=False
                )
                assert cert.ok


def test_admissible_tuple_w_cache():
    ctx = dl.ctx_new(3, 3, 1)
    cfg = dl.KZConfig(ctx, 1)
    tup = dl.kz_tuple(cfg, length=3)
    first = tup.W(2, 1)
    assert tup.W(2, 1) is first
