"""Each congruence is stated once and evaluated over a symbolic kit or over
point kits.  Evaluation at a point can only raise a valuation, and a fault
planted in the kits' matrices fails both modes."""

import pytest

import dworklab as dl
from dworklab.hasse_witt import PointKit, SymbolicKit

P, N, S, G = 3, 5, 3, 1

CHECKS = {
    "decomp": lambda cfg, tup, **kw: dl.verify_decomposition(tup, S, **kw),
    "1.6i": lambda cfg, tup, **kw: dl.verify_frobenius_factorization(
        tup, S, **kw),
    "1.6ii": lambda cfg, tup, **kw: dl.verify_dwork_ratio(tup, S, **kw),
    "det": lambda cfg, tup, **kw: dl.verify_det_congruence(tup, S, **kw),
    "der": lambda cfg, tup, **kw: dl.verify_derivative_congruence(
        tup, S, m=0, v=2, **kw),
    "der2": lambda cfg, tup, **kw: dl.verify_second_derivative_congruence(
        tup, S, u=1, v=3, **kw),
    "coS": lambda cfg, tup, **kw: dl.verify_solution_congruence(cfg, S, **kw),
    "residual": lambda cfg, tup, **kw: dl.kz_residual(cfg, S, **kw),
}


def _run(name, mode):
    """The check in one mode: symbolic over Z/p^N, pointwise at four
    o-domain points over the unramified extension of degree 2."""
    m = 1 if mode == "symbolic" else 2
    ctx = dl.ctx_new(P, N, m)
    cfg = dl.KZConfig(ctx, G)
    tup = dl.kz_tuple(cfg, length=S + 1, periodic=False)
    points = (None if mode == "symbolic" else
              [pt.lift for pt in dl.sample_domain_points(P, G, m, 4, 7, ctx)])
    return CHECKS[name](cfg, tup, mode=mode, points=points)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_symbolic_valuation_bounds_the_pointwise_one(name):
    sym, pw = _run(name, "symbolic"), _run(name, "pointwise")
    assert (sym.mode, sym.points, pw.mode, pw.points) == (
        "symbolic", None, "pointwise", 4)
    assert sym.claimed_valuation == pw.claimed_valuation
    assert sym.passed and pw.passed
    assert sym.observed_min_valuation <= pw.observed_min_valuation


@pytest.mark.parametrize("name", ["decomp", "1.6i", "1.6ii", "det"])
def test_planted_fault_fails_both_modes(name, monkeypatch):
    """Kits whose A(s+1, W_s) has p^(claimed-1) added to entry [0][0]."""
    target = dl.master_polynomial(dl.KZConfig(dl.ctx_new(P, N), G), S + 1)
    for cls in (SymbolicKit, PointKit):
        def faulty(kit, level, F, twist=0, real=cls.A):
            out = [list(row) for row in real(kit, level, F, twist)]
            if (level, twist, getattr(F, "factored", None)) == (
                    S + 1, 0, target.factored):
                claimed = N if name == "decomp" else 1 if name == "1.6i" else S
                shift = kit.ring.scal(kit.ctx.from_int(P ** (claimed - 1)),
                                      kit.ring.one)
                out[0][0] = kit.ring.add(out[0][0], shift)
            return out
        monkeypatch.setattr(cls, "A", faulty)
    for mode in ("symbolic", "pointwise"):
        rep = _run(name, mode)
        assert rep.verdict == "fail"
        assert rep.observed_min_valuation == rep.claimed_valuation - 1
        assert rep.witness["entry"] == ("det" if name == "det" else [0, 0])
