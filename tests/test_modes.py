"""Each congruence is stated once and evaluated over a symbolic kit or over
point kits.  Evaluation at a point can only raise a valuation, and a fault
planted in the kits' matrices fails both modes."""

import io
import json

import pytest

import dworklab as dl
from dworklab import dwork, kz
from dworklab.cli import run
from dworklab.errors import ConfigError, SizeCapExceeded
from dworklab.hasse_witt import PointKit, SymbolicKit

P, N, S, G = 3, 5, 3, 1

CHECKS = {
    "decomp": lambda cfg, tup, s, **kw: dl.verify_decomposition(tup, s, **kw),
    "1.6i": lambda cfg, tup, s, **kw: dl.verify_frobenius_factorization(
        tup, s, **kw),
    "1.6ii": lambda cfg, tup, s, **kw: dl.verify_dwork_ratio(tup, s, **kw),
    "det": lambda cfg, tup, s, **kw: dl.verify_det_congruence(tup, s, **kw),
    "der": lambda cfg, tup, s, **kw: dl.verify_derivative_congruence(
        tup, s, m=0, v=2, **kw),
    "der2": lambda cfg, tup, s, **kw: dl.verify_second_derivative_congruence(
        tup, s, u=1, v=3, **kw),
    "coS": lambda cfg, tup, s, **kw: dl.verify_solution_congruence(
        cfg, s, **kw),
    "residual": lambda cfg, tup, s, **kw: dl.kz_residual(cfg, s, **kw),
}


def _run(name, mode, p=P, N=N, s=S, g=G):
    """The check in one mode: symbolic over Z/p^N, pointwise at four
    o-domain points over the unramified extension of degree 2."""
    m = 1 if mode == "symbolic" else 2
    ctx = dl.ctx_new(p, N, m)
    cfg = dl.KZConfig(ctx, g)
    tup = dl.kz_tuple(cfg, length=s + 1)
    points = (None if mode == "symbolic" else
              [pt.lift for pt in dl.sample_domain_points(p, g, m, 4, 7, ctx)])
    return CHECKS[name](cfg, tup, s, points=points)


@pytest.mark.parametrize("name,config", [
    *(pytest.param(name, (P, N, S, G), id=name) for name in sorted(CHECKS)),
    # past the full-expansion gate, within the gate on the entries read
    *(pytest.param(name, (3, 6, 4, 1), id=f"{name}-s4") for name in
      ("1.6ii", "det")),
])
def test_symbolic_valuation_bounds_the_pointwise_one(name, config):
    sym, pw = _run(name, "symbolic", *config), _run(name, "pointwise", *config)
    assert (sym.mode, sym.points, pw.mode, pw.points) == (
        "symbolic", None, "pointwise", 4)
    assert sym.claimed_valuation == pw.claimed_valuation
    assert sym.passed and pw.passed
    assert sym.observed_min_valuation <= pw.observed_min_valuation


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_the_read_budget_refuses_before_any_product(name, kit_log,
                                                    monkeypatch):
    """A statement reads all its entries before its first product, so with
    the cap one term below the job's charge T the kit refuses it at its last
    read, and no product is formed after the kit is made."""
    assert _run(name, "symbolic").passed
    (kit,) = [x for x in kit_log if isinstance(x, SymbolicKit)]
    total = kit.charged
    for module in (dwork, kz):
        monkeypatch.setattr(module, "SYMBOLIC_READ_CAP", total - 1)
    kit_log.clear()
    with pytest.raises(SizeCapExceeded,
                       match=f"{total} terms, past the cap of {total - 1};"):
        _run(name, "symbolic")
    (kit,) = [x for x in kit_log if isinstance(x, SymbolicKit)]
    assert "product" not in kit_log[kit_log.index(kit):]


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
                shift = kit.ring.scal(P ** (claimed - 1), kit.ring.one)
                out[0][0] = kit.ring.add(out[0][0], shift)
            return out
        monkeypatch.setattr(cls, "A", faulty)
    for mode in ("symbolic", "pointwise"):
        rep = _run(name, mode)
        assert rep.verdict == "fail"
        assert rep.observed_min_valuation == rep.claimed_valuation - 1
        assert rep.witness["entry"] == ("det" if name == "det" else [0, 0])


@pytest.mark.parametrize("name,method", [("der", "dA"), ("der2", "d2A")])
def test_planted_derivative_fault_fails_both_modes(name, method, monkeypatch):
    """Kits whose z-derivative of A(s+1, W_s) has p^(claimed-1) added to
    entry [0][0].  The fault enters the cleared difference as row 0 of
    p^(claimed-1) adj(A) det A(s, W_(s-1)), and adj(A) is invertible, so
    row 0 holds the witness."""
    claimed = S  # der at m = 0 and der2 both claim p^s
    target = dl.master_polynomial(dl.KZConfig(dl.ctx_new(P, N), G), S + 1)
    for cls in (SymbolicKit, PointKit):
        def faulty(kit, level, F, *args, real=getattr(cls, method), **kw):
            out = [list(row) for row in real(kit, level, F, *args, **kw)]
            if (level, F.factored) == (S + 1, target.factored):
                shift = kit.ring.scal(P ** (claimed - 1), kit.ring.one)
                out[0][0] = kit.ring.add(out[0][0], shift)
            return out
        monkeypatch.setattr(cls, method, faulty)
    for mode in ("symbolic", "pointwise"):
        rep = _run(name, mode)
        assert rep.verdict == "fail"
        assert rep.claimed_valuation == claimed
        assert rep.observed_min_valuation == claimed - 1
        assert rep.witness["entry"][0] == 0


def test_planted_slice_fault_fails_decomp_in_both_modes(monkeypatch):
    """Kits whose read of W_s^(1) for the ghost recursion has p^(N-1) added
    to its first slice: only the ghost block A(s+1, V_s) sees it."""
    target = dl.master_polynomial(dl.KZConfig(dl.ctx_new(P, N), G), S)
    for cls in (SymbolicKit, PointKit):
        def faulty(kit, F, indices, twist=0, real=cls.coeffs):
            out = real(kit, F, indices, twist)
            if (twist, F.factored) == (1, target.factored):
                shift = kit.ring.scal(P ** (N - 1), kit.ring.one)
                out[0] = kit.ring.add(out[0], shift)
            return out
        monkeypatch.setattr(cls, "coeffs", faulty)
    for mode in ("symbolic", "pointwise"):
        rep = _run("decomp", mode)
        assert rep.verdict == "fail"
        assert rep.observed_min_valuation == N - 1


def test_planted_ghost_divisibility_fault_fails_decomp(monkeypatch):
    """Kits whose ghost block A(s+1, V_s) and A(s+1, W_s) both have
    p^(s-1) added to entry [0][0]: the decomposition identity still holds,
    the ghost divisibility A(s+1, V_s) = 0 mod p^s does not.  The verdict
    once gated the identity alone and passed, and then failed with no
    witness; the witness is now the block's entry."""
    target = dl.master_polynomial(dl.KZConfig(dl.ctx_new(P, N), G), S + 1)

    def shifted(kit, x):
        return kit.ring.add(x, kit.ring.scal(P ** (S - 1), kit.ring.one))

    def blocks(kit, tup, *plan, real=dwork._ghost_blocks):
        out = real(kit, tup, *plan)
        out[S][0][0] = shifted(kit, out[S][0][0])
        return out

    monkeypatch.setattr(dwork, "_ghost_blocks", blocks)
    for cls in (SymbolicKit, PointKit):
        def faulty(kit, level, F, twist=0, real=cls.A):
            out = [list(row) for row in real(kit, level, F, twist)]
            if (level, twist, getattr(F, "factored", None)) == (
                    S + 1, 0, target.factored):
                out[0][0] = shifted(kit, out[0][0])
            return out
        monkeypatch.setattr(cls, "A", faulty)
    argv = ["congruence", "--theorem", "decomp", "--p", str(P), "--N", str(N),
            "--s", str(S), "--g", str(G)]
    for mode, flags in (("symbolic", ["--symbolic"]),
                        ("pointwise", ["--points", "4", "--ext", "2"])):
        rep = _run("decomp", mode)
        assert rep.verdict == "fail"
        assert rep.observed_min_valuation == rep.claimed_valuation == N
        assert rep.extra["ghost_block_valuation"] == S - 1
        assert rep.witness["entry"] == [0, 0]
        out = io.StringIO()
        assert run(argv + flags, out=out) == 1
        printed = json.loads(out.getvalue())
        assert printed["verdict"] == "fail"
        assert printed["witness"]["entry"] == [0, 0]


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_modes_refuse_what_they_would_ignore(name):
    """An empty list of points would pass vacuously, so it is refused."""
    ctx = dl.ctx_new(P, N, 2)
    cfg = dl.KZConfig(ctx, G)
    tup = dl.kz_tuple(cfg, length=S + 1)
    with pytest.raises(ConfigError, match="at least one point"):
        CHECKS[name](cfg, tup, S, points=[])


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_a_check_given_no_points_is_symbolic(name):
    """The points decide the mode: every check called without them runs
    symbolically, coS too (it once defaulted to pointwise and refused)."""
    cfg = dl.KZConfig(dl.ctx_new(P, N), G)
    rep = CHECKS[name](cfg, dl.kz_tuple(cfg, length=S + 1), S)
    assert (rep.mode, rep.points, rep.passed) == ("symbolic", None, True)


@pytest.mark.parametrize("divisors,witness,config", [
    pytest.param(divisors, witness, config, id=name + suffix)
    for config, suffix in (((P, N, S), ""), ((3, 6, 4), "-s4"))
    for name, divisors, witness in (
        # Q_2 enters identity (1) first
        ("Q2", (2,), {"identity": 1}),
        # D_23 enters row 2 of direction 2 (through e D_23) before row 3
        ("D23", (2, 3), {"identity": 2, "direction": 2, "row": 2}),
    )
])
def test_planted_slice_fault_fails_phi(divisors, witness, config, monkeypatch):
    """A flat read of Phi_s over the (t - z_i), i in divisors, with
    p^(N-1) added to one coefficient of its t^0 slice: that of
    prod_i z_i^(e_i), at flat index sum_i e_i base^(i-1).  D_ii is left
    alone: it enters only through e - 1, of valuation 1 at p = 3, which
    kills such a fault."""
    p, prec, s = config
    cfg = dl.KZConfig(dl.ctx_new(p, prec), G)
    target = dl.master_polynomial(cfg, s)
    for i in divisors:
        target = target.synth_div_linear(z_index=i)

    def faulty(F, base, real=kz._flat):
        out = real(F, base)
        if F.factored == target.factored:
            out[sum(e * base ** (i - 1) for i, e in F.factored)] += (
                p ** (prec - 1))
        return out

    monkeypatch.setattr(kz, "_flat", faulty)
    rep = dl.verify_phi_identities(cfg, s)
    assert rep.verdict == "fail"
    assert rep.observed_min_valuation == prec - 1
    assert rep.witness == witness


@pytest.mark.parametrize("name,level,row,part", [
    ("residual", S, 0, {"direction": 1}),
    ("coS", S + 1, 1, {"part": "frame"}),
])
def test_planted_frame_fault_fails_both_modes(name, level, row, part,
                                              monkeypatch):
    """Kits whose level frame has p^(s-1) added to entry [row][0]; both
    checks claim p^s.  coS clears I_(s+1) A(s+1)^-1 by det A(s) det A(s+1),
    which keeps the fault in its row.  The residual's Gaudin action puts
    I_1 - I_k in row 0 of direction 1 for every k, so a fault in row 0
    shows there first."""
    target = dl.master_polynomial(dl.KZConfig(dl.ctx_new(P, N), G), level)
    for cls in (SymbolicKit, PointKit):
        def faulty(kit, F, indices, real=cls.frame):
            out = [list(row) for row in real(kit, F, indices)]
            if F.factored == target.factored:
                shift = kit.ring.scal(P ** (S - 1), kit.ring.one)
                out[row][0] = kit.ring.add(out[row][0], shift)
            return out
        monkeypatch.setattr(cls, "frame", faulty)
    for mode in ("symbolic", "pointwise"):
        rep = _run(name, mode)
        assert rep.verdict == "fail"
        assert (rep.claimed_valuation, rep.observed_min_valuation) == (S, S - 1)
        assert rep.witness["entry"] == [row, 0]
        assert rep.witness.items() >= part.items()
