"""Executable verifiers for the Dwork-type congruences of Hasse-Witt tuples.

Each verifier returns a :class:`CongruenceReport` with the claimed modulus
exponent and the observed minimum deviation valuation.  Two modes exist:

* symbolic: the congruence is checked as an identity of z-polynomial
  matrices, with inverse matrices eliminated by Cramer clearing  (X M^-1
  and Y K^-1 agree mod p^s iff X adj(M) det(K) = Y adj(K) det(M) mod p^s,
  valid because the determinants are nonzero mod p); gated by a term cap.
* pointwise: everything is specialized at supplied points; determinants are
  units there, so plain matrix inverses over Z/p^N apply.  The sigma twist
  acts on points as a -> a^p.

Claimed valuations come verbatim from the congruence statements; observed
valuations are never rounded up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import dense, ringmat
from .errors import (
    ConfigError,
    DegenerateTuple,
    InvalidParameter,
    PrecisionTooLow,
    SizeCapExceeded,
)
from .hasse_witt import (
    DenseCache,
    check_direction,
    hw_det,
    hw_from_dense,
    hw_matrix,
    hw_partial_z,
    hw_second_derivative_at,
    hw_sigma,
    hw_derivative_at,
)

SYMBOLIC_TERM_GATE = 300_000


@dataclass
class CongruenceReport:
    """Machine-readable verdict for one congruence check."""

    theorem_id: str
    description: str
    mode: str
    claimed_valuation: int
    observed_min_valuation: int
    verdict: str
    precision: int
    witness: dict | None = None
    points: int | None = None
    config: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict == "pass"

    def to_json(self):
        return {
            "theorem_id": self.theorem_id,
            "description": self.description,
            "mode": self.mode,
            "claimed_valuation": self.claimed_valuation,
            "observed_min_valuation": self.observed_min_valuation,
            "verdict": self.verdict,
            "precision": self.precision,
            "witness": self.witness,
            "points": self.points,
            "config": self.config,
            "extra": self.extra,
        }


def _finish(theorem_id, description, mode, claimed, observed, N,
            witness=None, points=None, config=None, extra=None):
    return CongruenceReport(
        theorem_id=theorem_id,
        description=description,
        mode=mode,
        claimed_valuation=claimed,
        observed_min_valuation=observed,
        verdict="pass" if observed >= claimed else "fail",
        precision=N,
        witness=witness,
        points=points,
        config=config or {},
        extra=extra or {},
    )


def _require_precision(ctx, claimed):
    if claimed > ctx.N:
        raise PrecisionTooLow(
            f"a congruence modulo p^{claimed} cannot be witnessed at "
            f"precision N={ctx.N}"
        )


def _mat_min_val_with_witness(ring, M, label):
    worst = None
    where = None
    for i, row in enumerate(M):
        for j, x in enumerate(row):
            v = ring.val(x)
            if worst is None or v < worst:
                worst, where = v, {"entry": [i, j], **label}
    return worst, where


# ---------------------------------------------------------------------------
# shared machinery


class PointKit:
    """Per-point evaluation cache for the W products of one tuple."""

    def __init__(self, tup, a):
        self.tup = tup
        self.ctx = tup.ctx
        self.a = tuple(a)
        self._points = {0: self.a}
        self._dense = {}
        self.fcache = DenseCache()

    def point(self, k):
        got = self._points.get(k)
        if got is None:
            base = self.point(k - 1)
            got = tuple(self.ctx.frob(x, 1) for x in base)
            self._points[k] = got
        return got

    def dense_W(self, s, j, twist=0):
        key = (s, j, twist)
        got = self._dense.get(key)
        if got is None:
            W = self.tup.W(s, j)
            got = self.fcache.get(W, self.point(twist))
            self._dense[key] = got
        return got

    def A(self, level, s, j, twist=0):
        got = self._dense.get((s, j, twist))
        if got is not None:
            return hw_from_dense(self.ctx, level, *got, self.tup.delta)
        return self.fcache.hw_at(level, self.tup.W(s, j), self.tup.delta,
                                 self.point(twist))

    def A_inv(self, level, s, j, twist=0):
        Aw = self.A(level, s, j, twist)
        det = hw_det(Aw)
        if not self.ctx.is_unit(det):
            raise DegenerateTuple(
                f"det A({level}, W_{s}^({j})) has valuation {self.ctx.val(det)} "
                f"at the test point"
            )
        return ringmat.mat_inv_scalar(self.ctx, Aw.entries)

    def dA(self, level, s, j, v, twist=0):
        W = self.tup.W(s, j)
        return hw_derivative_at(
            level, W, self.tup.delta, self.point(twist), v, cache=self.fcache
        )

    def d2A(self, level, s, j, u, v, twist=0):
        W = self.tup.W(s, j)
        return hw_second_derivative_at(
            level, W, self.tup.delta, self.point(twist), u, v, cache=self.fcache
        )


def _sym_gate(tup, s):
    import math as _math

    p = tup.ctx.p
    merged = {}
    est = 1
    for k in range(s + 1):
        lam = tup.lam(k)
        if lam.factored is not None:
            # factored forms merge under products, so estimate on the merge
            for f, e in lam.factored:
                merged[f] = merged.get(f, 0) + e * p**k
        else:
            nt = len(lam.terms)
            t = _math.comb(p**k + nt - 1, nt - 1) if nt else 1
            est *= min(t, SYMBOLIC_TERM_GATE + 1)
    for e in merged.values():
        est *= min(e + 1, SYMBOLIC_TERM_GATE + 1)
    if est > SYMBOLIC_TERM_GATE:
        raise SizeCapExceeded(
            "symbolic mode exceeds the term gate; use pointwise mode"
        )
    return est


def _sym_A(tup, level, s, j):
    return hw_matrix(level, tup.W(s, j), tup.delta)


def _check_nondegenerate_symbolic(tup, upto):
    seen = set()
    for k in range(upto + 1):
        lam = tup.lam(k)
        if id(lam) in seen:
            continue
        seen.add(id(lam))
        d = hw_det(hw_matrix(1, lam, tup.delta))
        if d.is_zero() or d.valuation() > 0:
            raise DegenerateTuple(
                f"det A(1, L_{k}) vanishes modulo p; the tuple is degenerate"
            )


def _poly_ring_of(tup):
    return ringmat.poly_ring(tup.ctx, 0, tup.lam(0).n)


def _pointwise_scan(points, one_point, claimed, N):
    """Run one_point over all points, merging by minimum valuation.

    The witness is the first failing point in input order.  No points would
    be a vacuous pass, so it is a configuration error.
    """
    if not points:
        raise ConfigError("pointwise mode needs at least one point")
    results = [one_point(item) for item in enumerate(points)]
    observed = min((v for v, _ in results), default=N)
    witness = next((w for v, w in results if v < claimed), None)
    return observed, witness


# ---------------------------------------------------------------------------
# ghost decomposition


def ghost_dense_at(tup, l, a):
    """Dense (offset, coeffs) of the ghosts V_s(t, a), s = 0..l."""
    ctx = tup.ctx
    p = ctx.p
    kit = PointKit(tup, a)
    V = []
    for s in range(l + 1):
        off, co = kit.dense_W(s, 0, 0)
        acc = (off, list(co))
        for j in range(1, s + 1):
            tw = dense.off_stride(ctx, kit.dense_W(s, j, j), p**j)
            prod = dense.off_mul(ctx, V[j - 1], tw)
            acc = dense.off_sub(ctx, acc, prod)
        V.append(acc)
    return V, kit


def verify_decomposition(ghost_seq_or_tuple, s, mode="symbolic", points=None):
    """Exact identity A(s+1, W_s) = sum_j A(j, V_{j-1}) sigma^j A(s-j+1, W_s^(j))
    + A(s+1, V_s); the claimed valuation is the full working precision."""
    from .ghosts import GhostSeq, ghost_sequence

    if isinstance(ghost_seq_or_tuple, GhostSeq):
        gs = ghost_seq_or_tuple
        tup = gs.tup
    else:
        tup = ghost_seq_or_tuple
        gs = None
    tup.require_admissible()
    ctx = tup.ctx
    N = ctx.N
    config = {"p": ctx.p, "N": N, "s": s}
    desc = ("level-(s+1) matrix of W_s decomposes through Frobenius twists "
            "of the ghost blocks")
    if mode == "symbolic":
        _sym_gate(tup, s)
        if gs is None:
            gs = ghost_sequence(tup, s)
        ring = _poly_ring_of(tup)
        lhs = _sym_A(tup, s + 1, s, 0).entries
        ghost_block = hw_matrix(s + 1, gs.V[s], tup.delta).entries
        acc = ghost_block
        for j in range(1, s + 1):
            Aj = hw_matrix(j, gs.V[j - 1], tup.delta).entries
            Sj = hw_sigma(_sym_A(tup, s - j + 1, s, j), j).entries
            acc = ringmat.mat_add(ring, acc, ringmat.mat_mul(ring, Aj, Sj))
        diff = ringmat.mat_sub(ring, lhs, acc)
        observed, witness = _mat_min_val_with_witness(ring, diff, {})
        ghost_val = ringmat.min_val(ring, ghost_block)
        return _finish("decomposition", desc, "symbolic", N, observed, N,
                       witness if observed < N else None,
                       config=config, extra={"ghost_block_valuation": ghost_val})

    ctxN = ctx.N
    sring = ringmat.scalar_ring(ctx)
    ghost_vals = []

    def one_point(item):
        idx, a = item
        Vd, kit = ghost_dense_at(tup, s, a)
        lhs = kit.A(s + 1, s, 0).entries
        off, co = Vd[s]
        acc = hw_from_dense(ctx, s + 1, off, co, tup.delta).entries
        ghost_vals.append(ringmat.min_val(sring, acc))
        for j in range(1, s + 1):
            offj, coj = Vd[j - 1]
            Aj = hw_from_dense(ctx, j, offj, coj, tup.delta).entries
            Sj = kit.A(s - j + 1, s, j, twist=j).entries
            acc = ringmat.mat_add(sring, acc, ringmat.mat_mul(sring, Aj, Sj))
        diff = ringmat.mat_sub(sring, lhs, acc)
        return _mat_min_val_with_witness(sring, diff, {"point_index": idx})

    observed, witness = _pointwise_scan(points, one_point, ctxN, ctxN)
    return _finish("decomposition", desc, "pointwise", ctxN, observed, ctxN,
                   witness, points=len(points), config=config,
                   extra={"ghost_block_valuation": min(ghost_vals)})


# ---------------------------------------------------------------------------
# factorization modulo p


def verify_frobenius_factorization(tup, s, mode="symbolic", points=None):
    """A(s+1, W_s) = A(1, L_0) sigma(A(1, L_1)) ... sigma^s(A(1, L_s)) mod p."""
    tup.require_admissible()
    ctx = tup.ctx
    config = {"p": ctx.p, "N": ctx.N, "s": s}
    desc = ("level-(s+1) matrix of W_s factors modulo p into twisted "
            "level-1 matrices")
    if mode == "symbolic":
        _sym_gate(tup, s)
        ring = _poly_ring_of(tup)
        lhs = _sym_A(tup, s + 1, s, 0).entries
        acc = None
        for k in range(s + 1):
            Ak = hw_sigma(hw_matrix(1, tup.lam(k), tup.delta), k).entries
            acc = Ak if acc is None else ringmat.mat_mul(ring, acc, Ak)
        diff = ringmat.mat_sub(ring, lhs, acc)
        observed, witness = _mat_min_val_with_witness(ring, diff, {})
        return _finish("factorization", desc, "symbolic", 1, observed, ctx.N,
                       witness if observed < 1 else None, config=config)

    sring = ringmat.scalar_ring(ctx)

    def one_point(item):
        idx, a = item
        kit = PointKit(tup, a)
        lhs = kit.A(s + 1, s, 0).entries
        acc = None
        for k in range(s + 1):
            Ak = kit.A(1, k, k, twist=k).entries
            acc = Ak if acc is None else ringmat.mat_mul(sring, acc, Ak)
        diff = ringmat.mat_sub(sring, lhs, acc)
        return _mat_min_val_with_witness(sring, diff, {"point_index": idx})

    observed, witness = _pointwise_scan(points, one_point, 1, ctx.N)
    return _finish("factorization", desc, "pointwise", 1, observed, ctx.N,
                   witness if observed < 1 else None,
                   points=len(points), config=config)


# ---------------------------------------------------------------------------
# the ratio congruence and its determinant corollary


def _ratio_matrices_symbolic(tup, s):
    X = _sym_A(tup, s + 1, s, 0)
    M = hw_sigma(_sym_A(tup, s, s, 1), 1)
    Y = _sym_A(tup, s, s - 1, 0)
    K = hw_sigma(_sym_A(tup, s - 1, s - 1, 1), 1) if s >= 2 else None
    return X, M, Y, K


def verify_dwork_ratio(tup, s, mode="symbolic", points=None):
    """A(s+1, W_s) sigma(A(s, W_s^(1)))^-1 = A(s, W_{s-1})
    sigma(A(s-1, W_{s-1}^(1)))^-1 mod p^s (identity matrix at s = 1)."""
    if s < 1:
        raise InvalidParameter("the ratio congruence needs s >= 1")
    tup.require_admissible()
    ctx = tup.ctx
    _require_precision(ctx, s)
    config = {"p": ctx.p, "N": ctx.N, "s": s}
    desc = "consecutive ratio matrices agree modulo p^s"
    if mode == "symbolic":
        _sym_gate(tup, s)
        _check_nondegenerate_symbolic(tup, s)
        ring = _poly_ring_of(tup)
        X, M, Y, K = _ratio_matrices_symbolic(tup, s)
        adjM = ringmat.adjugate(ring, M.entries)
        detM = hw_det(M)
        if K is None:
            lhs = ringmat.mat_mul(ring, X.entries, adjM)
            rhs = ringmat.mat_scal(ring, detM, Y.entries)
        else:
            adjK = ringmat.adjugate(ring, K.entries)
            detK = hw_det(K)
            lhs = ringmat.mat_scal(
                ring, detK, ringmat.mat_mul(ring, X.entries, adjM)
            )
            rhs = ringmat.mat_scal(
                ring, detM, ringmat.mat_mul(ring, Y.entries, adjK)
            )
        diff = ringmat.mat_sub(ring, lhs, rhs)
        observed, witness = _mat_min_val_with_witness(ring, diff, {})
        return _finish("ratio", desc, "symbolic", s, observed, ctx.N,
                       witness if observed < s else None, config=config)

    sring = ringmat.scalar_ring(ctx)

    def one_point(item):
        idx, a = item
        kit = PointKit(tup, a)
        X = kit.A(s + 1, s, 0).entries
        Minv = kit.A_inv(s, s, 1, twist=1)
        Y = kit.A(s, s - 1, 0).entries
        lhs = ringmat.mat_mul(sring, X, Minv)
        if s >= 2:
            Kinv = kit.A_inv(s - 1, s - 1, 1, twist=1)
            rhs = ringmat.mat_mul(sring, Y, Kinv)
        else:
            rhs = Y
        diff = ringmat.mat_sub(sring, lhs, rhs)
        return _mat_min_val_with_witness(sring, diff, {"point_index": idx})

    observed, witness = _pointwise_scan(points, one_point, s, ctx.N)
    return _finish("ratio", desc, "pointwise", s, observed, ctx.N,
                   witness if observed < s else None,
                   points=len(points), config=config)


def verify_det_congruence(tup, s, mode="symbolic", points=None):
    """det A(s+1, W_s) det sigma(A(s-1, W_{s-1}^(1))) = det A(s, W_{s-1})
    det sigma(A(s, W_s^(1))) mod p^s."""
    if s < 1:
        raise InvalidParameter("the determinant congruence needs s >= 1")
    tup.require_admissible()
    ctx = tup.ctx
    _require_precision(ctx, s)
    config = {"p": ctx.p, "N": ctx.N, "s": s}
    desc = "determinant form of the ratio congruence"
    if mode == "symbolic":
        _sym_gate(tup, s)
        _check_nondegenerate_symbolic(tup, s)
        ring = _poly_ring_of(tup)
        X, M, Y, K = _ratio_matrices_symbolic(tup, s)
        dX, dM, dY = hw_det(X), hw_det(M), hw_det(Y)
        dK = hw_det(K) if K is not None else ring.one
        diff = dX * dK - dY * dM
        observed = diff.valuation()
        witness = None if observed >= s else {"entry": "det"}
        return _finish("det-ratio", desc, "symbolic", s, observed, ctx.N,
                       witness, config=config)

    def one_point(item):
        idx, a = item
        kit = PointKit(tup, a)
        dX = hw_det(kit.A(s + 1, s, 0))
        dM = hw_det(kit.A(s, s, 1, twist=1))
        dY = hw_det(kit.A(s, s - 1, 0))
        dK = hw_det(kit.A(s - 1, s - 1, 1, twist=1)) if s >= 2 else ctx.one()
        if not (ctx.is_unit(dM) and ctx.is_unit(dK)):
            raise DegenerateTuple("ratio determinant not a unit at the test point")
        diff = ctx.sub(ctx.mul(dX, dK), ctx.mul(dY, dM))
        v = ctx.val(diff)
        return v, {"point_index": idx, "entry": "det"}

    observed, witness = _pointwise_scan(points, one_point, s, ctx.N)
    return _finish("det-ratio", desc, "pointwise", s, observed, ctx.N,
                   witness if observed < s else None,
                   points=len(points), config=config)


# ---------------------------------------------------------------------------
# derivative congruences


def verify_derivative_congruence(tup, s, m=0, v=1, mode="symbolic", points=None):
    """D_v(sigma^m A(s+1, W_s)) sigma^m(A(s+1, W_s))^-1 agrees with the
    level-s version modulo p^(s+m); the twist contributes the chain-rule
    factor p^m z_v^(p^m - 1)."""
    if s < 1:
        raise InvalidParameter("the derivative congruence needs s >= 1")
    check_direction("v", v, tup.lam(0).n)
    tup.require_admissible()
    ctx = tup.ctx
    claimed = s + m
    _require_precision(ctx, claimed)
    config = {"p": ctx.p, "N": ctx.N, "s": s, "m": m, "v": v}
    desc = "logarithmic z-derivative columns agree modulo p^(s+m)"
    if mode == "symbolic":
        _sym_gate(tup, s)
        _check_nondegenerate_symbolic(tup, s)
        ring = _poly_ring_of(tup)
        X = _sym_A(tup, s + 1, s, 0)
        Y = _sym_A(tup, s, s - 1, 0)
        DX = hw_partial_z(X, v)
        DY = hw_partial_z(Y, v)
        adjX = ringmat.adjugate(ring, X.entries)
        adjY = ringmat.adjugate(ring, Y.entries)
        dX, dY = hw_det(X), hw_det(Y)
        lhs = ringmat.mat_scal(ring, dY, ringmat.mat_mul(ring, DX.entries, adjX))
        rhs = ringmat.mat_scal(ring, dX, ringmat.mat_mul(ring, DY.entries, adjY))
        diff = ringmat.mat_sub(ring, lhs, rhs)
        if m > 0:
            # sigma^m of the cleared identity, times the chain-rule factor
            from .laurent import LaurentPoly

            zfac = LaurentPoly(
                ctx, 0, tup.lam(0).n,
                {tuple(ctx.p**m - 1 if i == v - 1 else 0
                       for i in range(tup.lam(0).n)): ctx.from_int(ctx.p**m)},
            )
            diff = [[zfac * e.frobenius_sub(m) for e in row] for row in diff]
        observed, witness = _mat_min_val_with_witness(ring, diff, {})
        return _finish("derivative", desc, "symbolic", claimed, observed, ctx.N,
                       witness if observed < claimed else None, config=config)

    sring = ringmat.scalar_ring(ctx)

    def one_point(item):
        idx, a = item
        kit = PointKit(tup, a)
        Xinv = kit.A_inv(s + 1, s, 0, twist=m)
        Yinv = kit.A_inv(s, s - 1, 0, twist=m)
        DX = kit.dA(s + 1, s, 0, v, twist=m).entries
        DY = kit.dA(s, s - 1, 0, v, twist=m).entries
        diff = ringmat.mat_sub(
            sring,
            ringmat.mat_mul(sring, DX, Xinv),
            ringmat.mat_mul(sring, DY, Yinv),
        )
        if m > 0:
            factor = ctx.scal_int(
                ctx.pow(a[v - 1], ctx.p**m - 1), ctx.p**m
            )
            diff = ringmat.mat_scal(sring, factor, diff)
        return _mat_min_val_with_witness(sring, diff, {"point_index": idx})

    observed, witness = _pointwise_scan(points, one_point, claimed, ctx.N)
    return _finish("derivative", desc, "pointwise", claimed, observed, ctx.N,
                   witness if observed < claimed else None,
                   points=len(points), config=config)


def verify_second_derivative_congruence(tup, s, u=1, v=1, mode="symbolic",
                                        points=None):
    """D_u D_v A(s+1, W_s) A(s+1, W_s)^-1 agrees with the level-s version
    modulo p^s (untwisted reading)."""
    if s < 1:
        raise InvalidParameter("the second-derivative congruence needs s >= 1")
    check_direction("u", u, tup.lam(0).n)
    check_direction("v", v, tup.lam(0).n)
    tup.require_admissible()
    ctx = tup.ctx
    _require_precision(ctx, s)
    config = {"p": ctx.p, "N": ctx.N, "s": s, "u": u, "v": v}
    desc = "second z-derivatives against the inverse agree modulo p^s"
    if mode == "symbolic":
        _sym_gate(tup, s)
        _check_nondegenerate_symbolic(tup, s)
        ring = _poly_ring_of(tup)
        X = _sym_A(tup, s + 1, s, 0)
        Y = _sym_A(tup, s, s - 1, 0)
        DX = hw_partial_z(hw_partial_z(X, v), u)
        DY = hw_partial_z(hw_partial_z(Y, v), u)
        adjX = ringmat.adjugate(ring, X.entries)
        adjY = ringmat.adjugate(ring, Y.entries)
        dX, dY = hw_det(X), hw_det(Y)
        lhs = ringmat.mat_scal(ring, dY, ringmat.mat_mul(ring, DX.entries, adjX))
        rhs = ringmat.mat_scal(ring, dX, ringmat.mat_mul(ring, DY.entries, adjY))
        diff = ringmat.mat_sub(ring, lhs, rhs)
        observed, witness = _mat_min_val_with_witness(ring, diff, {})
        return _finish("second-derivative", desc, "symbolic", s, observed,
                       ctx.N, witness if observed < s else None, config=config)

    sring = ringmat.scalar_ring(ctx)

    def one_point(item):
        idx, a = item
        kit = PointKit(tup, a)
        Xinv = kit.A_inv(s + 1, s, 0)
        Yinv = kit.A_inv(s, s - 1, 0)
        DX = kit.d2A(s + 1, s, 0, u, v).entries
        DY = kit.d2A(s, s - 1, 0, u, v).entries
        diff = ringmat.mat_sub(
            sring,
            ringmat.mat_mul(sring, DX, Xinv),
            ringmat.mat_mul(sring, DY, Yinv),
        )
        return _mat_min_val_with_witness(sring, diff, {"point_index": idx})

    observed, witness = _pointwise_scan(points, one_point, s, ctx.N)
    return _finish("second-derivative", desc, "pointwise", s, observed, ctx.N,
                   witness if observed < s else None,
                   points=len(points), config=config)
