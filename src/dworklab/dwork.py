"""Executable verifiers for the Dwork-type congruences of Hasse-Witt tuples.

Each verifier returns a :class:`CongruenceReport` with the claimed modulus
exponent and the observed minimum deviation valuation.  Each congruence is
stated once, with its inverse matrices eliminated by Cramer clearing:
X M^-1 and Y K^-1 agree mod p^s iff X adj(M) det(K) = Y adj(K) det(M) mod
p^s, since the determinants are units.  A verifier keeps only its
statement one(kit) -> (valuation, witness, ...), its claim and what is its
own; one driver, ``_verify``, checks s, the directions, admissibility, the
precision the claim needs and that the tuple has a member L_s, makes the
kits (see ``hasse_witt``), scans them and reports.  The points decide the
mode, and either way a statement certifies, through ``kit.unit``, each
determinant it clears by (DegenerateTuple when it is 0 mod p):

* symbolic, when no points are given (``points=None``): one kit of
  z-polynomial matrices, so the congruence is checked as a polynomial
  identity.  The kit charges every read against SYMBOLIC_READ_CAP, and a
  statement reads all its entries before its first product, so an
  oversized job is refused before any product is formed.  By the
  factorization modulo p, the determinants a statement certifies are
  nonzero mod p exactly when det A(1, L_k), k = 0..s, are.
* pointwise, at a list of points (an empty list is a ConfigError): one kit
  per point, over Z/p^N, where the certified determinants are units.
  Clearing by units keeps every valuation, so the report is the one of
  X M^-1 - Y K^-1.  The sigma twist acts on points as a -> a^p.

The driver's kits, scan and report (``_report``) also serve the KZ frame
checks of ``kz``.  Claimed valuations come verbatim from the congruence
statements; observed valuations are never rounded up.
"""

from __future__ import annotations

from functools import cache, partial, reduce

from . import ringmat
from .errors import (
    ConfigError,
    DegenerateTuple,
    InvalidParameter,
    PrecisionTooLow,
)
from .hasse_witt import (
    PointKit,
    SymbolicKit,
    _rows,
    check_direction,
    hw_indices,
)
from .laurent import SYMBOLIC_READ_CAP


class CongruenceReport:
    """Machine-readable verdict for one congruence check; a verifier's
    finish hook may still set its verdict, witness and extra."""

    def __init__(self, theorem_id, description, mode, claimed_valuation,
                 observed_min_valuation, verdict, precision, witness, points,
                 config):
        self.theorem_id = theorem_id
        self.description = description
        self.mode = mode
        self.claimed_valuation = claimed_valuation
        self.observed_min_valuation = observed_min_valuation
        self.verdict = verdict
        self.precision = precision
        self.witness = witness
        self.points = points
        self.config = config
        self.extra = {}

    @property
    def passed(self):
        return self.verdict == "pass"

    def to_json(self):
        return dict(vars(self))


def _mat_min_val_with_witness(ring, M, label):
    worst = None
    where = None
    for i, row in enumerate(M):
        for j, x in enumerate(row):
            v = ring.val(x)
            if worst is None or v < worst:
                worst, where = v, {"entry": [i, j], **label}
    return worst, where


def _cleared(ring, X, adjM, dM, Y, adjK, dK):
    """X adj(M) det K - Y adj(K) det M: X M^-1 - Y K^-1 times det M det K,
    one dot per entry against (det K, -det M), so that no scaled product
    outlives its entry."""
    scales = [dK, ring.neg(dM)]
    return [[ring.dot(pair, scales) for pair in zip(rx, ry)]
            for rx, ry in zip(ringmat.mat_mul(ring, X, adjM),
                              ringmat.mat_mul(ring, Y, adjK))]


def _unit_det(kit, A, level, top, j, twist):
    """det A for A = sigma^twist A(level, W_top^(j)), certified by the kit:
    DegenerateTuple unless it is nonzero mod p."""
    name = f"{f'sigma^{twist} ' if twist else ''}A({level}, W_{top}^({j}))"
    return kit.unit(ringmat.det(kit.ring, A), DegenerateTuple,
                    f"det {name} has valuation {{v}}")


# ---------------------------------------------------------------------------
# shared machinery


def _pointwise_scan(kits, one, claimed):
    """Run one(kit) -> (valuation, witness, ...) over the kits, merging by
    minimum valuation; the symbolic kit counts as a single point.

    Returns the minimum, the witness of the first kit below the claim (in
    input order) and each kit's result.  No points would be a vacuous
    pass, so it is a configuration error.
    """
    results = [one(kit) for kit in kits]
    if not results:
        raise ConfigError("pointwise mode needs at least one point")
    witness = next((r[1] for r in results if r[0] < claimed), None)
    return min(r[0] for r in results), witness, results


def _report(theorem_id, description, claimed, config, family, points, one,
            finish=None):
    """The report of one(kit) against the claim: pointwise over one PointKit
    per point of ``points`` over the family's (a tuple's or a KZ family's)
    ctx and delta, made as the scan reaches it so that one point's memo is
    alive at a time, or, when ``points`` is None, symbolic over one
    SymbolicKit over its ctx, delta and n with the budget SYMBOLIC_READ_CAP.
    ``config`` adds to p and N, and finish(report, results) adds what is the
    verifier's own."""
    ctx = family.ctx
    if points is None:
        mode = "symbolic"
        kits = [SymbolicKit(ctx, family.delta, family.n, SYMBOLIC_READ_CAP)]
    else:
        mode = "pointwise"
        kits = (PointKit(ctx, family.delta, a, idx)
                for idx, a in enumerate(points))
    observed, witness, results = _pointwise_scan(kits, one, claimed)
    rep = CongruenceReport(
        theorem_id, description, mode, claimed, observed,
        "pass" if observed >= claimed else "fail", ctx.N, witness,
        None if points is None else len(results),
        {"p": ctx.p, "N": ctx.N, **config})
    if finish:
        finish(rep, results)
    return rep


def _verify(theorem_id, description, tup, s, points, one, *, claimed,
            least=1, precision=None, finish=None, **params):
    """``_report`` of a tuple verifier after the checks, in this order:
    s >= least; among ``params``, the directions u and v in 1..n and the
    twist m >= 0; admissibility; N >= precision (by default the claim); and
    a member L_s."""
    if s < least:
        raise InvalidParameter(f"the {theorem_id} check needs s >= {least}")
    for name, value in params.items():
        if name in ("u", "v"):
            check_direction(name, value, tup.n)
        elif value < 0:
            raise InvalidParameter(f"the {theorem_id} check needs {name} >= 0")
    tup.require_admissible()
    precision = claimed if precision is None else precision
    if precision > tup.ctx.N:
        raise PrecisionTooLow(f"a congruence modulo p^{precision} cannot be "
                              f"witnessed at precision N={tup.ctx.N}")
    tup.lam(s)  # IndexOutOfRange when the tuple has no member L_s

    return _report(theorem_id, description, claimed, {"s": s, **params}, tup,
                   points, one, finish)


# ---------------------------------------------------------------------------
# ghost decomposition


def _ghost_plan(tup, s):
    """The t-slices of the ghosts V_0..V_s that A(j+1, V_j), j = 0..s, and
    the recursion behind them need, and the slices of W_i^(j) they read:

        [t^k] V_i = [t^k] W_i - sum_{j=1..i} sum_m [t^(k - p^j m)] V_{j-1}
                                                 sigma^j([t^m] W_i^(j)),

    with m over the t-range of W_i^(j) and k - p^j m over that of V_{j-1}.
    The t-range of W_i^(j) is the sum of p^(k-j) box(L_k), k = j..i, read
    off the members' Newton boxes (a superset of the box of the expansion,
    which may lose extreme terms mod p^N).  That of V_i is the hull of the
    ranges of W_i and of the products subtracted from it, which by
    induction on i is again the range of W_i; members may be Laurent.

    Returns (need, reads): need[i] maps each needed k to the (j, m) of its
    products, and reads[(i, j)] lists the m read off W_i^(j), ascending.
    """
    p = tup.ctx.p
    boxes = [tup.lam(k).newton_box() for k in range(s + 1)]

    def w_range(i, j):
        return (sum(p**(k - j) * boxes[k].lo[0] for k in range(j, i + 1)),
                sum(p**(k - j) * boxes[k].hi[0] for k in range(j, i + 1)))

    need = [{} for _ in range(s + 1)]
    reads = {}
    for i in range(s, -1, -1):
        lo, hi = w_range(i, 0)
        for k in hw_indices(p, i + 1, tup.delta):
            if lo <= k <= hi:
                need[i].setdefault(k, None)
        for k in need[i]:
            pairs = need[i][k] = []
            for j in range(1, i + 1):
                pj = p**j
                (vlo, vhi), (wlo, whi) = w_range(j - 1, 0), w_range(i, j)
                for m in range(max(wlo, -((vhi - k) // pj)),
                               min(whi, (k - vlo) // pj) + 1):
                    pairs.append((j, m))
                    reads.setdefault((i, j), set()).add(m)
                    need[j - 1].setdefault(k - pj * m, None)
        if need[i]:
            reads[i, 0] = set(need[i])
    return need, {key: sorted(ms) for key, ms in reads.items()}


def _ghost_blocks(kit, tup, need, reads):
    """A(j+1, V_j) for j = 0..s over kit.ring, from the ghost slices (need,
    reads) = ``_ghost_plan(tup, s)``: each W_i^(j) is read once, at the planned
    exponents, through ``kit.coeffs``, and each slice of V_i is formed once."""
    p, ring = tup.ctx.p, kit.ring
    got = {(i, j): dict(zip(ms, kit.coeffs(tup.W(i, j), ms, twist=j)))
           for (i, j), ms in reads.items()}
    V = {}
    for i, slices in enumerate(need):
        for k, pairs in slices.items():
            V[i, k] = ring.sub(got[i, 0][k], ring.dot(
                [V[j - 1, k - p**j * m] for j, m in pairs],
                [got[i, j][m] for j, m in pairs]))
    return [_rows([V.get((i, k), ring.zero)
                   for k in hw_indices(p, i + 1, tup.delta)], len(tup.delta))
            for i in range(len(need))]


def verify_decomposition(tup, s, points=None):
    """Exact identity A(s+1, W_s) = sum_j A(j, V_{j-1}) sigma^j A(s-j+1, W_s^(j))
    + A(s+1, V_s); the claimed valuation is the full working precision.
    The identity holds by the construction of V_s, so the verdict also
    requires the theorem's content, A(s+1, V_s) = 0 mod p^s, read at
    ``extra["ghost_block_valuation"]`` (with the witness if it alone fails).

    The ghost blocks A(j+1, V_j) are read slice by slice (``_ghost_blocks``)
    on one plan for all kits."""
    # (level, s', j) of A(s+1, W_s) and of S_j = sigma^j A(s-j+1, W_s^(j))
    reads = [(s + 1, s, 0)] + [(s - j + 1, s, j) for j in range(1, s + 1)]
    plan = cache(partial(_ghost_plan, tup, s))

    def one(kit):
        ring = kit.ring
        lhs, *S = [kit.A(level, tup.W(top, j), twist=j)
                   for level, top, j in reads]
        blocks = _ghost_blocks(kit, tup, *plan())
        acc = blocks[s]
        for j, Sj in enumerate(S, 1):
            acc = ringmat.mat_add(ring, acc,
                                  ringmat.mat_mul(ring, blocks[j - 1], Sj))
        diff = ringmat.mat_sub(ring, lhs, acc)
        return (*_mat_min_val_with_witness(ring, diff, kit.label),
                *_mat_min_val_with_witness(ring, blocks[s], kit.label))

    def ghost_gate(rep, results):
        # the ghost divisibility A(s+1, V_s) = 0 mod p^s; N >= s
        ghost = rep.extra["ghost_block_valuation"] = min(r[2] for r in results)
        if ghost < s:
            rep.verdict = "fail"  # if the identity holds, point at the block
            rep.witness = rep.witness or next(r[3] for r in results if r[2] < s)

    return _verify(
        "decomposition", "level-(s+1) matrix of W_s decomposes through "
        "Frobenius twists of the ghost blocks", tup, s, points, one,
        claimed=tup.ctx.N, least=0, precision=s, finish=ghost_gate)


# ---------------------------------------------------------------------------
# factorization modulo p


def verify_frobenius_factorization(tup, s, points=None):
    """A(s+1, W_s) = A(1, L_0) sigma(A(1, L_1)) ... sigma^s(A(1, L_s)) mod p."""
    # (level, s', j) of A(s+1, W_s) and of the twisted A(1, W_k^(k))
    reads = [(s + 1, s, 0)] + [(1, k, k) for k in range(s + 1)]

    def one(kit):
        ring = kit.ring
        lhs, *factors = [kit.A(level, tup.W(top, j), twist=j)
                         for level, top, j in reads]
        acc = reduce(partial(ringmat.mat_mul, ring), factors)
        diff = ringmat.mat_sub(ring, lhs, acc)
        return _mat_min_val_with_witness(ring, diff, kit.label)

    return _verify(
        "factorization", "level-(s+1) matrix of W_s factors modulo p into "
        "twisted level-1 matrices", tup, s, points, one,
        claimed=1, least=0)


# ---------------------------------------------------------------------------
# the ratio congruence and its determinant corollary


def _ratio_matrices(kit, tup, s):
    """X = A(s+1, W_s), M = sigma A(s, W_s^(1)), Y = A(s, W_{s-1}) and, from
    s = 2 on, K = sigma A(s-1, W_{s-1}^(1)), read by the kit (K is the
    identity at s = 1): each read A(level, W_s'^(j)) is twisted j times.
    Returns [X, M, Y, K] and the certified [det M, det Y, det K]."""
    reads = [(s + 1, s, 0), (s, s, 1), (s, s - 1, 0)] + (
        [(s - 1, s - 1, 1)] if s >= 2 else [])
    mats = [kit.A(level, tup.W(top, j), twist=j) for level, top, j in reads]
    dets = [_unit_det(kit, A, level, top, j, j)
            for A, (level, top, j) in zip(mats[1:], reads[1:])]
    if s == 1:
        mats.append(ringmat.identity(kit.ring, len(mats[0])))
        dets.append(kit.ring.one)
    return mats, dets


def verify_dwork_ratio(tup, s, points=None):
    """A(s+1, W_s) sigma(A(s, W_s^(1)))^-1 = A(s, W_{s-1})
    sigma(A(s-1, W_{s-1}^(1)))^-1 mod p^s (identity matrix at s = 1)."""
    def one(kit):
        ring = kit.ring
        (X, M, Y, K), (dM, _, dK) = _ratio_matrices(kit, tup, s)
        diff = _cleared(ring, X, ringmat.adjugate(ring, M), dM,
                        Y, ringmat.adjugate(ring, K), dK)
        return _mat_min_val_with_witness(ring, diff, kit.label)

    return _verify("ratio", "consecutive ratio matrices agree modulo p^s",
                   tup, s, points, one, claimed=s)


def verify_det_congruence(tup, s, points=None):
    """det A(s+1, W_s) det sigma(A(s-1, W_{s-1}^(1))) = det A(s, W_{s-1})
    det sigma(A(s, W_s^(1))) mod p^s."""
    def one(kit):
        ring = kit.ring
        (X, *_), (dM, dY, dK) = _ratio_matrices(kit, tup, s)
        dX = ringmat.det(ring, X)
        diff = ring.sub(ring.mul(dX, dK), ring.mul(dY, dM))
        return ring.val(diff), {**kit.label, "entry": "det"}

    return _verify("det-ratio", "determinant form of the ratio congruence",
                   tup, s, points, one, claimed=s)


# ---------------------------------------------------------------------------
# derivative congruences


def _cleared_log_derivatives(kit, tup, s, twist, derive):
    """(D X) adj(X) det Y - (D Y) adj(Y) det X for X = A(s+1, W_s) and
    Y = A(s, W_{s-1}) at the twist, with derive(level, W) -> D A(level, W):
    the cleared (D X) X^-1 - (D Y) Y^-1.  X and Y are read before either
    determinant is formed."""
    ring = kit.ring
    W = {level: tup.W(level - 1) for level in (s + 1, s)}
    A = {level: kit.A(level, W[level], twist) for level in W}
    dX, dY = (_unit_det(kit, A[level], level, level - 1, 0, twist)
              for level in W)
    return _cleared(ring, derive(s + 1, W[s + 1]),
                    ringmat.adjugate(ring, A[s + 1]), dX,
                    derive(s, W[s]), ringmat.adjugate(ring, A[s]), dY)


def verify_derivative_congruence(tup, s, m=0, v=1, points=None):
    """D_v(sigma^m A(s+1, W_s)) sigma^m(A(s+1, W_s))^-1 agrees with the
    level-s version modulo p^(s+m); the twist contributes the chain-rule
    factor p^m z_v^(p^m - 1)."""
    def one(kit):
        ring, ctx = kit.ring, kit.ctx
        diff = _cleared_log_derivatives(
            kit, tup, s, m, lambda level, W: kit.dA(level, W, v, twist=m))
        if m:
            factor = ring.scal(ctx.p**m, kit.z(v, ctx.p**m - 1))
            diff = ringmat.mat_scal(ring, factor, diff)
        return _mat_min_val_with_witness(ring, diff, kit.label)

    return _verify(
        "derivative", "logarithmic z-derivative columns agree modulo p^(s+m)",
        tup, s, points, one, claimed=s + m, m=m, v=v)


def verify_second_derivative_congruence(tup, s, u=1, v=1, points=None):
    """D_u D_v A(s+1, W_s) A(s+1, W_s)^-1 agrees with the level-s version
    modulo p^s (untwisted reading)."""
    def one(kit):
        diff = _cleared_log_derivatives(
            kit, tup, s, 0, lambda level, W: kit.d2A(level, W, u, v))
        return _mat_min_val_with_witness(kit.ring, diff, kit.label)

    return _verify(
        "second-derivative",
        "second z-derivatives against the inverse agree modulo p^s",
        tup, s, points, one, claimed=s, u=u, v=v)
