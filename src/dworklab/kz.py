"""Master polynomials, p^s-hypergeometric frames and KZ residual checks.

The hyperelliptic KZ system for a column n-vector I(z), n = 2g+1, reads

    dI/dz_i = H_i(z) I,   i = 1..n,      I_1 + ... + I_n = 0,

with Gaudin Hamiltonians H_i = 1/2 sum_{j != i} Omega_ij / (z_i - z_j).
The master polynomial Phi_s = ((t - z_1)...(t - z_n))^((p^s - 1)/2) produces
polynomial solutions modulo p^s: column l of the n x g frame I_s is the
coefficient of t^(l p^s - 1) in the quotient vector (Phi_s/(t - z_i))_i.

The same factored shape feeds the Hasse-Witt matrices A(s, Phi_s), whose
first-row gradient reproduces I_s exactly up to the scalar (1 - p^s)/2, and
the frame congruences I_{s+1} A(s+1)^-1 = I_s A(s)^-1 mod p^s.  Frames are
read through the kits of ``hasse_witt``.  The residual and the frame
congruences are stated once, with denominators cleared, as one(kit); the
``dwork`` driver's kits, scan and report (``_report``) run them over a
symbolic kit, or over point kits when points are given; a symbolic kit
charges their reads against SYMBOLIC_READ_CAP, and each statement reads all
its frames before its first product.  A frame
is a list of n rows, read through the kit its caller passes; ``kz-solve``
passes a SymbolicKit with the default budget SOFT_TERM_CAP.  The two
identities of Phi_s behind the residual are checked symbolically only, in a
reduced form with no cleared factors, on one flat list per factored form:
its Kronecker image in z at t = 1, whose length (e + 1)^n is held to
SYMBOLIC_READ_CAP.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import partial, reduce

from . import ringmat
from .dwork import (
    CongruenceReport,
    _cleared,
    _mat_min_val_with_witness,
    _report,
)
from .errors import (
    InvalidParameter,
    NonUnitDifference,
    OutsideDomain,
    SizeCapExceeded,
)
from .hasse_witt import check_direction
from .laurent import SYMBOLIC_READ_CAP, LaurentPoly
from .ghosts import AdmissibleTuple


class KZConfig:
    """Genus, prime and coefficient context of one KZ family."""

    def __init__(self, ctx, g):
        if g < 1:
            raise InvalidParameter("genus must be >= 1")
        if ctx.p < 2 * g + 1:
            raise InvalidParameter(f"p = {ctx.p} is too small for genus "
                                   f"{g}; need p >= 2g+1")
        self.ctx = ctx
        self.g = g

    @property
    def n(self):
        return 2 * self.g + 1

    @property
    def delta(self):
        return tuple(range(1, self.g + 1))

    def exponent(self, s):
        return (self.ctx.p**s - 1) // 2


def master_polynomial(cfg, s):
    """Phi_s = ((t - z_1)...(t - z_n))^((p^s - 1)/2) in factored form."""
    if s < 1:
        raise InvalidParameter("level must be >= 1")
    e = cfg.exponent(s)
    return LaurentPoly.from_factors(cfg.ctx, cfg.n,
                                    [(i, e) for i in range(1, cfg.n + 1)])


def kz_tuple(cfg, length=None):
    """The constant tuple (F, F, ...) with F = Phi_1, ready for verifiers:
    infinite (periodic) when length is None, else of that many members."""
    lams = (master_polynomial(cfg, 1),) * (1 if length is None else length)
    return AdmissibleTuple(lams, cfg.delta, periodic=length is None)


def _frame_indices(cfg, s):
    ps = cfg.ctx.p**s
    return tuple(l * ps - 1 for l in range(1, cfg.g + 1))


def ps_solutions(cfg, s, kit):
    """Frame entries I[i][l] = coeff of t^(l p^s - 1) in Phi_s / (t - z_i),
    read by the kit: n rows, g columns.

    Out-of-range column indices extract zero; only l = 1..g is stored.
    """
    return kit.frame(master_polynomial(cfg, s), _frame_indices(cfg, s))


def ps_solution_derivative(cfg, s, i, kit):
    """The n x g matrix of dI_s/dz_i entries.

    Row k, column l is the coefficient of t^(l p^s - 1) in
    d(Phi_s/(t - z_k))/dz_i.  On the factored form this is -e D_ik off the
    diagonal and -(e-1) D_ii on it, with D_ik = Phi_s/((t-z_i)(t-z_k)) and
    e the multiplicity the kit reads off Phi_s.
    """
    check_direction("i", i, cfg.n)
    return kit.frame_derivative(master_polynomial(cfg, s), i,
                                _frame_indices(cfg, s))


def column_sum_valuations(ring, I):
    """The valuation of each column sum of the frame I over ring."""
    return [ring.val(reduce(ring.add, col, ring.zero)) for col in zip(*I)]


def gaudin_defect(ring, i, dI, I, scale, coef):
    """The rows of scale dI - (sum_{k != i} coef[k] Omega_ik) I for the
    n x g frames dI and I: dI - H_i I when scale is 1 and coef[k] =
    (z_i - z_k)^-1 / 2, and P (dI - H_i I), P = prod_{k != i}(z_i - z_k),
    when scale is P and coef[k] the cofactors P/(z_i - z_k) / 2.  Over the
    gaps G_k = I_k - I_i, row k != i is scale dI_k + coef[k] G_k and row i
    is scale dI_i - sum_k coef[k] G_k, each entry one Ring.dot."""
    gaps = {k: [ring.sub(y, x) for x, y in zip(I[i - 1], I[k - 1])]
            for k in coef}
    row_i = [scale, *map(ring.neg, coef.values())]
    return [[ring.dot(row_i, col) for col in zip(dI[i - 1], *gaps.values())]
            if k == i else [ring.dot((scale, coef[k]), pair)
                            for pair in zip(dI[k - 1], gaps[k])]
            for k in range(1, len(I) + 1)]


def kz_residual(cfg, s, i=None, points=None):
    """Residual of the KZ system for the level-s frame, modulo p^s.

    Checks prod_{j != i}(z_i - z_j) (dI_s/dz_i - H_i I_s) = 0 mod p^s for
    each direction i, together with column sums = 0 mod p^s.  At a point
    the cleared product is a unit, so the valuations are those of
    dI_s/dz_i - H_i I_s.
    """
    ctx = cfg.ctx
    if i is not None:
        check_direction("i", i, cfg.n)
    dirs = [i] if i is not None else list(range(1, cfg.n + 1))
    half = (ctx.q + 1) // 2

    def one(kit):
        ring = kit.ring
        I = ps_solutions(cfg, s, kit)
        dI = {d: ps_solution_derivative(cfg, s, d, kit) for d in dirs}
        z = [kit.z(j) for j in range(1, cfg.n + 1)]
        worst, wit = ctx.N, None
        for d in dirs:
            diffs = {j: kit.unit(
                ring.sub(z[d - 1], z[j - 1]), NonUnitDifference,
                f"z_{d} - z_{j} has valuation {{v}}")
                for j in range(1, cfg.n + 1) if j != d}
            # P and P/(z_d - z_k) by prefix and suffix products of diffs
            x = list(diffs.values())
            pre = list(itertools.accumulate(x, ring.mul))
            suf = list(itertools.accumulate(x[:0:-1], ring.mul))[::-1]
            cof = [suf[0], *map(ring.mul, pre, suf[1:]), pre[-2]]
            halves = {k: ring.scal(half, c) for k, c in zip(diffs, cof)}
            defect = gaudin_defect(ring, d, dI[d], I, pre[-1], halves)
            v, w = _mat_min_val_with_witness(ring, defect,
                                             {**kit.label, "direction": d})
            if v < worst:
                worst, wit = v, w
        sums = column_sum_valuations(ring, I)
        return min([worst] + sums), wit, sums

    def column_sums(rep, results):
        # one symbolic frame has column sums to show; points have one each
        if rep.points is None:
            rep.extra["column_sum_valuations"] = results[0][2]

    return _report(
        "kz-residual", "level-s coefficient frame solves the KZ system "
        "modulo p^s", s, {"g": cfg.g, "s": s, "directions": dirs}, cfg, points,
        one, column_sums)


def _flat(F, base):
    """F at t = 1 as integers mod q, z^alpha at sum_i alpha_i base^(i-1):
    the outer product of the rows (-1)^a C(e_i, a), each padded to base."""
    q, mult, out = F.ctx.q, dict(F.factored), [1]
    for i in range(1, F.n + 1):
        e = mult.get(i, 0)
        row = [(-1) ** a * math.comb(e, a) % q for a in range(e + 1)]
        out = [r * x % q for r in row + [0] * (base - 1 - e) for x in out]
    return out


def verify_phi_identities(cfg, s):
    """The two master-polynomial identities behind the residual theorem,
    with e = (p^s - 1)/2, Q_i = Phi_s/(t - z_i) and, one per unordered
    pair, D_ik = Phi_s/((t - z_i)(t - z_k)):

    (1) e sum_i Q_i = dPhi_s/dt;
    (2) for each i, row k != i: Q_i - Q_k = (z_i - z_k) D_ik, and row i:
        dQ_i/dt = (e - 1) D_ii + e sum_{j != i} D_ij.

    (2) is (d/dz_i + e sum_{j != i} Omega_ij/(z_i - z_j)) (Q_k)_k =
    dPsi_s^i/dt, Psi_s^i carrying -Q_i in slot i.  Cleared by
    P = prod_{j != i}(z_i - z_j), its row k is e P/(z_i - z_k) times row k
    above, and once those hold its row i is P times row i above.  e is a
    unit and P/(z_i - z_k) has a unit coefficient, so by Gauss's lemma
    (F_q[z] has no zero divisors) neither changes a valuation.

    Each form is read once by ``_flat`` at t = 1 and base e + 1, which
    loses nothing: every form and both sides of (1) and (2) are homogeneous
    in (t, z) of known degree d, so z^alpha comes with t^(d - |alpha|), and
    no z-exponent exceeds e, not even in z_i D_ik.  So z_i is a shift by
    (e + 1)^(i-1), d/dt the weight d - |alpha|, and a valuation that of the
    gcd with q.  D_ii is not read when e - 1 = 0 mod p^N (p^s = 3 has none).
    """
    ctx, n, e = cfg.ctx, cfg.n, cfg.exponent(s)
    if (e + 1) ** n > SYMBOLIC_READ_CAP:  # the length of each flat list
        raise SizeCapExceeded(
            f"the Phi_{s} identities read lists of {(e + 1) ** n} terms, "
            f"past the cap of {SYMBOLIC_READ_CAP}")
    q, base, dirs = ctx.q, e + 1, range(1, n + 1)
    dq = [n * e - 1]  # d/dt of the term z^alpha of Q_i: n e - 1 - |alpha|
    for _ in dirs:
        dq = [d - a for a in range(base) for d in dq]
    # lazy maps over the lists; map stops at the shortest, so z_i u is cut
    add, sub, mul = (partial(map, f) for f in
                     (operator.add, operator.sub, operator.mul))
    const, chain = itertools.repeat, itertools.chain

    def least(u):
        return ctx.val(ctx.from_int(math.gcd(q, *u)))

    phi = master_polynomial(cfg, s)
    quot = [phi.synth_div_linear(z_index=i) for i in dirs]
    Q = [_flat(F, base) for F in quot]
    D = {}
    for i, k in itertools.combinations_with_replacement(dirs, 2):
        D[i, k] = D[k, i] = (
            _flat(quot[i - 1].synth_div_linear(z_index=k), base)
            if k != i or (e - 1) % q else [0] * base**n)
    val = {(): least(sub(mul(const(e), reduce(add, Q)),
                         mul(add(dq, const(1)), _flat(phi, base))))}
    for i, k in itertools.combinations_with_replacement(dirs, 2):
        # row k of direction i and row i of direction k are one identity
        val[i, k] = least(
            sub(sub(Q[i - 1], Q[k - 1]),
                sub(chain(const(0, base**(i - 1)), D[i, k]),
                    chain(const(0, base**(k - 1)), D[i, k])))
            if k != i else sub(mul(dq, Q[i - 1]), add(
                mul(const(e - 1), D[i, i]),
                mul(const(e), reduce(add, (D[i, j] for j in dirs if j != i))))))
    where, observed = min(val.items(), key=lambda kv: kv[1])  # first least
    witness = (None if observed == ctx.N else {"identity": 1} if not where
               else {"identity": 2, "direction": where[0], "row": where[1]})
    return CongruenceReport(
        "phi-identities",
        "master-polynomial t-derivative identities hold exactly", "symbolic",
        ctx.N, observed, "pass" if observed >= ctx.N else "fail", ctx.N,
        witness, None, {"p": ctx.p, "N": ctx.N, "g": cfg.g, "s": s})


def verify_solution_congruence(cfg, s, points=None):
    """Frame congruences across consecutive levels, modulo p^s.

    (i)  I_{s+1} A(s+1, Phi_{s+1})^-1 = I_s A(s, Phi_s)^-1,
    (ii) the same with d/dz_j applied to the frames, for every j,
    each checked as I_{s+1} adj A(s+1) det A(s) = I_s adj A(s) det A(s+1).
    """
    dirs = range(1, cfg.n + 1)

    def one(kit):
        ring = kit.ring
        A = {lev: kit.A(lev, master_polynomial(cfg, lev))
             for lev in (s, s + 1)}
        frames = {lev: ps_solutions(cfg, lev, kit) for lev in (s + 1, s)}
        derivs = {(lev, j): ps_solution_derivative(cfg, lev, j, kit)
                  for j in dirs for lev in (s + 1, s)}
        det = {lev: kit.unit(
            ringmat.det(ring, A[lev]), OutsideDomain,
            f"det A({lev}, Phi_{lev}) has valuation {{v}}")
            for lev in A}
        adj = {lev: ringmat.adjugate(ring, A[lev]) for lev in A}

        def cleared(X, label):
            return _mat_min_val_with_witness(
                ring, _cleared(ring, X[s + 1], adj[s + 1], det[s + 1],
                               X[s], adj[s], det[s]),
                {**kit.label, **label})

        worst, wit = cleared(frames, {"part": "frame"})
        for j in dirs:
            v, w = cleared({lev: derivs[lev, j] for lev in A},
                           {"part": "derivative", "direction": j})
            if v < worst:
                worst, wit = v, w
        return worst, wit

    return _report(
        "frame-congruence", "solution frames against inverse level matrices "
        "agree modulo p^s", s, {"g": cfg.g, "s": s}, cfg, points, one)

