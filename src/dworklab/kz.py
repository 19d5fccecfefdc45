"""Master polynomials, p^s-hypergeometric frames and KZ residual checks.

The hyperelliptic KZ system for a column n-vector I(z), n = 2g+1, reads

    dI/dz_i = H_i(z) I,   i = 1..n,      I_1 + ... + I_n = 0,

with Gaudin Hamiltonians H_i = 1/2 sum_{j != i} Omega_ij / (z_i - z_j).
The master polynomial Phi_s = ((t - z_1)...(t - z_n))^((p^s - 1)/2) produces
polynomial solutions modulo p^s: column l of the n x g frame I_s is the
coefficient of t^(l p^s - 1) in the quotient vector (Phi_s/(t - z_i))_i.

The same factored shape feeds the Hasse-Witt matrices A(s, Phi_s), whose
first-row gradient reproduces I_s exactly up to the scalar (1 - p^s)/2, and
the frame congruences I_{s+1} A(s+1)^-1 = I_s A(s)^-1 mod p^s.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ringmat
from .dwork import _finish, _mat_min_val_with_witness, _pointwise_scan
from .errors import (
    InvalidParameter,
    NonUnitDifference,
    OutsideDomain,
    SizeCapExceeded,
)
from .hasse_witt import (
    DenseCache,
    _coeffs_at,
    check_direction,
    hw_det,
    hw_matrix,
)
from .laurent import LaurentPoly
from . import dense as dense_mod
from .ghosts import AdmissibleTuple


@dataclass(eq=False)
class KZConfig:
    """Genus, prime and coefficient context of one KZ family."""

    ctx: object
    g: int

    def __post_init__(self):
        if self.g < 1:
            raise InvalidParameter("genus must be >= 1")
        if self.ctx.p < 2 * self.g + 1:
            raise InvalidParameter(
                f"p = {self.ctx.p} is too small for genus {self.g}; "
                f"need p >= 2g+1"
            )

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
    factors = [(("z", i), e) for i in range(1, cfg.n + 1)]
    return LaurentPoly.from_factors(cfg.ctx, cfg.n, factors)


def kz_tuple(cfg, length=None, periodic=None):
    """The constant tuple (F, F, ...) with F = Phi_1, ready for verifiers."""
    F = master_polynomial(cfg, 1)
    if periodic is None:
        periodic = length is None
    lams = (F,) * (1 if periodic else length)
    return AdmissibleTuple(lams, cfg.delta, periodic=periodic,
                           source=f"kz(p={cfg.ctx.p}, g={cfg.g})")


@dataclass
class SolutionMatrix:
    """The n x g frame of coefficient vectors at level s."""

    cfg: KZConfig
    s: int
    entries: list  # n rows, g columns
    pointwise: bool
    provenance: tuple = ()

    @property
    def n(self):
        return self.cfg.n

    @property
    def g(self):
        return self.cfg.g

    def column_sums(self):
        ring = self._ring()
        out = []
        for l in range(self.g):
            acc = ring.zero
            for i in range(self.n):
                acc = ring.add(acc, self.entries[i][l])
            out.append(acc)
        return out

    def _ring(self):
        if self.pointwise:
            return ringmat.scalar_ring(self.cfg.ctx)
        return ringmat.poly_ring(self.cfg.ctx, 0, self.n)

    def column_sum_valuations(self):
        ring = self._ring()
        return [ring.val(c) for c in self.column_sums()]

    def to_json(self):
        ctx = self.cfg.ctx
        if self.pointwise:
            ent = [[ctx.elem_to_json(x) for x in row] for row in self.entries]
        else:
            ent = [[x.to_json() for x in row] for row in self.entries]
        return {
            "s": self.s,
            "n": self.n,
            "g": self.g,
            "pointwise": self.pointwise,
            "provenance": list(self.provenance),
            "entries": ent,
        }


def ps_solutions(cfg, s, a=None, cache=None):
    """Frame entries I[i][l] = coeff of t^(l p^s - 1) in Phi_s / (t - z_i).

    Out-of-range column indices extract zero; only l = 1..g is stored.
    """
    ctx = cfg.ctx
    ps = ctx.p**s
    phi = master_polynomial(cfg, s)
    indices = tuple(l * ps - 1 for l in range(1, cfg.g + 1))
    if a is None:
        rows = [phi.synth_div_linear(z_index=i).coeffs_t(indices)
                for i in range(1, cfg.n + 1)]
        return SolutionMatrix(cfg, s, rows, False, indices)
    cache = cache or DenseCache()
    rows = [_coeffs_at(ctx, *cache.quotient(phi, a, a[i - 1]), indices)
            for i in range(1, cfg.n + 1)]
    return SolutionMatrix(cfg, s, rows, True, indices)


def solution_coefficient(cfg, s, ell, i, a=None):
    """Single entry for any column index; zero outside 1..g."""
    ctx = cfg.ctx
    phi = master_polynomial(cfg, s)
    idx = ell * ctx.p**s - 1
    if a is None:
        return phi.synth_div_linear(z_index=i).coeff_t(idx)
    return _coeffs_at(ctx, *DenseCache().quotient(phi, a, a[i - 1]), (idx,))[0]


def ps_solution_derivative(cfg, s, i, a=None, cache=None):
    """The n x g matrix of dI_s/dz_i entries.

    Row k, column l is the coefficient of t^(l p^s - 1) in
    d(Phi_s/(t - z_k))/dz_i.  On the factored form this is -e D_ik off the
    diagonal and -(e-1) D_ii on it, with D_ik = Phi_s/((t-z_i)(t-z_k)).

    At a point a, with Q_k = Phi_s/(t - a_k) from the cache's quotient memo,
    exact partial fractions over Z/p^N give, for k != i,

        D_ik = (Q_i - Q_k) (a_i - a_k)^-1,
        -(e-1) D_ii = -Q_i' + e sum_{k != i} D_ik   (Q_i' = dQ_i/dt),

    the second from the product rule for Q_i'.  Only the g extracted
    coefficients are formed, with Q_i'[idx] = (idx+1) Q_i[idx+1]; no second
    division runs and e - 1 is never inverted.  If some a_i - a_k is not a
    unit, every D_ik with k != i comes instead from a second synthetic
    division of Q_i by (t - a_k); the diagonal identity holds either way.
    """
    ctx = cfg.ctx
    check_direction("i", i, cfg.n)
    e = cfg.exponent(s)
    ps = ctx.p**s
    phi = master_polynomial(cfg, s)
    indices = tuple(l * ps - 1 for l in range(1, cfg.g + 1))
    zero_sym = LaurentPoly.zero(ctx, 0, cfg.n)
    if a is None:
        rows = []
        for k in range(1, cfg.n + 1):
            scale = -(e - 1) if k == i else -e
            if scale % ctx.q == 0:
                rows.append([zero_sym] * cfg.g)
                continue
            d = phi.synth_div_linear(z_index=i).synth_div_linear(z_index=k)
            rows.append([x.cmul(scale) for x in d.coeffs_t(indices)])
        return rows
    cache = cache or DenseCache()
    off, qi = cache.quotient(phi, a, a[i - 1])
    others = [k for k in range(1, cfg.n + 1) if k != i]
    diffs = [ctx.sub(a[i - 1], a[k - 1]) for k in others]
    Qi = _coeffs_at(ctx, off, qi, indices)
    if all(ctx.is_unit(d) for d in diffs):
        D = []
        for k in others:
            inv = cache.diff_inverse(ctx, a, i, k)
            Qk = _coeffs_at(ctx, *cache.quotient(phi, a, a[k - 1]), indices)
            D.append([ctx.mul(ctx.sub(x, y), inv) for x, y in zip(Qi, Qk)])
    else:
        D = [_coeffs_at(ctx, off, dense_mod.dense_div_linear_exact(
                 ctx, qi, a[k - 1]), indices) for k in others]
    rows = ringmat.mat_scal(ringmat.scalar_ring(ctx), ctx.from_int(-e), D)
    diag = [ctx.neg(ctx.scal_int(c, idx + 1)) for c, idx in
            zip(_coeffs_at(ctx, off, qi, [idx + 1 for idx in indices]), indices)]
    for row in rows:
        diag = [ctx.sub(x, r) for x, r in zip(diag, row)]
    rows.insert(i - 1, diag)
    return rows


def gaudin(cfg, i, a):
    """Gaudin Hamiltonian H_i at a residue-distinct point, an n x n matrix."""
    ctx = cfg.ctx
    n = cfg.n
    a = [ctx.from_int(x) if isinstance(x, int) else x for x in a]
    half = ctx.inv(ctx.from_int(2))
    H = [[ctx.zero() for _ in range(n)] for _ in range(n)]
    ii = i - 1
    for j in range(1, n + 1):
        if j == i:
            continue
        jj = j - 1
        d = ctx.sub(a[ii], a[jj])
        if not ctx.is_unit(d):
            raise NonUnitDifference(
                f"z_{i} - z_{j} has valuation {ctx.val(d)} at the point"
            )
        c = ctx.mul(half, ctx.inv(d))
        H[ii][ii] = ctx.sub(H[ii][ii], c)
        H[jj][jj] = ctx.sub(H[jj][jj], c)
        H[ii][jj] = ctx.add(H[ii][jj], c)
        H[jj][ii] = ctx.add(H[jj][ii], c)
    return H


def _axis_polys(ctx, n):
    return [LaurentPoly.z_var(ctx, 0, n, i) for i in range(1, n + 1)]


def _cleared_gaudin_action(cfg, i, I_entries):
    """Rows of prod_{j != i}(z_i - z_j) * (H_i I) as z-polynomials."""
    ctx = cfg.ctx
    n = cfg.n
    z = _axis_polys(ctx, n)
    half = ctx.inv(ctx.from_int(2))
    prods = {}
    for k in range(1, n + 1):
        if k == i:
            continue
        acc = LaurentPoly.one(ctx, 0, n)
        for j in range(1, n + 1):
            if j in (i, k):
                continue
            acc = acc * (z[i - 1] - z[j - 1])
        prods[k] = acc
    g = cfg.g
    out = [[LaurentPoly.zero(ctx, 0, n) for _ in range(g)] for _ in range(n)]
    for l in range(g):
        for j in range(1, n + 1):
            if j == i:
                continue
            diffI = I_entries[j - 1][l] - I_entries[i - 1][l]
            out[i - 1][l] = out[i - 1][l] + (prods[j] * diffI).cmul(half)
        for k in range(1, n + 1):
            if k == i:
                continue
            diffI = I_entries[i - 1][l] - I_entries[k - 1][l]
            out[k - 1][l] = (prods[k] * diffI).cmul(half)
    return out


def kz_residual(cfg, s, i=None, mode="symbolic", points=None):
    """Residual of the KZ system for the level-s frame, modulo p^s.

    Checks prod_{j != i}(z_i - z_j) (dI_s/dz_i - H_i I_s) = 0 mod p^s for
    each direction i (denominators cleared symbolically; evaluated directly
    pointwise), together with column sums = 0 mod p^s.
    """
    ctx = cfg.ctx
    if i is not None:
        check_direction("i", i, cfg.n)
    dirs = [i] if i is not None else list(range(1, cfg.n + 1))
    config = {"p": ctx.p, "N": ctx.N, "g": cfg.g, "s": s,
              "directions": dirs}
    desc = "level-s coefficient frame solves the KZ system modulo p^s"
    if mode == "symbolic":
        if (cfg.exponent(s) + 1) ** cfg.n > 200_000:
            raise SizeCapExceeded("symbolic residual too large; use points")
        ring = ringmat.poly_ring(ctx, 0, cfg.n)
        I = ps_solutions(cfg, s)
        observed = ctx.N
        witness = None
        z = _axis_polys(ctx, cfg.n)
        for d in dirs:
            P = LaurentPoly.one(ctx, 0, cfg.n)
            for j in range(1, cfg.n + 1):
                if j != d:
                    P = P * (z[d - 1] - z[j - 1])
            dI = ps_solution_derivative(cfg, s, d)
            lhs = [[(P * entry) for entry in row] for row in dI]
            rhs = _cleared_gaudin_action(cfg, d, I.entries)
            diff = ringmat.mat_sub(ring, lhs, rhs)
            v, w = _mat_min_val_with_witness(ring, diff, {"direction": d})
            if v < observed:
                observed, witness = v, w
        sums = I.column_sum_valuations()
        observed = min([observed] + sums)
        return _finish("kz-residual", desc, "symbolic", s, observed, ctx.N,
                       witness if observed < s else None, config=config,
                       extra={"column_sum_valuations": sums})

    sring = ringmat.scalar_ring(ctx)

    def one_point(item):
        idx, a = item
        cache = DenseCache()
        I = ps_solutions(cfg, s, a, cache=cache)
        worst = ctx.N
        wit = None
        for d in dirs:
            H = gaudin(cfg, d, a)
            dI = ps_solution_derivative(cfg, s, d, a, cache=cache)
            HI = ringmat.mat_mul(sring, H, I.entries)
            diff = ringmat.mat_sub(sring, dI, HI)
            v, w = _mat_min_val_with_witness(
                sring, diff, {"point_index": idx, "direction": d}
            )
            if v < worst:
                worst, wit = v, w
        sums = I.column_sum_valuations()
        worst = min([worst] + sums)
        return worst, wit

    observed, witness = _pointwise_scan(points, one_point, s, ctx.N)
    return _finish("kz-residual", desc, "pointwise", s, observed, ctx.N,
                   witness if observed < s else None,
                   points=len(points), config=config)


def verify_phi_identities(cfg, s):
    """The two master-polynomial identities behind the residual theorem.

    (1) ((p^s-1)/2) sum_i Phi_s/(t - z_i) = dPhi_s/dt, exactly.
    (2) For each i, after clearing prod_{j != i}(z_i - z_j):
        (d/dz_i + ((p^s-1)/2) sum_{j != i} Omega_ij/(z_i - z_j)) applied to
        the quotient vector equals dPsi_s^i/dt with Psi_s^i the vector
        carrying -Phi_s/(t - z_i) in slot i.
    """
    ctx = cfg.ctx
    n = cfg.n
    e = cfg.exponent(s)
    if (e + 1) ** n > 200_000:
        raise SizeCapExceeded("symbolic identity check too large")
    phi = master_polynomial(cfg, s)
    quot = [phi.synth_div_linear(z_index=i) for i in range(1, n + 1)]
    quot = [LaurentPoly(ctx, 1, n, dict(qq.terms)) for qq in quot]
    phit = LaurentPoly(ctx, 1, n, dict(phi.terms))
    lhs1 = LaurentPoly.zero(ctx, 1, n)
    for q in quot:
        lhs1 = lhs1 + q
    lhs1 = lhs1.cmul(e)
    rhs1 = phit.partial_t()
    diff1 = lhs1 - rhs1
    observed = diff1.valuation() if not diff1.is_zero() else ctx.N
    witness = None if diff1.is_zero() else {"identity": 1}

    zpolys = [LaurentPoly.z_var(ctx, 1, n, i) for i in range(1, n + 1)]
    Ee = ctx.from_int(e)
    for i in range(1, n + 1):
        P = LaurentPoly.one(ctx, 1, n)
        for j in range(1, n + 1):
            if j != i:
                P = P * (zpolys[i - 1] - zpolys[j - 1])
        prods = {}
        for k in range(1, n + 1):
            if k == i:
                continue
            acc = LaurentPoly.one(ctx, 1, n)
            for j in range(1, n + 1):
                if j in (i, k):
                    continue
                acc = acc * (zpolys[i - 1] - zpolys[j - 1])
            prods[k] = acc
        for k in range(1, n + 1):
            # cleared row k of identity (2) for direction i
            scale = -(e - 1) if k == i else -e
            if scale % ctx.q == 0:
                dq = LaurentPoly.zero(ctx, 1, n)
            else:
                base = phi.synth_div_linear(z_index=i)
                dq = base.synth_div_linear(z_index=k).cmul(scale)
                dq = LaurentPoly(ctx, 1, n, dict(dq.terms))
            lhs = P * dq
            if k == i:
                acc = LaurentPoly.zero(ctx, 1, n)
                for j in range(1, n + 1):
                    if j == i:
                        continue
                    acc = acc + prods[j] * (quot[j - 1] - quot[i - 1])
                lhs = lhs + acc.cmul(Ee)
                rhs = -(P * quot[i - 1].partial_t())
            else:
                lhs = lhs + (prods[k] * (quot[i - 1] - quot[k - 1])).cmul(Ee)
                rhs = LaurentPoly.zero(ctx, 1, n)
            diff = lhs - rhs
            if not diff.is_zero():
                v = diff.valuation()
                if v < observed:
                    observed = v
                    witness = {"identity": 2, "direction": i, "row": k}
    desc = "master-polynomial t-derivative identities hold exactly"
    return _finish("phi-identities", desc, "symbolic", ctx.N, observed, ctx.N,
                   witness, config={"p": ctx.p, "N": ctx.N, "g": cfg.g, "s": s})


def verify_solution_congruence(cfg, s, mode="pointwise", points=None):
    """Frame congruences across consecutive levels, modulo p^s.

    (i)  I_{s+1} A(s+1, Phi_{s+1})^-1 = I_s A(s, Phi_s)^-1,
    (ii) the same with d/dz_j applied to the frames, for every j,
    plus the mod-p stabilization I_s A(s, Phi_s)^-1 = I_1 A(1, Phi_1)^-1.
    """
    ctx = cfg.ctx
    config = {"p": ctx.p, "N": ctx.N, "g": cfg.g, "s": s}
    desc = "solution frames against inverse level matrices agree modulo p^s"
    if mode == "symbolic":
        if (cfg.exponent(s + 1) + 1) ** cfg.n > 200_000:
            raise SizeCapExceeded("symbolic frame congruence too large")
        ring = ringmat.poly_ring(ctx, 0, cfg.n)
        A1 = hw_matrix(s + 1, master_polynomial(cfg, s + 1), cfg.delta)
        A0 = hw_matrix(s, master_polynomial(cfg, s), cfg.delta)
        I1 = ps_solutions(cfg, s + 1)
        I0 = ps_solutions(cfg, s)
        adj1 = ringmat.adjugate(ring, A1.entries)
        adj0 = ringmat.adjugate(ring, A0.entries)
        d1, d0 = hw_det(A1), hw_det(A0)
        lhs = ringmat.mat_scal(ring, d0, ringmat.mat_mul(ring, I1.entries, adj1))
        rhs = ringmat.mat_scal(ring, d1, ringmat.mat_mul(ring, I0.entries, adj0))
        diff = ringmat.mat_sub(ring, lhs, rhs)
        observed, witness = _mat_min_val_with_witness(ring, diff, {"part": "frame"})
        for j in range(1, cfg.n + 1):
            dI1 = ps_solution_derivative(cfg, s + 1, j)
            dI0 = ps_solution_derivative(cfg, s, j)
            lhs = ringmat.mat_scal(ring, d0, ringmat.mat_mul(ring, dI1, adj1))
            rhs = ringmat.mat_scal(ring, d1, ringmat.mat_mul(ring, dI0, adj0))
            diff = ringmat.mat_sub(ring, lhs, rhs)
            v, w = _mat_min_val_with_witness(
                ring, diff, {"part": "derivative", "direction": j}
            )
            if v < observed:
                observed, witness = v, w
        return _finish("frame-congruence", desc, "symbolic", s, observed,
                       ctx.N, witness if observed < s else None, config=config)

    sring = ringmat.scalar_ring(ctx)

    def one_point(item):
        idx, a = item
        cache = DenseCache()
        frames = {}
        for lev in (s, s + 1):
            phi = master_polynomial(cfg, lev)
            Aw = cache.hw_at(lev, phi, cfg.delta, a)
            det = hw_det(Aw)
            if not ctx.is_unit(det):
                raise OutsideDomain(
                    f"det A({lev}, Phi_{lev}) not a unit at point {idx}"
                )
            Ainv = ringmat.mat_inv_scalar(ctx, Aw.entries)
            frames[lev] = (Ainv, cache)
        worst = ctx.N
        wit = None
        I1 = ps_solutions(cfg, s + 1, a, cache=cache)
        I0 = ps_solutions(cfg, s, a, cache=cache)
        J1 = ringmat.mat_mul(sring, I1.entries, frames[s + 1][0])
        J0 = ringmat.mat_mul(sring, I0.entries, frames[s][0])
        v, w = _mat_min_val_with_witness(
            sring, ringmat.mat_sub(sring, J1, J0),
            {"point_index": idx, "part": "frame"},
        )
        worst, wit = v, w
        for j in range(1, cfg.n + 1):
            dI1 = ps_solution_derivative(cfg, s + 1, j, a, cache=cache)
            dI0 = ps_solution_derivative(cfg, s, j, a, cache=cache)
            K1 = ringmat.mat_mul(sring, dI1, frames[s + 1][0])
            K0 = ringmat.mat_mul(sring, dI0, frames[s][0])
            v, w = _mat_min_val_with_witness(
                sring, ringmat.mat_sub(sring, K1, K0),
                {"point_index": idx, "part": "derivative", "direction": j},
            )
            if v < worst:
                worst, wit = v, w
        return worst, wit

    observed, witness = _pointwise_scan(points, one_point, s, ctx.N)
    return _finish("frame-congruence", desc, "pointwise", s, observed, ctx.N,
                   witness if observed < s else None,
                   points=len(points), config=config)


def verify_mod_p_stabilization(cfg, s_max, points):
    """Corollary of the frame congruence: I_s A(s)^-1 = I_1 A(1)^-1 mod p."""
    ctx = cfg.ctx
    sring = ringmat.scalar_ring(ctx)
    desc = "frames stabilize modulo p to the level-1 frame"
    config = {"p": ctx.p, "N": ctx.N, "g": cfg.g, "s_max": s_max}

    def one_point(item):
        idx, a = item
        cache = DenseCache()

        def frame(lev):
            phi = master_polynomial(cfg, lev)
            Aw = cache.hw_at(lev, phi, cfg.delta, a)
            if not ctx.is_unit(hw_det(Aw)):
                raise OutsideDomain(f"point {idx} outside the unit-det domain")
            Ainv = ringmat.mat_inv_scalar(ctx, Aw.entries)
            I = ps_solutions(cfg, lev, a, cache=cache)
            return ringmat.mat_mul(sring, I.entries, Ainv)

        base = frame(1)
        worst = ctx.N
        wit = None
        for lev in range(2, s_max + 1):
            v, w = _mat_min_val_with_witness(
                sring, ringmat.mat_sub(sring, frame(lev), base),
                {"point_index": idx, "level": lev},
            )
            if v < worst:
                worst, wit = v, w
        return worst, wit

    observed, witness = _pointwise_scan(points, one_point, 1, ctx.N)
    return _finish("frame-mod-p", desc, "pointwise", 1, observed, ctx.N,
                   witness if observed < 1 else None,
                   points=len(points), config=config)


def first_row_gradient(cfg, s, a=None, cache=None):
    """The n x g matrix of z-gradients of the first Hasse-Witt row of
    A(s, Phi_s); equals ((1 - p^s)/2) I_s exactly."""
    ctx = cfg.ctx
    e = cfg.exponent(s)
    phi = master_polynomial(cfg, s)
    ps = ctx.p**s
    indices = tuple(l * ps - 1 for l in range(1, cfg.g + 1))
    if a is None:
        return [[x.cmul(-e) for x in phi.synth_div_linear(z_index=i).coeffs_t(indices)]
                for i in range(1, cfg.n + 1)]
    cache = cache or DenseCache()
    return ringmat.mat_scal(
        ringmat.scalar_ring(ctx), ctx.from_int(-e),
        [_coeffs_at(ctx, *cache.quotient(phi, a, a[i - 1]), indices)
         for i in range(1, cfg.n + 1)])
