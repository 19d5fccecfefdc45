import itertools
import math
import random
import sys

import pytest

import dworklab as dl
from dworklab import limits, ringmat
from dworklab.errors import ConfigError, OutsideDomain, TooLarge
from dworklab.hasse_witt import PointKit, SymbolicKit
from dworklab.limits import (
    det_degree,
    nonempty_bound,
    _unit_minor,
)
from conftest import seeded
from oracles import gaudin


def test_scan_exhaustive_counts():
    res = dl.scan_domain(3, 1, 2)
    assert res.total == 729
    assert res.in_d_count == 648
    assert res.nonempty_bound == 638
    assert res.in_d_count >= res.nonempty_bound
    assert det_degree(3, 1) == 1
    assert nonempty_bound(3, 1, 2) == (728 // 8) * 7 + 1


def _count_evaluations(monkeypatch):
    """Record the codes of every multiset handed to a det A(1, Phi_1)
    evaluation in limits."""
    calls = []
    real = limits._Membership.unit_dets

    def counting(self, batch):
        calls.extend(batch)
        return real(self, batch)

    monkeypatch.setattr(limits._Membership, "unit_dets", counting)
    return calls


def test_exhaustive_scan_evaluates_each_residue_multiset_once(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    res = dl.scan_domain(3, 1, 2)
    assert res.in_d_count == 648 >= res.nonempty_bound == 638
    # C(3^2 + 3 - 1, 3) multisets, not the 729 ordered tuples
    assert len(calls) <= math.comb(11, 3) == 165
    assert len(set(calls)) == len(calls)


def test_count_only_scan_evaluates_each_multiset_exactly_once(monkeypatch):
    calls = _count_evaluations(monkeypatch)
    res = dl.scan_domain(5, 1, 2, keep_points=False)
    assert res.total == 25**3 and res.points == []
    # every multiset of 3 codes out of 25, each once: C(27, 3)
    assert len(calls) == len(set(calls)) == math.comb(27, 3) == 2_925


@pytest.mark.parametrize("p,g,m", [(3, 1, 1), (3, 1, 2), (5, 1, 1),
                                   (5, 1, 2), (5, 2, 1), (7, 1, 1),
                                   (7, 2, 1), (3, 1, 3)])
def test_count_only_scans_match_the_ordered_walk(p, g, m):
    counted = dl.scan_domain(p, g, m, keep_points=False)
    walked = dl.scan_domain(p, g, m, keep_points=True)
    fields = ("mode", "total", "in_d_count", "in_do_count", "nonempty_bound")
    assert ([getattr(counted, f) for f in fields]
            == [getattr(walked, f) for f in fields])
    assert walked.in_d_count == sum(pt.in_D for pt in walked.points)
    assert walked.in_do_count == sum(pt.in_D_o for pt in walked.points)


@pytest.mark.parametrize("p,g,m,sample", [
    (3, 1, 2, None), (5, 2, 1, None), (3, 1, 3, None), (7, 1, 2, None),
    (5, 2, 2, 300), (7, 3, 1, 300), (13, 2, 1, 300)])
def test_membership_matches_the_hasse_witt_determinant(p, g, m, sample):
    """The batched verdicts off the linear product equal the unit test of
    det A(1, Phi_1) read off the full expansion, in batches of 1, 7 and
    BATCH multisets."""
    member = limits._Membership(p, g, m)
    ctx, pm, n = member.ctx, p**m, member.n
    cfg = dl.KZConfig(ctx, g)
    phi, ring = dl.master_polynomial(cfg, 1), ringmat.scalar_ring(ctx)

    def hasse_witt_verdict(codes):
        a = [member.residues[c] for c in codes]
        return ctx.is_unit(dl.hw_det(ring, dl.hw_matrix_at(1, phi, cfg.delta,
                                                           a)))

    if sample is None:
        multisets = list(itertools.combinations_with_replacement(range(pm), n))
    else:
        rng = seeded(p * 100 + g * 10 + m)
        multisets = [tuple(sorted(rng.randrange(pm) for _ in range(n)))
                     for _ in range(sample)]
    expected = [hasse_witt_verdict(c) for c in multisets]
    assert True in expected and False in expected
    for size in (1, 7, limits.BATCH):
        verdicts = []
        for i in range(0, len(multisets), size):
            verdicts += member.unit_dets(multisets[i:i + size])
        assert verdicts == expected


def test_nth_domain_point_follows_the_ordered_enumeration():
    eligible = [pt for pt in dl.scan_domain(3, 1, 2).points if pt.in_D_o]
    ctx = dl.ctx_new(3, 4, 2)
    for k in (0, len(eligible) // 2, len(eligible) - 1):
        pt = dl.nth_domain_point(3, 1, 2, k, 0, ctx)
        assert (pt.residues, pt.index) == (eligible[k].residues,
                                           eligible[k].index)
        assert pt.lift == dl.lift_point(eligible[k], ctx).lift
    with pytest.raises(ConfigError, match=rf"out of range \({len(eligible)} "):
        dl.nth_domain_point(3, 1, 2, len(eligible), 0, ctx)
    with pytest.raises(ConfigError, match="must be >= 0"):
        dl.nth_domain_point(3, 1, 2, -1, 0, ctx)


def test_nth_domain_point_stops_at_the_point(monkeypatch):
    # (5, 2, 2) has 25^5 tuples and C(25, 5) = 53,130 residue-distinct
    # multisets; the first o-domain point needs a handful of evaluations
    calls = _count_evaluations(monkeypatch)
    pt = dl.nth_domain_point(5, 2, 2, 0, 0, dl.ctx_new(5, 3, 2))
    assert pt.in_D_o and len(set(pt.residues)) == 5
    assert 1 <= len(calls) < 100


def test_nth_domain_point_above_the_cap_lifts_only_its_point(monkeypatch):
    # (7, 2, 2) has 49^5 ordered tuples, beyond EXHAUSTIVE_CAP: the point is
    # the k-th reproducible sample
    assert 49**5 > limits.EXHAUSTIVE_CAP
    ctx, k = dl.ctx_new(7, 3, 2), 3
    sampled = dl.sample_domain_points(7, 2, 2, k + 1, 5, ctx)[k]
    lifts = []
    real = limits.lift_point

    def counting(point, ctx):
        lifts.append(point.index)
        return real(point, ctx)

    monkeypatch.setattr(limits, "lift_point", counting)
    pt = dl.nth_domain_point(7, 2, 2, k, 5, ctx)
    assert (pt.residues, pt.index, pt.lift) == (sampled.residues,
                                                sampled.index, sampled.lift)
    assert lifts == [k]


def test_membership_makes_no_per_element_ring_calls(monkeypatch):
    """Scans classify multisets on plain-int columns: past building the
    residue field, neither PadicCtx.mul nor PadicCtx.add is called."""
    calls = []
    for name in ("mul", "add"):
        real = getattr(dl.PadicCtx, name)

        def counting(self, a, b, real=real, name=name):
            calls.append(name)
            return real(self, a, b)

        monkeypatch.setattr(dl.PadicCtx, name, counting)
    for (p, g, m), k in (((5, 1, 2), None), ((5, 2, 2), 5000)):
        calls.clear()
        limits._Membership(p, g, m)
        setup = len(calls)
        calls.clear()
        res = dl.scan_domain(p, g, m, k=k, seed=1, keep_points=False)
        assert res.in_d_count > 0
        assert len(calls) == setup


def test_non_positive_counts_are_rejected():
    ctx = dl.ctx_new(3, 3, 2)
    for count in (0, -3):
        with pytest.raises(ConfigError):
            dl.sample_domain_points(3, 1, 2, count, 0, ctx)
        with pytest.raises(ConfigError):
            dl.scan_domain(3, 1, 2, k=count, seed=0)
    cfg = dl.KZConfig(ctx, 1)
    with pytest.raises(ConfigError, match="at least one point"):
        dl.verify_solution_congruence(cfg, 2, points=[])
    pt = dl.sample_domain_points(3, 1, 2, 1, 0, ctx)[0]
    with pytest.raises(ConfigError, match="s_max must be >= 2"):
        dl.limit_frames(cfg, pt, 0, _kit(cfg, pt))


def test_scan_membership_cases():
    res = dl.scan_domain(3, 1, 1)
    by_res = {pt.residues: pt for pt in res.points}
    # det = -(u1 + u2 + u3): (0,1,2) sums to 0 -> excluded
    assert not by_res[(0, 1, 2)].in_D
    # (0,1,1) sums to 2 -> in the domain but not residue-distinct
    assert by_res[(0, 1, 1)].in_D
    assert not by_res[(0, 1, 1)].in_D_o


def test_scan_sampling_reproducible():
    r1 = dl.scan_domain(5, 1, 1, k=50, seed=9)
    r2 = dl.scan_domain(5, 1, 1, k=50, seed=9)
    assert [pt.residues for pt in r1.points] == [pt.residues for pt in r2.points]
    assert r1.in_d_count == r2.in_d_count
    r3 = dl.scan_domain(5, 1, 1, k=50, seed=10)
    assert [pt.residues for pt in r3.points] != [pt.residues for pt in r1.points]


@pytest.mark.parametrize("pm", [3, 5, 7, 9, 11, 13, 25, 27, 49, 125, 169, 343,
                                2401])
def test_draws_are_the_randrange_draws(pm):
    """Sampled scans draw codes through getrandbits and randrange's own
    rejection loop: the same codes, in the same order, as
    random.Random(seed).randrange(pm), so every sampled report keeps its
    bytes.  pm runs over the residue field sizes p^m of the tests and the
    benchmark."""
    for seed in (0, 1, 7, 389):
        for n in (3, 5):
            rng = random.Random(seed)
            want = [tuple(rng.randrange(pm) for _ in range(n))
                    for _ in range(400)]
            assert list(limits._random_tuples(seed, pm, n, 400)) == want


def test_scan_samples_k_tuples():
    res = dl.scan_domain(5, 1, 1, k=40, seed=2)
    assert (res.mode, res.total, res.seed, len(res.points)) == (
        "sample", 40, 2, 40)
    assert res.nonempty_bound is None
    full = dl.scan_domain(5, 1, 1, seed=2)  # no k: every tuple, no seed
    assert (full.mode, full.total, full.seed) == ("exhaustive", 125, None)


def test_scan_too_large(monkeypatch):
    with pytest.raises(TooLarge):
        dl.scan_domain(7, 2, 2)

    def no_draws(*args):
        raise AssertionError("drew tuples for a refused sample")

    monkeypatch.setattr(limits, "_random_tuples", no_draws)
    k = limits.EXHAUSTIVE_CAP + 1
    with pytest.raises(TooLarge, match=rf"sample of {k} tuples exceeds "
                                       rf"{limits.EXHAUSTIVE_CAP}"):
        dl.scan_domain(3, 1, 2, k=k, seed=0)
    # above the cap, the point index k needs a sample of k + 1 points
    assert 49**5 > limits.EXHAUSTIVE_CAP
    with pytest.raises(TooLarge, match=rf"sample of {k} points exceeds "
                                       rf"{limits.EXHAUSTIVE_CAP}"):
        dl.nth_domain_point(7, 2, 2, k - 1, 0, dl.ctx_new(7, 3, 2))


def test_membership_depends_only_on_residues():
    ctx = dl.ctx_new(3, 4, 2)
    cfg = dl.KZConfig(ctx, 1)
    scan = dl.scan_domain(3, 1, 2)
    rng = seeded(33)
    pts = [pt for pt in scan.points if pt.in_D][:5] + \
        [pt for pt in scan.points if not pt.in_D][:5]
    phi = dl.master_polynomial(cfg, 1)
    for pt in pts:
        lifted = dl.lift_point(pt, ctx)
        nudged = tuple(
            ctx.add(x, ctx.scal_int(ctx.one(), 3 * rng.randrange(3)))
            for x in lifted.lift
        )
        for a in (lifted.lift, nudged):
            det = dl.hw_det(ringmat.scalar_ring(ctx),
                            dl.hw_matrix_at(1, phi, cfg.delta, a))
            assert ctx.is_unit(det) == pt.in_D


def test_sigma_stability_of_domain():
    ctx = dl.ctx_new(3, 3, 2)
    cfg = dl.KZConfig(ctx, 1)
    phi = dl.master_polynomial(cfg, 1)
    pts = dl.sample_domain_points(3, 1, 2, 8, 3, ctx)
    for pt in pts:
        ap = tuple(ctx.frob(x, 1) for x in pt.lift)
        det = dl.hw_det(ringmat.scalar_ring(ctx),
                        dl.hw_matrix_at(1, phi, cfg.delta, ap))
        assert ctx.is_unit(det)
        # frobenius/point compatibility: the symbolic kit's twist at the
        # point, the point kit's twist and the matrix at a^p agree
        from oracles import hw_eval

        sym = SymbolicKit(ctx, cfg.delta, cfg.n).A(1, phi, twist=1)
        assert hw_eval(sym, pt.lift) == _kit(cfg, pt).A(1, phi, twist=1) \
            == dl.hw_matrix_at(1, phi, cfg.delta, ap)


def _kit(cfg, pt):
    return PointKit(cfg.ctx, cfg.delta, pt.lift, pt.index)


def _frames(cfg, pt, s_max):
    return dl.limit_frames(cfg, pt, s_max, _kit(cfg, pt))


def _J1(cfg, pt):
    """J_1 at the point, through a kit of its own."""
    return limits._frame(cfg, 1, _kit(cfg, pt))


def test_ratio_profile():
    ctx = dl.ctx_new(3, 5, 2)
    cfg = dl.KZConfig(ctx, 1)
    pts = dl.sample_domain_points(3, 1, 2, 3, 7, ctx)
    for pt in pts:
        frag = _frames(cfg, pt, 4)
        assert all(v >= s + 1 for s, v in enumerate(frag["decay_A"]))
        assert all(v == 0 for v in frag["det_valuations"])
        # R_0 is the level-1 matrix itself
        phi = dl.master_polynomial(cfg, 1)
        assert frag["ratios"][0] == dl.hw_matrix_at(
            1, phi, cfg.delta, pt.lift)


def test_frame_profiles_and_stabilization():
    ctx = dl.ctx_new(3, 5, 2)
    cfg = dl.KZConfig(ctx, 1)
    pts = dl.sample_domain_points(3, 1, 2, 3, 11, ctx)
    for pt in pts:
        frag = _frames(cfg, pt, 4)
        for name in ("decay_J", "decay_K", "decay_B"):
            assert all(v >= s + 1 for s, v in enumerate(frag[name]))
        # mod-p value of the limit frame: (1,1,1)^T (-(a1+a2+a3))^-1
        a = pt.lift
        tot = ctx.zero()
        for x in a:
            tot = ctx.add(tot, x)
        expect = ctx.inv(ctx.neg(tot))
        for row in frag["I"]:
            assert ctx.val(ctx.sub(row[0], expect)) >= 1
        # corollary: limit frame = I_1 A(1)^-1 mod p
        phi = dl.master_polynomial(cfg, 1)
        A1 = dl.hw_matrix_at(1, phi, cfg.delta, a)
        J1 = ringmat.mat_mul(
            ringmat.scalar_ring(ctx),
            dl.ps_solutions(cfg, 1, PointKit(ctx, cfg.delta, a)),
            ringmat.mat_inv_scalar(ctx, A1),
        )
        diff = ringmat.mat_sub(ringmat.scalar_ring(ctx), frag["I"], J1)
        assert ringmat.min_val(ringmat.scalar_ring(ctx), diff) >= 1


def test_sampling_settles_emptiness_like_an_exhaustive_scan():
    # (3, 1, 1): in_D 18 of 27 but in_D_o 0; (5, 2, 1): in_D_o 0 of 3,125
    for p, g, m in [(3, 1, 1), (5, 1, 1), (5, 2, 1)]:
        ctx = dl.ctx_new(p, 2, m)
        if dl.scan_domain(p, g, m, keep_points=False).in_do_count:
            pts = dl.sample_domain_points(p, g, m, 3, 1, ctx)
            assert len(pts) == 3 and all(pt.in_D_o for pt in pts)
        else:
            with pytest.raises(OutsideDomain, match="o-domain is empty"):
                dl.sample_domain_points(p, g, m, 3, 1, ctx)


def test_limit_requires_domain_point():
    ctx = dl.ctx_new(3, 5, 1)
    cfg = dl.KZConfig(ctx, 1)
    bad = dl.DomainPoint((0, 1, 2), (0, 1, 2), False, False, 0)
    with pytest.raises(OutsideDomain, match="unit-determinant domain"):
        _frames(cfg, bad, 3)
    # in D but with a repeated residue: refused as outside the o-domain
    twice = dl.DomainPoint((0, 1, 1), (0, 1, 1), True, False, 0)
    with pytest.raises(OutsideDomain, match="residue-distinct o-domain"):
        _frames(cfg, twice, 3)


def _shift_J(ctx, frag, shift):
    """frag with the entry (0, 0) of the limit frame J moved by shift."""
    bad = dict(frag)
    bad["I"] = [list(row) for row in frag["I"]]
    bad["I"][0][0] = ctx.add(bad["I"][0][0], ctx.from_int(shift))
    return bad


def test_kz_mc_certificate_and_perturbation():
    ctx = dl.ctx_new(3, 5, 2)
    cfg = dl.KZConfig(ctx, 1)
    pt = dl.sample_domain_points(3, 1, 2, 1, 5, ctx)[0]
    s_max = 3
    kit = _kit(cfg, pt)
    frag = dl.limit_frames(cfg, pt, s_max, kit)
    cert = dl.kz_certificates(cfg, pt, s_max, frag, kit)[0]
    assert cert.name == "kz-gaudin-match"
    assert cert.passed and cert.observed >= s_max - 1
    # sharpness: a single-entry error at the threshold passes and one digit
    # below it fails (a uniform shift would be invisible: Gaudin rows sum to
    # zero, so H kills constant frames)
    for shift, passes in ((3 ** (s_max - 1), True), (3 ** (s_max - 2), False)):
        bad = _shift_J(ctx, frag, shift)
        cert_bad = dl.kz_certificates(cfg, pt, s_max, bad, kit)[0]
        assert cert_bad.passed == passes, shift


def test_invariance_certificate():
    ctx = dl.ctx_new(3, 5, 2)
    cfg = dl.KZConfig(ctx, 1)
    pts = dl.sample_domain_points(3, 1, 2, 2, 29, ctx)
    for pt in pts:
        kit = _kit(cfg, pt)
        frag = dl.limit_frames(cfg, pt, 3, kit)
        cert = dl.kz_certificates(cfg, pt, 3, frag, kit)[1]
        assert cert.name == "kz-invariant-span"
        assert cert.passed and cert.observed >= 2
        # the recovered span coefficients match -A^(i)
        assert cert.details["coefficient_recovery_valuation"] >= 2
        bad = dict(frag)
        bad["I_dirs"] = {
            i: [[ctx.add(x, ctx.from_int(3)) for x in row] for row in M]
            for i, M in frag["I_dirs"].items()
        }
        assert not dl.kz_certificates(cfg, pt, 3, bad, kit)[1].passed
        for shift, passes in ((9, True), (3, False)):  # p^(s_max-1), p^(s_max-2)
            bad = _shift_J(ctx, frag, shift)
            cert_bad = dl.kz_certificates(cfg, pt, 3, bad, kit)[1]
            assert cert_bad.passed == passes, shift


def test_rank_check_g1_always_unit():
    ctx = dl.ctx_new(3, 3, 2)
    cfg = dl.KZConfig(ctx, 1)
    pts = dl.sample_domain_points(3, 1, 2, 6, 31, ctx)
    for pt in pts:
        cert = dl.rank_check(cfg, pt, _J1(cfg, pt))
        assert cert.passed
        assert cert.details["preferred_minor_valuation"] == 0


def test_rank_check_g2():
    ctx = dl.ctx_new(7, 3, 2)  # 7^2 = 49 > 2d = 24
    cfg = dl.KZConfig(ctx, 2)
    pts = dl.sample_domain_points(7, 2, 2, 4, 37, ctx)
    for pt in pts:
        assert dl.rank_check(cfg, pt, _J1(cfg, pt)).passed


def test_unit_minor_rows_fallback():
    # a crafted frame whose preferred rows are singular but whose rank is
    # still full thanks to another row combination
    ctx = dl.ctx_new(7, 2, 1)
    cfg = dl.KZConfig(ctx, 2)
    M = [
        [1, 1],
        [7, 7],
        [2, 2],  # rows 1,3 (indices 0,2) are proportional: det = 0 mod 7
        [7, 7],
        [1, 3],
    ]
    v, rows = _unit_minor(cfg, M)
    assert v > 0 and rows is not None
    sub = [M[r] for r in rows]
    assert ctx.is_unit(ringmat.det(ringmat.scalar_ring(ctx), sub))


def test_limit_report_bundle(monkeypatch):
    made = []

    class CountingKit(PointKit):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(limits, "PointKit", CountingKit)
    ctx = dl.ctx_new(3, 5, 2)
    cfg = dl.KZConfig(ctx, 1)
    pt = dl.sample_domain_points(3, 1, 2, 1, 41, ctx)[0]
    rep = dl.limit_report(cfg, pt, 3)
    assert len(made) == 1  # every read of the point goes through one kit
    assert rep.passed
    doc = rep.to_json()
    assert doc["s_max"] == 3
    assert len(doc["certificates"]) == 3
    assert doc["ctx"]["p"] == 3 and doc["ctx"]["m"] == 2
    # both KZ certificates read the same residual K^(i) - H_i J
    kz_mc, span, rank = rep.certificates
    assert kz_mc.details["per_direction"] == span.details["per_direction"]
    # the rank certificate read the pass's J_1; the same frame through a kit
    # of its own gives the same certificate
    assert rank.to_json() == dl.rank_check(cfg, pt, _J1(cfg, pt)).to_json()


@pytest.mark.parametrize("p,N,g,m,s_max", [(5, 5, 1, 1, 3), (3, 5, 1, 2, 3),
                                           (7, 4, 2, 1, 3)])
def test_invariant_span_observes_the_gaudin_match(p, N, g, m, s_max):
    """Why a limit report prints one per_direction twice: with D_i =
    K^(i) - H_i J (H_i from the matrix oracle), KD_i = D_i - J B^(i) and C
    solved on the unit minor J_r, KD_i - J C = D_i - J J_r^-1 (D_i)_r and
    C + B^(i) = J_r^-1 (D_i)_r hold exactly at every sampled point.  So the
    span certificate observes the Gaudin match's valuation, and the
    recovery valuation is the least valuation of the D_i on the minor's
    rows."""
    ctx = dl.ctx_new(p, N, m)
    cfg, ring = dl.KZConfig(ctx, g), ringmat.scalar_ring(ctx)
    for pt in dl.sample_domain_points(p, g, m, 3, 7 * p + m, ctx):
        kit = PointKit(ctx, cfg.delta, pt.lift, pt.index)
        frag = limits.limit_frames(cfg, pt, s_max, kit)
        match, span = limits.kz_certificates(cfg, pt, s_max, frag, kit)
        J = frag["I"]
        _, rows = _unit_minor(cfg, J)
        Jr_inv = ringmat.mat_inv_scalar(ctx, [J[r] for r in rows])
        D = {i: ringmat.mat_sub(ring, frag["I_dirs"][i], ringmat.mat_mul(
            ring, gaudin(cfg, i, pt.lift), J)) for i in range(1, cfg.n + 1)}
        for i, Di in D.items():
            B = frag["A_dirs"][i]
            KD = ringmat.mat_sub(ring, Di, ringmat.mat_mul(ring, J, B))
            C = ringmat.mat_solve_scalar(ctx, [J[r] for r in rows],
                                         [KD[r] for r in rows])
            X = ringmat.mat_mul(ring, Jr_inv, [Di[r] for r in rows])
            assert ringmat.mat_add(ring, C, B) == X
            assert ringmat.mat_sub(ring, KD, ringmat.mat_mul(ring, J, C)) \
                == ringmat.mat_sub(ring, Di, ringmat.mat_mul(ring, J, X))
        per_dir = {i: ringmat.min_val(ring, Di) for i, Di in D.items()}
        assert match.details["per_direction"] == per_dir
        assert span.details["per_direction"] == per_dir
        assert span.observed == match.observed == min(ctx.N, *per_dir.values())
        assert span.details["coefficient_recovery_valuation"] == min(
            ringmat.min_val(ring, [Di[r] for r in rows]) for Di in D.values())


def test_limit_report_forms_each_gaudin_action_once(monkeypatch):
    """Both KZ certificates share one defect set: n Gaudin defects, one per
    direction, where a defect set per certificate would take 2n."""
    calls = []
    real = limits.gaudin_defect

    def counting(ring, i, *rest):
        calls.append(i)
        return real(ring, i, *rest)

    monkeypatch.setattr(limits, "gaudin_defect", counting)
    ctx = dl.ctx_new(7, 4, 1)
    cfg = dl.KZConfig(ctx, 2)
    pt = dl.sample_domain_points(7, 2, 1, 1, 3, ctx)[0]
    assert dl.limit_report(cfg, pt, 3).passed
    assert calls == list(range(1, cfg.n + 1))


def test_limit_frames_inverts_each_level_once(monkeypatch):
    """One pass forms each (level, twist) inverse once: A(s, Phi_s) at the
    point for s = 1..s_max and at its twist for s = 1..s_max-1.  The
    report adds none, and reads no frame beyond the pass's s_max: its rank
    certificate takes J_1 from the pass."""
    calls, frames = [], []
    real, real_frame = limits._level_matrix_inv, limits.ps_solutions

    def counting(cfg, lev, kit, twist=0):
        calls.append((lev, twist))
        return real(cfg, lev, kit, twist)

    def counting_frames(cfg, s, kit):
        frames.append(s)
        return real_frame(cfg, s, kit)

    monkeypatch.setattr(limits, "_level_matrix_inv", counting)
    monkeypatch.setattr(limits, "ps_solutions", counting_frames)
    ctx = dl.ctx_new(3, 5, 2)
    cfg = dl.KZConfig(ctx, 1)
    pt = dl.sample_domain_points(3, 1, 2, 1, 41, ctx)[0]
    want = sorted([(s, 0) for s in range(1, 5)] + [(s, 1) for s in range(1, 4)])
    _frames(cfg, pt, 4)
    assert len(calls) == len(set(calls))
    assert sorted(calls) == want and frames == [1, 2, 3, 4]
    calls.clear()
    frames.clear()
    assert dl.limit_report(cfg, pt, 4).passed
    assert sorted(calls) == want and frames == [1, 2, 3, 4]


def test_limit_inverts_by_the_certified_determinant(monkeypatch):
    """_level_matrix_inv inverts A by adj(A) times the inverse of the det
    its unit check certified; mat_inv_scalar would form and check that det
    again.  Only the direction solves of kz-invariant-span call it."""
    callers = []
    real = ringmat.mat_inv_scalar

    def counting(ctx, A):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(ctx, A)

    monkeypatch.setattr(ringmat, "mat_inv_scalar", counting)
    ctx = dl.ctx_new(3, 5, 2)
    cfg = dl.KZConfig(ctx, 1)
    pt = dl.sample_domain_points(3, 1, 2, 1, 41, ctx)[0]
    assert dl.limit_report(cfg, pt, 4).passed
    assert callers == ["mat_solve_scalar"] * cfg.n


def test_rank_check_forms_each_minor_once(monkeypatch):
    """A preferred minor that is not a unit is formed once, not again by
    the fallback search: at g = 1 the minors are rows 0, then 1."""
    dets = []
    real = ringmat.det

    def counting(ring, A):
        dets.append([list(row) for row in A])
        return real(ring, A)

    monkeypatch.setattr(ringmat, "det", counting)
    ctx = dl.ctx_new(3, 3, 1)
    cfg = dl.KZConfig(ctx, 1)
    pt = dl.DomainPoint((0, 1, 2), (0, 1, 2), True, True, 0)
    cert = dl.rank_check(cfg, pt, [[3], [1], [1]])
    assert cert.passed and cert.details["fallback_rows"] == [1]
    assert cert.details["preferred_minor_valuation"] == 1
    assert dets == [[[3]], [[1]]]


def test_limit_verdict_gates_every_profile():
    ctx = dl.ctx_new(3, 5, 2)
    cfg = dl.KZConfig(ctx, 1)
    pt = dl.sample_domain_points(3, 1, 2, 1, 41, ctx)[0]
    rep = dl.limit_report(cfg, pt, 3)
    assert rep.passed
    for name in ("decay_A", "decay_J", "decay_K", "decay_B"):
        good = rep.frag[name]
        rep.frag[name] = [good[0], 1]  # index 1 must be >= 2
        assert not rep.passed, name
        rep.frag[name] = good
    assert rep.passed
    rep.frag["det_valuations"][0] = 1
    assert not rep.passed
