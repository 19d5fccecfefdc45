"""Command-line entry point: JSON-lines reports for every verifier.

Every emitted document carries the schema tag, the command configuration and
the full coefficient context, so any run can be replayed from its own
output.  Exit codes: 0 all verdicts pass, 1 verification failure, 2
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dwork, kz, limits
from .errors import ConfigError, DworkLabError
from .ghosts import AdmissibleTuple, check_admissible, ghost_sequence
from .hasse_witt import PointKit, hw_det, hw_matrix, hw_matrix_at
from .laurent import LaurentPoly, TBox
from .padic import ctx_new

SCHEMA = "dworklab/report-v1"

THEOREM_CHOICES = ("1.6i", "1.6ii", "det", "der", "der2", "decomp")
_THEOREM_ALIASES = {
    "factorization": "1.6i",
    "ratio": "1.6ii",
}


def _parse_delta(text):
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"malformed --delta {text!r}") from exc


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from exc


def _read_input(path, what, parse):
    """parse(the JSON of path), any shape error in it a ConfigError."""
    data = _load_json(path)
    try:
        return parse(data)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{path} is not {what}: {exc!r}") from exc


def _emit(doc, args):
    doc = {"$schema": SCHEMA, **doc}
    line = json.dumps(doc, sort_keys=True)
    out = getattr(args, "_out", sys.stdout)
    out.write(line + "\n")


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _kz_points(args, ctx, g):
    return [
        pt.lift
        for pt in limits.sample_domain_points(
            ctx.p, g, args.ext, args.points, args.seed, ctx
        )
    ]


def _point_from_file(ctx, path, n):
    def parse(data):
        if not isinstance(data, list) or len(data) != n:
            raise ValueError(f"need a list of {n} coordinates")
        return tuple(ctx.elem_from_json(x) for x in data)

    return _read_input(path, "a point", parse)


def _tuple_from_file(ctx, path):
    """(lambdas, periodic) of a --tuple file."""
    def parse(data):
        lams = [LaurentPoly.from_json(ctx, item) for item in data["lambdas"]]
        if not lams:
            raise ValueError("no lambdas")
        return lams, bool(data.get("periodic", False))

    return _read_input(path, "a tuple", parse)


def cmd_ghosts(args):
    ctx = ctx_new(args.p, args.N, 1)
    _require(args.l >= 0, "need l >= 0")
    _require(args.N >= args.l + 1, "need N >= l + 1 for ghost divisibility headroom")
    lams, periodic = _tuple_from_file(ctx, args.tuple)
    delta = _parse_delta(args.delta)
    tup = AdmissibleTuple(lams, delta, periodic=periodic)
    gs = ghost_sequence(tup, args.l)
    ok = True
    for s, (v, val) in enumerate(zip(gs.V, gs.min_vals)):
        passed = val >= min(s, ctx.N)
        ok = ok and passed
        _emit(
            {
                "command": "ghosts",
                "ctx": ctx.to_json(),
                "s": s,
                "min_coefficient_valuation": val,
                "claimed": min(s, ctx.N),
                "verdict": "pass" if passed else "fail",
                "ghost": v.to_json(),
                "admissible": tup.certificate.ok,
            },
            args,
        )
    return 0 if ok else 1


def cmd_hw(args):
    ctx = ctx_new(args.p, args.N, args.ext)
    cfg = kz.KZConfig(ctx, args.g)
    phi = kz.master_polynomial(cfg, args.m)
    if args.at:
        a = _point_from_file(ctx, args.at, cfg.n)
        Aw = hw_matrix_at(args.m, phi, cfg.delta, a)
        det = hw_det(Aw)
        det_json = ctx.elem_to_json(det)
        det_val = ctx.val(det)
    else:
        Aw = hw_matrix(args.m, phi, cfg.delta)
        det = hw_det(Aw)
        det_json = det.to_json()
        det_val = det.valuation()
    _emit(
        {
            "command": "hw",
            "ctx": ctx.to_json(),
            "level": args.m,
            "g": args.g,
            "matrix": Aw.to_json(),
            "det": det_json,
            "det_valuation": det_val,
        },
        args,
    )
    return 0


def cmd_congruence(args):
    theorem = _THEOREM_ALIASES.get(args.theorem, args.theorem)
    _require(theorem in THEOREM_CHOICES, f"unknown theorem id {args.theorem}")
    _require(not args.symbolic or (args.points, args.ext) == (0, 1),
             "--symbolic takes no --points or --ext")
    ctx = ctx_new(args.p, args.N, args.ext)
    _require(args.N >= args.s + 1, "need N >= s + 1 precision headroom")
    if theorem == "der":
        _require(args.N >= args.s + args.m + 1,
                 "need N >= s + m + 1 precision headroom")
    cfg = kz.KZConfig(ctx, args.g)
    length = args.s + 1
    tup = kz.kz_tuple(cfg, length=length, periodic=False)
    mode = "symbolic" if args.symbolic else "pointwise"
    points = None
    if not args.symbolic:
        _require(args.points > 0, "pointwise mode needs --points")
        points = _kz_points(args, ctx, args.g)
    verify, kwargs = {
        "decomp": (dwork.verify_decomposition, {}),
        "1.6i": (dwork.verify_frobenius_factorization, {}),
        "1.6ii": (dwork.verify_dwork_ratio, {}),
        "det": (dwork.verify_det_congruence, {}),
        "der": (dwork.verify_derivative_congruence, {"m": args.m, "v": args.v}),
        "der2": (dwork.verify_second_derivative_congruence,
                 {"u": args.u, "v": args.v}),
    }[theorem]
    rep = verify(tup, args.s, mode=mode, points=points, **kwargs)
    doc = rep.to_json()
    doc.update({"command": "congruence", "theorem": args.theorem,
                "ctx": ctx.to_json(), "seed": args.seed})
    _emit(doc, args)
    return 0 if rep.passed else 1


def cmd_kz_solve(args):
    ctx = ctx_new(args.p, args.N, args.ext)
    cfg = kz.KZConfig(ctx, args.g)
    kit = None
    if args.at:
        kit = PointKit(ctx, cfg.delta, _point_from_file(ctx, args.at, cfg.n))
    sol = kz.ps_solutions(cfg, args.s, kit)
    _emit(
        {
            "command": "kz-solve",
            "ctx": ctx.to_json(),
            "solution": sol.to_json(),
            "column_sum_valuations": sol.column_sum_valuations(),
        },
        args,
    )
    return 0


def cmd_kz_verify(args):
    symbolic = args.symbolic or args.check == "phi"  # phi is symbolic only
    _require(args.i is None or args.check == "residual",
             "--i applies only to --check residual")
    _require(not (symbolic and args.check == "minor"),
             "minor is pointwise only: --symbolic does not apply")
    _require(not symbolic or (args.points, args.ext) == (0, 1),
             "symbolic checks take no --points or --ext")
    ctx = ctx_new(args.p, args.N, args.ext)
    _require(args.N >= args.s + 1, "need N >= s + 1 precision headroom")
    cfg = kz.KZConfig(ctx, args.g)
    if args.check == "phi":
        rep = kz.verify_phi_identities(cfg, args.s)
    elif args.check == "minor":
        points = limits.sample_domain_points(
            ctx.p, args.g, args.ext, args.points, args.seed, ctx)
        certs = [limits.rank_check(cfg, pt) for pt in points]
        ok = all(c.passed for c in certs)
        _emit(
            {
                "command": "kz-verify",
                "check": "minor",
                "ctx": ctx.to_json(),
                "certificates": [c.to_json() for c in certs],
                "verdict": "pass" if ok else "fail",
            },
            args,
        )
        return 0 if ok else 1
    else:
        mode = "symbolic" if args.symbolic else "pointwise"
        points = None if args.symbolic else _kz_points(args, ctx, args.g)
        if args.check == "residual":
            rep = kz.kz_residual(cfg, args.s, i=args.i, mode=mode, points=points)
        else:
            rep = kz.verify_solution_congruence(cfg, args.s, mode=mode,
                                               points=points)
    doc = rep.to_json()
    doc.update({"command": "kz-verify", "check": args.check,
                "ctx": ctx.to_json(), "seed": args.seed})
    _emit(doc, args)
    return 0 if rep.passed else 1


def cmd_domain_scan(args):
    if args.exhaustive:
        res = limits.scan_domain(args.p, args.g, args.m, mode="exhaustive",
                                 keep_points=args.emit_points)
    else:
        _require(args.sample is not None, "give --exhaustive or --sample K")
        res = limits.scan_domain(args.p, args.g, args.m, mode="sample",
                                 k=args.sample, seed=args.seed,
                                 keep_points=args.emit_points)
    ctx1 = ctx_new(args.p, 1, args.m)
    doc = res.to_json(ctx1)
    doc["ctx"] = ctx1.to_json()
    if not args.emit_points:
        doc["points"] = []
    ok = True
    if res.nonempty_bound is not None and res.mode == "exhaustive":
        ok = res.in_d_count >= res.nonempty_bound
        doc["bound_verdict"] = "pass" if ok else "fail"
    doc["command"] = "domain-scan"
    _emit(doc, args)
    return 0 if ok else 1


def cmd_limit(args):
    _require(args.N >= args.smax + 1, "need N >= s_max + 1 precision headroom")
    ctx = ctx_new(args.p, args.N, args.m)
    cfg = kz.KZConfig(ctx, args.g)
    pt = limits.nth_domain_point(args.p, args.g, args.m, args.point,
                                 args.seed, ctx)
    report = limits.limit_report(cfg, pt, args.smax)
    doc = report.to_json()
    doc["command"] = "limit"
    _emit(doc, args)
    return 0 if report.passed else 1


def cmd_admissible(args):
    delta = _parse_delta(args.delta)
    if args.tuple:
        _require(not args.periodic, "--periodic does not apply to --tuple: "
                 "the file's \"periodic\" key decides")
        ctx = ctx_new(args.p, args.N, 1)
        lams, periodic = _tuple_from_file(ctx, args.tuple)
        cert = check_admissible(lams, delta, p=args.p, periodic=periodic,
                                depth=args.depth)
    elif args.boxes:
        boxes = []
        for chunk in args.boxes.split(","):
            try:
                lo, hi = map(int, chunk.split(":"))
            except ValueError as exc:
                raise ConfigError(f"malformed box {chunk!r}") from exc
            _require(lo <= hi, f"malformed box {chunk!r}: lo > hi")
            boxes.append(TBox((lo,), (hi,)))
        cert = check_admissible(boxes, delta, p=args.p,
                                periodic=args.periodic, depth=args.depth)
    else:
        raise ConfigError("give --tuple FILE or --boxes lo:hi,...")
    _emit(
        {
            "command": "admissible",
            "p": args.p,
            "delta": list(delta),
            "ok": cert.ok,
            "complete": cert.complete,
            "checked_depth": cert.checked_depth,
            "witness": cert.witness,
        },
        args,
    )
    return 0 if cert.ok else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dworklab",
        description="exact p-adic congruence verification toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, N=True, ext=True, seed=True):
        sp.add_argument("--p", type=int, required=True)
        if N:
            sp.add_argument("--N", type=int, required=True)
        if ext:
            sp.add_argument("--ext", type=int, default=1,
                            help="extension degree of the point coefficients")
        if seed:
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("ghosts", help="ghost sequence of a tuple file")
    common(sp, ext=False, seed=False)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--tuple", required=True)
    sp.add_argument("--delta", required=True)
    sp.set_defaults(fn=cmd_ghosts)

    sp = sub.add_parser("hw", help="Hasse-Witt matrix of the master polynomial")
    common(sp, seed=False)
    sp.add_argument("--m", type=int, required=True, help="matrix level")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--at", help="JSON file with a point")
    sp.set_defaults(fn=cmd_hw)

    sp = sub.add_parser("congruence", help="run one congruence verifier")
    common(sp)
    sp.add_argument("--theorem", required=True,
                    choices=sorted(set(THEOREM_CHOICES) | set(_THEOREM_ALIASES)))
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--m", type=int, default=0, help="twist power for der")
    sp.add_argument("--g", type=int, default=1)
    sp.add_argument("--u", type=int, default=1)
    sp.add_argument("--v", type=int, default=1)
    sp.add_argument("--symbolic", action="store_true")
    sp.add_argument("--points", type=int, default=0)
    sp.set_defaults(fn=cmd_congruence)

    sp = sub.add_parser("kz-solve", help="emit the level-s solution frame")
    common(sp, seed=False)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--at", help="JSON file with a point")
    sp.set_defaults(fn=cmd_kz_solve)

    sp = sub.add_parser("kz-verify", help="KZ residual and frame checks")
    common(sp)
    sp.add_argument("--check", required=True,
                    choices=("residual", "phi", "coS", "minor"))
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--i", type=int, default=None,
                    help="single direction (default: all)")
    sp.add_argument("--symbolic", action="store_true")
    sp.add_argument("--points", type=int, default=0)
    sp.set_defaults(fn=cmd_kz_verify)

    sp = sub.add_parser("domain-scan", help="enumerate or sample the domain")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--sample", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--emit-points", action="store_true")
    sp.set_defaults(fn=cmd_domain_scan)

    sp = sub.add_parser("limit", help="limit iteration report at one point")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--point", type=int, required=True,
                    help="index into the deterministic o-domain enumeration")
    sp.add_argument("--smax", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_limit)

    sp = sub.add_parser("admissible", help="admissibility of boxes or a tuple")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, default=2)
    sp.add_argument("--delta", required=True)
    sp.add_argument("--tuple")
    sp.add_argument("--boxes", help="comma list of lo:hi t-support intervals")
    sp.add_argument("--periodic", action="store_true")
    sp.add_argument("--depth", type=int, default=8)
    sp.set_defaults(fn=cmd_admissible)

    return ap


_PARSER = None


def run(argv, out=None):
    global _PARSER
    if _PARSER is None:  # built once per process: it takes milliseconds
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if out is not None:
        args._out = out
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DworkLabError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
