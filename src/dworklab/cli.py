"""Command-line entry point: JSON-lines reports for every verifier.

One table, ``COMMANDS``, declares each subcommand: the function that does
its work, its help and its flags in order, the shared flags spelled once.
A command returns its report documents and whether every verdict in them
passed; ``run`` alone tags each document with the schema and the command,
writes it as one JSON line and maps the verdicts to the exit code.  Every
document carries the command configuration and the full coefficient
context, so any run can be replayed from its own output.  Exit codes: 0
all verdicts pass, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dwork, kz, limits, ringmat
from .errors import ConfigError, DworkLabError
from .ghosts import AdmissibleTuple, check_admissible, ghost_sequence
from .hasse_witt import PointKit, SymbolicKit, hw_det, hw_matrix, hw_matrix_at
from .laurent import LaurentPoly, TBox
from .padic import ctx_new

SCHEMA = "dworklab/report-v1"

# --theorem id or alias -> (verifier in ``dwork``, the flags it takes).  The
# verifier is looked up by name at each run, so that a wrapper installed on
# the module (a tracer, a test's patch) sees the call.
THEOREMS = {
    "1.6i": ("verify_frobenius_factorization", ()),
    "factorization": ("verify_frobenius_factorization", ()),
    "1.6ii": ("verify_dwork_ratio", ()),
    "ratio": ("verify_dwork_ratio", ()),
    "det": ("verify_det_congruence", ()),
    "der": ("verify_derivative_congruence", ("m", "v")),
    "der2": ("verify_second_derivative_congruence", ("u", "v")),
    "decomp": ("verify_decomposition", ()),
}


def _parse_delta(text):
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"malformed --delta {text!r}") from exc


def _read_input(path, what, parse):
    """parse(the JSON of path), any read or shape error in it a ConfigError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not JSON: {exc}") from exc
    try:
        return parse(data)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{path} is not {what}: {exc!r}") from exc


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _kz_family(args, m):
    """The context Z_(p^m)/p^N and the genus-g KZ family over it."""
    ctx = ctx_new(args.p, args.N, m)
    return ctx, kz.KZConfig(ctx, args.g)


def _points(args, ctx, symbolic):
    """None for a symbolic run, which takes no --points or --ext; else the
    run's --points sampled o-domain points, lifted into ctx."""
    if symbolic:
        _require((args.points, args.ext) == (0, 1),
                 "symbolic checks take no --points or --ext")
        return None
    _require(args.points > 0, "pointwise mode needs --points")
    return limits.sample_domain_points(ctx.p, args.g, args.ext, args.points,
                                       args.seed, ctx)


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
    docs = []
    for s, (v, val) in enumerate(zip(gs.V, gs.min_vals)):
        claimed = min(s, ctx.N)
        docs.append({
            "ctx": ctx.to_json(),
            "s": s,
            "min_coefficient_valuation": val,
            "claimed": claimed,
            "verdict": "pass" if val >= claimed else "fail",
            "ghost": v.to_json(),
            "admissible": tup.certificate.ok,
        })
    return docs, all(doc["verdict"] == "pass" for doc in docs)


def cmd_hw(args):
    ctx, cfg = _kz_family(args, args.ext)
    phi = kz.master_polynomial(cfg, args.m)
    if args.at:
        a = _point_from_file(ctx, args.at, cfg.n)
        A = hw_matrix_at(args.m, phi, cfg.delta, a)
        ring, elem = ringmat.scalar_ring(ctx), ctx.elem_to_json
    else:
        A = hw_matrix(args.m, phi, cfg.delta)
        ring, elem = ringmat.poly_ring(ctx, 0, cfg.n), LaurentPoly.to_json
    det = hw_det(ring, A)
    return [{
        "ctx": ctx.to_json(),
        "level": args.m,
        "g": args.g,
        "matrix": {"level": args.m, "delta": list(cfg.delta),
                   "pointwise": bool(args.at),
                   "entries": [[elem(x) for x in row] for row in A]},
        "det": elem(det),
        "det_valuation": ring.val(det),
    }], True


def cmd_congruence(args):
    name, flags = THEOREMS[args.theorem]
    table = COMMANDS["congruence"][2]
    for flag in ("m", "u", "v"):  # the run would ignore a flag not listed
        _require(flag in flags
                 or getattr(args, flag) == table[f"--{flag}"]["default"],
                 f"--{flag} does not apply to --theorem {args.theorem}")
    _require(args.N >= args.s + 1, "need N >= s + 1 precision headroom")
    if args.theorem == "der":
        _require(args.N >= args.s + args.m + 1,
                 "need N >= s + m + 1 precision headroom")
    ctx, cfg = _kz_family(args, args.ext)
    tup = kz.kz_tuple(cfg, length=args.s + 1)
    points = _points(args, ctx, args.symbolic)
    rep = getattr(dwork, name)(
        tup, args.s, points=points and [pt.lift for pt in points],
        **{flag: getattr(args, flag) for flag in flags})
    return [{**rep.to_json(), "theorem": args.theorem, "ctx": ctx.to_json(),
             "seed": args.seed}], rep.passed


def cmd_kz_solve(args):
    ctx, cfg = _kz_family(args, args.ext)
    if args.at:
        kit = PointKit(ctx, cfg.delta, _point_from_file(ctx, args.at, cfg.n))
        elem = ctx.elem_to_json
    else:
        kit, elem = SymbolicKit(ctx, cfg.delta, cfg.n), LaurentPoly.to_json
    I = kz.ps_solutions(cfg, args.s, kit)
    return [{
        "ctx": ctx.to_json(),
        "solution": {"s": args.s, "n": cfg.n, "g": cfg.g,
                     "pointwise": bool(args.at),
                     "provenance": list(kz._frame_indices(cfg, args.s)),
                     "entries": [[elem(x) for x in row] for row in I]},
        "column_sum_valuations": kz.column_sum_valuations(kit.ring, I),
    }], True


def cmd_kz_verify(args):
    symbolic = args.symbolic or args.check == "phi"  # phi is symbolic only
    _require(args.i is None or args.check == "residual",
             "--i applies only to --check residual")
    _require(not (symbolic and args.check == "minor"),
             "minor is pointwise only: --symbolic does not apply")
    _require(args.s == 1 or args.check != "minor",
             "minor reads the level-1 frame only: --s applies only as 1")
    _require(args.N >= args.s + 1, "need N >= s + 1 precision headroom")
    ctx, cfg = _kz_family(args, args.ext)
    points = _points(args, ctx, symbolic)
    if args.check == "minor":
        certs = [limits.rank_check(cfg, pt, limits._frame(
                     cfg, 1, PointKit(ctx, cfg.delta, pt.lift, pt.index)))
                 for pt in points]
        ok = all(c.passed for c in certs)
        return [{
            "check": "minor",
            "ctx": ctx.to_json(),
            "certificates": [c.to_json() for c in certs],
            "verdict": "pass" if ok else "fail",
        }], ok
    if args.check == "phi":
        rep = kz.verify_phi_identities(cfg, args.s)
    else:
        lifts = points and [pt.lift for pt in points]
        if args.check == "residual":
            rep = kz.kz_residual(cfg, args.s, i=args.i, points=lifts)
        else:
            rep = kz.verify_solution_congruence(cfg, args.s, points=lifts)
    return [{**rep.to_json(), "check": args.check, "ctx": ctx.to_json(),
             "seed": args.seed}], rep.passed


def cmd_domain_scan(args):
    _require(args.exhaustive or args.sample is not None,
             "give --exhaustive or --sample K")
    _require(not (args.exhaustive and args.sample is not None),
             "--exhaustive and --sample K are exclusive")
    res = limits.scan_domain(args.p, args.g, args.m, k=args.sample,
                             seed=args.seed, keep_points=args.emit_points)
    ctx1 = ctx_new(args.p, 1, args.m)
    doc = {**res.to_json(ctx1), "ctx": ctx1.to_json()}
    ok = True
    if res.nonempty_bound is not None:  # exhaustive scans only
        ok = res.in_d_count >= res.nonempty_bound
        doc["bound_verdict"] = "pass" if ok else "fail"
    return [doc], ok


def cmd_limit(args):
    _require(args.N >= args.smax + 1, "need N >= s_max + 1 precision headroom")
    ctx, cfg = _kz_family(args, args.m)
    pt = limits.nth_domain_point(args.p, args.g, args.m, args.point,
                                 args.seed, ctx)
    report = limits.limit_report(cfg, pt, args.smax)
    return [report.to_json()], report.passed


def cmd_admissible(args):
    delta = _parse_delta(args.delta)
    table = COMMANDS["admissible"][2]
    default_depth = args.depth == table["--depth"]["default"]
    if args.tuple:
        _require(not args.periodic, "--periodic does not apply to --tuple: "
                 "the file's \"periodic\" key decides")
        _require(not args.boxes, "--boxes does not apply to --tuple")
        ctx = ctx_new(args.p, args.N, 1)
        lams, periodic = _tuple_from_file(ctx, args.tuple)
        _require(periodic or default_depth, "--depth applies to --tuple only "
                 "when the file's \"periodic\" key is true")
        boxes = [f.newton_box() for f in lams]
    elif args.boxes:
        _require(args.N == table["--N"]["default"],
                 "--N does not apply to --boxes")
        periodic = args.periodic
        _require(periodic or default_depth,
                 "--depth applies to --boxes only with --periodic")
        boxes = []
        for chunk in args.boxes.split(","):
            try:
                lo, hi = map(int, chunk.split(":"))
            except ValueError as exc:
                raise ConfigError(f"malformed box {chunk!r}") from exc
            _require(lo <= hi, f"malformed box {chunk!r}: lo > hi")
            boxes.append(TBox((lo,), (hi,)))
    else:
        raise ConfigError("give --tuple FILE or --boxes lo:hi,...")
    _require(default_depth or len(set(boxes)) > 1, "--depth applies to a "
             "periodic tuple only when its members' boxes differ")
    cert = check_admissible(boxes, delta, args.p, periodic, args.depth)
    return [{
        "p": args.p,
        "delta": list(delta),
        "ok": cert.ok,
        "complete": cert.complete,
        "checked_depth": cert.checked_depth,
        "witness": cert.witness,
    }], cert.ok


_INT = {"type": int, "required": True}
_REQUIRED = {"required": True}
_P = {"--p": _INT}
_N = {"--N": _INT}
_EXT = {"--ext": {"type": int, "default": 1,
                  "help": "extension degree of the point coefficients"}}
_SEED = {"--seed": {"type": int, "default": 0}}
_SAMPLED = {"--symbolic": {"action": "store_true"},
            "--points": {"type": int, "default": 0}}
_AT = {"--at": {"help": "JSON file with a point"}}

# subcommand -> (function, help, {flag: add_argument keywords} in order)
COMMANDS = {
    "ghosts": (cmd_ghosts, "ghost sequence of a tuple file", {
        **_P, **_N, "--l": _INT, "--tuple": _REQUIRED, "--delta": _REQUIRED}),
    "hw": (cmd_hw, "Hasse-Witt matrix of the master polynomial", {
        **_P, **_N, **_EXT, "--m": {**_INT, "help": "matrix level"},
        "--g": _INT, **_AT}),
    "congruence": (cmd_congruence, "run one congruence verifier", {
        **_P, **_N, **_EXT, **_SEED,
        "--theorem": {**_REQUIRED, "choices": sorted(THEOREMS)},
        "--s": _INT,
        "--m": {"type": int, "default": 0, "help": "twist power for der"},
        "--g": {"type": int, "default": 1},
        "--u": {"type": int, "default": 1},
        "--v": {"type": int, "default": 1},
        **_SAMPLED}),
    "kz-solve": (cmd_kz_solve, "emit the level-s solution frame", {
        **_P, **_N, **_EXT, "--g": _INT, "--s": _INT, **_AT}),
    "kz-verify": (cmd_kz_verify, "KZ residual and frame checks", {
        **_P, **_N, **_EXT, **_SEED,
        "--check": {**_REQUIRED,
                    "choices": ("residual", "phi", "coS", "minor")},
        "--g": _INT, "--s": _INT,
        "--i": {"type": int, "default": None,
                "help": "single direction (default: all)"},
        **_SAMPLED}),
    "domain-scan": (cmd_domain_scan, "enumerate or sample the domain", {
        **_P, "--g": _INT, "--m": _INT,
        "--exhaustive": {"action": "store_true"},
        "--sample": {"type": int, "default": None},
        **_SEED, "--emit-points": {"action": "store_true"}}),
    "limit": (cmd_limit, "limit iteration report at one point", {
        **_P, **_N, "--g": _INT, "--m": _INT,
        "--point": {**_INT, "help": "index into the deterministic o-domain "
                    "enumeration"},
        "--smax": _INT, **_SEED}),
    "admissible": (cmd_admissible, "admissibility of boxes or a tuple", {
        **_P, "--N": {"type": int, "default": 2}, "--delta": _REQUIRED,
        "--tuple": {}, "--boxes": {"help": "comma list of lo:hi t-support "
                                           "intervals"},
        "--periodic": {"action": "store_true"},
        "--depth": {"type": int, "default": 8}}),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dworklab",
        description="exact p-adic congruence verification toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags.items():
            sp.add_argument(flag, **kwargs)
    return ap


_PARSER = None


def run(argv, out=None):
    """Run one command line: write its report documents to out (stdout by
    default), one JSON line each, and return the exit code."""
    global _PARSER
    if _PARSER is None:  # built once per process: it takes milliseconds
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        docs, passed = COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DworkLabError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    out = sys.stdout if out is None else out
    for doc in docs:
        out.write(json.dumps({"$schema": SCHEMA, "command": args.command,
                              **doc}, sort_keys=True) + "\n")
    return 0 if passed else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
