import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dworklab as dl
from dworklab import cli, dwork, limits
from dworklab.cli import run
from dworklab.hasse_witt import PointKit
from dworklab.laurent import LaurentPoly
from conftest import PlantedGhostFault


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    lines = [json.loads(x) for x in out.getvalue().splitlines()]
    return code, lines


def test_congruence_symbolic_pass():
    code, docs = invoke(
        ["congruence", "--theorem", "1.6ii", "--p", "3", "--N", "4",
         "--s", "2", "--symbolic", "--g", "1"]
    )
    assert code == 0
    (doc,) = docs
    assert doc["$schema"] == "dworklab/report-v1"
    assert doc["verdict"] == "pass"
    assert doc["observed_min_valuation"] >= 2
    assert doc["ctx"]["p"] == 3


def test_congruence_rejects_p2():
    code, docs = invoke(
        ["congruence", "--theorem", "der", "--p", "2", "--N", "4",
         "--s", "1", "--symbolic", "--g", "1"]
    )
    assert code == 2 and docs == []


def test_congruence_rejects_low_precision():
    code, _ = invoke(
        ["congruence", "--theorem", "1.6ii", "--p", "3", "--N", "2",
         "--s", "2", "--symbolic", "--g", "1"]
    )
    assert code == 2


def test_all_theorem_flags_pointwise():
    for theorem in ("decomp", "1.6i", "1.6ii", "det", "der", "der2"):
        code, docs = invoke(
            ["congruence", "--theorem", theorem, "--p", "3", "--N", "4",
             "--s", "1", "--g", "1", "--points", "3", "--seed", "1",
             "--ext", "2"]
        )
        assert code == 0, theorem
        assert docs[0]["verdict"] == "pass"
        assert docs[0]["points"] == 3


def test_kz_verify_residual_pointwise():
    code, docs = invoke(
        ["kz-verify", "--check", "residual", "--p", "5", "--N", "4",
         "--g", "2", "--s", "3", "--points", "5", "--seed", "7", "--ext", "2"]
    )
    assert code == 0
    assert docs[0]["verdict"] == "pass"
    assert docs[0]["observed_min_valuation"] >= 3


def test_bad_direction_is_a_configuration_error(capsys):
    # an absent direction once passed vacuously (der) or raised IndexError
    for argv in (
        ["congruence", "--theorem", "der", "--p", "5", "--N", "5", "--s", "2",
         "--g", "2", "--v", "9", "--points", "2", "--ext", "2"],
        ["congruence", "--theorem", "der2", "--p", "5", "--N", "5", "--s", "2",
         "--g", "2", "--u", "0", "--v", "9", "--points", "2", "--ext", "2"],
        ["kz-verify", "--check", "residual", "--p", "5", "--N", "5", "--g", "2",
         "--s", "2", "--i", "7", "--points", "2", "--ext", "2"],
    ):
        code, docs = invoke(argv)
        assert code == 2 and docs == []
        assert "outside the z-directions 1..5" in capsys.readouterr().err


def test_one_parser_serves_every_call(capsys, monkeypatch):
    """The parser is built once per process; a failed parse or an earlier
    subcommand must not leak into the next report."""
    bad = ["congruence", "--theorem", "nope", "--p", "3"]
    first = ["congruence", "--theorem", "ratio", "--p", "3", "--N", "3",
             "--s", "1", "--g", "1", "--symbolic", "--seed", "5"]
    second = ["kz-verify", "--check", "phi", "--p", "3", "--N", "3",
              "--g", "1", "--s", "1"]
    assert invoke(bad) == (2, [])
    parser = cli._PARSER
    reused = [invoke(first), invoke(second)]
    assert cli._PARSER is parser
    fresh = []
    for argv in (first, second):
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(invoke(argv))
    assert reused == fresh
    assert reused[0][1][0]["seed"] == 5 and reused[1][1][0]["seed"] == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    "congruence --theorem ratio --p 3 --N 3 --s 0 --g 1 --symbolic",
    "congruence --theorem det --p 3 --N 3 --s 0 --g 1 --symbolic",
    "hw --p 3 --N 3 --m 0 --g 1",
    "hw --p 3 --N 3 --m 1 --g 0",
    "hw --p 3 --N 3 --m 1 --g 2",
    "hw --p 3 --N 0 --m 1 --g 1",
    "kz-solve --p 3 --N 3 --g 1 --s 1 --ext 0",
    "admissible --p 3 --delta x --boxes 0:1",
    "admissible --p 3 --delta 1..y --boxes 0:1",
    "admissible --p 3 --delta 1 --boxes 0:1,2",
    "admissible --p 3 --delta 1 --boxes a:b",
    "admissible --p 3 --delta 1",
    # negative levels once raised IndexError, TypeError or RecursionError
    "congruence --theorem decomp --p 3 --N 3 --s -1 --symbolic",
    "congruence --theorem 1.6i --p 3 --N 3 --s -1 --symbolic",
    "congruence --theorem decomp --p 5 --N 3 --s -1 --points 2 --ext 2",
    "congruence --theorem der --p 3 --N 4 --s 1 --m -1 --symbolic",
    "congruence --theorem der --p 5 --N 4 --s 1 --m -1 --points 2 --ext 2",
    # admissible once passed without a window, a prime or an ordered box
    "admissible --p 3 --delta 1 --boxes 0:9,0:1 --periodic --depth 0",
    "admissible --p 3 --delta 1 --boxes 0:9,0:1 --periodic --depth -2",
    "admissible --p 4 --delta 1 --boxes 0:2",
    "admissible --p 1 --delta 1 --boxes 0:2",
    "admissible --p 9 --delta 1 --boxes 0:2",
    "admissible --p 3 --delta 1 --boxes 5:1",
    # phi is symbolic only; it once ran and passed ignoring these flags
    "kz-verify --check phi --p 3 --N 3 --g 1 --s 1 --points 2",
    "kz-verify --check phi --p 3 --N 3 --g 1 --s 1 --ext 2",
    "kz-verify --check phi --p 3 --N 3 --g 1 --s 1 --i 1",
    # symbolic runs once ignored the pointwise flags, and --i was ignored
    # by every check but residual; each ran and passed
    "congruence --theorem ratio --p 3 --N 3 --s 1 --g 1 --symbolic --points 4",
    "congruence --theorem ratio --p 3 --N 3 --s 1 --g 1 --symbolic --ext 2",
    "kz-verify --check residual --p 3 --N 3 --g 1 --s 1 --symbolic --points 5",
    "kz-verify --check coS --p 3 --N 3 --g 1 --s 1 --symbolic --ext 2",
    "kz-verify --check coS --p 3 --N 3 --g 1 --s 1 --points 2 --ext 2 --i 1",
    "kz-verify --check minor --p 7 --N 2 --g 2 --s 1 --points 3 --ext 2 --i 1",
    "kz-verify --check minor --p 7 --N 2 --g 2 --s 1 --points 3 --ext 2"
    " --symbolic",
    # minor reads only the level-1 frame: --s 3 once printed the bytes of
    # --s 1 and passed
    "kz-verify --check minor --p 5 --N 5 --g 1 --s 3 --points 2",
    # an exhaustive scan once ran and passed ignoring --sample
    "domain-scan --p 5 --g 1 --m 1 --exhaustive --sample 4",
])
def test_invalid_parameters_are_configuration_errors(argv, capsys):
    assert invoke(argv.split()) == (2, [])
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("theorem,flag", [
    (theorem, flag) for theorem, (_, flags) in sorted(cli.THEOREMS.items())
    for flag in ("m", "u", "v") if flag not in flags
])
def test_theorem_flags_a_theorem_would_ignore_exit_2(theorem, flag, capsys):
    """--m, --u and --v apply only to the theorems that list them.  Off its
    default, such a flag was once dropped and the run passed; at its
    default it cannot be told from an absent flag and is accepted."""
    argv = (f"congruence --theorem {theorem} --p 3 --N 4 --s 2 --g 1"
            " --symbolic").split()
    changed = {"m": "1", "u": "2", "v": "3"}[flag]
    assert invoke(argv + [f"--{flag}", changed]) == (2, [])
    assert (f"--{flag} does not apply to --theorem {theorem}"
            in capsys.readouterr().err)
    default = {"m": "0", "u": "1", "v": "1"}[flag]
    assert invoke(argv + [f"--{flag}", default])[0] == 0


def test_kz_verify_other_checks():
    code, docs = invoke(
        ["kz-verify", "--check", "phi", "--p", "3", "--N", "3", "--g", "1",
         "--s", "1"]
    )
    assert code == 0 and docs[0]["verdict"] == "pass"
    code, docs = invoke(
        ["kz-verify", "--check", "coS", "--p", "3", "--N", "3", "--g", "1",
         "--s", "1", "--points", "3", "--seed", "5", "--ext", "2"]
    )
    assert code == 0 and docs[0]["verdict"] == "pass"
    code, docs = invoke(
        ["kz-verify", "--check", "minor", "--p", "7", "--N", "2", "--g", "2",
         "--s", "1", "--points", "3", "--seed", "5", "--ext", "2"]
    )
    assert code == 0 and docs[0]["verdict"] == "pass"


def _ghosts_argv(tmp_path):
    ctx = dl.ctx_new(3, 3, 1)
    cfg = dl.KZConfig(ctx, 1)
    F = dl.master_polynomial(cfg, 1)
    Ft = LaurentPoly(ctx, 1, 3, dict(F.terms))
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(
        {"lambdas": [Ft.to_json(), Ft.to_json()], "periodic": False}
    ))
    return ["ghosts", "--p", "3", "--N", "3", "--l", "1",
            "--tuple", str(path), "--delta", "1..1"]


def test_ghosts_command(tmp_path):
    code, docs = invoke(_ghosts_argv(tmp_path))
    assert code == 0
    assert [d["s"] for d in docs] == [0, 1]
    assert docs[1]["min_coefficient_valuation"] >= 1
    assert all(d["admissible"] for d in docs)


def test_ghosts_command_fails_on_planted_fault(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "AdmissibleTuple", PlantedGhostFault)
    code, docs = invoke(_ghosts_argv(tmp_path))
    assert code == 1
    assert [d["verdict"] for d in docs] == ["pass", "fail"]
    assert docs[1]["min_coefficient_valuation"] == 0
    assert docs[1]["claimed"] == 1


def test_flags_a_tuple_file_makes_void_exit_2(tmp_path, capsys):
    """On a real tuple file, ghosts --l -1 once checked no ghost and exited
    0, and admissible ignored --periodic, which the file's key decides,
    --boxes, which the file's lambdas replace, and --depth, which only a
    periodic file whose members' Newton boxes differ is checked to."""
    argv = _ghosts_argv(tmp_path)
    tuple_file = argv[argv.index("--tuple") + 1]
    admissible = ["admissible", "--p", "3", "--N", "3", "--delta", "1..1",
                  "--tuple", tuple_file]
    assert invoke(admissible)[0] == 0
    for bad in (argv[:argv.index("--l") + 1] + ["-1"]
                + argv[argv.index("--l") + 2:], admissible + ["--periodic"],
                admissible + ["--boxes=5:9"], admissible + ["--depth", "3"]):
        assert invoke(bad) == (2, [])
        assert "configuration error" in capsys.readouterr().err
    path = Path(tuple_file)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "periodic": True}))
    assert invoke(admissible + ["--depth", "3"]) == (2, [])
    assert "boxes differ" in capsys.readouterr().err
    ctx = dl.ctx_new(3, 3, 1)
    square = LaurentPoly.from_json(ctx, doc["lambdas"][0]) ** 2
    path.write_text(json.dumps({"lambdas": [doc["lambdas"][0],
                                            square.to_json()],
                                "periodic": True}))
    code, docs = invoke(admissible + ["--depth", "3"])
    assert code in (0, 1) and docs[0]["checked_depth"] == 3


def test_flags_boxes_would_ignore_exit_2(capsys):
    """admissible --boxes reads no --N (only a tuple file's ring does), and
    only a periodic pattern is checked to --depth: off their defaults where
    unread, both once exited 0."""
    boxes = ["admissible", "--p", "3", "--delta", "1", "--boxes", "0:2"]
    for good in (boxes, boxes + ["--N", "2", "--depth", "8"],
                 boxes[:-1] + ["0:2,0:1", "--periodic", "--depth", "3"]):
        assert invoke(good)[0] == 0
    for bad in (boxes + ["--N", "7"], boxes + ["--depth", "3"]):
        assert invoke(bad) == (2, [])
        assert "configuration error" in capsys.readouterr().err


def test_depth_on_one_shared_box_exits_2(capsys):
    """A periodic pattern whose boxes are all equal is decided at every
    window length without reading --depth: --depth 3 and --depth 8 once
    printed the same report and exited 0."""
    argv = ["admissible", "--p", "3", "--delta", "0,1", "--periodic"]
    for boxes in ("--boxes=-1:3", "--boxes=-1:3,-1:3"):
        assert invoke(argv + [boxes])[0] == 0
        assert invoke(argv + [boxes, "--depth", "8"])[0] == 0
        assert invoke(argv + [boxes, "--depth", "3"]) == (2, [])
        assert ("--depth applies to a periodic tuple only when its members' "
                "boxes differ") in capsys.readouterr().err


@pytest.mark.parametrize("theorem", sorted(cli.THEOREMS))
def test_each_theorem_entry_matches_its_verifier(theorem):
    """A THEOREMS entry names a dwork verifier whose parameters are exactly
    the tuple, s, the entry's flags and the points: the CLI sets every one
    of them, and the table forgets none."""
    name, flags = cli.THEOREMS[theorem]
    params = inspect.signature(getattr(dwork, name)).parameters
    assert list(params) == ["tup", "s", *flags, "points"]


def test_empty_o_domain_exits_2_without_sampling():
    start = time.perf_counter()
    code, docs = invoke(
        ["kz-verify", "--check", "coS", "--p", "5", "--N", "4", "--g", "2",
         "--s", "1", "--points", "20"]
    )
    assert code == 2 and docs == []
    assert time.perf_counter() - start < 0.5


def test_hw_command(tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps(["0", "1", "3"]))
    code, docs = invoke(
        ["hw", "--p", "3", "--N", "2", "--m", "1", "--g", "1",
         "--at", str(point)]
    )
    assert code == 0
    assert docs[0]["det"] == ["5"]
    assert docs[0]["det_valuation"] == 0
    code, docs = invoke(["hw", "--p", "3", "--N", "2", "--m", "1", "--g", "1"])
    assert code == 0
    assert docs[0]["det_valuation"] == 0


def test_kz_solve_command(tmp_path):
    code, docs = invoke(["kz-solve", "--p", "3", "--N", "3", "--g", "1",
                         "--s", "1"])
    assert code == 0
    assert docs[0]["solution"]["entries"] == [
        [{"r": 0, "n": 3, "terms": [{"t": [], "z": [0, 0, 0], "c": "1"}]}]
    ] * 3
    point = tmp_path / "point.json"
    point.write_text(json.dumps(["0", "1", "2"]))
    code, docs = invoke(["kz-solve", "--p", "3", "--N", "3", "--g", "1",
                         "--s", "2", "--at", str(point)])
    assert code == 0
    assert docs[0]["column_sum_valuations"][0] >= 2


def test_solution_matrix_json():
    code, docs = invoke(["kz-solve", "--p", "3", "--N", "3", "--g", "1",
                         "--s", "1"])
    assert code == 0
    doc = docs[0]["solution"]
    assert doc["s"] == 1 and doc["n"] == 3 and doc["g"] == 1
    assert not doc["pointwise"]
    assert doc["provenance"] == [2]  # l p^s - 1 for l = 1, s = 1


PIN_POINTS = {
    "p5": ["0", "1", "3"],
    "p3e2": [[0, 1], [1, 0], [2, 2]],
    "p7g2": ["0", "1", "2", "3", "4"],
    "p7g2e2": [[0, 1], [1, 0], [2, 3], [3, 1], [4, 4]],
}


@pytest.mark.parametrize("argv,point,digest", [
    ("hw --p 5 --N 3 --m 1 --g 1", None,
     "ad7938a23ba3f53cc192050167d2680a3980e02611199a6ff64e298d23fb3794"),
    ("hw --p 3 --N 3 --m 2 --g 1", None,
     "f14e90e9582f8078bafb62b199316707ee95ae5db050fd5a27a68f00d18720cd"),
    ("hw --p 7 --N 2 --m 1 --g 2", None,
     "8e26888bd31f699b3001af8ff1897a4f5b24aae76a7a651adc0c9e3c958b4048"),
    ("hw --p 5 --N 3 --m 1 --g 1", "p5",
     "d497bfaac9cc5c79b40f55dcd368e56cccaf9faa85f41334af6af5eda0aa6ad0"),
    ("hw --p 5 --N 4 --m 2 --g 1", "p5",
     "e74e9c6b2f02c55210580bd55b60c1515d58a3899c3319314f6720aa19d7e6aa"),
    ("hw --p 3 --N 3 --m 2 --g 1 --ext 2", "p3e2",
     "1ea63ea65d24a0ad97138ffb6fbd2104624f27201da3c2933bccb10e573c2aa5"),
    ("hw --p 7 --N 3 --m 2 --g 2", "p7g2",
     "852aeebd26d738c7b3f153c81592881447651423612f0e4bafba1d5ad784c4a1"),
    ("hw --p 7 --N 2 --m 1 --g 2 --ext 2", "p7g2e2",
     "1dc780ab8bc8f8ae6fb9b3f203a07887f26a0b36c8e414ee4943e66fe7de99f9"),
    # the CLI's only runs through the m >= 2 sums and valuations of
    # symbolic z-polynomials
    ("hw --p 5 --N 3 --m 1 --g 2 --ext 2", None,
     "c43fa28e59839e2f70270789fd6f9fbe109aeaee6a84b94a75a553f4ef2e8090"),
    ("kz-solve --p 3 --N 3 --g 1 --s 1", None,
     "df4ae22d2ba3fde4402d151935709c95856b3523cd2d79218d2541eb58c509c6"),
    ("kz-solve --p 5 --N 3 --g 1 --s 2", None,
     "27c5540ca4ca0ce23d5e2cd93fb277826b59e1323c10c19609d9b6f68a2ea9d4"),
    ("kz-solve --p 7 --N 2 --g 2 --s 1", None,
     "efa7cebde99d599214aab4a6ac356f78c0a26cfe9d82302e37b462bc88da22c8"),
    ("kz-solve --p 5 --N 4 --g 1 --s 2", "p5",
     "860a70096861b331a20d13179fb87619a434d3499ea48a5ec515aa8758f73e72"),
    ("kz-solve --p 3 --N 3 --g 1 --s 2 --ext 2", None,
     "db7b5b4047354faa52406c79221272a4d9a96ad45d4f5875ec742f347da817e0"),
    ("kz-solve --p 3 --N 3 --g 1 --s 2 --ext 2", "p3e2",
     "d6ce70d2df151d18f83b08f9da5ee5b2c67de3376dd51f7d9db48cc42fb3be34"),
    ("kz-solve --p 7 --N 3 --g 2 --s 2 --ext 2", "p7g2e2",
     "274f3636d6b8c50cb377ba3e01ec3a89d966ae78b5046b4a0cb2b92672facb75"),
])
def test_hw_and_kz_solve_output_is_pinned(tmp_path, argv, point, digest):
    """The whole output of hw and kz-solve, byte for byte, against the
    sha256 of a recorded run: symbolic and --at, --ext 1 and 2, g = 1 and
    2, levels 1 and 2.  The commands write their "matrix" and "solution"
    objects themselves, with one serializer per mode."""
    argv = argv.split()
    if point:
        path = tmp_path / "point.json"
        path.write_text(json.dumps(PIN_POINTS[point]))
        argv += ["--at", str(path)]
    out = io.StringIO()
    assert run(argv, out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    ("congruence --theorem decomp --p 5 --N 4 --s 2 --g 1",
     "2a1dd3a1a3bf0449ddfbbff052b9777c4a61c6309099b8b9b5dd44adb208f62c"),
    ("congruence --theorem decomp --p 5 --N 5 --s 3 --g 2 --ext 2",
     "35f2d94d0494f3debe3901827264b703859cd556ba75f6f273af61ae7394b687"),
    ("congruence --theorem decomp --p 3 --N 6 --s 4 --g 1 --ext 3",
     "7affbe1863eff7b01e17562ac466bba46c3b45fdd320fea11b9e07aa94ddf4dd"),
    ("congruence --theorem 1.6i --p 5 --N 4 --s 2 --g 1",
     "0eeedc2ff3d4aa674032a6cfc6d9d21f80ce5c587d07c4a422333423a149c6f6"),
    ("congruence --theorem 1.6i --p 5 --N 5 --s 3 --g 2 --ext 2",
     "43d1d1b4502c759d73cdfc61c34ead2e3f20221d17a8607315e139390769db17"),
    ("congruence --theorem 1.6i --p 3 --N 6 --s 4 --g 1 --ext 3",
     "ba7704b933d5d1fe205e49b4cd06c590076133748ee0d3bf4a88c3336aa8658e"),
    ("congruence --theorem ratio --p 3 --N 6 --s 4 --g 1 --ext 3",
     "eae43449a837b51874decddc51484e36672c078513f36958fefa99744f2dc696"),
    ("congruence --theorem ratio --p 7 --N 3 --s 1 --g 2",
     "f65c335424b9e2817ec95173addba077eebd6d0c91a1b49619b7d6cd9ef1e82e"),
    ("congruence --theorem decomp --p 7 --N 3 --s 1 --g 2",
     "de25ee4cdfc28e3c4662bceb851296e5e580ba7330337c7467ebfc9755780b7d"),
])
def test_pointwise_reads_are_pinned(argv, digest):
    """The whole report of pointwise verdicts whose A and ghost reads are
    windows of factored forms, byte for byte, against the sha256 of a
    recorded run: decomp and 1.6i at m = 1, 2, 3, ratio at m = 3, and ratio
    and decomp at p = 7, s = 1, whose level-1 forms are short enough for
    dense_mul to multiply by schoolbook."""
    argv = argv.split()
    argv += ["--points", "2" if "--ext" in argv else "3", "--seed", "1"]
    out = io.StringIO()
    assert run(argv, out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    ("limit --p 7 --N 6 --g 1 --m 1 --point 2 --smax 5",
     "2746ff8f301f9f507a766643371ceaf643792534e33d757004814be99f9199a8"),
    ("kz-verify --check coS --p 7 --N 6 --g 2 --s 4 --points 2",
     "8f4c0373131113252cbf73f1287b939b59a690a3e2fd0fa1bc2a272f04da2ae1"),
    ("kz-verify --check residual --p 5 --N 5 --g 2 --s 3 --points 2 --ext 3",
     "65d1f0630d516d92272847cfb280dc66ef1456e82ce7019a098ce8d5b06a49c9"),
    ("congruence --theorem der2 --p 5 --N 5 --s 3 --g 2 --points 2 --ext 3",
     "421be1a97b44cee288d96e4f4cb638447c3fea08389206c9a864e1980dadde1b"),
    ("limit --p 7 --N 8 --g 1 --m 1 --point 2 --smax 7",
     "449e52c0e4d7c8da2e9bd296eb28196768a25e40426b6a220dd33c3ac7b904f4"),
    ("limit --p 11 --N 6 --g 1 --m 1 --point 0 --smax 5",
     "e0d0649b39f419d030fe1d671518fca551931edcbc6edefed3764b62cc06fba3"),
])
def test_quotient_reads_are_pinned(argv, digest):
    """The whole report of statements that read quotients, byte for byte,
    against the sha256 of a recorded run: limit at m = 1 to level 5, coS
    at p = 7, level 4, residual and der2 at m = 3, and the deep limits at
    p = 7 to level 7 and p = 11 to level 5, whose reads recurse over
    several base-p digits.  Every digest predates the digit reads, so each
    checks them against the reads they replaced."""
    out = io.StringIO()
    assert run(argv.split(), out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_limit_at_m2_is_pinned():
    """The whole ``limit`` report at m = 2, whose frames and matrices share
    one window memo per level."""
    out = io.StringIO()
    assert run("limit --p 5 --N 4 --g 1 --m 2 --point 0 --smax 3".split(),
               out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "44d4e759a25db751b0e550629d537c3d850bd84b8420bc4fd07f557b8706af57")


def test_domain_scan_command():
    code, docs = invoke(["domain-scan", "--p", "3", "--g", "1", "--m", "2",
                         "--exhaustive"])
    assert code == 0
    assert docs[0]["in_D"] == 648
    assert docs[0]["nonempty_bound"] == 638
    assert docs[0]["bound_verdict"] == "pass"


def test_limit_command():
    code, docs = invoke(["limit", "--p", "3", "--N", "4", "--g", "1",
                         "--m", "2", "--point", "0", "--smax", "3"])
    assert code == 0
    doc = docs[0]
    assert all(v >= s + 1 for s, v in enumerate(doc["A_decay"]))
    assert all(c["passed"] for c in doc["certificates"])
    assert doc["ctx"]["m"] == 2


def test_admissible_command(tmp_path):
    code, docs = invoke(["admissible", "--p", "3", "--delta", "0,1",
                         "--boxes=-1:3", "--periodic"])
    assert code == 0 and docs[0]["ok"] and docs[0]["complete"]
    code, docs = invoke(["admissible", "--p", "3", "--delta", "1",
                         "--boxes=0:9", "--periodic"])
    assert code == 1 and not docs[0]["ok"]
    assert docs[0]["witness"]["q"] == [2]
    # tuple-file form
    ctx = dl.ctx_new(3, 2, 1)
    cfg = dl.KZConfig(ctx, 1)
    F = dl.master_polynomial(cfg, 1)
    Ft = LaurentPoly(ctx, 1, 3, dict(F.terms))
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps({"lambdas": [Ft.to_json()] * 3}))
    code, docs = invoke(["admissible", "--p", "3", "--N", "2",
                         "--delta", "1..1", "--tuple", str(path)])
    assert code == 0 and docs[0]["ok"]


def test_reports_are_reproducible():
    argv = ["kz-verify", "--check", "residual", "--p", "3", "--N", "3",
            "--g", "1", "--s", "1", "--points", "4", "--seed", "3",
            "--ext", "2"]
    out1, out2 = io.StringIO(), io.StringIO()
    assert run(argv, out=out1) == 0
    assert run(argv, out=out2) == 0
    assert out1.getvalue() == out2.getvalue()


def test_console_entry_point():
    src = str(Path(dl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dworklab", "congruence", "--theorem",
         "ratio", "--p", "3", "--N", "3", "--s", "1", "--symbolic",
         "--g", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "pass"


# every required flag of each subcommand, and nothing else
REQUIRED_ONLY = {
    "ghosts": "--p 3 --N 3 --l 1 --tuple t.json --delta 1",
    "hw": "--p 3 --N 3 --m 1 --g 1",
    "congruence": "--p 3 --N 3 --theorem ratio --s 1",
    "kz-solve": "--p 3 --N 3 --g 1 --s 1",
    "kz-verify": "--p 3 --N 3 --check coS --g 1 --s 1",
    "domain-scan": "--p 3 --g 1 --m 1",
    "limit": "--p 3 --N 3 --g 1 --m 1 --point 0 --smax 1",
    "admissible": "--p 3 --delta 1",
}


def test_parser_defaults(capsys):
    parser = cli.build_parser()
    parsed = {name: vars(parser.parse_args([name] + argv.split()))
              for name, argv in REQUIRED_ONLY.items()}
    assert (parsed["admissible"]["N"], parsed["admissible"]["depth"]) == (2, 8)
    assert {k: parsed["congruence"][k] for k in "guvm"} == {
        "g": 1, "u": 1, "v": 1, "m": 0}
    for flag, want, names in (
        ("ext", 1, {"hw", "congruence", "kz-solve", "kz-verify"}),
        ("seed", 0, {"congruence", "kz-verify", "domain-scan", "limit"}),
        ("points", 0, {"congruence", "kz-verify"}),
        ("i", None, {"kz-verify"}),
        ("sample", None, {"domain-scan"}),
    ):
        assert {name for name, ns in parsed.items() if flag in ns} == names
        assert all(parsed[name][flag] == want for name in names), flag
    for name, argv in REQUIRED_ONLY.items():
        words = argv.split()
        for k in range(0, len(words), 2):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name] + words[:k] + words[k + 2:])
            assert exc.value.code == 2, (name, words[k])
    capsys.readouterr()


LIMIT_3_1_2 = ["limit", "--p", "3", "--N", "4", "--g", "1", "--m", "2",
               "--smax", "3", "--point"]


@pytest.fixture(scope="module")
def o_domain_3_1_2():
    return [pt for pt in dl.scan_domain(3, 1, 2).points if pt.in_D_o]


@pytest.mark.parametrize("which", ["first", "middle", "last"])
def test_limit_certifies_the_kth_o_domain_point(o_domain_3_1_2, which):
    eligible = o_domain_3_1_2
    k = {"first": 0, "middle": len(eligible) // 2,
         "last": len(eligible) - 1}[which]
    code, docs = invoke(LIMIT_3_1_2 + [str(k)])
    assert code == 0
    ctx = dl.ctx_new(3, 4, 2)
    want = dl.limit_report(dl.KZConfig(ctx, 1),
                           dl.lift_point(eligible[k], ctx), 3).to_json()
    assert docs[0]["point_index"] == eligible[k].index
    want.update({"command": "limit", "$schema": "dworklab/report-v1"})
    assert docs == [json.loads(json.dumps(want))]


@pytest.mark.parametrize("method,profile", [
    ("frame", "I_decay"),
    ("frame_derivative", "I_dirs_decay"),
    ("dA", "A_dirs_decay"),
])
def test_limit_gates_each_frame_profile(method, profile, monkeypatch):
    """A kit that adds p to entry [0][0] of one level-2 read, in direction
    1: the profile's level-2 to level-3 difference falls to valuation 1,
    below its bound 2.  The certificates read the last level and still
    pass, so only the decay gate turns the exit code to 1."""
    argv = "limit --p 5 --N 6 --g 1 --m 2 --point 0 --smax 4".split()
    code, clean = invoke(argv)
    assert code == 0 and clean[0][profile][1] >= 2
    target = dl.master_polynomial(dl.KZConfig(dl.ctx_new(5, 6, 2), 1), 2)
    direction = {"frame": lambda args: 1,
                 "frame_derivative": lambda args: args[1],
                 "dA": lambda args: args[2]}[method]

    def faulty(kit, *args, real=getattr(PointKit, method), **kw):
        out = [list(row) for row in real(kit, *args, **kw)]
        F = next(x for x in args if isinstance(x, LaurentPoly))
        if (F.factored, direction(args)) == (target.factored, 1):
            out[0][0] = kit.ctx.add(out[0][0], kit.ctx.from_int(5))
        return out

    monkeypatch.setattr(PointKit, method, faulty)
    code, docs = invoke(argv)
    assert code == 1 and len(docs) == 1
    assert docs[0][profile][1] == 1
    assert all(c["passed"] for c in docs[0]["certificates"])


def test_minor_fails_on_a_rank_deficient_frame(monkeypatch):
    """J_1 with its second column a copy of the first has rank 1 < g = 2
    mod p: every 2 x 2 minor vanishes, so each point's certificate fails
    with no fallback rows, and the command exits 1 (it exits 0 unplanted,
    in test_kz_verify_other_checks)."""
    real = limits._frame

    def rank_deficient(cfg, s, kit):
        return [[row[0], row[0]] for row in real(cfg, s, kit)]

    monkeypatch.setattr(limits, "_frame", rank_deficient)
    code, docs = invoke(
        ["kz-verify", "--check", "minor", "--p", "7", "--N", "2", "--g", "2",
         "--s", "1", "--points", "3", "--seed", "5", "--ext", "2"]
    )
    assert code == 1 and docs[0]["verdict"] == "fail"
    certs = docs[0]["certificates"]
    assert len(certs) == 3
    for cert in certs:
        assert not cert["passed"] and cert["observed"] >= 1
        assert cert["details"]["preferred_minor_valuation"] >= 1
        assert cert["details"]["fallback_rows"] is None


def test_limit_point_out_of_range_exits_2(o_domain_3_1_2, capsys):
    last = len(o_domain_3_1_2) - 1
    code, docs = invoke(LIMIT_3_1_2 + [str(last + 1)])
    assert code == 2 and docs == []
    assert (f"point index {last + 1} out of range ({last + 1} points)"
            in capsys.readouterr().err)


def test_limit_first_point_of_a_large_domain():
    # 25^5 = 9.8M ordered tuples: the walk stops at the first o-domain point
    start = time.perf_counter()
    code, docs = invoke(["limit", "--p", "5", "--N", "3", "--g", "2",
                         "--m", "2", "--point", "0", "--smax", "2"])
    assert code == 0 and docs[0]["point_index"] >= 0
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [
    "kz-verify --check coS --p 5 --N 4 --g 1 --s 2 --points 0 --ext 2",
    "kz-verify --check coS --p 5 --N 4 --g 1 --s 2 --points -3 --ext 2",
    "kz-verify --check minor --p 5 --N 4 --g 1 --s 1 --points 0 --ext 2",
    "limit --p 3 --N 4 --g 1 --m 2 --point -1 --smax 3",
    "limit --p 3 --N 4 --g 1 --m 2 --point 0 --smax 0",
    "limit --p 3 --N 4 --g 1 --m 2 --point 0 --smax 1",
    "domain-scan --p 3 --g 1 --m 2 --sample -5",
    "domain-scan --p 3 --g 1 --m 2 --sample 0",
])
def test_non_positive_counts_exit_2(argv, capsys):
    code, docs = invoke(argv.split())
    assert code == 2 and docs == []
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "domain-scan --p 7 --g 2 --m 2 --exhaustive",
    f"domain-scan --p 3 --g 1 --m 2 --sample {limits.EXHAUSTIVE_CAP + 1}",
    f"limit --p 7 --N 4 --g 2 --m 2 --point {limits.EXHAUSTIVE_CAP} --smax 3",
])
def test_oversized_scans_exit_2_at_once(argv, capsys):
    start = time.perf_counter()
    code, docs = invoke(argv.split())
    assert code == 2 and docs == []
    assert "TooLarge" in capsys.readouterr().err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("argv", [
    "hw --p 7 --N 3 --m 3 --g 2",
    "kz-solve --p 7 --N 4 --g 2 --s 3",
    "kz-solve --p 5 --N 4 --g 2 --s 3",
    "congruence --theorem ratio --symbolic --p 7 --N 3 --s 1 --g 2",
    "kz-verify --check residual --symbolic --p 11 --N 2 --s 1 --g 3",
    "kz-verify --check phi --p 7 --N 5 --g 3 --s 2",
])
def test_oversized_symbolic_reads_exit_2_at_once(argv, capsys):
    start = time.perf_counter()
    code, docs = invoke(argv.split())
    assert code == 2 and docs == []
    assert "SizeCapExceeded" in capsys.readouterr().err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("theorem", ["1.6i", "factorization", "decomp",
                                     "ratio"])
def test_symbolic_genus_2_runs_within_the_read_cap(theorem):
    code, docs = invoke(f"congruence --theorem {theorem} --symbolic --p 5 "
                        "--N 2 --s 1 --g 2".split())
    assert code == 0 and docs[0]["verdict"] == "pass"


@pytest.mark.parametrize("argv", [
    "hw --p 5 --N 3 --m 1 --g 1 --at {}",
    "kz-solve --p 5 --N 3 --g 1 --s 1 --at {}",
    "ghosts --p 3 --N 3 --l 1 --delta 1 --tuple {}",
])
def test_missing_input_file_exits_2(tmp_path, argv, capsys):
    code, docs = invoke(argv.format(tmp_path / "absent.json").split())
    assert code == 2 and docs == []
    assert "configuration error: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "ghosts --p 3 --N 3 --l 1 --delta 1..1 --tuple {}",
    "admissible --p 3 --N 3 --delta 1..1 --tuple {}",
])
def test_a_term_with_the_wrong_number_of_exponents_exits_2(tmp_path, argv,
                                                           capsys):
    """A term has "r" t-exponents and "n" z-exponents.  A term with two
    t-exponents at r = n = 1 was once read as a key of length 3, and both
    commands exited 0."""
    def lam(t):
        return {"r": 1, "n": 1, "terms": [{"t": t, "z": [1], "c": "1"},
                                          {"t": [1], "z": [0], "c": "1"}]}

    path = tmp_path / "tuple.json"
    for t, code in (([0], 0), ([0, 0], 2), ([], 2)):
        path.write_text(json.dumps({"lambdas": [lam(t)] * 2}))
        assert invoke(argv.format(path).split())[0] == code
    assert capsys.readouterr().err.count("is not a tuple") == 2


@pytest.mark.parametrize("argv,m,point", [
    ("hw --p 3 --N 2 --m 1 --g 1 --at {}", 1, [["1", "5"], "2", "4"]),
    ("kz-solve --p 3 --N 3 --g 1 --s 1 --ext 2 --at {}", 2,
     [["1", "0", "1"], ["0", "1"], "2"]),
])
def test_an_element_with_more_than_m_coefficients_exits_2(tmp_path, argv, m,
                                                          point, capsys):
    """A coordinate past the extension degree m was once cut to its first m
    coefficients, and the run exited 0 at that other point."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point))
    assert invoke(argv.format(path).split()) == (2, [])
    assert "is not a point" in capsys.readouterr().err
    path.write_text(json.dumps(
        [x[:m] if isinstance(x, list) else x for x in point]))
    assert invoke(argv.format(path).split())[0] == 0


def _lambda(t=(1,), c="1", r=1, n=1):
    """A term list for the malformed-input tests, well formed by default."""
    return {"r": r, "n": n, "terms": [{"t": list(t), "z": [1], "c": c},
                                      {"t": [1], "z": [0], "c": "1"}]}


# JSON booleans and non-integral numbers were once read as integers: true
# as 1 in a point or a coefficient, 1.9 as the exponent 1.
BOOL_AND_FLOAT_INPUTS = [
    pytest.param(content, id=name) for name, content in [
        ("bool-coordinate", "[0, true, 3]"),
        ("bool-coefficient", '["0", [true], "3"]'),
        ("float-coordinate", "[0, 1.0, 3]"),
        ("float-exponent", json.dumps({"lambdas": [_lambda(t=(1.9,))] * 2})),
        ("bool-c", json.dumps({"lambdas": [_lambda(c=True)] * 2})),
        ("float-c", json.dumps({"lambdas": [_lambda(c=[1.0])] * 2})),
        ("bool-r", json.dumps({"lambdas": [_lambda(r=True)] * 2})),
        ("float-n", json.dumps({"lambdas": [_lambda(n=1.0)] * 2}))]]

# int() once read these as integers too: an element given as an object
# (read off its keys), and strings with blanks, underscores or non-ASCII
# digits.  Integers are ints or ASCII strings matching -?[0-9]+.
NON_DECIMAL_INPUTS = [
    pytest.param(content, id=name) for name, content in [
        ("object-element", '[{"0": 5}, "1", "3"]'),
        ("blank-digit", '[" 3", "1", "0"]'),
        ("underscore-digit", '["3_0", "1", "0"]'),
        ("arabic-indic-digit", '["\u0663", "1", "0"]'),
        ("blank-c", json.dumps({"lambdas": [_lambda(c=" 1")] * 2})),
        ("underscore-exponent",
         json.dumps({"lambdas": [_lambda(t=("1_0",))] * 2}))]]


@pytest.mark.parametrize("content", [
    "[]", "[1.5, 2, 3]", "{}", '{"lambdas": [5]}', '{"lambdas": []}',
    '"abc"', "{not json", *BOOL_AND_FLOAT_INPUTS, *NON_DECIMAL_INPUTS,
])
@pytest.mark.parametrize("argv", [
    "hw --p 5 --N 3 --m 1 --g 1 --at {}",
    "kz-solve --p 5 --N 3 --g 1 --s 1 --at {}",
    "ghosts --p 3 --N 3 --l 1 --delta 1 --tuple {}",
    "admissible --p 3 --delta 1 --tuple {}",
])
def test_malformed_input_files_exit_2(tmp_path, argv, content, capsys):
    path = tmp_path / "input.json"
    path.write_text(content)
    code, docs = invoke(argv.format(path).split())
    err = capsys.readouterr().err
    assert code == 2 and docs == []
    assert "configuration error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,content", [
    ("hw --p 5 --N 3 --m 1 --g 1 --at {}", '[0, 1, 3]'),
    ("hw --p 5 --N 3 --m 1 --g 1 --at {}", '["0", ["1"], "3"]'),
    ("kz-solve --p 5 --N 3 --g 1 --s 1 --at {}", '[0, 1, 3]'),
    ("ghosts --p 3 --N 3 --l 1 --delta 1 --tuple {}",
     json.dumps({"lambdas": [_lambda()] * 2})),
    ("admissible --p 3 --delta 1 --tuple {}",
     json.dumps({"lambdas": [_lambda(c=["1"])] * 2})),
])
def test_integer_twins_of_the_boolean_and_float_inputs_pass(tmp_path, argv,
                                                             content):
    """The malformed inputs above with integers in place of their booleans
    and floats are read: the exit 2 is the type's, not the shape's."""
    path = tmp_path / "input.json"
    path.write_text(content)
    assert invoke(argv.format(path).split())[0] == 0
