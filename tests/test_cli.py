"""Command-line interface: exit codes, output contracts, config merging."""

import argparse
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cartier import cli, harness
from cartier.catalog import FamilySpec
from cartier.padic import GUARD


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_python_dash_m_cartier_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "cartier", "--help"], capture_output=True, text=True, env=env
    )
    assert done.returncode == cli.EXIT_OK
    assert done.stdout.startswith("usage: cartier ")


def test_periods_oracle(capsys):
    code, out, _ = run(capsys, "periods", "--family", "hypercubic", "--n", "2", "--degree", "10")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("F ")][0]
    assert line.startswith("F 0:1 2:4 4:36")


def test_periods_degree_zero(capsys):
    code, out, _ = run(capsys, "periods", "--family", "simplicial", "--degree", "0")
    assert code == 0
    assert "F 0:1" in out and "G 0" in out and "W 0:1" in out


def test_periods_json(capsys):
    code, out, _ = run(
        capsys, "periods", "--family", "an", "--n", "1", "--degree", "6", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["F"]["0"] == "1" and obj["F"]["1"] == "2" and obj["F"]["2"] == "6"


def test_unknown_family_is_usage_error(capsys):
    code, _, err = run(capsys, "periods", "--family", "dodecahedral")
    assert code == 2 and "error" in err


def test_custom_non_reflexive_rejected(tmp_path, capsys):
    gf = tmp_path / "g.txt"
    gf.write_text("2,0:1\n0,2:1\n-2,-2:1\n")
    code, _, err = run(capsys, "periods", "--family", "custom", "--g-file", str(gf))
    assert code == 2 and "reflexive" in err


def test_hw_square_json(capsys):
    code, out, _ = run(
        capsys, "hw", "--family", "square", "--prime", "3", "--level", "2", "--degree", "12"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["L_k"] == 3 and obj["level"] == 2


@pytest.mark.parametrize(
    "family",
    [
        ["--family", "hypercubic", "--n", "2"],
        ["--family", "hyperoctahedral", "--n", "2", "--lift", "excellent"],
        ["--family", "square"],
    ],
)
def test_hw_json_lists_every_residue_up_to_Dt(family, capsys):
    # every entry and hw_det list all Dt + 1 = 3p^2 + 1 residues, trailing
    # zeros included, and so does a zero entry of the square example
    code, out, _ = run(capsys, "hw", *family, "--prime", "5", "--level", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    entries = [e for row in obj["entries"] for e in row]
    assert all(isinstance(e, list) and len(e) == 76 for e in entries)
    assert len(obj["hw_det"]) == 76
    assert any(e[-1] == 0 for e in entries)
    assert ([0] * 76 in entries) == (family == ["--family", "square"])


@pytest.mark.parametrize(
    "argv,L_k",
    [
        ("hw --family square --prime 5 --level 3 --degree 12", 13),
        ("hw --family hypercubic --n 2 --prime 5 --level 2 --degree 12", 1),
    ],
)
def test_hw_precision_must_exceed_L_k(argv, L_k, capsys):
    # the default keeps k digits of det HW^(k) / p^L_k
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    obj = json.loads(out)
    k = obj["level"]
    assert obj["L_k"] == L_k and obj["precision"] == max(k + GUARD, L_k + k)
    # an explicit precision of at most L_k is a usage error naming the least that works
    code, out, err = run(capsys, *argv.split(), "--precision", str(L_k))
    assert code == cli.EXIT_USAGE and out == ""
    assert "the least precision that works is %d" % (L_k + 1) in err
    code, out, _ = run(capsys, *argv.split(), "--precision", str(L_k + 1))
    assert code == 0 and json.loads(out)["precision"] == L_k + 1


def test_hw_level_must_stay_below_p(capsys):
    code, _, err = run(capsys, "hw", "--family", "square", "--prime", "3", "--level", "3")
    assert code == 2


def test_hw_cy_level1(capsys):
    code, out, _ = run(
        capsys, "hw", "--family", "hyperoctahedral", "--n", "2", "--prime", "5",
        "--level", "1", "--degree", "10",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["level"] == 1 and len(obj["entries"]) == 1


def test_lift_excellent_n1(capsys):
    code, out, _ = run(
        capsys, "lift", "--family", "hypercubic", "--n", "1", "--prime", "3",
        "--precision", "6", "--degree", "30",
    )
    assert code == 0
    assert "lambda1 0\n" in out


def test_lift_p2_rejected(capsys):
    code, _, err = run(capsys, "lift", "--family", "hypercubic", "--prime", "2")
    assert code == 2 and "odd prime" in err


def test_lift_excluded_prime_rejected(capsys):
    code, _, err = run(capsys, "lift", "--family", "simplicial", "--n", "2", "--prime", "3")
    assert code == 2 and "divides" in err


@pytest.mark.parametrize(
    "argv,p",
    [
        (["lift", "--family", "hypercubic", "--n", "2", "--prime", "7", "--precision", "4",
          "--degree", "3"], 7),
        (["lift", "--family", "hypercubic", "--n", "2", "--prime", "7", "--precision", "4",
          "--degree", "0"], 7),
        (["verify", "frobenius", "--family", "hypercubic", "--n", "2", "--prime", "5",
          "--degree", "3"], 5),
        (["hw", "--family", "hypercubic", "--n", "2", "--prime", "5", "--degree", "3"], 5),
        (["verify", "hw", "--family", "hypercubic", "--n", "2", "--prime", "5",
          "--degree", "3"], 5),
        (["lift", "--family", "hypercubic", "--n", "2", "--prime", "7", "--degree", "-3"], 7),
        (["verify", "frobenius", "--family", "hypercubic", "--prime", "5", "--degree", "-1"], 5),
        (["verify", "modular", "--prime", "5", "--degree", "-1"], 5),
    ],
    ids=["lift-3", "lift-0", "verify-frobenius-3", "hw-3", "verify-hw-3", "lift-neg3",
         "verify-frobenius-neg1", "verify-modular-neg1"],
)
def test_a_degree_below_p_names_degree_and_p(argv, p, capsys):
    # t^sigma = t^p v has no terms below degree p, so neither the excellent
    # lift nor the Frobenius matrix exists there, and a t^p division leaves
    # every Hasse-Witt entry undetermined
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE and out == ""
    assert err == "error: --degree %s is below p=%d: t^sigma = t^p v needs degree >= p\n" % (
        argv[-1], p)


# the ratio suites' flags, with the truncation order each compares at them
_RATIO_SUITES = {
    "dwork": ("--family simplicial --n 2 --prime 5 --s 1", 5),
    "super": ("--family hypercubic --n 2 --prime 5 --s 1 --lift tp", 10),
    "cy-super": ("--family hypercubic --n 2 --prime 5 --s 1", 5),
    "pq": ("--prime 5 --s 1 --n 2", 5),
}


@pytest.mark.parametrize("suite", list(_RATIO_SUITES))
def test_a_negative_degree_is_a_usage_error_in_the_ratio_suites(suite, capsys):
    flags, order = _RATIO_SUITES[suite]
    argv = ["verify", suite, *flags.split(), "--format", "json", "--degree"]
    code, out, err = run(capsys, *argv, "-1")
    assert code == cli.EXIT_USAGE and out == ""
    assert err == "error: --degree -1 is negative\n"
    # control: a degree in [0, the truncation order) is a precision limit,
    # and the report says why; `super` is conjecture-flagged, so it exits 0
    for degree in (0, order - 1):
        code, out, err = run(capsys, *argv, str(degree))
        (report,) = json.loads(out)
        assert report["status"] == "PRECISION_LIMITED" and err == ""
        assert report["notes"][-1] == "Dt=%d below the truncation order %d" % (degree, order)
        assert code == (cli.EXIT_OK if suite == "super" else cli.EXIT_FAIL)
    if suite == "super":
        assert report["notes"][0].startswith("non-excellent lift")


def test_verify_single_check(capsys):
    code, out, _ = run(
        capsys, "verify", "dwork", "--family", "simplicial", "--n", "2",
        "--prime", "5", "--s", "2", "--m", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1 and data[0]["status"] == "PASS"


def test_verify_straub(capsys):
    code, out, _ = run(capsys, "verify", "straub", "--prime", "5", "--s", "1")
    assert code == 0


# one single check per suite: its flags and the keyword arguments they name;
# dwork sets --n to other than its default, which only --family reads
SINGLE_CHECKS = {
    "dwork": ("--family simplicial --n 1 --prime 5 --s 1",
              dict(family=("simplicial", 1), p=5, s=1)),
    "super": ("--family simplicial --n 2 --prime 5 --s 1 --m 3 --lift tp",
              dict(family=("simplicial", 2), p=5, s=1, m=3, lift_kind="tp")),
    "simple": ("--prime 3 --s 1", dict(p=3, s=1)),
    "cy-super": ("--family hypercubic --n 2 --prime 3 --s 1 --q-exponent 2 --lift tp",
                 dict(family=("hypercubic", 2), p=3, s=1, Q=2, lift_kind="tp")),
    "straub": ("--prime 5 --s 1", dict(p=5, s=1)),
    "hw": ("--family hyperoctahedral --n 2 --prime 5 --degree 60",
           dict(family=("hyperoctahedral", 2), p=5, Dt=60)),
    "modular": ("--prime 5 --degree 50", dict(p=5, Dt=50)),
    "fixed-point": ("--prime 7", dict(p=7)),
    "frobenius": ("--family hypercubic --n 2 --prime 3 --lift tp --degree 21",
                  dict(family=("hypercubic", 2), p=3, lift_kind="tp", Dt=21)),
    "pq": ("--prime 5 --s 1 --n 3 --degree 60", dict(p=5, s=1, n=3, Dt=60)),
}


@pytest.mark.parametrize("suite", list(harness.SUITES))
def test_single_check_runs_the_suite_on_its_flags(suite, capsys):
    flags, kw = SINGLE_CHECKS[suite]
    if "family" in kw:
        kw = dict(kw, family=FamilySpec.by_name(*kw["family"]))
    code, out, _ = run(capsys, "verify", suite, *flags.split())
    assert code == 0
    assert out == harness.reports_to_json([harness.run_check(suite, **kw)]) + "\n"


@pytest.mark.parametrize(
    "argv,flag",
    [
        ("verify hw --family hypercubic --n 2 --prime 3 --lift excellent", "--lift"),
        ("verify straub --prime 5 --s 1 --degree 40", "--degree"),
        ("verify pq --family hypercubic --prime 3 --s 1 --n 2", "--family"),
        ("verify all --prime 5", "--prime"),
        ("verify dwork --grid smoke --m 2", "--m"),
        ("verify straub --prime 5 --s 1 --grid smoke", "--grid"),
        ("verify dwork --family simplicial --n 2 --prime 5 --s 1 --g-file g.txt", "--g-file"),
    ],
)
def test_verify_flag_the_run_does_not_read_is_a_usage_error(argv, flag, tmp_path, capsys):
    _assert_unread_flag_exits_2(argv.split(), flag, tmp_path, capsys)


@pytest.mark.parametrize(
    "argv,flag",
    [
        ("hw --family square --prime 5 --basis unit", "--basis"),
        ("hw --family square --prime 5 --n 3", "--n"),
        ("hw --family square --prime 5 --g-file g.txt", "--g-file"),
        ("hw --family hypercubic --n 2 --prime 5 --level 1 --basis unit", "--basis"),
        ("hw --family custom --g-file g.txt --prime 5 --level 1 --basis unit", "--basis"),
    ],
)
def test_hw_flag_the_run_does_not_read_is_a_usage_error(argv, flag, tmp_path, capsys):
    # the square example reads neither --n, --g-file nor --basis, and
    # cy_hasse_witt returns at level 1 before it reads the basis
    _assert_unread_flag_exits_2(argv.split(), flag, tmp_path, capsys)


def test_hw_reads_basis_at_level_2(capsys):
    # the control: at level 2 --basis is read, and unit changes the bytes
    argv = "hw --family hypercubic --n 2 --prime 5 --level 2 --degree 12".split()
    outs = set()
    for basis in ("omega", "unit"):
        code, out, _ = run(capsys, *argv, "--basis", basis)
        assert code == 0
        outs.add(out)
    assert len(outs) == 2


def _assert_unread_flag_exits_2(argv, flag, tmp_path, capsys):
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE and out == "" and flag in err
    # the same flag set through a config file
    i = argv.index(flag)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s=%s\n" % (flag[2:], argv[i + 1]))
    code, out, err = run(capsys, *argv[:i], *argv[i + 2:], "--config", str(cfg))
    assert code == cli.EXIT_USAGE and out == "" and flag in err


def test_every_required_check_parameter_has_a_verify_flag():
    for name, check in harness.SUITES.items():
        parameters = inspect.signature(check).parameters
        assert list(cli._takes(name)) == list(parameters)
        for param in parameters.values():
            if param.default is param.empty:
                assert param.name in cli._FLAG_PARAMS.values(), (name, param.name)


@pytest.mark.parametrize(
    "dest,param",
    [("family", "family"), ("degree", "Dt"), ("m", "m"), ("lift", "lift_kind"), ("q_exponent", "Q")],
)
def test_verify_help_names_the_suites_that_read_a_flag(dest, param):
    named = re.search(r"read by (.*)", _help("verify", dest)).group(1).split(", ")
    assert named == [
        name for name, check in harness.SUITES.items()
        if param in inspect.signature(check).parameters
    ]


def test_verify_cy_super_hypercubic_n3(capsys):
    # the closed-form vertex coefficients reach n = 3, where the
    # relation-lattice enumeration did not finish in 150 s
    code, out, _ = run(
        capsys, "verify", "cy-super", "--family", "hypercubic", "--n", "3", "--prime", "5",
        "--s", "1",
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["status"] == "PASS" and report["params"]["n"] == 3


def test_verify_smoke_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "all", "--grid", "smoke")
    code2, out2, _ = run(capsys, "verify", "all", "--grid", "smoke")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "suite,grid,digest",
    [
        ("cy-super", "desk", "3a1999c85c1f3587fa4093d2b62e5bf2af0d16f2076f41869460c11ca02cefb6"),
        ("all", "smoke", "1bffb613c8a2b142d6fa1f68fa2571f737a1d863f947c426355fdc53d73a20f4"),
    ],
)
def test_verify_json_golden_bytes(suite, grid, digest, capsys):
    # recorded before the cy-super coefficients moved off the box expansion
    code, out, _ = run(capsys, "verify", suite, "--grid", grid, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        # the excellent lift, whose coefficients are dense series
        ("hw --family hyperoctahedral --n 2 --prime 7 --level 2 --lift excellent",
         "64ac7d9eb21722bd39cefd0f19aa6e53201346bff3053e2e21c3bb372d0c379f"),
        # hasse_witt_matrix on the monomial basis
        ("hw --family square --prime 5 --level 2",
         "1305e337b798447e52e3784bdda17b004bcd8b63479a19866ad3c7a55127b788"),
        # the text rendering of the series entries
        ("hw --family square --prime 5 --level 2 --format text",
         "a3cc68650f294165ab378edf763b39cf52b3a85be69f072bbe71aa4917ace8f5"),
        # level 1, whose region polynomial has scalar coefficients
        ("hw --family hyperoctahedral --n 2 --prime 7 --level 1 --format json",
         "ed0a555f94d41aac5d6f1587697fb6183e0e970452120eeac958407500a69a6b"),
        # the half-open square at level 3, recorded while regions were
        # stored as per-level point lists
        ("hw --family square --prime 5 --level 3",
         "1b33fedde0a4d834443536b810749533ae42696fff4ce2be1b84801fd0e50cab"),
    ],
)
def test_hw_golden_bytes(argv, digest, capsys):
    # recorded before LaurentPoly products over series were packed; the text
    # and level-1 cases before Z/p^N scalars became residues, the square JSON
    # when its zero entries became D + 1 zeros.  JSON unless the case names
    # a format.
    argv = argv.split()
    if "--format" not in argv:
        argv += ["--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        ("periods --family an --n 3 --degree 20 --format json",
         "6a8a68e98be504aa13ff7c37ace74f4013608c4b83b628782c978371d735d104"),
        ("periods --family hyperoctahedral --n 2 --degree 60 --format text",
         "c638d90dd99d2b0d8b244e91830b915a893d6f4da62a1c2f218f8136cd10a517"),
        # degree 147 as in the benchmark's lift, where the mirror map is longest
        ("periods --family hyperoctahedral --n 2 --degree 147 --format json",
         "ed7405f9c25fb8da9a387d2539f0480607a0e0319723029b86c21f65e1b06b6b"),
        # recorded while F of the two kinds whose summands are (1,) had
        # closed forms of their own
        ("periods --family simplicial --n 2 --degree 40 --format json",
         "e7674d9b6e5a25f217b78d7c868760cedb3cd137da9a3795420fce9fe83e9340"),
        ("periods --family hypercubic --n 3 --degree 40 --format json",
         "031bd0a5200c5f26037f7ec53b3ad6e566b540ba948161cafa21421ef76e0296"),
    ],
)
def test_periods_golden_bytes(argv, digest, capsys):
    # recorded while W, q, A, B and the mirror map were still Q-series
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)


@pytest.mark.parametrize(
    "case",
    _REFERENCE["lift"] + _REFERENCE["hw"][:1] + _REFERENCE["desk"],
    ids=lambda case: "-".join(a for a in case["argv"][:4] if not a.startswith("-")),
)
def test_benchmark_commands_golden_bytes(case, capsys):
    # the benchmark's own lift, hw and desk commands, checked against its
    # recorded stdout SHA-256, so the series kernels and the period layer
    # are guarded here too
    code, out, _ = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


def test_verify_junit(capsys):
    code, out, _ = run(capsys, "verify", "pq", "--grid", "smoke", "--format", "junit")
    assert code == 0 and out.startswith("<testsuite")
    # --format junit is the one way to ask for it
    code, out, _ = run(capsys, "verify", "pq", "--grid", "smoke", "--junit")
    assert code == cli.EXIT_USAGE and out == ""


def test_verify_precision_limited_exit_codes(capsys):
    argv = [
        "verify", "dwork", "--family", "simplicial", "--n", "2",
        "--prime", "5", "--s", "3", "--m", "2", "--degree", "20",
    ]
    code, _, _ = run(capsys, *argv)
    assert code == 1
    code, _, _ = run(capsys, *argv, "--strict-precision")
    assert code == 3


def test_verify_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "bogus")
    assert code == 2


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=hypercubic\nn=2\ndegree=10  # comment\n")
    code, out, _ = run(capsys, "periods", "--config", str(cfg))
    assert code == 0 and "degree=10" in out
    # explicit flags win over the file
    code, out, _ = run(capsys, "periods", "--config", str(cfg), "--degree", "4")
    assert code == 0 and "degree=4" in out


def test_config_switch_reads_as_its_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    for text, want in (("yes", True), ("no", False)):
        cfg.write_text("strict_precision=%s\n" % text)
        assert cli.parse_args(["verify", "all", "--config", str(cfg)]).strict_precision is want


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=hypercubic\nwarp=9\n")
    code, _, err = run(capsys, "periods", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize("key", ["command", "config", "help", "suite"])
def test_config_keys_must_name_flags_of_the_subcommand(key, tmp_path, capsys):
    # namespace entries that are no flag of the subcommand: the subcommand
    # itself, --config, --help and the positional suite of verify
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s=hw\n" % key)
    command = ["verify", "all"] if key == "suite" else ["periods", "--family", "hypercubic"]
    code, out, err = run(capsys, *command, "--config", str(cfg))
    assert code == cli.EXIT_USAGE and out == ""
    assert err == "error: unknown config keys: ['%s']\n" % key


@pytest.mark.parametrize(
    "source,text,bad",
    [
        ("g-file", "1,0:1\n0,1 : x\n", "0,1 : x"),
        ("g-file", "1,0:1\n0,1 1\n", "0,1 1"),
        ("config", "family=hypercubic\nprime=abc\n", "prime=abc"),
        ("explicit-lift", "3:1 5:x\n", "5:x"),
        ("explicit-lift", "3:1 -1:5\n", "'-1:5' has a negative degree"),
        ("explicit-lift", "3:1 3:8\n", "'3:8' repeats degree 3"),
    ],
    ids=["g-file-coefficient", "g-file-colon", "config-int", "explicit-lift-token",
         "explicit-lift-negative-degree", "explicit-lift-repeated-degree"],
)
def test_malformed_input_is_a_usage_error(source, text, bad, tmp_path, capsys):
    # each names the bad line or token and exits 2, without a traceback; an
    # explicit lift token is neither dropped nor overwritten, which would
    # change t^sigma silently (the control, a valid file, is
    # test_explicit_t_to_the_p_prints_the_tp_bytes)
    path = tmp_path / "input.txt"
    path.write_text(text)
    argv = {
        "g-file": ["periods", "--family", "custom", "--g-file", str(path)],
        "config": ["hw", "--config", str(path)],
        "explicit-lift": [
            "hw", "--family", "square", "--prime", "3", "--degree", "12",
            "--lift", "explicit:%s" % path,
        ],
    }[source]
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == "" and err.startswith("error: ") and bad in err


def test_square_rejects_the_excellent_lift_before_building_one(capsys):
    code, out, err = run(capsys, "hw", "--family", "square", "--prime", "5", "--lift", "excellent")
    assert code == cli.EXIT_USAGE and out == "" and "Traceback" not in err
    assert err == "error: the square example has no catalog excellent lift; use tp or explicit\n"


@pytest.mark.parametrize(
    "tokens,code", [("5:1 6:1", 2), ("5:1 6:5", 0)], ids=["not-a-lift", "a-lift"]
)
def test_explicit_lift_must_be_t_to_the_p_mod_p(tokens, code, tmp_path, capsys):
    # t^5 + t^6 is not t^5 mod 5 at degree 6; t^5 + 5 t^6 is
    path = tmp_path / "lift.txt"
    path.write_text(tokens)
    got, out, err = run(
        capsys, "hw", "--family", "square", "--prime", "5", "--degree", "12",
        "--lift", "explicit:%s" % path,
    )
    assert got == code
    if code:
        assert out == "" and err.startswith("error: ") and err.endswith("at degree 6\n")
    else:
        assert json.loads(out)["level"] == 2


def test_explicit_t_to_the_p_prints_the_tp_bytes(tmp_path, capsys):
    # a lift is its t^sigma: t^7 read from a file is the t^p lift
    path = tmp_path / "lift.txt"
    path.write_text("7:1\n")
    argv = ["hw", "--family", "hyperoctahedral", "--n", "2", "--prime", "7"]
    outs = [run(capsys, *argv, "--lift", lift) for lift in ("tp", "explicit:%s" % path)]
    assert [code for code, _, _ in outs] == [0, 0] and outs[0][1] == outs[1][1]
    assert hashlib.sha256(outs[1][1].encode()).hexdigest() == (
        "d6098df11add13304cdab9ec7c5d2704e375b7b35f4194ce88648509d4ab66b8")


def test_out_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "hw", "--family", "square", "--prime", "3", "--degree", "9",
        "--out", str(path),
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["level"] == 2


# one cheap invocation per subcommand, without --format
DEFAULT_FORMAT_RUNS = {
    "periods": ["--family", "hypercubic", "--n", "2", "--degree", "6"],
    "hw": ["--family", "square", "--prime", "3", "--degree", "9"],
    "lift": ["--family", "hypercubic", "--n", "1", "--prime", "3", "--degree", "12"],
    "verify": ["pq", "--grid", "smoke"],
}


def _action(command, dest):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest)


def _help(command, dest="format"):
    return _action(command, dest).help


@pytest.mark.parametrize("dropped", [None, "straub"], ids=["table", "missing-suite-control"])
def test_the_parser_table_is_the_harness_suites(dropped, monkeypatch):
    # the parser reads the suites and their parameter names from a table in
    # cli, not from harness; a table missing one suite must not match
    if dropped:
        table = {name: params for name, params in cli._SUITE_PARAMS.items() if name != dropped}
        monkeypatch.setattr(cli, "_SUITE_PARAMS", table)
    checks = [
        (name, tuple(inspect.signature(check).parameters))
        for name, check in harness.SUITES.items()
    ]
    matches = (
        _action("verify", "suite").choices == ("all", *harness.SUITES)
        and list(cli._SUITE_PARAMS.items()) == checks
    )
    assert matches == (dropped is None)
    assert _action("verify", "grid").choices == tuple(harness.GRIDS)


@pytest.mark.parametrize(
    "command,prefix",
    [
        ((), "5cced966c03cab88"),
        (("periods",), "a978bfeab62523c9"),
        (("hw",), "e12e3d0c95448017"),
        (("lift",), "4454ddda5068980b"),
        (("verify",), "f929a5be4c579a80"),
    ],
    ids=["top-level", "periods", "hw", "lift", "verify"],
)
def test_help_bytes(command, prefix, monkeypatch, capsys):
    # --help at 80 columns prints the bytes it printed while the parser read
    # the suites from harness
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, *command, "--help")
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest().startswith(prefix)


@pytest.mark.parametrize("command", sorted(DEFAULT_FORMAT_RUNS))
def test_format_help_names_the_default_in_use(command, capsys):
    stated = re.search(r"\(default (\w+)\)", _help(command)).group(1)
    code, out, _ = run(capsys, command, *DEFAULT_FORMAT_RUNS[command])
    assert code == 0
    try:
        json.loads(out)
        emitted = "json"
    except ValueError:
        emitted = "text"
    assert emitted == stated


@pytest.mark.parametrize("command", ["periods", "lift", "hw"])
def test_junit_only_for_verify(command, tmp_path, capsys):
    code, out, err = run(capsys, command, *DEFAULT_FORMAT_RUNS[command], "--format", "junit")
    assert code == cli.EXIT_USAGE
    assert out == "" and "junit" in err
    assert "junit" not in _help(command)
    # nor anywhere in --help, the usage line included
    code, out, _ = run(capsys, command, "--help")
    assert code == cli.EXIT_OK and "--format" in out and "junit" not in out
    # a config file is held to the same choices
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=junit\n")
    code, out, err = run(capsys, command, *DEFAULT_FORMAT_RUNS[command], "--config", str(cfg))
    assert code == cli.EXIT_USAGE
    assert out == "" and "junit" in err


def test_custom_family_with_p_dividing_gamma_is_a_usage_error(tmp_path, capsys):
    # the level-2 CY matrix divides by gamma = 3, which is not a unit at p = 3
    gf = tmp_path / "g.txt"
    gf.write_text("1,0:3\n0,1:3\n-1,-1:3\n")
    code, out, err = run(
        capsys, "hw", "--family", "custom", "--g-file", str(gf), "--prime", "3", "--level", "2",
    )
    assert code == cli.EXIT_USAGE
    assert out == "" and "not a unit" in err


@pytest.mark.parametrize("command,has_precision", [("verify", False), ("hw", True), ("lift", True)])
def test_precision_flag_only_where_it_is_used(command, has_precision, capsys):
    # verify derives each check's precision from its target modulus
    code, out, _ = run(capsys, command, "--help")
    assert code == cli.EXIT_OK
    assert ("--precision" in out) == has_precision
    if not has_precision:
        code, _, err = run(capsys, command, "dwork", "--precision", "6")
        assert code == cli.EXIT_USAGE and "--precision" in err
