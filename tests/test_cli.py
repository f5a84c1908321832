"""Command-line interface: exit codes, output contracts, config merging."""

import argparse
import json
import re

import pytest

from cartier import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    # a series entry and hw_det list all Dt + 1 = 3p^2 + 1 residues,
    # trailing zeros included; scalar entries of the square example are ints
    code, out, _ = run(capsys, "hw", *family, "--prime", "5", "--level", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    series = [e for row in obj["entries"] for e in row if isinstance(e, list)]
    assert series and all(len(e) == 76 for e in series)
    assert all(isinstance(e, int) for row in obj["entries"] for e in row if not isinstance(e, list))
    assert len(obj["hw_det"]) == 76
    assert any(e[-1] == 0 for e in series)


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


def test_verify_smoke_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "all", "--grid", "smoke")
    code2, out2, _ = run(capsys, "verify", "all", "--grid", "smoke")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_junit(capsys):
    code, out, _ = run(capsys, "verify", "pq", "--grid", "smoke", "--junit")
    assert code == 0 and out.startswith("<testsuite")


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


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=hypercubic\nwarp=9\n")
    code, _, err = run(capsys, "periods", "--config", str(cfg))
    assert code == 2


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


def _format_help(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == "format").help


@pytest.mark.parametrize("command", sorted(DEFAULT_FORMAT_RUNS))
def test_format_help_names_the_default_in_use(command, capsys):
    stated = re.search(r"\(default (\w+)\)", _format_help(command)).group(1)
    code, out, _ = run(capsys, command, *DEFAULT_FORMAT_RUNS[command])
    assert code == 0
    try:
        json.loads(out)
        emitted = "json"
    except ValueError:
        emitted = "text"
    assert emitted == stated


@pytest.mark.parametrize("command", ["periods", "lift", "hw"])
def test_junit_only_for_verify(command, capsys):
    code, out, err = run(capsys, command, *DEFAULT_FORMAT_RUNS[command], "--format", "junit")
    assert code == cli.EXIT_USAGE
    assert out == "" and "junit" in err
    assert "junit" not in _format_help(command)


@pytest.mark.parametrize("command,has_precision", [("verify", False), ("hw", True), ("lift", True)])
def test_precision_flag_only_where_it_is_used(command, has_precision, capsys):
    # verify derives each check's precision from its target modulus
    code, out, _ = run(capsys, command, "--help")
    assert code == cli.EXIT_OK
    assert ("--precision" in out) == has_precision
    if not has_precision:
        code, _, err = run(capsys, command, "dwork", "--precision", "6")
        assert code == cli.EXIT_USAGE and "--precision" in err
