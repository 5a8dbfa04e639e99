"""End-to-end CLI behavior: exit codes, formats, configuration."""

import argparse
import json
import os
import subprocess
import sys

import pytest
from mpmath import mpc, mpf

from modzeta import DomainError, PrecisionCtx
from modzeta.cli import _parse_number, cmd_eval, main


def run_cli(*argv, env=None):
    cmd = [sys.executable, "-m", "modzeta.cli", *argv]
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=full_env,
                          timeout=600)


def test_verify_exit_zero():
    out = run_cli("verify", "--suite", "ramanujan-classical", "--digits", "50",
                  "--jobs", "1")
    assert out.returncode == 0
    assert "4/4 passed" in out.stdout


def test_verify_unknown_suite_exit_two():
    out = run_cli("verify", "--suite", "nonsense")
    assert out.returncode == 2
    assert "unknown suite" in out.stderr


def test_verify_json_round_trip(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("verify", "--suite", "h2-variants", "--digits", "40",
                  "--format", "json", "--jobs", "1", "--out", str(target))
    assert out.returncode == 0
    blob = json.loads(target.read_text())
    assert blob["summary"]["failed"] == 0
    assert mpf(blob["identities"][0]["abs_residual"]) < mpf(10) ** -30


def test_list_suites():
    out = run_cli("verify", "--list-suites")
    assert out.returncode == 0
    assert "table-h2" in out.stdout and "all" in out.stdout


def test_closed_stdout_ends_quietly():
    # the reader of stdout has gone before the output is flushed, as with
    # `modzeta verify --list-suites | head -0`: exit 1, and no traceback
    proc = subprocess.Popen([sys.executable, "-m", "modzeta.cli", "verify", "--list-suites"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=600) == 1
    assert err == b""


def test_eval_l_value():
    out = run_cli("eval", "L", "-7", "2", "--digits", "30")
    assert out.returncode == 0
    assert out.stdout.strip().startswith("1.151925470544491")


def test_eval_l_value_refuses_d_3_mod_4():
    # (-1/.) is no character: (-1/2) = 1 but (-1/6) = -1
    out = run_cli("eval", "L", "-1", "4")
    assert out.returncode == 2
    assert "d = 0, 1 or 2 (mod 4)" in out.stderr and out.stdout == ""


def test_eval_epstein():
    # E(i,2) = 30 G / pi^2 = 2.78420154533...
    out = run_cli("eval", "E", "i", "2", "--digits", "30")
    assert out.returncode == 0
    assert out.stdout.strip().startswith("2.784201545330791")


def test_eval_k_zero():
    out = run_cli("eval", "K", "0", "--digits", "20")
    assert out.returncode == 0
    assert out.stdout.strip().startswith("1.57079632679489661")


def test_eval_binom3_boundary_rate():
    # a negative rational argument, and a rate the engine sums by CVZ
    out = run_cli("eval", "binom3", "-1/64", "4", "1", "--digits", "30")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0.636619772367581343075535053490"


def test_eval_binom2_boundary_rate():
    # Gauss's constant 1/agm(1, sqrt 2), summed by CVZ at 16x = -1
    out = run_cli("eval", "binom2", "-1/16", "--digits", "30")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0.834626841674073186281429732799"


# every eval name with its arity
EVAL_ARITY = {"L": 2, "zeta": 1, "G": 0, "E": 2, "eichler4": 2, "eichler6": 2,
              "lambda": 1, "eta": 1, "E2": 1, "E4": 1, "E6": 1, "K": 1,
              "binom3": 3, "binom2": 1, "Srz": 2, "Trz": 2, "Urz": 2}


def test_eval_usage_errors(capsys):
    assert run_cli("eval", "K").returncode == 2          # bad arity
    assert run_cli("eval", "frobnicate", "1").returncode == 2
    assert run_cli("eval", "K", "2").returncode == 2     # branch cut
    assert main(["eval", "Srz", "i", "1/0"]) == 2        # zero denominator
    for name, n in EVAL_ARITY.items():
        assert main(["eval", name] + ["1"] * (n + 1)) == 2, name
        assert ("%s expects %d argument(s), got %d" % (name, n, n + 1)
                in capsys.readouterr().err)


def test_eval_complex_argument():
    out = run_cli("eval", "lambda", "0.5+0.9i", "--digits", "15")
    assert out.returncode == 0


def test_env_digits():
    out = run_cli("eval", "G", env={"MODZETA_DIGITS": "15"})
    assert out.returncode == 0
    assert out.stdout.strip() == "0.915965594177219"


def test_config_file(tmp_path):
    cfg = tmp_path / "modzeta.cfg"
    cfg.write_text("digits=20\nformat=text\n")
    out = run_cli("eval", "zeta", "2", "--config", str(cfg))
    assert out.returncode == 0
    assert out.stdout.strip().startswith("1.6449340668482264")
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense=1\n")
    assert run_cli("eval", "zeta", "2", "--config", str(bad)).returncode == 2


NOT_INT, JOBS, FORMAT = ("must be an integer", "jobs must be at least 1",
                         "format must be text or json")


# a setting that is not an integer, or out of range, stops the command
# before any work with exit code 2; so does a config file that cannot be read,
# and an output file that cannot be written stops it with the same code
@pytest.mark.parametrize("argv,cfg,env,message", [
    (("eval", "G"), None, {"MODZETA_DIGITS": "abc"}, NOT_INT),
    (("eval", "G"), "digits=forty\n", None, NOT_INT),
    (("verify", "--suite", "h2-variants"), "jobs=two\n", None, NOT_INT),
    (("verify", "--suite", "h2-variants", "--jobs", "1"), "seed=1.5\n", None, NOT_INT),
    (("table", "h2"), "jobs=2.0\n", None, NOT_INT),
    (("verify", "--suite", "h2-variants", "--jobs", "0"), None, None, JOBS),
    (("verify", "--suite", "h2-variants", "--jobs", "-3"), None, None, JOBS),
    (("verify", "--suite", "h2-variants"), "jobs=0\n", None, JOBS),
    (("table", "h2", "--jobs", "0"), None, None, JOBS),
    (("verify", "--suite", "h2-variants", "--jobs", "1"), "format=jsno\n", None, FORMAT),
    (("table", "h2", "--jobs", "1"), "format=jsno\n", None, FORMAT),
    (("eval", "zeta", "2", "--config", "."), None, None, "cannot read config file"),
    (("eval", "zeta", "2", "--out", "."), None, None, "cannot write ."),
    (("eval", "G", "--digits", "abc"), None, None, NOT_INT),
    (("verify", "--suite", "h2-variants", "--format", "jsno"), None, None, FORMAT),
    (("table", "h2", "--jobs", "1", "--format", "jsno"), None, None, FORMAT),
], ids=["env-digits", "config-digits", "config-jobs", "config-seed", "table-jobs",
        "jobs-zero", "jobs-negative", "config-jobs-zero", "table-jobs-zero",
        "config-format", "table-format", "config-directory", "out-directory",
        "flag-digits", "flag-format", "table-flag-format"])
def test_non_integer_setting_is_usage_error(tmp_path, argv, cfg, env, message):
    if cfg is not None:
        path = tmp_path / "modzeta.cfg"
        path.write_text(cfg)
        argv += ("--config", str(path))
    out = run_cli(*argv, env=env)
    assert out.returncode == 2, out.stderr
    assert message in out.stderr
    assert "Traceback" not in out.stderr


# one check per setting: a bad value gives the same message, and main returns
# 2 without raising SystemExit, whether it comes from a flag, the config file
# or (for digits) MODZETA_DIGITS
@pytest.mark.parametrize("argv,key,value,message", [
    (("eval", "G"), "digits", "abc", "digits must be an integer, got 'abc'"),
    (("eval", "G"), "digits", "5", "digits must lie in [10, 1000], got 5"),
    (("table", "h2"), "jobs", "0", "jobs must be at least 1, got 0"),
    (("verify", "--suite", "h2-variants"), "seed", "1.5", "seed must be an integer, got '1.5'"),
    (("verify", "--suite", "h2-variants"), "format", "jsno",
     "format must be text or json, got 'jsno'"),
])
def test_bad_setting_same_message_from_every_source(tmp_path, monkeypatch, capsys,
                                                     argv, key, value, message):
    monkeypatch.delenv("MODZETA_DIGITS", raising=False)
    path = tmp_path / "modzeta.cfg"
    path.write_text("%s=%s\n" % (key, value))
    runs = [argv + ("--" + key, value), argv + ("--config", str(path))]
    errors = []
    for run in runs:
        assert main(list(run)) == 2
        errors.append(capsys.readouterr().err)
    if key == "digits":
        monkeypatch.setenv("MODZETA_DIGITS", value)
        assert main(list(argv)) == 2
        errors.append(capsys.readouterr().err)
    assert errors == ["error: %s\n" % message] * len(errors)


def test_argparse_error_returns_two_with_usage(capsys):
    assert main(["table", "h4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: modzeta table") and "error: argument which" in err
    assert main(["eval", "G", "--nonsense"]) == 2
    assert "error: unrecognized arguments: --nonsense" in capsys.readouterr().err


def test_settings_precedence(tmp_path, monkeypatch, capsys):
    # flag > MODZETA_DIGITS > config file > default 50
    path = tmp_path / "modzeta.cfg"
    path.write_text("digits=20\n")
    monkeypatch.delenv("MODZETA_DIGITS", raising=False)
    sizes = []
    for env, argv in ((None, ()), (None, ("--config", str(path))),
                      ("15", ("--config", str(path))),
                      ("15", ("--config", str(path), "--digits", "12"))):
        if env:
            monkeypatch.setenv("MODZETA_DIGITS", env)
        assert main(["eval", "G", *argv]) == 0
        sizes.append(len(capsys.readouterr().out.strip()) - 2)  # digits after "0."
    assert sizes == [50, 20, 15, 12]


def test_config_key_a_command_does_not_take_is_ignored(tmp_path, capsys):
    path = tmp_path / "modzeta.cfg"
    path.write_text("digits=15\njobs=two\nseed=x\nsuite=nonsense\n")
    assert main(["eval", "G", "--config", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "0.915965594177219"


# the values an eval argument parses to, at 30 digits
@pytest.mark.parametrize("text,expected", [
    ("i", (0, 1)),
    ("-i", (0, -1)),
    ("0.5-i", ("0.5", -1)),
    ("2i", (0, 2)),
    ("1e-3-2.5e2i", ("1e-3", "-2.5e2")),
    ("-1/64", None),
    ("0.5 + 0.75 i", ("0.5", "0.75")),
])
def test_parse_number(text, expected):
    ctx = PrecisionCtx(30)
    with ctx.working():
        value = _parse_number(text)
        if expected is None:
            assert value == mpf(-1) / 64 and isinstance(value, mpf)
        else:
            assert value == mpc(*(mpf(v) for v in expected))


@pytest.mark.parametrize("text", ["ii", "abc", "1+", "nan"])
def test_unparsable_number_is_usage_error(capsys, text):
    assert main(["eval", "eta", text, "--digits", "30"]) == 2
    err = capsys.readouterr().err
    assert err == "error: cannot parse number %r\n" % text


def test_eval_domain_error_is_not_rewrapped(capsys):
    # the nome walk's DomainError reaches main as itself: exit 2, its message
    argv = ["eval", "Srz", "0.3+0.02i", "1/16", "--digits", "15"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: the Lambert nome walk is out of contract for Im z < 0.03\n")
    args = argparse.Namespace(function="Srz", args=argv[2:4], digits=15, out=None)
    with pytest.raises(DomainError) as info:
        cmd_eval(args)
    assert type(info.value) is DomainError


def test_digits_bounds():
    assert run_cli("eval", "G", "--digits", "5").returncode == 2
    assert run_cli("eval", "G", "--digits", "2000").returncode == 2


def test_table_h2(tmp_path):
    target = tmp_path / "h2.json"
    out = run_cli("table", "h2", "--digits", "40", "--format", "json",
                  "--jobs", "1", "--out", str(target))
    assert out.returncode == 0
    blob = json.loads(target.read_text())
    assert blob["summary"]["total"] == 28
    assert blob["summary"]["failed"] == 0


def test_table_text():
    out = run_cli("table", "h3", "--digits", "30", "--jobs", "1")
    assert out.returncode == 0
    assert "cells matched" in out.stdout


def test_main_inprocess_no_command():
    assert main([]) == 2


@pytest.mark.parametrize("fn,args", [
    ("Srz", ("0.8660254037844386467637231707529362i", "1/16")),
    ("Urz", ("0.8660254037844386467637231707529362i", "1/64")),
])
def test_eval_combinations(fn, args):
    out = run_cli("eval", fn, *args, "--digits", "20")
    assert out.returncode == 0
