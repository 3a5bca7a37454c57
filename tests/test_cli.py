import json
import os
import subprocess
import sys

import pytest

from sqfrob import arith, cli, core


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_power_frob_oracle_exact_bytes(capsys):
    code, out, err = run_cli(capsys, "power-frob", "--gens", "13,18", "--k", "2")
    assert code == 0
    assert out == '{"k":2,"root":10,"value":100,"method":"oracle"}\n'
    assert err == ""


def test_frobenius_bare_number(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "--gens", "5,6")
    assert (code, out) == (0, "19\n")


def test_member_true_false(capsys):
    code, out, _ = run_cli(capsys, "member", "--gens", "4,7", "--value", "11")
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(capsys, "member", "--gens", "4,7", "--value", "10")
    assert (code, out) == (0, "false\n")


def test_member_noncoprime_is_invalid_input(capsys):
    code, out, err = run_cli(capsys, "member", "--gens", "4,6", "--value", "5")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_member_negative_value_is_invalid_input(capsys):
    code, _, err = run_cli(capsys, "member", "--gens", "4,7", "--value", "-2")
    assert code == 2
    assert "error:" in err


def test_power_frob_closed(capsys):
    code, out, _ = run_cli(capsys, "power-frob", "--gens", "10,13", "--k", "2",
                           "--method", "closed")
    assert code == 0
    assert out == '{"k":2,"root":9,"value":81,"method":"closed_form"}\n'


def test_power_frob_closed_rejects_bad_shapes(capsys):
    code, _, err = run_cli(capsys, "power-frob", "--gens", "5,7,9", "--k", "2",
                           "--method", "closed")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "power-frob", "--gens", "10,13", "--k", "3",
                           "--method", "closed")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "power-frob", "--gens", "3,10", "--k", "2",
                           "--method", "closed")
    assert code == 2 and "error:" in err and "d = 7" in err


def test_power_frob_closed_matches_oracle(capsys):
    for gens in ("9,10", "11,13", "7,10", "9,13", "11,16", "23,24", "3,6,8", "4,8,9"):
        _, closed, _ = run_cli(capsys, "power-frob", "--gens", gens, "--k", "2",
                               "--method", "closed")
        _, oracle, _ = run_cli(capsys, "power-frob", "--gens", gens, "--k", "2")
        assert json.loads(closed)["value"] == json.loads(oracle)["value"], gens


def test_power_frob_closed_builds_no_apery_table(capsys, monkeypatch):
    # an Apery table at multiplicity ~10**9 would take about 8 GB
    def refuse(gens, m):
        raise AssertionError(f"Apery table of size {m} built")

    monkeypatch.setattr(core, "_apery_entries", refuse)
    code, out, _ = run_cli(capsys, "power-frob", "--gens", "1000000007,1000000009",
                           "--k", "2", "--method", "closed")
    assert code == 0
    assert out == ('{"k":2,"root":999968386,"value":999936772999444996,'
                   '"method":"closed_form"}\n')
    code, out, err = run_cli(capsys, "power-frob", "--gens",
                             "1000000007,1000000009,3000000000", "--k", "2",
                             "--method", "closed")
    assert code == 2 and out == ""
    assert "closed forms cover <a, a+d>" in err


def test_power_min(capsys):
    code, out, _ = run_cli(capsys, "power-min", "--gens", "4,9", "--k", "2")
    assert code == 0
    assert json.loads(out) == {"k": 2, "root": 2, "value": 4, "method": "oracle"}


def test_bound_with_profile(capsys):
    code, out, _ = run_cli(capsys, "bound", "--a", "13", "--d", "5", "--k", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"a": 13, "d": 5, "k": 1, "root": 9, "value": 81, "method": "bound"}
    code, out, _ = run_cli(capsys, "bound", "--a", "13", "--d", "5", "--k", "1",
                           "--dump-profile")
    obj = json.loads(out)
    assert obj["profile"]["lambdas"] == [0, 3, 2, 2, 3]
    assert obj["profile"]["alphas"] == [1, 4]
    assert (obj["profile"]["mu"], obj["profile"]["j"]) == (1, 1)


def test_bound_dump_profile_computes_profile_once(capsys, monkeypatch):
    calls = []
    real = arith.lambda_profile

    def counted(a, d):
        calls.append((a, d))
        return real(a, d)

    monkeypatch.setattr(arith, "lambda_profile", counted)
    code, _, _ = run_cli(capsys, "bound", "--a", "13", "--d", "5", "--k", "1",
                         "--dump-profile")
    assert code == 0
    assert calls == [(13, 5)]


def test_bound_small_d_is_invalid_input(capsys):
    code, _, err = run_cli(capsys, "bound", "--a", "13", "--d", "2", "--k", "1")
    assert code == 2 and "error:" in err


def test_exceptions_empty_and_nonempty(capsys):
    code, out, _ = run_cli(capsys, "exceptions", "--d", "3")
    assert code == 0
    assert json.loads(out)["members"] == []
    code, out, _ = run_cli(capsys, "exceptions", "--d", "5")
    assert code == 0
    assert [m["a"] for m in json.loads(out)["members"]] == [2, 4, 13, 27, 32]


def test_tables(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run_cli(capsys, "tables", "--which", "1")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["mismatches"] == []


def test_verify_conj1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--target", "conj1", "--max", "2000")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True and obj["mismatches"] == []


def test_verify_jobs_deterministic_stdout(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--target", "conj2", "--max", "4000")
    _, out2, _ = run_cli(capsys, "verify", "--target", "conj2", "--max", "4000",
                         "--jobs", "3")
    assert out1 == out2


def test_verify_theorem_ap_and_min_power(capsys):
    code, out, _ = run_cli(capsys, "verify", "--target", "theorem-ap", "--max", "600",
                           "--d", "3", "--k", "1")
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = run_cli(capsys, "verify", "--target", "min-power", "--max", "40")
    assert code == 0 and json.loads(out)["passed"] is True


def test_json_output_is_canonical(capsys):
    for argv in (("power-frob", "--gens", "13,18", "--k", "2"),
                 ("exceptions", "--d", "5"),
                 ("verify", "--target", "conj1", "--max", "100"),
                 ("bound", "--a", "106", "--d", "3", "--k", "1")):
        _, out, _ = run_cli(capsys, *argv)
        line = out.strip()
        assert json.dumps(json.loads(line), separators=(",", ":")) == line


def test_text_and_csv_formats(capsys):
    _, out, _ = run_cli(capsys, "power-frob", "--gens", "13,18", "--k", "2",
                        "--format", "text")
    assert "value" in out and "100" in out
    _, out, _ = run_cli(capsys, "power-frob", "--gens", "13,18", "--k", "2",
                        "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "k,root,value,method"
    assert lines[1] == "2,10,100,oracle"
    _, out, _ = run_cli(capsys, "exceptions", "--d", "5", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "a,oracle_value,bound_B_value"
    assert len(lines) == 6
    _, out, _ = run_cli(capsys, "tables", "--which", "2", "--format", "text")
    assert "passed:   True" in out


def test_unknown_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--target", "bogus", "--max", "10"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobenius"])
    assert exc.value.code == 2


def test_zero_generator_is_invalid_input(capsys):
    code, _, err = run_cli(capsys, "frobenius", "--gens", "0,3")
    assert code == 2 and "error:" in err


def test_full_semigroup_power_frob_is_invalid_input(capsys):
    code, _, err = run_cli(capsys, "power-frob", "--gens", "1", "--k", "2")
    assert code == 2 and "error:" in err


def test_out_of_memory_is_exit_2():
    # The table for multiplicity ~10**9 asks for about 8 GB, so the child runs
    # under a 2 GB address-space limit set in that child only.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "sqfrob.cli", "frobenius", "--gens", "1000000007,1000000009"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "multiplicity" in lines[0]
