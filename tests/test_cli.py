import json
import os
import re
import subprocess
import sys
import time

import pytest

from sqfrob import arith, cli, closedform, core, power, verify


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
    code, _, err = run_cli(capsys, "power-frob", "--gens", "3,16", "--k", "2",
                           "--method", "closed")
    assert code == 2 and "error:" in err and "d = 13" in err


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


@pytest.mark.parametrize("k", ["332193", "10000000", "1000000000"])
def test_power_min_past_the_digit_cap_is_invalid_input(capsys, k):
    # unless 1 is a generator the answer is at least 2^k; past k = 332,192 it
    # has over 100,000 digits, and printing it takes quadratic time
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "power-min", "--gens", "2,3", "--k", k)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and len(lines[0]) <= 200
    code, out, _ = run_cli(capsys, "power-min", "--gens", "1", "--k", k)
    assert code == 0
    assert out == f'{{"k":{k},"root":1,"value":1,"method":"oracle"}}\n'


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
    for fmt in FORMATS:
        _, out1, err1 = run_cli(capsys, "verify", "--target", "conj2", "--max", "4000",
                                "--format", fmt)
        _, out2, err2 = run_cli(capsys, "verify", "--target", "conj2", "--max", "4000",
                                "--jobs", "3", "--format", fmt)
        assert out1 == out2, fmt
        # the sweep's one timing line goes to stderr, never stdout
        for err in (err1, err2):
            assert re.fullmatch(r"walltime: \d+\.\d\ds\n", err), (fmt, err)
        _, _, err = run_cli(capsys, "bound", "--a", "13", "--d", "5", "--k", "1",
                            "--format", fmt)
        assert err == "", fmt


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
    assert lines[0] == "d,scan_range,members"
    assert len(lines) == 2
    _, out, _ = run_cli(capsys, "tables", "--which", "2", "--format", "text")
    assert "passed      True" in out.splitlines()


def _keys(out, fmt):
    # the csv header row, or the key column of the text lines
    lines = out.splitlines()
    return lines[0] if fmt == "csv" else [line.split()[0] for line in lines]


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_columns_depend_only_on_the_report_type(capsys, monkeypatch, fmt):
    _, empty, _ = run_cli(capsys, "exceptions", "--d", "3", "--format", fmt)
    _, full, _ = run_cli(capsys, "exceptions", "--d", "5", "--format", fmt)
    assert _keys(empty, fmt) == _keys(full, fmt)
    _, passing, _ = run_cli(capsys, "tables", "--which", "2", "--format", fmt)
    d, a, root, b_root = verify.load_table2()[0]
    monkeypatch.setattr(verify, "load_table2", lambda: [(d, a, root + 1, b_root)])
    code, failing, _ = run_cli(capsys, "tables", "--which", "2", "--format", fmt)
    assert code == 1 and _keys(passing, fmt) == _keys(failing, fmt)
    if fmt == "text":
        mismatch = {"d": d, "a": a, "expected_sqfrob": (root + 1) ** 2,
                    "got_sqfrob": root ** 2, "expected_bound": b_root ** 2,
                    "got_bound": b_root ** 2}
        assert f"mismatches  {core._canonical_json([mismatch])}" in failing.splitlines()


# (argv, exit code, stdout under --format json, csv, text)
CLI_BYTES = [
    (('frobenius', '--gens', '5,6'), 0,
     '19\n',
     '19\r\n',
     '19\n'),
    (('member', '--gens', '4,7', '--value', '11'), 0,
     'true\n',
     'True\r\n',
     'True\n'),
    (('member', '--gens', '4,7', '--value', '10'), 0,
     'false\n',
     'False\r\n',
     'False\n'),
    (('power-frob', '--gens', '13,18', '--k', '2'), 0,
     '{"k":2,"root":10,"value":100,"method":"oracle"}\n',
     ('k,root,value,method\r\n'
      '2,10,100,oracle\r\n'),
     ('k       2\n'
      'root    10\n'
      'value   100\n'
      'method  oracle\n')),
    (('power-frob', '--gens', '10,13', '--k', '2', '--method', 'closed'), 0,
     '{"k":2,"root":9,"value":81,"method":"closed_form"}\n',
     ('k,root,value,method\r\n'
      '2,9,81,closed_form\r\n'),
     ('k       2\n'
      'root    9\n'
      'value   81\n'
      'method  closed_form\n')),
    (('power-min', '--gens', '4,9', '--k', '2'), 0,
     '{"k":2,"root":2,"value":4,"method":"oracle"}\n',
     ('k,root,value,method\r\n'
      '2,2,4,oracle\r\n'),
     ('k       2\n'
      'root    2\n'
      'value   4\n'
      'method  oracle\n')),
    (('bound', '--a', '13', '--d', '5', '--k', '1'), 0,
     '{"a":13,"d":5,"k":1,"root":9,"value":81,"method":"bound"}\n',
     ('a,d,k,root,value,method\r\n'
      '13,5,1,9,81,bound\r\n'),
     ('a       13\n'
      'd       5\n'
      'k       1\n'
      'root    9\n'
      'value   81\n'
      'method  bound\n')),
    (('bound', '--a', '2', '--d', '7', '--k', '2', '--dump-profile'), 0,
     ('{"a":2,"d":7,"k":2,"root":1,"value":1,"method":"bound",'
      '"profile":{"d":7,"lambdas":[0,3,5,6,6,5,3],"lambda_star":6,'
      '"alphas":[3,4],"alpha_next":10,"mu":1,"j":2,"target":128,'
      '"edge":3}}\n'),
     ('a,d,k,root,value,method,profile\r\n'
      '2,7,2,1,1,bound,"{""d"":7,""lambdas"":[0,3,5,6,6,5,3],'
      '""lambda_star"":6,""alphas"":[3,4],""alpha_next"":10,""mu"":1,'
      '""j"":2,""target"":128,""edge"":3}"\r\n'),
     ('a        2\n'
      'd        7\n'
      'k        2\n'
      'root     1\n'
      'value    1\n'
      'method   bound\n'
      'profile  {"d":7,"lambdas":[0,3,5,6,6,5,3],"lambda_star":6,'
      '"alphas":[3,4],"alpha_next":10,"mu":1,"j":2,"target":128,'
      '"edge":3}\n')),
    (('exceptions', '--d', '3'), 0,
     '{"d":3,"scan_range":[2,107],"members":[]}\n',
     ('d,scan_range,members\r\n'
      '3,"[2,107]",[]\r\n'),
     ('d           3\n'
      'scan_range  [2,107]\n'
      'members     []\n')),
    (('exceptions', '--d', '5'), 0,
     ('{"d":5,"scan_range":[2,499],"members":[{"a":2,"oracle_value":1,'
      '"bound_B_value":0},{"a":4,"oracle_value":1,"bound_B_value":4},'
      '{"a":13,"oracle_value":100,"bound_B_value":81},{"a":27,'
      '"oracle_value":441,"bound_B_value":400},{"a":32,'
      '"oracle_value":676,"bound_B_value":625}]}\n'),
     ('d,scan_range,members\r\n'
      '5,"[2,499]","[{""a"":2,""oracle_value"":1,""bound_B_value"":0},'
      '{""a"":4,""oracle_value"":1,""bound_B_value"":4},{""a"":13,'
      '""oracle_value"":100,""bound_B_value"":81},{""a"":27,'
      '""oracle_value"":441,""bound_B_value"":400},{""a"":32,'
      '""oracle_value"":676,""bound_B_value"":625}]"\r\n'),
     ('d           5\n'
      'scan_range  [2,499]\n'
      'members     [{"a":2,"oracle_value":1,"bound_B_value":0},'
      '{"a":4,"oracle_value":1,"bound_B_value":4},{"a":13,'
      '"oracle_value":100,"bound_B_value":81},{"a":27,'
      '"oracle_value":441,"bound_B_value":400},{"a":32,'
      '"oracle_value":676,"bound_B_value":625}]\n')),
    (('tables', '--which', '1'), 0,
     ('{"scope":"exception sets vs golden table","range":"d=3..12",'
      '"checked":13766,"passed":true,"mismatches":[]}\n'),
     ('scope,range,checked,passed,mismatches\r\n'
      'exception sets vs golden table,d=3..12,13766,True,[]\r\n'),
     ('scope       exception sets vs golden table\n'
      'range       d=3..12\n'
      'checked     13766\n'
      'passed      True\n'
      'mismatches  []\n')),
    (('tables', '--which', '2'), 0,
     ('{"scope":"exceptional values vs golden table","range":"62 rows",'
      '"checked":62,"passed":true,"mismatches":[]}\n'),
     ('scope,range,checked,passed,mismatches\r\n'
      'exceptional values vs golden table,62 rows,62,True,[]\r\n'),
     ('scope       exceptional values vs golden table\n'
      'range       62 rows\n'
      'checked     62\n'
      'passed      True\n'
      'mismatches  []\n')),
    (('verify', '--target', 'conj1', '--max', '2000'), 0,
     ('{"scope":"square-frobenius conjecture, d=1","range":[2,2000],'
      '"checked":86,"passed":true,"mismatches":[]}\n'),
     ('scope,range,checked,passed,mismatches\r\n'
      '"square-frobenius conjecture, d=1","[2,2000]",86,True,[]\r\n'),
     ('scope       square-frobenius conjecture, d=1\n'
      'range       [2,2000]\n'
      'checked     86\n'
      'passed      True\n'
      'mismatches  []\n')),
    (('verify', '--target', 'conj2', '--max', '4000'), 0,
     ('{"scope":"square-frobenius conjecture, d=2","range":[3,4000],'
      '"checked":62,"passed":true,"mismatches":[]}\n'),
     ('scope,range,checked,passed,mismatches\r\n'
      '"square-frobenius conjecture, d=2","[3,4000]",62,True,[]\r\n'),
     ('scope       square-frobenius conjecture, d=2\n'
      'range       [3,4000]\n'
      'checked     62\n'
      'passed      True\n'
      'mismatches  []\n')),
    (('verify', '--target', 'theorem-ap', '--max', '600', '--d', '3', '--k', '1'), 0,
     ('{"scope":"square bound, d=3 k=1","range":[2,600],"checked":330,'
      '"passed":true,"mismatches":[],'
      '"extra":{"weak_hypothesis_checked":360,'
      '"weak_hypothesis_violations":[]}}\n'),
     ('scope,range,checked,passed,mismatches,extra\r\n'
      '"square bound, d=3 k=1","[2,600]",330,True,[],'
      '"{""weak_hypothesis_checked"":360,'
      '""weak_hypothesis_violations"":[]}"\r\n'),
     ('scope       square bound, d=3 k=1\n'
      'range       [2,600]\n'
      'checked     330\n'
      'passed      True\n'
      'mismatches  []\n'
      'extra       {"weak_hypothesis_checked":360,'
      '"weak_hypothesis_violations":[]}\n')),
    (('verify', '--target', 'min-power', '--max', '40'), 0,
     ('{"scope":"smallest square vs (a-d)^2, k=1..4","range":[2,40],'
      '"checked":788,"passed":true,"mismatches":[]}\n'),
     ('scope,range,checked,passed,mismatches\r\n'
      '"smallest square vs (a-d)^2, k=1..4","[2,40]",788,True,[]\r\n'),
     ('scope       smallest square vs (a-d)^2, k=1..4\n'
      'range       [2,40]\n'
      'checked     788\n'
      'passed      True\n'
      'mismatches  []\n')),
]

FORMATS = ("json", "csv", "text")


@pytest.mark.parametrize("argv,fmt,code,expected", [
    pytest.param(argv, fmt, code, out,
                 id="-".join(a.lstrip("-") for a in (*argv, fmt)))
    for argv, code, *outs in CLI_BYTES for fmt, out in zip(FORMATS, outs)])
def test_stdout_bytes_every_command_and_format(capsys, argv, fmt, code, expected):
    got_code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert (got_code, out) == (code, expected)


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


@pytest.mark.parametrize("extra", [
    ("frobenius",), ("member", "--value", "5"), ("power-frob", "--k", "2"),
    ("power-min", "--k", "2"),
])
def test_multiplicity_past_the_largest_list_is_out_of_memory(capsys, extra):
    # 2**63 is past sys.maxsize on 64-bit builds, so no list that long can
    # even be asked for; the answer is the out-of-memory exit, not a traceback
    gens = f"{2**63},{2**63 + 1}"
    code, out, err = run_cli(capsys, extra[0], "--gens", gens, *extra[1:])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "multiplicity" in lines[0]


def test_out_of_memory_in_lambda_profile_names_d(capsys, monkeypatch):
    def exhausted(a, d):
        raise MemoryError

    monkeypatch.setattr(arith, "lambda_profile", exhausted)
    code, out, err = run_cli(capsys, "bound", "--a", "3", "--d", "7", "--k", "1")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "lambda profile" in lines[0] and "unit of d" in lines[0]


def test_answers_past_the_int_string_digit_limit(capsys):
    # Python refuses int <-> str conversion past 4300 digits; the CLI lifts
    # that limit only while it prints, so input parsing keeps it
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = get_limit()

    def decimal(n):
        if before is None:
            return str(n)
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(before)

    a = 10 ** 3000 + 1
    bound = arith.bound_B(arith.ApSemigroup(a, 3, 1))
    assert len(decimal(bound)) > 4300
    for fmt in ("json", "csv", "text"):
        code, out, err = run_cli(capsys, "bound", "--a", str(a), "--d", "3", "--k", "1",
                                 "--format", fmt)
        assert (code, err) == (0, "") and decimal(bound) in out, fmt
        assert get_limit() == before
        code, out, err = run_cli(capsys, "power-min", "--gens", "5,7", "--k", "20000",
                                 "--format", fmt)
        assert (code, err) == (0, "") and decimal(2 ** 20000) in out, fmt
        assert get_limit() == before
    code, out, _ = run_cli(capsys, "power-min", "--gens", "5,7", "--k", "20000")
    assert out == f'{{"k":20000,"root":2,"value":{decimal(2 ** 20000)},"method":"oracle"}}\n'
    if before is not None:
        with pytest.raises(SystemExit) as exc:
            cli.main(["member", "--gens", "4,7", "--value", "7" * 5000])
        assert exc.value.code == 2
        assert get_limit() == before


def test_failing_sweep_exits_1(capsys, monkeypatch):
    from sqfrob.verify import SweepReport

    def failing(which, max_a, jobs=None):
        return SweepReport(scope="stub", span=(2, max_a), checked=1,
                           mismatches=[{"a": 2}])

    monkeypatch.setattr(verify, "verify_conjectures", failing)
    code, out, _ = run_cli(capsys, "verify", "--target", "conj1", "--max", "10")
    assert code == 1 and json.loads(out)["passed"] is False
    code, _, _ = run_cli(capsys, "verify", "--target", "conj2", "--max", "10")
    assert code == 1
    code, _, _ = run_cli(capsys, "verify", "--target", "min-power", "--max", "10")
    assert code == 0


@pytest.mark.parametrize("a, root", [
    (1940449, 1938038), (11309767, 11303944), (65918161, 65904100),
])
def test_d2_sqrt3_branch_with_even_floor_matches_the_oracle(capsys, a, root):
    # floor(c*sqrt(3)) is even at c = 1393 (a = c^2), 3363 (a = c^2 - 2) and
    # 8119; the CLI's oracle route would build an Apery table of a entries
    _, out, _ = run_cli(capsys, "power-frob", "--gens", f"{a},{a + 2}", "--k", "2",
                        "--method", "closed")
    assert json.loads(out)["root"] == root
    assert power.power_frobenius_oracle(arith.ApSemigroup(a, 2, 1), 2).root == root


@pytest.mark.parametrize("argv, needles", [
    (["frobenius", "--gens", "7" * 5000 + ",3"], ["5000 digits", "limit"]),
    (["member", "--gens", "4,7", "--value", "7" * 5000], ["5000 digits", "limit"]),
    (["bound", "--a", "7" * 5000, "--d", "3", "--k", "1"], ["5000 digits", "limit"]),
    (["frobenius", "--gens", "4,x"], ["expected an integer", "'x'"]),
    (["frobenius", "--gens", ","], ["no generators given"]),
    (["member", "--gens", "4,7", "--value", "x" * 5000], ["expected an integer"]),
    (["exceptions", "--d", "5", "--jobs", "two"], ["expected an integer", "'two'"]),
])
def test_integer_inputs_exit_2_with_one_short_message(capsys, argv, needles):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if "limit" in needles and not limit:
        pytest.skip("this Python has no int string conversion limit")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith("sqfrob ") and "error:" in last
    for needle in needles:
        assert needle in last, (needle, last)
    if "limit" in needles:
        assert f"{limit} digits" in last
    assert max(len(line) for line in captured.err.splitlines()) <= 200


def test_closed_form_covers_every_table1_d(capsys):
    # d = 6 has a table1.tsv row, so it answers; d = 13 is the first without
    code, out, _ = run_cli(capsys, "power-frob", "--gens", "7,13", "--k", "2",
                           "--method", "closed")
    assert code == 0 and json.loads(out) == {"k": 2, "root": 8, "value": 64,
                                             "method": "closed_form"}
    _, oracle, _ = run_cli(capsys, "power-frob", "--gens", "7,13", "--k", "2")
    assert json.loads(oracle)["value"] == 64
    with pytest.raises(core.SemigroupError, match="d = 13"):
        closedform.square_frobenius_closed(7, 13)


@pytest.mark.parametrize("k", ["0", "-1"])
def test_theorem_ap_rejects_a_progression_length_below_1(capsys, k):
    code, out, err = run_cli(capsys, "verify", "--target", "theorem-ap", "--max", "600",
                             "--d", "3", "--k", k)
    assert code == 2 and out == ""
    assert err == f"error: progression length parameter must be >= 1, got {k}\n"
