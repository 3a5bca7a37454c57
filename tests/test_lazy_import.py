"""Each CLI command imports only the modules it runs.

Every check starts a fresh `python -S` interpreter, so that no module this
test session has already imported, and nothing `site` loads, can hide an
eager import.
"""

import os
import subprocess
import sys

import pytest

import sqfrob

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sqfrob.__file__)))

# dir(sqfrob) without its dunders, as it was when __init__ imported every
# submodule eagerly, less the aliases below; each name must still resolve
PUBLIC = [
    "ApSemigroup", "AperyTable", "BadResidue", "ClosedFormAnswer", "DTooSmall",
    "EmptyGenerators", "EvenInput", "ExceptionRecord", "ExceptionReport",
    "FullSemigroup", "LambdaProfile", "MuJ", "NegativeInput", "NonCoprime",
    "NotAGenerator", "NumericalSemigroup", "PowerFrobResult", "SemigroupError",
    "SweepReport", "ZeroGenerator", "ap_contains", "ap_frobenius", "apery_set",
    "arith", "bound_B", "bound_edge", "closedform", "compare_table1", "contains",
    "core", "decompose", "exception_set", "frobenius", "gaps", "genus",
    "kth_root_floor", "lambda_profile", "load_table1", "load_table2", "mu_j",
    "power", "power_frobenius_oracle", "power_min_oracle", "reproduce_table2",
    "sq_frob_d1", "sq_frob_d2", "square_frobenius_closed", "square_in_ap", "u",
    "u_index_set_member", "verify", "verify_bound_equality", "verify_conjectures",
    "verify_min_power_theorem", "verify_theorem_bound",
]
# one-line aliases removed from the API at 0.1.0: NumericalSemigroup(g),
# square_frobenius_closed(a, d) and math.isqrt take their place
REMOVED = ["floor_sqrt2", "floor_sqrt3", "isqrt", "make_semigroup",
           "sq_frob_d3", "sq_frob_d4", "sq_frob_d5"]
SUBMODULES = ["arith", "closedform", "core", "power", "verify"]


def fresh(code, *argv):
    """Run code in a fresh `python -S`; returns the words of its last stdout line."""
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


# the exit code, then every module loaded once the command has answered
RUN_CLI = ("import sys\n"
           "from sqfrob import cli\n"
           "rc = cli.main(sys.argv[1:])\n"
           "print(rc, *sorted(sys.modules))\n")


@pytest.mark.parametrize("argv, absent", [
    (["frobenius", "--gens", "3,5"],
     ["multiprocessing", "dataclasses", "csv", "sqfrob.verify", "sqfrob.closedform",
      "sqfrob.power"]),
    (["member", "--gens", "4,7", "--value", "11"],
     ["multiprocessing", "dataclasses", "sqfrob.verify", "sqfrob.power"]),
    (["bound", "--a", "13", "--d", "5", "--k", "1"],
     ["multiprocessing", "sqfrob.verify", "sqfrob.closedform", "sqfrob.power"]),
    (["power-frob", "--gens", "10,13", "--k", "2", "--method", "closed"],
     ["multiprocessing", "importlib.resources", "sqfrob.verify"]),
    (["tables", "--which", "2"], ["multiprocessing", "importlib.resources"]),
    # one chunk of work runs in-process at any --jobs, so no pool is started
    (["exceptions", "--d", "3"], ["multiprocessing"]),
    (["exceptions", "--d", "3", "--jobs", "2"], ["multiprocessing"]),
    # the result types of arith, power and closedform are named tuples
    (["bound", "--a", "13", "--d", "5", "--k", "1"], ["dataclasses", "inspect"]),
    (["power-frob", "--gens", "7,10", "--k", "2"], ["dataclasses", "inspect"]),
])
def test_command_loads_only_what_it_runs(argv, absent):
    rc, *loaded = fresh(RUN_CLI, *argv)
    assert rc == "0"
    assert "sqfrob.cli" in loaded
    assert [m for m in absent if m in loaded] == []


def test_import_sqfrob_loads_no_submodule():
    loaded = fresh("import sys, sqfrob\nprint(*sorted(sys.modules))")
    assert [m for m in loaded if m.startswith("sqfrob.")] == []


def test_every_public_name_and_submodule_resolves_in_a_fresh_process():
    code = ("import sys, sqfrob\n"
            "for name in sys.argv[1:]:\n"
            "    getattr(sqfrob, name)\n"
            "try:\n"
            "    sqfrob.no_such_name\n"
            "except AttributeError:\n"
            "    print('ok')\n")
    assert fresh(code, *PUBLIC) == ["ok"]
    # each submodule alone, first thing after `import sqfrob`
    for name in SUBMODULES:
        assert fresh(f"import sqfrob\nprint(sqfrob.{name}.__name__)") == [f"sqfrob.{name}"]


def test_public_names_are_the_home_modules_objects():
    assert sorted(sqfrob.__all__) == PUBLIC
    assert [n for n in PUBLIC if n not in dir(sqfrob)] == []
    for name in PUBLIC:
        value = getattr(sqfrob, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"sqfrob.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError, match="no_such_name"):
        sqfrob.no_such_name
    star = {}
    exec("from sqfrob import *", star)
    assert sorted(k for k in star if k != "__builtins__") == PUBLIC


@pytest.mark.parametrize("name", REMOVED)
def test_removed_alias_raises_attribute_error(name):
    assert name not in sqfrob.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(sqfrob, name)
