"""Square and k-power Frobenius numbers of numerical semigroups.

Public names and submodules are imported on first use (PEP 562), so a
command loads only the modules it runs: `import sqfrob` alone imports no
submodule, and `sqfrob.frobenius` imports `sqfrob.core` only.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(
        ("ApSemigroup", "DTooSmall", "LambdaProfile", "MuJ", "ap_contains",
         "ap_frobenius", "bound_B", "bound_edge", "decompose", "lambda_profile",
         "mu_j", "square_in_ap"),
        "arith"),
    **dict.fromkeys(
        ("BadResidue", "ClosedFormAnswer", "EvenInput", "sq_frob_d1", "sq_frob_d2",
         "load_table1", "load_table2", "square_frobenius_closed", "u",
         "u_index_set_member"),
        "closedform"),
    **dict.fromkeys(
        ("AperyTable", "EmptyGenerators", "FullSemigroup", "NegativeInput",
         "NonCoprime", "NotAGenerator", "NumericalSemigroup", "SemigroupError",
         "ZeroGenerator", "apery_set", "contains", "frobenius", "gaps", "genus"),
        "core"),
    **dict.fromkeys(
        ("PowerFrobResult", "kth_root_floor", "power_frobenius_oracle",
         "power_min_oracle"),
        "power"),
    **dict.fromkeys(
        ("ExceptionRecord", "ExceptionReport", "SweepReport", "compare_table1",
         "exception_set", "reproduce_table2", "verify_bound_equality",
         "verify_conjectures", "verify_min_power_theorem", "verify_theorem_bound"),
        "verify"),
}
_SUBMODULES = ("arith", "closedform", "core", "power", "verify")

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
