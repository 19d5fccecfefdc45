"""Checks on the library's source text, read with ``ast`` and not imported:
the runtime imports only the standard library and its own modules; no
module imports a name it does not use; every function and class has a
caller or an export; the x^m fold is defined once, in ``padic``, and only
named functions, the kept m = 2 closed forms among them, read a context's
modulus; the coefficient Frobenius sigma is formed and applied only in
``padic``; only ``padic.power`` walks the bits of an exponent; ``src/``
stays within its line budget, counted as ``perfbench/run.py`` counts
``src_lines``.  One check does import: the CLI, in a fresh interpreter, to
see which modules its start-up loads."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted((SRC / "dworklab").rglob("*.py"))
SRC_LINE_BUDGET = 4_200
# Defined but never referenced in src/: the benchmark's per_layer metrics
# resolve hasse_witt.hw_inverse_at and dense.dense_div_linear by name
# (ROADMAP item 8).
UNCALLED_ALLOWED = {"hw_inverse_at", "dense_div_linear"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_runtime_imports_only_the_standard_library(path):
    outside = []
    for node in _imports(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level:
            continue  # relative: a module of the package
        names = ([node.module] if isinstance(node, ast.ImportFrom)
                 else [alias.name for alias in node.names])
        outside += [name for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"],  # re-exports
    ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in _imports(tree)
                if getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _references(node):
    """How often each name is read, or taken as an attribute, in node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_function_and_class_has_a_caller_or_an_export():
    """A function, method or class defined under src/dworklab is referenced
    somewhere in src/ outside its own body, or exported by __init__.py.
    Dunder methods are called by the language and are exempt."""
    trees = [_tree(path) for path in MODULES]
    everywhere = sum((_references(tree) for tree in trees), Counter())
    exported = {alias.asname or alias.name
                for node in _imports(_tree(SRC / "dworklab" / "__init__.py"))
                for alias in node.names}
    uncalled = {node.name for tree in trees for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("__")
                and node.name not in exported
                and everywhere[node.name] == _references(node)[node.name]}
    assert uncalled == UNCALLED_ALLOWED


# Every function under src/dworklab that reads a context's modulus.  A fold
# of x^m needs the modulus, so a new hand-written fold must be named here.
MODULUS_READERS = {
    "padic.py": {
        "fold_steps",  # the x^m fold, made once per context as ctx.fold
        # fold nothing: identity, serialization and the residue field
        "__eq__", "__hash__", "to_json", "inv", "_is_irreducible_mod_p",
    },
    # The m = 2 closed forms, each faster than a fold by ctx.fold by the
    # number in the comment above it (ROADMAP item 16).
    "dense.py": {"_school_mul_ext", "_linear_product"},
    "limits.py": {"_times_root"},
}


def test_the_fold_is_stated_once():
    """padic.fold_steps is the one definition of the x^m fold, and only the
    functions named in MODULUS_READERS read the modulus, so no other
    function can state a fold of its own."""
    folds, readers = set(), {}
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.lstrip("_") == "fold_steps":
                folds.add(path.name)
            if any(isinstance(n, ast.Attribute) and n.attr == "modulus"
                   and isinstance(n.ctx, ast.Load) for n in ast.walk(node)):
                readers.setdefault(path.name, set()).add(node.name)
    assert folds == {"padic.py"}
    assert readers == MODULUS_READERS


SIGMA_STATE = {"_sigma", "_frobenius_x"}


def test_sigma_is_stated_once():
    """PadicCtx.sigma is the one coefficient Frobenius: ``padic`` alone
    defines a ``sigma`` or ``_frobenius_x`` and touches the rows of sigma^j
    or sigma(x) (``SIGMA_STATE``), so every other module applies sigma
    through ``ctx.sigma`` and forms no Frobenius of its own."""
    defined, holders = set(), {}
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name in {"sigma", "_frobenius_x"}:
                defined.add((path.name, node.name))
            if any(isinstance(n, ast.Attribute) and n.attr in SIGMA_STATE
                   for n in ast.walk(node)):
                holders.setdefault(path.name, set()).add(node.name)
    assert defined == {("padic.py", "sigma"), ("padic.py", "_frobenius_x")}
    assert holders == {"padic.py": {"__init__", "sigma"}}


def _walks_bits(node):
    """Whether node calls bin() or shifts a name right in place (>>=)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "bin"
            or isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.RShift))


def test_the_power_chain_is_stated_once():
    """padic.power is the one walk over the bits of an exponent: no other
    function calls bin() or shifts a name right in place, so every power
    chain (PadicCtx.pow, dense_pow, LaurentPoly.__pow__, domain
    membership's L^(e - 1)) goes left to right through it."""
    walkers = {(path.name, node.name) for path in MODULES
               for node in ast.walk(_tree(path))
               if isinstance(node, ast.FunctionDef)
               and any(map(_walks_bits, ast.walk(node)))}
    assert walkers == {("padic.py", "power")}


def test_src_lines_stay_within_the_budget():
    lines = sum(len(f.read_text().splitlines())
                for f in sorted(SRC.rglob("*.py")))
    assert lines <= SRC_LINE_BUDGET


def test_importing_the_cli_loads_no_slow_stdlib_module():
    """Every CLI run starts a process, so start-up is paid per verdict:
    ``dataclasses`` (which pulls in ``inspect``, ``ast`` and ``dis``) and
    ``fractions`` once took about half of it.  ``decimal`` is imported by
    the first product past ``dense.NTT_CUTOFF``, and the records are
    ``collections.namedtuple``s, so ``typing`` is not loaded either; where
    the interpreter's ``site`` hook already imports ``typing``, that half
    guards only clean interpreters.  A module-set check, not a timing."""
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
             "before = set(sys.modules); import dworklab.cli; "
             "print(*set(sys.modules) - before)")
    loaded = subprocess.run([sys.executable, "-I", "-c", probe],
                            capture_output=True, text=True,
                            check=True).stdout.split()
    assert "dworklab.cli" in loaded
    assert {"dataclasses", "inspect", "fractions", "decimal",
            "typing"}.isdisjoint(loaded)
