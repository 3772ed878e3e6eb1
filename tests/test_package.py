"""The package namespace: every public name resolves to the object in
its home module, also the ones that load on first use."""

import subprocess
import sys

import pytest

from test_cli import src_env

RESOLVE_ALL = """
import sys
import crystor
lazy = [m for m in ("crystor.kummer", "crystor.pushout") if m in sys.modules]
wrong = []
for name in crystor.__all__:
    obj = getattr(crystor, name)
    home = sys.modules[obj.__module__]
    if not home.__name__.startswith("crystor.") or getattr(home, name) is not obj:
        wrong.append(name)
cached = all(name in vars(crystor) for name in crystor.__all__)
print(lazy, wrong, cached)
"""

SUBMODULES = """
import crystor
print(crystor.pushout.__name__, crystor.kummer.__name__, crystor.verify.__name__,
      crystor.pushout.star_pullback is crystor.star_pullback)
"""

STAR = """
import crystor
namespace = {}
exec("from crystor import *", namespace)
print(sorted(set(crystor.__all__) - namespace.keys()),
      all(namespace[name] is getattr(crystor, name) for name in crystor.__all__))
"""


def run_fresh(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_public_name_is_its_home_modules_object():
    # the extension-class and pushout layers load on the first lookup,
    # and each name found is kept in the package namespace
    assert run_fresh(RESOLVE_ALL) == "[] [] True\n"


def test_lazy_submodules_resolve_after_a_bare_import():
    assert run_fresh(SUBMODULES) == "crystor.pushout crystor.kummer crystor.verify True\n"


def test_star_import_binds_every_public_name():
    assert run_fresh(STAR) == "[] True\n"


def test_unknown_name_raises_attribute_error():
    import crystor

    with pytest.raises(AttributeError, match="'crystor' has no attribute 'no_such_name'"):
        crystor.no_such_name
    # the benchmark tracer probes every crystor module this way
    assert getattr(crystor, "parse_input", None) is None


def test_doctests_cover_the_verify_suite():
    from test_doctests import MODULES

    assert "crystor.verify" in MODULES
