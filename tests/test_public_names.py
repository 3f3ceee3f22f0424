"""The packages' public names load lazily: ``import tunectl`` and
``import tunectl.controller`` import no module of their own, and each name
in their ``__all__`` imports its defining module when it is first read."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = ("tunectl", "tunectl.controller")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_is_the_object_of_its_defining_module(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    assert sorted(module.__all__) == module.__all__ and len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        value = namespace[name]
        assert value is getattr(module, name), name
        assert getattr(sys.modules[value.__module__], name) is value, name


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_public_name(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_raises_attribute_error_naming_the_module_and_the_name(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'no_such_name'"):
        module.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec(f"from {package} import no_such_name", {})


def test_a_package_submodule_still_imports_by_name():
    namespace: dict = {}
    exec("from tunectl.controller import reconcile\nfrom tunectl import pcg", namespace)
    assert namespace["reconcile"] is sys.modules["tunectl.controller.reconcile"]
    assert namespace["pcg"] is sys.modules["tunectl.pcg"]


@pytest.mark.parametrize("package", PACKAGES)
def test_importing_a_package_loads_no_module_of_its_own(package):
    code = f"import sys, {package}\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'tunectl'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-3000:]
    assert out.stdout.split() == ["tunectl", *([package] if package != "tunectl" else [])]
