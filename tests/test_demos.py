"""Smoke test: every narrative script under demos/ runs to completion."""

import os
import runpy
from pathlib import Path
from types import ModuleType

import pytest

import fermichain

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("demo_*.py"))


def test_package_namespace_is_its_modules():
    public = {name for name in vars(fermichain) if not name.startswith("_")}
    assert {"analytic", "exact", "numerics", "profiles", "wkb"} <= public
    assert all(isinstance(getattr(fermichain, name), ModuleType) for name in public)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch):
    # Run in a scratch directory; a demo that starts the CLI in a
    # subprocess finds this package through an absolute PYTHONPATH.
    package_root = str(Path(fermichain.__file__).parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
