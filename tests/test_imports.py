"""What importing geoseg does to the process, each case in a fresh
interpreter with OPENBLAS_NUM_THREADS removed from its environment: the
CLI runs on one BLAS thread unless the caller set a value, and a plain
`import geoseg` imports no numpy and changes no setting."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import geoseg

SRC = str(Path(geoseg.__file__).resolve().parent.parent)


def run_fresh(code: str, **env_vars) -> dict:
    """The JSON that `code` prints, run by a fresh interpreter that imports
    geoseg from this checkout, with OPENBLAS_NUM_THREADS unset unless given."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    env.update(env_vars)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return json.loads(done.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_starts_no_thread():
    tasks = run_fresh("import json, os, geoseg.cli; "
                      "print(json.dumps(len(os.listdir('/proc/self/task'))))")
    assert tasks == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_test_process_runs_one_thread():
    # conftest.py sets one OpenBLAS thread before numpy loads, so the
    # null model may fork in this process
    import numpy  # noqa: F401

    assert len(os.listdir("/proc/self/task")) == 1


def test_library_import_touches_nothing():
    seen = run_fresh("import json, os, sys, geoseg; print(json.dumps(["
                     "'numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS')]))")
    assert seen == [False, None]


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_cli_keeps_a_given_value(given, expected):
    env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    seen = run_fresh("import json, os, geoseg.cli; "
                     "print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))", **env)
    assert seen == expected


def test_every_public_name_and_submodule_imports():
    submodules = [m.name for m in pkgutil.iter_modules(geoseg.__path__)]
    names = [*geoseg.__all__, *submodules]
    missing = run_fresh(f"import json\nnames = {names!r}\n"
                        "for name in names: exec(f'from geoseg import {name}')\n"
                        "print(json.dumps(sorted(set(names) - set(globals()))))")
    assert missing == []
    assert set(geoseg.__all__) <= set(dir(geoseg))
    for name in geoseg.__all__:
        value = getattr(geoseg, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    with pytest.raises(AttributeError):
        geoseg.no_such_name
