"""The benchmark's layer ledger (``perfbench/ledger.py``) must fit the code.

The traced benchmark wraps functions by ``"module:attr"`` name; a rename
or move in the package breaks it without breaking anything else.  These
tests resolve every wrapped target, check that the wrappers come off
again, and cross the one layer that only a warm serving run reaches.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from repro.compiler import CompilerSession

LEDGER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "ledger.py"

SRC = """
kernel ledger_axpy(const double x[1:n], double y[1:n], int n) {
  #pragma acc kernels loop gang vector(64)
  for (i = 1; i < n; i++) {
    y[i] = x[i] + y[i];
  }
}
"""


@pytest.fixture(scope="module")
def ledger_module():
    name = "perfbench_ledger"
    spec = importlib.util.spec_from_file_location(name, LEDGER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_every_target_resolves_and_is_restored(ledger_module):
    ledger = ledger_module.Ledger()
    with ledger:
        patches = list(ledger._patches)
        assert patches
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original, attr
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, attr


def test_a_session_run_records_the_codegen_tier(ledger_module):
    x = np.arange(8, dtype=np.float64)
    y = np.ones(8, dtype=np.float64)
    with ledger_module.Ledger() as ledger:
        CompilerSession().run(SRC, {"x": x, "y": y, "n": 8})
    assert y[1] == 2.0
    assert ledger.samples.get("exec.codegen")
    assert "exec.ladder" not in ledger.samples
