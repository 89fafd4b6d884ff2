"""``perfbench/run.py`` reads the tracer's per-layer counts by name.  Each
name it lists must exist in the package, or a traced run raises KeyError."""

import ast
import inspect
from pathlib import Path

from qgammakit import cm_engine, specfun

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _names(var):
    """The tuple of names that ``run.py`` assigns to ``var``."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [var]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN.name} assigns no {var}")


def test_specfun_names_are_public_evaluators():
    assert set(_names("SPECFUN")) <= set(specfun.__all__)


def test_check_names_are_public_checks():
    assert set(_names("CHECKS")) <= set(cm_engine.__all__)


def test_target_names_are_classes_with_a_deriv_of_their_own():
    # the tracer wraps only a ``deriv`` in the class's own dict
    for name in _names("TARGETS"):
        cls = getattr(cm_engine, name, None)
        assert inspect.isclass(cls) and "deriv" in vars(cls), name
