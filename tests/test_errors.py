"""The failure vocabulary: one exception class per exit code, and every
deliberate raise in the package names one of them."""
import ast
from pathlib import Path

import pytest

from otkd import cli, errors
from otkd.errors import DegenerateGeometry, InvalidInput, OtkdError, TrainingDiverged

SRC = Path(__file__).resolve().parent.parent / "src" / "otkd"
ERROR_CLASSES = {name for name, obj in vars(errors).items()
                 if isinstance(obj, type) and issubclass(obj, OtkdError)}


def test_four_classes():
    assert ERROR_CLASSES == {"OtkdError", "InvalidInput", "DegenerateGeometry",
                             "TrainingDiverged"}


def test_every_raise_names_a_toolkit_error():
    """`raise Name(...)` anywhere in the package names an `otkd.errors`
    class; argparse's usage exit in `cli._Parser.error` is the one
    exception.  A bare `raise` re-raises and is not checked."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
            if name not in ERROR_CLASSES:
                stray.append(f"{path.name}:{node.lineno} raises {name}")
    assert stray == []


@pytest.mark.parametrize("cls,code", [(OtkdError, 1), (InvalidInput, 1),
                                      (DegenerateGeometry, 2), (TrainingDiverged, 3)])
def test_main_returns_the_class_exit_code(cls, code, monkeypatch, capsys):
    def fail(_):
        raise cls("injected failure")

    monkeypatch.setattr(cli, "cmd_pnp", fail)
    assert cls.exit_code == code
    assert cli.main(["pnp", "corr.csv", "cam.csv"]) == code
    assert capsys.readouterr().err == "error: injected failure\n"
