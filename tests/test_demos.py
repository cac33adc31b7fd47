"""Each script in demos/ runs to the end through its main()."""
import importlib.util
from pathlib import Path

import pytest

import logcoral

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()


@pytest.mark.parametrize("name", [
    "spd_geometry",
    "losses_and_gradients",
    pytest.param("train_adaptation", marks=pytest.mark.slow),
])
def test_demo_runs(name, capsys, monkeypatch, memo_train):
    # train_adaptation's two runs are default-dataset runs the acceptance criteria
    # train too; they come from the session's memo, and any other call trains
    monkeypatch.setattr(logcoral, "train", memo_train)
    run_demo(name)
    assert capsys.readouterr().out
