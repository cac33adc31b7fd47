"""Each script in demos/ runs to the end through its main()."""
import importlib.util
from pathlib import Path

import pytest

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
def test_demo_runs(name, capsys):
    run_demo(name)
    assert capsys.readouterr().out
