"""The command list of ``tools/cli_diff.py``, checked without running it."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_diff.py"


def _cli_diff():
    spec = importlib.util.spec_from_file_location("cli_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_diff_commands_have_unique_names_and_outputs_and_their_inputs(tmp_path):
    listed = _cli_diff().commands(tmp_path)
    names = [name for name, _ in listed]
    assert len(set(names)) == len(names)
    # (flag, value) of every flag in every command.
    flags = [(flag, value) for _, argv in listed for flag, value in zip(argv, argv[1:])]
    outs = [value for flag, value in flags if flag == "--out"]
    assert outs and len(set(outs)) == len(outs)
    inputs = [value for flag, value in flags if flag in ("--state-file", "--observables-file")]
    assert inputs
    assert [path for path in inputs if not (tmp_path / path).is_file()] == []
