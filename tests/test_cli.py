"""The process entry point ``uncrel.cli.run`` against ``main``, what a
process imports at start-up, and the error lines of refused input files.

The subprocess tests drop ``PYTHONUNBUFFERED`` from the child's
environment, so stdout is block-buffered as in an ordinary shell and a
failed write surfaces at a flush, not inside ``write``.  The tests of a
full stdout also run with it set, where the write itself fails.
"""
import functools
import gc
import json
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

import uncrel
from uncrel import cli, render

SRC = Path(uncrel.__file__).resolve().parents[1]
STDOUT_ERROR = "uncrel: error: cannot write output to stdout: "


def run_cli(args, *, entry=("-m", "uncrel.cli"), unbuffered=False, **kwargs):
    """Run the CLI in a child interpreter, with buffered stdout unless ``unbuffered``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *entry, *args], env=env, stderr=subprocess.PIPE,
                          **kwargs)


def in_process_text(monkeypatch, args):
    """The text ``emit`` returns when ``main(args)`` runs in this process."""
    emit, texts = cli.emit, []

    def recording_emit(*emit_args, **emit_kwargs):
        texts.append(emit(*emit_args, **emit_kwargs))
        return texts[-1]

    monkeypatch.setattr(cli, "emit", recording_emit)
    cli.main(args)
    [text] = texts
    return text


def first_difference(text, expected):
    """None, or the first line where the texts differ, numbered, from each
    (pytest's own diff of two long texts takes minutes)."""
    pairs = zip_longest(text.split("\n"), expected.split("\n"))
    return next(((k, got, want) for k, (got, want) in enumerate(pairs) if got != want), None)


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"amplitudes": [[0.6, 0.0], [0.0, 0.8]]}))
    return path


COMMANDS = {
    "sweep": ["sweep", "--mode", "theta", "--steps", "3"],
    "verify": ["verify", "--trials", "5"],
    "bounds": ["bounds", "--state-file", "{state}"],
    # argparse answers these itself, raising SystemExit inside main.
    "--version": ["--version"],
    "--help": ["--help"],
    "sweep --help": ["sweep", "--help"],
}


def full_stdout_run(command, state_file, unbuffered):
    """Exit code and stderr lines of a command whose stdout is a full device."""
    args = [arg.format(state=state_file) for arg in COMMANDS[command]]
    with open("/dev/full", "w") as full:
        done = run_cli(args, stdout=full, unbuffered=unbuffered)
    return done.returncode, done.stderr.decode().splitlines()


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


@needs_dev_full
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_failed_stdout_write_exits_3_with_one_line(command, state_file):
    code, lines = full_stdout_run(command, state_file, unbuffered=False)
    assert code == 3, lines
    assert len(lines) == 1 and lines[0].startswith(STDOUT_ERROR), lines


@needs_dev_full
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_failed_unbuffered_stdout_write_exits_3_with_one_line(command, state_file):
    """argparse drops a failed write of --help or --version; the CLI reports it."""
    code, lines = full_stdout_run(command, state_file, unbuffered=True)
    assert code == 3, lines
    assert len(lines) == 1 and lines[0].startswith(STDOUT_ERROR), lines


@pytest.mark.parametrize("deep", ["state", "observables"])
def test_json_nested_beyond_the_recursion_limit_exits_1_with_one_line(deep, tmp_path, state_file):
    """A state 100,000 lists deep and an observables list 5,000 deep, as
    the JSON decoder cannot read them, are refused without a traceback."""
    path = tmp_path / f"{deep}.json"
    if deep == "state":
        path.write_text('{"amplitudes": ' + "[" * 100_000 + "]" * 100_000 + "}")
        args = ["bounds", "--state-file", str(path)]
    else:
        path.write_text("[" * 5_000 + "]" * 5_000)
        args = ["bounds", "--state-file", str(state_file), "--observables-file", str(path)]
    done = run_cli(args)
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.decode().splitlines() == [f"uncrel: error: {path} nests JSON too deeply to read"]


@pytest.mark.parametrize("case", ["deep-stokes", "wide-leaf", "long-angle"])
def test_echoed_input_is_clipped_to_one_short_line(case, tmp_path):
    """A stokes entry 900 lists deep, a leaf object of 10,000 keys and an
    angle string of 10,000 characters are echoed by their first 60
    characters."""
    if case == "deep-stokes":
        text = '{"stokes": [' + "[" * 900 + "]" * 900 + ", 0, 0, 0]}"
        reason = "expected a finite number, got " + "[" * 60 + "..."
    elif case == "wide-leaf":
        leaf = {f"k{i}": 0 for i in range(10_000)}
        text = json.dumps({"amplitudes": [[leaf, 0.0], [0.0, 0.0]]})
        reason = "amplitudes must be nested lists of numbers, got " + json.dumps(leaf)[:60] + "..."
    else:
        text = json.dumps({"bloch": {"theta": "x" * 10_000}})
        reason = "cannot parse angle '" + "x" * 59 + "..."
    path = tmp_path / "state.json"
    path.write_text(text)
    done = run_cli(["bounds", "--state-file", str(path)])
    assert (done.returncode, done.stdout) == (1, b"")
    lines = done.stderr.decode().splitlines()
    assert lines == [f"uncrel: error: {reason}"] and len(lines[0]) < 200


def test_stokes_vector_the_density_check_would_refuse_is_refused_as_stokes(tmp_path, capsys):
    """|r|^2 = 1 + 6e-10 gives an eigenvalue of -1.5e-10, below -PSD_ATOL:
    the Stokes check refuses it before the density matrix is built."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"stokes": [1, 1.0000000003, 0, 0]}))
    assert cli.main(["bounds", "--state-file", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "uncrel: error: polarized intensity 1.0000000006 exceeds s0^2 = 1.0"]


def test_stokes_vector_within_the_density_check_is_accepted(tmp_path, capsys):
    """|r|^2 = 1 + 2e-10 gives an eigenvalue of -5e-11, which both checks
    accept; the state is stored on the Bloch-ball edge, so no moment check
    refuses it either, on the default Pauli triple or on sigma_y and sigma_z."""
    state, observables = tmp_path / "state.json", tmp_path / "observables.json"
    state.write_text(json.dumps({"stokes": [1, 1.0000000001, 0, 0]}))
    observables.write_text(json.dumps([[[[0, 0], [0, -1]], [[0, 1], [0, 0]]],
                                       [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]]))
    args = ["bounds", "--state-file", str(state)]
    for extra in ([], ["--observables-file", str(observables)]):
        assert cli.main(args + extra) == 0
        assert capsys.readouterr().err == ""


def bounds_values(tmp_path, capsys, payload):
    """Exit code and the ``(label, lhs, rhs)`` rows of ``bounds`` on a state
    file holding ``payload``, with the default observables."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["bounds", "--state-file", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, [(r["label"], r["lhs"], r["rhs"]) for r in json.loads(captured.out)["reports"]]


@pytest.mark.parametrize("payload", [
    {"stokes": [1, 1.0000000001, 0, 0]},
    # The same state as a density matrix: eigenvalues -5e-11 and 1 + 5e-11.
    {"density": [[[0.5, 0], [0.50000000005, 0]], [[0.50000000005, 0], [0.5, 0]]]},
])
def test_state_a_round_off_past_the_edge_is_the_state_on_it(payload, tmp_path, capsys):
    code, got = bounds_values(tmp_path, capsys, payload)
    _, edge = bounds_values(tmp_path, capsys, {"stokes": [1, 1, 0, 0]})
    assert code == 0 and len(got) == len(edge) == 7
    for (label, lhs, rhs), (edge_label, edge_lhs, edge_rhs) in zip(got, edge):
        assert label == edge_label
        assert abs(lhs - edge_lhs) <= 1e-9 and abs(rhs - edge_rhs) <= 1e-9


def library_message(call):
    with pytest.raises(ValueError) as refused:
        call()
    return str(refused.value)


MOVED_REFUSALS = {
    "relations-pairwise": (["sweep", "--mode", "theta", "--relations", "R"],
                           lambda: uncrel.SweepSpec("theta", 0.0, 13, (uncrel.Relation.ROBERTSON,))),
    "relations-empty": (["sweep", "--mode", "theta", "--relations", ","],
                        lambda: uncrel.SweepSpec("theta", 0.0, 13, ())),
    "relations-repeated": (["sweep", "--mode", "theta", "--relations", "T1,T1"],
                           lambda: uncrel.SweepSpec("theta", 0.0, 13, (uncrel.Relation.TRIPLE_SUM,) * 2)),
    "fixed-phi": (["sweep", "--mode", "theta", "--fixed", "7"], lambda: uncrel.BlochAngles(0.0, 7.0)),
    "fixed-theta": (["sweep", "--mode", "phi", "--fixed", "4"], lambda: uncrel.BlochAngles(4.0)),
    "steps": (["sweep", "--mode", "theta", "--steps", "0"], lambda: uncrel.SweepSpec("theta", 0.0, 0)),
    "shots": (["sweep", "--mode", "theta", "--shots", "0"], lambda: uncrel.ShotPlan(0)),
    "trials": (["verify", "--trials", "0"], lambda: uncrel.run_verify(0)),
    "verify-seed": (["verify", "--seed", "-1"], lambda: uncrel.run_verify(3, seed=-1)),
    # An exact sweep draws no replicate, and still refuses the count a shot sweep would.
    "resamples": (["sweep", "--mode", "theta", "--resamples", "50"],
                  lambda: uncrel.run_sweep(uncrel.SweepSpec("theta", 0.0, 13), resamples=50)),
}


@pytest.mark.parametrize("case", sorted(MOVED_REFUSALS))
def test_refusal_the_library_judges_exits_1_with_its_message(case, capsys):
    args, call = MOVED_REFUSALS[case]
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"uncrel: error: {library_message(call)}"]


INTEGER_FLAGS = [
    ("sweep", "--steps"), ("sweep", "--shots"), ("sweep", "--seed"), ("sweep", "--resamples"),
    ("verify", "--trials"), ("verify", "--seed"), ("verify", "--dim"), ("verify", "--n-observables"),
]


@pytest.mark.parametrize("command, flag", INTEGER_FLAGS)
def test_non_integer_value_of_an_integer_flag_names_no_private_function(command, flag, capsys):
    args = [command, *(["--mode", "theta"] if command == "sweep" else []), flag, "abc"]
    with pytest.raises(SystemExit) as done:
        cli.main(args)
    assert done.value.code == 1
    expected = "comma-separated integers" if flag in ("--dim", "--n-observables") else "an integer"
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: uncrel {command}")
    assert lines[-1] == f"uncrel {command}: error: argument {flag}: expected {expected}, got 'abc'"


@pytest.mark.parametrize("flag, value, reason", [
    ("--seed", "-1", "must be non-negative, got -1"),
])
def test_sweep_flags_an_exact_sweep_ignores_are_judged_by_the_parser(flag, value, reason, capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["sweep", "--mode", "theta", flag, value])
    assert done.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"uncrel sweep: error: argument {flag}: {reason}"


def test_import_runs_no_dataclass_code_generation():
    """Start-up loads no ``dataclasses``: no class of uncrel is built by it."""
    child = (
        "import sys, uncrel.cli\n"
        "loaded = 'dataclasses' in sys.modules\n"
        "modules = [m for name, m in sys.modules.items() if name.split('.')[0] == 'uncrel']\n"
        "built = sorted(f'{m.__name__}.{name}' for m in modules for name, v in vars(m).items()\n"
        "               if isinstance(v, type) and hasattr(v, '__dataclass_fields__'))\n"
        "print(loaded, built)\n"
    )
    done = run_cli([], entry=("-c", child))
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode() == "False []\n"


#: Runs ``uncrel.cli`` as ``python -m`` does, as the benchmark's children
#: do, then prints which of the drivers and numpy's random module it loaded.
LOADED_CHILD = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('uncrel.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(sorted({'uncrel.harness', 'numpy.random'} & set(sys.modules)), file=sys.stderr)\n"
)


@pytest.mark.parametrize("command", ["bounds", "verify", "sweep"])
def test_only_the_commands_that_run_a_driver_load_the_drivers(command, state_file):
    args = [arg.format(state=state_file) for arg in COMMANDS[command]]
    done = run_cli(args, entry=("-c", LOADED_CHILD))
    assert done.returncode == 0
    loaded = done.stderr.decode()
    if command == "bounds":
        assert loaded == "[]\n"
    else:
        assert "'uncrel.harness'" in loaded


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    child = "import sys, uncrel\nprint(sorted(m for m in sys.modules if m.split('.')[0] in ('uncrel', 'numpy')))\n"
    done = run_cli([], entry=("-c", child))
    assert (done.returncode, done.stdout.decode()) == (0, "['uncrel']\n"), done.stderr.decode()


def test_every_public_name_resolves_from_a_fresh_package():
    """Through ``getattr`` and ``from uncrel import *``, and listed by ``dir``
    before any of them is loaded."""
    child = (
        "import uncrel\n"
        "listed = set(uncrel.__all__) <= set(dir(uncrel))\n"
        "star = {}\n"
        "exec('from uncrel import *', star)\n"
        "print(listed, sorted(star.keys() - {'__builtins__'}) == sorted(uncrel.__all__),\n"
        "      all(getattr(uncrel, name) is star[name] for name in uncrel.__all__))\n"
    )
    done = run_cli([], entry=("-c", child))
    assert done.stdout.decode() == "True True True\n", done.stderr.decode()
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        uncrel.no_such_name


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_main_calls_the_driver_by_its_name_on_the_cli_module(monkeypatch, tmp_path, command):
    """The benchmark's tracer times the drivers and the renderer by wrapping
    ``run_verify``, ``run_sweep`` and ``emit`` on :mod:`uncrel.cli`."""
    name = f"run_{command}"
    driver, calls = getattr(cli, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return driver(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    assert cli.main([*COMMANDS[command], "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == 1
    assert cli.emit is render.emit


def test_program_collects_no_cycles_before_run_and_collects_during_main(state_file):
    """Run as a program, the module switches the collector off before its
    first import, and :func:`~uncrel.cli.run` switches it back on."""
    child = (
        "import gc, os, runpy, sys\n"
        "events = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and events.append('collect'))\n"
        "cli_py = os.path.join('uncrel', 'cli.py')\n"
        "def profile(frame, event, arg):\n"
        "    code = frame.f_code\n"
        "    if event == 'call' and code.co_filename.endswith(cli_py) and code.co_name in ('<module>', 'run', 'main'):\n"
        "        events.append(f'{code.co_name} {gc.isenabled()}')\n"
        "sys.setprofile(profile)\n"
        "try:\n"
        "    runpy.run_module('uncrel.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    sys.setprofile(None)\n"
        "    print(*events, sep='\\n', file=sys.stderr)\n"
    )
    done = run_cli(["bounds", "--state-file", str(state_file)], entry=("-c", child))
    assert done.returncode == 0
    events = done.stderr.decode().splitlines()
    calls = [k for k, event in enumerate(events) if event != "collect"]
    assert [events[k] for k in calls[:3]] == ["<module> True", "run False", "main True"], events
    assert "collect" not in events[calls[0]:calls[1]]


@pytest.mark.parametrize("enabled", [True, False])
def test_importing_the_cli_leaves_the_collector_as_it_was(enabled):
    child = "import gc, sys\nif sys.argv[1] == 'False':\n    gc.disable()\nimport uncrel.cli\nprint(gc.isenabled())\n"
    done = run_cli([str(enabled)], entry=("-c", child))
    assert done.stdout.decode() == f"{enabled}\n", done.stderr.decode()


def test_main_in_process_leaves_the_collector_as_it_was(tmp_path):
    gc.disable()
    try:
        assert cli.main([*COMMANDS["sweep"], "--out", str(tmp_path / "sweep.csv")]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_run_alone_sets_the_allocator_policy_once(state_file, tmp_path):
    """``run()`` fixes glibc's mmap and trim thresholds, once; neither the
    import nor ``main`` touches the allocator.  ``ctypes.CDLL`` is replaced
    by a recorder of ``mallopt`` calls before ``uncrel.cli`` loads."""
    child = (
        "import ctypes, sys, numpy\n"
        "calls = []\n"
        "class Libc:\n"
        "    def __init__(self, name, *args, **kwargs):\n"
        "        pass\n"
        "    def mallopt(self, param, value):\n"
        "        calls.append((param, value))\n"
        "        return 1\n"
        "ctypes.CDLL = Libc\n"
        "import uncrel.cli\n"
        "imported = len(calls)\n"
        "uncrel.cli.main(['bounds', '--state-file', sys.argv[1], '--out', sys.argv[2]])\n"
        "mained = len(calls)\n"
        "sys.argv[1:] = ['--version']\n"
        "try:\n"
        "    uncrel.cli.run()\n"
        "except SystemExit as done:\n"
        "    print(imported, mained, done.code, calls, file=sys.stderr)\n"
    )
    done = run_cli([str(state_file), str(tmp_path / "out.csv")], entry=("-c", child))
    assert done.stderr.decode() == f"0 0 0 {[(-3, 4 << 20), (-1, 8 << 20)]}\n"


class _NoMallopt:
    def __init__(self, name):
        pass


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_NoMallopt, _no_libc], ids=["no-mallopt", "no-libc"])
def test_allocator_policy_is_a_no_op_without_mallopt(monkeypatch, cdll):
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._keep_freed_memory() is None


def test_main_in_process_sets_no_allocator_policy(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append(1))
    assert cli.main([*COMMANDS["sweep"], "--out", str(tmp_path / "sweep.csv")]) == 0
    assert calls == []


def test_closed_stdout_exits_3_with_one_line():
    done = run_cli(COMMANDS["sweep"], stdout=None, preexec_fn=functools.partial(os.close, 1))
    assert done.returncode == 3
    assert done.stderr.decode().splitlines() == [STDOUT_ERROR + "stdout is closed"]


def test_main_in_process_reports_closed_stdout(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(COMMANDS["sweep"]) == 3
    assert capsys.readouterr().err.splitlines() == [STDOUT_ERROR + "stdout is closed"]


def test_main_in_process_freezes_nothing(tmp_path):
    frozen = gc.get_freeze_count()
    assert cli.main([*COMMANDS["sweep"], "--out", str(tmp_path / "sweep.csv")]) == 0
    assert gc.get_freeze_count() == frozen


def test_version_is_written_once_in_the_package_and_pyproject_reads_it():
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())
    assert "version" in project["project"]["dynamic"] and "version" not in project["project"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "uncrel.__version__"}
    texts = [path.read_text() for path in [pyproject, *(SRC / "uncrel").glob("*.py")]]
    assert sum(text.count(f'"{uncrel.__version__}"') for text in texts) == 1


def test_run_freezes_the_objects_alive_at_its_start():
    child = (
        "import gc, sys, uncrel.cli\n"
        "before = gc.get_freeze_count()\n"
        "try:\n"
        "    uncrel.cli.run()\n"
        "except SystemExit as done:\n"
        "    print(before, gc.get_freeze_count(), done.code, file=sys.stderr)\n"
    )
    done = run_cli(["--version"], entry=("-c", child))
    before, after, code = map(int, done.stderr.split())
    assert done.stdout.decode() == f"uncrel {uncrel.__version__}\n"
    assert (before, code) == (0, 0)
    assert after > 1000


def test_stdout_sweep_is_complete_at_exit(monkeypatch, capsys):
    args = ["sweep", "--mode", "phi", "--steps", "2001"]
    text = in_process_text(monkeypatch, args)
    capsys.readouterr()
    done = run_cli(args)
    assert done.returncode == 0 and done.stderr == b""
    assert first_difference(done.stdout.decode(), text) is None


def test_verify_out_file_is_complete_at_exit(monkeypatch, tmp_path):
    args = ["verify", "--trials", "200", "--dim", "2,3", "--format", "json"]
    text = in_process_text(monkeypatch, [*args, "--out", str(tmp_path / "in.json")])
    out = tmp_path / "out.json"
    done = run_cli([*args, "--out", str(out)])
    assert done.returncode == 0 and done.stdout == b"" and done.stderr == b""
    assert first_difference(out.read_text(), text) is None
