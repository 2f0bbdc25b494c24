"""What a process imports and how it ends: lazy exports, per-command imports, the entry.

Every answer is one short CLI process, so ``import selbounds`` loads no
submodule, each command loads only the modules it runs, and the program
entry freezes the heap so that shutdown does not traverse it.  The
module sets and the exit state are checked in fresh interpreters; the
public API is checked here.
"""

import ast
import gc
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selbounds as sb
import selbounds.cli as cli
from selbounds.cli import main

SRC = Path(sb.__file__).resolve().parent.parent

#: ``selbounds.__all__`` as it was when the package imported every
#: submodule eagerly.
PUBLIC_NAMES = """
AllZeroError BadConfigError BadEntropyError BadKError BadMError BadPHatError BoundReport
CandidateEvaluation CurveSample DEFAULT_TOLERANCE DuplicateIdError InfeasibleError
InvalidEntryError MinEntropyResult NumericFailureError REFERENCE_SWEEP_SHAPES SamplerSpec
ScenarioConfig ScenarioReport SelboundsError SortedDistribution SweepConfig SweepRecord
SystemShape TightInverter TooLargeError TransformedSystem ValidationError
ZeroDenominatorError assemble_min_candidate bounds_for_k build_report cache_scenario
candidate_set derive_rng entropy entropy_lower_bound feasible_pi_range
flawed_pi_lower_bound make_distribution max_entropy max_entropy_distribution
max_entropy_value merit_bounds_k1 min_entropy min_entropy_m1 min_entropy_value
min_entropy_values oracle_min_entropy oracle_transform_check parse_scenario_config
parse_sweep_config parse_weights pi_bounds_tight pi_lower_bound pi_upper_bound
piecewise_curve read_weights records_to_csv reference_sweep_config run_scenario run_sweep
sample_distribution sample_feasible scheduling_scenario sequential_probability summarize
tail_probability transform_repeated transform_unique zipf_weights
""".split()

#: The names ``selbounds.cli`` forwards to a module it imports on first call.
CLI_FORWARDERS = {
    "bounds_for_k", "build_report", "derive_rng", "max_entropy_distribution", "min_entropy",
    "piecewise_curve", "oracle_min_entropy", "oracle_transform_check",
    "parse_sweep_config", "records_to_csv", "reference_sweep_config", "run_sweep",
    "parse_scenario_config", "run_scenario", "transform_repeated", "transform_unique",
}

COMMAND_MODULES = {
    "bounds", "curves", "extrema", "inversion", "oracle", "rng", "scenarios", "transform",
}

#: Worker-pool modules: no command loads them, as their import would add to
#: every process's start-up.
POOL_MODULES = {"concurrent.futures", "multiprocessing"}


def _python(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, check=False)


#: Runs ``cli.main`` on argv (or, with no argv, only ``build_parser``) and
#: prints the exit code and the loaded modules as JSON.
_PROBE = """
import contextlib, io, json, sys
import selbounds.cli as cli
code = None
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
else:
    cli.build_parser()
print(json.dumps([code, sorted(sys.modules)]))
"""


def _modules(*argv):
    done = _python("-c", _PROBE, *argv)
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout)


def _loaded(*argv):
    code, modules = _modules(*argv)
    return code, {m.split(".", 1)[1] for m in modules if m.startswith("selbounds.")}


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "w.txt").write_text("0.4\n0.25\n0.15\n0.1\n0.06\n0.04\n")
    (tmp_path / "scenario.cfg").write_text(
        "kind = cache_multiuser\nn = 6\nm = 3\nk = 2\nzipf_s = 1.0\ntrials = 2000\nseed = 5\n"
    )
    return tmp_path


#: One invocation per command; ``{tmp}`` is the ``inputs`` directory.
COMMANDS = {
    "bounds": ("bounds", "--dist", "{tmp}/w.txt", "--m", "3", "--k", "2", "--mode", "unique"),
    "extrema": ("extrema", "--n", "12", "--m", "4", "--pi", "0.3", "--which", "min",
                "--format", "csv"),
    "curve": ("curve", "--n", "12", "--m", "4", "--pi", "0.3", "--samples", "20"),
    "transform": ("transform", "--dist", "{tmp}/w.txt", "--m", "3", "--k", "2",
                  "--mode", "repeated", "--format", "csv"),
    "sweep": ("sweep", "--paper-figs", "--scenarios", "2", "--format", "csv"),
    "scenario": ("scenario", "--config", "{tmp}/scenario.cfg"),
    "oracle-check": ("oracle-check", "--transform", "--n", "4", "--k", "2", "--trials", "3"),
}

#: Modules each command must leave unloaded.  ``bounds``, ``scenario`` and
#: ``sweep`` leave the distribution builders (``extrema``) unloaded; the
#: sweep loads the closed-form curves and their inversion, not the report
#: layer (``bounds``) or the transforms it imports.
UNLOADED = {
    "bounds": {"extrema", "oracle", "rng", "scenarios"},
    "extrema": COMMAND_MODULES - {"curves", "extrema"},
    "curve": COMMAND_MODULES - {"curves", "extrema"},
    "transform": COMMAND_MODULES - {"transform"},
    "sweep": {"bounds", "extrema", "scenarios", "transform"},
    "scenario": {"extrema", "oracle"},
    "oracle-check": {"bounds", "extrema", "scenarios"},
}


class TestModuleSets:
    def test_import_selbounds_loads_no_submodule_and_not_numpy(self):
        done = _python("-c", "import json, sys, selbounds; print(json.dumps(sorted(sys.modules)))")
        assert done.returncode == 0, done.stderr.decode()
        modules = json.loads(done.stdout)
        assert "numpy" not in modules
        assert [m for m in modules if m.startswith("selbounds.")] == []

    def test_build_parser_loads_no_command_module(self):
        code, loaded = _loaded()
        assert code is None
        assert loaded & COMMAND_MODULES == set()

    @pytest.mark.parametrize("argv", [("--version",), ("--help",), ("bounds", "--bogus")])
    def test_version_help_and_usage_errors_load_no_command_module(self, argv):
        code, loaded = _loaded(*argv)
        assert code == (1 if "--bogus" in argv else 0)
        assert loaded & COMMAND_MODULES == set()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_leaves_other_modules_unloaded(self, inputs, command):
        argv = [a.format(tmp=inputs) for a in COMMANDS[command]]
        code, loaded = _loaded(*argv)
        assert code == 0
        assert loaded & UNLOADED[command] == set()

    @pytest.mark.parametrize("command", ["bounds", "scenario"])
    def test_command_loads_nothing_beyond_numpy_random(self, inputs, command):
        # the scenario's Monte Carlo counts on threads, and threading comes with numpy
        done = _python("-c", "import json, sys, numpy.random, selbounds.cli as cli; "
                       "cli.build_parser(); print(json.dumps(sorted(sys.modules)))")
        assert done.returncode == 0, done.stderr.decode()
        allowed = set(json.loads(done.stdout))
        assert "threading" in allowed and not POOL_MODULES & allowed
        code, modules = _modules(*(a.format(tmp=inputs) for a in COMMANDS[command]))
        assert code == 0
        assert {m for m in set(modules) - allowed if not m.startswith("selbounds.")} == set()

    def test_sweep_leaves_numpy_ma_unloaded(self):
        # np.median imports numpy.ma, 16-18 ms of every sweep process
        code, modules = _modules(*COMMANDS["sweep"])
        assert code == 0
        assert "numpy.ma" not in modules


class TestEntryPath:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_python_m_matches_in_process_main(self, capsys, inputs, command):
        argv = [a.format(tmp=inputs) for a in COMMANDS[command]]
        done = _python("-m", "selbounds.cli", *argv)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (
            code, captured.out, captured.err)


#: Runs the ``__main__`` block of ``selbounds.cli`` on argv[2:] and, at
#: exit, writes whether the collector is on, the frozen object count and
#: the count left in the collector's generations to the file argv[1].
_AT_EXIT_PROBE = """
import atexit, gc, json, runpy, sys
path = sys.argv[1]
def report():
    with open(path, "w") as handle:
        json.dump([gc.isenabled(), gc.get_freeze_count(), len(gc.get_objects())], handle)
atexit.register(report)
sys.argv = ["selbounds", *sys.argv[2:]]
runpy.run_module("selbounds.cli", run_name="__main__")
"""


class TestProgramEntry:
    def test_in_process_main_leaves_the_collector_alone(self, capsys, inputs):
        before = gc.isenabled(), gc.get_freeze_count()
        assert main([a.format(tmp=inputs) for a in COMMANDS["bounds"]]) == 0
        assert main(["bounds", "--bogus"]) == 1
        capsys.readouterr()
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("argv, expected", [(COMMANDS["bounds"], 0), (("bounds", "--bogus"), 1)],
                             ids=["bounds", "usage-error"])
    def test_python_m_exits_with_a_frozen_heap(self, inputs, argv, expected):
        state = inputs / "state.json"
        done = _python("-c", _AT_EXIT_PROBE, str(state), *(a.format(tmp=inputs) for a in argv))
        assert done.returncode == expected, done.stderr.decode()
        enabled, frozen, unfrozen = json.loads(state.read_text())
        # numpy's and the package's import heap alone is over 10,000 objects
        assert enabled and frozen > 10_000 and unfrozen < 100

    def test_run_freezes_twice_and_returns_mains_code(self, capsys, monkeypatch):
        import selbounds.core as core

        freezes = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: freezes.append(None))
        monkeypatch.setattr(
            core.SystemShape, "head_mean",
            property(lambda s: (1.0 - s.pi) / s.m * (1.0 + 1e-6)),
        )
        monkeypatch.setattr(sys, "argv", ["selbounds", "extrema", "--n", "4", "--m", "2",
                                          "--pi", "0.5"])
        assert cli.run() == 2
        assert len(freezes) == 2
        assert capsys.readouterr().err.startswith("error: internal numeric failure")

    def test_script_target_is_the_function_main_block_calls(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
        module, name = pyproject["project"]["scripts"]["selbounds"].split(":")
        target = getattr(importlib.import_module(module), name)
        tree = ast.parse(Path(cli.__file__).read_text())
        block = next(node for node in tree.body if isinstance(node, ast.If)
                     and ast.unparse(node.test) == "__name__ == '__main__'")
        assert [ast.unparse(stmt) for stmt in block.body] == [f"sys.exit({target.__name__}())"]
        assert target is cli.run


class TestPublicApi:
    def test_all_is_unchanged(self):
        assert sb.__all__ == sorted(PUBLIC_NAMES)

    def test_each_name_is_the_submodule_object(self):
        assert sb.run_sweep is importlib.import_module("selbounds.oracle").run_sweep
        for name in sb.__all__:
            module = importlib.import_module(f"selbounds.{sb._EXPORTS[name]}")
            assert getattr(sb, name) is getattr(module, name)

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from selbounds import *", namespace)
        assert set(PUBLIC_NAMES) <= set(namespace)
        assert "__all__" in dir(sb) and set(PUBLIC_NAMES) <= set(dir(sb))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="^module 'selbounds' has no attribute 'nope'$"):
            sb.nope  # noqa: B018
        assert not hasattr(sb, "nope")

    def test_every_cli_forwarder_has_a_target(self):
        code = cli._lazy("core", "entropy").__code__
        forwarders = {name: f for name, f in vars(cli).items()
                      if getattr(f, "__code__", None) is code}
        assert set(forwarders) == CLI_FORWARDERS
        for name, forward in forwarders.items():
            target = inspect.getclosurevars(forward).nonlocals
            assert target["name"] == name
            module = importlib.import_module(f"selbounds.{target['module']}")
            assert callable(getattr(module, name))
