"""What a process imports: the lazy package exports and per-command CLI imports.

Every answer is one short CLI process, so ``import selbounds`` loads no
submodule and each command loads only the modules it runs.  The module
sets are checked in fresh interpreters; the public API is checked here.
"""

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
    "bounds_for_k", "build_report", "max_entropy_distribution", "min_entropy",
    "piecewise_curve", "oracle_min_entropy", "oracle_transform_check",
    "parse_sweep_config", "records_to_csv", "reference_sweep_config", "run_sweep",
    "parse_scenario_config", "run_scenario", "transform_repeated", "transform_unique",
}

COMMAND_MODULES = {"bounds", "extrema", "oracle", "scenarios", "transform"}


def _python(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, check=False)


#: Runs ``cli.main`` on argv (or, with no argv, only ``build_parser``) and
#: prints the exit code and the loaded ``selbounds`` submodules as JSON.
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
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("selbounds."))]))
"""


def _loaded(*argv):
    done = _python("-c", _PROBE, *argv)
    assert done.returncode == 0, done.stderr.decode()
    code, modules = json.loads(done.stdout)
    return code, {m.split(".", 1)[1] for m in modules}


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

#: Modules each command must leave unloaded.
UNLOADED = {
    "bounds": {"oracle", "scenarios"},
    "extrema": COMMAND_MODULES - {"extrema"},
    "curve": COMMAND_MODULES - {"extrema"},
    "transform": COMMAND_MODULES - {"transform"},
    "sweep": {"scenarios"},
    "scenario": {"oracle"},
    "oracle-check": {"scenarios"},
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
