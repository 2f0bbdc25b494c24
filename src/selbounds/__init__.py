"""Entropy-based performance bounds for resource-constrained selection.

Given a system that can only activate ``m`` of its ``n`` objects, the
package constructs the maximum- and minimum-entropy distributions
compatible with a given selection error probability, inverts those
extremal curves to bound the error/merit probability of the optimal
selection from its entropy alone, generalizes the bounds to requirements
of ``k`` performing objects via composite-system transforms, and verifies
every formula against brute-force oracles and Monte Carlo sweeps.

``import selbounds`` imports no submodule (and not numpy): each public
name below is looked up in its submodule, which is imported the first
time one of its names is used (PEP 562).  A short CLI process thus pays
only for the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "bounds": (
            "BoundReport", "TightInverter", "bounds_for_k", "build_report",
            "entropy_lower_bound", "flawed_pi_lower_bound", "merit_bounds_k1",
            "pi_bounds_tight", "pi_lower_bound", "pi_upper_bound",
        ),
        "core": (
            "DEFAULT_TOLERANCE", "SortedDistribution", "SystemShape", "entropy",
            "feasible_pi_range", "make_distribution", "parse_weights", "read_weights",
            "tail_probability",
        ),
        "curves": ("min_entropy_values",),
        "errors": (
            "AllZeroError", "BadConfigError", "BadEntropyError", "BadKError", "BadMError",
            "BadPHatError", "DuplicateIdError", "InfeasibleError", "InvalidEntryError",
            "NumericFailureError", "SelboundsError", "TooLargeError", "ValidationError",
            "ZeroDenominatorError",
        ),
        "extrema": (
            "CandidateEvaluation", "CurveSample", "MinEntropyResult",
            "assemble_min_candidate", "candidate_set", "max_entropy",
            "max_entropy_distribution", "max_entropy_value", "min_entropy",
            "min_entropy_m1", "min_entropy_value", "piecewise_curve",
        ),
        "oracle": (
            "REFERENCE_SWEEP_SHAPES", "SamplerSpec", "SweepConfig", "SweepRecord",
            "oracle_min_entropy", "oracle_transform_check", "parse_sweep_config",
            "records_to_csv", "reference_sweep_config", "run_sweep", "sample_distribution",
            "sample_feasible", "summarize",
        ),
        "rng": ("derive_rng",),
        "scenarios": (
            "ScenarioConfig", "ScenarioReport", "cache_scenario", "parse_scenario_config",
            "run_scenario", "scheduling_scenario", "zipf_weights",
        ),
        "transform": (
            "TransformedSystem", "sequential_probability", "transform_repeated",
            "transform_unique",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
