"""Command-line front end.

Every capability is exposed as a subcommand emitting machine-readable
JSON or CSV (``--format``; ``scenario`` and ``oracle-check`` are JSON
only), to stdout or ``--out``, in blocks of :data:`CSV_BLOCK_ROWS` rows:
every CSV through ``core.csv_blocks``, which holds the cell rules, and
every JSON document through :func:`_json_blocks`.  Each subcommand takes
only the shared options it reads.  Exit codes: 0 on success, 1 on any
input/validation problem (single-line ``error: ...`` on stderr), 2 on
internal numeric failure.  All randomized commands are seeded and
produce byte-identical output for identical invocations.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import math
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    DEFAULT_TOLERANCE,
    FLAG_TEXT,
    SystemShape,
    csv_blocks,
    entropy,
    format_number,
    make_distribution,
    read_weights,
    tail_probability,
)
from .errors import NumericFailureError, ValidationError


def _lazy(module: str, name: str):
    """Stand-in for ``selbounds.<module>.<name>`` that imports the module when called.

    A command then imports only the modules it runs.  The stand-ins are
    attributes of this module, not imports inside the handlers, so code
    that wraps ``selbounds.cli.<name>`` (perfbench's tracer) still finds
    every name.
    """
    def forward(*args, **kwargs):
        return getattr(importlib.import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    return forward


bounds_for_k = _lazy("bounds", "bounds_for_k")
build_report = _lazy("bounds", "build_report")
derive_rng = _lazy("rng", "derive_rng")
max_entropy_distribution = _lazy("extrema", "max_entropy_distribution")
min_entropy = _lazy("extrema", "min_entropy")
piecewise_curve = _lazy("extrema", "piecewise_curve")
oracle_min_entropy = _lazy("oracle", "oracle_min_entropy")
oracle_transform_check = _lazy("oracle", "oracle_transform_check")
parse_sweep_config = _lazy("oracle", "parse_sweep_config")
records_to_csv = _lazy("oracle", "records_to_csv")
reference_sweep_config = _lazy("oracle", "reference_sweep_config")
run_sweep = _lazy("oracle", "run_sweep")
parse_scenario_config = _lazy("scenarios", "parse_scenario_config")
run_scenario = _lazy("scenarios", "run_scenario")
transform_repeated = _lazy("transform", "transform_repeated")
transform_unique = _lazy("transform", "transform_unique")


class _UsageError(ValidationError):
    """Raised by the parser instead of argparse's SystemExit(2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


#: Rows per chunk of streamed CSV output: large enough that the per-chunk
#: numpy calls cost little, small enough that one chunk's strings stay a
#: few MB instead of holding the whole document.
CSV_BLOCK_ROWS = 65_536


def _emit(chunks: str | Iterable[str], out_path: str | None) -> None:
    """Write a ``str`` or an iterable of text chunks as they arrive."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


@dataclasses.dataclass(frozen=True)
class _Rows:
    """A JSON array of objects, one per row of ``columns`` (key -> array)."""

    columns: dict


_INDENT = "  "


def _json_cells(values: np.ndarray, level: int) -> list[str]:
    """JSON text of each entry of a 1-D array, or of each row of a 2-D one.

    A 2-D row, of at least one entry, is an array closed at indent
    ``level``.  Floats read as ``float.__repr__``, and NaN and the
    infinities as ``json`` writes them.
    """
    if values.ndim == 2:
        pad = "\n" + _INDENT * (level + 1)
        row = "[" + pad + ("," + pad).join(["%s"] * values.shape[1]) + "\n" + _INDENT * level + "]"
        return list(map(row.__mod__, zip(*(_json_cells(c, level + 1) for c in values.T))))
    if values.dtype == bool:
        return [FLAG_TEXT[f] for f in values.tolist()]
    cells = list(map(repr, values.tolist()))
    if values.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            cells[i] = json.dumps(float(values[i]))
    return cells


def _json_array(count: int, cells, level: int):
    """Yield a JSON array of ``count`` items closed at indent ``level``.

    ``cells`` maps a slice of item indices to the text of those items; the
    items are formatted CSV_BLOCK_ROWS at a time, as they are written.
    """
    if not count:
        yield "[]"
        return
    pad = "\n" + _INDENT * (level + 1)
    opening = "["
    for start in range(0, count, CSV_BLOCK_ROWS):
        yield opening + pad + ("," + pad).join(cells(slice(start, start + CSV_BLOCK_ROWS)))
        opening = ","
    yield "\n" + _INDENT * level + "]"


def _json_value(value, level: int):
    """Yield the text of ``value`` as ``json.dumps(indent=2)`` writes it at ``level``.

    Dict keys are strings.  A 1-D or 2-D array reads as the list of its
    ``tolist()`` and ``_Rows`` as a list of one dict per row; both are
    written in blocks.
    """
    if isinstance(value, _Rows):
        columns = value.columns
        pad = "\n" + _INDENT * (level + 2)
        row = ("{" + ",".join(pad + json.dumps(key).replace("%", "%%") + ": %s" for key in columns)
               + "\n" + _INDENT * (level + 1) + "}")

        def cells(block):
            fields = (_json_cells(column[block], level + 2) for column in columns.values())
            return list(map(row.__mod__, zip(*fields)))

        yield from _json_array(len(next(iter(columns.values()))), cells, level)
    elif isinstance(value, np.ndarray):
        yield from _json_array(len(value), lambda block: _json_cells(value[block], level + 1), level)
    elif isinstance(value, (dict, list, tuple)):
        if isinstance(value, dict):
            brackets, items = "{}", ((json.dumps(k) + ": ", v) for k, v in value.items())
        else:
            brackets, items = "[]", (("", v) for v in value)
        if not value:
            yield brackets
            return
        pad = "\n" + _INDENT * (level + 1)
        opening = brackets[0]
        for prefix, item in items:
            yield opening + pad + prefix
            yield from _json_value(item, level + 1)
            opening = ","
        yield "\n" + _INDENT * level + brackets[1]
    else:
        yield json.dumps(value)


def _json_blocks(doc):
    """Yield ``json.dumps(doc, indent=2) + "\\n"`` in chunks, formatted as written."""
    yield from _json_value(doc, 0)
    yield "\n"


def _tolerance(text: str) -> float:
    """Parse ``--tolerance``: a finite number >= 0.

    A NaN or negative tolerance makes the bound checks fail and an
    infinite one makes them all pass, either way reported as a result of
    the bounds rather than as a bad option.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Parse a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="selbounds",
        description=(
            "Entropy-based performance bounds for resource-constrained "
            "selection systems"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    # Each subcommand takes only the shared options it reads; parent
    # parsers copy their actions instead of re-validating each one.
    output = _Parser(add_help=False)
    output.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output encoding (default json; scenario and "
                             "oracle-check are JSON only)")
    output.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="override the random seed")
    tolerant = _Parser(add_help=False)
    tolerant.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE,
                          help="numeric tolerance for feasibility and bound checks")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "bounds", parents=[output, tolerant],
        help="error/merit probability bounds at a given entropy",
        description=(
            "Closed-form lower/upper bounds on the optimal selection's error "
            "probability (with merit complements), plus tight bounds from "
            "numeric inversion of the exact extremal-entropy curves."
        ),
    )
    p.add_argument("--n", type=int, help="number of objects")
    p.add_argument("--m", type=int, required=True, help="number of selected objects")
    p.add_argument("--entropy", type=float, help="entropy in bits (incompatible with --dist)")
    p.add_argument("--dist", metavar="FILE", help="weights file; entropy is computed from it")
    p.add_argument("--k", type=int, default=1, help="performance requirement (needs --dist)")
    p.add_argument("--mode", choices=("unique", "repeated"),
                   help="composite mode for k > 1")
    p.add_argument("--compare-flawed", action="store_true",
                   help="also report the uncorrected lower-bound formula")

    p = sub.add_parser(
        "extrema", parents=[output],
        help="maximum- or minimum-entropy distribution for (n, m, pi)",
        description=(
            "Constructs the flat-segment maximum-entropy distribution or runs "
            "the discrete minimum-entropy candidate search."
        ),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pi", type=float, required=True, help="tail (error) mass")
    p.add_argument("--which", choices=("max", "min"), default="max")

    p = sub.add_parser(
        "curve", parents=[output],
        help="entropy-vs-p_hat curve with junction markers",
        description=(
            "Samples the piecewise-concave entropy curve over the feasible "
            "repeated-probability interval; junction rows mark the discrete "
            "minimization candidates."
        ),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pi", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)

    p = sub.add_parser(
        "transform", parents=[output, tolerant],
        help="composite system for a multi-object requirement",
        description=(
            "Rewrites the system over k-combinations (unique) or k-multisets "
            "(repeated) with exact composite probabilities."
        ),
    )
    p.add_argument("--dist", metavar="FILE", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("unique", "repeated"), required=True)

    p = sub.add_parser(
        "sweep", parents=[output, seeded, tolerant],
        help="Monte Carlo verification sweep of the bound sandwich",
        description=(
            "Samples random distributions per shape, evaluates all bounds at "
            "the observed entropy and reports violations (expected: none) "
            "plus bound-gap statistics split by the m >= n/2 regime."
        ),
    )
    p.add_argument("--config", metavar="FILE", help="sweep config file")
    p.add_argument("--paper-figs", action="store_true",
                   help="built-in preset: the eight published verification shapes, "
                        "100 scenarios each")
    p.add_argument("--scenarios", type=int, default=None,
                   help="override scenarios per shape")
    p.add_argument("--summary-out", metavar="PATH",
                   help="also write the summary JSON to PATH")
    p.add_argument("--threads", type=int, default=1,
                   help="ignored: everything runs in one thread (kept because "
                        "the perfbench sweep workload passes --threads 1)")

    p = sub.add_parser(
        "scenario", parents=[output, seeded, tolerant],
        help="cache-prefetch or scheduling application report",
        description=(
            "Runs a configured application scenario: bound report, exact "
            "optimal rate and a seeded Monte Carlo estimate."
        ),
    )
    p.add_argument("--config", metavar="FILE", required=True)

    p = sub.add_parser(
        "oracle-check", parents=[output, seeded],
        help="independent brute-force validators",
        description=(
            "Cross-checks the discrete minimum-entropy search against an "
            "exact scan of the feasible polytope's vertices, or the composite "
            "transforms against total enumeration."
        ),
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--min-entropy", dest="check", action="store_const", const="min_entropy")
    group.add_argument("--transform", dest="check", action="store_const", const="transform")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--pi", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--trials", type=_positive_int,
                   help="--transform random distributions (default 20)")

    return parser


def _require(args, names: list[str]) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise _UsageError(f"--{name} is required for this invocation")


def _reject(args, names: list[str], mode: str) -> None:
    for name in names:
        if getattr(args, name) is not None:
            raise _UsageError(f"--{name} does not apply to {mode}")


def _cmd_bounds(args) -> tuple[str | Iterable[str], str | None]:
    if args.dist is not None:
        if args.entropy is not None:
            raise _UsageError("--entropy conflicts with --dist (entropy is computed)")
        dist = make_distribution(read_weights(args.dist))
        if args.n is not None and args.n != dist.n:
            raise _UsageError(f"--n {args.n} does not match the {dist.n}-entry --dist file")
        if args.k > 1 or args.mode is not None:
            if args.mode is None:
                raise _UsageError("--mode is required when --k > 1")
            report = bounds_for_k(
                dist, args.m, args.k, args.mode,
                include_flawed=args.compare_flawed, tol=args.tolerance,
            )
        else:
            report = build_report(
                dist.n, args.m, entropy(dist), k=1, mode="direct",
                include_flawed=args.compare_flawed, tol=args.tolerance,
                pi_observed=tail_probability(dist, args.m),
            )
    else:
        if args.k != 1 or args.mode is not None:
            raise _UsageError("--k/--mode require --dist (a distribution to transform)")
        _require(args, ["n", "entropy"])
        report = build_report(
            args.n, args.m, args.entropy, k=1, mode="direct",
            include_flawed=args.compare_flawed, tol=args.tolerance,
        )
    d = report.to_dict()
    if args.format == "json":
        return _json_blocks(d), None
    d["clamped"] = ";".join(d["clamped"])
    row = {}  # column -> value, in column order; pi and psi give one column per entry
    for key in ("n", "m", "k", "mode", "entropy_bits", "pi", "psi", "pi_observed",
                "clamped", "selection_mismatch"):
        if isinstance(d.get(key), dict):
            row.update((f"{key}_{name}", value) for name, value in d[key].items())
        elif key in d:
            row[key] = d[key]
    return csv_blocks(",".join(row) + "\n", [[v] for v in row.values()], CSV_BLOCK_ROWS), None


def _cmd_extrema(args) -> tuple[str | Iterable[str], str | None]:
    shape = SystemShape(args.n, args.m, args.pi)
    if args.which == "max":
        dist = max_entropy_distribution(shape)
        bits = entropy(dist)
        meta = {"which": "max", "n": shape.n, "m": shape.m, "pi": shape.pi,
                "entropy_bits": bits, "probs": dist.probs}
    else:
        result = min_entropy(shape)
        dist = result.argmin_distribution
        bits = result.min_entropy_bits
        meta = {
            "which": "min", "n": shape.n, "m": shape.m, "pi": shape.pi,
            "entropy_bits": bits,
            "probs": dist.probs,
            "index_bound": result.index_bound,
            "argmin_index": result.argmin_index,
            "candidates": _Rows(result.candidates.columns),
        }
    if args.format == "json":
        return _json_blocks(meta), None
    head = (
        f"# which={args.which} n={shape.n} m={shape.m} pi={format_number(shape.pi)} "
        f"entropy_bits={format_number(bits)}\n"
    )
    return csv_blocks(head, [dist.probs], CSV_BLOCK_ROWS), None


def _cmd_curve(args) -> tuple[str | Iterable[str], str | None]:
    shape = SystemShape(args.n, args.m, args.pi)
    columns = piecewise_curve(shape, args.samples).columns
    if args.format == "json":
        return _json_blocks({
            "n": shape.n, "m": shape.m, "pi": shape.pi, "samples": _Rows(columns),
        }), None
    return csv_blocks(",".join(columns) + "\n", list(columns.values()), CSV_BLOCK_ROWS), None


def _cmd_transform(args) -> tuple[str | Iterable[str], str | None]:
    dist = make_distribution(read_weights(args.dist))
    if args.mode == "unique":
        ts = transform_unique(dist, args.m, args.k, args.tolerance)
    else:
        ts = transform_repeated(dist, args.m, args.k, args.tolerance)
    header = {
        "n_prime": ts.n_prime, "m_prime": ts.m_prime, "mode": ts.mode,
        "k": ts.k, "entropy_bits": entropy(ts.dist), "selection_mismatch": ts.selection_mismatch,
    }
    if args.format == "json":
        return _json_blocks({
            **header,
            "composites": _Rows({
                "ids": ts.composite_index,
                "probability": ts.dist.probs,
                "in_selected_set": ts.in_selected,
            }),
        }), None
    head = f"# {json.dumps(header)}\ncomposite_ids,probability,in_selected_set\n"
    columns = [ts.composite_index, ts.dist.probs, ts.in_selected]
    return csv_blocks(head, columns, CSV_BLOCK_ROWS), None


def _cmd_sweep(args) -> tuple[str | Iterable[str], str | None]:
    if args.paper_figs == (args.config is not None):
        raise _UsageError("exactly one of --paper-figs / --config is required")
    if args.paper_figs:
        config = reference_sweep_config(
            seed=42 if args.seed is None else args.seed,
            scenarios=100 if args.scenarios is None else args.scenarios,
        )
    else:
        config = parse_sweep_config(Path(args.config).read_text(encoding="utf-8"))
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if args.scenarios is not None:
            config = dataclasses.replace(config, scenarios_per_shape=args.scenarios)
    records, summary = run_sweep(config, tol=args.tolerance)
    summary_text = json.dumps(summary) + "\n"
    if args.summary_out:
        Path(args.summary_out).write_text(summary_text, encoding="utf-8")
    if args.format == "json":
        payload = {"records": [dataclasses.asdict(r) for r in records], "summary": summary}
        return _json_blocks(payload), None
    return records_to_csv(records), summary_text


def _cmd_scenario(args) -> tuple[str | Iterable[str], str | None]:
    path = Path(args.config)
    cfg = parse_scenario_config(path.read_text(encoding="utf-8"), base_dir=path.parent)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = run_scenario(cfg, tol=args.tolerance)
    return _json_blocks(report.to_dict()), None


def _cmd_oracle_check(args) -> tuple[str | Iterable[str], str | None]:
    if args.check == "min_entropy":
        _reject(args, ["k", "trials", "seed"], "--min-entropy")
        _require(args, ["n", "m", "pi"])
        shape = SystemShape(args.n, args.m, args.pi)
        found = oracle_min_entropy(shape)
        exact = min_entropy(shape).min_entropy_bits
        return _json_blocks({
            "check": "min_entropy", "n": shape.n, "m": shape.m, "pi": shape.pi,
            "oracle_entropy_bits": found,
            "exact_min_entropy_bits": exact,
            "oracle_minus_exact": found - exact,
        }), None
    _reject(args, ["m", "pi"], "--transform")
    _require(args, ["n", "k"])
    seed = 0 if args.seed is None else args.seed
    rng = derive_rng(seed, 2)
    trials = 20 if args.trials is None else args.trials
    report = oracle_transform_check(args.n, args.k, trials, rng)
    report = {"check": "transform", "seed": seed, **report}
    return _json_blocks(report), None


_COMMANDS = {
    "bounds": _cmd_bounds,
    "extrema": _cmd_extrema,
    "curve": _cmd_curve,
    "transform": _cmd_transform,
    "sweep": _cmd_sweep,
    "scenario": _cmd_scenario,
    "oracle-check": _cmd_oracle_check,
}

#: Commands whose reports have no CSV form.
_JSON_ONLY = ("scenario", "oracle-check")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format == "csv" and args.command in _JSON_ONLY:
            raise _UsageError(f"{args.command} reports are JSON only; use --format json")
        with np.errstate(over="raise", invalid="ignore", divide="ignore"):
            body, side_text = _COMMANDS[args.command](args)
        _emit(body, args.out)
    except (ValidationError, OSError, UnicodeDecodeError) as exc:  # bad input or file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericFailureError, ArithmeticError, FloatingPointError) as exc:
        print(f"error: internal numeric failure: {exc}", file=sys.stderr)
        return 2
    if side_text:
        sys.stderr.write(side_text)
    return 0


def run() -> int:
    """Program entry: :func:`main` on ``sys.argv`` with the heap frozen around it.

    The ``selbounds`` script and ``python -m selbounds.cli`` both call
    this.  The first freeze moves the objects the imports of numpy and the
    package left behind (about 22,000) out of the collector's reach, so
    no collection during the command traverses them; the second does the
    same for what the command built, so the interpreter's shutdown
    collections traverse almost nothing.

    Skipping those collections at exit is safe: ``_emit`` closes
    ``--out`` with ``with``, the scenario threads are joined, the
    interpreter flushes stdout and stderr whatever the collector does,
    and nothing in the package relies on a cyclic finalizer running at
    exit.  ``main(argv)`` stays the in-process entry and never touches
    the collector, so tests and library callers are unaffected.
    """
    gc.freeze()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
