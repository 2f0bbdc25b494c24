"""Command-line front end.

Every capability is exposed as a subcommand emitting machine-readable
JSON or CSV (``--format``), to stdout or ``--out``.  Exit codes: 0 on
success, 1 on any input/validation problem (single-line ``error: ...`` on
stderr), 2 on internal numeric failure.  All randomized commands are
seeded and produce byte-identical output for identical invocations.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    SystemShape,
    entropy,
    format_number,
    format_numbers,
    make_distribution,
    read_weights,
    tail_probability,
)
from .errors import NumericFailureError, ValidationError
from .rng import derive_rng


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

_FLAG_TEXT = ("false", "true")


def _emit(chunks: str | Iterable[str], out_path: str | None) -> None:
    """Write a ``str`` or an iterable of text chunks as they arrive."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _csv_blocks(head: str, count: int, columns):
    """Yield ``head``, then ``count`` CSV rows in chunks of CSV_BLOCK_ROWS.

    Each column maps a row slice to the cells of those rows as strings.
    The rows are formatted as the chunks are written, so the whole
    document is never held at once.
    """
    yield head
    for start in range(0, count, CSV_BLOCK_ROWS):
        block = slice(start, start + CSV_BLOCK_ROWS)
        cells = [column(block) for column in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _number_cells(values):
    values = np.asarray(values, dtype=float)
    return lambda block: format_numbers(values[block])


def _flag_cells(values):
    values = np.asarray(values, dtype=bool)
    return lambda block: [_FLAG_TEXT[f] for f in values[block].tolist()]


def _int_cells(values):
    values = np.asarray(values, dtype=np.int64)
    return lambda block: list(map(str, values[block].tolist()))


def _id_cells(index: np.ndarray):
    """Cells ``a+b+...`` of the rows of a 2-D array of object ids.

    The text of every id ``0..max`` is made once; each block looks its ids
    up and joins the columns with ``np.char.add``.
    """
    table = np.array([str(i) for i in range(int(index.max()) + 1)])

    def cells(block):
        text = table[index[block, 0]]
        for j in range(1, index.shape[1]):
            text = np.char.add(np.char.add(text, "+"), table[index[block, j]])
        return text.tolist()

    return cells


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="selbounds",
        description=(
            "Entropy-based performance bounds for resource-constrained "
            "selection systems"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output encoding (default json)")
    common.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    common.add_argument("--seed", type=int, default=None, help="override the random seed")
    common.add_argument("--threads", type=int, default=1,
                        help="ignored: everything runs in one thread (kept because "
                             "the perfbench sweep workload passes --threads 1)")
    common.add_argument("--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE,
                        help="numeric tolerance for feasibility and bound checks")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "bounds", parents=[common],
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
        "extrema", parents=[common],
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
        "curve", parents=[common],
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
        "transform", parents=[common],
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
        "sweep", parents=[common],
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

    p = sub.add_parser(
        "scenario", parents=[common],
        help="cache-prefetch or scheduling application report",
        description=(
            "Runs a configured application scenario: bound report, exact "
            "optimal rate and a seeded Monte Carlo estimate."
        ),
    )
    p.add_argument("--config", metavar="FILE", required=True)

    p = sub.add_parser(
        "oracle-check", parents=[common],
        help="independent randomized/brute-force validators",
        description=(
            "Cross-checks the discrete minimum-entropy search against a "
            "randomized polytope descent, or the composite transforms "
            "against total enumeration."
        ),
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--min-entropy", action="store_true")
    group.add_argument("--transform", action="store_true")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--pi", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--iters", type=int, default=5000)
    p.add_argument("--trials", type=int, default=20)

    return parser


def _require(args, names: list[str]) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise _UsageError(f"--{name} is required for this invocation")


def _cmd_bounds(args) -> tuple[str, str | None]:
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
    if args.format == "json":
        return _json(report.to_dict()), None
    d = report.to_dict()
    cols = ["n", "m", "k", "mode", "entropy_bits"]
    vals = [str(d["n"]), str(d["m"]), str(d["k"]), d["mode"], format_number(d["entropy_bits"])]
    for key, value in d["pi"].items():
        cols.append(f"pi_{key}")
        vals.append(format_number(value))
    for key, value in d["psi"].items():
        cols.append(f"psi_{key}")
        vals.append(format_number(value))
    if "pi_observed" in d:
        cols.append("pi_observed")
        vals.append(format_number(d["pi_observed"]))
    cols.append("clamped")
    vals.append(";".join(d["clamped"]))
    return ",".join(cols) + "\n" + ",".join(vals) + "\n", None


def _cmd_extrema(args) -> tuple[str | Iterable[str], str | None]:
    shape = SystemShape(args.n, args.m, args.pi)
    if args.which == "max":
        dist = max_entropy_distribution(shape)
        bits = entropy(dist)
        meta = {"which": "max", "n": shape.n, "m": shape.m, "pi": shape.pi,
                "entropy_bits": bits, "probs": [float(p) for p in dist.probs]}
    else:
        result = min_entropy(shape)
        dist = result.argmin_distribution
        bits = result.min_entropy_bits
        meta = {
            "which": "min", "n": shape.n, "m": shape.m, "pi": shape.pi,
            "entropy_bits": bits,
            "probs": [float(p) for p in dist.probs],
            "index_bound": result.index_bound,
            "argmin_index": result.argmin_index,
            "candidates": [
                {"p_hat": c.p_hat, "entropy_bits": c.entropy_bits}
                for c in result.candidates
            ],
        }
    if args.format == "json":
        return _json(meta), None
    head = (
        f"# which={args.which} n={shape.n} m={shape.m} pi={format_number(shape.pi)} "
        f"entropy_bits={format_number(bits)}\n"
    )
    return _csv_blocks(head, dist.n, [_number_cells(dist.probs)]), None


def _cmd_curve(args) -> tuple[str | Iterable[str], str | None]:
    shape = SystemShape(args.n, args.m, args.pi)
    samples = piecewise_curve(shape, args.samples)
    if args.format == "json":
        return _json({
            "n": shape.n, "m": shape.m, "pi": shape.pi,
            "samples": [dataclasses.asdict(s) for s in samples],
        }), None
    columns = [
        _number_cells([s.p_hat for s in samples]),
        _number_cells([s.entropy_bits for s in samples]),
        _int_cells([s.segment_index for s in samples]),
        _flag_cells([s.is_junction for s in samples]),
    ]
    head = "p_hat,entropy_bits,segment_index,is_junction\n"
    return _csv_blocks(head, len(samples), columns), None


def _cmd_transform(args) -> tuple[str | Iterable[str], str | None]:
    dist = make_distribution(read_weights(args.dist))
    if args.mode == "unique":
        ts = transform_unique(dist, args.m, args.k, args.tolerance)
    else:
        ts = transform_repeated(dist, args.m, args.k, args.tolerance)
    header = {
        "n_prime": ts.n_prime, "m_prime": ts.m_prime, "mode": ts.mode,
        "k": ts.k, "entropy_bits": entropy(ts.dist),
    }
    if args.format == "json":
        return _json({
            **header,
            "selection_mismatch": ts.selection_mismatch,
            "composites": [
                {"ids": [int(i) for i in ids], "probability": float(p),
                 "in_selected_set": bool(flag)}
                for ids, p, flag in zip(ts.composite_index, ts.dist.probs, ts.in_selected)
            ],
        }), None
    head = f"# {json.dumps(header)}\ncomposite_ids,probability,in_selected_set\n"
    columns = [
        _id_cells(ts.composite_index),
        _number_cells(ts.dist.probs),
        _flag_cells(ts.in_selected),
    ]
    return _csv_blocks(head, ts.n_prime, columns), None


def _cmd_sweep(args) -> tuple[str, str | None]:
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
        return _json(payload), None
    return records_to_csv(records), summary_text


def _cmd_scenario(args) -> tuple[str, str | None]:
    if args.format == "csv":
        raise _UsageError("scenario reports are JSON only; use --format json")
    path = Path(args.config)
    cfg = parse_scenario_config(path.read_text(encoding="utf-8"), base_dir=path.parent)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = run_scenario(cfg, tol=args.tolerance)
    return _json(report.to_dict()), None


def _cmd_oracle_check(args) -> tuple[str, str | None]:
    seed = 0 if args.seed is None else args.seed
    if args.min_entropy:
        _require(args, ["n", "m", "pi"])
        shape = SystemShape(args.n, args.m, args.pi)
        rng = derive_rng(seed, 1)
        found = oracle_min_entropy(shape, args.restarts, args.iters, rng)
        exact = min_entropy(shape).min_entropy_bits
        return _json({
            "check": "min_entropy", "n": shape.n, "m": shape.m, "pi": shape.pi,
            "restarts": args.restarts, "iters": args.iters, "seed": seed,
            "oracle_entropy_bits": found,
            "exact_min_entropy_bits": exact,
            "oracle_minus_exact": found - exact,
        }), None
    _require(args, ["n", "k"])
    rng = derive_rng(seed, 2)
    report = oracle_transform_check(args.n, args.k, args.trials, rng)
    report = {"check": "transform", "seed": seed, **report}
    return _json(report), None


_COMMANDS = {
    "bounds": _cmd_bounds,
    "extrema": _cmd_extrema,
    "curve": _cmd_curve,
    "transform": _cmd_transform,
    "sweep": _cmd_sweep,
    "scenario": _cmd_scenario,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
