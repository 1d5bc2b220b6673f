"""Command-line interface.

Subcommands: parse, featurize, fit, apply, evaluate, compare, synth.
Option precedence is CLI flag > --config file > built-in default.
Exit codes: 0 success, 1 usage or validation problem, 2 data error,
3 internal invariant violation.
"""

import argparse
import json
import sys

from . import calibrate, pipeline
from .errors import SqlCalibError
from .parser import parse_sql
from .sqlast import SelectStatement, canonicalize, decompose, extract_clauses

DEFAULTS = {
    "schema": "mps-nb",
    "scope": "union",
    "method": "mps",
    "penalty": 1.0,
    "bins": 10,
    "fractions": "0.01,0.05,0.1,0.2",
    "seed": 0,
    "mode": "calibrated",
    "n": 1000,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage problems are exit 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="sqlcalib", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with defaults for any flag")

    p = sub.add_parser("parse", help="print the decomposition of one query as JSON")
    p.add_argument("sql", help="SQL text to parse")
    common(p)

    p = sub.add_parser("featurize", help="candidate JSONL -> feature JSONL")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--schema", choices=["ps", "mps-nucleus", "mps-beam", "mps-nb"])
    p.add_argument("--scope", choices=["nucleus", "beam", "union"])
    common(p)

    p = sub.add_parser("fit", help="fit a calibrator on a feature file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--method", choices=["ps", "mps"])
    p.add_argument("--penalty", type=float)
    p.add_argument("--mask", help="keep:names or drop:names (globs allowed)")
    p.add_argument("--subsample-fraction", type=float)
    p.add_argument("--subsample-count", type=int)
    p.add_argument("--seed", type=int)
    common(p)

    p = sub.add_parser("apply", help="score a feature file, write scored JSONL only")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True)
    common(p)

    p = sub.add_parser("evaluate", help="metrics + reliability tables for a feature file")
    p.add_argument("--input", required=True)
    p.add_argument("--model", help="model JSON; omit to evaluate raw probabilities")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--bins", type=int)
    p.add_argument("--group-by", dest="group_by", help="per-group reports (field: group)")
    common(p)

    p = sub.add_parser("compare", help="stratify two scored files by probability shift")
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--fractions", help="comma-separated fractions in (0, 0.5]")
    common(p)

    p = sub.add_parser("synth", help="write a synthetic feature file")
    p.add_argument("--n", type=int)
    p.add_argument("--mode", choices=["calibrated", "platt", "mps-signal"])
    p.add_argument("--seed", type=int)
    p.add_argument("--output", required=True)
    common(p)

    return top


def _resolve(args: argparse.Namespace, key: str):
    """CLI flag if given, else config-file entry, else built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    config = getattr(args, "_config", {})
    if key in config:
        return config[key]
    return DEFAULTS.get(key)


def _tree_json(tree):
    if isinstance(tree, SelectStatement):
        return {"select": extract_clauses(tree)}
    return {"set_op": tree.op, "left": _tree_json(tree.left), "right": _tree_json(tree.right)}


def run(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "parse":
        tree = parse_sql(args.sql)
        root = decompose(tree)
        doc = {
            "canonical": canonicalize(tree),
            "set_op": root.set_op,
            "subq1": _tree_json(root.subq1) if root.subq1 is not None else None,
            "subq2": _tree_json(root.subq2) if root.subq2 is not None else None,
        }
        print(json.dumps(doc, indent=2))
        return 0

    if cmd == "featurize":
        summary = pipeline.featurize_command(
            args.input, args.output, _resolve(args, "schema"), _resolve(args, "scope")
        )
        print(
            f"featurized {summary.used}/{summary.input_records} records "
            f"({summary.unusable} unusable, {summary.failed} failed, "
            f"{summary.candidate_parse_failures} candidate parse failures)"
        )
        return 0

    if cmd == "fit":
        model = pipeline.fit_command(
            args.input,
            _resolve(args, "method"),
            args.output,
            penalty=float(_resolve(args, "penalty")),
            mask=_resolve(args, "mask"),
            subsample_fraction=_resolve(args, "subsample_fraction"),
            subsample_count=_resolve(args, "subsample_count"),
            seed=int(_resolve(args, "seed")),
        )
        print(pipeline.standardized_weight_table(model))
        print(f"model written with {len(model.weights)} weights (+ intercept)")
        return 0

    if cmd == "apply":
        n = pipeline.apply_command(args.input, args.model, args.output)
        print(f"scored {n} records")
        return 0

    if cmd == "evaluate":
        reports = pipeline.evaluate_command(
            args.input,
            args.model,
            args.output,
            bins=int(_resolve(args, "bins")),
            group_by=_resolve(args, "group_by"),
        )
        overall = reports["overall"]
        auc = "n/a" if overall.auc is None else f"{overall.auc:.4f}"
        print(
            f"n={overall.n} brier={overall.brier:.4f} ece={overall.ece:.4f} "
            f"ace={overall.ace:.4f} auc={auc}"
        )
        for name, rep in reports["groups"].items():
            auc = "n/a" if rep.auc is None else f"{rep.auc:.4f}"
            print(
                f"  group={name} n={rep.n} brier={rep.brier:.4f} ece={rep.ece:.4f} "
                f"ace={rep.ace:.4f} auc={auc}"
            )
        return 0

    if cmd == "compare":
        fractions = _parse_fractions(_resolve(args, "fractions"))
        strata = pipeline.compare_command(args.input_a, args.input_b, args.output, fractions)
        for s in strata:
            print(
                f"{s.side:>6} {s.fraction:>5.0%}: n={s.count} delta={s.mean_delta:+.3f} "
                f"a={s.mean_a:.3f} b={s.mean_b:.3f} accuracy={s.accuracy:.3f}"
            )
        return 0

    if cmd == "synth":
        sidecar = pipeline.synth_command(
            int(_resolve(args, "n")),
            _resolve(args, "mode"),
            int(_resolve(args, "seed")),
            args.output,
        )
        print(json.dumps(sidecar))
        return 0

    raise UsageError(f"unknown command {cmd!r}")


def _parse_fractions(raw) -> tuple:
    if isinstance(raw, (list, tuple)):
        values = [float(v) for v in raw]
    else:
        values = [float(v) for v in str(raw).split(",") if v.strip()]
    if not values or any(not 0 < f <= 0.5 for f in values):
        raise UsageError(f"fractions must lie in (0, 0.5]; got {raw!r}")
    return tuple(values)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "config", None):
            with open(args.config, encoding="utf-8") as fh:
                args._config = json.load(fh)
        return run(args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SqlCalibError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
