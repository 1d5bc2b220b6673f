"""Command-line interface.

Subcommands: parse, featurize, fit, apply, evaluate, compare, synth.
Each default lives on its flag; --config entries replace a command's
defaults, so a flag given on the command line still wins.
Exit codes: 0 success, 1 usage or validation problem, 2 data error,
3 internal invariant violation.
"""

import argparse
import json
import sys

from .clausefreq import BASE_SCHEMAS, METHODS, SCOPES, SYNTH_MODES
from .errors import SqlCalibError
from .parser import parse_sql
from .sqlast import SelectStatement, canonicalize, decompose, extract_clauses


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage problems are exit 1
        raise UsageError(message)


def fraction_list(raw: str) -> tuple:
    """``--fractions`` text as a tuple of fractions, each in (0, 0.5]."""
    values = [float(v) for v in raw.split(",") if v.strip()]
    if not values or any(not 0 < f <= 0.5 for f in values):
        raise UsageError(f"fractions must lie in (0, 0.5]; got {raw!r}")
    return tuple(values)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="sqlcalib", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="print the decomposition of one query as JSON")
    p.add_argument("sql", help="SQL text to parse")

    p = sub.add_parser("featurize", help="candidate JSONL -> feature JSONL")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--schema", choices=list(BASE_SCHEMAS), default="mps-nb")
    p.add_argument("--scope", choices=SCOPES, default="union")

    p = sub.add_parser("fit", help="fit a calibrator on a feature file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--method", choices=METHODS, default="mps")
    p.add_argument("--penalty", type=float, default=1.0)
    p.add_argument("--mask", help="keep:names or drop:names (globs allowed)")
    p.add_argument("--subsample-fraction", type=float)
    p.add_argument("--subsample-count", type=int)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("apply", help="score a feature file, write scored JSONL only")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("evaluate", help="metrics + reliability tables for a feature file")
    p.add_argument("--input", required=True)
    p.add_argument("--model", help="model JSON; omit to evaluate raw probabilities")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--group-by", dest="group_by", help="per-group reports (field: group)")

    p = sub.add_parser("compare", help="stratify two scored files by probability shift")
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--fractions", type=fraction_list, default="0.01,0.05,0.1,0.2",
                   help="comma-separated fractions in (0, 0.5]")

    p = sub.add_parser("synth", help="write a synthetic feature file")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--mode", choices=SYNTH_MODES, default="calibrated")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.set_defaults(_parser=p, _flags={action.dest: action for action in p._actions})

    # a config file may serve several commands, so it may hold any command's flags;
    # "help" and "config" are argparse's and the file's own, never entries
    keys = {a.dest for cmd in sub.choices.values() for a in cmd._actions} - {"help", "config"}
    top.set_defaults(_config_keys=keys)
    return top


def _config_entry(flag: argparse.Action, key: str, value):
    """A config entry checked like the flag it stands for: it is the flag's
    text, a JSON string or number, run through the flag's type and choices."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"config entry {key!r} must be a string or a number, got {value!r}")
    try:
        value = flag.type(str(value)) if flag.type else str(value)
    except ValueError:
        raise UsageError(f"config entry {key!r}: invalid {flag.type.__name__} {value!r}") from None
    except UsageError as exc:  # a type's own range check, as --fractions has
        raise UsageError(f"config entry {key!r}: {exc}") from None
    if flag.choices is not None and value not in flag.choices:
        raise UsageError(f"config entry {key!r}: {value!r} is not one of {list(flag.choices)}")
    return value


def _escaped(text: str) -> str:
    """``text``, which may be any JSON string, as stdout can print it: what
    stdout's encoding cannot hold (a lone surrogate) is escaped, ``\\ud800``."""
    encoding = sys.stdout.encoding or "utf-8"
    return text.encode(encoding, "backslashreplace").decode(encoding)


def _weight_table(model) -> str:
    """A fitted model's standardized weights, largest first. Each name is
    escaped before it is padded, so the weights line up."""
    rows = sorted(model.standardized_weights().items(), key=lambda kv: -abs(kv[1]))
    names = [_escaped(name) for name, _ in rows]
    width = max(map(len, names))
    lines = [f"{'feature':<{width}}  std.weight"]
    lines += [f"{name:<{width}}  {value:+.4f}" for name, (_, value) in zip(names, rows)]
    return "\n".join(lines)


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

    from . import pipeline  # not for parse or usage errors; numpy loads only in numeric commands

    if cmd == "featurize":
        summary = pipeline.featurize_command(args.input, args.output, args.schema, args.scope)
        print(
            f"featurized {summary.used}/{summary.input_records} records "
            f"({summary.unusable} unusable, {summary.failed} failed, "
            f"{summary.candidate_parse_failures} candidate parse failures)"
        )
        return 0

    if cmd == "fit":
        model = pipeline.fit_command(
            args.input,
            args.method,
            args.output,
            penalty=args.penalty,
            mask=args.mask,
            subsample_fraction=args.subsample_fraction,
            subsample_count=args.subsample_count,
            seed=args.seed,
        )
        print(_weight_table(model))
        print(f"model written with {len(model.weights)} weights (+ intercept)")
        return 0

    if cmd == "apply":
        n = pipeline.apply_command(args.input, args.model, args.output)
        print(f"scored {n} records")
        return 0

    if cmd == "evaluate":
        reports = pipeline.evaluate_command(
            args.input, args.model, args.output, bins=args.bins, group_by=args.group_by
        )
        groups = ((f"  group={name} ", rep) for name, rep in reports["groups"].items())
        for prefix, rep in [("", reports["overall"]), *groups]:
            auc = "n/a" if rep.auc is None else f"{rep.auc:.4f}"
            print(_escaped(
                f"{prefix}n={rep.n} brier={rep.brier:.4f} ece={rep.ece:.4f} "
                f"ace={rep.ace:.4f} auc={auc}"
            ))
        return 0

    if cmd == "compare":
        strata = pipeline.compare_command(args.input_a, args.input_b, args.output, args.fractions)
        for s in strata:
            print(
                f"{s.side:>6} {s.fraction:>5.0%}: n={s.count} delta={s.mean_delta:+.3f} "
                f"a={s.mean_a:.3f} b={s.mean_b:.3f} accuracy={s.accuracy:.3f}"
            )
        return 0

    if cmd == "synth":
        sidecar = pipeline.synth_command(args.n, args.mode, args.seed, args.output)
        print(json.dumps(sidecar))
        return 0

    raise UsageError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    import os
    # numpy's BLAS splits a fit's sums over a thread per CPU: pin one before a command
    # imports numpy, unless the user chose a count or the caller has numpy loaded
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    if "numpy" not in sys.modules and os.environ.keys().isdisjoint(blas):
        os.environ.update(dict.fromkeys(blas, "1"))
    try:
        top = build_parser()  # one per call: config defaults never reach the next call
        args = top.parse_args(argv)
        if args.config:
            try:
                fh = open(args.config, encoding="utf-8")
            except OSError as exc:  # missing, a directory, unreadable
                raise UsageError(f"config {args.config} cannot be opened: {exc.strerror}") from None
            with fh:
                try:
                    config = json.load(fh)
                except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, deep nesting
                    raise UsageError(f"config {args.config} is not JSON: {exc}") from None
            if not isinstance(config, dict):
                raise UsageError(f"config {args.config} must be a JSON object")
            unknown = ", ".join(map(repr, sorted(config.keys() - args._config_keys)))
            if unknown:
                raise UsageError(f"config {args.config}: unknown key {unknown}")
            # checked entries become the command's defaults; a given flag still wins
            args._parser.set_defaults(**{
                key: _config_entry(args._flags[key], key, value)
                for key, value in config.items()
                if key in args._flags
            })
            args = top.parse_args(argv)
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
