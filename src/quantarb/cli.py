"""Command-line harness: validate, eval, scale, winloss, synth, oracle.

Flags mirror environment variables prefixed ``QUANTARB_`` (flag wins, then
env, then default); a variable is read only by a subcommand that has its
flag. Exit codes: 0 success, 2 input or validation failure,
3 unexpected runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

from .arbitration import ArbitratorConfig
from .errors import ArbitrationError, NonFinite, ZeroDenominator
from .metrics import mase_scale
from .oracle import oracle_select, switching_stats
from .panelio import load_panels, save_panels
from .reporting import (
    METHODS,
    emit_report,
    emit_scaling,
    run_evaluation,
    run_pool_scaling,
    run_win_loss,
    selection_accuracy_table,
)

ENV_PREFIX = "QUANTARB_"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class _EnvDefault:
    """A flag default read from ``QUANTARB_<name>``, resolved only when the
    subcommand that has the flag runs, so a bad value fails that subcommand
    alone. A flag with fixed ``choices`` has its environment value checked
    against them here, since argparse checks only values given as flags."""

    def __init__(
        self,
        name: str,
        cast: Callable[[str], object],
        fallback: object,
        choices: Sequence[str] | None = None,
    ) -> None:
        self.name, self.cast, self.fallback = ENV_PREFIX + name, cast, fallback
        self.choices = choices

    def resolve(self) -> object:
        raw = os.environ.get(self.name)
        if raw is None:
            return self.fallback
        if self.choices is not None and raw not in self.choices:
            raise ValueError(
                f"environment variable {self.name}={raw!r} is not one of {', '.join(self.choices)}"
            )
        try:
            return self.cast(raw)
        except ValueError:
            raise ValueError(f"environment variable {self.name}={raw!r} is invalid")


def _resolve_env_defaults(args: argparse.Namespace) -> argparse.Namespace:
    for key, value in vars(args).items():
        if isinstance(value, _EnvDefault):
            setattr(args, key, value.resolve())
    return args


def _add_config_flags(parser: argparse.ArgumentParser, mode: bool) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=_EnvDefault("SEED", int, 0),
        help="master random seed (default 0)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=_EnvDefault("WINDOW", int, None),
        help="performance window capacity; default min(horizon, 16)",
    )
    parser.add_argument(
        "--n-total",
        type=int,
        default=_EnvDefault("N_TOTAL", int, 1500),
        help="pooled sample budget per timestep (default 1500)",
    )
    if not mode:  # eval's and winloss's synapse methods each pin their own
        return
    modes = ("dynamic", "static-uniform")
    parser.add_argument(
        "--mode",
        choices=modes,
        default=_EnvDefault("MODE", str, "dynamic", modes),
        help="weighting mode (default dynamic)",
    )


def _add_output_flags(parser: argparse.ArgumentParser, formats: Sequence[str]) -> None:
    parser.add_argument(
        "--format",
        choices=formats,
        default=_EnvDefault("FORMAT", str, "table", formats),
        help="output format (default table)",
    )
    parser.add_argument("--out", default=None, help="write output to this file")


def _config_from(args: argparse.Namespace) -> ArbitratorConfig:
    return ArbitratorConfig(
        n_total=args.n_total,
        window_capacity=args.window,
        mode=getattr(args, "mode", ArbitratorConfig.mode),
    )


def _parse_methods(raw: str) -> tuple[str, ...]:
    methods = tuple(m.strip() for m in raw.split(",") if m.strip())
    if not methods:
        raise ValueError("method list is empty")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {', '.join(METHODS)}")
    return methods


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out is None:
        sys.stdout.write(text)


def _load(args: argparse.Namespace, strict: bool = True) -> list:
    """The panels at ``args.path``; an empty set fails before any output."""
    panels = load_panels(args.path, strict=strict)
    if not panels:
        raise ValueError("at least one panel is required")
    return panels


def _cmd_validate(args: argparse.Namespace) -> int:
    panels = _load(args, strict=not args.lenient)
    for tagged in panels:
        p = tagged.panel
        print(
            f"{p.series_id}: {p.n_models} models, horizon {p.horizon}, "
            f"context {len(p.context)}, domain {tagged.metadata.domain}"
        )
        if p.actuals is not None:
            try:  # scoring needs this scale; arbitration never reads it
                mase_scale(p.context, p.seasonality)
            except (NonFinite, ZeroDenominator) as exc:
                print(f"warning: panel {p.series_id!r}: {exc}; scoring will reject it",
                      file=sys.stderr)
    print(f"{len(panels)} panel(s) valid")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    methods = _parse_methods(args.methods)
    rows = run_evaluation(
        _load(args),
        methods=methods,
        config=_config_from(args),
        seed=args.seed,
        workers=args.workers,
        include_series=args.per_series,
    )
    _emit(emit_report(rows, args.format, args.out), args)
    return EXIT_OK


def _cmd_scale(args: argparse.Namespace) -> int:
    panels = _load(args)
    order = tuple(m.strip() for m in args.order.split(",") if m.strip())
    rows = run_pool_scaling(panels, order, config=_config_from(args), seed=args.seed)
    _emit(emit_scaling(rows, args.format, args.out), args)
    return EXIT_OK


def _cmd_winloss(args: argparse.Namespace) -> int:
    panels = _load(args)
    result = run_win_loss(
        panels, args.a, args.b, config=_config_from(args), seed=args.seed
    )
    for metric in ("crps", "mase"):
        wins, losses, ties = result[metric]
        print(f"{metric}: {args.a} vs {args.b} -> wins {wins}, losses {losses}, ties {ties}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    # Imported here: the suite's `statistics` import (3-4 ms) serves no other command.
    from .synthetic import build_benchmark_suite

    suite = build_benchmark_suite(args.n, seed=args.seed, n_experts=args.experts)
    count = save_panels(args.out, suite)
    print(f"wrote {count} panel(s) to {args.out}")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    panels = _load(args)
    traces = [oracle_select(t.panel) for t in panels]
    tagged_traces = [
        (t.metadata.domain, t.metadata.horizon_class, trace) for t, trace in zip(panels, traces)
    ]
    print("mean oracle switch percentage by (domain, horizon class):")
    for (domain, horizon_class), pct in switching_stats(tagged_traces).items():
        print(f"  {domain:<14} {horizon_class:<8} {100.0 * pct:6.1f}%")
    if not args.no_topk:
        picks = [trace.selections for trace in traces]
        table = selection_accuracy_table(panels, picks, config=_config_from(args), seed=args.seed)
        ks = range(1, len(table["synapse"]) + 1)
        print("top-k oracle agreement (pooled over timesteps):")
        print("  k        " + "  ".join(f"{k:>6d}" for k in ks))
        for method in ("synapse", "median"):
            cells = "  ".join(f"{v:6.4f}" for v in table[method])
            print(f"  {method:<8} {cells}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantarb",
        description=(
            "Arbitrate quantile forecasts from a model pool and score the "
            "result against ensemble and oracle baselines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a panel file or directory")
    p_validate.add_argument("path", help="panel file (.jsonl) or directory")
    p_validate.add_argument(
        "--lenient", action="store_true", help="ignore unknown record fields"
    )
    p_validate.set_defaults(func=_cmd_validate)

    p_eval = sub.add_parser("eval", help="score methods over a panel suite")
    p_eval.add_argument("path", help="panel file (.jsonl) or directory")
    p_eval.add_argument(
        "--methods",
        default=_EnvDefault("METHODS", str, ",".join(METHODS)),
        help="comma-separated method list (default: all)",
    )
    p_eval.add_argument(
        "--workers",
        type=int,
        default=_EnvDefault("WORKERS", int, None),
        help="panel-parallel worker threads, at least 1 (default serial)",
    )
    p_eval.add_argument(
        "--per-series", action="store_true", help="also emit one row per series"
    )
    _add_config_flags(p_eval, mode=False)
    _add_output_flags(p_eval, ("table", "csv", "csv-long", "json"))
    p_eval.set_defaults(func=_cmd_eval)

    p_scale = sub.add_parser("scale", help="pool-scaling sweep over model prefixes")
    p_scale.add_argument("path", help="panel file (.jsonl) or directory")
    p_scale.add_argument(
        "--order", required=True, help="comma-separated model names, prefix order"
    )
    _add_config_flags(p_scale, mode=True)
    _add_output_flags(p_scale, ("table", "csv", "json"))
    p_scale.set_defaults(func=_cmd_scale)

    p_winloss = sub.add_parser("winloss", help="pairwise per-panel comparison")
    p_winloss.add_argument("path", help="panel file (.jsonl) or directory")
    p_winloss.add_argument(
        "--a", required=True, help="first method: one method name or model:<name>"
    )
    p_winloss.add_argument(
        "--b", required=True, help="second method: one method name or model:<name>"
    )
    _add_config_flags(p_winloss, mode=False)
    p_winloss.set_defaults(func=_cmd_winloss)

    p_synth = sub.add_parser("synth", help="generate the synthetic benchmark suite")
    p_synth.add_argument("--n", type=int, required=True, help="number of panels")
    p_synth.add_argument("--out", required=True, help="output panel file")
    p_synth.add_argument(
        "--experts",
        type=int,
        default=None,
        help="fixed pool size (default: cycle 2..6)",
    )
    p_synth.add_argument(
        "--seed", type=int, default=_EnvDefault("SEED", int, 0), help="suite seed"
    )
    p_synth.set_defaults(func=_cmd_synth)

    p_oracle = sub.add_parser("oracle", help="oracle switching and top-k agreement")
    p_oracle.add_argument("path", help="panel file (.jsonl) or directory")
    p_oracle.add_argument(
        "--no-topk", action="store_true", help="skip the top-k agreement table"
    )
    _add_config_flags(p_oracle, mode=True)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = _resolve_env_defaults(parser.parse_args(argv))
        return args.func(args)
    except (ArbitrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
