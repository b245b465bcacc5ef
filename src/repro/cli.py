"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — one experiment with explicit parameters, printing the §VII-C
  metrics and optionally saving a JSON record;
* ``sweep`` — one configuration across many seeds, in parallel, through
  the content-addressed result cache, with aggregate statistics;
* ``figure`` — regenerate a paper figure's data series at a chosen scale;
* ``compare`` — run all four algorithms side by side at one configuration;
* ``lint`` — the determinism & protocol-safety static analysis suite
  (forwards to :mod:`repro.lint`; see ``docs/static-analysis.md``);
* ``run-node`` — one live consortium node process over TCP (driven by a
  manifest file; see ``docs/transport.md``); with ``--data-dir`` the
  chain persists to sqlite and restarts recover from disk;
* ``localnet`` — an N-node localhost cluster: spawns ``run-node``
  processes, drives a workload, reports convergence and wall-clock TPS;
* ``explorer`` — the block-explorer JSON API over a node's chain
  database (see ``docs/storage.md``).

Examples::

    python -m repro run --algorithm themis --nodes 40 --epochs 10
    python -m repro sweep -a themis -n 24 --epochs 4 --seeds 8 --jobs 4
    python -m repro figure fig4 --nodes 30 --epochs 10 --jobs 3
    python -m repro compare --nodes 24 --epochs 4 --jobs 4
    python -m repro localnet --nodes 4 --height 5

``--jobs 0`` uses every core.  ``sweep`` caches by default (under
``$REPRO_CACHE_DIR`` or the user cache directory) so replays are instant;
``run``/``figure``/``compare`` cache when ``--cache-dir`` is given.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.errors import SimulationError
from repro.sim.cache import ResultCache, default_cache_dir
from repro.sim.engine import ExperimentEngine
from repro.sim.reporting import ascii_chart, save_results, summary_line
from repro.sim.runner import ExperimentConfig
from repro.sim.scenarios import (
    POW_FAMILY,
    attack_spec,
    epoch_length_spec,
    equality_spec,
    fork_spec,
    scalability_spec,
)
from repro.sim.sweeps import summarize


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", "-n", type=int, default=24, help="consensus nodes")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--epochs", type=int, default=6, help="difficulty epochs")
    parser.add_argument("--beta", type=float, default=8.0, help="epoch factor Δ/n")
    parser.add_argument("--i0", type=float, default=10.0, help="block interval (s)")
    parser.add_argument(
        "--vulnerable", type=float, default=0.0, help="vulnerable node ratio"
    )
    parser.add_argument("--save", type=str, default=None, help="write JSON record")
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (0 = all cores, 1 = in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or user cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache entirely",
    )


def _config_from_args(args: argparse.Namespace, algorithm: str) -> ExperimentConfig:
    return ExperimentConfig(
        algorithm=algorithm,  # type: ignore[arg-type]
        n=args.nodes,
        seed=args.seed,
        epochs=args.epochs,
        beta=args.beta,
        i0=args.i0,
        vulnerable_ratio=args.vulnerable,
        pbft_rounds=max(20, args.epochs * args.nodes),
    )


def _engine_from_args(
    args: argparse.Namespace, *, cache_by_default: bool = False
) -> ExperimentEngine:
    cache = None
    if not args.no_cache:
        if args.cache_dir is not None:
            cache = ResultCache(args.cache_dir)
        elif cache_by_default:
            cache = ResultCache(default_cache_dir())
    return ExperimentEngine(
        jobs=args.jobs,
        cache=cache,
        progress=lambda line: print(line, file=sys.stderr),
    )


def _parse_seeds(text: str) -> list[int]:
    """``"5"`` → seeds 0..4; ``"2,5,9"`` → exactly those seeds."""
    if "," in text:
        return [int(part) for part in text.split(",") if part.strip()]
    count = int(text)
    if count < 1:
        raise SimulationError("need at least one seed")
    return list(range(count))


def _report_engine(engine: ExperimentEngine) -> None:
    print(engine.last_report.summary())
    if engine.cache is not None:
        print(engine.cache.stats.summary())


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args, args.algorithm)
    engine = _engine_from_args(args)
    result = engine.run(cfg)
    print(summary_line(result))
    if result.equality:
        print("\nσ_f² per epoch:")
        print(ascii_chart({"sigma_f^2": result.equality}, logy=True))
    if args.save:
        path = save_results([result], args.save)
        print(f"\nsaved record to {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sim.sweeps import sweep

    cfg = _config_from_args(args, args.algorithm)
    seeds = _parse_seeds(args.seeds)
    engine = _engine_from_args(args, cache_by_default=True)
    results = sweep(experiment=cfg, seeds=seeds, engine=engine)
    for result in results:
        print(summary_line(result))
    print()
    print(f"tps: {summarize(results, lambda r: r.tps).format(' tps')}")
    if all(r.equality for r in results):
        from repro.sim.metrics import stable_value

        sigma = summarize(results, lambda r: stable_value(r.equality, robust=True))
        print(f"stable σ_f²: {sigma.format()}")
    _report_engine(engine)
    if args.save:
        path = save_results(results, args.save)
        print(f"\nsaved records to {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    engine = _engine_from_args(args)
    configs = [
        _config_from_args(args, algorithm) for algorithm in (*POW_FAMILY, "pbft")
    ]
    results = engine.run_many(configs)
    for result in results:
        print(summary_line(result))
    _report_engine(engine)
    if args.save:
        path = save_results(results, args.save)
        print(f"\nsaved records to {path}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    name = args.name
    engine = _engine_from_args(args)
    if name in ("fig4", "fig5"):
        spec = equality_spec(n=args.nodes, epochs=args.epochs, seed=args.seed)
        results = engine.run_many(spec.grid)
        series = {}
        for cfg, result in zip(spec.grid, results, strict=True):
            series[cfg.algorithm] = (
                result.equality if name == "fig4" else result.unpredictability
            )
            print(summary_line(result))
        metric = "σ_f²" if name == "fig4" else "σ_p²"
        print(f"\n{metric} per epoch (log scale):")
        print(ascii_chart(series, logy=True))
    elif name == "fig6":
        ns = (16, 50, 100, 200)
        spec = scalability_spec(ns=ns, seed=args.seed)
        results = engine.run_many(spec.grid)
        for start in range(0, len(spec.grid), len(ns)):
            algorithm = spec.grid[start].algorithm
            row = results[start : start + len(ns)]
            print(
                f"{algorithm:>12s}: "
                + "  ".join(f"n={r.config.n}:{r.tps:7.0f}" for r in row)
            )
    elif name == "fig7":
        ratios = (0.0, 0.16, 0.32)
        spec = attack_spec(ratios=ratios, n=args.nodes, seed=args.seed)
        results = engine.run_many(spec.grid)
        for start in range(0, len(spec.grid), len(ratios)):
            algorithm = spec.grid[start].algorithm
            row = results[start : start + len(ratios)]
            print(
                f"{algorithm:>12s}: "
                + "  ".join(
                    f"R={r.config.vulnerable_ratio:.2f}:{r.tps:7.0f}" for r in row
                )
            )
    elif name == "fig8":
        spec = fork_spec(n=args.nodes, seed=args.seed)
        results = engine.run_many(spec.grid)
        for cfg, result in zip(spec.grid, results, strict=True):
            report = result.fork
            assert report is not None  # PoW-family runs always carry one
            print(
                f"{cfg.algorithm:>12s}: fork rate {100 * report.fork_rate:5.2f}% "
                f"longest {report.longest_duration}"
            )
    elif name == "fig9":
        from repro.sim.metrics import stable_value

        # Same-block-height comparison (§VII-D): height = epochs·8·n.
        height_factor = max(16, args.epochs * 8)
        spec = epoch_length_spec(
            n=args.nodes, seed=args.seed, height_factor=height_factor
        )
        results = engine.run_many(spec.grid)
        for cfg, result in zip(spec.grid, results, strict=True):
            print(
                f"beta={cfg.beta:5.1f}: stable σ_f² = "
                f"{stable_value(result.equality):.3e}"
            )
    else:
        print(f"unknown figure {name!r}; choose fig4..fig9", file=sys.stderr)
        return 2
    _report_engine(engine)
    return 0


def _cmd_run_node(args: argparse.Namespace) -> int:
    from repro.live.node_runner import main as node_main

    return node_main(
        manifest_path=args.manifest,
        node_id=args.node_id,
        data_dir=args.data_dir,
        tx_rate=args.tx_rate,
        duration=args.duration,
    )


def _cmd_explorer(args: argparse.Namespace) -> int:
    from repro.explorer.http import main as explorer_main

    explorer_main(db_path=args.db, host=args.host, port=args.port)
    return 0


def _cmd_localnet(args: argparse.Namespace) -> int:
    from repro.live.localnet import LocalnetConfig, run_localnet

    config = LocalnetConfig(
        nodes=args.nodes,
        target_height=args.height,
        deadline=args.deadline,
        tx_rate=args.tx_rate,
        i0=args.i0,
        seed=args.seed,
        workdir=args.workdir,
        data_dir=args.data_dir,
        sign_blocks=args.sign,
        verify_signatures=args.sign,
    )
    report = run_localnet(config)
    print(report.summary())
    for node_id, height in sorted(report.node_heights.items()):
        print(f"  node {node_id}: height {height}")
    if not report.clean_shutdown:
        print("warning: some nodes needed SIGKILL during teardown", file=sys.stderr)
    if report.leaked_files:
        print(
            "warning: storage left journal files behind: "
            + ", ".join(report.leaked_files),
            file=sys.stderr,
        )
    return 0 if report.converged else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Themis (ICDCS 2022) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument(
        "--algorithm",
        "-a",
        default="themis",
        choices=["themis", "themis-lite", "pow-h", "pbft"],
    )
    _add_common(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = sub.add_parser(
        "sweep", help="one configuration across seeds (parallel, cached)"
    )
    sweep_parser.add_argument(
        "--algorithm",
        "-a",
        default="themis",
        choices=["themis", "themis-lite", "pow-h", "pbft"],
    )
    sweep_parser.add_argument(
        "--seeds",
        type=str,
        default="5",
        help="seed count (e.g. 5 → seeds 0..4) or explicit list (e.g. 2,5,9)",
    )
    _add_common(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    compare_parser = sub.add_parser("compare", help="all four algorithms side by side")
    _add_common(compare_parser)
    compare_parser.set_defaults(func=_cmd_compare)

    figure_parser = sub.add_parser("figure", help="regenerate a paper figure")
    figure_parser.add_argument("name", help="fig4 | fig5 | fig6 | fig7 | fig8 | fig9")
    _add_common(figure_parser)
    figure_parser.set_defaults(func=_cmd_figure)

    # Listed for --help only: main() hands "lint ..." to repro.lint.cli whole.
    sub.add_parser(
        "lint",
        help="determinism & protocol-safety static analysis (rules: --list-rules)",
        add_help=False,
    )

    node_parser = sub.add_parser(
        "run-node", help="run one live consortium node from a manifest"
    )
    node_parser.add_argument(
        "--manifest", required=True, help="consortium manifest JSON path"
    )
    node_parser.add_argument(
        "--node-id", type=int, required=True, help="this process's member id"
    )
    node_parser.add_argument(
        "--tx-rate", type=float, default=0.0, help="submitted transactions per second"
    )
    node_parser.add_argument(
        "--duration", type=float, default=None, help="max runtime in seconds"
    )
    node_parser.add_argument(
        "--data-dir",
        type=str,
        default=None,
        help="durable chain storage directory (restart recovers from disk)",
    )
    node_parser.set_defaults(func=_cmd_run_node)

    localnet_parser = sub.add_parser(
        "localnet", help="launch an N-node localhost cluster and measure it"
    )
    localnet_parser.add_argument(
        "--nodes", "-n", type=int, default=4, help="cluster size"
    )
    localnet_parser.add_argument(
        "--height", type=int, default=5, help="common-prefix height to reach"
    )
    localnet_parser.add_argument(
        "--deadline", type=float, default=60.0, help="wall-clock budget (s)"
    )
    localnet_parser.add_argument(
        "--tx-rate", type=float, default=20.0, help="per-node transactions per second"
    )
    localnet_parser.add_argument(
        "--i0", type=float, default=0.5, help="target block interval (s)"
    )
    localnet_parser.add_argument("--seed", type=int, default=0, help="manifest seed")
    localnet_parser.add_argument(
        "--workdir",
        type=str,
        default=None,
        help="keep the manifest here (and the chain databases without --data-dir)",
    )
    localnet_parser.add_argument(
        "--data-dir",
        type=str,
        default=None,
        help="per-node chain databases live here and outlive the run (a rerun recovers)",
    )
    localnet_parser.add_argument(
        "--sign",
        action="store_true",
        help="sign block headers and verify them on receipt (real ECDSA)",
    )
    localnet_parser.set_defaults(func=_cmd_localnet)

    explorer_parser = sub.add_parser(
        "explorer", help="serve the block-explorer JSON API from a chain database"
    )
    explorer_parser.add_argument(
        "--db", required=True, help="chain database (e.g. <data-dir>/node-0.db)"
    )
    explorer_parser.add_argument("--host", type=str, default="127.0.0.1")
    explorer_parser.add_argument("--port", type=int, default=8390)
    explorer_parser.set_defaults(func=_cmd_explorer)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
