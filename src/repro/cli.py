"""Command-line interface: ``python -m repro <command>``.

Wraps the :mod:`repro.api` facade so the paper's methodology can be
driven without writing Python:

- ``machines`` / ``benchmarks`` — list what is available.
- ``profile`` — stressmark-profile a suite, save the vectors to JSON.
- ``predict`` — price a co-run combination from saved profiles.
- ``train-power`` — train the Eq. 9 model, save it to JSON.
- ``run`` — simulate an assignment and report measured ground truth.
- ``assign`` — pick the best process-to-core mapping from profiles
  (the legacy exhaustive pick is a one-machine fleet solve);
  ``--solver``/``--power-budget``/``--budget-s``/``--fleet`` switch to
  the declarative fleet pipeline (:func:`repro.api.solve_assignment`);
  ``--fleet FILE`` loads a fleet spec whose groups may carry
  heterogeneous core-type/P-state specs (:mod:`repro.hetero`).
- ``serve`` — run the asyncio HTTP prediction service
  (:mod:`repro.serve`) until SIGTERM/SIGINT, then drain and exit.
- ``experiment`` — regenerate one paper table/figure.

``profile``, ``predict``, ``run`` and ``assign`` accept ``--trace
FILE`` and ``--metrics FILE``: the command then runs under a live
:class:`repro.obs.Observer` and its spans / metric registry are
written as JSON when the command finishes (even on failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.config import BENCH_SCALE, PROFILE_SCALE, SimulationScale, TEST_SCALE
from repro.errors import ReproError
from repro.machine.topology import STANDARD_MACHINES
from repro.workloads.spec import BENCHMARKS


def _scales(args: argparse.Namespace) -> Tuple[SimulationScale, SimulationScale]:
    """(profile_scale, run_scale) honouring the global --quick flag."""
    if getattr(args, "quick", False):
        return TEST_SCALE, TEST_SCALE
    return PROFILE_SCALE, BENCH_SCALE


def _parse_assignment(specs: Sequence[str]) -> Dict[int, Tuple[str, ...]]:
    """Parse ``core=name[,name...]`` fragments into an assignment."""
    assignment: Dict[int, Tuple[str, ...]] = {}
    for spec in specs:
        core_text, _, names_text = spec.partition("=")
        if not names_text:
            raise ValueError(f"bad assignment fragment {spec!r}; use core=name[,name]")
        core = int(core_text)
        names = tuple(n.strip() for n in names_text.split(",") if n.strip())
        for name in names:
            if name not in BENCHMARKS:
                raise ValueError(f"unknown benchmark {name!r}")
        if core in assignment:
            # Silently keeping the last fragment would drop workloads
            # the user asked for; make the conflict loud instead.
            raise ValueError(
                f"core {core} assigned twice ({'+'.join(assignment[core])} "
                f"and {'+'.join(names)}); merge into one "
                f"{core}=name[,name] fragment"
            )
        assignment[core] = names
    return assignment


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_machines(args: argparse.Namespace) -> int:
    if getattr(args, "as_json", False):
        machines = {}
        for name, factory in sorted(STANDARD_MACHINES.items()):
            topo = factory(sets=args.sets)
            machines[name] = {
                "cores": topo.num_cores,
                "frequency_hz": topo.frequency_hz,
                "core_frequency_scales": [
                    float(scale) for scale in topo.core_frequency_scales
                ],
                "heterogeneous": topo.heterogeneous,
                "domains": [
                    {
                        "cores": list(d.core_ids),
                        "ways": d.geometry.ways,
                        "sets": d.geometry.sets,
                    }
                    for d in topo.domains
                ],
            }
        print(json.dumps({"machines": machines}, indent=2, sort_keys=True))
        return 0
    rows = []
    for name, factory in sorted(STANDARD_MACHINES.items()):
        topo = factory(sets=args.sets)
        domains = ", ".join(
            f"cores {list(d.core_ids)} share {d.geometry.ways}w x {d.geometry.sets}s"
            for d in topo.domains
        )
        rows.append((name, topo.num_cores, f"{topo.frequency_hz / 1e6:.0f} MHz", domains))
    print(render_table(["Machine", "Cores", "Clock (scaled)", "Cache domains"], rows))
    return 0


def cmd_benchmarks(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(BENCHMARKS):
        benchmark = BENCHMARKS[name]
        rows.append(
            (
                name,
                benchmark.api,
                benchmark.mix.fppi,
                benchmark.footprint_ways,
                dict(benchmark.rd_profile).get(float("inf"), 0.0),
            )
        )
    print(
        render_table(
            ["Benchmark", "API (L2/instr)", "FPPI", "Footprint (ways)", "Streaming"],
            rows,
            float_format="{:.3f}",
        )
    )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.api import profile_suite

    names = args.names or sorted(BENCHMARKS)
    print(f"Profiling {len(names)} benchmarks on {args.machine} "
          f"({'with' if args.power else 'without'} P_alone)...", file=sys.stderr)
    profile_scale, _ = _scales(args)
    result = profile_suite(
        names,
        machine=args.machine,
        sets=args.sets,
        seed=args.seed,
        power=args.power,
        scale=profile_scale,
    )
    result.save(args.out)
    print(f"Wrote {len(result.features)} profiles to {args.out}")
    return 0


def _load_batch_mixes(path: str) -> Tuple[Tuple[str, ...], ...]:
    """Read a batch file: a bare JSON list of mixes or {"mixes": [...]}."""
    with open(path, "r") as handle:
        document = json.load(handle)
    if isinstance(document, dict):
        document = document.get("mixes")
    if not isinstance(document, list) or not document:
        raise ValueError(
            f"{path}: expected a non-empty JSON list of mixes "
            '(or {"mixes": [...]})'
        )
    mixes = []
    for entry in document:
        if not isinstance(entry, list) or not all(
            isinstance(name, str) for name in entry
        ):
            raise ValueError(
                f"{path}: each mix must be a list of process names, got {entry!r}"
            )
        mixes.append(tuple(entry))
    return tuple(mixes)


def cmd_predict(args: argparse.Namespace) -> int:
    from repro.api import predict_mix, predict_mixes

    if args.batch and args.names:
        raise ValueError("give either process names or --batch FILE, not both")
    if not args.batch and not args.names:
        raise ValueError("give process names to predict, or --batch FILE")
    if args.batch:
        mixes = _load_batch_mixes(args.batch)
        results = predict_mixes(mixes, args.suite, ways=args.ways)
        if getattr(args, "as_json", False):
            document = {
                "kind": "mix_prediction_batch",
                "version": 1,
                "predictions": [result.to_dict() for result in results],
            }
            print(json.dumps(document, indent=2, sort_keys=True))
            return 0
        rows = [
            (index, p.name, p.effective_size, p.mpa, p.spi, p.ips)
            for index, result in enumerate(results)
            for p in result.prediction.processes
        ]
        print(
            render_table(
                ["Mix", "Process", "Eff. size (ways)", "MPA", "SPI (s)", "IPS"],
                rows,
                title=f"{len(results)} co-run predictions on a "
                f"{args.ways}-way shared cache",
                float_format="{:.4g}",
            )
        )
        return 0
    mix = predict_mix(args.names, args.suite, ways=args.ways)
    if getattr(args, "as_json", False):
        print(json.dumps(mix.to_dict(), indent=2, sort_keys=True))
        return 0
    rows = [
        (p.name, p.effective_size, p.mpa, p.spi, p.ips)
        for p in mix.prediction.processes
    ]
    print(
        render_table(
            ["Process", "Eff. size (ways)", "MPA", "SPI (s)", "IPS"],
            rows,
            title=f"Co-run prediction on a {args.ways}-way shared cache "
            f"(solver: {mix.prediction.solver})",
            float_format="{:.4g}",
        )
    )
    return 0


def cmd_train_power(args: argparse.Namespace) -> int:
    from repro.api import train_power

    print(f"Training Eq. 9 power model for {args.machine}...", file=sys.stderr)
    result = train_power(
        args.machine,
        sets=args.sets,
        seed=args.seed,
        quick=getattr(args, "quick", False),
    )
    result.save(args.out)
    print(f"R^2 = {result.r_squared:.4f}, "
          f"P_idle/core = {result.model.p_idle:.2f} W")
    print(f"Wrote model to {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.machine.simulator import MachineSimulation, PowerEnvironment

    topology = STANDARD_MACHINES[args.machine](sets=args.sets)
    assignment = _parse_assignment(args.assign)
    workloads = {
        core: [BENCHMARKS[name] for name in names]
        for core, names in assignment.items()
    }
    power_env = (
        PowerEnvironment.for_topology(topology, seed=args.seed) if args.power else None
    )
    _, run_scale = _scales(args)
    sim = MachineSimulation(
        topology, workloads, scale=run_scale, seed=args.seed, power_env=power_env
    )
    result = sim.run_duration() if args.power else sim.run_accesses()
    rows = [
        (p.name, p.core, p.occupancy_ways, p.mpa, p.spi, p.l2_refs)
        for p in result.processes
    ]
    print(
        render_table(
            ["Process", "Core", "Occupancy (ways)", "MPA", "SPI (s)", "L2 refs"],
            rows,
            title=f"Measured steady state on {topology.name}",
            float_format="{:.4g}",
        )
    )
    if result.power is not None:
        print(f"\nMeasured processor power: {result.power.mean_measured:.2f} W "
              f"over {len(result.power)} windows")
    return 0


#: ``repro assign --objective`` values served by the legacy pick (its
#: ``assignment_pick`` output); anything else (or any fleet-only flag)
#: routes through the declarative :func:`repro.api.solve_assignment`
#: pipeline.
_LEGACY_OBJECTIVES = ("power", "throughput", "energy_per_instruction")


def cmd_assign(args: argparse.Namespace) -> int:
    wants_fleet = (
        args.solver is not None
        or args.power_budget is not None
        or args.budget_s is not None
        or args.iterations is not None
        or getattr(args, "fleet", None) is not None
        or args.objective not in _LEGACY_OBJECTIVES
    )
    if not wants_fleet:
        # Historical output (kind "assignment_pick") stays pinned; the
        # impl function avoids the shim's DeprecationWarning.
        from repro.api import _pick_assignment_impl

        pick = _pick_assignment_impl(
            args.names,
            args.suite,
            args.power_model,
            machine=args.machine,
            sets=args.sets,
            objective=args.objective,
            greedy=args.greedy,
        )
        print(json.dumps(pick.to_dict(), indent=2, sort_keys=True))
        return 0
    if args.greedy:
        raise ValueError(
            "--greedy belongs to the legacy exhaustive pick; "
            "use --solver greedy instead"
        )
    from repro.api import AssignmentRequest, FleetSpec, solve_assignment
    from repro.io import load_json

    fleet = None
    if getattr(args, "fleet", None) is not None:
        fleet = FleetSpec.from_dict(load_json(args.fleet))
    request = AssignmentRequest(
        processes=tuple(args.names),
        objective=args.objective,
        solver=args.solver or "auto",
        fleet=fleet,
        machine=args.machine,
        sets=args.sets,
        power_budget_watts=args.power_budget,
        budget_s=args.budget_s,
        max_iterations=args.iterations,
        seed=args.seed,
    )
    result = solve_assignment(request, args.suite, args.power_model)
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio prediction service until SIGTERM/SIGINT.

    Both signals trigger the same graceful shutdown ``stop()``
    performs: stop listening, drain queued prediction batches, then
    exit 0.  With ``--http-workers N > 1`` the same address is served
    by N shared-nothing worker processes behind ``SO_REUSEPORT``.
    """
    import signal
    import threading

    from repro.api import serve

    models = {}
    if args.suite:
        models["default"] = args.suite
    if args.power_model:
        models["power"] = args.power_model
    for spec in args.model or []:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise ValueError(
                f"bad --model fragment {spec!r}; use NAME=FILE"
            )
        models[name] = path
    if not models:
        raise ValueError(
            "nothing to serve: give --suite FILE, --power-model FILE "
            "and/or --model NAME=FILE"
        )
    if args.http_workers < 1:
        raise ValueError("--http-workers must be >= 1")
    common = dict(
        max_batch_size=args.max_batch,
        max_linger_ms=args.linger_ms,
        max_queue=args.max_queue,
        result_cache_size=args.cache_size,
        max_body_bytes=args.max_body_bytes,
    )
    if args.http_workers > 1:
        from repro.serve import start_worker_pool

        handle = start_worker_pool(
            models,
            host=args.host,
            port=args.port,
            http_workers=args.http_workers,
            **common,
        )
        print(
            f"serving {', '.join(sorted(models))} on "
            f"{handle.workers} workers (pids {handle.pids})",
            file=sys.stderr,
        )
    else:
        handle = serve(models, host=args.host, port=args.port, **common)
        published = ", ".join(
            f"{entry['name']}@{entry['version']} ({entry['kind']})"
            for entry in handle.registry.list()
        )
        print(f"serving {published}", file=sys.stderr)
    print(f"listening on http://{handle.host}:{handle.port}", flush=True)
    stop_event = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal interface
        print(f"received signal {signum}; draining...", file=sys.stderr)
        stop_event.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    stop_event.wait()
    handle.stop()
    print("drained and stopped", file=sys.stderr)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.context import get_context

    profile_scale, run_scale = _scales(args)
    context = get_context(
        machine="4-core-server",
        sets=args.sets,
        seed=args.seed,
        profile_scale=profile_scale,
        run_scale=run_scale,
    )
    if args.which == "table1":
        from repro.experiments.table1 import run_pairwise_validation

        result = run_pairwise_validation(context)
        print(result.render())
    elif args.which == "table4":
        from repro.experiments.table4 import render_table4, run_table4

        print(render_table4(run_table4(context)))
    elif args.which == "prefetch":
        from repro.experiments.prefetch_ablation import run_prefetch_ablation

        print(run_prefetch_ablation(context).render())
    elif args.which == "model-choice":
        from repro.experiments.power_training import run_model_choice

        choice = run_model_choice(context)
        print(f"MVLR {choice.mvlr_accuracy_pct:.1f} % vs "
              f"NN {choice.nn_accuracy_pct:.1f} %")
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.which)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a JSON span trace of the command to FILE",
    )
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write the command's JSON metrics registry to FILE",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAC 2010 multicore performance/power modeling reproduction",
    )
    parser.add_argument("--sets", type=int, default=128, help="cache set scaling")
    parser.add_argument(
        "--quick", action="store_true",
        help="use tiny simulation budgets (fast, less accurate)",
    )
    parser.add_argument("--seed", type=int, default=42, help="master RNG seed")
    commands = parser.add_subparsers(dest="command", required=True)

    machines = commands.add_parser("machines", help="list machine topologies")
    machines.add_argument(
        "--json", dest="as_json", action="store_true",
        help="emit machine descriptions as JSON",
    )
    machines.set_defaults(func=cmd_machines)
    commands.add_parser("benchmarks", help="list synthetic benchmarks").set_defaults(
        func=cmd_benchmarks
    )

    profile = commands.add_parser("profile", help="stressmark-profile a suite")
    profile.add_argument("--machine", choices=sorted(STANDARD_MACHINES), required=True)
    profile.add_argument("--out", required=True, help="output JSON path")
    profile.add_argument("--power", action="store_true", help="also measure P_alone")
    _add_obs_flags(profile)
    profile.add_argument("names", nargs="*", help="benchmarks (default: all)")
    profile.set_defaults(func=cmd_profile)

    predict = commands.add_parser("predict", help="predict a co-run from profiles")
    predict.add_argument("--suite", required=True, help="profile-suite JSON")
    predict.add_argument("--ways", type=int, required=True)
    predict.add_argument(
        "--batch", metavar="FILE", default=None,
        help="predict every mix in FILE (JSON list of name lists, "
        'or {"mixes": [...]}) instead of a single co-run',
    )
    predict.add_argument(
        "--json", dest="as_json", action="store_true",
        help="emit the prediction as JSON instead of a table",
    )
    _add_obs_flags(predict)
    predict.add_argument("names", nargs="*")
    predict.set_defaults(func=cmd_predict)

    train = commands.add_parser("train-power", help="train and save the Eq. 9 model")
    train.add_argument("--machine", choices=sorted(STANDARD_MACHINES), required=True)
    train.add_argument("--out", required=True)
    train.set_defaults(func=cmd_train_power)

    run = commands.add_parser("run", help="simulate an assignment")
    run.add_argument("--machine", choices=sorted(STANDARD_MACHINES), required=True)
    run.add_argument("--power", action="store_true")
    _add_obs_flags(run)
    run.add_argument("assign", nargs="+", help="core=name[,name] fragments")
    run.set_defaults(func=cmd_run)

    assign = commands.add_parser("assign", help="pick the best mapping from profiles")
    assign.add_argument("--machine", choices=sorted(STANDARD_MACHINES), required=True)
    assign.add_argument("--suite", required=True)
    assign.add_argument("--power-model", required=True)
    assign.add_argument(
        "--objective",
        choices=_LEGACY_OBJECTIVES + (
            "min-power",
            "max-throughput",
            "min-energy-per-instruction",
            "throughput-under-watts-budget",
        ),
        default="power",
        help="legacy names keep the historical assignment_pick output "
        "(its exhaustive search is the fleet solver's); canonical "
        "(dashed) names route through the fleet pipeline",
    )
    assign.add_argument(
        "--greedy", action="store_true",
        help="legacy pick only: place processes one at a time instead "
        "of the exhaustive search",
    )
    assign.add_argument(
        "--solver", choices=("auto", "exhaustive", "greedy", "anneal"),
        default=None,
        help="fleet solver (implies the declarative pipeline and the "
        "fleet_assignment output; default: legacy pick)",
    )
    assign.add_argument(
        "--power-budget", type=float, default=None, metavar="WATTS",
        help="global power budget; placements over it are infeasible",
    )
    assign.add_argument(
        "--fleet", default=None, metavar="FILE",
        help="fleet spec JSON (kind fleet_spec; groups may carry hetero "
        "core-type/P-state specs); implies the declarative pipeline "
        "and overrides --machine/--sets",
    )
    assign.add_argument(
        "--budget-s", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the annealing refinement",
    )
    assign.add_argument(
        "--iterations", type=int, default=None,
        help="deterministic iteration cap for the annealing refinement",
    )
    assign.add_argument(
        "--seed", type=int, default=0,
        help="seed for the greedy/anneal heuristic streams",
    )
    _add_obs_flags(assign)
    assign.add_argument("names", nargs="+")
    assign.set_defaults(func=cmd_assign)

    serve = commands.add_parser(
        "serve", help="run the asyncio HTTP prediction service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = ephemeral; the real port is printed)",
    )
    serve.add_argument(
        "--suite", metavar="FILE", default=None,
        help="profile-suite JSON published as model 'default'",
    )
    serve.add_argument(
        "--power-model", metavar="FILE", default=None,
        help="fitted power-model JSON published as model 'power'",
    )
    serve.add_argument(
        "--model", metavar="NAME=FILE", action="append", default=None,
        help="publish an extra artifact under NAME (repeatable)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32,
        help="dispatch a batch once this many requests wait",
    )
    serve.add_argument(
        "--linger-ms", type=float, default=0.0,
        help="hold a partial batch until its oldest request has waited "
        "this long (default 0: dispatch whenever the solver is idle; "
        "a linger coalesces bigger batches under saturating load)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256,
        help="admission bound; excess requests are shed with HTTP 429",
    )
    serve.add_argument(
        "--http-workers", type=int, default=1,
        help="server worker processes sharing the port via SO_REUSEPORT "
        "(default 1 = single in-process server)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=4096,
        help="canonical-mix result-cache capacity per worker "
        "(0 disables; hits skip the solver, bit-identical)",
    )
    serve.add_argument(
        "--max-body-bytes", type=int, default=8 * 1024 * 1024,
        help="reject request bodies declared larger than this with 413",
    )
    serve.set_defaults(func=cmd_serve)

    experiment = commands.add_parser("experiment", help="regenerate a paper artefact")
    experiment.add_argument(
        "which", choices=("table1", "table4", "prefetch", "model-choice")
    )
    experiment.set_defaults(func=cmd_experiment)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    observer = None
    if trace_path or metrics_path:
        from repro import obs

        observer = obs.Observer()
    try:
        if observer is None:
            return args.func(args)
        from repro.obs import use_observer

        try:
            with use_observer(observer):
                return args.func(args)
        finally:
            # Export even when the command failed: a trace of the
            # failing run is exactly what one wants to look at.
            if trace_path:
                observer.write_trace(trace_path)
            if metrics_path:
                observer.write_metrics(metrics_path)
    except (ReproError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
