"""Command-line interface for the reproduction.

Subcommands mirror the library's main entry points::

    repro-traffic generate  --out day.jsonl   # materialise an SDE stream
    repro-traffic recognise --duration 1800   # RTEC over a scenario
    repro-traffic run       --duration 1800   # the full closed loop
    repro-traffic metrics   --duration 1800   # runtime metrics report
    repro-traffic map       --at 900          # GP city flow map
    repro-traffic crowd     --queries 500     # online EM demo
    repro-traffic faults                      # list fault profiles
    repro-traffic scenarios run --matrix      # acceptance-envelope matrix

Every command is deterministic given ``--seed``.  Also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import __version__
from .core import RTEC, RecognitionLog
from .core.traffic import build_traffic_definitions, default_traffic_params
from .dublin import DublinScenario, ScenarioConfig, read_jsonl, write_jsonl
from .system import SystemConfig, UrbanTrafficSystem


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("scenario")
    group.add_argument("--seed", type=int, default=0, help="master seed")
    group.add_argument(
        "--buses", type=int, default=120, help="bus fleet size"
    )
    group.add_argument(
        "--lines", type=int, default=12, help="number of bus lines"
    )
    group.add_argument(
        "--intersections", type=int, default=60,
        help="number of SCATS intersections",
    )
    group.add_argument(
        "--grid", type=int, nargs=2, default=(14, 14),
        metavar=("ROWS", "COLS"), help="street-network grid size",
    )
    group.add_argument(
        "--unreliable", type=float, default=0.1,
        help="fraction of buses with a corrupted congestion bit",
    )
    group.add_argument(
        "--incidents", type=int, default=8, help="number of incidents"
    )
    group.add_argument(
        "--duration", type=int, default=1800,
        help="simulated seconds to run",
    )


def _scenario_from(args: argparse.Namespace) -> DublinScenario:
    rows, cols = args.grid
    return DublinScenario(
        ScenarioConfig(
            seed=args.seed,
            rows=rows,
            cols=cols,
            n_intersections=args.intersections,
            n_buses=args.buses,
            n_lines=args.lines,
            unreliable_fraction=args.unreliable,
            n_incidents=args.incidents,
            incident_window=(0, args.duration),
        )
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    data = scenario.generate(0, args.duration)
    written = write_jsonl(args.out, data)
    print(
        f"wrote {written} records ({data.n_sdes} SDEs, "
        f"{data.sde_rate():.1f} SDE/s) to {args.out}"
    )
    return 0


def _cmd_recognise(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    if args.input:
        # Replay a stream persisted by `generate`; the scenario
        # arguments must match the ones used at generation time so the
        # SCATS topology lines up with the stream's intersection ids.
        data = read_jsonl(args.input)
    else:
        data = scenario.generate(0, args.duration)
    definitions = build_traffic_definitions(
        scenario.topology,
        adaptive=args.adaptive,
        noisy_variant=args.noisy_variant,
    )
    engine = RTEC(
        definitions,
        window=args.window,
        step=args.step,
        params=default_traffic_params(),
    )
    engine.feed_columns(data.columns)
    log = RecognitionLog()
    occurrence_counts: dict[str, int] = {}
    episode_counts: dict[str, int] = {}
    horizon = max(args.duration, data.end)
    for snapshot in engine.run(horizon):
        fresh = log.add(snapshot)
        for occ in fresh.occurrences:
            occurrence_counts[occ.type] = occurrence_counts.get(occ.type, 0) + 1
        for name, *_ in fresh.episodes:
            episode_counts[name] = episode_counts.get(name, 0) + 1
    mode = "self-adaptive" if args.adaptive else "static"
    print(
        f"{mode} recognition over {data.n_sdes} SDEs "
        f"({len(log.snapshots)} query times, window {args.window}s, "
        f"step {args.step}s)"
    )
    print(f"mean recognition time: {log.mean_elapsed * 1000:.1f} ms/query")
    print("fluent episodes:")
    for name, count in sorted(episode_counts.items()):
        print(f"  {name:<26} {count:>6}")
    print("event occurrences:")
    for name, count in sorted(occurrence_counts.items()):
        print(f"  {name:<26} {count:>6}")
    return 0


def _system_config_from(args: argparse.Namespace) -> SystemConfig:
    """One validated mapping instead of hand-rolled kwargs."""
    mapping = {
        "window": args.window,
        "step": args.step,
        "adaptive": args.adaptive,
        "noisy_variant": args.noisy_variant,
        "n_participants": args.participants,
        "seed": args.seed,
    }
    if getattr(args, "sharded", False):
        mapping["sharded"] = True
    if getattr(args, "shard_dir", None):
        mapping["shard_dir"] = args.shard_dir
    if getattr(args, "faults", None):
        mapping["fault_profile"] = args.faults
    if getattr(args, "checkpoint_interval", None):
        mapping["checkpoint_interval"] = args.checkpoint_interval
    return SystemConfig.from_mapping(mapping)


def _cmd_run(args: argparse.Namespace) -> int:
    from .recovery import CheckpointCoordinator

    if args.resume:
        # Everything — scenario, config, stream position — comes from
        # the checkpoint directory; the scenario arguments are ignored.
        coordinator = CheckpointCoordinator(
            args.resume, interval=args.checkpoint_interval or None
        )
        system, state = coordinator.restore_latest()
        if state is None:
            # Newest checkpoint is the pre-generation baseline: re-run
            # from the top (generation is deterministic from the
            # checkpointed RNG state).
            start, end = coordinator.restored_span
            report = system.run(start, end, recovery=coordinator)
            duration = end
        else:
            report = system.resume_from(state, coordinator)
            duration = state.end
        counters = report.metrics.get("counters", {})
        print(
            f"resumed from {args.resume} at step {coordinator.last_checkpoint.step} "
            f"(replayed {counters.get('recovery.replay.steps', 0):.0f} "
            f"journalled step(s), "
            f"{counters.get('recovery.replay.items', 0):.0f} stream item(s))"
        )
        print()
    else:
        scenario = _scenario_from(args)
        system = UrbanTrafficSystem(scenario, _system_config_from(args))
        duration = args.duration
        if args.checkpoint_dir:
            coordinator = CheckpointCoordinator(args.checkpoint_dir)
            report = system.run(0, duration, recovery=coordinator)
            counters = report.metrics.get("counters", {})
            print(
                f"checkpointed to {args.checkpoint_dir}: "
                f"{counters.get('recovery.checkpoint.writes', 0):.0f} "
                f"checkpoint(s), every "
                f"{system.config.checkpoint_interval} step(s)"
            )
            print()
        else:
            report = system.run(0, duration)
    print(report.console.render(limit=args.alerts))
    print()
    print(report.console.render_summary())
    print()
    print(
        f"crowd: {report.crowd_resolutions} resolved / "
        f"{report.crowd_unresolved} unresolved; mean recognition "
        f"{report.mean_recognition_time * 1000:.1f} ms/query"
    )
    if report.degraded:
        print()
        print("degraded intervals:")
        for line in report.degraded_timeline():
            print(f"  {line}")
    if report.shard_events:
        print()
        print("shard events:")
        for event in report.shard_events:
            what = (
                f"restarted from its checkpoint (attempt "
                f"{event.get('attempt', '?')})"
                if event["event"] == "restart"
                else "restart budget exhausted — region degraded"
            )
            print(
                f"  shard {event['region']!r} {what} at step "
                f"{event['step']} (t={event['q']}s)"
            )
    if args.map:
        print()
        print(system.render_city_map(duration))
    return 0


def _render_metrics(registry) -> str:
    """Sectioned text report of a metrics registry."""
    counters = registry.counters()
    gauges = registry.gauges()
    timings = registry.timings()

    lines: list[str] = []
    throughput = sorted(
        name for name in gauges if name.endswith(".items_per_s")
    )
    if throughput:
        lines.append("per-process throughput:")
        for name in throughput:
            process = name[: -len(".items_per_s")]
            items = counters.get(f"{process}.items", 0) or counters.get(
                f"{process}.consumed", 0
            )
            lines.append(
                f"  {process:<34} {items:>8} items  "
                f"{gauges[name]:>12.0f} items/s"
            )

    # Sharded runtime: one row per worker, aggregated from the
    # namespaced per-shard registries (``shard.<region>.*``) the merge
    # keeps side by side instead of overwriting.
    shard_regions = sorted(
        name[len("shard."):-len(".queries")]
        for name in counters
        if name.startswith("shard.") and name.endswith(".queries")
        and name.count(".") == 2
    )
    if shard_regions:
        lines.append("per-shard runtime:")
        lines.append(
            f"  {'region':<12} {'queries':>8} {'restarts':>9} "
            f"{'replayed':>9} {'ckpts':>6}"
        )
        for region in shard_regions:
            pre = f"shard.{region}."
            lines.append(
                f"  {region:<12} {counters.get(pre + 'queries', 0):>8} "
                f"{counters.get(pre + 'restarts', 0):>9} "
                f"{counters.get(pre + 'recovery.replay.steps', 0):>9} "
                f"{counters.get(pre + 'recovery.checkpoint.writes', 0):>6}"
            )
        heartbeat = timings.get("shard.heartbeat_age_s")
        summary = (
            f"  total restarts {counters.get('shard.restarts', 0)}, "
            f"deaths {counters.get('shard.deaths', 0)}, "
            f"failed shards {counters.get('shard.failed', 0)}"
        )
        if heartbeat is not None and heartbeat.count:
            summary += (
                f", heartbeat age mean "
                f"{heartbeat.mean * 1000:.1f} ms"
            )
        lines.append(summary)

    evals = counters.get("rtec.compiled.evals", 0)
    fallbacks = counters.get("rtec.compiled.fallbacks", 0)
    if evals or fallbacks:
        lines.append("compiled rule evaluation:")
        lines.append(f"  {'rtec.compiled.evals':<34} {evals:>8}")
        lines.append(f"  {'rtec.compiled.fallbacks':<34} {fallbacks:>8}")
    ingested = counters.get("ingest.events", 0)
    ingest_rate = gauges.get("ingest.events_per_s")
    if ingested:
        rate = (
            f"  {ingest_rate:>12.0f} SDE/s" if ingest_rate is not None else ""
        )
        lines.append("ingest:")
        lines.append(f"  {'ingest.events':<34} {ingested:>8} SDEs{rate}")
        for name in (
            "rtec.ingest.rows_fed",
            "rtec.ingest.rows_admitted",
            "rtec.ingest.rows_skipped_horizon",
            "rtec.ingest.rows_materialised",
            "rtec.mirror.rows_encoded",
            "rtec.close.rows_decided",
        ):
            lines.append(f"  {name:<34} {counters.get(name, 0):>8}")

    definition_timings = sorted(
        (
            (t.total, name, t)
            for name, t in timings.items()
            if name.startswith("rtec.definition.")
        ),
        reverse=True,
    )
    if definition_timings:
        lines.append("rtec per-definition timings (by total CPU):")
        for total, name, t in definition_timings:
            short = name[len("rtec.definition."):-len(".seconds")]
            lines.append(
                f"  {short:<34} {t.count:>6} obs  "
                f"total {total * 1000:>9.2f} ms  "
                f"mean {t.mean * 1000:>7.3f} ms"
            )

    lines.append("counters:")
    for name, value in counters.items():
        lines.append(f"  {name:<44} {value:>10}")
    lines.append("gauges:")
    for name, value in gauges.items():
        lines.append(f"  {name:<44} {value:>10.2f}")
    lines.append("timings (count / total s / mean ms):")
    for name, t in timings.items():
        lines.append(
            f"  {name:<44} {t.count:>7} {t.total:>10.4f} "
            f"{t.mean * 1000:>10.3f}"
        )
    return "\n".join(lines)


def _cmd_metrics(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    system = UrbanTrafficSystem(scenario, _system_config_from(args))
    registry = system.metrics

    if args.streams:
        # The same system behind the paper's Streams data-flow graph
        # instead of the direct loop: the graph's processes record the
        # loop's metrics as they run, and the report carries the
        # per-process middleware throughput (streams.process.*) beside
        # them.
        from .streams import StreamRuntime
        from .system import build_paper_topology

        paper = build_paper_topology(system, 0, args.duration)
        with registry.timing("ingest.loop_seconds").time():
            StreamRuntime(paper.topology, metrics=registry).run()
        system._finalise_metrics(args.duration)
    else:
        system.run(0, args.duration)

    print(_render_metrics(registry))
    if args.json:
        registry.write_json(args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    system = UrbanTrafficSystem(
        scenario, SystemConfig(crowd_enabled=False, seed=args.seed)
    )
    print(system.render_city_map(args.at))
    if args.svg:
        system.export_city_svg(args.at, args.svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import json

    from .faults import PROFILES, get_profile

    if args.show:
        print(json.dumps(get_profile(args.show).to_dict(), indent=2))
        return 0
    if args.dlq_demo:
        return _faults_dlq_demo(args.seed)
    print(f"{'profile':<22}description")
    for name in sorted(PROFILES):
        print(f"{name:<22}{PROFILES[name].description}")
    return 0


def _faults_dlq_demo(seed: int) -> int:
    """Run a tiny supervised topology over a corrupted stream and dump
    the resulting dead-letter queue — a smoke demo of the supervision
    layer's skip policy."""
    import json

    from .faults import FaultInjector, StreamFaults
    from .streams import (
        ErrorPolicy,
        Process,
        Source,
        StreamRuntime,
        Supervisor,
        Topology,
        Transform,
    )

    items = [
        {"@time": t, "intersection": f"I{t % 3}", "flow": 40 + t}
        for t in range(20)
    ]
    injector = FaultInjector(
        StreamFaults(corrupt_rate=0.4, corrupt_fields=("flow",)),
        seed=seed,
    )

    def strict(item):
        if item["flow"] == 0:
            raise ValueError(f"stuck-at-zero flow at t={item['@time']}")
        return item

    topology = Topology()
    topology.add_source(Source("scats", injector.items(items)))
    topology.add_process(
        Process(
            "validate", "scats", [Transform(strict)], output="clean",
            policy=ErrorPolicy(mode="skip"),
        )
    )
    supervisor = Supervisor()
    StreamRuntime(topology, supervisor=supervisor).run()
    letters = [letter.to_dict() for letter in supervisor.dead_letters]
    print(json.dumps(letters, indent=2))
    print(
        f"{len(letters)} corrupted item(s) dead-lettered, "
        f"{20 - len(letters)} passed through",
    )
    return 0


def _cmd_crowd(args: argparse.Namespace) -> int:
    import random

    from .crowd import (
        TRAFFIC_LABELS,
        DisagreementTask,
        OnlineEM,
        Participant,
        simulate_answers,
    )

    error_probabilities = [
        0.05, 0.15, 0.2, 0.25, 0.25, 0.38, 0.4, 0.5, 0.75, 0.9,
    ]
    participants = [
        Participant(f"P{i + 1}", p)
        for i, p in enumerate(error_probabilities)
    ]
    em = OnlineEM()
    rng = random.Random(args.seed)
    for t in range(1, args.queries + 1):
        task = DisagreementTask(t, true_label=rng.choice(TRAFFIC_LABELS))
        em.process(simulate_answers(task, participants, rng))
    print(f"after {args.queries} queries:")
    print(f"{'participant':<12}{'truth':>8}{'estimate':>10}")
    for participant, truth in zip(participants, error_probabilities):
        estimate = em.estimate(participant.participant_id)
        print(
            f"{participant.participant_id:<12}{truth:>8.2f}{estimate:>10.2f}"
        )
    print(f"peaked posteriors: {em.peaked_fraction:.1%}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from .scenarios import (
        SCENARIO_LIBRARY,
        get_scenario,
        run_matrix,
        write_matrix_report,
    )

    if args.action == "list":
        print(f"{'scenario':<24}{'family':<14}description")
        for spec in SCENARIO_LIBRARY:
            print(
                f"{spec.name:<24}{spec.topology.family:<14}"
                f"{spec.description}"
            )
        return 0

    if args.action == "show":
        print(json.dumps(get_scenario(args.name).to_mapping(), indent=2))
        return 0

    # action == "run"
    if args.matrix and args.names:
        raise ValueError(
            "--matrix runs the whole library; drop the scenario names "
            "or the flag"
        )
    if args.names:
        specs = [get_scenario(name) for name in args.names]
    else:
        # --matrix (and the bare default): the whole library.
        specs = list(SCENARIO_LIBRARY)

    def _progress(run) -> None:
        print(run.envelope.format())

    result = run_matrix(
        specs,
        duration=args.duration,
        check_parity=not args.no_parity,
        progress=_progress,
    )
    n_pass = len(result.runs) - result.n_failed
    families = {run.spec.topology.family for run in result.runs}
    print(
        f"matrix: {n_pass}/{len(result.runs)} scenarios passed "
        f"({len(families)} topology families)"
    )
    if args.report is not None:
        path = write_matrix_report(result, args.report)
        print(f"HTML report written to {path}")
    if args.json is not None:
        payload = [
            {
                "scenario": run.spec.name,
                "family": run.spec.topology.family,
                "passed": run.passed,
                "clauses": [
                    {
                        "kind": clause.kind,
                        "subject": clause.subject,
                        "expected": clause.expected,
                        "observed": clause.observed,
                        "passed": clause.passed,
                    }
                    for clause in run.envelope.clauses
                ],
            }
            for run in result.runs
        ]
        from .ioutils import atomic_write_text

        atomic_write_text(args.json, json.dumps(payload, indent=2))
        print(f"JSON verdicts written to {args.json}")
    return 0 if result.passed else 1


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for doc generation)."""
    parser = argparse.ArgumentParser(
        prog="repro-traffic",
        description=(
            "Reproduction of 'Heterogeneous Stream Processing and "
            "Crowdsourcing for Urban Traffic Management' (EDBT 2014)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="materialise a scenario SDE stream as JSONL"
    )
    _add_scenario_arguments(generate)
    generate.add_argument("--out", required=True, help="output JSONL path")
    generate.set_defaults(fn=_cmd_generate)

    recognise = subparsers.add_parser(
        "recognise", help="run RTEC recognition over a scenario"
    )
    _add_scenario_arguments(recognise)
    recognise.add_argument(
        "--input", default=None,
        help="replay a JSONL stream written by 'generate' (scenario "
        "arguments must match) instead of regenerating",
    )
    recognise.add_argument("--window", type=int, default=600)
    recognise.add_argument("--step", type=int, default=300)
    recognise.add_argument(
        "--adaptive", action="store_true",
        help="self-adaptive recognition (rule-set 3')",
    )
    recognise.add_argument(
        "--noisy-variant", choices=("crowd", "pessimistic"),
        default="pessimistic",
    )
    recognise.set_defaults(fn=_cmd_recognise)

    run = subparsers.add_parser(
        "run", help="run the full closed-loop system"
    )
    _add_scenario_arguments(run)
    run.add_argument("--window", type=int, default=600)
    run.add_argument("--step", type=int, default=300)
    run.add_argument("--adaptive", action="store_true", default=True)
    run.add_argument(
        "--static", dest="adaptive", action="store_false",
        help="disable self-adaptation",
    )
    run.add_argument(
        "--noisy-variant", choices=("crowd", "pessimistic"), default="crowd"
    )
    run.add_argument("--participants", type=int, default=50)
    run.add_argument(
        "--alerts", type=int, default=15, help="alert feed length"
    )
    run.add_argument(
        "--map", action="store_true", help="print the GP city map"
    )
    run.add_argument(
        "--sharded", action="store_true",
        help="run each region's engine in its own supervised OS "
        "process with per-shard checkpoint recovery (byte-identical "
        "output; see docs/robustness.md)",
    )
    run.add_argument(
        "--shard-dir", default=None, metavar="DIR",
        help="root for the per-shard recovery directories (default: "
        "a temporary directory removed after the run)",
    )
    run.add_argument(
        "--faults", default=None, metavar="PROFILE",
        help="inject a named fault profile (see 'faults' subcommand)",
    )
    run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint the pipeline into DIR every "
        "checkpoint-interval steps (see docs/recovery.md)",
    )
    run.add_argument(
        "--checkpoint-interval", type=int, default=None, metavar="N",
        help="recognition steps between checkpoints "
        "(default: SystemConfig.checkpoint_interval)",
    )
    run.add_argument(
        "--resume", default=None, metavar="DIR",
        help="restore the latest valid checkpoint in DIR and run to "
        "completion (scenario arguments are ignored)",
    )
    run.set_defaults(fn=_cmd_run)

    metrics = subparsers.add_parser(
        "metrics",
        help="run the closed loop and report runtime metrics "
        "(throughput, RTEC timings, crowd counters)",
    )
    _add_scenario_arguments(metrics)
    metrics.add_argument("--window", type=int, default=600)
    metrics.add_argument("--step", type=int, default=300)
    metrics.add_argument("--adaptive", action="store_true", default=True)
    metrics.add_argument(
        "--static", dest="adaptive", action="store_false",
        help="disable self-adaptation",
    )
    metrics.add_argument(
        "--noisy-variant", choices=("crowd", "pessimistic"), default="crowd"
    )
    metrics.add_argument("--participants", type=int, default=50)
    metrics.add_argument(
        "--sharded", action="store_true",
        help="run the per-region engines as supervised worker "
        "processes and report the namespaced shard.<region>.* metrics",
    )
    metrics.add_argument(
        "--streams", action="store_true",
        help="run the system as the paper's Streams data-flow graph "
        "instead of the direct loop and report per-process middleware "
        "throughput",
    )
    metrics.add_argument(
        "--faults", default=None, metavar="PROFILE",
        help="inject a named fault profile (see 'faults' subcommand)",
    )
    metrics.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full registry export as JSON",
    )
    metrics.set_defaults(fn=_cmd_metrics)

    city_map = subparsers.add_parser(
        "map", help="print the GP flow map of the city"
    )
    _add_scenario_arguments(city_map)
    city_map.add_argument(
        "--at", type=int, default=900, help="snapshot time (s)"
    )
    city_map.add_argument(
        "--svg", default=None, help="also write the map as an SVG file"
    )
    city_map.set_defaults(fn=_cmd_map)

    crowd = subparsers.add_parser(
        "crowd", help="online EM participant-quality demo (Figure 5)"
    )
    crowd.add_argument("--seed", type=int, default=42)
    crowd.add_argument("--queries", type=int, default=500)
    crowd.set_defaults(fn=_cmd_crowd)

    faults = subparsers.add_parser(
        "faults",
        help="list fault profiles, show one as JSON, or run the "
        "dead-letter-queue demo",
    )
    faults.add_argument(
        "--show", default=None, metavar="PROFILE",
        help="dump one profile's full spec as JSON",
    )
    faults.add_argument(
        "--dlq-demo", action="store_true",
        help="run a supervised mini-topology over a corrupted stream "
        "and dump the dead-letter queue",
    )
    faults.add_argument("--seed", type=int, default=0)
    faults.set_defaults(fn=_cmd_faults)

    scenarios = subparsers.add_parser(
        "scenarios",
        help="scenario DSL: list, show or run the generator matrix "
        "with per-scenario acceptance envelopes (docs/scenarios.md)",
    )
    scenario_actions = scenarios.add_subparsers(
        dest="action", required=True
    )
    scenario_actions.add_parser(
        "list", help="list the built-in scenario library"
    ).set_defaults(fn=_cmd_scenarios)
    show = scenario_actions.add_parser(
        "show", help="dump one scenario spec as JSON"
    )
    show.add_argument("name", help="scenario name (see 'scenarios list')")
    show.set_defaults(fn=_cmd_scenarios)
    scenario_run = scenario_actions.add_parser(
        "run",
        help="run scenarios and check their acceptance envelopes "
        "(exit 1 on any envelope failure)",
    )
    scenario_run.add_argument(
        "names", nargs="*", metavar="NAME",
        help="scenarios to run (default: the whole library)",
    )
    scenario_run.add_argument(
        "--matrix", action="store_true",
        help="run the whole library (explicit form of the default)",
    )
    scenario_run.add_argument(
        "--duration", type=int, default=None, metavar="S",
        help="override every scenario's simulated duration",
    )
    scenario_run.add_argument(
        "--no-parity", action="store_true",
        help="skip the parity variant runs (their envelope clauses "
        "then fail as unchecked)",
    )
    scenario_run.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the matrix verdicts as a standalone HTML report",
    )
    scenario_run.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the matrix verdicts as JSON",
    )
    scenario_run.set_defaults(fn=_cmd_scenarios)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Configuration errors (bad window/step combinations, unreadable
    inputs, ...) are reported as one-line messages with exit code 2
    instead of tracebacks.
    """
    from .recovery import CheckpointError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
