"""Command-line interface: ``python -m repro <command>``.

Mirrors how the paper's C++ tool is driven: point it at an application
and a target system, get back profiling tables, candidate schedules, a
deployed plan, or the full evaluation report.

Commands:

* ``platforms`` / ``apps``     - list registered targets / workloads (``--json``)
* ``profile``                  - collect a profiling table (optionally save JSON)
* ``plan``                     - run the end-to-end flow, print the plan
* ``run``                      - checkpointed campaign with resume (``--session``)
* ``baselines``                - measure CPU-only / GPU-only baselines
* ``analyze``                  - affinity spreads, speedup bounds, schedule explanation
* ``gantt``                    - render the deployed pipeline's Gantt chart
* ``faultsim``                 - inject faults, exercise recovery, report
* ``serve``                    - boot the multi-tenant serving soak scenario
* ``fleet``                    - run the fleet soak: shards under seeded chaos
* ``traffic``                  - open-loop workload generation / replay / overload soak
* ``top``                      - fleet dashboard: shard health, attainment, burn rates, blame
* ``trace``                    - traced run, Perfetto/Chrome or Gantt export
* ``submit``                   - submit one job to a fresh server, report admission
* ``lint``                     - static analyzer: invariant rules + determinism flow
* ``race``                     - dynamic concurrency checker (REPRO_CHECK)
* ``report``                   - regenerate every paper table/figure

Output follows one contract (:class:`_TextSink`): ``--json`` makes the
result the only document on stdout, ``--out`` persists it without
changing stdout, and every status note goes to stderr.  Every command
exits non-zero on failure and prints a structured (JSON) error
description to stderr, so campaign drivers and CI can react to
failures without scraping tracebacks.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro.apps import APPLICATION_BUILDERS
from repro.baselines import measure_baselines
from repro.core import BetterTogether, CampaignSession
from repro.core.profiler import INTERFERENCE, MODES
from repro.core.serialization import (
    atomic_write_text,
    save,
    write_json_report,
)
from repro.errors import CampaignError, ReproError
from repro.eval.experiments import ExperimentScale
from repro.eval.metrics import format_table
from repro.obs.spans import format_gantt
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    PuDropoutSpec,
    RetryPolicy,
    SimulatedPipelineExecutor,
    ThreadedPipelineExecutor,
    checks,
)
from repro.soc import PLATFORM_NAMES, get_platform
from repro.soc.platforms import _BUILDERS as _ALL_PLATFORMS


def _build_app(name: str):
    try:
        builder = APPLICATION_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(APPLICATION_BUILDERS))
        raise ReproError(
            f"unknown application {name!r}; known: {known}"
        ) from None
    return builder()


def _target(args: argparse.Namespace):
    """``(platform, application, framework)`` named by the target flags
    (:func:`_add_target_args`)."""
    # PlatformError propagates to main()'s structured error handler.
    platform = get_platform(args.platform)
    application = _build_app(args.app)
    framework = BetterTogether(
        platform, repetitions=args.repetitions, k=args.k,
        eval_tasks=args.eval_tasks,
    )
    return platform, application, framework


class _TextSink:
    """The single emitter of a command's output.

    Commands with a ``--json`` mode route *every* human-oriented line
    through :meth:`line` instead of bare ``print`` calls; in JSON mode
    the sink swallows them, so stdout carries exactly one parseable
    JSON document - the one :meth:`result` prints - and nothing else.
    Status notes that must survive JSON mode (file-written
    confirmations) go to stderr via :meth:`note`, so stdout is the same
    with or without ``--out``.
    """

    def __init__(self, out: Optional[str] = None, json_mode: bool = False):
        self.out = out
        self.json_mode = json_mode

    def line(self, text: str = "") -> None:
        """Emit one human-readable line (dropped in ``--json`` mode)."""
        if not self.json_mode:
            print(text)

    @staticmethod
    def note(text: str) -> None:
        """Out-of-band status note; always stderr, never stdout."""
        print(text, file=sys.stderr)

    def result(self, payload: dict, what: str) -> None:
        """The command's one result: printed as JSON in JSON mode, and
        with ``--out`` persisted through the sanctioned atomic report
        sink, confirmed on stderr."""
        if self.json_mode:
            print(json.dumps(payload, indent=2))
        if self.out:
            write_json_report(self.out, payload)
            self.note(f"{what} saved to {self.out}")


def _run_reported(run, trace_out: Optional[str], sink: _TextSink):
    """Call ``run()`` for its report and return ``(report, payload)``.

    With ``trace_out`` the run happens under observability capture: the
    payload gains the metrics snapshot and the Chrome/Perfetto trace of
    the run is written to that file.
    """
    import repro.obs as obs

    if not trace_out:
        report = run()
        return report, report.to_dict()
    with obs.capture() as cap:
        report = run()
        snapshot = cap.metrics.snapshot()
        payload = report.to_dict()
        payload["metrics"] = snapshot
        trace = obs.chrome_trace(cap.events, snapshot)
    write_json_report(trace_out, trace)
    sink.note(f"trace ({len(cap.events)} events) saved to {trace_out}")
    return report, payload


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_platforms(args: argparse.Namespace) -> int:
    """List registered platforms (paper grid starred)."""
    sink = _TextSink(args.out, args.json)
    rows = []
    for name in _ALL_PLATFORMS:
        platform = get_platform(name)
        rows.append({
            "name": name,
            "display_name": platform.display_name,
            "soc_model": platform.soc_model,
            "paper_grid": name in PLATFORM_NAMES,
            "pu_classes": list(platform.pu_classes()),
            "schedulable_classes": list(platform.schedulable_classes()),
        })
        marker = "*" if name in PLATFORM_NAMES else " "
        sink.line(f"{marker} {name}: {platform.display_name} "
                  f"({platform.soc_model})")
    sink.line()
    sink.line("* = part of the paper's evaluation grid")
    sink.result({"platforms": rows}, "listing")
    return 0


def cmd_apps(args: argparse.Namespace) -> int:
    """List registered applications."""
    sink = _TextSink(args.out, args.json)
    rows = []
    for name, builder in APPLICATION_BUILDERS.items():
        app = builder()
        rows.append({
            "name": name,
            "stages": app.num_stages,
            "description": app.description,
            "input_kind": app.input_kind,
        })
        sink.line(f"{name}: {app.num_stages} stages - {app.description}")
    sink.result({"applications": rows}, "listing")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Collect and print a profiling table; optionally save JSON."""
    platform, application, framework = _target(args)
    table = framework.profile(application, mode=args.mode)
    print(f"profiling table ({args.mode}) for {application.name} on "
          f"{platform.display_name} (ms):")
    print(format_table(table.to_rows()))
    if args.out:
        save(table, args.out)
        _TextSink.note(f"profiling table saved to {args.out}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Run the end-to-end flow and print the deployment plan."""
    _, application, framework = _target(args)
    plan = framework.run(application)
    print(plan.summary())
    if args.out:
        save(plan.schedule, args.out)
        _TextSink.note(f"schedule saved to {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run a checkpointed campaign; re-running the directory resumes.

    ``--session DIR`` checkpoints every unit of work (profiling cell,
    candidate log, autotune measurement) to DIR as it completes;
    ``--resume DIR`` is the same but requires DIR to already hold a
    session, catching mistyped paths on what was meant to be a resume.
    Without either, this is equivalent to ``plan`` (no checkpoints).
    """
    _, application, framework = _target(args)
    directory = args.resume or args.session
    if args.resume and not (args.resume / "manifest.json").exists():
        raise CampaignError(
            f"--resume {args.resume}: no session manifest found; "
            "use --session to start a new session"
        )
    if directory is None:
        plan = framework.run(application)
        print(plan.summary())
        return 0
    session = CampaignSession(directory, framework)
    on_unit = ((lambda unit: print(f"  done {unit}", file=sys.stderr))
               if args.verbose else None)
    plan = session.run(application, on_unit=on_unit)
    print(session.report.format())
    print()
    print(plan.summary())
    print(f"\nsession checkpoints in {session.directory}")
    return 0


def cmd_baselines(args: argparse.Namespace) -> int:
    """Measure the homogeneous CPU-only / GPU-only baselines."""
    platform = get_platform(args.platform)
    application = _build_app(args.app)
    result = measure_baselines(application, platform,
                               n_tasks=args.eval_tasks)
    cpu, gpu = result.as_row()
    print(f"{application.name} on {platform.display_name}: "
          f"CPU-only {cpu} ms | GPU-only {gpu} ms "
          f"(best: {result.best_name})")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Affinity report, speedup bound, schedule explanation, memory."""
    from repro.eval.analysis import (
        explain_schedule,
        format_affinity_report,
        format_explanation,
        speedup_bounds,
        stage_affinity_report,
    )
    from repro.runtime import estimate_pipeline_memory

    platform, application, framework = _target(args)
    table = framework.profile(application)
    print("per-stage PU affinities:")
    print(format_affinity_report(stage_affinity_report(application,
                                                       table)))
    bounds = speedup_bounds(
        application, table.restricted(platform.schedulable_classes())
    )
    print("\nspeedup ceiling on "
          f"{platform.display_name}: {bounds.max_speedup:.2f}x")
    optimization = framework.optimize(application, table)
    autotune = framework.autotune(application, optimization)
    winner = autotune.measured_best.candidate
    print(f"\ndeployed schedule (candidate #{winner.rank + 1}):")
    print(format_explanation(
        explain_schedule(application, winner.schedule, table)
    ))
    if application.make_task is not None:
        depth = len(winner.schedule.chunks()) + 1
        memory = estimate_pipeline_memory(application, depth)
        print(f"\nmemory: {memory.total_mib:.1f} MiB "
              f"({depth} TaskObjects x "
              f"{memory.per_task_bytes / 1024 / 1024:.1f} MiB)")
    return 0


def _traced_run(args: argparse.Namespace):
    """Plan the target end to end, then stream ``--tasks`` tasks through
    the deployed schedule with span recording on: ``(plan, result)``."""
    if args.tasks < 1:
        raise ReproError(f"--tasks must be >= 1, got {args.tasks}")
    platform, application, framework = _target(args)
    plan = framework.run(application)
    executor = SimulatedPipelineExecutor(
        application, plan.schedule.chunks(), platform
    )
    return plan, executor.run(args.tasks, record_trace=True)


def _check_width(args: argparse.Namespace) -> None:
    """A Gantt chart needs at least one column: refuse ``--width``
    below 1 before anything is planned or simulated."""
    if args.width < 1:
        raise ReproError(f"--width must be >= 1, got {args.width}")


def cmd_gantt(args: argparse.Namespace) -> int:
    """Deploy a plan and render its execution Gantt chart."""
    _check_width(args)
    plan, result = _traced_run(args)
    print(plan.summary())
    print()
    print(format_gantt(result.spans, width=args.width))
    return 0


def cmd_faultsim(args: argparse.Namespace) -> int:
    """Deploy a plan, inject faults, and report the recovery behaviour.

    Two phases mirror the two back-ends: seeded transient kernel faults
    against the threaded executor (retry + quarantine), then a
    permanent PU dropout against the adaptive simulated deployment
    (fallback to a cached candidate avoiding the dead PU).
    """
    _, application, framework = _target(args)
    # The fault flags are checked (by these constructors) before the
    # plan is made.
    fault_plan = FaultPlan.random(
        seed=args.seed, n_tasks=args.tasks,
        n_stages=application.num_stages,
        kernel_fault_rate=args.kernel_fault_rate,
        fail_attempts=args.fail_attempts,
    )
    retry_policy = RetryPolicy(max_attempts=args.max_attempts)
    plan = framework.run(application)
    print(plan.summary())
    structured = {}

    # Phase 1: transient kernel faults vs. the threaded back-end.
    injector = FaultInjector(fault_plan)
    executor = ThreadedPipelineExecutor(
        application, plan.schedule.chunks(),
        fault_injector=injector,
        retry_policy=retry_policy,
        isolate_failures=True,
    )
    result = executor.run(
        args.tasks, validate=application.validate_task is not None
    )
    # The run's log, ordered by (task, stage), not the injector's
    # wall-clock append order: same seed, same report bytes.
    threaded_report = replace(injector.report(result.failures),
                              events=result.fault_events)
    print(f"\nthreaded phase (seed {args.seed}, "
          f"{fault_plan.n_faults} faults planned): "
          f"{result.succeeded}/{result.n_tasks} tasks ok, "
          f"{len(result.failures)} quarantined")
    print(threaded_report.format())
    structured["threaded"] = threaded_report.to_dict()

    # Phase 2: permanent PU dropout vs. the adaptive deployment.
    dropout_pu = args.dropout_pu
    if dropout_pu is None and not args.no_dropout:
        for pu in plan.schedule.pu_classes_used:
            if any(pu not in c.schedule.pu_classes_used
                   for c in plan.optimization.candidates):
                dropout_pu = pu
                break
    if args.no_dropout or dropout_pu is None:
        if not args.no_dropout:
            print("\nno deployed PU has a cached fallback candidate; "
                  "skipping the dropout phase")
    else:
        adaptive = framework.deploy_adaptive(
            plan, window_tasks=max(args.eval_tasks, 2)
        )
        drop_injector = FaultInjector(FaultPlan(dropouts=[
            PuDropoutSpec(dropout_pu, after_task=args.dropout_after),
        ]))
        hit = adaptive.run_window(fault_injector=drop_injector)
        steady = adaptive.run_window(fault_injector=drop_injector)
        print(f"\ndropout phase: {dropout_pu!r} dies at task "
              f"{args.dropout_after}")
        print(f"  window 0: fallback={hit.fallback} -> "
              f"{hit.schedule.describe(application)} "
              f"({hit.measured_latency_s * 1e3:.3f} ms/task)")
        print(f"  window 1: keeps streaming at "
              f"{steady.measured_latency_s * 1e3:.3f} ms/task")
        dropout_report = drop_injector.report()
        print(dropout_report.format())
        structured["dropout"] = dropout_report.to_dict()

    _TextSink(args.out).result(structured, "structured report")
    return 0


def _soak_scenario(args: argparse.Namespace, **scenario_kwargs):
    """The serving soak ``serve`` and ``trace --serve`` run;
    ``scenario_kwargs`` go to :class:`~repro.traffic.SoakScenario` as
    they are."""
    from repro.traffic import SoakScenario

    return SoakScenario(
        platform_name=args.platform,
        seed=args.seed,
        windows=args.windows,
        window_tasks=args.tasks,
        **scenario_kwargs,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the multi-tenant serving layer on the soak scenario.

    Runs the same deterministic scenario the acceptance soak test and
    the golden corpus use, as a one-shard fleet: three concurrent
    tenants packed onto disjoint PU partitions, injected interference
    drift mid-run, and a fourth submission that must be rejected.

    ``--json`` prints the serve report as the only stdout output;
    ``--trace-out`` runs the soak under observability capture and
    exports a Chrome/Perfetto trace of the whole run.
    """
    if args.gantt:
        _check_width(args)
    driver = _soak_scenario(args, drift_start_tick=args.drift_tick
                            ).driver(reschedule=not args.frozen)
    sink = _TextSink(args.out, args.json)
    report, payload = _run_reported(lambda: driver.run().fleet_report,
                                    args.trace_out, sink)
    _print_fleet_report(report, sink)
    # The one shard's own control plane: placements and re-ranks.
    (server,) = driver.router.shards[0].closed_servers
    sink.line()
    sink.line("shard events:")
    for event in server.timeline:
        if event["event"] in ("admit", "reschedule", "evict"):
            extra = {k: v for k, v in event.items()
                     if k not in ("tick", "event", "tenant")}
            sink.line(f"  tick {event['tick']:>3}  {event['event']:<12} "
                      f"{event['tenant']:<10} {extra}")
    if args.gantt:
        chart = format_gantt(server.trace_spans, width=args.width)
        sink.line()
        sink.line("last served window per tenant:")
        sink.line(chart)
        payload["gantt"] = chart
    sink.result(payload, "serve report")
    return 0


def _print_fleet_report(report, sink: _TextSink) -> None:
    """Human-readable summary of one fleet run."""
    counts = report.counts
    sink.line(f"fleet of {report.n_shards} shards served "
              f"{report.ticks} ticks (seed {report.seed}, failover "
              f"{'on' if report.failover_enabled else 'off'})")
    sink.line(f"plan cache: {report.to_dict()['plan_cache']}")
    sink.line(f"failovers={counts.get('failover', 0)} "
              f"migrations={counts.get('migrate', 0)} "
              f"shed={counts.get('shed', 0)} "
              f"breaker transitions={counts.get('breaker', 0)}")
    survivors = [m for m in report.tenants.values()
                 if m.status == "completed"]
    if survivors:
        sink.line(f"surviving p95: {report.surviving_p95_s * 1e3:.3f}ms "
                  f"(slowdown x{report.surviving_p95_slowdown:.3f}) "
                  f"over {len(survivors)} tenants")
    sink.line()
    sink.line("shards:")
    for name in sorted(report.shards):
        s = report.shards[name]
        sink.line(f"  {name:8s} {s['state']:10s} "
                  f"breaker={s['breaker']:<9s} "
                  f"generation={s['generation']} "
                  f"windows={s['windows_served']}")
    sink.line()
    sink.line("tenants:")
    for name in sorted(report.tenants):
        m = report.tenants[name]
        line = (f"  {name:12s} {m.status:10s} "
                f"windows={m.windows_served:<3d} "
                f"migrations={m.migrations} "
                f"reschedules={m.reschedules}")
        if m.windows_served:
            line += (f"  p50={m.p50_latency_s * 1e3:.3f}ms "
                     f"p95={m.p95_latency_s * 1e3:.3f}ms")
        line += f"  via {'>'.join(m.shards) if m.shards else '-'}"
        sink.line(line)
    sink.line()
    sink.line("chaos events:")
    for event in report.chaos_events:
        sink.line(f"  tick {event['tick']:>3}  {event['kind']:<14} "
                  f"{event['shard']:<8} {event['detail']}")
    control = [e for e in report.timeline
               if e["event"] in ("failover", "shed", "breaker",
                                 "shard_state", "reject", "fail")]
    sink.line()
    sink.line("control-plane events:")
    for event in control:
        who = event.get("shard", event.get("tenant", ""))
        extra = {k: v for k, v in event.items()
                 if k not in ("tick", "event", "shard", "tenant")}
        sink.line(f"  tick {event['tick']:>3}  {event['event']:<12} "
                  f"{who:<10} {extra if extra else ''}")


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run the fleet soak: N SoC shards under seeded chaos.

    Runs the same deterministic scenario the fleet acceptance test and
    the golden corpus use: twelve tenants on four shards with
    a mid-run gray failure, a shard crash + delayed rejoin, and a
    PU-class brownout that trips the SLO-breach failover.

    ``--no-failover`` strands dead shards' tenants instead of
    re-placing them (the baseline the chaos run is measured against);
    ``--json`` prints the fleet report as the only stdout output;
    ``--trace-out`` runs under observability capture and exports a
    Chrome/Perfetto trace.
    """
    from repro.traffic import FleetSoakScenario

    driver = FleetSoakScenario(
        seed=args.seed,
        n_shards=args.shards,
        n_tenants=args.tenants,
        platform_name=args.platform,
        max_ticks=args.max_ticks,
    ).driver(failover=not args.no_failover)
    sink = _TextSink(args.out, args.json)
    report, payload = _run_reported(lambda: driver.run().fleet_report,
                                    args.trace_out, sink)
    _print_fleet_report(report, sink)
    sink.result(payload, "fleet report")
    return 0


def _print_traffic_report(report, sink: _TextSink) -> None:
    """Human-readable summary of one open-loop traffic run."""
    sink.line(f"open-loop run: {report.arrivals} arrivals over "
              f"{report.ticks} ticks on {report.n_shards} shard(s) "
              f"(seed {report.seed})")
    sink.line(f"windows: offered={report.offered_windows} "
              f"served={report.served_windows} "
              f"goodput={report.goodput_windows} "
              f"(goodput tasks={report.goodput_tasks})")
    sink.line(f"tenants: admitted={report.admitted} "
              f"rejected={report.rejected} "
              f"completed={report.completed}")
    sink.line()
    sink.line("tiers:")
    for name in sorted(report.tiers):
        tier = report.tiers[name].to_dict()
        sink.line(f"  {name:8s} slo<=x{tier['slo_slowdown']:<5} "
                  f"served={tier['served_windows']:<4} "
                  f"attainment={tier['attainment']} "
                  f"p99=x{tier['p99_slowdown']}")
    if report.recoveries:
        sink.line()
        sink.line("burst recovery:")
        for recovery in report.recoveries:
            r = recovery.to_dict()
            sink.line(f"  burst [{r['start_tick']}, {r['end_tick']}): "
                      f"backlog {r['pre_burst_backlog']} -> peak "
                      f"{r['peak_backlog']}, recovered in "
                      f"{r['recovery_ticks']} tick(s)")


def _overload_scenario(args: argparse.Namespace):
    """The overload soak :func:`_add_overload_args` flags name."""
    from repro.traffic import FleetOverloadScenario

    return FleetOverloadScenario(
        seed=args.seed,
        n_shards=args.shards,
        ticks=args.ticks,
        load_multiplier=args.multiplier,
    )


def cmd_traffic(args: argparse.Namespace) -> int:
    """Open-loop traffic: ``generate``, ``replay``, or ``soak``.

    All three modes run the seeded :class:`FleetOverloadScenario` -
    the same scenario the acceptance tests and the golden corpus
    byte-check:

    * ``generate`` materializes the arrival stream (a pure function of
      spec and seed) and optionally freezes it into a checksummed
      trace artifact (``--trace-out``);
    * ``replay`` re-runs a frozen trace through the fleet - replaying
      a recorded trace reproduces the recorded run byte-identically;
    * ``soak`` generates and drives in one step; ``--compare`` also
      runs the admit-everything baseline and exits 1 unless admission
      control strictly wins on goodput (the overload gate tier-1 asserts).
    """
    from repro.traffic import TrafficTrace

    scenario = _overload_scenario(args)
    sink = _TextSink(args.out, args.json)
    admission = not args.no_admission

    if args.mode == "replay":
        if not args.trace:
            raise ReproError("replay needs --trace <recorded trace>")
        trace = TrafficTrace.load(args.trace)
    else:
        # generate and soak share one arrival stream: the soak is driven
        # from the recorded trace, which replays byte-identically.
        trace = TrafficTrace.record(scenario.spec(), scenario.seed)
        if args.trace_out:
            trace.save(args.trace_out)
            sink.note(f"traffic trace saved to {args.trace_out}")

    if args.mode == "generate":
        by_tier: dict = {}
        by_kind: dict = {}
        for event in trace.events:
            by_tier[event.tier] = by_tier.get(event.tier, 0) + 1
            by_kind[event.app_kind] = by_kind.get(event.app_kind, 0) + 1
        payload = {
            "seed": trace.seed,
            "ticks": trace.spec.ticks,
            "arrivals": len(trace.events),
            "offered_windows": trace.offered_windows(),
            "by_tier": {k: by_tier[k] for k in sorted(by_tier)},
            "by_app_kind": {k: by_kind[k] for k in sorted(by_kind)},
        }
        sink.line(f"generated {payload['arrivals']} arrivals "
                  f"({payload['offered_windows']} windows) over "
                  f"{trace.spec.ticks} ticks (seed {trace.seed})")
        sink.line(f"  tiers: {payload['by_tier']}")
        sink.line(f"  app kinds: {payload['by_app_kind']}")
        sink.result(payload, "generation summary")
        return 0

    _, report = scenario.run(trace, admission=admission)
    payload = report.to_dict()
    if args.mode == "replay":
        sink.line(f"replayed {args.trace} "
                  f"(admission {'on' if admission else 'off'})")
        sink.line()
    _print_traffic_report(report, sink)
    exit_code = 0

    if args.mode == "soak" and args.compare:
        _, baseline = scenario.run(trace, admission=False)
        payload["admit_everything"] = baseline.to_dict()
        gate = report.goodput_tasks > baseline.goodput_tasks
        sink.line()
        sink.line(f"admission gate: goodput {report.goodput_tasks} "
                  f"(admission on) vs {baseline.goodput_tasks} "
                  f"(admit everything) -> "
                  f"{'PASS' if gate else 'FAIL'}")
        if not gate:
            sink.note("admission control did not beat admit-"
                      "everything on goodput")
            exit_code = 1

    if args.mode == "soak" and args.curve:
        points = payload["curve"] = scenario.curve(admission)
        sink.line()
        sink.line("goodput vs offered load:")
        for point in points:
            sink.line(f"  x{point['load_multiplier']:<4} "
                      f"offered={point['offered_windows']:<5} "
                      f"served={point['served_windows']:<5} "
                      f"goodput_tasks={point['goodput_tasks']}")
    sink.result(payload, "traffic report")
    return exit_code


def _render_top(payload: dict, sink: _TextSink) -> None:
    """Render one ``repro top`` dashboard frame from its payload."""
    scenario = payload["scenario"]
    sink.line(f"repro top - overload soak seed {scenario['seed']}, "
              f"{scenario['shards']} shard(s), "
              f"{scenario['ticks']} ticks, "
              f"x{scenario['multiplier']} offered load, admission "
              f"{'on' if scenario['admission'] else 'off'}")
    windows = payload["windows"]
    sink.line(f"windows: offered={windows['offered']} "
              f"served={windows['served']} "
              f"goodput={windows['goodput']} "
              f"(goodput tasks={windows['goodput_tasks']})")
    sink.line()
    sink.line("shards:")
    for name in sorted(payload["shards"]):
        s = payload["shards"][name]
        sink.line(f"  {name:8s} {s['state']:10s} "
                  f"breaker={s['breaker']:<9s} "
                  f"windows={s['windows_served']}")
    sink.line()
    sink.line("tiers:")
    for name in sorted(payload["tiers"]):
        tier = payload["tiers"][name]
        burning = "BURNING" if name in payload["burning_tiers"] else "ok"
        sink.line(f"  {name:8s} slo<=x{tier['slo_slowdown']:<5} "
                  f"served={tier['served_windows']:<4} "
                  f"attainment={tier['attainment']} "
                  f"burn={burning}")
    alerts = payload["alerts"]
    sink.line()
    sink.line(f"burn-rate alerts: {len(alerts)}")
    for alert in alerts[:10]:
        sink.line(f"  tick {alert['tick']:>3}  {alert['key']:<10} "
                  f"fast=x{alert['fast_burn']} "
                  f"slow=x{alert['slow_burn']} "
                  f"(threshold x{alert['threshold']})")
    if len(alerts) > 10:
        sink.line(f"  ... and {len(alerts) - 10} more")
    sink.line()
    offenders = payload["top_offenders"]
    sink.line(f"top interference offenders "
              f"({payload['attribution']['windows']} windows "
              f"attributed):")
    if not offenders:
        sink.line("  (no attributable slowdown)")
    for entry in offenders:
        sink.line(f"  {entry['source']:<14} "
                  f"{entry['resource']:<10} "
                  f"share={entry['total_share']:<12} "
                  f"over {entry['windows']} window(s)")


def cmd_top(args: argparse.Namespace) -> int:
    """The fleet dashboard: one attributed overload soak, summarized.

    Runs the seeded :class:`FleetOverloadScenario` with blame
    decomposition and per-tier burn-rate alerting armed (the only CLI
    path that turns both on), then renders shard health, per-tier SLO
    attainment, burn-rate status, and the top-K interference offenders
    aggregated from the per-window blame matrices.

    Everything rendered derives from the deterministic seeded run, so
    ``repro top --json`` is byte-identical across repeats for a given
    (scenario, seed).  ``--watch`` additionally streams one trajectory
    line per control tick while the soak runs (the live view); the
    final dashboard is the same either way.
    """
    from repro.obs.alerts import BurnRateRule

    if args.top_k < 1:
        raise ReproError(f"--top-k must be >= 1, got {args.top_k}")
    scenario = _overload_scenario(args)
    sink = _TextSink(args.out, args.json)
    admission = not args.no_admission
    burn = BurnRateRule(
        fast_window=args.burn_fast,
        slow_window=args.burn_slow,
        budget=args.burn_budget,
        threshold=args.burn_threshold,
    )

    def watch(entry: dict) -> None:
        sink.line(f"tick {entry['tick']:>3}  "
                  f"arrivals={entry['arrivals']:<3} "
                  f"served={entry['served_windows']:<4} "
                  f"goodput_tasks={entry['goodput_tasks']:<5} "
                  f"backlog={entry['backlog']}")

    result, report = scenario.run(
        on_tick=watch if args.watch else None,
        admission=admission, attribution=True, burn=burn,
    )
    if args.watch:
        sink.line()

    fleet_report = result.fleet_report
    attribution = dict(report.attribution or {})
    offenders = list(attribution.get("top_offenders", ()))[:args.top_k]
    alerts = [dict(a) for a in (report.alerts or ())]
    burning = sorted({str(a["key"]) for a in alerts})
    payload = {
        "scenario": {
            "seed": scenario.seed,
            "shards": scenario.n_shards,
            "ticks": scenario.ticks,
            "multiplier": scenario.load_multiplier,
            "admission": admission,
        },
        "windows": {
            "offered": report.offered_windows,
            "served": report.served_windows,
            "goodput": report.goodput_windows,
            "goodput_tasks": report.goodput_tasks,
        },
        "shards": {
            name: dict(fleet_report.shards[name])
            for name in sorted(fleet_report.shards)
        },
        "tiers": {
            name: report.tiers[name].to_dict()
            for name in sorted(report.tiers)
        },
        "alerts": alerts,
        "burning_tiers": burning,
        "attribution": {
            "windows": attribution.get("windows", 0),
            "attributed_total": attribution.get(
                "attributed_total", 0.0),
        },
        "top_offenders": offenders,
    }
    _render_top(payload, sink)
    sink.result(payload, "dashboard snapshot")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a flow under observability capture and export its trace.

    ``--serve`` traces the multi-tenant soak scenario (spans from the
    profiler, solver, DES runtime and serving layers, correlated by
    parent links); the default traces the offline plan flow plus one
    traced simulated run.  Exports: ``perfetto``/``chrome`` (the same
    Chrome trace-event JSON, loadable by Perfetto) or ``gantt`` (the
    ASCII chart rendered from the same span tree).  Either is printed
    on stdout, or with ``--out`` written to that file instead.
    """
    import repro.obs as obs

    if args.export == "gantt":
        _check_width(args)
    with obs.capture() as cap:
        if args.serve:
            _soak_scenario(args).driver().run()
        else:
            _traced_run(args)
        snapshot = cap.metrics.snapshot()
        events = cap.events
    if args.export != "gantt":
        # Without --out the trace itself is the stdout document.
        _TextSink(args.out, json_mode=not args.out).result(
            obs.chrome_trace(events, snapshot),
            f"trace ({len(events)} events)",
        )
        return 0
    chart = obs.export_gantt(events, width=args.width)
    if args.out:
        atomic_write_text(args.out, chart + "\n")
        _TextSink.note(f"gantt chart saved to {args.out}")
    else:
        print(chart)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job to a fresh one-shard fleet and report its fate.

    Boots a one-shard fleet (failover off; a backlog of
    ``--queue-capacity`` waiting arrivals), submits ``--co`` synthetic
    background tenants first (so the submission faces real
    contention), then the requested application, runs them on the soak
    runner until drained, and reports the job's outcome and, if it was
    served, its measured serving latencies.
    """
    from repro.apps.synthetic import build_synthetic_application
    from repro.fleet import FleetConfig, FleetRouter, ShardSpec
    from repro.serve import TenantSpec
    from repro.soc.platforms import _DEFAULT_SEED
    from repro.traffic import OpenLoopDriver

    if args.co < 0:
        raise ReproError(f"--co must be >= 0, got {args.co}")
    # Enough ticks for every tenant's windows to run one after another
    # (a queued job waits behind its co-tenants); the run still stops
    # when the fleet drains.
    ticks = (args.co + 1) * args.windows + 8
    router = FleetRouter(
        [ShardSpec("soc0", platform_name=args.platform,
                   platform_seed=_DEFAULT_SEED)],
        seed=args.seed,
        config=FleetConfig(
            max_ticks=ticks,
            queue_capacity=args.queue_capacity,
            max_impact_ratio=1.5,
            max_partition_classes=args.cap,
            # A waiting arrival waits as long as the run lasts.
            backlog_patience=ticks,
            failover=False,
        ),
    )
    tenants = [TenantSpec(
        name=f"co-{index}",
        application=build_synthetic_application(
            seed=args.seed + 1 + index, stage_count=3,
        ),
        priority=0,
        windows=args.windows,
        window_tasks=args.tasks,
    ) for index in range(args.co)]
    tenants.append(TenantSpec(
        name=args.name,
        application=_build_app(args.app),
        priority=args.priority,
        windows=args.windows,
        window_tasks=args.tasks,
        required_classes=frozenset(args.require or ()),
    ))
    report = OpenLoopDriver(router, tenants).run().fleet_report
    tenant = router.tenants[args.name]
    (shard,) = router.shards
    print(f"submission {args.name!r} ({args.app}) on "
          f"{shard.platform.display_name} with {args.co} co-tenants:")
    print(f"  outcome: {tenant.status}  ({tenant.status_detail})")
    record = shard.closed_servers[-1].records.get(args.name)
    if record is not None:
        print(f"  partition: {list(record.partition)}")
    metrics = report.tenants[args.name]
    if metrics.windows_served:
        print(f"  windows served: {metrics.windows_served}, "
              f"reschedules: {metrics.reschedules}")
        print(f"  per-item latency: p50 {metrics.p50_latency_s * 1e3:.3f} ms, "
              f"p95 {metrics.p95_latency_s * 1e3:.3f} ms")
    _TextSink(args.out).result(report.to_dict(), "serve report")
    return 0 if tenant.status == "completed" else 1


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static analyzer: the invariant rules and the
    determinism-flow check (``--strict`` gates CI)."""
    from repro.analysis.linter import changed_files, default_lint_target, \
        lint_paths
    from repro.analysis.report import render_lint_json, render_lint_text, \
        render_rule_catalog

    if args.list_rules:
        print(render_rule_catalog())
        return 0
    if args.changed is not None:
        paths = changed_files(base=args.changed or "HEAD")
        if not paths:
            _TextSink.note("repro-lint: clean (no changed python files)")
            return 0
    else:
        paths = [Path(p) for p in args.paths] or [default_lint_target()]
    report = lint_paths(paths)
    sink = _TextSink(args.out, args.format == "json")
    sink.line(render_lint_text(report))
    sink.result(render_lint_json(report), "lint report")
    return 1 if (args.strict and not report.clean) else 0


def cmd_race(args: argparse.Namespace) -> int:
    """Run the dynamic concurrency checker scenarios."""
    from repro.analysis.race import run_race
    from repro.analysis.report import render_race_text

    data, exit_code = run_race(tasks=args.tasks, stages=args.stages,
                               selftest=args.selftest)
    sink = _TextSink(args.out, args.format == "json")
    sink.line(render_race_text(data))
    sink.result(data, "race report")
    return exit_code


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate every paper table/figure as one text report."""
    from repro.eval.reporting import generate_report

    scale = (ExperimentScale.quick() if args.quick
             else ExperimentScale.paper())
    text = generate_report(scale=scale, progress=lambda line: print(
        line, file=sys.stderr))
    print(text)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_target_args(parser: argparse.ArgumentParser) -> None:
    """The flags :func:`_target` reads."""
    parser.add_argument("--platform", default="pixel7a",
                        help="target platform (see `platforms`)")
    parser.add_argument("--app", default="octree",
                        help="application (see `apps`)")
    parser.add_argument("--repetitions", type=int, default=30,
                        help="profiling repetitions per table entry")
    parser.add_argument("--k", type=int, default=20,
                        help="optimizer candidate count")
    parser.add_argument("--eval-tasks", type=int, default=30,
                        help="tasks per measurement run")


def _add_output_args(parser: argparse.ArgumentParser, what: str,
                     json_flag: bool = False,
                     trace_flag: bool = False) -> None:
    """The :class:`_TextSink` flags: ``--json`` (with ``json_flag``),
    ``--trace-out`` for :func:`_run_reported` (with ``trace_flag``) and
    ``--out``."""
    if json_flag:
        parser.add_argument("--json", action="store_true",
                            help=f"print the {what} as JSON on stdout "
                                 "(suppresses all human-readable output)")
    if trace_flag:
        parser.add_argument("--trace-out",
                            help="run under observability capture and "
                                 "export a Chrome/Perfetto trace of the "
                                 "run to this file")
    parser.add_argument("--out", help=f"save the {what} to this file")


def _add_overload_args(parser: argparse.ArgumentParser) -> None:
    """The flags :func:`_overload_scenario` reads (``traffic``, ``top``)."""
    parser.add_argument("--seed", type=int, default=7,
                        help="scenario seed (same seed, same bytes)")
    parser.add_argument("--shards", type=int, default=2,
                        help="number of SoC shards behind the router")
    parser.add_argument("--ticks", type=int, default=48,
                        help="open-loop horizon in control ticks")
    parser.add_argument("--multiplier", type=float, default=1.5,
                        help="offered load as a multiple of the fleet's "
                             "saturation load (>= 1.5 is the overload "
                             "regime)")
    parser.add_argument("--no-admission", action="store_true",
                        help="admit everything that physically fits (the "
                             "baseline the goodput gate is measured "
                             "against)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BetterTogether: interference-aware software "
                    "pipelining on heterogeneous SoCs (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("platforms", help="list registered platforms")
    _add_output_args(p, "listing", json_flag=True)
    p.set_defaults(fn=cmd_platforms)

    p = sub.add_parser("apps", help="list registered applications")
    _add_output_args(p, "listing", json_flag=True)
    p.set_defaults(fn=cmd_apps)

    p = sub.add_parser("profile", help="collect a profiling table")
    _add_target_args(p)
    p.add_argument("--mode", choices=MODES, default=INTERFERENCE)
    _add_output_args(p, "table")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("plan", help="run the end-to-end flow")
    _add_target_args(p)
    _add_output_args(p, "deployed schedule")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("run",
                       help="checkpointed campaign with resume support")
    _add_target_args(p)
    p.add_argument("--session", type=Path, default=None,
                   help="checkpoint every unit of work to this directory"
                        " (re-running it resumes)")
    p.add_argument("--resume", type=Path, default=None,
                   help="resume an existing session directory (must "
                        "already contain a manifest)")
    p.add_argument("--verbose", action="store_true",
                   help="log each completed unit of work to stderr")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("baselines", help="measure homogeneous baselines")
    _add_target_args(p)
    p.set_defaults(fn=cmd_baselines)

    p = sub.add_parser("analyze",
                       help="affinity report, bounds, explanation")
    _add_target_args(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("gantt", help="render the deployed pipeline")
    _add_target_args(p)
    p.add_argument("--tasks", type=int, default=8)
    p.add_argument("--width", type=int, default=72)
    p.set_defaults(fn=cmd_gantt)

    p = sub.add_parser("faultsim",
                       help="inject faults and report the recovery")
    _add_target_args(p)
    p.add_argument("--tasks", type=int, default=8,
                   help="tasks through the threaded back-end")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-plan seed (same seed, same faults)")
    p.add_argument("--kernel-fault-rate", type=float, default=0.15,
                   help="per-(task, stage) transient fault probability")
    p.add_argument("--fail-attempts", type=int, default=1,
                   help="dispatch attempts each injected fault kills")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="retry budget per stage dispatch")
    p.add_argument("--dropout-pu", default=None,
                   help="PU class to kill mid-run (default: auto-pick)")
    p.add_argument("--dropout-after", type=int, default=2,
                   help="task index at which the PU dies")
    p.add_argument("--no-dropout", action="store_true",
                   help="skip the PU-dropout phase")
    _add_output_args(p, "structured report")
    p.set_defaults(fn=cmd_faultsim)

    p = sub.add_parser("serve",
                       help="boot the multi-tenant serving soak "
                            "scenario (deterministic)")
    p.add_argument("--platform", default="pixel7a",
                   help="target platform (see `platforms`)")
    p.add_argument("--seed", type=int, default=7,
                   help="scenario seed (same seed, same bytes)")
    p.add_argument("--windows", type=int, default=30,
                   help="execution windows per tenant (>= 8 so the "
                        "p95 is meaningful)")
    p.add_argument("--tasks", type=int, default=10,
                   help="tasks per window")
    p.add_argument("--drift-tick", type=int, default=4,
                   help="tick at which injected interference starts")
    p.add_argument("--frozen", action="store_true",
                   help="disable the online rescheduler (offline-"
                        "schedule baseline)")
    p.add_argument("--gantt", action="store_true",
                   help="render each tenant's last window as a "
                        "per-tenant Gantt chart")
    p.add_argument("--width", type=int, default=72)
    _add_output_args(p, "serve report", json_flag=True, trace_flag=True)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("fleet",
                       help="run the fleet soak: SoC shards under "
                            "seeded chaos (deterministic)")
    p.add_argument("--platform", default="pixel7a",
                   help="shard platform (see `platforms`)")
    p.add_argument("--seed", type=int, default=7,
                   help="fleet seed (same seed, same bytes)")
    p.add_argument("--shards", type=int, default=4,
                   help="number of SoC shards (>= 4)")
    p.add_argument("--tenants", type=int, default=12,
                   help="number of tenants (>= 12)")
    p.add_argument("--max-ticks", type=int, default=96,
                   help="fleet tick budget")
    p.add_argument("--no-failover", action="store_true",
                   help="strand dead shards' tenants instead of "
                        "re-placing them (chaos baseline)")
    _add_output_args(p, "fleet report", json_flag=True, trace_flag=True)
    p.set_defaults(fn=cmd_fleet)

    p = sub.add_parser("traffic",
                       help="open-loop workload generation, trace "
                            "replay, and overload soak (deterministic)")
    p.add_argument("mode", choices=("generate", "replay", "soak"),
                   help="generate an arrival stream, replay a recorded "
                        "trace, or run the overload soak end to end")
    _add_overload_args(p)
    p.add_argument("--compare", action="store_true",
                   help="(soak) also run the admit-everything "
                        "baseline; exit 1 unless admission control "
                        "strictly wins on goodput")
    p.add_argument("--curve", action="store_true",
                   help="(soak) sweep goodput vs offered load over "
                        "0.5x/1x/1.5x/2x saturation")
    p.add_argument("--trace", default=None,
                   help="(replay) recorded traffic trace to replay")
    p.add_argument("--trace-out",
                   help="record the arrival stream as a checksummed "
                        "traffic trace artifact")
    _add_output_args(p, "traffic report", json_flag=True)
    p.set_defaults(fn=cmd_traffic)

    p = sub.add_parser("top",
                       help="fleet dashboard: shard health, per-tier "
                            "attainment, burn rates, top interference "
                            "offenders (deterministic)")
    _add_overload_args(p)
    p.add_argument("--top-k", type=int, default=5,
                   help="interference offenders to list")
    p.add_argument("--burn-fast", type=int, default=6,
                   help="fast burn-rate window in ticks")
    p.add_argument("--burn-slow", type=int, default=24,
                   help="slow burn-rate window in ticks")
    p.add_argument("--burn-budget", type=float, default=0.1,
                   help="error budget as a bad-window fraction")
    p.add_argument("--burn-threshold", type=float, default=2.0,
                   help="burn-rate multiple that fires an alert")
    p.add_argument("--watch", action="store_true",
                   help="stream one trajectory line per tick while "
                        "the soak runs")
    _add_output_args(p, "dashboard snapshot", json_flag=True)
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("trace",
                       help="run a traced flow, export Perfetto/Chrome "
                            "trace or ASCII Gantt")
    _add_target_args(p)
    p.add_argument("--serve", action="store_true",
                   help="trace the multi-tenant soak scenario instead "
                        "of the offline plan flow")
    p.add_argument("--seed", type=int, default=7,
                   help="soak scenario seed (with --serve)")
    p.add_argument("--windows", type=int, default=8,
                   help="soak windows per tenant (with --serve)")
    p.add_argument("--tasks", type=int, default=10,
                   help="tasks per window / simulated run")
    p.add_argument("--export",
                   choices=("perfetto", "chrome", "gantt"),
                   default="perfetto",
                   help="output format (perfetto and chrome are the "
                        "same trace-event JSON)")
    p.add_argument("--width", type=int, default=72,
                   help="chart width (with --export gantt)")
    _add_output_args(p, "exported trace")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("submit",
                       help="submit one job to a fresh server and "
                            "report its admission fate")
    p.add_argument("--platform", default="pixel7a",
                   help="target platform (see `platforms`)")
    p.add_argument("--app", default="octree",
                   help="application (see `apps`)")
    p.add_argument("--name", default="job",
                   help="tenant name for the submission")
    p.add_argument("--priority", type=int, default=1,
                   help="tenant priority (higher survives contention)")
    p.add_argument("--windows", type=int, default=8,
                   help="execution windows to serve")
    p.add_argument("--tasks", type=int, default=10,
                   help="tasks per window")
    p.add_argument("--co", type=int, default=2,
                   help="synthetic co-tenants admitted first")
    p.add_argument("--require", action="append", default=None,
                   metavar="PU_CLASS",
                   help="PU class the job insists on (repeatable)")
    p.add_argument("--queue-capacity", type=int, default=2,
                   help="backpressure queue depth (0 rejects instead)")
    p.add_argument("--cap", type=int, default=2,
                   help="per-tenant partition width cap")
    p.add_argument("--seed", type=int, default=7,
                   help="seed for the synthetic co-tenants")
    _add_output_args(p, "serve report")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("lint", help="static analyzer over the tree: "
                                    "invariant rules and the "
                                    "determinism-flow check")
    p.add_argument("paths", nargs="*", default=[],
                   help="files/directories to analyse (default: the "
                        "installed repro package)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any finding survives")
    p.add_argument("--changed", nargs="?", const="HEAD", default=None,
                   metavar="BASE",
                   help="analyse only python files changed vs the given "
                        "git ref (default: HEAD)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    _add_output_args(p, "JSON report")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("race",
                       help="dynamic concurrency checker (clean pipeline "
                            "run; --selftest seeds violations)")
    p.add_argument("--tasks", type=int, default=8,
                   help="tasks through the instrumented pipeline")
    p.add_argument("--stages", type=int, default=4,
                   help="stages in the counting pipeline")
    p.add_argument("--selftest", action="store_true",
                   help="also seed one violation of each kind and "
                        "verify the checker catches them")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_output_args(p, "JSON report")
    p.set_defaults(fn=cmd_race)

    p = sub.add_parser("report",
                       help="regenerate every paper table/figure")
    p.add_argument("--quick", action="store_true",
                   help="reduced scale for a fast smoke run")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes are uniform across subcommands: 0 = success (or findings
    without ``--strict``), 1 = findings under ``--strict`` (or a failed
    selftest/run, or violations the armed checker recorded during the
    call: one ``{"violations": [...]}`` line on stderr), 2 = tool
    failure - a :class:`ReproError`/``OSError`` rendered as a one-line
    JSON envelope on stderr (``{"error": <class>, "message": <text>}``)
    so drivers and CI can react to the failure kind without scraping
    tracebacks.
    """
    args = build_parser().parse_args(argv)
    before = len(checks.global_log())
    try:
        code = args.fn(args)
    except ReproError as exc:
        print(json.dumps(exc.payload()), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return 2
    violations = [v.to_dict() for v in checks.global_log().since(before)]
    if violations:
        print(json.dumps({"violations": violations}), file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
