#!/usr/bin/env python3
"""Scenario: interrogating the scheduler before trusting it.

A performance engineer rarely deploys a black-box schedule.  This
example shows the interrogation workflow on the Octree pipeline (the
paper's mixed sparse/dense application) targeting the Google Pixel 7a:

1. *Is there anything to gain?* - per-stage affinity spreads and the
   model-level speedup bound.
2. *What did the optimizer pick, and why?* - per-chunk breakdown,
   bottleneck, gapness, pipelining gain.
3. *What would the runner-up schedules do?* - explanations for the next
   candidates in the same tier.
4. *Does the pipeline actually overlap?* - the execution Gantt chart.

Run:  python examples/whatif_analysis.py
"""

from repro.apps import build_octree_application
from repro.core import BetterTogether
from repro.eval import (
    explain_schedule,
    format_affinity_report,
    format_explanation,
    speedup_bounds,
    stage_affinity_report,
)
from repro.obs import format_gantt
from repro.runtime import SimulatedPipelineExecutor
from repro.soc import get_platform


def main() -> None:
    platform = get_platform("pixel7a")
    application = build_octree_application()

    framework = BetterTogether(platform, repetitions=10)
    table = framework.profile(application)

    # 1. Is there anything to gain on this platform?
    print("per-stage PU affinities:")
    print(format_affinity_report(stage_affinity_report(application,
                                                       table)))
    bounds = speedup_bounds(
        application, table.restricted(platform.schedulable_classes())
    )
    print(f"\nmodel-level speedup ceiling: {bounds.max_speedup:.2f}x "
          f"(best serial {bounds.best_serial_s * 1e3:.3f} ms, ideal "
          f"parallel {bounds.ideal_parallel_s * 1e3:.3f} ms)")
    print()

    # 2. What did the optimizer pick, and why?
    optimization = framework.optimize(application, table)
    autotune = framework.autotune(application, optimization)
    winner = autotune.measured_best.candidate
    print(f"deployed schedule (measured best, candidate "
          f"#{winner.rank + 1}):")
    print(format_explanation(
        explain_schedule(application, winner.schedule, table)
    ))
    print()

    # 3. The runners-up, for comparison.
    for candidate in optimization.candidates[1:3]:
        explanation = explain_schedule(
            application, candidate.schedule, table
        )
        print(f"candidate #{candidate.rank + 1}: "
              f"{candidate.schedule.describe(application)} -> predicted "
              f"{explanation.predicted_latency_s * 1e3:.3f} ms "
              f"(bottleneck {explanation.bottleneck_chunk})")
    print()

    # 4. Does the deployed pipeline actually overlap?
    executor = SimulatedPipelineExecutor(
        application, winner.schedule.chunks(), platform
    )
    result = executor.run(8, record_trace=True)
    print("execution Gantt (8 frames):")
    print(format_gantt(result.spans))


if __name__ == "__main__":
    main()
