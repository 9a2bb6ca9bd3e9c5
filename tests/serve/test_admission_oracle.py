"""Decision oracle: ``AdmissionController.evaluate`` against the
per-candidate pricing it replaced.

``evaluate`` derives the candidate-invariant terms (the busy-class
union, each incumbent's "others" set and contention span) once per
call.  :func:`reference_evaluate` below is the previous implementation,
kept verbatim as a test-only reference: it re-walks ``running`` and
re-derives every prediction from the tables for each candidate.  Over
generated placements the two must return the same decision - action,
reason string, the candidate's schedule, latency and the impact dict
including its key order.

The reference also keeps reading the *solved* list for every cap and
breaking ties on offline ``rank``; ``evaluate`` asks the plan for the
candidates within its cap (``CachedPlan.within``: a cap of one is
answered from ``singles``, whose ranks are positions in that list, so
the candidate objects themselves are not compared) and lets a tie go to
the earlier candidate.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import build_synthetic_application
from repro.serve import (
    RUNNING,
    AdmissionController,
    PlacementMap,
    TenantRecord,
    TenantSpec,
)
from repro.serve.admission import ADMIT, QUEUE, REJECT, AdmissionDecision

APP_SEEDS = (11, 12, 13)


# ----------------------------------------------------------------------
# The reference: per-candidate pricing, straight from the tables
# ----------------------------------------------------------------------
def _span(record):
    app = record.plan.application
    isolated = record.schedule.predicted_latency(
        app, record.plan.isolated)
    if isolated <= 0:
        return 1.0
    return max(
        record.schedule.predicted_latency(app, record.plan.interference)
        / isolated, 1.0)


def _impact(controller, candidate, running):
    busy_after = set(candidate.schedule.pu_classes_used)
    if controller.cumulative_impact:
        for record in running.values():
            busy_after |= set(record.partition)
    impact = {}
    for name, record in running.items():
        if record.plan is None or record.schedule is None:
            continue
        others = controller._schedulable - set(record.partition)
        if not others:
            impact[name] = 1.0
            continue
        fraction = len(busy_after & others) / len(others)
        impact[name] = 1.0 + fraction * (_span(record) - 1.0)
    return impact


def _loaded_prediction(controller, plan, candidate, running):
    own = set(candidate.schedule.pu_classes_used)
    others = controller._schedulable - own
    busy = set()
    for record in running.values():
        busy |= set(record.partition)
    fraction = len(busy & others) / len(others) if others else 0.0
    isolated = candidate.schedule.predicted_latency(
        plan.application, plan.isolated)
    interference = candidate.schedule.predicted_latency(
        plan.application, plan.interference)
    return isolated + fraction * (interference - isolated)


def reference_evaluate(controller, spec, placement, running):
    plan = controller.plan_cache.plan_for(spec.application)
    unservable = spec.required_classes - controller._schedulable
    if unservable:
        return AdmissionDecision(
            REJECT,
            f"required PU classes {sorted(unservable)} are not "
            "schedulable on this platform",
        )
    cap = controller.max_partition_classes
    if cap is not None and len(spec.required_classes) > cap:
        return AdmissionDecision(
            REJECT,
            f"{len(spec.required_classes)} required PU classes "
            f"exceed the per-tenant partition cap of {cap}",
        )
    coverable = [
        c for c in plan.optimization.candidates
        if spec.required_classes <= set(c.schedule.pu_classes_used)
        and (cap is None or len(set(c.schedule.pu_classes_used)) <= cap)
    ]
    if not coverable:
        return AdmissionDecision(
            REJECT,
            "no cached schedule candidate covers required PU "
            f"classes {sorted(spec.required_classes)} within the "
            "partition cap",
        )
    free = placement.free_classes()
    fitting = [c for c in coverable
               if set(c.schedule.pu_classes_used) <= free]
    if not fitting:
        return AdmissionDecision(
            QUEUE,
            "required PU classes are held by running tenants "
            "(no-oversubscription)",
        )
    best, best_key, best_impact = None, None, {}
    for candidate in fitting:
        impact = _impact(controller, candidate, running)
        worst = max(impact.values(), default=1.0)
        latency = _loaded_prediction(controller, plan, candidate, running)
        dispreferred = not (
            spec.preferred_classes
            <= set(candidate.schedule.pu_classes_used))
        key = (worst > controller.max_impact_ratio, dispreferred,
               latency, candidate.rank)
        if best_key is None or key < best_key:
            best, best_key, best_impact = candidate, key, impact
    if best_key[0]:
        worst_tenant = max(best_impact, key=lambda t: best_impact[t])
        return AdmissionDecision(
            QUEUE,
            f"predicted {best_impact[worst_tenant]:.2f}x slowdown "
            f"on tenant {worst_tenant!r} exceeds the "
            f"{controller.max_impact_ratio:.2f}x impact ceiling",
        )
    return AdmissionDecision(
        ADMIT,
        f"candidate on {sorted(set(best.schedule.pu_classes_used))} "
        "fits the free PUs",
        candidate=best,
        predicted_latency_s=best_key[2],
        predicted_impact=best_impact,
    )


def same_decision(decision, expected):
    """Everything a decision states, the impact's key order included;
    of the candidate, the schedule it deploys."""
    def facts(d):
        return (d.action, d.reason,
                d.candidate and d.candidate.schedule.assignments,
                d.predicted_latency_s, list(d.predicted_impact.items()))
    return facts(decision) == facts(expected)


# ----------------------------------------------------------------------
# Generated placements
# ----------------------------------------------------------------------
def _apps():
    return [build_synthetic_application(seed=seed, stage_count=3)
            for seed in APP_SEEDS]


@st.composite
def scenes(draw, classes):
    """(incumbents, newcomer knobs): each incumbent is (app index,
    candidate pick, has-a-plan); candidates that do not fit what is
    still free are skipped when the placement is built."""
    incumbents = draw(st.lists(
        st.tuples(st.integers(0, len(APP_SEEDS) - 1),
                  st.integers(0, 31), st.booleans()),
        max_size=len(classes),
    ))
    wanted = st.frozensets(
        st.sampled_from(sorted(classes) + ["npu9000"]), max_size=2)
    return {
        "incumbents": incumbents,
        "app": draw(st.integers(0, len(APP_SEEDS) - 1)),
        "required": draw(wanted),
        "preferred": draw(wanted),
        "cap": draw(st.sampled_from([None, 1, 2, 3])),
        "cumulative": draw(st.booleans()),
        "ceiling": draw(st.sampled_from([1.0, 1.05, 1.25, 1.5, 1e9])),
    }


def build_placement(platform, plan_cache, apps, incumbents):
    """Admission-ordered running set + the placement map it implies."""
    pmap = PlacementMap(platform.schedulable_classes())
    running = {}
    for index, (app_index, pick, planned) in enumerate(incumbents):
        app = apps[app_index]
        plan = plan_cache.plan_for(app)
        free = pmap.free_classes()
        fitting = [c for c in plan.optimization.candidates
                   if set(c.schedule.pu_classes_used) <= free]
        if not fitting:
            continue
        schedule = fitting[pick % len(fitting)].schedule
        name = f"t{index}"
        running[name] = TenantRecord(
            spec=TenantSpec(name=name, application=app),
            status=RUNNING,
            # A record without a plan prices nobody's impact but still
            # keeps its classes busy.
            plan=plan if planned else None,
            schedule=schedule if planned else None,
            partition=pmap.assign(name, app, schedule),
            admission_order=index,
        )
    return pmap, running


class TestDecisionOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_evaluate_equals_per_candidate_reference(
        self, platform, plan_cache, data
    ):
        apps = _apps()
        scene = data.draw(scenes(platform.schedulable_classes()))
        pmap, running = build_placement(
            platform, plan_cache, apps, scene["incumbents"])
        controller = AdmissionController(
            platform, plan_cache,
            max_impact_ratio=scene["ceiling"],
            max_partition_classes=scene["cap"],
            cumulative_impact=scene["cumulative"],
        )
        spec = TenantSpec(
            name="newcomer", application=apps[scene["app"]],
            required_classes=scene["required"],
            preferred_classes=scene["preferred"],
        )
        expected = reference_evaluate(controller, spec, pmap, running)
        decision = controller.evaluate(spec, pmap, running)
        assert same_decision(decision, expected)

    def test_generator_reaches_every_outcome(self, platform, plan_cache):
        """The property above is only as good as its coverage: a fixed
        sweep of the same scene space must hit admit, both deferrals
        and every rejection."""
        apps = _apps()
        classes = sorted(platform.schedulable_classes())
        reasons = set()
        for n_incumbents in range(len(classes) + 1):
            incumbents = [(i % len(apps), 0, True)
                          for i in range(n_incumbents)]
            for cumulative in (False, True):
                for ceiling in (1.0, 1.25, 1e9):
                    for required in (frozenset(), frozenset({"gpu"}),
                                     frozenset({"npu9000"}),
                                     frozenset(classes[:2])):
                        pmap, running = build_placement(
                            platform, plan_cache, apps, incumbents)
                        controller = AdmissionController(
                            platform, plan_cache,
                            max_impact_ratio=ceiling,
                            max_partition_classes=1,
                            cumulative_impact=cumulative,
                        )
                        spec = TenantSpec(
                            name="newcomer", application=apps[0],
                            required_classes=required)
                        decision = controller.evaluate(
                            spec, pmap, running)
                        assert same_decision(
                            decision, reference_evaluate(
                                controller, spec, pmap, running))
                        reasons.add((decision.action,
                                     decision.reason.split()[0]))
        # (action, first word of the reason): admitted; deferred for
        # held classes / the impact ceiling; refused for unschedulable
        # classes ("required ...") and for more required classes than
        # the cap ("2 required ...").
        assert reasons == {
            ("admit", "candidate"),
            ("queue", "required"), ("queue", "predicted"),
            ("reject", "required"), ("reject", "2"),
        }
