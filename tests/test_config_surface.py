"""The settable knobs of the config and scenario classes.

``SURFACE`` pins every settable field of the classes in ``CLASSES`` -
its name and default - together with why it is a field and not a
constant (DESIGN.md §10, the Options rule): two different values the
shipped callers pass (the CLI, the presets in
``repro.traffic.scenario``, ``bench/``, ``examples/``, ``benchmarks/``),
or a value that comes from outside the program.  A new knob fails here until it is added to ``SURFACE`` with
its reason and named in §10.  CI's ``config fields`` count reads
``CLASSES`` from this module.

The environment is the other way a value enters from outside: an AST
scan pins the variables ``src/`` reads to ``REPRO_CHECK`` alone.
"""

import ast
import dataclasses
from pathlib import Path

from repro.fleet.health import HealthConfig
from repro.fleet.router import FleetConfig
from repro.traffic.scenario import (
    FleetOverloadScenario,
    FleetSoakScenario,
    SoakScenario,
)
from repro.traffic.spec import BurstSpec, TierSpec, TrafficSpec

CLASSES = (FleetConfig, HealthConfig, SoakScenario, FleetSoakScenario,
           FleetOverloadScenario, TrafficSpec, TierSpec, BurstSpec)

DESIGN = Path(__file__).parent.parent / "DESIGN.md"
SRC = Path(__file__).parent.parent / "src" / "repro"

#: What a saved trace carries (``traffic replay --trace``), and every
#: traffic report writes back out.
TRACE = "trace field"

#: ``Class.field`` -> (default, the two shipped values or the outside
#: source).  ``required`` marks a field without a default.
SURFACE = {
    "FleetConfig.max_ticks": (
        "128", "fleet --max-ticks; traffic/top --ticks; "
               "serve --windows + 18; submit (--co + 1) × --windows + 8"),
    "FleetConfig.max_impact_ratio": (
        "2.5", "fleet soak 2.5; serve and submit 1.5; overload 1.25 / "
               "admit-everything 1e9"),
    "FleetConfig.max_partition_classes": (
        "1", "fleets 1; submit --cap"),
    "FleetConfig.cumulative_impact": (
        "False", "soak, submit, fleet soak False; overload and bench "
                 "True"),
    "FleetConfig.reschedule": (
        "True", "serve and fleet soaks True; serve --frozen and bench "
                "fleets False"),
    "FleetConfig.backlog_patience": ("24", "fleet soak 24; overload 6"),
    "FleetConfig.queue_capacity": (
        "None", "fleet and overload soaks None; serve 0; "
                "submit --queue-capacity"),
    "FleetConfig.failover": ("True", "True; fleet --no-failover"),
    "FleetConfig.health": (
        "HealthConfig(slo_factor=2.0, slo_breach_ticks=3)",
        "fleet soak (1.5, 2); overload the default"),
    "FleetConfig.attribution": ("False", "False; top True"),
    "HealthConfig.slo_factor": ("2.0", "fleet soak 1.5; overload 2.0"),
    "HealthConfig.slo_breach_ticks": ("3", "fleet soak 2; overload 3"),
    "SoakScenario.platform_name": ("'pixel7a'", "serve --platform"),
    "SoakScenario.seed": ("7", "serve --seed"),
    "SoakScenario.windows": ("30", "serve --windows"),
    "SoakScenario.window_tasks": ("10", "serve --tasks"),
    "SoakScenario.drift_start_tick": ("4", "serve --drift-tick"),
    "FleetSoakScenario.seed": ("7", "fleet --seed"),
    "FleetSoakScenario.n_shards": ("4", "fleet --shards"),
    "FleetSoakScenario.n_tenants": ("12", "fleet --tenants"),
    "FleetSoakScenario.platform_name": ("'pixel7a'", "fleet --platform"),
    "FleetSoakScenario.max_ticks": ("96", "fleet --max-ticks"),
    "FleetOverloadScenario.seed": ("7", "traffic/top --seed"),
    "FleetOverloadScenario.n_shards": ("2", "traffic/top --shards"),
    "FleetOverloadScenario.ticks": ("48", "traffic/top --ticks"),
    "FleetOverloadScenario.saturation_arrivals_per_tick": (
        "None", "CLI None; bench 1.1 per two shards"),
    "FleetOverloadScenario.load_multiplier": (
        "1.5", "traffic/top --multiplier; traffic soak --curve "
               "0.5-2.0"),
    "FleetOverloadScenario.app_pool_size": (
        "4", "CLI and two bench fleets 4; bench chaos fleet 192"),
    "TrafficSpec.ticks": ("64", TRACE),
    "TrafficSpec.arrival_process": ("'poisson'", TRACE),
    "TrafficSpec.arrivals_per_tick": ("0.5", TRACE),
    "TrafficSpec.load_multiplier": ("1.0", TRACE),
    "TrafficSpec.diurnal_amplitude": ("0.0", TRACE),
    "TrafficSpec.diurnal_period_ticks": ("64", TRACE),
    "TrafficSpec.bursts": ("()", TRACE),
    "TrafficSpec.mmpp_surge_factor": ("3.0", TRACE),
    "TrafficSpec.mmpp_enter_surge": ("0.1", TRACE),
    "TrafficSpec.mmpp_exit_surge": ("0.3", TRACE),
    "TrafficSpec.tiers": (
        "(TierSpec(name='gold', priority=2, weight=1.0, "
        "slo_slowdown=1.35, window_tasks=6), "
        "TierSpec(name='silver', priority=1, weight=2.0, "
        "slo_slowdown=1.6, window_tasks=6), "
        "TierSpec(name='bronze', priority=0, weight=3.0, "
        "slo_slowdown=2.0, window_tasks=6))", TRACE),
    "TrafficSpec.session_alpha": ("1.5", TRACE),
    "TrafficSpec.session_windows_min": ("2", TRACE),
    "TrafficSpec.session_windows_max": ("24", TRACE),
    "TrafficSpec.app_pool_size": ("4", TRACE),
    "TrafficSpec.stage_count": ("3", TRACE),
    "TierSpec.name": ("required", TRACE),
    "TierSpec.priority": ("required", TRACE),
    "TierSpec.weight": ("required", TRACE),
    "TierSpec.slo_slowdown": ("required", TRACE),
    "TierSpec.window_tasks": ("6", TRACE),
    "BurstSpec.start_tick": ("required", TRACE),
    "BurstSpec.end_tick": ("required", TRACE),
    "BurstSpec.multiplier": ("required", TRACE),
}


def default(field: dataclasses.Field) -> str:
    """A field's default as :data:`SURFACE` writes it."""
    if field.default is not dataclasses.MISSING:
        return repr(field.default)
    if field.default_factory is not dataclasses.MISSING:
        return repr(field.default_factory())
    return "required"


def settable() -> dict:
    """``{Class.field: default}`` over every settable field."""
    return {
        f"{cls.__name__}.{field.name}": default(field)
        for cls in CLASSES for field in dataclasses.fields(cls)
        if field.init
    }


def test_every_settable_field_is_pinned():
    assert settable() == {name: pinned for name, (pinned, _)
                          in SURFACE.items()}
    assert len(SURFACE) == 52


def test_design_names_every_field():
    text = DESIGN.read_text(encoding="utf-8")
    section = text.split("## 10. ", 1)[1].split("\n## ", 1)[0]
    unnamed = [name for name in SURFACE if f"`{name}`" not in section]
    assert unnamed == []


def dotted(node: ast.AST) -> str:
    """``os.environ.get`` for the expression spelling it, else ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return ""


def environment_reads() -> set:
    """``(module, variable)`` for every ``os.environ[...]``,
    ``os.environ.get(...)`` and ``os.getenv(...)`` in ``src/``; a
    variable named by a module-level string constant is resolved."""
    reads = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants = {
            target.id: node.value.value
            for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            for target in node.targets if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Subscript)
                    and dotted(node.value) == "os.environ"):
                variable = node.slice
            elif (isinstance(node, ast.Call) and node.args and dotted(
                    node.func) in ("os.environ.get", "os.getenv")):
                variable = node.args[0]
            else:
                continue
            if isinstance(variable, ast.Name):
                name = constants.get(variable.id, variable.id)
            else:
                name = ast.literal_eval(variable)
            reads.add((path.relative_to(SRC).as_posix(), name))
    return reads


def test_the_environment_surface_is_the_checker_switch():
    """The one environment variable ``src/`` reads arms the runtime
    checker; nothing read from the environment changes what a run
    computes (DESIGN.md §10)."""
    assert environment_reads() == {
        ("runtime/checks.py", "REPRO_CHECK")}
    section = DESIGN.read_text(encoding="utf-8").split(
        "## 10. ", 1)[1].split("\n## ", 1)[0]
    assert "`REPRO_CHECK`" in section
