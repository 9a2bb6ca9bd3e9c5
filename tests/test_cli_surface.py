"""The CLI's surface and its output contract.

``SURFACE`` pins every option of every ``python -m repro`` command -
option strings, ``dest``, ``default``, ``const``, ``choices``,
``nargs``, ``type`` and action - so a refactor of how the commands
declare their flags cannot add, drop or re-default one unnoticed.  The
contract tests run each command that takes ``--json`` or ``--out`` at
smoke size: under ``--json`` stdout is exactly one JSON document, the
``--out`` file holds the same payload, and file-written notes go to
stderr only, so stdout is the same with or without ``--out``.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

TESTS = Path(__file__).parent


def describe(action: argparse.Action) -> str:
    """One option as a line of :data:`SURFACE`."""
    fields = [" ".join(sorted(action.option_strings)) or action.dest,
              f"dest={action.dest}",
              type(action).__name__.strip("_").replace("Action", "")]
    for key in ("default", "const", "choices", "nargs"):
        value = getattr(action, key)
        if value is not None:
            if key == "choices":
                value = list(value)
            fields.append(f"{key}={value!r}")
    if action.type is not None:
        fields.append(f"type={action.type.__name__}")
    return " ".join(fields)


def surface() -> dict:
    """``{command: sorted option descriptions}``, help flags excluded."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted(describe(a) for a in parser._actions
                     if not isinstance(a, argparse._HelpAction))
        for name, parser in sub.choices.items()
    }


SURFACE = {
    'platforms': [
        '--json dest=json StoreTrue default=False const=True nargs=0',
        '--out dest=out Store',
    ],
    'apps': [
        '--json dest=json StoreTrue default=False const=True nargs=0',
        '--out dest=out Store',
    ],
    'profile': [
        "--app dest=app Store default='octree'",
        '--eval-tasks dest=eval_tasks Store default=30 type=int',
        '--k dest=k Store default=20 type=int',
        "--mode dest=mode Store default='interference'"
        " choices=['isolated', 'interference']",
        '--out dest=out Store',
        "--platform dest=platform Store default='pixel7a'",
        '--repetitions dest=repetitions Store default=30 type=int',
    ],
    'plan': [
        "--app dest=app Store default='octree'",
        '--eval-tasks dest=eval_tasks Store default=30 type=int',
        '--k dest=k Store default=20 type=int',
        '--out dest=out Store',
        "--platform dest=platform Store default='pixel7a'",
        '--repetitions dest=repetitions Store default=30 type=int',
    ],
    'run': [
        "--app dest=app Store default='octree'",
        '--eval-tasks dest=eval_tasks Store default=30 type=int',
        '--k dest=k Store default=20 type=int',
        "--platform dest=platform Store default='pixel7a'",
        '--repetitions dest=repetitions Store default=30 type=int',
        '--resume dest=resume Store type=Path',
        '--session dest=session Store type=Path',
        '--verbose dest=verbose StoreTrue default=False const=True nargs=0',
    ],
    'baselines': [
        "--app dest=app Store default='octree'",
        '--eval-tasks dest=eval_tasks Store default=30 type=int',
        '--k dest=k Store default=20 type=int',
        "--platform dest=platform Store default='pixel7a'",
        '--repetitions dest=repetitions Store default=30 type=int',
    ],
    'analyze': [
        "--app dest=app Store default='octree'",
        '--eval-tasks dest=eval_tasks Store default=30 type=int',
        '--k dest=k Store default=20 type=int',
        "--platform dest=platform Store default='pixel7a'",
        '--repetitions dest=repetitions Store default=30 type=int',
    ],
    'gantt': [
        "--app dest=app Store default='octree'",
        '--eval-tasks dest=eval_tasks Store default=30 type=int',
        '--k dest=k Store default=20 type=int',
        "--platform dest=platform Store default='pixel7a'",
        '--repetitions dest=repetitions Store default=30 type=int',
        '--tasks dest=tasks Store default=8 type=int',
        '--width dest=width Store default=72 type=int',
    ],
    'faultsim': [
        "--app dest=app Store default='octree'",
        '--dropout-after dest=dropout_after Store default=2 type=int',
        '--dropout-pu dest=dropout_pu Store',
        '--eval-tasks dest=eval_tasks Store default=30 type=int',
        '--fail-attempts dest=fail_attempts Store default=1 type=int',
        '--k dest=k Store default=20 type=int',
        '--kernel-fault-rate dest=kernel_fault_rate Store'
        ' default=0.15 type=float',
        '--max-attempts dest=max_attempts Store default=3 type=int',
        '--no-dropout dest=no_dropout StoreTrue default=False'
        ' const=True nargs=0',
        '--out dest=out Store',
        "--platform dest=platform Store default='pixel7a'",
        '--repetitions dest=repetitions Store default=30 type=int',
        '--seed dest=seed Store default=0 type=int',
        '--tasks dest=tasks Store default=8 type=int',
    ],
    'serve': [
        '--drift-tick dest=drift_tick Store default=4 type=int',
        '--frozen dest=frozen StoreTrue default=False const=True nargs=0',
        '--gantt dest=gantt StoreTrue default=False const=True nargs=0',
        '--json dest=json StoreTrue default=False const=True nargs=0',
        '--out dest=out Store',
        "--platform dest=platform Store default='pixel7a'",
        '--seed dest=seed Store default=7 type=int',
        '--tasks dest=tasks Store default=10 type=int',
        '--trace-out dest=trace_out Store',
        '--width dest=width Store default=72 type=int',
        '--windows dest=windows Store default=30 type=int',
    ],
    'fleet': [
        '--json dest=json StoreTrue default=False const=True nargs=0',
        '--max-ticks dest=max_ticks Store default=96 type=int',
        '--no-failover dest=no_failover StoreTrue default=False'
        ' const=True nargs=0',
        '--out dest=out Store',
        "--platform dest=platform Store default='pixel7a'",
        '--seed dest=seed Store default=7 type=int',
        '--shards dest=shards Store default=4 type=int',
        '--tenants dest=tenants Store default=12 type=int',
        '--trace-out dest=trace_out Store',
    ],
    'traffic': [
        '--compare dest=compare StoreTrue default=False const=True nargs=0',
        '--curve dest=curve StoreTrue default=False const=True nargs=0',
        '--json dest=json StoreTrue default=False const=True nargs=0',
        '--multiplier dest=multiplier Store default=1.5 type=float',
        '--no-admission dest=no_admission StoreTrue default=False'
        ' const=True nargs=0',
        '--out dest=out Store',
        '--seed dest=seed Store default=7 type=int',
        '--shards dest=shards Store default=2 type=int',
        '--ticks dest=ticks Store default=48 type=int',
        '--trace dest=trace Store',
        '--trace-out dest=trace_out Store',
        "mode dest=mode Store choices=['generate', 'replay', 'soak']",
    ],
    'top': [
        '--burn-budget dest=burn_budget Store default=0.1 type=float',
        '--burn-fast dest=burn_fast Store default=6 type=int',
        '--burn-slow dest=burn_slow Store default=24 type=int',
        '--burn-threshold dest=burn_threshold Store default=2.0 type=float',
        '--json dest=json StoreTrue default=False const=True nargs=0',
        '--multiplier dest=multiplier Store default=1.5 type=float',
        '--no-admission dest=no_admission StoreTrue default=False'
        ' const=True nargs=0',
        '--out dest=out Store',
        '--seed dest=seed Store default=7 type=int',
        '--shards dest=shards Store default=2 type=int',
        '--ticks dest=ticks Store default=48 type=int',
        '--top-k dest=top_k Store default=5 type=int',
        '--watch dest=watch StoreTrue default=False const=True nargs=0',
    ],
    'trace': [
        "--app dest=app Store default='octree'",
        '--eval-tasks dest=eval_tasks Store default=30 type=int',
        "--export dest=export Store default='perfetto'"
        " choices=['perfetto', 'chrome', 'gantt']",
        '--k dest=k Store default=20 type=int',
        '--out dest=out Store',
        "--platform dest=platform Store default='pixel7a'",
        '--repetitions dest=repetitions Store default=30 type=int',
        '--seed dest=seed Store default=7 type=int',
        '--serve dest=serve StoreTrue default=False const=True nargs=0',
        '--tasks dest=tasks Store default=10 type=int',
        '--width dest=width Store default=72 type=int',
        '--windows dest=windows Store default=8 type=int',
    ],
    'submit': [
        "--app dest=app Store default='octree'",
        '--cap dest=cap Store default=2 type=int',
        '--co dest=co Store default=2 type=int',
        "--name dest=name Store default='job'",
        '--out dest=out Store',
        "--platform dest=platform Store default='pixel7a'",
        '--priority dest=priority Store default=1 type=int',
        '--queue-capacity dest=queue_capacity Store default=2 type=int',
        '--require dest=require Append',
        '--seed dest=seed Store default=7 type=int',
        '--tasks dest=tasks Store default=10 type=int',
        '--windows dest=windows Store default=8 type=int',
    ],
    'lint': [
        "--changed dest=changed Store const='HEAD' nargs='?'",
        "--format dest=format Store default='text' choices=['text', 'json']",
        '--list-rules dest=list_rules StoreTrue default=False'
        ' const=True nargs=0',
        '--out dest=out Store',
        '--strict dest=strict StoreTrue default=False const=True nargs=0',
        "paths dest=paths Store default=[] nargs='*'",
    ],
    'race': [
        "--format dest=format Store default='text' choices=['text', 'json']",
        '--out dest=out Store',
        '--selftest dest=selftest StoreTrue default=False const=True nargs=0',
        '--stages dest=stages Store default=4 type=int',
        '--tasks dest=tasks Store default=8 type=int',
    ],
    'report': [
        '--quick dest=quick StoreTrue default=False const=True nargs=0',
    ],
}


def test_every_command_keeps_every_option():
    assert surface() == SURFACE
    assert len(SURFACE) == 18
    assert sum(len(rows) for rows in SURFACE.values()) == 137


#: Commands with ``--json`` (or ``--format json``) at smoke size, and
#: the flag that turns JSON mode on.
JSON_COMMANDS = {
    "platforms": (["platforms"], "--json"),
    "apps": (["apps"], "--json"),
    "serve": (["serve", "--windows", "8", "--tasks", "4"], "--json"),
    "fleet": (["fleet"], "--json"),
    "traffic-generate": (["traffic", "generate", "--ticks", "12"],
                         "--json"),
    "traffic-soak": (["traffic", "soak", "--ticks", "12"], "--json"),
    "top": (["top", "--ticks", "12"], "--json"),
    "lint": (["lint", str(TESTS / "lint_fixtures")], "--format=json"),
    "race": (["race", "--tasks", "4"], "--format=json"),
}

#: Every command with ``--out``, bar two: ``trace``'s ``--out`` replaces
#: stdout (see below), and ``faultsim``'s note is checked where
#: ``test_cli`` already runs its threaded back-end.
OUT_COMMANDS = {
    **{name: argv for name, (argv, _) in JSON_COMMANDS.items()},
    "profile": ["profile", "--platform", "raspberry_pi5",
                "--repetitions", "2"],
    "plan": ["plan", "--platform", "raspberry_pi5", "--repetitions", "2",
             "--k", "2", "--eval-tasks", "4"],
    "submit": ["submit", "--co", "1", "--windows", "4"],
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
def test_json_mode_prints_one_document_and_out_holds_it(
    name, capsys, tmp_path
):
    argv, json_flag = JSON_COMMANDS[name]
    path = tmp_path / "out.json"
    code, out, err = run(capsys, argv + [json_flag, "--out", str(path)])
    assert code in (0, 1)  # lint/flow fixtures carry findings
    assert json.loads(out) == json.loads(path.read_text())
    assert err.endswith(f"saved to {path}\n")
    assert run(capsys, argv + [json_flag]) == (code, out, "")


@pytest.mark.parametrize("name", sorted(OUT_COMMANDS))
def test_out_leaves_stdout_unchanged(name, capsys, tmp_path):
    argv = OUT_COMMANDS[name]
    path = tmp_path / "out.json"
    code, out, err = run(capsys, argv + ["--out", str(path)])
    assert path.exists()
    assert "saved to" not in out and f"saved to {path}" in err
    assert run(capsys, argv)[:2] == (code, out)


@pytest.mark.parametrize("export", ["perfetto", "gantt"])
def test_trace_writes_out_in_both_exports(export, capsys, tmp_path):
    argv = ["trace", "--platform", "raspberry_pi5", "--repetitions", "2",
            "--k", "2", "--eval-tasks", "4", "--tasks", "2",
            "--export", export, "--width", "40"]
    path = tmp_path / "trace.out"
    code, out, err = run(capsys, argv + ["--out", str(path)])
    assert (code, out) == (0, "")
    assert f"saved to {path}" in err
    if export == "gantt":
        assert path.read_text() == run(capsys, argv)[1]
    else:
        assert json.loads(path.read_text())["traceEvents"]


def test_soak_trace_out_leaves_the_report_unchanged(capsys, tmp_path):
    argv = ["traffic", "soak", "--ticks", "12", "--json"]
    trace = tmp_path / "trace.json"
    code, out, _ = run(capsys, argv + ["--trace-out", str(trace)])
    assert json.loads(trace.read_text())["kind"] == "traffic_trace"
    assert run(capsys, argv) == (code, out, "")
