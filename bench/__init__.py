"""The perf ledger: one command that measures the whole stack.

``python -m bench`` runs four named workloads, each in its own
subprocess, prints every end-to-end and per-layer metric by name with
its unit, verifies the program's outputs, and writes a results JSON.
End-to-end numbers come from untraced repeats; per-layer numbers from
one extra *traced* repeat in which :mod:`bench.trace` wraps the
layers' public callables from outside.  Nothing under ``src/`` knows
the harness exists.

See ``bench/README.md`` for the metric tables and how to take a
before/after.
"""
