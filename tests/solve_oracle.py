"""Shared equipment of the lazy-plan suites (core, serve, fleet,
traffic): count - or forbid - the solves a run pays for, name the plans
a rescheduler re-ranked, and say where two dumps part ways.

The oracle itself is the root conftest's ``always_solve``: armed, a
capped admission picks among the one-class members of each plan's
*solved* list, as it did when a plan was solved at build time.
"""

from repro.core.optimizer import BTOptimizer
from repro.serve.rescheduler import OnlineRescheduler


def first_difference(shipped, oracle):
    """None when two dumps are equal, else where they part ways (a
    pytest diff of two multi-megabyte strings takes minutes)."""
    if shipped == oracle:
        return None
    at = next((index for index, (a, b) in enumerate(zip(shipped, oracle))
               if a != b), min(len(shipped), len(oracle)))
    return (f"at {at}: {shipped[max(0, at - 120):at + 120]!r} != "
            f"{oracle[max(0, at - 120):at + 120]!r}")


def solved_singles(plan):
    """The eager design's ``singles``: the one-class members of the
    solved list, offline ranks and all."""
    return [c for c in plan.optimization.candidates
            if len(c.schedule.class_set) == 1]


def count_solves(monkeypatch):
    """Application names, one per ``BTOptimizer.optimize`` call, in
    call order."""
    solved = []
    original = BTOptimizer.optimize

    def optimize(optimizer):
        solved.append(optimizer.application.name)
        return original(optimizer)

    monkeypatch.setattr(BTOptimizer, "optimize", optimize)
    return solved


def forbid_solves(monkeypatch):
    """Any ``BTOptimizer.optimize`` call fails the run."""
    def optimize(optimizer):
        raise AssertionError(
            f"nobody can use a solved {optimizer.application.name!r}")

    monkeypatch.setattr(BTOptimizer, "optimize", optimize)


def record_reranks(monkeypatch):
    """The plan of every ``OnlineRescheduler.rerank`` call, in call
    order (the objects, so identities stay comparable)."""
    reranked = []
    original = OnlineRescheduler.rerank

    def rerank(rescheduler, record, *args, **kwargs):
        reranked.append(record.plan)
        return original(rescheduler, record, *args, **kwargs)

    monkeypatch.setattr(OnlineRescheduler, "rerank", rerank)
    return reranked


def distinct(plans):
    """Application names of ``plans``, one per plan *object*, sorted -
    comparable to :func:`count_solves`' list, sorted."""
    return sorted(plan.application.name for plan in
                  {id(plan): plan for plan in plans}.values())


def plans_built(router):
    """Cold plans of one fleet run: misses over its distinct caches
    (same-platform shards share one)."""
    return sum(cache.misses for cache in
               {id(shard.plan_cache): shard.plan_cache
                for shard in router.shards}.values())
