"""Lint fixture (never imported): UNTAGGED-SPAN violations."""

from repro.obs import spans


def handmade(chunk, pu, task):
    # Direct construction bypasses the tagging factory.
    return spans.Span(chunk, pu, task, 0.0, 1.0)


def handmade_bare(Span):
    return Span(chunk_index=0, pu_class="big", task_id=0,
                start_s=0.0, end_s=1.0)
