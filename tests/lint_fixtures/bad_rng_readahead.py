"""Known-bad fixture: a hand-made read-ahead of a DrawBatch buffer."""

import operator


def next_jitters(batch):
    # Reaching the buffer by name is still reaching into it.
    buffer = getattr(batch, "_prefill")
    return buffer[getattr(batch, "_prefill_cursor"):]


def buffer_of(batch):
    return operator.attrgetter("_prefill")(batch)


def tuned_for(batch, lo, hi):
    return batch._prefill_args == (lo, hi)
