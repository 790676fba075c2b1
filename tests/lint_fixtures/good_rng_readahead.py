"""Known-good fixture: read ahead through DrawBatch.block, commit by take."""


def plan_ticks(batch, lo, hi, quantum_ns, horizon_ns):
    # block() shows what the next takes return; it consumes nothing.
    times = []
    t = 0
    block, cursor = batch.block(lo, hi)
    for jitter in block[cursor:]:
        if t + quantum_ns + jitter > horizon_ns:
            break
        t += quantum_ns + jitter
        times.append(t)
    return times


def commit_ticks(batch, lo, hi, n):
    # Every value used is then taken, from the site it stands for.
    return [batch.take(lo, hi) for _ in range(n)]


def commit_ticks_at_once(batch, lo, hi, n):
    # take_n takes n of them at once and never refills.
    return batch.take_n(n, lo, hi)


def named_access_elsewhere(obj):
    return getattr(obj, "label", "")
