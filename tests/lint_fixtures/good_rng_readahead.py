"""Known-good fixture: read ahead through DrawBatch.ahead, commit by take."""


def plan_ticks(batch, lo, hi, quantum_ns, horizon_ns):
    # ahead() shows what the next takes return; it consumes nothing.
    times = []
    t = 0
    for jitter in batch.ahead(lo, hi):
        if t + quantum_ns + jitter > horizon_ns:
            break
        t += quantum_ns + jitter
        times.append(t)
    return times


def commit_ticks(batch, lo, hi, n):
    # Every value used is then taken, from the site it stands for.
    return [batch.take(lo, hi) for _ in range(n)]


def named_access_elsewhere(obj):
    return getattr(obj, "label", "")
