"""Known-bad fixture: unpicklable callables into the supervised pool."""

from repro.util.pool import SupervisedPool


def scale(values, factor):
    pool = SupervisedPool(2)
    futures = [pool.submit(lambda v: v * factor, v) for v in values]

    def bump(v):
        return v + 1

    extra = pool.submit(bump, 1, max_attempts=3)
    return futures, extra


class Sweep:
    def __init__(self):
        self._pool = SupervisedPool(4)

    def run(self, values):
        return [self._pool.submit(lambda v: v, v) for v in values]
