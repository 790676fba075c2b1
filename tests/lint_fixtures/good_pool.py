"""Known-good fixture: the supervised pool gets module-level callables
only (a functools.partial over one pickles by reference too)."""

from functools import partial

from repro.util.pool import SupervisedPool


def double(value):
    return value * 2


def scale(values):
    pool = SupervisedPool(2)
    return [pool.submit(partial(double, v), max_attempts=3) for v in values]


class Sweep:
    def __init__(self):
        self._pool = SupervisedPool(4)

    def run(self, values):
        return [self._pool.submit(double, v) for v in values]
