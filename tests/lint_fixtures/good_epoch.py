"""Known-good fixture: plain assignment and in-interceptor escapes."""


class Intercepted:
    _EPOCH_FIELDS = frozenset({"freq_hz"})

    def __setattr__(self, name, value):
        # Inside the interceptor, object.__setattr__ is the sanctioned
        # way to store after bumping the epoch.
        object.__setattr__(self, name, value)
        if name in self._EPOCH_FIELDS:
            self.epoch.bump()


def force_frequency(core, f_hz):
    core.freq_hz = f_hz


def apply_known(core, f_hz):
    setattr(core, "freq_hz", f_hz)


def clear_pending(core):
    osa = object.__setattr__
    osa(core, "pending_freq_hz", None)
