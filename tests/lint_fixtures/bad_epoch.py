"""Known-bad fixture: rate-relevant writes dodging __setattr__."""


def force_frequency(core, f_hz):
    object.__setattr__(core, "freq_hz", f_hz)


def poke_state(core, updates):
    core.__dict__["cstate"] = updates["cstate"]
    core.__dict__.update(updates)


def apply_fields(core, fields):
    for name, value in fields.items():
        setattr(core, name, value)


_osa = object.__setattr__


def grant_license(core, license):
    _osa(core, "avx_license", license)


def land_grant(core, f_hz):
    osa = object.__setattr__
    osa(core, "freq_hz", f_hz)
