"""Versioned host datasets: the full hostif state of a node, on disk.

A :class:`HostDataset` is a snapshot of everything the virtual host
interface exposes — every readable file of the sysfs tree and every
readable MSR of every cpu — taken the way ``pepc``'s ``-D`` datasets
capture a real machine: by *reading the interface*, never by pickling
Python objects. The format is canonical JSONL (one header line, one
line per entry in a deterministic order, one sha256 trailer), reusing
the :mod:`repro.conformance` canonicalization, so byte equality of two
dataset files is exactly state equality of two hosts and a truncated or
tampered file is rejected like a corrupt fleet checkpoint.

:func:`restore_host` rebuilds a bit-identical host from a dataset: a
fresh node is built from the recorded seed, the dataset's configuration
is re-applied purely through hostif writes (sysfs files and MSR
registers — the same write-through paths ``repro-pepcctl`` uses), and
the restored host is re-snapshotted and compared entry-for-entry
against the dataset. Any residue — including counter state a mid-run
snapshot would carry, which no configuration write can reproduce —
fails the restore loudly instead of emulating the wrong host.

Datasets are how the experiment service and ``repro-pepcctl -H/-D``
address named hosts without holding them live: the dataset digest joins
the scenario manifest digest and schema version in the service's result
cache key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.conformance.recorder import (seal_jsonl, sha256_hex, unseal_jsonl,
                                       write_atomic)
from repro.errors import ConformanceError, DatasetError, MsrError
from repro.hostif import VirtualHost
from repro.hostif.msr_regs import HostMsr
from repro.hostif.sysfs import VirtualSysfs
from repro.specs.node import HASWELL_TEST_NODE
from repro.system.node import build_haswell_node

DATASET_FORMAT = "repro-host-dataset"
DATASET_VERSION = 1

#: File-name convention a named dataset resolves through.
DATASET_SUFFIX = ".dataset.jsonl"

#: Default search path for ``-H <name>`` style lookups (first hit wins).
DEFAULT_SEARCH_DIRS = ("datasets", "benchmarks/output/datasets")

_SYS = "/sys/devices/system/cpu"


def _sysfs_paths(host: VirtualHost) -> list[str]:
    """Every readable file of the virtual sysfs tree, sorted."""
    paths = [f"{_SYS}/{name}" for name in ("online", "possible", "present")]
    for cpu in host.cpu_ids:
        for attr in VirtualSysfs._CPUFREQ_FILES:
            paths.append(f"{_SYS}/cpu{cpu}/cpufreq/{attr}")
        for index in range(len(VirtualSysfs._IDLE_STATES)):
            for attr in VirtualSysfs._CPUIDLE_FILES:
                paths.append(f"{_SYS}/cpu{cpu}/cpuidle/state{index}/{attr}")
        for attr in VirtualSysfs._POWER_FILES:
            paths.append(f"{_SYS}/cpu{cpu}/power/{attr}")
        for attr in VirtualSysfs._TOPOLOGY_FILES:
            paths.append(f"{_SYS}/cpu{cpu}/topology/{attr}")
    for package in range(len(host.node.sockets)):
        for attr in VirtualSysfs._UNCORE_FILES:
            paths.append(f"{_SYS}/intel_uncore_frequency/"
                         f"package_{package}_die_00/{attr}")
    return sorted(paths)


@dataclass(frozen=True)
class HostDataset:
    """One host's complete interface state, plus how to rebuild it."""

    name: str
    seed: int
    spec: str
    t_ns: int
    entries: tuple[dict, ...]
    version: int = DATASET_VERSION
    # Entry shapes (kinds are closed):
    #   {"kind": "sysfs", "path": str, "value": str}
    #   {"kind": "msr", "cpu": int, "address": int, "value": int}

    # ---- identity --------------------------------------------------------

    def header(self) -> dict:
        return {"format": DATASET_FORMAT, "version": self.version,
                "name": self.name, "seed": self.seed, "spec": self.spec,
                "t_ns": self.t_ns, "n_entries": len(self.entries)}

    def to_jsonl(self) -> str:
        return seal_jsonl(self.header(), self.entries)

    def digest(self) -> str:
        """Full sha256 over the canonical file bytes — the identity the
        service result cache folds into its keys."""
        return sha256_hex(self.to_jsonl())

    def by_key(self) -> dict[tuple, dict]:
        """Entries keyed for diffing: ("sysfs", path) / ("msr", cpu, addr)."""
        out: dict[tuple, dict] = {}
        for e in self.entries:
            key = (("sysfs", e["path"]) if e["kind"] == "sysfs"
                   else ("msr", e["cpu"], e["address"]))
            out[key] = e
        return out

    # ---- deserialization -------------------------------------------------

    @classmethod
    def from_jsonl(cls, text: str) -> "HostDataset":
        try:
            header, entries = unseal_jsonl(text, DATASET_FORMAT)
        except ConformanceError as exc:
            raise DatasetError(f"dataset: {exc}") from exc
        if header.get("version") != DATASET_VERSION:
            raise DatasetError(
                f"dataset version {header.get('version')!r} is not the "
                f"supported version {DATASET_VERSION}")
        if header.get("n_entries") != len(entries):
            raise DatasetError(
                f"dataset header declares {header.get('n_entries')} "
                f"entries, file carries {len(entries)}")
        return cls(name=str(header["name"]), seed=int(header["seed"]),
                   spec=str(header["spec"]), t_ns=int(header["t_ns"]),
                   entries=tuple(entries))


# ---- snapshot ---------------------------------------------------------------

def snapshot_host(host: VirtualHost, name: str, seed: int) -> HostDataset:
    """Read the complete hostif state of a live host into a dataset.

    ``seed`` is the simulator seed the host's node was built from — the
    restore path needs it to rebuild identical silicon. Reads go through
    the same public sysfs/MSR surface every hostif client uses.
    """
    entries: list[dict] = []
    for path in _sysfs_paths(host):
        entries.append({"kind": "sysfs", "path": path,
                        "value": host.sysfs.read(path)})
    for cpu in host.cpu_ids:
        for address in sorted(HostMsr):
            try:
                value = host.msr.read(cpu, int(address))
            except MsrError:
                continue            # e.g. PP0 is absent on Haswell-EP
            entries.append({"kind": "msr", "cpu": cpu,
                            "address": int(address), "value": int(value)})
    return HostDataset(name=name, seed=seed, spec=host.node.spec.name,
                       t_ns=host.sim.now_ns, entries=tuple(entries))


# ---- restore ----------------------------------------------------------------

def _sysfs_value(by_key: dict[tuple, dict], path: str) -> str | None:
    entry = by_key.get(("sysfs", path))
    return None if entry is None else entry["value"]


def _apply_configuration(host: VirtualHost,
                         dataset: HostDataset) -> None:
    """Re-apply the dataset's configuration through hostif writes only.

    Ordering mirrors ``repro-pepcctl``: governors first (setspeed needs
    userspace), limits widening-first, then package-scoped registers,
    then per-cpu c-state disables.
    """
    by_key = dataset.by_key()
    for cpu in host.cpu_ids:
        base = f"{_SYS}/cpu{cpu}/cpufreq"
        governor = _sysfs_value(by_key, f"{base}/scaling_governor")
        if governor is not None:
            host.sysfs.write(f"{base}/scaling_governor", governor)
        new_min = _sysfs_value(by_key, f"{base}/scaling_min_freq")
        new_max = _sysfs_value(by_key, f"{base}/scaling_max_freq")
        if new_min is not None and new_max is not None:
            cur_min = host.sysfs.read(f"{base}/scaling_min_freq")
            writes = [("scaling_max_freq", new_max),
                      ("scaling_min_freq", new_min)]
            if int(new_max) < int(cur_min):   # narrowing below current min
                writes.reverse()
            for attr, value in writes:
                host.sysfs.write(f"{base}/{attr}", value)
        setspeed = _sysfs_value(by_key, f"{base}/scaling_setspeed")
        if governor == "userspace" and setspeed not in (None, "<unsupported>"):
            host.sysfs.write(f"{base}/scaling_setspeed", setspeed)
        epb = _sysfs_value(by_key, f"{_SYS}/cpu{cpu}/power/energy_perf_bias")
        if epb is not None:
            host.sysfs.write(f"{_SYS}/cpu{cpu}/power/energy_perf_bias", epb)
    # Package-scoped registers: one write through the first cpu of each
    # socket, raw register images straight from the dataset.
    for socket in host.node.sockets:
        cpu = socket.cores[0].core_id
        for address in (HostMsr.IA32_MISC_ENABLE,
                        HostMsr.MSR_PKG_POWER_LIMIT,
                        HostMsr.MSR_UNCORE_RATIO_LIMIT):
            entry = by_key.get(("msr", cpu, int(address)))
            if entry is not None:
                host.msr.write(cpu, int(address), int(entry["value"]))
    for cpu in host.cpu_ids:
        for index in range(len(VirtualSysfs._IDLE_STATES)):
            path = f"{_SYS}/cpu{cpu}/cpuidle/state{index}/disable"
            if _sysfs_value(by_key, path) == "1":
                host.sysfs.write(path, "1")


def restore_host(dataset: HostDataset, *, verify: bool = True):
    """Rebuild a bit-identical host from a dataset.

    Returns ``(sim, node, host)``. With ``verify`` (the default), the
    restored host is re-snapshotted and compared entry-for-entry against
    the dataset; any mismatch raises :class:`~repro.errors.DatasetError`
    naming the first divergent entries. The cpufreq governor tick is not
    started — callers decide when (and whether) the host goes live,
    exactly like :class:`~repro.hostif.VirtualHost` construction.
    """
    if dataset.spec != HASWELL_TEST_NODE.name:
        raise DatasetError(
            f"dataset {dataset.name!r} was captured on spec "
            f"{dataset.spec!r}; this tree can rebuild only "
            f"{HASWELL_TEST_NODE.name!r}")
    sim, node = build_haswell_node(seed=dataset.seed)
    host = VirtualHost(sim, node)
    _apply_configuration(host, dataset)
    if verify:
        mismatches = diff_datasets(
            dataset, snapshot_host(host, dataset.name, dataset.seed))
        if mismatches:
            shown = "; ".join(_render_diff_line(m) for m in mismatches[:3])
            raise DatasetError(
                f"restored host diverges from dataset {dataset.name!r} "
                f"in {len(mismatches)} entr{'y' if len(mismatches) == 1 else 'ies'} "
                f"({shown}); a dataset snapshot must be taken before the "
                "simulation runs — counter state cannot be re-applied "
                "through configuration writes")
    return sim, node, host


# ---- diff -------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetDiff:
    """One divergent entry between two datasets."""

    key: tuple
    expected: object        # value in the first dataset, or None if absent
    actual: object          # value in the second dataset, or None if absent


def diff_datasets(expected: HostDataset,
                  actual: HostDataset) -> list[DatasetDiff]:
    """Entry-level differences, sorted by key; empty means identical state."""
    a, b = expected.by_key(), actual.by_key()
    out = []
    for key in sorted(set(a) | set(b)):
        va = a[key]["value"] if key in a else None
        vb = b[key]["value"] if key in b else None
        if va != vb:
            out.append(DatasetDiff(key=key, expected=va, actual=vb))
    return out


def _render_diff_line(diff: DatasetDiff) -> str:
    if diff.key[0] == "sysfs":
        where = diff.key[1]
    else:
        where = f"msr cpu{diff.key[1]} {diff.key[2]:#x}"
    return f"{where}: {diff.expected!r} != {diff.actual!r}"


def render_diff(diffs: list[DatasetDiff]) -> str:
    if not diffs:
        return "datasets are state-identical"
    lines = [f"{len(diffs)} divergent entr{'y' if len(diffs) == 1 else 'ies'}:"]
    lines.extend("  " + _render_diff_line(d) for d in diffs)
    return "\n".join(lines)


# ---- files and name resolution ----------------------------------------------

def save_dataset(dataset: HostDataset, path: Path | str) -> Path:
    return write_atomic(Path(path), dataset.to_jsonl())


def load_dataset(path: Path | str) -> HostDataset:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    return HostDataset.from_jsonl(text)


def dataset_path(root: Path | str, name: str) -> Path:
    return Path(root) / f"{name}{DATASET_SUFFIX}"


def list_datasets(root: Path | str) -> list[tuple[str, Path]]:
    """(name, path) for every dataset file under ``root``, sorted."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(
        (p.name[:-len(DATASET_SUFFIX)], p)
        for p in root.glob(f"*{DATASET_SUFFIX}"))


def resolve_dataset(name_or_path: str,
                    search_dirs: tuple[str, ...] | None = None) -> Path:
    """A pepc-style ``-D`` argument: an explicit path, or a name looked
    up through the search directories (first hit wins)."""
    direct = Path(name_or_path)
    if direct.is_file():
        return direct
    dirs = search_dirs if search_dirs is not None else DEFAULT_SEARCH_DIRS
    for root in dirs:
        candidate = dataset_path(root, name_or_path)
        if candidate.is_file():
            return candidate
    raise DatasetError(
        f"no dataset {name_or_path!r} (searched: "
        f"{', '.join(str(d) for d in dirs)})")
