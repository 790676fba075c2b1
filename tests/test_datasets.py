"""Host datasets: snapshot/restore bit-parity and artifact integrity.

The properties certified here back the experiment service's cache keys:
a dataset file's bytes *are* its host's state (round-trip identity,
variant-independent snapshots), restore reproduces that state exactly
or fails loudly, and any tampered or truncated file is rejected the way
a corrupt conformance trace is.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import DatasetError
from repro.conformance.hostconfig import CONFIGURE
from repro.hostif import VirtualHost
from repro.service.dataset import (
    HostDataset,
    dataset_path,
    diff_datasets,
    list_datasets,
    load_dataset,
    render_diff,
    resolve_dataset,
    restore_host,
    save_dataset,
    snapshot_host,
)
from repro.system.node import build_haswell_node
from repro.units import ms

SEED = 271


def _fresh_host(seed: int = SEED, configure: str | None = None) -> VirtualHost:
    sim, node = build_haswell_node(seed=seed)
    host = VirtualHost(sim, node)
    if configure is not None:
        CONFIGURE[configure](host)
    return host


def _snapshot(seed: int = SEED, configure: str | None = None,
              name: str = "t") -> HostDataset:
    return snapshot_host(_fresh_host(seed, configure), name, seed)


# ---- snapshot / round-trip ---------------------------------------------------


def test_snapshot_covers_sysfs_and_msr_state():
    ds = _snapshot()
    kinds = {e["kind"] for e in ds.entries}
    assert kinds == {"sysfs", "msr"}
    assert len(ds.entries) > 500            # full surface, not a sample
    assert ds.t_ns == 0
    assert ds.spec == _fresh_host().node.spec.name


def test_jsonl_round_trip_is_identity():
    ds = _snapshot(configure="hostif")
    again = HostDataset.from_jsonl(ds.to_jsonl())
    assert again == ds
    assert again.to_jsonl() == ds.to_jsonl()
    assert again.digest() == ds.digest()


def test_snapshot_is_deterministic():
    assert _snapshot().to_jsonl() == _snapshot().to_jsonl()


def test_seed_changes_the_dataset():
    assert _snapshot(seed=271).digest() != _snapshot(seed=272).digest()


def test_direct_and_hostif_configuration_snapshot_identically():
    """The parity guarantee at the dataset layer: configuring through
    direct node calls and through hostif writes yields byte-identical
    snapshots, so a dataset never records *how* a host was set up."""
    direct = _snapshot(configure="direct")
    hostif = _snapshot(configure="hostif")
    assert diff_datasets(direct, hostif) == []
    assert direct.to_jsonl() == hostif.to_jsonl()


# ---- restore ----------------------------------------------------------------


def test_restore_baseline_is_bit_identical():
    ds = _snapshot()
    sim, node, host = restore_host(ds)
    assert snapshot_host(host, ds.name, ds.seed).to_jsonl() == ds.to_jsonl()


def test_restore_configured_host_is_bit_identical():
    ds = _snapshot(configure="hostif")
    sim, node, host = restore_host(ds)       # verify=True re-snapshots
    again = snapshot_host(host, ds.name, ds.seed)
    assert again.digest() == ds.digest()


def test_restore_rejects_mid_run_snapshot():
    """Counter state cannot be re-applied through configuration writes:
    a snapshot taken after the simulation ran must fail restore instead
    of silently producing a host with zeroed counters."""
    host = _fresh_host(configure="hostif").start()
    host.sim.run_for(ms(2))
    ds = snapshot_host(host, "midrun", SEED)
    with pytest.raises(DatasetError, match="diverges"):
        restore_host(ds)


def test_restore_rejects_foreign_spec():
    ds = _snapshot()
    alien = HostDataset(name=ds.name, seed=ds.seed, spec="not-a-spec",
                        t_ns=ds.t_ns, entries=ds.entries)
    with pytest.raises(DatasetError, match="spec"):
        restore_host(alien)


# ---- tamper / truncation rejection ------------------------------------------


def _lines(ds: HostDataset) -> list[str]:
    return ds.to_jsonl().splitlines()


def test_tampered_entry_is_rejected():
    lines = _lines(_snapshot())
    victim = json.loads(lines[10])
    victim["value"] = "999999"
    lines[10] = json.dumps(victim, sort_keys=True, separators=(",", ":"))
    with pytest.raises(DatasetError, match="integrity"):
        HostDataset.from_jsonl("\n".join(lines) + "\n")


def test_truncated_dataset_is_rejected():
    lines = _lines(_snapshot())
    # Drop entries but keep the trailer: the sha256 no longer matches.
    with pytest.raises(DatasetError):
        HostDataset.from_jsonl("\n".join(lines[:-10] + [lines[-1]]) + "\n")
    # Drop the trailer entirely.
    with pytest.raises(DatasetError):
        HostDataset.from_jsonl("\n".join(lines[:-1]) + "\n")


def test_entry_count_mismatch_is_rejected():
    ds = _snapshot()
    header = ds.header()
    header["n_entries"] = len(ds.entries) + 1
    from repro.conformance.recorder import canonical_json, sha256_hex
    body = "\n".join([canonical_json(header)]
                     + [canonical_json(e) for e in ds.entries]) + "\n"
    text = body + canonical_json({"sha256": sha256_hex(body)}) + "\n"
    with pytest.raises(DatasetError, match="declares"):
        HostDataset.from_jsonl(text)


# ---- diff -------------------------------------------------------------------


def test_diff_of_identical_datasets_is_empty():
    ds = _snapshot()
    assert diff_datasets(ds, ds) == []
    assert "state-identical" in render_diff([])


def test_diff_reports_configured_entries():
    baseline = _snapshot()
    tuned = _snapshot(configure="hostif")
    diffs = diff_datasets(baseline, tuned)
    assert diffs
    keys = {d.key for d in diffs}
    assert any(k[0] == "sysfs" and "scaling_governor" in k[1] for k in keys)
    assert any(k[0] == "msr" for k in keys)
    rendered = render_diff(diffs)
    assert f"{len(diffs)} divergent" in rendered


# ---- files and resolution ---------------------------------------------------


def test_save_load_and_resolution(tmp_path):
    root = tmp_path / "datasets"
    ds = _snapshot(name="alpha")
    path = save_dataset(ds, dataset_path(root, "alpha"))
    save_dataset(_snapshot(seed=272, name="beta"),
                 dataset_path(root, "beta"))

    assert load_dataset(path).digest() == ds.digest()
    assert [n for n, _ in list_datasets(root)] == ["alpha", "beta"]
    assert resolve_dataset("alpha", (str(root),)) == dataset_path(root,
                                                                  "alpha")
    assert resolve_dataset(str(path), ()) == path
    with pytest.raises(DatasetError, match="no dataset"):
        resolve_dataset("gamma", (str(root),))


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(DatasetError, match="cannot read"):
        load_dataset(tmp_path / "nope.dataset.jsonl")


def test_tampered_file_on_disk_is_rejected(tmp_path):
    path = save_dataset(_snapshot(), tmp_path / "t.dataset.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    entry = json.loads(lines[1])
    entry["value"] = "tampered"
    lines[1] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_dataset(path)
