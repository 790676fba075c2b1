"""Sealed canonical JSONL: one corruption matrix over every consumer.

Fleet shard checkpoints, service cache entries and host datasets share
one on-disk layout (``seal_jsonl``/``unseal_jsonl``): header line, row
lines, sha256 trailer. Each consumer keeps its own policy for a broken
file. A shard or a cache entry that fails to unseal is simply missing
(the work re-runs); a host dataset is an input the user named, so it
raises :class:`DatasetError`.
"""

from __future__ import annotations

import functools
import json

import pytest

from repro.conformance.recorder import seal_jsonl
from repro.conformance.scenario import make_manifest, run_scenario
from repro.errors import DatasetError
from repro.fleet import CheckpointStore, FleetPlan, ShardCheckpoint
from repro.hostif import VirtualHost
from repro.service.cache import ResultCache, make_entry
from repro.service.dataset import load_dataset, save_dataset, snapshot_host
from repro.system.node import build_haswell_node
from repro.units import ms


@functools.lru_cache(maxsize=None)
def _cache_entry():
    manifest = make_manifest(seed=31, measure_ns=ms(2))
    trace = run_scenario(manifest)
    return make_entry(cache_key=manifest.cache_key(""),
                      manifest_digest=manifest.digest(), dataset_digest="",
                      result={"trace_digest": trace.digest()},
                      trace_jsonl=trace.to_jsonl())


@functools.lru_cache(maxsize=None)
def _dataset():
    sim, node = build_haswell_node(seed=271)
    return snapshot_host(VirtualHost(sim, node), "t", 271)


def _fleet_shard(tmp_path):
    plan = FleetPlan(n_nodes=4, seed_root=77, shard_size=2)
    store = CheckpointStore(tmp_path, plan).ensure()
    node_ids = plan.shards()[0].node_ids
    path = store.write_shard(ShardCheckpoint(
        plan_digest=plan.digest(), shard_id=0, node_ids=node_ids,
        records=tuple({"node_id": n, "pkg_power_w": 100.0 + n}
                      for n in node_ids)))
    return path, lambda: store.load_shard(0)


def _cache_file(tmp_path):
    cache, entry = ResultCache(tmp_path), _cache_entry()
    return cache.put(entry), lambda: cache.get(entry.cache_key)


def _dataset_file(tmp_path):
    path = save_dataset(_dataset(), tmp_path / "t.dataset.jsonl")
    return path, lambda: load_dataset(path)


#: consumer -> (write a sealed file, reader); True when a broken file
#: must raise instead of reading as missing.
CONSUMERS = {"fleet shard": (_fleet_shard, False),
             "cache entry": (_cache_file, False),
             "host dataset": (_dataset_file, True)}


def _flip_byte(text: str) -> str:
    """Change the first digit of the first row line."""
    start = text.index("\n") + 1
    i = next(k for k in range(start, len(text)) if text[k].isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def _foreign_tag(text: str) -> str:
    """Re-seal under another format tag: a valid trailer, wrong kind."""
    lines = text.splitlines()
    header = {**json.loads(lines[0]), "format": "something-else"}
    return seal_jsonl(header, [json.loads(ln) for ln in lines[1:-1]])


#: corruption -> (rewrite, message a raising consumer must carry)
CORRUPTIONS = {
    "truncated": (lambda text: text[: len(text) // 2], "trailer|truncated"),
    "flipped byte": (_flip_byte, "integrity"),
    "missing trailer": (lambda text: "".join(text.splitlines(True)[:-1]),
                        "trailer"),
    "foreign format tag": (_foreign_tag, "format"),
}


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
@pytest.mark.parametrize("consumer", list(CONSUMERS))
def test_corrupt_file_follows_consumer_policy(tmp_path, consumer,
                                              corruption):
    write, raises = CONSUMERS[consumer]
    rewrite, message = CORRUPTIONS[corruption]
    path, read = write(tmp_path)
    assert read() is not None               # the intact file reads back
    text = path.read_text(encoding="utf-8")
    path.write_text(rewrite(text), encoding="utf-8")
    if raises:
        with pytest.raises(DatasetError, match=message):
            read()
    else:
        assert read() is None
    path.write_text(text, encoding="utf-8")
    assert read() is not None               # and reads again once restored
