"""Access to the bundled corpus of small groups."""

from __future__ import annotations

import json

from .groups import DEFAULT_GROUP_CAP, GroupHandle


def _data_root():
    from importlib import resources  # only the bundled corpus is read through it

    return resources.files("commgraph") / "data"


def list_corpus() -> list[str]:
    """Names of the bundled group files, sorted."""
    return sorted(p.name[:-5] for p in _data_root().iterdir() if p.name.endswith(".json"))


def load_corpus_group(name: str, cap: int = DEFAULT_GROUP_CAP) -> GroupHandle:
    payload = json.loads((_data_root() / f"{name}.json").read_text())
    return GroupHandle.from_json(payload, cap=cap, name=name)


def load_group_file(path, cap: int = DEFAULT_GROUP_CAP) -> GroupHandle:
    """Parse a group file from disk (permutation or matrix format)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return GroupHandle.from_json(payload, cap=cap, name=str(path))
