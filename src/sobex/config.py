"""Run manifests: artifact hashes, per-command argument hashes and timings."""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

__version__ = "0.1.0"


@dataclass
class RunManifest:
    config_hash: str
    version: str = __version__
    artifacts: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def add_file(self, path, root=None) -> None:
        digest = hashlib.sha256()
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                digest.update(block)
        rel = os.path.relpath(path, root) if root else str(path)
        self.artifacts.append({"path": rel, "sha256": digest.hexdigest()})

    def time_block(self, name: str):
        return _Timer(self, name)

    def save(self, path) -> None:
        """Write the manifest, keeping the artifacts, timings and config
        hashes that an existing file at `path` records for other paths and
        names.  `config_hash` is stored under each timed name."""
        artifacts = {a["path"]: a for a in self.artifacts}
        timings = dict(self.timings)
        hashes = {name: self.config_hash for name in timings}
        if os.path.exists(path):
            with open(path) as f:
                old = json.load(f)
            for a in old["artifacts"]:
                artifacts.setdefault(a["path"], a)
            # an older manifest holds one string hash; it is replaced, and
            # the timings it kept go with it
            if isinstance(old.get("config_hash"), dict):
                timings = {**old["timings"], **timings}
                hashes = {**old["config_hash"], **hashes}
        payload = {
            "tool_version": self.version,
            "config_hash": hashes,
            "artifacts": sorted(artifacts.values(), key=lambda a: a["path"]),
            "timings": timings,
        }
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")


class _Timer:
    def __init__(self, manifest, name):
        self.manifest = manifest
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.manifest.timings[self.name] = round(time.perf_counter() - self.t0, 3)
        return False
