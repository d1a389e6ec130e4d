"""Experiment configuration (INI, canonically emitted) and run manifests."""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction

__version__ = "0.1.0"

SECTION_ORDER = ["domain", "resolution", "exponents", "set", "samples", "output"]


@dataclass
class ExperimentConfig:
    generator: str = "ball"
    gen_params: dict = field(default_factory=dict)
    K: int = 7
    refine: int = 1
    p_list: list[float] = field(default_factory=lambda: [1.25, 1.5, 1.75])
    set_kind: str = "half"
    set_params: dict = field(default_factory=dict)
    pairs: int = 48
    seed: int = 7
    out_dir: str = "runs/out"

    def emit(self) -> str:
        """Canonical text form; parse(emit(c)) round-trips byte-identically."""
        buf = io.StringIO()
        sections = {
            "domain": {"generator": self.generator, **_strmap(self.gen_params)},
            "resolution": {"K": str(self.K), "refine": str(self.refine)},
            "exponents": {"p": " ".join(repr(v) for v in self.p_list)},
            "set": {"kind": self.set_kind, **_strmap(self.set_params)},
            "samples": {"pairs": str(self.pairs), "seed": str(self.seed)},
            "output": {"dir": self.out_dir},
        }
        for name in SECTION_ORDER:
            buf.write(f"[{name}]\n")
            for k in sorted(sections[name]):
                buf.write(f"{k} = {sections[name][k]}\n")
            buf.write("\n")
        return buf.getvalue()

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        cp.read_string(text)
        gen = dict(cp["domain"]) if "domain" in cp else {}
        generator = gen.pop("generator", "ball")
        res = cp["resolution"] if "resolution" in cp else {}
        exps = cp["exponents"] if "exponents" in cp else {}
        sset = dict(cp["set"]) if "set" in cp else {}
        kind = sset.pop("kind", "half")
        samples = cp["samples"] if "samples" in cp else {}
        out = cp["output"] if "output" in cp else {}
        return cls(
            generator=generator,
            gen_params={k: _num(v) for k, v in gen.items()},
            K=int(res.get("K", 7)),
            refine=int(res.get("refine", 1)),
            p_list=[float(v) for v in exps.get("p", "1.5").split()],
            set_kind=kind,
            set_params={k: _num(v) for k, v in sset.items()},
            pairs=int(samples.get("pairs", 48)),
            seed=int(samples.get("seed", 7)),
            out_dir=out.get("dir", "runs/out"),
        )

    def sha256(self) -> str:
        return hashlib.sha256(self.emit().encode()).hexdigest()


def _strmap(d: dict) -> dict:
    return {k: str(v) for k, v in d.items()}


def _num(s: str):
    s = s.strip()
    try:
        return int(s)
    except ValueError:
        pass
    if "/" in s:
        try:
            v = Fraction(s)
            return int(v) if v.denominator == 1 else v
        except ValueError:
            pass
    try:
        return float(s)
    except ValueError:
        return s


@dataclass
class RunManifest:
    config_hash: str
    version: str = __version__
    artifacts: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def add_file(self, path, root=None) -> None:
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        rel = os.path.relpath(path, root) if root else str(path)
        self.artifacts.append({"path": rel, "sha256": digest})

    def time_block(self, name: str):
        return _Timer(self, name)

    def save(self, path) -> None:
        """Write the manifest, keeping the artifacts and timings that an
        existing file at `path` records for other paths and names."""
        artifacts = {a["path"]: a for a in self.artifacts}
        timings = dict(self.timings)
        if os.path.exists(path):
            with open(path) as f:
                old = json.load(f)
            for a in old["artifacts"]:
                artifacts.setdefault(a["path"], a)
            timings = {**old["timings"], **timings}
        payload = {
            "tool_version": self.version,
            "config_hash": self.config_hash,
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
