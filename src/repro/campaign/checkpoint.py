"""Crash-safe incremental campaign checkpoints.

The runner streams every finished scenario into ``results.jsonl`` —
one JSON object per line, flushed and fsync'd per result — so a killed
campaign (worker crash, OOM, ctrl-C, power loss) leaves behind a
prefix of valid results instead of nothing.  ``run --resume <out>``
replays that file, skips everything already done, and re-runs only the
remainder; the merged payload is identical to an uninterrupted run
because scenario results are deterministic functions of
``(scenario, campaign_seed)``.

A ``manifest.json`` written before the first scenario pins the matrix
identity (name, seed, engine, scenario count); resuming against a
checkpoint from a *different* campaign is a configuration error, not a
silent merge of incompatible rows.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Union

from repro.errors import ConfigError

#: Checkpoint file names inside a campaign output directory.
RESULTS_NAME = "results.jsonl"
MANIFEST_NAME = "manifest.json"


class ResultLog:
    """Append-only fsync'd JSONL writer for per-scenario results.

    Durability contract: after ``append`` returns, the line is on disk
    (``flush`` + ``os.fsync``) — a crash immediately afterwards cannot
    lose it.  Lines are single JSON objects, so a crash *during* a
    write can only truncate the final line, which ``load_results``
    tolerates.
    """

    def __init__(self, path: str, append: bool = False):
        self.path = path
        self._fh = open(path, "a" if append else "w", encoding="utf-8")

    def append(self, result: Dict[str, object], sync: bool = True) -> None:
        self._fh.write(json.dumps(result, sort_keys=True) + "\n")
        if sync:
            self.sync()

    def sync(self) -> None:
        """Force written lines to disk (for batched ``append`` calls)."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "ResultLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_results(path: str) -> List[Dict[str, object]]:
    """Read a checkpoint, tolerating a torn final line.

    A crash mid-``write`` leaves at most one truncated line at the end
    of the file; it is dropped (that scenario simply re-runs).  A
    malformed line anywhere *else* means the file is not a checkpoint
    we wrote, and raises.
    """
    results: List[Dict[str, object]] = []
    if not os.path.exists(path):
        return results
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            results.append(json.loads(line))
        except json.JSONDecodeError:
            if lineno == len(lines) - 1:
                break  # torn tail from a mid-write crash
            raise ConfigError(
                f"{path}:{lineno + 1}: corrupt checkpoint line"
            )
    return results


def manifest_payload(matrix: str, campaign_seed: int,
                     sim_mode: Optional[str],
                     scenario_count: int) -> Dict[str, object]:
    """The identity a checkpoint is valid against."""
    return {
        "matrix": matrix,
        "campaign_seed": campaign_seed,
        "sim_mode": sim_mode,
        "scenario_count": scenario_count,
    }


def atomic_write(path: Union[str, "os.PathLike[str]"], text: str) -> None:
    """Durable atomic file write (temp + fsync + rename).

    The temp name (``<path>.tmp``) is deterministic per target, so an
    interrupted write is overwritten — never accumulated — by the
    retry, keeping output trees bit-identical across crash/restart
    cycles.
    """
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_manifest(path: str, manifest: Dict[str, object]) -> None:
    """Write the manifest durably (see :func:`atomic_write`)."""
    atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def check_manifest(path: str, manifest: Dict[str, object]) -> None:
    """Refuse to resume against a checkpoint from another campaign."""
    if not os.path.exists(path):
        raise ConfigError(
            f"{path}: no manifest — not a resumable campaign directory"
        )
    with open(path, "r", encoding="utf-8") as fh:
        on_disk = json.load(fh)
    mismatched = sorted(
        key for key in manifest
        if on_disk.get(key) != manifest[key]
    )
    if mismatched:
        detail = ", ".join(
            f"{key}: checkpoint={on_disk.get(key)!r} run={manifest[key]!r}"
            for key in mismatched
        )
        raise ConfigError(f"resume mismatch ({detail})")
