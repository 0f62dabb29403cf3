"""Deterministic run manifests with checksummed outputs.

The manifest carries everything needed to verify a stage's outputs:
config hash, package version, and per-file sha256.  Wall-clock timings go
to a separate timings_<stage>.json so manifests stay byte-identical across
repeated runs with the same seed.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import __version__
from .errors import SchemaError
from .fileio import read_record, run_path, sha256_bytes, write_record


def _listed(outdir: Path, f: Path) -> str:
    """How a manifest names file ``f``: relative to the run directory if in it."""
    return str(f.relative_to(outdir)) if f.is_relative_to(outdir) else str(f)


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256_bytes(canon.encode())


def write_manifest(outdir: Path, stage: str, config: dict, outputs,
                   timings: dict | None = None) -> Path:
    """Write manifest_<stage>.json listing every output, a ``fileio.Written``,
    with the checksum and size of the bytes written; it reads no output back."""
    outdir = Path(outdir)
    manifest = {
        "stage": stage,
        "config_hash": config_hash(config),
        "package_version": __version__,
        "outputs": [{"path": _listed(outdir, w.path), "sha256": w.sha256, "bytes": w.size}
                    for w in sorted(outputs)],
    }
    path = write_record(outdir, "manifest", manifest, stage).path
    if timings is not None:
        write_record(outdir, "timings", timings, stage)
    return path


def listing(outdir: Path, stage: str, files) -> tuple[str, dict] | None:
    """The package version of a readable ``manifest_<stage>.json`` and the sha256
    it lists for each of ``files`` that it lists; None if it is missing or malformed."""
    try:
        manifest = read_record(run_path(outdir, "manifest", stage), "manifest")
        sums = {o["path"]: o["sha256"] for o in manifest["outputs"]}
        return manifest["package_version"], {
            f: sums[name] for f in files if (name := _listed(Path(outdir), Path(f))) in sums}
    except (SchemaError, OSError):
        return None


def unlisted(listed: tuple[str, dict] | None, files) -> list:
    """The ``files`` that a :func:`listing` of them does not list; none without a manifest."""
    return [] if listed is None else [f for f in files if f not in listed[1]]


def vouches(listed: tuple[str, dict] | None, blobs: dict) -> bool:
    """Whether a :func:`listing`, of a manifest written by this package version,
    lists every file of ``blobs`` ({path: bytes read from it}) with the sha256 of
    those bytes; a missing or malformed manifest vouches for none."""
    version, sums = listed or (None, {})
    return version == __version__ and all(
        sums.get(p) == sha256_bytes(b) for p, b in blobs.items())
