"""Seeded synthetic corpora for the benchmark, written outside the measured
process and cached by profile scale, seed and generator source.

    python3 perfbench/corpora.py --scale 10 --seed 0 --out FILE

writes one corpus (the synthetic DEFAULT_PROFILE with every count times
the scale). `ensure_corpus` runs that in a child process, so the generator's
record list never counts toward a measured peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CACHE = Path(__file__).resolve().parent / ".cache"
KEEP = 24  # corpora kept, newest first; a 10x corpus is about 42 MB
GENERATOR_SOURCES = ("synthetic.py", "dataset.py")


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generator_digest() -> str:
    h = hashlib.sha256()
    for name in GENERATOR_SOURCES:
        h.update((ROOT / "src" / "zids" / name).read_bytes())
    return h.hexdigest()[:12]


def ensure_corpus(scale: int, seed: int, timeout: float) -> Path:
    """Path of the cached corpus, generating it if missing or corrupt."""
    CACHE.mkdir(parents=True, exist_ok=True)
    path = CACHE / f"kdd-{scale}x-seed{seed}-{generator_digest()}.kdd"
    sidecar = path.with_suffix(".sha256")
    if path.is_file() and sidecar.is_file():
        if file_digest(path) == sidecar.read_text().strip():
            os.utime(path)
            return path
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--scale", str(scale),
             "--seed", str(seed), "--out", str(tmp)],
            check=True, timeout=timeout, cwd=ROOT,
        )
        sidecar.write_text(file_digest(tmp) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    _evict()
    return path


def _evict() -> None:
    corpora = sorted(CACHE.glob("*.kdd"), key=lambda p: p.stat().st_mtime)
    for old in corpora[:-KEEP]:
        old.unlink(missing_ok=True)
        old.with_suffix(".sha256").unlink(missing_ok=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from zids import synthetic

    profile = {label: n * args.scale for label, n in synthetic.DEFAULT_PROFILE.items()}
    synthetic.write_corpus(args.out, profile, seed=args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
