"""sha256 of every file and every stdout that one fixed set of nlftl runs emits.

The set, run in process through ``nlftl.cli.main``: ``compare`` on each
builtin scenario, ``entropy-audit --scenario single-step --t-end 2`` with
both methods, the frozen ``stationary-weak`` audit,
``entropy-audit --scenario two-step-0206 --t-end 3`` and a default
``converge``.  The manifest is one JSON object on stdout, with a sha256 per
emitted file (by its path under OUT) and per command's captured stdout.

Two checkouts' manifests list the emitted bytes a change moves.  Write both
to the same OUT in turn, because ``meta.json`` records it:

    PYTHONPATH=src python3 scripts/emit_manifest.py --out /tmp/emit > before.json
    rm -r /tmp/emit   # then, in the other checkout:
    PYTHONPATH=src python3 scripts/emit_manifest.py --out /tmp/emit > after.json
    diff before.json after.json

OUT must be absent or empty: the manifest covers every file under it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from nlftl import builtin_names
from nlftl.cli import main as nlftl_main

CANONICAL = (
    *(("compare", "--scenario", name) for name in builtin_names()),
    *(("entropy-audit", "--scenario", "single-step", "--t-end", "2", "--method", m) for m in ("particles", "godunov")),
    ("entropy-audit", "--scenario", "stationary-weak", "--frozen"),
    ("entropy-audit", "--scenario", "two-step-0206", "--t-end", "3"),
    ("converge", "--scenario", "single-step"),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest(out: Path, commands=CANONICAL) -> dict:
    """Run each command with ``--out out``; hash its stdout, then every file under ``out``."""
    stdout = {}
    for argv in commands:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = nlftl_main([*argv, "--out", str(out)])
        if code != 0:
            raise SystemExit(f"emit_manifest: nlftl {' '.join(argv)} exited {code}")
        stdout[" ".join(argv)] = sha256(captured.getvalue().encode())
    files = {p.relative_to(out).as_posix(): sha256(p.read_bytes()) for p in sorted(out.rglob("*")) if p.is_file()}
    return {"files": files, "stdout": stdout}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True, help="output root, absent or empty")
    args = ap.parse_args()
    if args.out.exists() and (not args.out.is_dir() or any(args.out.iterdir())):
        raise SystemExit(f"emit_manifest: {args.out} is not an empty directory")
    json.dump(manifest(args.out), sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
