#!/usr/bin/env python3
"""Paired benchmark runs of two trees, with the output fingerprints of both.

Usage, from anywhere inside the repository:

    python3 scripts/pair.py --base REV [--change REV] [--workload W ...]
        [--runs 10] [--seconds 20] [--seed 1] [--out pairs.json]

``--base`` and ``--change`` name git revisions; without ``--change`` the
change is the working tree, its tracked and untracked files that git does
not ignore.  Each tree is unpacked into a temporary directory.  For each
workload (by default every one in ``BENCHMARK.json``), pair k runs
``benchmarks/run.py --workload W --seed (seed + k) --seconds S --trace 0``
on both trees, one process at a time, the base first in even pairs and
the change first in odd ones.  The change's ``scripts/fingerprint.py`` is
copied into both trees and run there at its default size.

The JSON report (to ``--out``, else standard output) gives, per workload
and end-to-end metric, each side's runs, median and quartiles, the pairs
each side won (a tie counts for neither; the direction is
``BENCHMARK.json``'s ``better``), the change's median in the worse
direction relative to the base's beside the metric's bound, and the claim
test: the change wins at least nine tenths of the pairs and its median is
better by more than the distance between the base's quartiles.  It also
lists every fingerprinted output whose hash moved.  The script exits 1 when
a run exits non-zero or reports ``correct: false``, 2 when a tree cannot
be unpacked.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(Exception):
    pass


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True
    ).stdout


def unpack(rev, dest: Path) -> None:
    """The files of revision ``rev`` in ``dest``; ``rev`` None is the working tree."""
    dest.mkdir(parents=True)
    if rev is not None:
        archive = dest.parent / f"{dest.name}.tar"
        _git("archive", "--format=tar", f"--output={archive}", rev)
        # The "data" filter, where this Python has it, refuses links out of dest.
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(archive) as tar:
            tar.extractall(dest, **safe)
        archive.unlink()
        return
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():  # a tracked file deleted in the tree is gone
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metric values of one ``benchmarks/run.py`` run in ``tree``."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {}
    if done.returncode != 0 or record.get("correct") is not True:
        raise RunFailed(
            f"{tree.name}: {workload} seed {seed} exited {done.returncode}, "
            f"correct {record.get('correct')}: {done.stderr.strip()[-500:]}"
        )
    return {name: m["value"] for name, m in record["metrics"].items()}


def fingerprint(tree: Path, script: bytes) -> str:
    """The listing of ``script``, a fingerprint.py, run as ``tree``'s own."""
    target = tree / "scripts" / "fingerprint.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(script)
    done = subprocess.run(
        [sys.executable, str(target)], cwd=tree, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise RunFailed(
            f"{tree.name}: fingerprint exited {done.returncode}: "
            f"{done.stderr.strip()[-500:]}"
        )
    return done.stdout


def fingerprint_diff(base: str, change: str) -> list[str]:
    """Names of the outputs whose hash differs, or that only one side wrote."""
    sides = [
        dict(reversed(line.split("  ", 1)) for line in text.splitlines() if line)
        for text in (base, change)
    ]
    base, change = sides
    return sorted(n for n in {*base, *change} if base.get(n) != change.get(n))


def _spread(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": statistics.median(runs), "q1": q1, "q3": q3}


def summarize(base: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric of ``end_to_end`` (BENCHMARK.json entries), both sides of
    the pairs ``zip(base, change)``, their wins and the claim test."""
    out = {}
    for entry in end_to_end:
        name, sign = entry["name"], 1.0 if entry["better"] == "higher" else -1.0
        a = [float(run[name]) for run in base]
        b = [float(run[name]) for run in change]
        sa, sb = _spread(a), _spread(b)
        gains = [sign * (y - x) for x, y in zip(a, b)]
        change_wins = sum(g > 0 for g in gains)
        gap = sign * (sb["median"] - sa["median"])
        worse_by = -gap / abs(sa["median"])
        out[name] = {
            "better": entry["better"],
            "base": sa,
            "change": sb,
            "pairs": len(gains),
            "change_wins": change_wins,
            "base_wins": sum(g < 0 for g in gains),
            "median_worse_by": worse_by,
            "bound": entry["bound"],
            "within_bound": worse_by <= entry["bound"],
            "claim": 10 * change_wins >= 9 * len(gains) and gap > sa["q3"] - sa["q1"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--change", default=None, help="git revision, else the work tree")
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--runs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    # Quartiles need two runs a side.
    if args.runs < 2 or args.seconds <= 0 or args.seed < 0:
        parser.error("need --runs >= 2, --seconds > 0 and --seed >= 0")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    with tempfile.TemporaryDirectory(prefix="wsol-pair-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        try:
            unpack(args.base, trees["base"])
            unpack(args.change, trees["change"])
        except subprocess.CalledProcessError as exc:
            print(f"cannot unpack: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        report = {
            "base": args.base,
            "change": args.change or "working tree",
            "seconds": args.seconds,
            "workloads": {},
        }
        try:
            script = (trees["change"] / "scripts" / "fingerprint.py").read_bytes()
            prints = {side: fingerprint(tree, script) for side, tree in trees.items()}
            moved = fingerprint_diff(prints["base"], prints["change"])
            report["fingerprint_moved"] = moved
            for workload in workloads:
                seeds = [args.seed + k for k in range(args.runs)]
                runs = {"base": [], "change": []}
                for k, seed in enumerate(seeds):
                    order = ("base", "change") if k % 2 == 0 else ("change", "base")
                    for side in order:
                        runs[side].append(
                            bench_run(trees[side], workload, seed, args.seconds)
                        )
                metrics = summarize(runs["base"], runs["change"], bench["end_to_end"])
                report["workloads"][workload] = {"seeds": seeds, "metrics": metrics}
        except RunFailed as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return 1
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
