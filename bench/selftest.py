"""Self-test of the benchmark itself; exits 1 on the first broken property.

    python3 bench/selftest.py [workload ...]

1. Public API only: no file of the benchmark names a private attribute
   (one that starts with ``_`` and is not a dunder such as ``__mul__``).
2. Exact counters: the traced run, made twice on the same seed, reports the
   same value for every per-layer count (everything that is not a time).
3. The benchmark exits nonzero, printing no result, in a directory holding
   only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PRIVATE = re.compile(r"^_[A-Za-z0-9]\w*$|^__\w*[A-Za-z0-9]_?$")
IMPORT_PATH = re.compile(r"^detcalc(\.\w+)*$")
REFLECTION = ("getattr", "setattr", "hasattr", "delattr")


def private_names(path: str) -> list[str]:
    """Private attribute names a file uses: attributes, imports, or strings."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            names += (node.module or "").split(".") if isinstance(node, ast.ImportFrom) else []
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value] if IMPORT_PATH.match(node.value) else []
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") in REFLECTION:
            names = [arg.value for arg in node.args
                     if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
        else:
            continue
        found += [f"{path}:{node.lineno}: {n}" for n in names
                  for part in n.split(".") if PRIVATE.match(part)]
    return found


def check_public_api() -> None:
    bad = []
    for name in sorted(os.listdir(BENCH)):
        if name.endswith(".py"):
            bad += private_names(os.path.join(BENCH, name))
    if bad:
        raise SystemExit("private names in the benchmark:\n" + "\n".join(bad))
    print("public API only: ok")


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed checks\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] not in ("s", "ratio") or k.endswith("zero_ratio")}


def check_exact_counters(names, seed: int = 0) -> None:
    for workload in names:
        first, second = traced_run(workload, seed), traced_run(workload, seed)
        if first != second:
            diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
            raise SystemExit(f"{workload}: counts differ between runs: {diff}")
        print(f"exact counters on {workload}: ok ({len(first)} counts)")


def check_bare_directory() -> None:
    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli_small", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise SystemExit(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"bare directory: ok (exit {proc.returncode})")


def main(argv: list[str]) -> int:
    check_public_api()
    check_bare_directory()
    check_exact_counters(argv or workloads.WORKLOADS)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
