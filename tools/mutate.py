"""Mutation testing of the path and counting cores, closed forms and checks.

    python3 tools/mutate.py

Stdlib only, and not part of the test suite.  It makes one mutant per site
in src/supercat/counting.py, src/supercat/identities.py,
src/supercat/lattice_paths.py, src/supercat/height_gf.py,
src/supercat/series.py, src/supercat/bijection.py and src/supercat/svg.py:

  - a `+` or `-` swapped for the other, `+=` and `-=` included;
  - a comparison made strict or loose: `<` and `<=`, `>` and `>=`;
  - an integer constant raised by 1.

Each mutant runs the test files in TESTS, in that order, stopping at the
first failure, in a copy of the repository in a temporary directory, so the
working tree is never written.  Two mutants run at a time, each in one
pytest process limited to MEMORY_LIMIT bytes of address space; a mutant that
fails a test, or runs past the timeout, is killed.

A mutant that every test passes is a survivor.  A survivor listed in
tools/mutate_equivalent.txt is counted and not printed: each line there
gives the file, the source line, the mutated line and the reason the mutant
changes no result, separated by tabs.  Every other survivor is printed, and
the run exits 1 if there is one.  A mutant is known by its source line, not
its line number, so the list survives edits elsewhere in the file.  A line
of the list that matches no mutant of the current sources is printed as
stale, and the run exits 1 for it too.
"""

from __future__ import annotations

import ast
import io
import os
import queue
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGETS = ("src/supercat/counting.py", "src/supercat/identities.py",
           "src/supercat/lattice_paths.py", "src/supercat/height_gf.py",
           "src/supercat/series.py", "src/supercat/bijection.py",
           "src/supercat/svg.py")
TESTS = ("tests/test_check_orders.py", "tests/test_identities.py",
         "tests/test_counting.py", "tests/test_height_gf.py",
         "tests/test_series.py", "tests/test_series_properties.py",
         "tests/test_optimized_mode.py", "tests/test_cli.py",
         "tests/test_acceptance.py", "perfbench/test_oracles.py",
         "tests/test_lattice_paths.py", "tests/test_path_properties.py",
         "tests/test_string_cores.py", "tests/test_bijection.py",
         "tests/test_svg.py")
EQUIVALENT = ROOT / "tools" / "mutate_equivalent.txt"
WORKERS = 2
MEMORY_LIMIT = 2 << 30
SWAPS = {"+": "-", "-": "+", "+=": "-=", "-=": "+=",
         "<": "<=", "<=": "<", ">": ">=", ">=": ">"}


def mutants(relpath: str):
    """(line number, source line, mutated source) for every site of relpath."""
    source = (ROOT / relpath).read_text()
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.OP and tok.string in SWAPS:
            new = SWAPS[tok.string]
        elif tok.type == tokenize.NUMBER:
            value = ast.literal_eval(tok.string)
            if type(value) is not int:
                continue
            new = str(value + 1)
        else:
            continue
        (row, col), (end_row, end_col) = tok.start, tok.end
        begin, end = starts[row - 1] + col, starts[end_row - 1] + end_col
        yield row, lines[row - 1], source[:begin] + new + source[end:]


def key(relpath: str, line: str, mutated: str) -> tuple[str, str, str]:
    return Path(relpath).name, line.strip(), mutated.strip()


def known_equivalent() -> set[tuple[str, str, str]]:
    known = set()
    for line in EQUIVALENT.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, original, mutated, _reason = line.split("\t")
            known.add((name, original, mutated))
    return known


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_tests(copy: Path, timeout: float) -> bool:
    """True when every test passes in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout, preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def main() -> int:
    if sys.argv[1:]:
        print("usage: python3 tools/mutate.py (it takes no options)", file=sys.stderr)
        return 2
    known = known_equivalent()
    work = Path(tempfile.mkdtemp(prefix="supercat-mutate-"))
    try:
        copies = []
        for n in range(WORKERS):
            copy = work / f"copy{n}"
            shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
            copies.append(copy)
        start = time.perf_counter()
        if not run_tests(copies[0], timeout=600):
            print("the unmutated tests fail; nothing to compare", file=sys.stderr)
            return 2
        timeout = max(60.0, 4 * (time.perf_counter() - start))

        jobs: queue.Queue = queue.Queue()
        stale = set(known)
        for relpath in TARGETS:
            for row, line, mutated in mutants(relpath):
                jobs.put((relpath, row, line, mutated))
                stale.discard(key(relpath, line, mutated.splitlines()[row - 1]))
        total = jobs.qsize()
        survivors = []

        def worker(copy: Path) -> None:
            while True:
                try:
                    relpath, row, line, mutated = jobs.get_nowait()
                except queue.Empty:
                    return
                target = copy / relpath
                original = target.read_text()
                target.write_text(mutated)
                try:
                    if run_tests(copy, timeout):
                        new_line = mutated.splitlines(keepends=True)[row - 1]
                        survivors.append((relpath, row, line, new_line))
                finally:
                    target.write_text(original)

        with ThreadPoolExecutor(WORKERS) as pool:
            for done in [pool.submit(worker, copy) for copy in copies]:
                done.result()  # raises what a worker raised
    finally:
        shutil.rmtree(work, ignore_errors=True)

    new = []
    for relpath, row, line, new_line in sorted(survivors):
        if key(relpath, line, new_line) not in known:
            new.append(f"{relpath}:{row}: {line.strip()}  ->  {new_line.strip()}")
    for line in new:
        print(line)
    for name, original, mutated in sorted(stale):
        print(f"stale: {name}: {original}  ->  {mutated}")
    print(f"{total - len(survivors)} of {total} mutants killed; "
          f"{len(survivors) - len(new)} known equivalent and {len(new)} new "
          f"survivors; {len(stale)} stale entries; "
          f"{time.perf_counter() - start:.0f} s on {WORKERS} workers")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
