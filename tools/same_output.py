"""Compare the CLI output of the working tree with that of a revision.

    python3 tools/same_output.py REV

Stdlib only, and it takes one argument, the revision.  It extracts REV's
src/ with `git archive` into a temporary directory, then runs each command
of COMMANDS as `python3 -m supercat.cli ...` twice: once against REV's src/
and once against the working tree's src/.  Each run is a fresh process in an
empty directory of its own, with SUPERCAT_ORDER unset and no bytecode
written: revisions before the variable was retired read it as the default
order of `verify`, so an exported value would change only REV's reports.  It compares the exit status, stdout, stderr and the bytes of every
file the command wrote, after blanking the timings: `"elapsed_ms": N` in
JSON and `, N ms)` in text.  It prints each difference and exits 1 if there
is one; otherwise it prints how many commands matched.
"""

from __future__ import annotations

import difflib
import io
import os
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a Dyck path of semilength 100, and a restricted pair of the same total
# semilength: p of height 2 and q of height 3
DYCK = "UUUDUDDUDD" * 20
PAIR = ("UUDD" * 25, "UUUDDD" * 16 + "UD" * 2)
COMMANDS = [
    *[["verify", "all", "--format", fmt, *order]
      for fmt in ("json", "text")
      for order in ([], ["--order", "1"], ["--order", "3"], ["--order", "60"],
                    ["--order", "200"])],
    ["verify", "all", "--format", "json", "--out", "report.json"],
    ["verify", "e-mo", "--order", "1"],
    ["verify", "lemma-main", "--order", "40"],
    ["count", "catalan", "--n", "300"],
    ["count", "super", "--m", "40", "--n", "70"],
    ["count", "pairs", "--n", "60"],
    ["count", "ballot", "--steps", "400", "--end-level", "4"],
    ["count", "ballot", "--steps", "400", "--end-level", "4", "--max-height", "9"],
    ["count", "ballot", "--steps", "400", "--end-level", "4", "--exact-height", "9"],
    ["table", "--m", "3", "--nmax", "30"],
    ["table", "--m", "0", "--nmax", "30"],
    ["bijection", "--forward", *PAIR, "--svg", "forward.svg"],
    ["bijection", "--inverse", DYCK, "--svg", "inverse.svg"],
    ["bijection", "--inverse", "UUD"],
    ["bijection", "--inverse", ""],
    ["count", "pairs", "--n", "401"],
]
TIMINGS = [(re.compile(r'"elapsed_ms": \d+'), '"elapsed_ms": N'),
           (re.compile(r", \d+ ms\)"), ", N ms)")]


def blank(data: bytes) -> str:
    text = data.decode("utf-8", errors="backslashreplace")
    for pattern, replacement in TIMINGS:
        text = pattern.sub(replacement, text)
    return text


def run(src: Path, argv: list[str], work: Path) -> dict[str, str]:
    """Exit status, stdout, stderr and every written file of one command,
    each with its timings blanked."""
    work.mkdir(parents=True)
    env = {key: value for key, value in os.environ.items() if key != "SUPERCAT_ORDER"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-m", "supercat.cli", *argv],
                            cwd=work, env=env, capture_output=True)
    out = {"exit status": str(result.returncode), "stdout": blank(result.stdout),
           "stderr": blank(result.stderr)}
    for path in sorted(work.rglob("*")):
        if path.is_file():
            out[f"file {path.relative_to(work)}"] = blank(path.read_bytes())
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python3 tools/same_output.py REV", file=sys.stderr)
        return 2
    rev = sys.argv[1]
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode(), end="", file=sys.stderr)
        return 2
    differences = 0
    with tempfile.TemporaryDirectory(prefix="supercat-same-output-") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev")
        for n, argv in enumerate(COMMANDS):
            old = run(tmp / "rev" / "src", argv, tmp / "old" / str(n))
            new = run(ROOT / "src", argv, tmp / "new" / str(n))
            for part in sorted(old.keys() | new.keys()):
                if old.get(part) != new.get(part):
                    differences += 1
                    shown = " ".join(shlex.quote(arg if len(arg) < 40 else arg[:37] + "...")
                                     for arg in argv)
                    print(f"differs: {shown}: {part}")
                    diff = difflib.unified_diff(
                        old.get(part, "").splitlines(), new.get(part, "").splitlines(),
                        rev, "working tree", lineterm="")
                    for line in list(diff)[:20]:
                        print(f"    {line}")
    if differences:
        print(f"{differences} differences in {len(COMMANDS)} commands")
        return 1
    print(f"all {len(COMMANDS)} commands matched {rev}: exit status, stdout, "
          "stderr and written files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
