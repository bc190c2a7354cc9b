#!/usr/bin/env python3
"""Persistence and process call-site check: one way to persist state,
one child supervisor.

Fails if any C++ file under src/ calls rename(, fsync(, fdatasync(,
fork( or waitpid( outside the allow-list below.  Atomic file writes
belong to WriteFramedFile (src/logdiver/snapshot.cpp); forking and
reaping belong to src/common/child_process.cpp; the service journal's
group commit is the one fdatasync.  A new call site elsewhere means a
second persistence path or a second supervisor is growing back.  Line
comments are ignored.  Run from anywhere; exits non-zero listing every
offending call.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

CALL_RE = re.compile(r"\b(rename|fsync|fdatasync|fork|waitpid)\s*\(")

# path (relative to src/) -> calls allowed there
ALLOWED = {
    "logdiver/snapshot.cpp": {"rename", "fsync"},
    "common/child_process.cpp": {"fork", "waitpid"},
    "logdiver/service/journal.cpp": {"fdatasync"},
}


def offending_calls() -> list[str]:
    problems = []
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cpp", ".hpp", ".h", ".cc", ".in"):
            continue
        rel = path.relative_to(src).as_posix()
        allowed = ALLOWED.get(rel, set())
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            code = line.split("//", 1)[0]
            for match in CALL_RE.finditer(code):
                if match.group(1) not in allowed:
                    problems.append(f"src/{rel}:{lineno}: {match.group(1)}( "
                                    f"outside the allow-list: {line.strip()}")
    return problems


def main() -> int:
    problems = offending_calls()
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} persistence/process call site(s) outside "
              "the allow-list (tools/check_persistence_sites.py)")
        return 1
    print("persistence/process call sites: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
