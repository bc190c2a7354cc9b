#!/usr/bin/env python3
"""Call-site check: one way to persist state, one child supervisor, one
bundle loader, one claimed-time clock.

Fails if any C++ file under src/ calls one of the guarded functions
outside the allow-list below:

* rename(, fsync(: atomic file writes belong to WriteFramedFile
  (src/logdiver/snapshot.cpp); the service journal's group commit is
  the one fdatasync(.
* fork(, waitpid(: forking and reaping belong to
  src/common/child_process.cpp.
* ReadLines(, RotationSegments(: reading a bundle from disk belongs to
  the bundle loader (OpenBundle, src/logdiver/logdiver.cpp); the
  whole-file ReadLines is gone and must not come back.
* ParseSyslogTime(, ClaimTime(: syslog stamps are resolved by the
  syslog parser, and lines are claimed only by ClaimedTracker
  (src/logdiver/resume.cpp).

A new call site elsewhere means a second persistence path, supervisor,
loader or claim clock is growing back.  Line comments are ignored.  Run
from anywhere; exits non-zero listing every offending call.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

CALL_RE = re.compile(r"\b(rename|fsync|fdatasync|fork|waitpid|ReadLines|"
                     r"RotationSegments|ParseSyslogTime|ClaimTime)\s*\(")

# path (relative to src/) -> calls allowed there (headers declare)
ALLOWED = {
    "logdiver/snapshot.cpp": {"rename", "fsync"},
    "common/child_process.cpp": {"fork", "waitpid"},
    "logdiver/service/journal.cpp": {"fdatasync"},
    "logdiver/logdiver.hpp": {"RotationSegments"},
    "logdiver/logdiver.cpp": {"RotationSegments"},
    "logdiver/syslog_parser.hpp": {"ParseSyslogTime", "ClaimTime"},
    "logdiver/syslog_parser.cpp": {"ParseSyslogTime", "ClaimTime"},
    "logdiver/resume.cpp": {"ClaimTime"},
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
        print(f"{len(problems)} guarded call site(s) outside the "
              "allow-list (tools/check_persistence_sites.py)")
        return 1
    print("persistence/process/loader/claim call sites: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
