#!/usr/bin/env python3
"""check_header_standalone.py - header self-sufficiency gate.

Every header under src/ must compile on its own: for each src/**/*.h a
one-line TU (`#include "<header>"`) is syntax-checked with -I src. A
header that only compiles because its usual includer happened to pull in
its dependencies first rots silently until someone reorders includes;
this check (run as a ctest and in the CI static-analysis job) catches
the missing include at the PR that introduces it.

Every header under src/ must also have a production includer: some file
under src/, bench/, examples/ or perfbench/ other than the header itself
must #include it. A header only tests include is a primitive without a
production caller; the check fails on it instead of letting it linger.

Usage: check_header_standalone.py --root <repo> [--cxx <compiler>]
                                  [--jobs N] [--std c++20]

Exit status: 0 all headers standalone and included, 1 failures (each
reported with the compiler's own diagnostics, or as an orphan), 2
usage/environment error.
"""

import argparse
import concurrent.futures
import re
import subprocess
import sys
import tempfile
from pathlib import Path


def check_one(cxx, std, src_dir, header, tmpdir):
    rel = header.relative_to(src_dir)
    tu = Path(tmpdir) / (str(rel).replace("/", "_") + ".cpp")
    tu.write_text(f'#include "{rel}"\n')
    cmd = [cxx, f"-std={std}", "-fsyntax-only", "-I", str(src_dir),
           "-Wall", "-Wextra", "-Wno-unused-parameter", str(tu)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return rel, proc.returncode, proc.stderr


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
PRODUCTION_DIRS = ("src", "bench", "examples", "perfbench")


def orphan_headers(root, src_dir, headers):
    """Headers no production file includes. An include string resolves
    against src/ (the -I root) and against the includer's directory."""
    included = set()
    for d in PRODUCTION_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for f in base.rglob("*"):
            if f.suffix not in (".h", ".cpp") or not f.is_file():
                continue
            for inc in INCLUDE_RE.findall(f.read_text(errors="replace")):
                for cand in (src_dir / inc, f.parent / inc):
                    cand = cand.resolve()
                    if cand != f.resolve():
                        included.add(cand)
    return [h.relative_to(src_dir) for h in headers if h not in included]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--cxx", default="c++", help="compiler to syntax-check with")
    ap.add_argument("--std", default="c++20")
    ap.add_argument("--jobs", type=int, default=0, help="0 = cpu count")
    args = ap.parse_args()

    src_dir = (Path(args.root) / "src").resolve()
    if not src_dir.is_dir():
        print(f"check_header_standalone: no src/ under {args.root}",
              file=sys.stderr)
        return 2
    headers = sorted(src_dir.rglob("*.h"))
    if not headers:
        print("check_header_standalone: no headers found", file=sys.stderr)
        return 2

    failures = []
    with tempfile.TemporaryDirectory() as tmpdir:
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=args.jobs or None) as ex:
            futs = [ex.submit(check_one, args.cxx, args.std, src_dir, h, tmpdir)
                    for h in headers]
            for fut in concurrent.futures.as_completed(futs):
                rel, rc, err = fut.result()
                if rc != 0:
                    failures.append((rel, err))

    for rel, err in sorted(failures):
        print(f"NOT STANDALONE: src/{rel}\n{err}", file=sys.stderr)
    orphans = orphan_headers(Path(args.root).resolve(), src_dir, headers)
    for rel in orphans:
        print(f"NO PRODUCTION INCLUDER: src/{rel} (only tests/ include it, "
              "or nothing does)", file=sys.stderr)
    if failures or orphans:
        print(f"check_header_standalone: {len(failures)} of {len(headers)} "
              f"headers not standalone, {len(orphans)} without a "
              "production includer", file=sys.stderr)
        return 1
    print(f"check_header_standalone: all {len(headers)} headers OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
