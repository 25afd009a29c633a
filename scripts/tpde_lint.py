#!/usr/bin/env python3
"""tpde_lint.py - the project-invariant linter.

Statically enforces repo invariants that are written down in the docs but
invisible to the compiler and to clang's thread-safety analysis:

  raw-sync        No raw std::mutex / std::lock_guard / std::unique_lock /
                  std::scoped_lock / std::condition_variable / std::thread
                  (and no <mutex>/<condition_variable>/<thread>/<shared_mutex>
                  includes) outside support/Sync.h. The thread-safety
                  annotations only see locks that go through the annotated
                  wrappers (docs/STATIC_ANALYSIS.md).
  local-static    No function-local `static` (except static_assert and
                  `static constexpr`) or function-local `thread_local` in
                  src/. Mutable function-local statics are the PR 1
                  copypatch bug class: hidden cross-compile state that
                  breaks the determinism contract and adds guard-variable
                  checks to hot paths.
  hot-path-alloc  In files carrying a `// tpde-lint: hot-path` marker: no
                  naked new / malloc / calloc / realloc and no allocating
                  std:: container types (vector, string, maps, sets,
                  deque, list, function). These files claim the
                  docs/PERF.md zero-steady-state-allocation policy; they
                  must use the support/ primitives (Arena, SmallVector,
                  DenseMap, ...) whose reuse discipline the policy audits.
  banned-api      No rand()/srand() anywhere (tpde::Rng is the seeded,
                  deterministic source) and no std::this_thread::sleep_for
                  / sleep_until outside src/service/ (time-based waits in
                  compile paths hide ordering bugs; the service layer's
                  backoff sleeps are policy, not synchronization).
  target-neutral  In files carrying a `// tpde-lint: target-neutral` marker:
                  no #include of an x64/ or a64/ header and no x64:: /
                  a64:: name. These files hold what every target shares
                  (the framework core, the shared TIR lowering); a target
                  detail there would silently bind the other target to it.

Suppressions (each names the rule it silences, so grep finds them all):

  // tpde-lint: allow(<rule>)       - this line and the next
  // tpde-lint: allow-file(<rule>)  - whole file

Matching runs on comment- and string-stripped text, so prose mentioning
std::mutex does not trip the linter (the directives above are extracted
before stripping).

Exit status: 0 clean, 1 findings, 2 usage/internal error.

--self-test runs the fixture corpus under tests/static_analysis/lint_fixtures/
(every *_bad.* file must produce exactly the rule set named by its
`// tpde-lint-expect: <rule>` lines; every *_ok.* file must be clean) and
then the real-tree scan, which must also be clean.
"""

import argparse
import re
import sys
from pathlib import Path

RULES = ("raw-sync", "local-static", "hot-path-alloc", "banned-api",
         "target-neutral")

DIRECTIVE_RE = re.compile(r"//\s*tpde-lint:\s*(allow(?:-file)?)\(([a-z-]+)\)")
MARKER_RE = re.compile(r"//\s*tpde-lint:\s*hot-path")
NEUTRAL_MARKER_RE = re.compile(r"//\s*tpde-lint:\s*target-neutral")
EXPECT_RE = re.compile(r"//\s*tpde-lint-expect:\s*([a-z-]+)")

RAW_SYNC_RE = re.compile(
    r"std\s*::\s*(recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|mutex|lock_guard|unique_lock|"
    r"shared_lock|scoped_lock|condition_variable_any|condition_variable|"
    r"jthread|thread)\b"
)
RAW_INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"](mutex|condition_variable|thread|shared_mutex)[>"]'
)
HOT_ALLOC_RE = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|"
    r"std\s*::\s*(vector|string|unordered_map|unordered_set|map|set|"
    r"deque|list|function)\b"
)
INCLUDE_RE = re.compile(r"^\s*#\s*include\b")
TARGET_INCLUDE_RE = re.compile(r'#\s*include\s*[<"](x64|a64)/')
TARGET_NAME_RE = re.compile(r"\b(x64|a64)\s*::")
RAND_RE = re.compile(r"\b(rand|srand)\s*\(")
SLEEP_RE = re.compile(r"std\s*::\s*this_thread\s*::\s*sleep_(for|until)\b")
LOCAL_STATIC_RE = re.compile(r"^\s*(static|thread_local)\b")
LOCAL_STATIC_OK_RE = re.compile(r"^\s*static\s+(constexpr\b|assert\s*\()|^\s*static_assert")

SCOPE_HEADER_CLASS_RE = re.compile(r"\b(class|struct|union|enum)\b")
SCOPE_HEADER_NS_RE = re.compile(r"\bnamespace\b|\bextern\s*$")
SCOPE_HEADER_CTRL_RE = re.compile(r"\b(if|else|for|while|do|switch|try|catch)\b")


def strip_comments_and_strings(text):
    """Replaces comments, string literals, and char literals with spaces,
    preserving line structure so reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i : j + 2]
            out.append(re.sub(r"[^\n]", " ", seg))
            i = j + 2
        elif c == '"' or c == "'":
            # Raw strings are not used in the tree; handle escaped quotes.
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            out.append(q + " " * (j - i - 1) + (q if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def scope_kinds_per_line(stripped):
    """Returns, per line, the scope kind ('top'|'ns'|'class'|'fn') in
    effect at the start of that line, via lightweight brace tracking."""
    kinds = []
    stack = []  # entries: 'ns' | 'class' | 'fn'
    header = []  # text since the last ; { } — the candidate scope header
    lines = stripped.split("\n")
    for line in lines:
        kinds.append(stack[-1] if stack else "top")
        body = line
        if body.lstrip().startswith("#"):
            continue  # preprocessor lines don't open C++ scopes
        for ch in body:
            if ch == "{":
                htext = "".join(header).strip()
                parent = stack[-1] if stack else "top"
                if SCOPE_HEADER_CLASS_RE.search(htext) and not htext.endswith("="):
                    kind = "class"
                elif SCOPE_HEADER_NS_RE.search(htext):
                    kind = "ns"
                elif htext.endswith(")") or htext.endswith("]"):
                    kind = "fn"
                elif SCOPE_HEADER_CTRL_RE.search(htext) or parent == "fn":
                    kind = "fn"
                elif htext.endswith("=") or htext.endswith(",") or not htext:
                    kind = parent  # initializer braces: stay in scope
                else:
                    kind = parent
                stack.append(kind)
                header = []
            elif ch == "}":
                if stack:
                    stack.pop()
                header = []
            elif ch in ";":
                header = []
            else:
                header.append(ch)
        header.append(" ")
    return kinds


class Finding:
    def __init__(self, path, line, rule, msg):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def lint_file(path, text, rel):
    raw_lines = text.split("\n")
    # Directives are extracted from the raw text (they live in comments).
    file_allow = set()
    line_allow = {}  # line number (1-based) -> set of rules
    hot_path = False
    neutral = False
    for ln, line in enumerate(raw_lines, 1):
        if MARKER_RE.search(line):
            hot_path = True
        if NEUTRAL_MARKER_RE.search(line):
            neutral = True
        for kind, rule in DIRECTIVE_RE.findall(line):
            if rule not in RULES:
                raise SystemExit(f"{rel}:{ln}: unknown lint rule '{rule}'")
            if kind == "allow-file":
                file_allow.add(rule)
            else:
                line_allow.setdefault(ln, set()).add(rule)
                line_allow.setdefault(ln + 1, set()).add(rule)

    stripped = strip_comments_and_strings(text)
    slines = stripped.split("\n")
    findings = []

    def report(ln, rule, msg):
        if rule in file_allow or rule in line_allow.get(ln, ()):  # suppressed
            return
        findings.append(Finding(rel, ln, rule, msg))

    is_sync_h = rel.replace("\\", "/").endswith("support/Sync.h")
    in_service = "/service/" in rel.replace("\\", "/")

    for ln, line in enumerate(slines, 1):
        if not is_sync_h:
            m = RAW_SYNC_RE.search(line) or RAW_INCLUDE_RE.search(line)
            if m:
                report(ln, "raw-sync",
                       f"raw '{m.group(0).strip()}' — use the annotated "
                       "wrappers in support/Sync.h")
        if hot_path:
            m = HOT_ALLOC_RE.search(line)
            if m:
                report(ln, "hot-path-alloc",
                       f"'{m.group(0).strip()}' in a hot-path file — the "
                       "zero-allocation policy (docs/PERF.md) requires the "
                       "support/ primitives here")
        if neutral:
            # Include paths are string literals: match them on the raw
            # line, but only where the stripped line is a real #include.
            m = INCLUDE_RE.match(line) and TARGET_INCLUDE_RE.search(
                raw_lines[ln - 1])
            m = m or TARGET_NAME_RE.search(line)
            if m:
                report(ln, "target-neutral",
                       f"'{m.group(0).strip()}' in a target-neutral file — "
                       "target code belongs in the target's emitters")
        m = RAND_RE.search(line)
        if m:
            report(ln, "banned-api",
                   f"'{m.group(0).strip()})' — use the seeded tpde::Rng "
                   "(determinism contract)")
        if not in_service:
            m = SLEEP_RE.search(line)
            if m:
                report(ln, "banned-api",
                       f"'{m.group(0).strip()}' outside src/service/ — "
                       "sleeps are not synchronization")

    kinds = scope_kinds_per_line(stripped)
    for ln, line in enumerate(slines, 1):
        if kinds[ln - 1] != "fn":
            continue
        if LOCAL_STATIC_RE.search(line) and not LOCAL_STATIC_OK_RE.search(line):
            report(ln, "local-static",
                   "function-local static/thread_local — hidden cross-"
                   "compile state (the PR 1 copypatch bug class); hoist it "
                   "into reused worker state")
    return findings


def scan_tree(root):
    findings = []
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        rel = str(path.relative_to(root))
        findings.extend(lint_file(path, path.read_text(), rel))
    return findings


def self_test(root):
    fixtures = root / "tests" / "static_analysis" / "lint_fixtures"
    if not fixtures.is_dir():
        print(f"tpde_lint: fixture dir missing: {fixtures}", file=sys.stderr)
        return 2
    failures = 0
    for path in sorted(fixtures.iterdir()):
        if path.suffix not in (".h", ".cpp"):
            continue
        text = path.read_text()
        rel = str(path.relative_to(root))
        expected = set(EXPECT_RE.findall(text))
        got = {f.rule for f in lint_file(path, text, rel)}
        if got != expected:
            print(f"tpde_lint self-test FAIL {rel}: expected rules "
                  f"{sorted(expected)}, got {sorted(got)}", file=sys.stderr)
            failures += 1
    tree = scan_tree(root)
    for f in tree:
        print(f"tpde_lint self-test FAIL (tree not clean): {f}",
              file=sys.stderr)
    failures += len(tree)
    if failures:
        return 1
    print("tpde_lint self-test OK (fixtures flagged, tree clean)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture corpus, then the tree scan")
    args = ap.parse_args()
    root = Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"tpde_lint: no src/ under {root}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    findings = scan_tree(root)
    for f in findings:
        print(f)
    if findings:
        print(f"tpde_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("tpde_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
