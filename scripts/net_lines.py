#!/usr/bin/env python3
"""Net lines of a change, split by what the lines are.

Prints the lines added, removed and net between two git revisions, in
five classes:

- source: the program: non-test Rust (`src/`, `examples/`);
- tests:  `tests/` directories, and every line of a Rust source file from
          its `#[cfg(test)]` module to the end of the file;
- benches: `benches/` directories, the bench harness crate
          (`crates/bench`), the repo benchmark (`benchmark/`) and the
          `BENCH_*.json` reports;
- docs:   Markdown;
- other:  anything else (scripts, manifests, CI files, ignore lists).

Usage: python3 scripts/net_lines.py <base> [<head>]
(`head` defaults to the working tree, staged or not).
"""

import re
import subprocess
import sys

TEST_MOD = re.compile(r'\s*#\[cfg\(test\)\]\s*$')
MOD = re.compile(r'\s*(pub(\([^)]*\))?\s+)?mod\s')
HUNK = re.compile(r'^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@')
CLASSES = ['source', 'tests', 'benches', 'docs', 'other']


def git(*args):
    return subprocess.run(['git', *args], capture_output=True, text=True, check=True).stdout


def contents(rev, path):
    """The file at `rev` (None: the working tree), or '' where it is absent."""
    if rev is None:
        try:
            return open(path, encoding='utf-8', errors='replace').read()
        except FileNotFoundError:
            return ''
    out = subprocess.run(['git', 'show', f'{rev}:{path}'], capture_output=True, text=True)
    return out.stdout if out.returncode == 0 else ''


def test_start(text):
    """1-based line of the `#[cfg(test)]` that opens a module, or None."""
    lines = text.split('\n')
    for i, line in enumerate(lines):
        if TEST_MOD.match(line):
            rest = (l for l in lines[i + 1:] if l.strip() and not l.strip().startswith('#['))
            if MOD.match(next(rest, '')):
                return i + 1
    return None


def file_class(path):
    parts = path.split('/')
    if path.endswith('.md'):
        return 'docs'
    if 'benches' in parts or path.startswith(('crates/bench/', 'benchmark/')) \
            or re.fullmatch(r'BENCH_\w+\.json', path):
        return 'benches'
    if 'tests' in parts:
        return 'tests'
    if path.endswith('.rs'):
        return 'source'
    return 'other'


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    base, head = sys.argv[1], (sys.argv[2] if len(sys.argv) == 3 else None)
    revs = [base] + ([head] if head else [])
    counts = {c: [0, 0] for c in CLASSES}
    diff = git('diff', '-U0', '--no-renames', *revs)
    path = None
    old_test = new_test = None
    old_line = new_line = 0
    header = False
    for line in diff.split('\n'):
        if line.startswith('diff --git'):
            path, header = None, True
        elif header and (line.startswith('+++ ') or line.startswith('--- ')):
            name = line[4:]
            if name != '/dev/null':
                path = name[2:]
            if line.startswith('+++ ') and path:
                rust = path.endswith('.rs')
                old_test = test_start(contents(base, path)) if rust else None
                new_test = test_start(contents(head, path)) if rust else None
        elif (m := HUNK.match(line)):
            old_line, new_line = int(m.group(1)), int(m.group(3))
            header = False
        elif header:
            continue
        elif path and line.startswith('-'):
            in_test = old_test is not None and old_line >= old_test
            counts['tests' if in_test else file_class(path)][1] += 1
            old_line += 1
        elif path and line.startswith('+'):
            in_test = new_test is not None and new_line >= new_test
            counts['tests' if in_test else file_class(path)][0] += 1
            new_line += 1
    print(f"{'class':<8} {'added':>7} {'removed':>7} {'net':>7}")
    for c in CLASSES:
        added, removed = counts[c]
        print(f'{c:<8} {added:>7} {removed:>7} {added - removed:>+7}')
    added = sum(a for a, _ in counts.values())
    removed = sum(r for _, r in counts.values())
    print(f"{'total':<8} {added:>7} {removed:>7} {added - removed:>+7}")


if __name__ == '__main__':
    main()
