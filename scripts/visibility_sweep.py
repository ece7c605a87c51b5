#!/usr/bin/env python3
"""Visibility sweep: find `pub` items that nothing calls.

`RUSTFLAGS=-D unused` catches private dead code only; a `pub` item with no
caller outside its own module's unit tests is invisible to it. The sweep
works on a copy of the checkout, never on the checkout itself:

1. Narrow every non-test `pub (fn|struct|enum|const|type|trait|static)`
   under `crates/*/src` to `pub(in crate)` (the same as `pub(crate)`, but
   it marks what the sweep narrowed, so step 2 never widens an item that
   was crate-private before).
2. Widen an item back to `pub` wherever the workspace's targets, the
   benchmark package's targets or rustdoc (`-D warnings`) report it
   private, until all three build.
3. What `cargo build --workspace --lib` then reports as `dead_code` is an
   orphan.

Orphans kept on purpose are listed in `visibility_keep.txt` beside this
script, one per line as `<path>: <item>`, the item being its name,
qualified by its impl's type for a method (`EntrySnapshot::is_empty`).
The sweep exits non-zero when it finds an orphan outside that list, when
a listed item is no longer an orphan, or when step 2 leaves an error it
could not fix.

Usage: python3 scripts/visibility_sweep.py [COPY_DIR [TARGET_DIR]]
(both default to fresh temporary directories; a run takes a few minutes).
"""

import glob
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
KINDS = r'(?:fn|struct|enum|const|type|trait|static|const fn)'


def copy_checkout(dest):
    """Copy the tracked and untracked-but-not-ignored files of the checkout."""
    files = subprocess.run(['git', 'ls-files', '-co', '--exclude-standard', '-z'], cwd=REPO,
                           capture_output=True, check=True).stdout
    subprocess.run(['tar', 'cf', os.path.join(dest, '.sweep.tar'), '--null', '-T', '-'],
                   cwd=REPO, input=files, check=True)
    subprocess.run(['tar', 'xf', '.sweep.tar'], cwd=dest, check=True)
    os.remove(os.path.join(dest, '.sweep.tar'))


def load_keep():
    keep = set()
    for line in open(os.path.join(HERE, 'visibility_keep.txt')):
        line = line.strip()
        if line and not line.startswith('#'):
            path, _, item = line.partition(': ')
            keep.add((path, item))
    return keep


def sweep(root, target):
    src = [os.path.normpath(f) for f in glob.glob(f'{root}/crates/*/src/**/*.rs', recursive=True)]

    def cargo(*args, **env):
        out = subprocess.run(['cargo', *args, '--offline', '--message-format', 'json'], cwd=root,
                             capture_output=True, text=True,
                             env={**os.environ, 'CARGO_TARGET_DIR': target, **env}).stdout
        return [j['message'] for j in map(json.loads, filter(None, out.splitlines()))
                if j.get('reason') == 'compiler-message']

    def edit(path, fix):
        lines = open(path).read().split('\n')
        new = fix(lines)
        if new != lines:
            open(path, 'w').write('\n'.join(new))
            return True
        return False

    # 1. Narrow every non-test item to `pub(in crate)`.
    def narrow(lines):
        out, depth, test = [], 0, None
        for line in lines:
            if line.strip() == '#[cfg(test)]' and test is None:
                test = depth
            code = re.sub(r"'.'|\"(\\.|[^\"])*\"", '', line).split('//')[0]
            if test is None:
                line = re.sub(rf'^(\s*)pub ({KINDS}) ', r'\1pub(in crate) \2 ', line)
            depth += code.count('{') - code.count('}')
            if test is not None and depth == test and ('}' in code or code.rstrip().endswith(';')):
                test = None
            out.append(line)
        return out
    for f in src:
        edit(f, narrow)

    # 2. Widen back what a target, the benchmark package or rustdoc
    # reports private, until all build.
    def widen_at(path, line):  # the definition a diagnostic span points at
        return edit(path, lambda ls: ls[:line - 1] + [ls[line - 1].replace('pub(in crate) ', 'pub ', 1)]
                    + ls[line:])

    def widen_name(name, owner=None):  # diagnostics that only name the item
        def fix(ls):
            impl, out = None, []
            for line in ls:
                impl = (re.match(r'^impl\b.*?(\w+)(?:<[^>]*>)?\s*\{', line) or [None, impl])[1]
                if re.match(rf'^\s*pub\(in crate\) {KINDS} {name}\b', line) and owner in (None, impl):
                    line = line.replace('pub(in crate) ', 'pub ', 1)
                out.append(line)
            return out
        return sum(edit(f, fix) for f in src)

    while True:
        msgs = (cargo('check', '--keep-going', '--workspace', '--all-targets')
                + cargo('check', '--keep-going', '--manifest-path', 'benchmark/Cargo.toml', '--all-targets')
                + cargo('doc', '--keep-going', '--no-deps', '--workspace', RUSTDOCFLAGS='-D warnings'))
        widened = 0
        for m in msgs:
            if m['level'] != 'error':
                continue
            named = re.search(r'`(\w+)` is only public within the crate|type `(?:\w+::)*(\w+)[^`]*` is private'
                              r'|links to private item `(?:\w+::)*?(?:([A-Z]\w*)::)?(\w+)(?:\(\))?`',
                              m['message'])
            if named:
                widened += widen_name(named[1] or named[2] or named[4], named[3])
            for s in m['spans'] + [s for c in m['children'] for s in c['spans']]:
                path = os.path.normpath(os.path.join(root, s['file_name']))
                if path in src and 'pub(in crate) ' in open(path).read().split('\n')[s['line_start'] - 1]:
                    widened += widen_at(path, s['line_start'])
        if not widened:
            # A crate-private `as_str`/`as_slice` makes the benchmark fall
            # back to an unstable std method: E0658 `str_as_str`, not a
            # privacy error. Widen the method it meant.
            errors = [m['rendered'] for m in msgs if m['level'] == 'error']
            break

    # 3. What is still crate-private and unused is an orphan, named by
    # its path and `Owner::name` (the owner being the enclosing impl's
    # type, for an indented item).
    def qualified(path, line):
        lines = open(os.path.join(root, path)).read().split('\n')[:line]
        name = re.search(rf'{KINDS} (\w+)', lines[-1])[1]
        if not lines[-1][:1].isspace():
            return name
        impls = [m[1] for m in (re.match(r'^impl\b.*?(\w+)(?:<[^>]*>)?\s*\{', x) for x in lines) if m]
        return f'{impls[-1]}::{name}' if impls else name

    orphans = []
    for m in cargo('build', '--workspace', '--lib'):
        if (m.get('code') or {}).get('code') == 'dead_code':
            for s in filter(lambda s: s['is_primary'], m['spans']):
                path = os.path.normpath(s['file_name'])
                orphans.append((path, qualified(path, s['line_start'])))
    return errors, orphans


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix='sweep-copy-')
    target = sys.argv[2] if len(sys.argv) > 2 else tempfile.mkdtemp(prefix='sweep-target-')
    if os.path.realpath(root) == os.path.realpath(REPO):
        sys.exit('the sweep edits the sources it runs on: give it a copy, not the checkout')
    os.makedirs(root, exist_ok=True)
    copy_checkout(root)
    errors, orphans = sweep(root, target)
    keep = load_keep()
    found = set(orphans)
    print(*errors, sep='\n')
    for path, item in orphans:
        print(f"{path}: {item}{'' if (path, item) in keep else '   <- not on the keep-list'}")
    stale = sorted(keep - found)
    for path, item in stale:
        print(f'{path}: {item}   <- on the keep-list, but no longer an orphan')
    unexpected = found - keep
    print(f'{len(found)} orphan(s): {len(found & keep)} kept, {len(unexpected)} new; '
          f'{len(stale)} stale keep-list line(s); {len(errors)} unresolved error(s)')
    sys.exit(1 if errors or unexpected or stale else 0)


if __name__ == '__main__':
    main()
