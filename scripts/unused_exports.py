#!/usr/bin/env python3
"""List exported values that no other module calls.

Every `val` declared in lib/**/*.mli is checked against the .ml files
under lib/, bin/, bench/, examples/ and perfbench/.  A value counts as
used when its name appears, outside comments and string literals, in
any of those files other than its own module's implementation.  Test
files are not searched: a value only a test reaches must be listed in
scripts/unused_exports.allow, one `Module.value  reason` line each
(blank lines and `#` comments are ignored), where `Module` is the
value's path from its library, e.g.
`Transfusion.Strategies.Private.arch_fingerprint`.

Exits 1 when an unused value is not allowed, or when an allow-list
entry names a value that is no longer exported or is now used.

Run from the repository root:  python3 scripts/unused_exports.py
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCH_DIRS = ["lib", "bin", "bench", "examples", "perfbench"]
ALLOW_FILE = os.path.join(ROOT, "scripts", "unused_exports.allow")

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def strip_comments_and_strings(text):
    """Blank out OCaml comments (nested) and string literals, keeping
    newlines so line structure survives."""
    out = []
    i, n, depth = 0, len(text), 0
    while i < n:
        c = text[i]
        if text.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth > 0:
            if text.startswith("*)", i):
                depth -= 1
                i += 2
            else:
                if c == "\n":
                    out.append(c)
                i += 1
            continue
        if c == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            out.append(" ")
            continue
        if c == "'" and i + 2 < n and (text[i + 2] == "'" or text[i + 1] == "\\"):
            # a character literal such as 'a' or '\n'
            j = text.find("'", i + 2)
            i = j + 1 if j != -1 else n
            out.append(" ")
            continue
        out.append(c)
        i += 1
    return "".join(out)


def exported_values(mli_path, module):
    """Yield (qualified name, value name) for every `val` in an .mli,
    qualifying values of nested `module X : sig ... end` by X."""
    text = strip_comments_and_strings(open(mli_path).read())
    tokens = re.findall(r"[A-Za-z_][A-Za-z0-9_']*|\S", text)
    stack = []  # one entry per open sig/struct/object: module name or None
    pending = None
    for i, tok in enumerate(tokens):
        if tok == "module" and i + 1 < len(tokens):
            nxt = tokens[i + 1]
            pending = tokens[i + 2] if nxt == "type" and i + 2 < len(tokens) else nxt
        elif tok in ("sig", "struct", "object"):
            stack.append(pending)
            pending = None
        elif tok == "end":
            if stack:
                stack.pop()
        elif tok == "val" and i + 1 < len(tokens):
            name = tokens[i + 1]
            if WORD.fullmatch(name):
                path = [module] + [m for m in stack if m]
                yield ".".join(path + [name]), name


def library_name(directory):
    """The dune library a directory builds, capitalised (Tf_obs)."""
    with open(os.path.join(directory, "dune")) as f:
        m = re.search(r"\(name\s+([a-z0-9_]+)\)", f.read())
    return m.group(1).capitalize()


def main():
    sources = {}
    for d in SEARCH_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = [x for x in dirnames if not x.startswith(("_", "."))]
            for f in filenames:
                if f.endswith(".ml"):
                    path = os.path.join(dirpath, f)
                    words = set(WORD.findall(strip_comments_and_strings(open(path).read())))
                    sources[path] = words

    unused = {}
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "lib")):
        dirnames[:] = [x for x in dirnames if not x.startswith(("_", "."))]
        for f in sorted(filenames):
            if not f.endswith(".mli"):
                continue
            mli = os.path.join(dirpath, f)
            own = mli[:-1]
            library, module = library_name(dirpath), f[:-4].capitalize()
            if module != library:
                module = library + "." + module
            for qualified, name in exported_values(mli, module):
                if not any(name in words for p, words in sources.items() if p != own):
                    unused[qualified] = os.path.relpath(mli, ROOT)

    allowed = {}
    if os.path.exists(ALLOW_FILE):
        for lineno, line in enumerate(open(ALLOW_FILE), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            entry, _, reason = line.partition(" ")
            if not reason.strip():
                print(f"{ALLOW_FILE}:{lineno}: {entry} has no reason", file=sys.stderr)
                return 1
            allowed[entry] = reason.strip()

    failed = False
    for qualified in sorted(unused):
        if qualified not in allowed:
            print(f"{unused[qualified]}: {qualified} is exported but no other module uses it")
            failed = True
    for entry in sorted(allowed):
        if entry not in unused:
            print(f"unused_exports.allow: {entry} is no longer an unused export; drop the line")
            failed = True
    if failed:
        return 1
    print(f"unused exports: {len(unused)}, all allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
