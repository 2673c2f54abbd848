#!/usr/bin/env python3
"""List exported values, and optional parameters, that no other module uses.

Every `val` declared in lib/**/*.mli is checked against the .ml files
under lib/, bin/, bench/, examples/ and perfbench/, other than its own
module's implementation.  A value `M.v` counts as used by an occurrence
of `v`, outside comments and string literals, that is qualified by `M`
or by an alias of it (`module X = ...M`), or that is bare in a file
that opens `M` (`open`, `let open`, `M.( ... )`) or includes it; `M` is
the innermost module that declares `v`.  An optional parameter `?l` of
an exported value counts as set when such an occurrence is applied with
`~l` or `?l` (in the same expression, not inside a nested parenthesis).
The last line printed counts the unused exports and the optional
parameters of exported values.

Test files are not searched: a value or option only a test (or its own
module) reaches must be listed in scripts/unused_exports.allow, one
`Module.value  reason` or `Module.value?label  reason` line each (blank
lines and `#` comments are ignored), where `Module` is the value's path
from its library, e.g. `Transfusion.Strategies.Private.arch_fingerprint`.

Exits 1 when an unused value or unset option is not allowed, or when an
allow-list entry names one that is no longer exported or is now used.

Run from the repository root:
  python3 scripts/unused_exports.py              check the tree
  python3 scripts/unused_exports.py --self-test  check the script itself on
                                                 scripts/_unused_exports_fixture
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCH_DIRS = ["lib", "bin", "bench", "examples", "perfbench"]
ALLOW_FILE = os.path.join(ROOT, "scripts", "unused_exports.allow")
FIXTURE = os.path.join(ROOT, "scripts", "_unused_exports_fixture")

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\S")

# Tokens that start a new signature item, and so end a `val`'s type.
SIG_ITEMS = {"val", "type", "module", "end", "exception", "external", "include", "open", "class"}
# Tokens that end an application when met outside any bracket.
APP_ENDS = {"in", "let", "and", ";", "|", ",", "then", "else", "do", "done", "with", "->", "="}
OPENERS, CLOSERS = {"(", "[", "{", "begin"}, {")", "]", "}", "end"}


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


def tokens_of(path):
    return TOKEN.findall(strip_comments_and_strings(open(path).read()))


def optional_labels(tokens, start):
    """The `?label:` parameters of the val type starting at tokens[start],
    outside any bracket (a labelled argument of a functional argument is
    not the value's own)."""
    labels, depth = [], 0
    for i in range(start, len(tokens)):
        tok = tokens[i]
        if depth == 0 and tok in SIG_ITEMS:
            break
        if tok in OPENERS:
            depth += 1
        elif tok in CLOSERS:
            depth -= 1
        elif (depth == 0 and tok == "?" and i + 2 < len(tokens)
              and WORD.fullmatch(tokens[i + 1]) and tokens[i + 2] == ":"):
            labels.append(tokens[i + 1])
    return labels


def exported_values(mli_path, module):
    """Yield (qualified name, value name, innermost module, optional
    labels) for every `val` in an .mli, qualifying values of nested
    `module X : sig ... end` by X."""
    tokens = tokens_of(mli_path)
    stack = []  # one entry per open sig/struct/object: module name, "type" or None
    pending = None
    for i, tok in enumerate(tokens):
        if tok == "module" and i + 1 < len(tokens):
            # the vals of a `module type` are a contract, not exports
            pending = "type" if tokens[i + 1] == "type" else tokens[i + 1]
        elif tok in ("sig", "struct", "object"):
            stack.append(pending)
            pending = None
        elif tok == "end":
            if stack:
                stack.pop()
        elif tok == "val" and i + 2 < len(tokens) and "type" not in stack:
            name = tokens[i + 1]
            if WORD.fullmatch(name):
                path = module.split(".") + [m for m in stack if m]
                yield ".".join(path + [name]), name, path[-1], optional_labels(tokens, i + 3)


def aliases(tokens):
    """The module each `module X = ...M` in a file names: {X: M}."""
    found = {}
    for i, tok in enumerate(tokens[:-3]):
        if tok == "module" and tokens[i + 2] == "=" and WORD.fullmatch(tokens[i + 3]):
            j = i + 3
            while j + 2 < len(tokens) and tokens[j + 1] == "." and WORD.fullmatch(tokens[j + 2]):
                j += 2
            found[tokens[i + 1]] = tokens[j]
    return found


def opened(tokens, alias):
    """The modules a file opens or includes (`open M`, `open! M`,
    `include M`, `let open M in`, a local `M.( ... )`), each by the last
    component of its path, aliases resolved."""
    found = set()
    for i, tok in enumerate(tokens[:-2]):
        if tok in ("open", "include"):
            j = i + 2 if tokens[i + 1] == "!" else i + 1
            while j + 2 < len(tokens) and tokens[j + 1] == "." and WORD.fullmatch(tokens[j + 2]):
                j += 2
            found.add(tokens[j])
        elif tok[0].isupper() and tokens[i + 1] == "." and tokens[i + 2] in ("(", "[", "{"):
            found.add(tok)
    return {alias.get(m, m) for m in found}


def references(tokens, name, module):
    """The indices of the occurrences of `name` that refer to `module`'s
    value: qualified by `module` or an alias of it, or bare (neither a
    definition nor a label) in a file that opens or includes it."""
    alias = aliases(tokens)
    bare_ok = module in opened(tokens, alias)
    for i, tok in enumerate(tokens):
        if tok != name or i < 2:
            continue
        if tokens[i - 1] == ".":
            if module in (tokens[i - 2], alias.get(tokens[i - 2])):
                yield i
        elif bare_ok and tokens[i - 1] not in ("let", "and", "rec", "val", "~", "?", "type"):
            yield i


def labels_applied(tokens, refs):
    """Every `~label` or `?label` applied to the occurrences at `refs`."""
    found = set()
    for i in refs:
        depth = 0
        for j in range(i + 1, min(i + 200, len(tokens) - 1)):
            t = tokens[j]
            if t in OPENERS:
                depth += 1
            elif t in CLOSERS:
                depth -= 1
                if depth < 0:
                    break
            elif depth == 0 and t in APP_ENDS:
                break
            elif depth == 0 and t in ("~", "?") and WORD.fullmatch(tokens[j + 1]):
                found.add(tokens[j + 1])
    return found


def library_name(directory):
    """The dune library a directory builds, capitalised (Tf_obs)."""
    with open(os.path.join(directory, "dune")) as f:
        m = re.search(r"\(name\s+([a-z0-9_]+)\)", f.read())
    return m.group(1).capitalize()


def walk(root, suffix):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(x for x in dirnames if not x.startswith(("_", ".")))
        for f in sorted(filenames):
            if f.endswith(suffix):
                yield dirpath, f


def audit(root):
    """Return (unused, options): `unused` maps every unused export and
    unset option (`Module.value` or `Module.value?label`) to its .mli;
    `options` counts the optional parameters of exported values."""
    sources = {}
    for d in SEARCH_DIRS:
        for dirpath, f in walk(os.path.join(root, d), ".ml"):
            path = os.path.join(dirpath, f)
            toks = tokens_of(path)
            sources[path] = (set(t for t in toks if WORD.fullmatch(t)), toks)

    unused, options = {}, 0
    for dirpath, f in walk(os.path.join(root, "lib"), ".mli"):
        mli = os.path.join(dirpath, f)
        own = mli[:-1]
        library, module = library_name(dirpath), f[:-4].capitalize()
        if module != library:
            module = library + "." + module
        rel = os.path.relpath(mli, root)
        for qualified, name, inner, labels in exported_values(mli, module):
            refs = [(toks, list(references(toks, name, inner)))
                    for p, (words, toks) in sources.items()
                    if p != own and name in words and inner in words]
            refs = [(toks, found) for toks, found in refs if found]
            if not refs:
                unused[qualified] = rel
            options += len(labels)
            applied = set().union(*(labels_applied(toks, found) for toks, found in refs))
            for label in labels:
                if label not in applied:
                    unused[f"{qualified}?{label}"] = rel
    return unused, options


def read_allow(path):
    allowed = {}
    if os.path.exists(path):
        for lineno, line in enumerate(open(path), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            entry, _, reason = line.partition(" ")
            if not reason.strip():
                raise SystemExit(f"{path}:{lineno}: {entry} has no reason")
            allowed[entry] = reason.strip()
    return allowed


def report(unused, allowed):
    """The complaint lines for `unused` against an allow list."""
    lines = []
    for qualified in sorted(unused):
        if qualified in allowed:
            continue
        if "?" in qualified:
            value, label = qualified.split("?")
            lines.append(f"{unused[qualified]}: {value} takes ?{label} but no other module sets it")
        else:
            lines.append(f"{unused[qualified]}: {qualified} is exported but no other module uses it")
    for entry in sorted(allowed):
        if entry not in unused:
            lines.append(f"unused_exports.allow: {entry} is no longer unused; drop the line")
    return lines


def self_test():
    """The fixture plants a dead export whose bare name other modules use
    (`Fx.Alpha.size`), a dead export whose name a file that names its
    module defines for itself (`Fx.Alpha.sweep`) and an option no caller
    sets (`Fx.Alpha.run?verbose`), next to used exports (one reached only
    through `open`) and a set option; exactly the planted cases must be
    reported."""
    unused, _ = audit(FIXTURE)
    expected = {"Fx.Alpha.size", "Fx.Alpha.sweep", "Fx.Alpha.run?verbose"}
    if set(unused) != expected:
        print(f"self-test: reported {sorted(unused)}, expected {sorted(expected)}")
        return 1
    print("unused exports self-test: the three planted cases reported")
    return 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    unused, options = audit(ROOT)
    lines = report(unused, read_allow(ALLOW_FILE))
    for line in lines:
        print(line)
    if lines:
        return 1
    values = sum(1 for q in unused if "?" not in q)
    print(f"unused exports: {values}, optional parameters: {options} "
          f"({len(unused) - values} set by no other module), all allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
