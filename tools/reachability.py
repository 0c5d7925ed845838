#!/usr/bin/env python3
"""Fails when a src/ function is linked into no program.

    python3 tools/reachability.py --allowlist tools/reachability_allowlist.txt \
        BUILD_DIR [BUILD_DIR ...]

Each BUILD_DIR is a CMake build tree configured with

    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections"
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"

and built: the main tree (all targets) and the bench/serving tree
(serving_bench). With one section per function and section garbage
collection, an executable's symbol table holds exactly the functions that
something it runs can call.

The src/ functions are the strong, defined text symbols (`nm` type `T`) of
the libwaldo_<module>.a archives built from src/<module>. An executable is
a test when it sits under a `tests/` directory of a build tree, or its name
starts with `test_` or ends with `_tests`; every other executable
(examples, bench, tools, serving_bench) is a program. A function is

  * unlinked when no executable contains it, and
  * test-only when only tests contain it.

The script fails on any unlinked function, on any test-only function that
is not on the allowlist, and on any allowlist entry that a program now
calls or that no longer exists, so the list cannot rot.
Allowlist lines hold one demangled signature, as this script prints it,
then `#` and the reason it stays.

Blind spot: inline functions, functions defined in headers and template
instantiations are emitted as weak (`W`) symbols, or not at all, so they
leave no `T` symbol in an archive and this gate cannot see them.

Needs only Python 3, `nm` and `c++filt` (binutils).
"""
import argparse
import os
import subprocess
import sys

ELF_MAGIC = b"\x7fELF"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def defined_text_symbols(path, strong_only):
    """Mangled names of the functions `path` defines (`nm` types T/t/W/w)."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) != 3:
            continue  # archive member headers and blank lines
        kind, name = parts[1], parts[2]
        if kind == "T" or (not strong_only and kind in "tWw"):
            names.add(name)
    return names


def demangle(names):
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                         check=True, capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def is_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == ELF_MAGIC


def scan_tree(root):
    """(src archives, test executables, program executables) of one tree."""
    archives, tests, programs = [], [], []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            if name.startswith("libwaldo_") and name.endswith(".a"):
                module = name[len("libwaldo_"):-len(".a")]
                if os.path.isdir(os.path.join(SRC, module)):
                    archives.append(path)
            elif is_executable(path):
                rel = os.path.relpath(path, root).split(os.sep)
                if ("tests" in rel[:-1] or name.startswith("test_")
                        or name.endswith("_tests")):
                    tests.append(path)
                else:
                    programs.append(path)
    return archives, tests, programs


def read_allowlist(path):
    entries = {}
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            signature, sep, reason = line.partition("#")
            signature, reason = signature.strip(), reason.strip()
            if not sep or not reason:
                sys.exit("%s:%d: entry has no `# reason`" % (path, number))
            entries[signature] = number
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--allowlist", required=True)
    parser.add_argument("trees", nargs="+", metavar="BUILD_DIR")
    args = parser.parse_args()

    archives, tests, programs = [], [], []
    for tree in args.trees:
        a, t, p = scan_tree(tree)
        archives += a
        tests += t
        programs += p
    if not archives or not programs:
        sys.exit("reachability: no libwaldo_*.a archives or no programs "
                 "under %s; build the trees first" % " ".join(args.trees))

    src = set()
    for archive in archives:
        src |= defined_text_symbols(archive, strong_only=True)
    in_tests, in_programs = set(), set()
    for exe in tests:
        in_tests |= defined_text_symbols(exe, strong_only=False) & src
    for exe in programs:
        in_programs |= defined_text_symbols(exe, strong_only=False) & src

    # Constructors and destructors have several mangled variants (C1/C2,
    # D0/D1/D2) that demangle alike: a signature is reached if any is.
    names = demangle(src)
    functions = {}
    for mangled, signature in names.items():
        reach = functions.setdefault(signature, set())
        if mangled in in_programs:
            reach.add("program")
        if mangled in in_tests:
            reach.add("test")
    unlinked = sorted(s for s, r in functions.items() if not r)
    test_only = sorted(s for s, r in functions.items() if r == {"test"})

    allowlist = read_allowlist(args.allowlist)
    failures = []
    for signature in unlinked:
        failures.append("unlinked (no executable calls it): " + signature)
    for signature in test_only:
        if signature not in allowlist:
            failures.append("test-only (no program calls it): " + signature)
    for signature, number in sorted(allowlist.items(), key=lambda e: e[1]):
        if signature not in functions:
            failures.append("%s:%d: stale allowlist entry, no such src/ "
                            "function: %s" % (args.allowlist, number,
                                              signature))
        elif "program" in functions[signature]:
            failures.append("%s:%d: stale allowlist entry, a program calls "
                            "it: %s" % (args.allowlist, number, signature))

    print("reachability: %d src/ functions (%d strong symbols) in %d "
          "archives; %d programs, %d tests; %d unlinked, %d test-only, "
          "%d allowlisted" % (len(functions), len(src), len(archives),
                              len(programs), len(tests), len(unlinked),
                              len(test_only), len(allowlist)))
    for failure in failures:
        print("reachability: " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
