#!/usr/bin/env python3
"""Counts the values a user of waldo can set, and fails above a ceiling.

    python3 tools/settable_values.py [--list]

Three kinds of settable value are counted:

  * fields: data members of the structs and classes under src/ whose name
    ends in Config, Options, Policy or Spec (one per declared name, so
    `double a = 1, b = 2;` counts two);
  * defaulted parameters: parameters with a default argument in the
    function declarations of src/ headers (`.hpp`);
  * CLI flags: the distinct `--flag` names tools/waldo_cli.cpp reads
    through its argument accessors.

The script exits 1 when the total is above CEILING, so a change that adds
an option has to raise the ceiling and say why in CHANGES.md. --list
prints every counted item.

Needs only Python 3.
"""
import argparse
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CLI = os.path.join(ROOT, "tools", "waldo_cli.cpp")

# The count when the ceiling was last set. Lower it when the count falls.
CEILING = 148

SETTINGS_TYPE = re.compile(
    r"\b(?:struct|class)\s+(\w+(?:Config|Options|Policy|Spec))\s*"
    r"(?::[^{;]*)?\{")
CLI_READ = re.compile(
    r"\bargs\.(?:get|get_or|num|maybe_num|whole<[^>]*>)\(\s*\"([\w-]+)\"")


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, keeping line breaks."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == "'" and i > 0 and text[i - 1].isalnum():
            i += 1  # a digit separator, as in 26'500.0
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def matching(text, open_at, opener="{", closer="}"):
    """Index of the bracket closing the one at `open_at`."""
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == opener:
            depth += 1
        elif text[i] == closer:
            depth -= 1
            if depth == 0:
                return i
    raise ValueError("unbalanced brackets")


def top_level_statements(body):
    """The `;`-terminated statements of a class body outside nested braces
    and parentheses (member function bodies, nested types, initialisers)."""
    statements, current, depth = [], [], 0
    for c in body:
        if c in "{(":
            depth += 1
        elif c in "})":
            depth -= 1
            if depth == 0 and c == "}":
                # A braced function body or nested type ends a statement;
                # a brace initialiser is followed by `;` or `,`.
                current.append(c)
                continue
        if depth == 0 and c == ";":
            statements.append("".join(current))
            current = []
        else:
            current.append(c)
    return statements


def declared_names(statement):
    """Names a data-member declaration introduces, or [] for anything else
    (functions, types, aliases, access labels, static members)."""
    s = re.sub(r"\b(?:public|private|protected)\s*:", " ", statement)
    s = re.sub(r"\[\[[^\]]*\]\]", " ", s).strip()
    if not s or re.match(r"(?:using|friend|static|typedef|template|enum|"
                         r"struct|class|union)\b", s):
        return []
    # Drop initialisers, leaving the declarators.
    depth, parts, current = 0, [], []
    for c in s:
        if c in "{(<[":
            depth += 1
        elif c in "})>]":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(c)
    parts.append("".join(current))
    names = []
    for part in parts:
        head = re.split(r"=|\{", part, maxsplit=1)[0].strip()
        if "(" in head or "operator" in head:
            return []  # a member function or a function pointer
        m = re.search(r"(\w+)\s*(?:\[[^\]]*\])?\s*$", head)
        if m:
            names.append(m.group(1))
    return names


def source_files(suffixes):
    for dirpath, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(suffixes):
                yield os.path.join(dirpath, name)


def settings_fields():
    items = []
    for path in source_files((".hpp", ".cpp")):
        text = strip_comments_and_strings(open(path).read())
        for m in SETTINGS_TYPE.finditer(text):
            body_open = m.end() - 1
            body = text[body_open + 1:matching(text, body_open)]
            for statement in top_level_statements(body):
                for field in declared_names(statement):
                    items.append(f"{m.group(1)}::{field}")
    return items


def defaulted_parameters():
    items = []
    for path in source_files((".hpp",)):
        text = strip_comments_and_strings(open(path).read())
        # A declaration's parameter list: `name(` ... `)` followed by
        # qualifiers and then `;`, `{`, `:` (constructor initialisers) or
        # `=` (= default / = delete) / `->`.
        for m in re.finditer(r"\b(\w+)\s*\(", text):
            if m.group(1) in ("if", "for", "while", "switch", "return",
                              "sizeof", "decltype", "static_assert",
                              "noexcept", "alignas"):
                continue
            close = matching(text, m.end() - 1, "(", ")")
            after = text[close + 1:close + 80]
            if not re.match(r"\s*(?:const\b\s*)?(?:noexcept\b\s*)?"
                            r"(?:override\b\s*)?(?:final\b\s*)?"
                            r"(?:->[^;{]*)?[;{:=]", after):
                continue
            params = text[m.end():close]
            depth, current, split = 0, [], []
            for c in params:
                if c in "({<[":
                    depth += 1
                elif c in ")}>]":
                    depth -= 1
                if c == "," and depth == 0:
                    split.append("".join(current))
                    current = []
                else:
                    current.append(c)
            split.append("".join(current))
            for param in split:
                if re.search(r"(?<![=!<>])=(?!=)", param):
                    name = re.split(r"=", param, maxsplit=1)[0].split()
                    rel = os.path.relpath(path, ROOT)
                    items.append(f"{rel}: {m.group(1)}({name[-1]})")
    return items


def cli_flags():
    text = open(CLI).read()
    return sorted({f"--{flag}" for flag in CLI_READ.findall(text)})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="print every counted item")
    args = parser.parse_args()

    groups = [("fields", settings_fields()),
              ("defaulted parameters", defaulted_parameters()),
              ("CLI flags", cli_flags())]
    total = sum(len(items) for _, items in groups)
    for title, items in groups:
        print(f"{title}: {len(items)}")
        if args.list:
            for item in items:
                print(f"  {item}")
    print(f"settable values: {total} (ceiling {CEILING})")
    if total > CEILING:
        print(f"FAIL: {total} settable values, above the ceiling of "
              f"{CEILING}; lower the count, or raise CEILING and say why",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
