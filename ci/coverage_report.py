#!/usr/bin/env python3
"""Line coverage of src/ from a gcc --coverage build, gated on a baseline.

Usage:
  ci/coverage_report.py BUILD_DIR BASELINE_JSON [--lines] [--write-baseline]

Runs `gcov --json-format --stdout` over every .gcno file under BUILD_DIR
(library and test objects alike, so inline code in src/ headers counts
wherever it was compiled). An object no test binary links has a .gcno but
no .gcda, and gcov reports every line of it as never run, so a src/ file
no test reaches still counts. Merges the counts per (source file, line)
across translation units and template instantiations, and prints, per src/
module, how many executable lines never ran. `--lines` also lists them per
file as line ranges. Objects of deleted sources (stale in an incremental
build tree) are skipped.

Exits 1 if the total never-run count exceeds the baseline's
`never_run_lines`: new code must come with a test that runs it, or dead
code must go. `--write-baseline` records the current figures instead.
Stdlib only; needs the gcov that matches the compiler (gcc 12 here).
"""

import json
import os
import subprocess
import sys
from collections import defaultdict


def gcno_dirs(build_dir):
    """Object directory -> the .gcno files in it."""
    dirs = defaultdict(list)
    for root, _, files in os.walk(os.path.abspath(build_dir)):
        for f in files:
            if f.endswith(".gcno"):
                dirs[root].append(os.path.join(root, f))
    return dirs


def json_documents(text):
    """gcov --stdout prints one JSON document per input file."""
    decoder = json.JSONDecoder()
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return
        doc, pos = decoder.raw_decode(text, pos)
        yield doc


def collect(build_dir, src_root):
    """(path relative to src/, line) -> highest execution count seen."""
    counts = {}
    prefix = src_root.rstrip(os.sep) + os.sep
    for obj_dir, files in sorted(gcno_dirs(build_dir).items()):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--object-directory", obj_dir]
            + sorted(files),
            check=True, capture_output=True, text=True, cwd=obj_dir).stdout
        for doc in json_documents(out):
            cwd = doc.get("current_working_directory", obj_dir)
            for entry in doc["files"]:
                path = os.path.realpath(os.path.join(cwd, entry["file"]))
                if not path.startswith(prefix) or not os.path.exists(path):
                    continue
                rel = path[len(prefix):]
                for line in entry["lines"]:
                    key = (rel, line["line_number"])
                    counts[key] = max(counts.get(key, 0), line["count"])
    return counts


def ranges(numbers):
    """[3, 4, 5, 9] -> "3-5,9"."""
    out = []
    start = prev = None
    for n in numbers:
        if prev is not None and n == prev + 1:
            prev = n
            continue
        if start is not None:
            out.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = n
    if start is not None:
        out.append(str(start) if start == prev else f"{start}-{prev}")
    return ",".join(out)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    flags = {a for a in argv[1:] if a.startswith("--")}
    if len(args) != 2 or not flags <= {"--lines", "--write-baseline"}:
        print(__doc__, file=sys.stderr)
        return 2
    build_dir, baseline_path = args
    src_root = os.path.realpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

    counts = collect(build_dir, src_root)
    if not counts:
        print(f"no coverage data for src/ under {build_dir}", file=sys.stderr)
        return 1
    modules = defaultdict(lambda: {"never_run": 0, "lines": 0})
    never_run = defaultdict(list)
    for (rel, line), count in sorted(counts.items()):
        module = rel.split(os.sep, 1)[0]
        modules[module]["lines"] += 1
        if count == 0:
            modules[module]["never_run"] += 1
            never_run[rel].append(line)
    total = sum(m["never_run"] for m in modules.values())
    lines = sum(m["lines"] for m in modules.values())

    print(f"{'module':<14} {'never run':>10} {'lines':>7} {'share':>7}")
    for name, m in sorted(modules.items()):
        share = 100.0 * m["never_run"] / m["lines"]
        print(f"{name:<14} {m['never_run']:>10} {m['lines']:>7} {share:>6.1f}%")
    print(f"{'total':<14} {total:>10} {lines:>7} {100.0 * total / lines:>6.1f}%")
    if "--lines" in flags:
        for rel, nums in sorted(never_run.items()):
            print(f"  src/{rel}: {ranges(nums)}")

    if "--write-baseline" in flags:
        with open(baseline_path, "w") as f:
            json.dump({"never_run_lines": total, "executable_lines": lines,
                       "modules": dict(sorted(modules.items()))},
                      f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline written: {baseline_path}")
        return 0

    with open(baseline_path) as f:
        baseline = json.load(f)
    allowed = baseline["never_run_lines"]
    if total > allowed:
        print(f"FAIL: {total} never-run lines in src/ exceed the baseline's "
              f"{allowed}; run with --lines to list them", file=sys.stderr)
        return 1
    print(f"ok: {total} never-run lines (baseline {allowed})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
