#!/usr/bin/env python3
"""Check the sim-clock benches' outputs against their pinned digests.

    python3 ci/check_bench_digests.py build ci/bench_digests.json
    python3 ci/check_bench_digests.py build ci/bench_digests.json --write
    python3 ci/check_bench_digests.py build ci/bench_digests.json --diff OTHER_DIR

Every bench except bench_sim_core runs on the sim clock alone, so its
--json output is byte-identical from run to run, and so are the three
traces the gates export (failover, socket_stream, live_migration). Each
pinned name is read as <dir>/<name>.json and its SHA-256 compared with the
pin. Every mismatch and every missing file is named, then the check fails:
a digest that moves means simulated behaviour changed.

--diff OTHER_DIR runs the same check and, for each output that moved,
also prints every JSON leaf that differs between OTHER_DIR's copy (before,
typically written by the parent commit's build) and <dir>'s (after), one
line each: path, before, after.

--write pins every BENCH_*.json and TRACE_*.json in <dir> except the
host-clock benches. A change that moves the sim clock on purpose rewrites
the pins with it and says in CHANGES.md why each named bench moved.
"""

import hashlib
import json
import pathlib
import sys

HOST_CLOCK = {"BENCH_sim_core"}
COMMENT = ("SHA-256 (first 16 hex digits) of each sim-clock bench's --json and of "
           "the failover, socket_stream and live_migration traces, as ci/check.sh "
           "writes them. A host-side change leaves them as they are; a change that "
           "means to move the sim clock rewrites them with --write and says why.")


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


ABSENT = object()


def leaves(value, path=""):
    """Yields (path, leaf) for every scalar, empty list and empty object."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def show(value):
    return "<absent>" if value is ABSENT else json.dumps(value)


def print_diff(name, before_path, after_path):
    if not before_path.exists():
        print(f"  {name}: no {before_path} to diff against")
        return
    before = dict(leaves(json.loads(before_path.read_text())))
    after = dict(leaves(json.loads(after_path.read_text())))
    paths = list(before) + [p for p in after if p not in before]
    changed = [p for p in paths if before.get(p, ABSENT) != after.get(p, ABSENT)]
    print(f"  {name}: {len(changed)} leaves differ ({before_path} -> {after_path})")
    for p in changed:
        print(f"    {p or '<root>'}: {show(before.get(p, ABSENT))} -> "
              f"{show(after.get(p, ABSENT))}")


def write(out_dir, pinned_path):
    names = sorted(p.stem for pattern in ("BENCH_*.json", "TRACE_*.json")
                   for p in out_dir.glob(pattern) if p.stem not in HOST_CLOCK)
    if not names:
        sys.exit(f"no BENCH_*.json or TRACE_*.json in {out_dir}")
    pins = {name: digest(out_dir / f"{name}.json") for name in names}
    with open(pinned_path, "w") as f:
        json.dump({"comment": COMMENT, "digests": pins}, f, indent=2)
        f.write("\n")
    print(f"bench digests: pinned {len(pins)} outputs in {pinned_path}")


def check(out_dir, pinned_path, diff_dir=None):
    with open(pinned_path) as f:
        pins = json.load(f)["digests"]
    moved = []
    for name, pinned in pins.items():
        path = out_dir / f"{name}.json"
        if not path.exists():
            moved.append(f"{name}: no {path}")
            continue
        got = digest(path)
        if got != pinned:
            moved.append(f"{name}: digest {got} != pinned {pinned}")
            if diff_dir is not None:
                print_diff(name, diff_dir / f"{name}.json", path)
    if moved:
        for line in moved:
            print(f"bench digests: {line}", file=sys.stderr)
        sys.exit(f"bench digests: {len(moved)} of {len(pins)} outputs moved or missing "
                 f"({pinned_path})")
    print(f"bench digests: ok, {len(pins)} outputs match {pinned_path}")


def main():
    args = [a for a in sys.argv[1:] if a != "--write"]
    diff_dir = None
    if "--diff" in args:
        i = args.index("--diff")
        if i + 1 >= len(args):
            sys.exit(__doc__)
        diff_dir = pathlib.Path(args[i + 1])
        del args[i:i + 2]
    if len(args) != 2 or (diff_dir is not None and "--write" in sys.argv[1:]):
        sys.exit(__doc__)
    out_dir, pinned_path = pathlib.Path(args[0]), args[1]
    if "--write" in sys.argv[1:]:
        write(out_dir, pinned_path)
    else:
        check(out_dir, pinned_path, diff_dir)


if __name__ == "__main__":
    main()
