#!/usr/bin/env bash
# The reports byte guard: run every config in this directory on two source
# trees and compare what they write, byte for byte.
#
#   bash tests/reports/compare.sh BASE_TREE [WORK_DIR]
#
# BASE_TREE is a checkout of the tree to compare against, e.g. a copy of the
# parent commit made with git archive; the other tree is the one this script
# sits in.  Both run this directory's configs, each importing its own src/
# (checked before it runs).  WORK_DIR, which must be new or empty (default: a
# new temporary directory), receives base/ and head/: the reports of each
# tree and its exit-codes.txt.  The script exits 0 when every file is
# byte-identical in the two, and 1 otherwise, after naming each file that
# differs and, for a JSON report, each moved value as `key: base -> head`,
# for a CSV table its first differing line in each tree, then each moved
# column with its count of moved rows and its largest relative move
# |head - base| / max(|base|, |head|) (inf when a side is not finite, n/a
# when a cell is not a number), and each row whose outcome moved, as
# `verdict moved`.
set -eu
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BASE_TREE [WORK_DIR]" >&2
  exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
head_tree=$(cd "$here/../.." && pwd)
base_tree=$(cd "$1" && pwd)
work=${2:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)
if [ -n "$(ls -A "$work")" ]; then
  echo "$work is not empty" >&2
  exit 2
fi
# every run starts in the work directory, where file-solve.cfg finds its
# mesh: a 4x3 rectangle clamped on its left side
cd "$work"
PYTHONPATH="$head_tree/src" python -c "from rigidity_cert import fem; fem.write_mesh(fem.rectangle_mesh(4, 3, dirichlet=('left',)), 'rect-4x3-left.mesh')"
for tree in base head; do
  if [ "$tree" = base ]; then src="$base_tree/src"; else src="$head_tree/src"; fi
  used=$(PYTHONPATH="$src" python -c 'import rigidity_cert; print(rigidity_cert.__file__)')
  case "$used" in
    "$src"/*) ;;
    *) echo "the $tree run would import $used, not $src"; exit 1 ;;
  esac
  mkdir -p "$work/$tree"
  for cfg in "$here"/*.cfg; do
    code=0
    PYTHONPATH="$src" python -c 'import sys; from rigidity_cert.cli import main; sys.exit(main())' \
      run "$cfg" --out "$work/$tree" > /dev/null || code=$?
    echo "$(basename "$cfg") exit $code" >> "$work/$tree/exit-codes.txt"
  done
done
status=0
for name in $( (ls "$work/base"; ls "$work/head") | sort -u); do
  if ! cmp -s "$work/base/$name" "$work/head/$name"; then
    echo "::error::$name differs from the base tree's"
    status=1
    # each moved JSON value, as key: base -> head
    if [ -f "$work/base/$name" ] && [ -f "$work/head/$name" ]; then
      case "$name" in
        *.json) python - "$work/base/$name" "$work/head/$name" <<'EOF' || true ;;
import json, sys

def leaves(x, key=""):
    if isinstance(x, dict):
        for k, v in x.items():
            yield from leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from leaves(v, f"{key}[{i}]")
    else:
        yield key, x

base, head = (dict(leaves(json.load(open(path)))) for path in sys.argv[1:])
for key in sorted(base.keys() | head.keys()):
    b, h = base.get(key, "(absent)"), head.get(key, "(absent)")
    if b != h:
        print(f"  {key}: {b!r} -> {h!r}")
EOF
        *.csv) python - "$work/base/$name" "$work/head/$name" <<'EOF' || true ;;
import itertools, math, sys

base, head = (open(path).read().splitlines() for path in sys.argv[1:])
pairs = itertools.zip_longest(base, head, fillvalue="(absent)")
for number, (b, h) in enumerate(pairs, 1):
    if b != h:
        print(f"  base line {number}: {b}")
        print(f"  head line {number}: {h}")
        break

def relative(b, h):
    try:
        b, h = float(b), float(h)
    except ValueError:
        return None
    if not (math.isfinite(b) and math.isfinite(h)):
        return math.inf
    return abs(h - b) / max(abs(b), abs(h)) if h != b else 0.0

# each moved column, matched by name, over the rows both tables have
(bcols, *brows), (hcols, *hrows) = ([line.split(",") for line in t] or [[]] for t in (base, head))
if len(brows) != len(hrows):
    print(f"  rows: {len(brows)} -> {len(hrows)}")
for name in sorted(set(bcols) ^ set(hcols)):
    print(f"  column {name}: only in the {'base' if name in bcols else 'head'} table")
for name in [c for c in hcols if c in bcols]:
    i, j = bcols.index(name), hcols.index(name)
    moved = [(n, b[i], h[j]) for n, (b, h) in enumerate(zip(brows, hrows), 2) if b[i] != h[j]]
    if not moved:
        continue
    rel = [relative(b, h) for _, b, h in moved]
    largest = "n/a" if None in rel else f"{max(rel):.3e}"
    print(f"  column {name}: {len(moved)} rows moved, largest relative move {largest}")
    if name == "outcome":
        for n, b, h in moved:
            print(f"  verdict moved, line {n} ({hrows[n - 2][0]}): {b} -> {h}")
EOF
      esac
    fi
  fi
done
echo "compared $(ls "$work/base" | wc -l) files in $work"
exit $status
