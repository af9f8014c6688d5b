#!/usr/bin/env bash
# Link map: lists the frap:: functions that src/ or the test objects define
# but no program links, and checks the list against tools/linkmap_kept.txt
# (docs/static_analysis.md, "Link map").
#
#   tools/linkmap.sh [build-dir-prefix]     # default: build-linkmap
#
# Every program (benches, examples, frap_lint, perfbench) is linked at -O0
# with one section per function and --gc-sections, so a function survives
# in a program only if something it runs references it. Names are compared
# qualified, with parameter lists (and template return types) stripped.
#
# Exit status: 1 if a listed name is not in the kept file (new src/ code
# that only tests call: delete it or give it a program caller), else 0. A
# kept name that no longer appears is printed but does not fail the run;
# drop it from the kept file.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
kept="$root/tools/linkmap_kept.txt"
prefix="${1:-$root/build-linkmap}"
jobs="${JOBS:-$(nproc)}"
flags="-O0 -fno-inline -ffunction-sections -DNDEBUG"

cmake -S "$root" -B "$prefix" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE="$flags" \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
cmake --build "$prefix" -j "$jobs" >/dev/null
cmake -S "$root/perfbench" -B "$prefix-perf" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE="$flags" \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
cmake --build "$prefix-perf" -j "$jobs" --target perfbench >/dev/null

frap_syms() {
  nm --defined-only "$@" 2>/dev/null | awk '$2 ~ /^[TtWw]$/ {print $3}' |
    grep -E '^_ZNK?4frap' |
    grep -v -e 4frap7testing -e 4frap4lint -e _GLOBAL__N_ | sort -u
}

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mapfile -t progs < <(find "$prefix/bench" "$prefix/examples" -maxdepth 1 \
  -type f -perm -u+x)
progs+=("$prefix/tools/frap_lint/frap_lint" "$prefix-perf/perfbench")
frap_syms "${progs[@]}" > "$work/linked.txt"
mapfile -t objs < <(find "$prefix/tests" -name '*.o')
frap_syms "$prefix"/src/*/libfrap_*.a "${objs[@]}" |
  comm -23 - "$work/linked.txt" | c++filt |
  grep -v -e '_Test::' -e LegacyPooled |
  python3 -c '
import sys

def strip(sig):
    """frap::a::B::f<int>(double) const -> frap::a::B::f<int>"""
    s = sig.strip()
    # Drop trailing cv/ref qualifiers, then the last top-level (...) group.
    while True:
        for q in (" const", " volatile", " &&", " &"):
            if s.endswith(q):
                s = s[: -len(q)]
                break
        else:
            break
    if s.endswith(")"):
        depth = 0
        for i in range(len(s) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(s[i], 0)
            if depth == 0:
                s = s[:i]
                break
    # A template function carries its return type: cut at the last space
    # outside <...> and (...), unless that space belongs to an operator.
    depth = 0
    cut = -1
    for i, ch in enumerate(s):
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        elif ch == " " and depth == 0 and not s[:i].endswith("operator"):
            cut = i
    return s[cut + 1 :]

print("\n".join(sorted({strip(line) for line in sys.stdin if line.strip()})))
' > "$work/unlinked.txt"

{ grep -v -e '^#' -e '^$' "$kept" || true; } | sort -u > "$work/kept.txt"
new="$(comm -23 "$work/unlinked.txt" "$work/kept.txt")"
gone="$(comm -13 "$work/unlinked.txt" "$work/kept.txt")"

echo "linkmap: $(wc -l < "$work/unlinked.txt") names linked by no program"
if [[ -n "$gone" ]]; then
  echo "linkmap: kept names that no longer appear (drop them from" \
    "tools/linkmap_kept.txt):"
  printf '%s\n' "$gone" | sed 's/^/  /'
fi
if [[ -n "$new" ]]; then
  echo "linkmap: names no program links and tools/linkmap_kept.txt does not" \
    "keep (delete them, or give them a program caller):"
  printf '%s\n' "$new" | sed 's/^/  /'
  exit 1
fi
