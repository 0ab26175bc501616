#!/usr/bin/env bash
# Docs-drift check, two halves:
#
#  1. docs/cli.md embeds each CLI's --help output verbatim (one fenced
#     ```text block under the tool's "## <tool>" heading); every block is
#     diffed against the live binary's --help, so flag changes cannot land
#     without the manual following.
#  2. docs/wire_protocol.md embeds the wire-level enums (RTRC frame kinds,
#     RSRV serve frame kinds, RJNL journal record types) in "(generated)"
#     ```text blocks; each is diffed against the defining header, so a new
#     or renumbered frame kind cannot land without the protocol doc
#     following.
#  3. docs/metrics.md's tables list every metric as "| `name` | type |";
#     each row must match a Get{Counter,Gauge,Histogram} registration in
#     src/ by name and type, and each registration must have a row. Names
#     computed at run time ("serve.queue_depth.client" + id, or a prefix
#     variable + ".candidates") form families that match the rows sharing
#     their literal parts (serve.queue_depth.client<id>, engine.level1.*).
#
# Registered as the `docs_drift` ctest.
#
# Usage: tools/check_docs.sh [build_dir]   (default: ./build)
set -eu

cd "$(dirname "$0")/.."

build_dir="${1:-build}"
doc="docs/cli.md"
wire_doc="docs/wire_protocol.md"
tools="reproduce_bug trace_explorer lint_schedule rose_served rose_serve_cli rose_routerd"

if [ ! -f "$doc" ]; then
  echo "check_docs: $doc not found"
  exit 2
fi
if [ ! -f "$wire_doc" ]; then
  echo "check_docs: $wire_doc not found"
  exit 2
fi

fail=0
for tool in $tools; do
  bin="$build_dir/examples/$tool"
  if [ ! -x "$bin" ]; then
    echo "check_docs: $bin not built (cmake --build $build_dir --target $tool)"
    exit 2
  fi
  # First ```text fence under the tool's "## <tool>" heading.
  documented="$(awk -v tool="$tool" '
    $0 == "## `" tool "`" || $0 == "## " tool { in_section = 1; next }
    in_section && /^## /                      { exit }
    in_section && $0 == "```text"             { in_block = 1; next }
    in_block && $0 == "```"                   { exit }
    in_block                                  { print }
  ' "$doc")"
  if [ -z "$documented" ]; then
    echo "check_docs: no \`\`\`text block for $tool in $doc"
    fail=1
    continue
  fi
  live="$("$bin" --help)"
  if [ "$documented" != "$live" ]; then
    echo "check_docs: $doc is stale for $tool (docs vs live --help):"
    diff <(printf '%s\n' "$documented") <(printf '%s\n' "$live") | sed 's/^/  /' || true
    fail=1
  fi
done

# --- docs/wire_protocol.md: generated enum blocks vs the defining headers ---

# First ```text fence under an exact heading line; the section ends at the
# next heading of any level.
doc_block() {
  awk -v h="$2" '
    $0 == h                       { in_section = 1; next }
    in_section && /^#/            { exit }
    in_section && $0 == "```text" { in_block = 1; next }
    in_block && $0 == "```"       { exit }
    in_block                      { print }
  ' "$1"
}

# Enum body between "enum class <name>" and "};": entry lines only, leading
# indentation and trailing // comments stripped.
enum_body() {
  awk -v e="$2" '
    $0 ~ "^enum class " e { in_enum = 1; next }
    in_enum && /^};/      { exit }
    in_enum               { print }
  ' "$1" | grep -E '^  k[A-Za-z0-9]+ = [0-9]+,' | sed -E 's/^ +//; s/, *\/\/.*$/,/'
}

check_wire_block() {
  heading="$1"
  source_desc="$2"
  live="$3"
  documented="$(doc_block "$wire_doc" "$heading")"
  if [ -z "$documented" ]; then
    echo "check_docs: no \`\`\`text block under \"$heading\" in $wire_doc"
    fail=1
    return
  fi
  if [ "$documented" != "$live" ]; then
    echo "check_docs: $wire_doc is stale for \"$heading\" (docs vs $source_desc):"
    diff <(printf '%s\n' "$documented") <(printf '%s\n' "$live") | sed 's/^/  /' || true
    fail=1
  fi
}

check_wire_block "### RTRC frame kinds (generated)" "src/trace/trace_io.h" \
  "$(grep -E '^inline constexpr uint8_t kFrame' src/trace/trace_io.h |
     sed 's/^inline constexpr uint8_t //')"
check_wire_block "### RSRV frame kinds (generated)" "src/serve/protocol.h" \
  "$(enum_body src/serve/protocol.h ServeFrame)"
check_wire_block "### RJNL record types (generated)" "src/cluster/journal.h" \
  "$(enum_body src/cluster/journal.h JournalRecordType)"

# --- docs/metrics.md: metric names and types vs the registrations in src/ ---

metrics_doc="docs/metrics.md"
if [ ! -f "$metrics_doc" ]; then
  echo "check_docs: $metrics_doc not found"
  exit 2
fi
get_re='Get(Counter|Gauge|Histogram)\('
# "type name" for each literal registration.
code_exact="$(grep -rhoE "$get_re\"[^\"]+\"\)" src |
  sed -E 's/^Get([A-Za-z]+)\("([^"]+)"\)$/\1 \2/' | awk '{print tolower($1), $2}' | sort -u)"
# "type glob" for each computed-name family: Get*("prefix" + x) gives
# prefix*, and Get*(var + "suffix") with var = "prefix" + ... in the same
# file gives prefix*suffix.
code_families="$( {
  grep -rhoE "$get_re\"[^\"]+\" \+" src | sed -E 's/^Get([A-Za-z]+)\("([^"]+)" \+$/\1 \2*/' || true
  for file in $(grep -rlE "$get_re[a-z_]+ \+ \"" src || true); do
    grep -oE "$get_re[a-z_]+ \+ \"[^\"]+\"\)" "$file" |
      sed -E 's/^Get([A-Za-z]+)\(([a-z_]+) \+ "([^"]+)"\)$/\1 \2 \3/' |
      while read -r type var suffix; do
        prefix="$(grep -oE "$var = \"[^\"]+\" \+" "$file" | head -n 1 | sed -E 's/^.*= "([^"]+)".*$/\1/')"
        echo "$type ${prefix:-?}*$suffix"
      done
  done
} | awk '{print tolower($1), $2}' | sort -u)"
# "type name" for each table row.
doc_rows="$(grep -E '^\| `[^`]+` \| (counter|gauge|histogram) \|' "$metrics_doc" |
  sed -E 's/^\| `([^`]+)` \| ([a-z]+) \|.*$/\2 \1/' | sort -u)"

while read -r type name; do
  [ -n "$type" ] || continue
  if printf '%s\n' "$code_exact" | grep -qxF "$type $name"; then
    continue
  fi
  matched=0
  while read -r family_type glob; do
    # Unquoted $glob: a shell pattern, so * spans the computed part.
    if [ "$family_type" = "$type" ] && [[ "$name" == $glob ]]; then
      matched=1
      break
    fi
  done <<< "$code_families"
  if [ "$matched" -eq 0 ]; then
    echo "check_docs: $metrics_doc lists $type \`$name\`, which nothing in src/ registers"
    fail=1
  fi
done <<< "$doc_rows"

while read -r type name; do
  [ -n "$type" ] || continue
  if ! printf '%s\n' "$doc_rows" | grep -qxF "$type $name"; then
    echo "check_docs: src/ registers $type \`$name\`, which $metrics_doc does not list"
    fail=1
  fi
done <<< "$code_exact"

while read -r type glob; do
  [ -n "$type" ] || continue
  matched=0
  while read -r row_type name; do
    if [ "$row_type" = "$type" ] && [[ "$name" == $glob ]]; then
      matched=1
      break
    fi
  done <<< "$doc_rows"
  if [ "$matched" -eq 0 ]; then
    echo "check_docs: src/ registers the $type family \`$glob\`, which $metrics_doc does not list"
    fail=1
  fi
done <<< "$code_families"

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED — update docs/cli.md / docs/wire_protocol.md /" \
       "docs/metrics.md to match the tree"
  exit 1
fi
echo "check_docs: docs/cli.md matches all $(echo $tools | wc -w) CLIs' --help;" \
     "docs/wire_protocol.md matches the wire enums;" \
     "docs/metrics.md matches all $(printf '%s\n' "$code_exact" | wc -l) metrics and" \
     "$(printf '%s\n' "$code_families" | wc -l) metric families in src/"
