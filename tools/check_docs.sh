#!/usr/bin/env bash
# Docs-drift check, three parts:
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
#  3. docs/metrics.md has a "| `name` | type |" row, with the matching type,
#     for every literal GetCounter/GetGauge/GetHistogram("name") in src/;
#     and every row names a metric src/ registers, literally or under the
#     prefix of a "prefix" + ... concatenation (engine.level, trace.events.,
#     cluster.shard_depth.), so a deleted metric cannot keep its row.
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

# --- docs/metrics.md: metric rows vs the registrations in src/ --------------

metrics_doc="docs/metrics.md"
# "name type" per documented row.
documented_metrics="$(sed -nE 's/^\| `([^`]+)` \| (counter|gauge|histogram) \|.*/\1 \2/p' \
  "$metrics_doc" | sort -u)"
# "name type" per literal registration.
registered_metrics="$(grep -rhoE 'Get(Counter|Gauge|Histogram)\("[^"]+"\)' src |
  sed -E 's/^Get(Counter|Gauge|Histogram)\("([^"]+)"\)$/\2 \1/' |
  sed -E 's/ Counter$/ counter/; s/ Gauge$/ gauge/; s/ Histogram$/ histogram/' | sort -u)"
# Name prefixes registered by concatenation, e.g. "engine.level" + level.
registered_prefixes="$(grep -rhoE '"[a-z_]+\.[a-z0-9_.]*" *\+' src |
  sed -E 's/^"([^"]+)".*/\1/' | sort -u)"

while read -r name type; do
  [ -n "$name" ] || continue
  if ! grep -qxF "$name $type" <<<"$documented_metrics"; then
    documented_type="$(awk -v n="$name" '$1 == n { print $2 }' <<<"$documented_metrics")"
    if [ -n "$documented_type" ]; then
      echo "check_docs: $metrics_doc types \`$name\` as $documented_type; src/ registers a $type"
    else
      echo "check_docs: $metrics_doc has no row for \`$name\` ($type, registered in src/)"
    fi
    fail=1
  fi
done <<<"$registered_metrics"

while read -r name type; do
  [ -n "$name" ] || continue
  if awk -v n="$name" '$1 == n { found = 1 } END { exit !found }' <<<"$registered_metrics"; then
    continue
  fi
  prefixed=0
  while read -r prefix; do
    if [ -n "$prefix" ] && [ "${name#"$prefix"}" != "$name" ]; then
      prefixed=1
      break
    fi
  done <<<"$registered_prefixes"
  if [ "$prefixed" -eq 0 ]; then
    echo "check_docs: $metrics_doc documents \`$name\`, which src/ does not register"
    fail=1
  fi
done <<<"$documented_metrics"

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED — update docs/cli.md / docs/wire_protocol.md /" \
       "docs/metrics.md to match the tree"
  exit 1
fi
echo "check_docs: docs/cli.md matches all $(echo $tools | wc -w) CLIs' --help;" \
     "docs/wire_protocol.md matches the wire enums;" \
     "docs/metrics.md matches the registered metrics"
