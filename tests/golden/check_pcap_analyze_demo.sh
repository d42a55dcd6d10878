#!/usr/bin/env bash
# Golden check for `pcap_analyze --demo`: runs the demo capture through the
# batch, --live and --server-port 80 modes with --csv, and compares stdout
# and both CSVs of each run byte for byte with the files in this directory.
# The live run's "peak resident N bytes" is the flow table's ledger
# high-water, a memory figure rather than an analysis result, so its number
# is masked before comparing.
#
#   check_pcap_analyze_demo.sh <pcap_analyze binary> <golden dir> [--update]
#
# Runs in the current directory; --update rewrites the goldens instead.
set -euo pipefail
bin=$1
golden=$2
update=${3:-}

work=pcap_analyze_demo_golden
rm -rf "$work"
mkdir -p "$work"
cd "$work"

run() {  # run <name> <args...>
  local name=$1
  shift
  "$bin" --demo demo.pcap "$@" --csv "$name" |
    sed -E 's/peak resident [0-9]+ bytes/peak resident N bytes/' > "$name.out"
}
run batch
run live --live
run port --server-port 80

status=0
for name in batch live port; do
  for f in "$name.out" "${name}_flows.csv" "${name}_stalls.csv"; do
    if [[ "$update" == "--update" ]]; then
      cp "$f" "$golden/$f"
    elif ! cmp -s "$f" "$golden/$f"; then
      echo "MISMATCH: $f differs from $golden/$f" >&2
      diff "$golden/$f" "$f" | head -20 >&2 || true
      status=1
    fi
  done
done
[[ $status == 0 && "$update" != "--update" ]] && echo "pcap_analyze --demo matches its goldens"
exit $status
