#!/usr/bin/env bash
# Hostile command-line input to pcap_analyze: each bad value must be
# rejected with exit status 1 and an error message, never an abort or a
# silently misread number. A well-formed run on the same capture is the
# control.
#
#   check_pcap_analyze_cli.sh <pcap_analyze binary>
#
# Runs in the current directory.
set -uo pipefail
bin=$1
work=pcap_analyze_cli
rm -rf "$work"
mkdir -p "$work"
cd "$work"
"$bin" --demo demo.pcap --summary > /dev/null || exit 1

status=0
expect() {  # expect <exit code> <stderr substring or ""> <args...>
  local want=$1 msg=$2
  shift 2
  local got=0
  "$bin" demo.pcap --summary "$@" > out.txt 2> err.txt || got=$?
  if [[ $got != "$want" ]] || { [[ -n $msg ]] && ! grep -qF -- "$msg" err.txt; }; then
    echo "FAIL: pcap_analyze demo.pcap $*: exit $got (want $want)," \
      "stderr: $(head -c 200 err.txt)" >&2
    status=1
  fi
}

expect 0 "" --tau 2
expect 0 "" --tau 1.5e0
for tau in nan 2x -1 0 inf ""; do
  expect 1 "--tau must be a positive number" --tau "$tau"
done
expect 1 "cannot open /nonexistent_dir/x_flows.csv" --csv /nonexistent_dir/x
expect 1 "--server-port must be 1..65535" --server-port 70000

[[ $status == 0 ]] && echo "pcap_analyze rejects hostile options cleanly"
exit $status
