#!/usr/bin/env python3
"""Process-memory gate for a budgeted pcap_analyze run.

Writes the `pcap_analyze --demo` capture, replicates it SMALL and LARGE
times (each replica gets its own client addresses, records are merged in
time order and cut to their IP and TCP headers), runs

    pcap_analyze <capture> --mem-budget 1048576 --summary

on each, and compares the two runs' peak resident set size (ru_maxrss of
the child, via os.wait4). The budget bounds the flow table's ledger; this
checks that nothing outside it, such as finalized flows kept for the
report, grows with the capture. Fails when the LARGE run's peak exceeds
the SMALL run's by more than MARGIN.

    check_pcap_analyze_rss.py <pcap_analyze binary> [SMALL LARGE]

Works in ./pcap_analyze_rss/ and deletes each replicated capture after
its run.
"""
import os
import struct
import subprocess
import sys

BUDGET = 1 << 20
# Allowed growth of the LARGE run's peak RSS over the SMALL run's: 25 %.
# A process that keeps ~0.5 KB per finalized flow grows by far more (the
# 200x capture finalizes about 200,000 flows).
MARGIN = 1.25
CLIENT_NET = 0x0A000000     # 10.0.0.0/8: the demo's client side


def read_records(path):
    """Returns the pcap global header and (timestamp, orig_len, frame)s."""
    with open(path, "rb") as f:
        data = f.read()
    magic, = struct.unpack_from("<I", data, 0)
    if magic != 0xA1B2C3D4:
        sys.exit(f"{path}: expected a little-endian microsecond pcap")
    linktype, = struct.unpack_from("<I", data, 20)
    if linktype != 101:
        sys.exit(f"{path}: expected LINKTYPE_RAW, got {linktype}")
    records = []
    off = 24
    while off + 16 <= len(data):
        caplen, orig_len = struct.unpack_from("<II", data, off + 8)
        frame = data[off + 16:off + 16 + caplen]
        records.append((data[off:off + 8], orig_len, frame))
        off += 16 + caplen
    return data[:24], records


def headers_only(frame):
    ihl = (frame[0] & 0x0F) * 4
    data_offset = (frame[ihl + 12] >> 4) * 4
    return frame[:ihl + data_offset]


def replicate(src, dst, copies):
    """Writes `copies` time-merged replicas of `src`, headers only."""
    header, records = read_records(src)
    with open(dst, "wb") as out:
        out.write(header)
        for ts, orig_len, frame in records:
            frame = headers_only(frame)
            lengths = struct.pack("<II", len(frame), orig_len)
            saddr, daddr = struct.unpack_from(">II", frame, 12)
            for r in range(copies):
                # Replica r moves every client address into 10.(r/256).(r%256)
                # .x; servers keep theirs.
                shift = r << 8
                s = saddr + shift if saddr & 0xFF000000 == CLIENT_NET else saddr
                d = daddr + shift if daddr & 0xFF000000 == CLIENT_NET else daddr
                out.write(ts)
                out.write(lengths)
                out.write(frame[:12])
                out.write(struct.pack(">II", s, d))
                out.write(frame[20:])


def peak_rss_kb(binary, capture):
    """Runs one budgeted pcap_analyze and returns its ru_maxrss (KiB)."""
    proc = subprocess.Popen(
        [binary, capture, "--mem-budget", str(BUDGET), "--summary"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    output = proc.stdout.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"pcap_analyze {capture} exited {proc.returncode}:\n{output}")
    finalized = next((line.split()[0] for line in output.splitlines()
                      if "flows finalized" in line), "?")
    return usage.ru_maxrss, finalized


def main():
    if len(sys.argv) not in (2, 4):
        sys.exit(__doc__)
    binary = sys.argv[1]
    small, large = (int(a) for a in sys.argv[2:4]) if len(sys.argv) == 4 \
        else (20, 200)
    binary = os.path.abspath(binary)
    os.makedirs("pcap_analyze_rss", exist_ok=True)
    os.chdir("pcap_analyze_rss")
    subprocess.run([binary, "--demo", "demo.pcap", "--summary"], check=True,
                   stdout=subprocess.DEVNULL)
    rss = {}
    for copies in (small, large):
        capture = f"demo_x{copies}.pcap"
        replicate("demo.pcap", capture, copies)
        rss[copies], finalized = peak_rss_kb(binary, capture)
        os.remove(capture)
        print(f"{copies}x: {finalized} flows finalized, "
              f"ru_maxrss {rss[copies] / 1024:.1f} MiB")
    limit = rss[small] * MARGIN
    if rss[large] > limit:
        print(f"FAIL: the {large}x run peaks at {rss[large] / 1024:.1f} MiB, "
              f"above {MARGIN:.2f}x the {small}x run's "
              f"{rss[small] / 1024:.1f} MiB: process memory grows with the "
              f"capture although the flow table is budgeted")
        return 1
    print(f"budgeted pcap_analyze peak RSS is flat from {small}x to {large}x "
          f"(within {MARGIN:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
