// Streaming-pipeline tests: the chunked pcap reader and the live analysis
// engine must be bit-identical to the batch path for every chunk
// granularity and workload profile (with and without capture impairments),
// the reader's per-frame rollback must never cross a chunk boundary,
// budgets must bound residency deterministically, and pcap parse errors
// must locate the bad record by index and absolute file offset.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/chunk.h"
#include "net/endian.h"
#include "net/ipv4.h"
#include "pcap/pcap.h"
#include "sim/capture_channel.h"
#include "tapo/analyzer.h"
#include "tapo/live.h"
#include "util/memory_budget.h"
#include "util/rng.h"
#include "workload/experiment.h"
#include "workload/profiles.h"

namespace tapo::analysis {
namespace {

// ---------------------------------------------------------------------------
// Deep FlowAnalysis equality. EXPECT_EQ on doubles is deliberate: both paths
// must execute the identical instruction stream, so results are bit-equal,
// not merely close.
// ---------------------------------------------------------------------------

void expect_same_stall(const StallRecord& a, const StallRecord& b) {
  EXPECT_EQ(a.start.us(), b.start.us());
  EXPECT_EQ(a.end.us(), b.end.us());
  EXPECT_EQ(a.duration.us(), b.duration.us());
  EXPECT_EQ(a.cause, b.cause);
  EXPECT_EQ(a.retrans_cause, b.retrans_cause);
  EXPECT_EQ(a.f_double, b.f_double);
  EXPECT_EQ(a.state_at_stall, b.state_at_stall);
  EXPECT_EQ(a.in_flight, b.in_flight);
  EXPECT_EQ(a.rel_position, b.rel_position);
  EXPECT_EQ(a.cur_pkt_index, b.cur_pkt_index);
}

void expect_same_analysis(const FlowAnalysis& a, const FlowAnalysis& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.transmission_time.us(), b.transmission_time.us());
  EXPECT_EQ(a.unique_bytes, b.unique_bytes);
  EXPECT_EQ(a.data_segments, b.data_segments);
  EXPECT_EQ(a.retrans_segments, b.retrans_segments);
  EXPECT_EQ(a.avg_speed_Bps, b.avg_speed_Bps);
  EXPECT_EQ(a.rtt_samples_us, b.rtt_samples_us);
  EXPECT_EQ(a.rto_at_timeout_us, b.rto_at_timeout_us);
  EXPECT_EQ(a.avg_rtt_us, b.avg_rtt_us);
  EXPECT_EQ(a.avg_rto_us, b.avg_rto_us);
  EXPECT_EQ(a.avg_rto_on_ack_us, b.avg_rto_on_ack_us);
  EXPECT_EQ(a.stalled_time.us(), b.stalled_time.us());
  EXPECT_EQ(a.stall_ratio, b.stall_ratio);
  EXPECT_EQ(a.init_rwnd_bytes, b.init_rwnd_bytes);
  EXPECT_EQ(a.init_rwnd_mss, b.init_rwnd_mss);
  EXPECT_EQ(a.had_zero_rwnd, b.had_zero_rwnd);
  EXPECT_EQ(a.inflight_on_ack, b.inflight_on_ack);
  EXPECT_EQ(a.timeout_retrans, b.timeout_retrans);
  EXPECT_EQ(a.fast_retrans, b.fast_retrans);
  EXPECT_EQ(a.spurious_retrans, b.spurious_retrans);
  ASSERT_EQ(a.stalls.size(), b.stalls.size());
  for (std::size_t i = 0; i < a.stalls.size(); ++i) {
    expect_same_stall(a.stalls[i], b.stalls[i]);
  }
}

void expect_same_result(const AnalysisResult& a, const AnalysisResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    SCOPED_TRACE("flow " + std::to_string(i));
    expect_same_analysis(a.flows[i], b.flows[i]);
  }
}

/// Simulates `n_flows` flows of `profile` and merges their server-NIC
/// captures into one time-sorted arena.
net::PacketTrace merged_trace(const workload::ServiceProfile& profile,
                              std::uint64_t seed, std::uint64_t n_flows) {
  Rng master(seed);
  net::PacketTrace merged;
  for (std::uint64_t f = 0; f < n_flows; ++f) {
    Rng flow_rng = master.split();
    const auto scenario = workload::draw_scenario(profile, flow_rng, f);
    auto outcome =
        workload::run_flow(scenario, flow_rng.split(), Duration::seconds(600.0),
                           workload::TraceCapture::kServerNic);
    if (!outcome.trace.has_value()) {
      ADD_FAILURE() << "flow " << f << " produced no capture";
      continue;
    }
    for (const auto& p : outcome.trace->packets()) merged.add(p);
  }
  merged.sort_by_time();
  return merged;
}

struct ProfileCase {
  const char* name;
  workload::ServiceProfile profile;
};

std::vector<ProfileCase> all_profiles() {
  return {{"cloud_storage", workload::cloud_storage_profile()},
          {"software_download", workload::software_download_profile()},
          {"web_search", workload::web_search_profile()}};
}

struct ChunkCase {
  const char* name;
  std::size_t packets;
};

/// The ISSUE-mandated chunk granularities: one packet, ~4 KiB, ~1 MiB, and
/// the whole trace in one chunk.
std::vector<ChunkCase> chunk_cases(std::size_t whole_trace_packets) {
  const auto per = sizeof(net::CapturedPacket);
  return {{"1pkt", 1},
          {"4KiB", std::max<std::size_t>(1, 4096 / per)},
          {"1MiB", std::max<std::size_t>(1, (std::size_t{1} << 20) / per)},
          {"whole", std::max<std::size_t>(1, whole_trace_packets)}};
}

/// Streams `trace` through a pcap file and an unbounded LiveAnalyzer in
/// `chunk_packets`-sized chunks — the full production streaming pipeline —
/// and returns the flows restored to first-packet order (what the batch
/// path emits).
AnalysisResult analyze_via_streaming_pipeline(const net::PacketTrace& trace,
                                              std::size_t chunk_packets,
                                              util::MemoryBudget* budget,
                                              LiveStats* stats_out = nullptr) {
  std::stringstream bytes;
  pcap::write_stream(bytes, trace);

  auto config =
      LiveConfig{}
          .with_idle_timeout(Duration::max())
          .with_fin_linger(Duration::max())
          .with_max_flows(std::numeric_limits<std::size_t>::max())
          .with_max_packets_per_flow(std::numeric_limits<std::size_t>::max())
          .with_mem_budget(budget);
  AnalysisResult result;
  LiveAnalyzer live(config, LiveAnalyzer::FlowDoneFn(
      [&result](const FlowAnalysis& fa) { result.flows.push_back(fa); }));

  std::unordered_map<net::FlowKey, std::size_t, net::FlowKeyHash> first_seen;
  pcap::StreamingReader reader(
      bytes, pcap::StreamingOptions{.chunk_packets = chunk_packets,
                                    .budget = budget});
  while (auto chunk = reader.next_chunk()) {
    for (const auto& pkt : chunk->packets()) {
      first_seen.try_emplace(pkt.key.canonical(), first_seen.size());
      live.add_packet(pkt);
    }
  }
  live.flush();
  if (stats_out != nullptr) *stats_out = live.stats();
  std::stable_sort(result.flows.begin(), result.flows.end(),
                   [&first_seen](const FlowAnalysis& a, const FlowAnalysis& b) {
                     return first_seen.at(a.key.canonical()) <
                            first_seen.at(b.key.canonical());
                   });
  return result;
}

// ---------------------------------------------------------------------------
// The tentpole invariant: with unlimited budget, streaming output is
// bit-identical to batch output for every profile and every chunk size.
// ---------------------------------------------------------------------------

TEST(StreamingEquivalence, HoldsUnderCaptureImpairments) {
  // A degraded capture (drops, snaplen cuts, duplicates, reordering,
  // jitter, mid-stream start) through the whole streaming stack against
  // batch analysis of the same pcap bytes.
  const Analyzer analyzer;
  const auto imp = sim::CaptureImpairments{}
                       .with_drop(0.02)
                       .with_burst_drop(0.01, 0.5)
                       .with_snaplen(60)
                       .with_duplication(0.01)
                       .with_reordering(0.05)
                       .with_jitter(Duration::micros(40))
                       .with_mid_stream_start(3)
                       .with_seed(7);
  for (const auto& [pname, profile] : all_profiles()) {
    SCOPED_TRACE(pname);
    const net::PacketTrace pristine = merged_trace(profile, /*seed=*/88, 4);
    ASSERT_GT(pristine.size(), 0u);
    const net::PacketTrace degraded = sim::apply_impairments(pristine, imp);
    std::stringstream bytes;
    pcap::write_stream(bytes, degraded);
    const AnalysisResult batch = analyzer.analyze(pcap::read_stream(bytes));
    for (const auto& [cname, packets] : chunk_cases(degraded.size())) {
      SCOPED_TRACE(cname);
      expect_same_result(
          analyze_via_streaming_pipeline(degraded, packets, nullptr), batch);
    }
  }
}

TEST(StreamingEquivalence, FullPipelineMatchesBatchForEveryChunkSize) {
  // pcap serialization -> StreamingReader chunks -> unbounded LiveAnalyzer:
  // the whole streaming stack against batch analysis of the same bytes.
  const Analyzer analyzer;
  for (const auto& [pname, profile] : all_profiles()) {
    SCOPED_TRACE(pname);
    const net::PacketTrace trace = merged_trace(profile, /*seed=*/4321, 4);
    ASSERT_GT(trace.size(), 0u);
    std::stringstream bytes;
    pcap::write_stream(bytes, trace);
    const net::PacketTrace reread = pcap::read_stream(bytes);
    const AnalysisResult batch = analyzer.analyze(reread);
    for (const auto& [cname, packets] : chunk_cases(trace.size())) {
      SCOPED_TRACE(cname);
      const AnalysisResult streamed =
          analyze_via_streaming_pipeline(trace, packets, nullptr);
      expect_same_result(streamed, batch);
    }
  }
}

// ---------------------------------------------------------------------------
// StreamingReader: chunk concatenation reproduces read_stream bit for bit,
// truncation semantics included.
// ---------------------------------------------------------------------------

void expect_same_packets(const net::PacketTrace& a, const net::PacketTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("packet " + std::to_string(i));
    EXPECT_EQ(a[i].timestamp.us(), b[i].timestamp.us());
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].tcp.seq, b[i].tcp.seq);
    EXPECT_EQ(a[i].tcp.ack, b[i].tcp.ack);
    EXPECT_EQ(a[i].tcp.flags, b[i].tcp.flags);
    EXPECT_EQ(a[i].tcp.window, b[i].tcp.window);
    EXPECT_EQ(a[i].payload_len, b[i].payload_len);
    EXPECT_EQ(a[i].truncated, b[i].truncated);
  }
}

void expect_same_stats(const pcap::ReadStats& a, const pcap::ReadStats& b) {
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.tcp_packets, b.tcp_packets);
  EXPECT_EQ(a.skipped, b.skipped);
}

TEST(StreamingReader, ChunksConcatenateToReadStream) {
  const net::PacketTrace trace =
      merged_trace(workload::web_search_profile(), /*seed=*/15, 3);
  ASSERT_GT(trace.size(), 0u);
  std::stringstream bytes;
  pcap::write_stream(bytes, trace);
  const std::string blob = bytes.str();

  std::stringstream batch_in(blob);
  pcap::ReadStats batch_stats;
  const net::PacketTrace batch = pcap::read_stream(batch_in, &batch_stats);

  for (const auto& [cname, packets] : chunk_cases(trace.size())) {
    SCOPED_TRACE(cname);
    std::stringstream in(blob);
    pcap::StreamingReader reader(
        in, pcap::StreamingOptions{.chunk_packets = packets});
    net::PacketTrace concat;
    while (auto chunk = reader.next_chunk()) {
      for (const auto& pkt : chunk->packets()) concat.add(pkt);
    }
    expect_same_packets(concat, batch);
    expect_same_stats(reader.stats(), batch_stats);
  }
}

TEST(StreamingReader, KeepsCompleteRecordsOnTruncatedTail) {
  // Same rollback semantics as read_stream: a capture cut mid-record keeps
  // everything before the cut.
  const net::PacketTrace trace =
      merged_trace(workload::web_search_profile(), /*seed=*/42, 1);
  ASSERT_GE(trace.size(), 3u);
  std::stringstream full;
  pcap::write_stream(full, trace);
  const std::string blob = full.str();
  // Cut inside the last record's body (records are 16-byte header + body).
  const std::string cut = blob.substr(0, blob.size() - 4);

  std::stringstream in(cut);
  pcap::StreamingReader reader(in,
                               pcap::StreamingOptions{.chunk_packets = 2});
  std::size_t total = 0;
  while (auto chunk = reader.next_chunk()) total += chunk->size();
  EXPECT_EQ(total, trace.size() - 1);
  EXPECT_EQ(reader.stats().tcp_packets, trace.size() - 1);
}

// ---------------------------------------------------------------------------
// StreamingReader rollback at chunk boundaries: real Ethernet captures mix
// TCP frames with frames the parser rejects. Some rejects (UDP, IPv6) are
// dropped before a slot is claimed; a TCP frame whose header the capture
// cut short claims a slot and rolls it back. Rejects sit right at the
// chunk boundaries of every chunk size read below, and the capture ends on
// rejects after a full chunk.
// ---------------------------------------------------------------------------

enum class Frame { kTcp, kIpv6, kUdp, kTcpCut };

/// Runs of TCP frames separated by reject groups: TCP counts at the rejects
/// are 0, 1, 3, 6, 12, 18, 19 and 24 — multiples of 1, 2 and 3 among them.
std::vector<Frame> mixed_frames() {
  const Frame rejects[] = {Frame::kIpv6, Frame::kUdp, Frame::kTcpCut};
  const struct {
    int tcp;
    int rejected;
  } runs[] = {{0, 1}, {1, 1}, {2, 2}, {3, 1}, {6, 1}, {6, 3}, {1, 1}, {5, 2}};
  std::vector<Frame> frames;
  std::size_t r = 0;
  for (const auto& run : runs) {
    for (int i = 0; i < run.tcp; ++i) frames.push_back(Frame::kTcp);
    for (int i = 0; i < run.rejected; ++i) frames.push_back(rejects[r++ % 3]);
  }
  return frames;
}

/// Record `i` of the mixed capture as an Ethernet frame. Every frame is a
/// full IPv4/TCP packet with a per-record payload length, then altered to
/// the kind asked for. Returns the captured bytes; `wire_len` gets the
/// frame's length on the wire.
std::vector<std::uint8_t> ethernet_frame(Frame kind, std::uint32_t i,
                                         std::size_t& wire_len) {
  net::TcpHeader tcp;
  tcp.src_port = 80;
  tcp.dst_port = static_cast<std::uint16_t>(40000 + i % 3);
  tcp.seq = net::Seq32{1000 + 100 * i};
  tcp.ack = net::Seq32{7 + i};
  tcp.flags.ack = true;
  tcp.window = static_cast<std::uint16_t>(500 + i);
  const std::size_t tcp_len = tcp.header_len() + 10 + i;
  net::Ipv4Header ip;
  ip.src = 0x0a000001;
  ip.dst = 0x0a000100 + i % 3;
  ip.total_length = static_cast<std::uint16_t>(net::kIpv4HeaderLen + tcp_len);
  ip.protocol = kind == Frame::kUdp ? 17 : net::kProtoTcp;

  constexpr std::size_t kEth = 14;
  std::vector<std::uint8_t> f(kEth + net::kIpv4HeaderLen + tcp_len, 0);
  net::put_u16(f, 12, kind == Frame::kIpv6 ? 0x86DD : 0x0800);
  ip.serialize(std::span(f).subspan(kEth, net::kIpv4HeaderLen));
  tcp.serialize(std::span(f).subspan(kEth + net::kIpv4HeaderLen));
  wire_len = f.size();
  // Cut 8 bytes into the TCP header: the IP header is intact, so the
  // parser claims a slot before the TCP parse fails.
  if (kind == Frame::kTcpCut) f.resize(kEth + net::kIpv4HeaderLen + 8);
  return f;
}

void put_le32(std::string& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) out.push_back(static_cast<char>(v >> (8 * b)));
}

void append_bytes(std::string& out, const std::vector<std::uint8_t>& bytes) {
  out.append(bytes.begin(), bytes.end());
}

/// Classic pcap, LINKTYPE_ETHERNET, one record per frame.
std::string classic_capture(const std::vector<Frame>& frames) {
  std::string blob;
  put_le32(blob, 0xa1b2c3d4);
  put_le32(blob, 2 | (4u << 16));  // version 2.4
  put_le32(blob, 0);               // thiszone
  put_le32(blob, 0);               // sigfigs
  put_le32(blob, 65535);           // snaplen
  put_le32(blob, 1);               // LINKTYPE_ETHERNET
  for (std::uint32_t i = 0; i < frames.size(); ++i) {
    std::size_t wire_len = 0;
    const auto f = ethernet_frame(frames[i], i, wire_len);
    put_le32(blob, 1 + i);  // ts_sec
    put_le32(blob, 0);      // ts_usec
    put_le32(blob, static_cast<std::uint32_t>(f.size()));
    put_le32(blob, static_cast<std::uint32_t>(wire_len));
    append_bytes(blob, f);
  }
  return blob;
}

/// pcapng: SHB, one Ethernet IDB, one EPB per frame.
std::string pcapng_capture(const std::vector<Frame>& frames) {
  std::string blob;
  put_le32(blob, 0x0A0D0D0A);  // SHB
  put_le32(blob, 28);
  put_le32(blob, 0x1A2B3C4D);  // byte-order magic
  put_le32(blob, 1);           // version 1.0
  put_le32(blob, 0xFFFFFFFF);  // section length unspecified
  put_le32(blob, 0xFFFFFFFF);
  put_le32(blob, 28);
  put_le32(blob, 1);      // IDB
  put_le32(blob, 20);
  put_le32(blob, 1);      // LINKTYPE_ETHERNET, reserved 0
  put_le32(blob, 65535);  // snaplen
  put_le32(blob, 20);
  for (std::uint32_t i = 0; i < frames.size(); ++i) {
    std::size_t wire_len = 0;
    auto f = ethernet_frame(frames[i], i, wire_len);
    const auto caplen = static_cast<std::uint32_t>(f.size());
    f.resize((f.size() + 3) & ~std::size_t{3}, 0);  // pad to 32 bits
    const auto total = static_cast<std::uint32_t>(32 + f.size());
    put_le32(blob, 6);  // EPB
    put_le32(blob, total);
    put_le32(blob, 0);                       // interface 0
    put_le32(blob, 0);                       // ts high (microseconds)
    put_le32(blob, (1 + i) * 1'000'000u);    // ts low
    put_le32(blob, caplen);
    put_le32(blob, static_cast<std::uint32_t>(wire_len));
    append_bytes(blob, f);
    put_le32(blob, total);
  }
  return blob;
}

void expect_rollback_stays_in_chunk(const std::string& blob) {
  const std::vector<Frame> frames = mixed_frames();
  std::stringstream batch_in(blob);
  pcap::ReadStats batch_stats;
  const net::PacketTrace batch = pcap::read_stream(batch_in, &batch_stats);
  // Exactly the TCP frames survive, in order (payload length = 10 + index).
  std::vector<std::uint32_t> want_payloads;
  for (std::uint32_t i = 0; i < frames.size(); ++i) {
    if (frames[i] == Frame::kTcp) want_payloads.push_back(10 + i);
  }
  std::vector<std::uint32_t> payloads;
  for (const auto& pkt : batch.packets()) payloads.push_back(pkt.payload_len);
  EXPECT_EQ(payloads, want_payloads);
  EXPECT_EQ(batch_stats.records, frames.size());
  EXPECT_EQ(batch_stats.skipped, frames.size() - want_payloads.size());

  const std::size_t chunk_sizes[] = {0, 1, 2, 3};
  for (const std::size_t chunk_packets : chunk_sizes) {
    SCOPED_TRACE("chunk_packets=" + std::to_string(chunk_packets));
    const std::size_t per_chunk = std::max<std::size_t>(1, chunk_packets);
    std::stringstream in(blob);
    pcap::StreamingReader reader(
        in, pcap::StreamingOptions{.chunk_packets = chunk_packets});
    net::PacketTrace concat;
    while (auto chunk = reader.next_chunk()) {
      EXPECT_EQ(chunk->size(), std::min(per_chunk, batch.size() - concat.size()));
      EXPECT_EQ(chunk->capacity(), per_chunk);
      for (const auto& pkt : chunk->packets()) concat.add(pkt);
    }
    EXPECT_FALSE(reader.next_chunk().has_value());
    expect_same_packets(concat, batch);
    expect_same_stats(reader.stats(), batch_stats);
  }
}

TEST(StreamingReader, RejectedFramesAtChunkBoundariesClassic) {
  expect_rollback_stays_in_chunk(classic_capture(mixed_frames()));
}

TEST(StreamingReader, RejectedFramesAtChunkBoundariesPcapng) {
  expect_rollback_stays_in_chunk(pcapng_capture(mixed_frames()));
}

// ---------------------------------------------------------------------------
// Satellite: parse errors report the absolute file offset and frame index.
// ---------------------------------------------------------------------------

TEST(PcapErrors, ClassicCaplenErrorCarriesRecordIndexAndOffset) {
  net::PacketTrace trace =
      merged_trace(workload::web_search_profile(), /*seed=*/9, 1);
  ASSERT_GE(trace.size(), 2u);
  std::stringstream out;
  pcap::write_stream(out, trace);
  std::string blob = out.str();

  // Corrupt record 2's caplen field. Record 1 starts after the 24-byte
  // global header; its caplen sits at bytes [8, 12) of the record header.
  constexpr std::size_t kGlobalHeader = 24;
  constexpr std::size_t kRecordHeader = 16;
  const auto u8 = [&blob](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<std::uint8_t>(blob[i]));
  };
  const std::uint32_t caplen1 =
      u8(kGlobalHeader + 8) | (u8(kGlobalHeader + 9) << 8) |
      (u8(kGlobalHeader + 10) << 16) | (u8(kGlobalHeader + 11) << 24);
  const std::size_t record2 = kGlobalHeader + kRecordHeader + caplen1;
  ASSERT_LT(record2 + kRecordHeader, blob.size());
  // 8 MiB caplen: far over the reader's 256 KiB sanity cap.
  blob[record2 + 8] = 0;
  blob[record2 + 9] = 0;
  blob[record2 + 10] = static_cast<char>(0x80);
  blob[record2 + 11] = 0;

  const std::string expected = "pcap: absurd caplen 8388608 (record 2, offset " +
                               std::to_string(record2) + ")";
  std::stringstream in(blob);
  try {
    pcap::read_stream(in);
    FAIL() << "read_stream must reject the absurd caplen";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }

  // The streaming reader throws the identical message from next_chunk.
  // Record 1 fills the first one-packet chunk, which is delivered before
  // record 2 is read; the error surfaces on the next call.
  std::stringstream in2(blob);
  pcap::StreamingReader reader(in2,
                               pcap::StreamingOptions{.chunk_packets = 1});
  const auto first = reader.next_chunk();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->size(), 1u);
  try {
    reader.next_chunk();
    FAIL() << "StreamingReader must reject the absurd caplen";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

TEST(PcapErrors, PcapngBlockErrorCarriesBlockIndexAndOffset) {
  // Minimal pcapng: a valid SHB, then a block with an absurd length.
  std::string blob;
  const auto put32 = [&blob](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      blob.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  put32(0x0A0D0D0A);  // SHB type
  put32(28);          // SHB length
  put32(0x1A2B3C4D);  // byte-order magic
  put32(0x00000001);  // version 1.0
  put32(0xFFFFFFFF);  // section length (unspecified), low
  put32(0xFFFFFFFF);  // section length, high
  put32(28);          // trailing length
  const std::size_t block2 = blob.size();
  put32(0x00000006);   // EPB type
  put32(0xFFFFFFF0u);  // absurd total length

  std::stringstream in(blob);
  try {
    pcap::read_stream(in);
    FAIL() << "read_stream must reject the absurd block length";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("block 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset " + std::to_string(block2)), std::string::npos)
        << msg;
  }
}

// ---------------------------------------------------------------------------
// MemoryBudget ledger and chunk RAII accounting.
// ---------------------------------------------------------------------------

TEST(MemoryBudget, LedgerTracksChargesReleasesAndHighWater) {
  util::MemoryBudget budget(1000);
  EXPECT_FALSE(budget.unlimited());
  EXPECT_FALSE(budget.over_budget());
  budget.charge(600);
  EXPECT_EQ(budget.resident(), 600u);
  budget.charge(600);
  EXPECT_TRUE(budget.over_budget());
  EXPECT_EQ(budget.high_water(), 1200u);
  budget.release(700);
  EXPECT_EQ(budget.resident(), 500u);
  EXPECT_FALSE(budget.over_budget());
  // Over-release clamps to zero instead of wrapping.
  budget.release(10'000);
  EXPECT_EQ(budget.resident(), 0u);
  EXPECT_EQ(budget.high_water(), 1200u);

  util::MemoryBudget unlimited;
  EXPECT_TRUE(unlimited.unlimited());
  unlimited.charge(std::size_t{1} << 40);
  EXPECT_FALSE(unlimited.over_budget());  // tracked, never enforced
  EXPECT_EQ(unlimited.resident(), std::size_t{1} << 40);
}

TEST(MemoryBudget, TraceChunkChargesAreRaii) {
  const std::size_t chunk_bytes = 16 * sizeof(net::CapturedPacket);
  util::MemoryBudget budget(1 << 20);
  {
    net::TraceChunk chunk(16, &budget);
    EXPECT_EQ(budget.resident(), chunk_bytes);
    // Moving transfers the charge; it is never doubled or dropped.
    net::TraceChunk moved = std::move(chunk);
    EXPECT_EQ(budget.resident(), chunk_bytes);
  }
  EXPECT_EQ(budget.resident(), 0u);
  EXPECT_EQ(budget.high_water(), chunk_bytes);
}

// ---------------------------------------------------------------------------
// Budget enforcement: bounded, deterministic, and surfaced in stats.
// ---------------------------------------------------------------------------

TEST(BudgetEnforcement, EvictionKeepsResidencyBoundedAndIsDeterministic) {
  // Many interleaved small flows, analyzed under a budget far smaller than
  // the trace: the pipeline must evict (not grow), keep the ledger under
  // the cap, and produce the identical result on a second run.
  net::PacketTrace trace;
  {
    Rng master(501);
    const auto profile = workload::web_search_profile();
    for (int f = 0; f < 24; ++f) {
      Rng flow_rng = master.split();
      const auto scenario = workload::draw_scenario(
          profile, flow_rng, static_cast<std::uint64_t>(f + 1));
      auto outcome = workload::run_flow(scenario, flow_rng.split(),
                                        Duration::seconds(600.0),
                                        workload::TraceCapture::kServerNic);
      ASSERT_TRUE(outcome.trace.has_value());
      for (const auto& p : outcome.trace->packets()) trace.add(p);
    }
    trace.sort_by_time();
  }
  const std::size_t trace_bytes = trace.size() * sizeof(net::CapturedPacket);
  const std::size_t limit = trace_bytes / 4;
  ASSERT_GT(limit, 16u * sizeof(net::CapturedPacket));

  auto run_once = [&](LiveStats* stats) {
    util::MemoryBudget budget(limit);
    AnalysisResult r = analyze_via_streaming_pipeline(
        trace, /*chunk_packets=*/64, &budget, stats);
    EXPECT_LE(budget.high_water(), limit)
        << "ledger peak must stay under the configured cap";
    EXPECT_EQ(budget.resident(), 0u) << "everything released at flush";
    return r;
  };

  LiveStats s1, s2;
  const AnalysisResult first = run_once(&s1);
  const AnalysisResult second = run_once(&s2);
  EXPECT_GT(s1.budget_evictions, 0u) << "undersized budget must evict";
  EXPECT_EQ(s1.budget_evictions, s2.budget_evictions);
  EXPECT_EQ(s1.flows_finalized, s2.flows_finalized);
  expect_same_result(first, second);
  // Evicted-and-restarted flows still surface: nothing silently vanishes.
  EXPECT_GE(first.flows.size(), 24u);
}

TEST(BudgetEnforcement, UnlimitedBudgetChangesNothing) {
  const Analyzer analyzer;
  const net::PacketTrace trace =
      merged_trace(workload::software_download_profile(), /*seed=*/31, 3);
  ASSERT_GT(trace.size(), 0u);
  std::stringstream bytes;
  pcap::write_stream(bytes, trace);
  const net::PacketTrace reread = pcap::read_stream(bytes);
  const AnalysisResult batch = analyzer.analyze(reread);

  util::MemoryBudget budget;  // limit 0 = unlimited, still tracked
  LiveStats stats;
  const AnalysisResult streamed = analyze_via_streaming_pipeline(
      trace, /*chunk_packets=*/64, &budget, &stats);
  EXPECT_EQ(stats.budget_evictions, 0u);
  EXPECT_GT(budget.high_water(), 0u);
  EXPECT_EQ(budget.resident(), 0u);
  expect_same_result(streamed, batch);
}

// ---------------------------------------------------------------------------
// The push-based live entry: a flow's footprint is its segments and stall
// candidates, and packets are buffered only until a SYN-ACK settles the
// flow's orientation.
// ---------------------------------------------------------------------------

/// One simulated flow's server-NIC capture.
net::PacketTrace one_flow(const workload::ServiceProfile& profile,
                          std::uint64_t seed, std::uint64_t index) {
  Rng flow_rng(seed);
  const auto scenario = workload::draw_scenario(profile, flow_rng, index);
  auto outcome =
      workload::run_flow(scenario, flow_rng.split(), Duration::seconds(600.0),
                         workload::TraceCapture::kServerNic);
  return std::move(*outcome.trace);
}

/// Feeds `packets` through an unbounded LiveAnalyzer and returns the one
/// flow it finalizes; `after_each` sees the stats after every packet.
template <typename AfterEach>
FlowAnalysis live_one_flow(std::span<const net::CapturedPacket> packets,
                           util::MemoryBudget* budget, AfterEach after_each) {
  std::vector<FlowAnalysis> done;
  LiveAnalyzer live(LiveConfig{}.with_mem_budget(budget),
                    [&done](FlowAnalysis&& fa) { done.push_back(fa); });
  for (const net::CapturedPacket& p : packets) {
    live.add_packet(p);
    after_each(live.stats());
  }
  live.flush();
  EXPECT_EQ(live.stats().pending_packets, 0u);
  EXPECT_EQ(done.size(), 1u);
  return done.empty() ? FlowAnalysis{} : std::move(done.front());
}

TEST(StreamingMimic, LedgerChargeIsPerSegmentNotPerPacket) {
  // A bulk cloud-storage flow: holding its packets would charge at least
  // sizeof(CapturedPacket) = 104 B each; the mimic holds segments only.
  net::PacketTrace trace;
  for (std::uint64_t i = 0; i < 40 && trace.size() < 2000; ++i) {
    trace = one_flow(workload::cloud_storage_profile(), 2015 + i, i);
  }
  ASSERT_GE(trace.size(), 2000u);
  util::MemoryBudget budget;  // unlimited: tracked, never enforced
  std::size_t peak_pending = 0;
  const FlowAnalysis fa = live_one_flow(
      trace.packets(), &budget, [&peak_pending](const LiveStats& s) {
        peak_pending = std::max(peak_pending, s.pending_packets);
      });
  EXPECT_GT(fa.data_segments, 1000u);
  EXPECT_LE(peak_pending, 1u) << "only the SYN waits for the SYN-ACK";
  const double per_packet = static_cast<double>(budget.high_water()) /
                            static_cast<double>(trace.size());
  EXPECT_LT(per_packet, 96.0) << "ledger high-water " << budget.high_water()
                              << " B over " << trace.size() << " packets";
  EXPECT_EQ(budget.resident(), 0u);
}

TEST(StreamingMimic, SynAckAfterClientPacketsSettlesAndMatchesWholeFlow) {
  // Capture reordering puts the client's SYN and first ACK ahead of the
  // SYN-ACK: those two wait, the SYN-ACK settles the flow, and the result
  // equals the analysis of the whole flow oriented at once.
  net::PacketTrace base = one_flow(workload::web_search_profile(), 41, 3);
  ASSERT_GT(base.size(), 4u);
  ASSERT_TRUE(base[1].tcp.flags.syn && base[1].tcp.flags.ack);
  ASSERT_FALSE(base[2].tcp.flags.syn);
  net::PacketTrace trace;
  trace.add(base[0]);
  trace.add(base[2]);
  trace.add(base[1]);
  for (std::size_t i = 3; i < base.size(); ++i) trace.add(base[i]);

  std::vector<std::size_t> pending;
  const FlowAnalysis live = live_one_flow(
      trace.packets(), nullptr,
      [&pending](const LiveStats& s) { pending.push_back(s.pending_packets); });
  ASSERT_GE(pending.size(), 3u);
  EXPECT_EQ(pending[0], 1u);
  EXPECT_EQ(pending[1], 2u);
  EXPECT_EQ(*std::max_element(pending.begin(), pending.end()), 2u);
  EXPECT_EQ(pending[2], 0u) << "the SYN-ACK settles the flow";
  expect_same_analysis(
      live, Analyzer{}.analyze_flow(make_flow_view(trace.packets())));
}

TEST(StreamingMimic, MidStreamFlowSettlesOnlyAtFinalize) {
  // A rotated capture without the handshake never shows a SYN-ACK: the
  // entry keeps its packets and is oriented by payload at finalize, with
  // the mid-stream capture-quality verdict and no stall invented at the
  // synthetic stream head.
  const net::PacketTrace pristine =
      one_flow(workload::software_download_profile(), 2015, 1);
  const net::PacketTrace rotated = sim::apply_impairments(
      pristine, sim::CaptureImpairments{}.with_mid_stream_start(3));
  ASSERT_GT(rotated.size(), 10u);
  std::size_t last_pending = 0;
  const FlowAnalysis fa = live_one_flow(
      rotated.packets(), nullptr,
      [&last_pending](const LiveStats& s) { last_pending = s.pending_packets; });
  EXPECT_EQ(last_pending, rotated.size()) << "never settled before flush";
  expect_same_analysis(
      fa, Analyzer{}.analyze_flow(make_flow_view(rotated.packets())));
  EXPECT_TRUE(fa.capture.mid_stream);
  EXPECT_TRUE(fa.capture.degraded());
  EXPECT_EQ(fa.capture.seq_gaps, 0u);
  EXPECT_DOUBLE_EQ(fa.capture.confidence, 0.5);
  const auto data_unavailable = [](const FlowAnalysis& a) {
    return std::count_if(a.stalls.begin(), a.stalls.end(),
                         [](const StallRecord& s) {
                           return s.cause == StallCause::kDataUnavailable;
                         });
  };
  const FlowAnalysis whole = Analyzer{}.analyze(pristine).flows.at(0);
  EXPECT_LE(data_unavailable(fa), data_unavailable(whole));
  for (const StallRecord& s : fa.stalls) {
    EXPECT_GE(s.start, rotated[0].timestamp);
    EXPECT_LE(s.end, rotated[rotated.size() - 1].timestamp);
  }
}

TEST(StreamingMimic, FirstSynAckSenderIsTheServer) {
  // SYN-ACKs from both endpoints (a simultaneous open, or a confused
  // middlebox): the first SYN-ACK's sender is the server, even though the
  // other endpoint sends a SYN-ACK later and more payload.
  const net::FlowKey a_to_b{10, 20, 1111, 2222};
  const auto pkt = [](std::int64_t us, const net::FlowKey& key, bool syn,
                      std::uint32_t seq, std::uint32_t payload) {
    net::CapturedPacket p;
    p.timestamp = TimePoint::from_us(us);
    p.key = key;
    p.tcp.flags.syn = syn;
    p.tcp.flags.ack = true;
    p.tcp.seq = net::Seq32{seq};
    p.payload_len = payload;
    return p;
  };
  net::PacketTrace trace;
  trace.add(pkt(1, a_to_b.reversed(), true, 500, 0));  // B's SYN-ACK first
  trace.add(pkt(2, a_to_b, true, 900, 0));             // then A's
  trace.add(pkt(3, a_to_b, false, 901, 4000));
  trace.add(pkt(4, a_to_b.reversed(), false, 501, 100));
  EXPECT_EQ(make_flow_view(trace.packets()).server_to_client,
            a_to_b.reversed());
  const FlowAnalysis fa =
      live_one_flow(trace.packets(), nullptr, [](const LiveStats& s) {
        EXPECT_EQ(s.pending_packets, 0u);
      });
  EXPECT_EQ(fa.key, a_to_b.reversed());
  EXPECT_EQ(fa.data_segments, 1u);  // B's 100 bytes; A's are client data
  EXPECT_EQ(fa.unique_bytes, 100u);
}

}  // namespace
}  // namespace tapo::analysis
