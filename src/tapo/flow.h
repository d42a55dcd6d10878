// Flow reconstruction: orients one connection's server-side packets
// server->client and extracts the handshake parameters TAPO's classifier
// needs (MSS, SACK permission, window scale, initial receive window —
// Table 2's "receiver side" category).
//
// The live flow table (tapo/live.h) is the only demux: it keys each
// packet by its canonical 4-tuple and keeps every connection's packets in
// an arena of their own. make_flow_view turns one such arena into the one
// flow representation the analyzer reads — FlowMeta plus a borrowed span
// of the packets, in capture order. Nothing per packet is copied.
//
// View lifetime rule: a FlowView borrows its packets; it is valid until
// the arena behind the span is mutated or destroyed.
#pragma once

#include <cstdint>
#include <span>

#include "net/trace.h"

namespace tapo::analysis {

/// Flow-level handshake/transfer facts, extracted once per connection.
struct FlowMeta {
  net::FlowKey server_to_client;  // orientation key (server is src)

  bool saw_syn = false;
  bool saw_synack = false;
  bool saw_fin = false;

  net::Seq32 client_isn;
  net::Seq32 server_isn;
  std::uint16_t mss = 1448;
  bool sack_permitted = false;
  std::uint8_t client_wscale = 0;
  /// Window advertised by the client in its SYN (unscaled, bytes).
  std::uint32_t syn_window = 0;
  /// First data-phase window from the client, scaled (bytes). This is the
  /// "initial rwnd" the paper studies (Fig. 6 / Table 4); falls back to
  /// syn_window when the client never sent a data-phase ACK.
  std::uint32_t init_rwnd_bytes = 0;

  std::uint64_t server_payload_bytes = 0;  // sum over packets (incl. retrans)
  std::uint64_t client_payload_bytes = 0;
  std::size_t client_packets = 0;  // bounds the mimic's per-ACK samples

  /// Capture started mid-connection: no SYN or SYN-ACK was observed but
  /// server data was (rotated captures, mid-stream taps). The mimic then
  /// seeds its sequence state from first_server_data_seq instead of the
  /// (never seen) ISN and records the degradation in CaptureQuality.
  bool mid_stream = false;
  bool saw_server_data = false;
  /// Sequence number of the first server data packet in capture order
  /// (valid when saw_server_data).
  net::Seq32 first_server_data_seq;
};

/// One connection: its meta plus a borrowed span of its packets in capture
/// order. A packet is from the server when its key equals server_to_client.
struct FlowView : FlowMeta {
  std::span<const net::CapturedPacket> packets;
};

struct DemuxOptions {
  /// The server's port; 0 auto-detects (the endpoint that sent a SYN-ACK,
  /// falling back to the endpoint with more payload bytes).
  std::uint16_t server_port = 0;

  // Fluent construction (aggregate-init keeps working).
  DemuxOptions& with_server_port(std::uint16_t port);
};

/// Orients `packets` — every packet of ONE connection, in capture order —
/// and extracts the flow meta. Two linear passes: orientation tallies,
/// then the per-packet meta fold. An empty span yields a default view.
FlowView make_flow_view(std::span<const net::CapturedPacket> packets,
                        const DemuxOptions& opts = {});

}  // namespace tapo::analysis
