// Flow reconstruction: orients one connection's server-side packets
// server->client and extracts the handshake parameters TAPO's classifier
// needs (MSS, SACK permission, window scale, initial receive window —
// Table 2's "receiver side" category).
//
// The live flow table (tapo/live.h) is the only demux: it keys each
// packet by its canonical 4-tuple. It learns a connection's orientation
// from the first SYN-ACK (settles_orientation) and from then on folds each
// packet's meta as it arrives (fold_meta). A connection that never shows
// one is oriented at its end by make_flow_view, over its packets in
// capture order: FlowMeta plus a borrowed span of the packets.
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
  /// "initial rwnd" the paper studies (Fig. 6 / Table 4); make_flow_view
  /// and the analysis fall back to syn_window when the client never sent a
  /// data-phase ACK.
  std::uint32_t init_rwnd_bytes = 0;

  std::uint64_t server_payload_bytes = 0;  // sum over packets (incl. retrans)
  std::uint64_t client_payload_bytes = 0;

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
  /// The server's port; 0 auto-detects (the endpoint that sent the first
  /// SYN-ACK, falling back to the endpoint with more payload bytes).
  std::uint16_t server_port = 0;

  // Fluent construction (aggregate-init keeps working).
  DemuxOptions& with_server_port(std::uint16_t port);
};

/// Folds one packet's handshake/transfer facts into `m`; the packet is from
/// the server when its key equals m.server_to_client.
void fold_meta(FlowMeta& m, const net::CapturedPacket& cp);

/// True when `cp` settles its connection's orientation and server ISN
/// without look-ahead: a SYN-ACK, from the server port when the options
/// pin one. Its sender is the server, even if the other endpoint sends a
/// SYN-ACK later.
bool settles_orientation(const net::CapturedPacket& cp,
                         const DemuxOptions& opts);

/// Orients `packets` — every packet of ONE connection, in capture order —
/// and extracts the flow meta. Two linear passes: orientation (the server
/// port, else the first SYN-ACK's sender, else the endpoint with more
/// payload bytes), then the per-packet meta fold. An empty span yields a
/// default view.
FlowView make_flow_view(std::span<const net::CapturedPacket> packets,
                        const DemuxOptions& opts = {});

}  // namespace tapo::analysis
