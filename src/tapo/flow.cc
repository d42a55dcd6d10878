#include "tapo/flow.h"

namespace tapo::analysis {
namespace {

// Folds one packet's header facts into the flow meta. Orientation-only:
// the caller decides from_server.
void fold_meta(FlowMeta& m, const net::CapturedPacket& cp, bool from_server) {
  const net::TcpHeader& tcp = cp.tcp;
  if (tcp.flags.syn && !tcp.flags.ack && !from_server) {
    m.saw_syn = true;
    m.client_isn = tcp.seq;
    m.syn_window = tcp.window;
    if (tcp.mss) m.mss = *tcp.mss;
    m.sack_permitted = tcp.sack_permitted;
    m.client_wscale = tcp.window_scale.value_or(0);
  } else if (tcp.flags.syn && tcp.flags.ack && from_server) {
    m.saw_synack = true;
    m.server_isn = tcp.seq;
  } else if (!from_server && m.init_rwnd_bytes == 0 && m.saw_synack &&
             tcp.flags.ack && !tcp.flags.syn) {
    m.init_rwnd_bytes = static_cast<std::uint32_t>(tcp.window)
                        << m.client_wscale;
  }
  if (tcp.flags.fin) m.saw_fin = true;
  if (from_server) {
    m.server_payload_bytes += cp.payload_len;
    if (cp.payload_len > 0 && !m.saw_server_data) {
      m.saw_server_data = true;
      m.first_server_data_seq = tcp.seq;
    }
  } else {
    m.client_payload_bytes += cp.payload_len;
  }
}

}  // namespace

DemuxOptions& DemuxOptions::with_server_port(std::uint16_t port) {
  server_port = port;
  return *this;
}

FlowView make_flow_view(std::span<const net::CapturedPacket> packets,
                        const DemuxOptions& opts) {
  FlowView view;
  view.packets = packets;
  if (packets.empty()) return view;

  // Pass 1: orientation evidence per endpoint, keyed by "is the packet's
  // src the canonical key's src".
  const net::FlowKey canon = packets.front().key.canonical();
  std::uint64_t payload_a = 0, payload_b = 0;
  std::size_t packets_a = 0;
  bool synack_from_a = false, synack_from_b = false;
  for (const net::CapturedPacket& cp : packets) {
    const bool synack = cp.tcp.flags.syn && cp.tcp.flags.ack;
    if (cp.key == canon) {
      ++packets_a;
      payload_a += cp.payload_len;
      synack_from_a |= synack;
    } else {
      payload_b += cp.payload_len;
      synack_from_b |= synack;
    }
  }
  bool server_is_a;
  if (opts.server_port != 0) {
    server_is_a = canon.src_port == opts.server_port;
  } else if (synack_from_a != synack_from_b) {
    server_is_a = synack_from_a;
  } else {
    server_is_a = payload_a >= payload_b;
  }
  view.server_to_client = server_is_a ? canon : canon.reversed();
  view.client_packets = server_is_a ? packets.size() - packets_a : packets_a;

  // Pass 2: the handshake/transfer meta.
  for (const net::CapturedPacket& cp : packets) {
    fold_meta(view, cp, cp.key == view.server_to_client);
  }
  if (view.init_rwnd_bytes == 0) view.init_rwnd_bytes = view.syn_window;
  view.mid_stream = !view.saw_syn && !view.saw_synack && view.saw_server_data;
  return view;
}

}  // namespace tapo::analysis
