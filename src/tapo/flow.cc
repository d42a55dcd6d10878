#include "tapo/flow.h"

namespace tapo::analysis {
namespace {

// The server->client key under a pinned server port.
net::FlowKey server_by_port(const net::FlowKey& canon, std::uint16_t port) {
  return canon.src_port == port ? canon : canon.reversed();
}

}  // namespace

void fold_meta(FlowMeta& m, const net::CapturedPacket& cp) {
  const bool from_server = cp.key == m.server_to_client;
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

bool settles_orientation(const net::CapturedPacket& cp,
                         const DemuxOptions& opts) {
  if (!cp.tcp.flags.syn || !cp.tcp.flags.ack) return false;
  return opts.server_port == 0 ||
         cp.key == server_by_port(cp.key.canonical(), opts.server_port);
}

DemuxOptions& DemuxOptions::with_server_port(std::uint16_t port) {
  server_port = port;
  return *this;
}

FlowView make_flow_view(std::span<const net::CapturedPacket> packets,
                        const DemuxOptions& opts) {
  FlowView view;
  view.packets = packets;
  if (packets.empty()) return view;

  // Pass 1: orientation evidence — the first SYN-ACK's sender, and the
  // payload per endpoint, keyed by "is the packet's src the canonical
  // key's src".
  const net::FlowKey canon = packets.front().key.canonical();
  const net::CapturedPacket* synack = nullptr;
  std::uint64_t payload_a = 0, payload_b = 0;
  for (const net::CapturedPacket& cp : packets) {
    if (synack == nullptr && settles_orientation(cp, opts)) synack = &cp;
    (cp.key == canon ? payload_a : payload_b) += cp.payload_len;
  }
  if (opts.server_port != 0) {
    view.server_to_client = server_by_port(canon, opts.server_port);
  } else if (synack != nullptr) {
    view.server_to_client = synack->key;
  } else {
    view.server_to_client = payload_a >= payload_b ? canon : canon.reversed();
  }

  // Pass 2: the handshake/transfer meta.
  for (const net::CapturedPacket& cp : packets) fold_meta(view, cp);
  if (view.init_rwnd_bytes == 0) view.init_rwnd_bytes = view.syn_window;
  view.mid_stream = !view.saw_syn && !view.saw_synack && view.saw_server_data;
  return view;
}

}  // namespace tapo::analysis
