#include "tapo/live.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.h"

namespace tapo::analysis {

LiveConfig& LiveConfig::with_analyzer(const AnalyzerConfig& a) {
  return set_validated(*this, [&a](LiveConfig& c) { c.analyzer = a; });
}

LiveConfig& LiveConfig::with_demux(const DemuxOptions& d) {
  demux = d;
  return *this;
}

LiveConfig& LiveConfig::with_idle_timeout(Duration d) {
  return set_validated(*this, [d](LiveConfig& c) { c.idle_timeout = d; });
}

LiveConfig& LiveConfig::with_fin_linger(Duration d) {
  return set_validated(*this, [d](LiveConfig& c) { c.fin_linger = d; });
}

LiveConfig& LiveConfig::with_max_flows(std::size_t n) {
  return set_validated(*this, [n](LiveConfig& c) { c.max_flows = n; });
}

LiveConfig& LiveConfig::with_max_packets_per_flow(std::size_t n) {
  return set_validated(*this,
                       [n](LiveConfig& c) { c.max_packets_per_flow = n; });
}

LiveConfig& LiveConfig::with_mem_budget(util::MemoryBudget* b) {
  mem_budget = b;
  return *this;
}

void LiveConfig::validate() const {
  analyzer.validate();
  if (idle_timeout <= Duration::zero()) {
    throw std::invalid_argument(
        "LiveConfig: idle_timeout must be > 0 (flows would finalize on "
        "every packet)");
  }
  if (fin_linger < Duration::zero()) {
    throw std::invalid_argument("LiveConfig: fin_linger must be >= 0");
  }
  if (max_flows == 0) {
    throw std::invalid_argument(
        "LiveConfig: max_flows must be > 0 (the table could hold nothing)");
  }
  if (max_packets_per_flow <= 1) {
    throw std::invalid_argument(
        "LiveConfig: max_packets_per_flow must be > 1 (every flow would be "
        "truncated on arrival)");
  }
}

namespace {

void count_flow_event(const char* which) {
  if (!telemetry::metrics_enabled()) return;
  static auto& finalized = telemetry::Registry::instance().counter(
      "tapo_live_flows_finalized_total");
  static auto& evicted =
      telemetry::Registry::instance().counter("tapo_live_flows_evicted_total");
  static auto& truncated = telemetry::Registry::instance().counter(
      "tapo_live_flows_truncated_total");
  static auto& budget = telemetry::Registry::instance().counter(
      "tapo_live_flows_budget_evicted_total");
  switch (which[0]) {
    case 'f': finalized.add(1); break;
    case 'e': evicted.add(1); break;
    case 't': truncated.add(1); break;
    case 'b': budget.add(1); break;
  }
}

}  // namespace

LiveAnalyzer::LiveAnalyzer(LiveConfig config, FlowDoneFn on_flow_done)
    : config_(config),
      on_flow_done_(std::move(on_flow_done)),
      analyzer_(config.analyzer) {
  config_.validate();
}

LiveAnalyzer::LiveAnalyzer(LiveConfig config, FlowSink& sink)
    : config_(config), sink_(&sink), analyzer_(config.analyzer) {
  config_.validate();
}

LiveAnalyzer::FlowTable::iterator LiveAnalyzer::start_entry(
    const net::FlowKey& key) {
  const auto it = flows_.try_emplace(key).first;
  it->second.ordinal = next_entry_ordinal_++;
  lru_.push_back(key);
  it->second.lru_it = std::prev(lru_.end());
  return it;
}

void LiveAnalyzer::ingest(Entry& entry, const net::CapturedPacket& pkt) {
  ++entry.packets;
  if (entry.mimic) {
    fold_meta(entry.mimic->meta(), pkt);
    entry.mimic->push(pkt);
    return;
  }
  if (!settles_orientation(pkt, config_.demux)) {
    entry.pending.add(pkt);
    ++stats_.pending_packets;
    return;
  }
  // The SYN-ACK's sender is the server: fold the meta of everything seen so
  // far, seed the mimic from it, replay the pending packets and free them.
  FlowMeta meta;
  meta.server_to_client = pkt.key;
  for (const net::CapturedPacket& cp : entry.pending.packets()) {
    fold_meta(meta, cp);
  }
  fold_meta(meta, pkt);
  entry.mimic.emplace(meta, analyzer_.config());
  for (const net::CapturedPacket& cp : entry.pending.packets()) {
    entry.mimic->push(cp);
  }
  entry.mimic->push(pkt);
  stats_.pending_packets -= entry.pending.size();
  entry.pending = net::PacketTrace{};
}

void LiveAnalyzer::finalize(const net::FlowKey& key) {
  auto it = flows_.find(key);
  if (it == flows_.end()) return;
  Entry entry = std::move(it->second);
  lru_.erase(entry.lru_it);
  flows_.erase(it);
  ++stats_.flows_finalized;
  TAPO_TRACE(telemetry::EventKind::kFlowFinalize,
             entry.last_activity.us(), entry.packets, flows_.size());
  count_flow_event("finalize");
  set_active_flows(flows_.size());
  stats_.pending_packets -= entry.pending.size();
  // A flow that never settled is oriented now, over all its packets, and
  // goes through the same push fold.
  FlowAnalysis fa = entry.mimic ? entry.mimic->finish()
                                : analyzer_.analyze_flow(make_flow_view(
                                      entry.pending.packets(), config_.demux));
  delivering_ordinal_ = entry.ordinal;
  if (on_flow_done_) {
    on_flow_done_(std::move(fa));
  } else if (sink_ != nullptr) {
    FlowResult fr;
    fr.index = sink_ordinal_++;
    fr.packets = entry.packets;
    fr.analyses.push_back(std::move(fa));
    sink_->consume(std::move(fr));
  }
  if (config_.mem_budget != nullptr && entry.charged_bytes != 0) {
    config_.mem_budget->release(entry.charged_bytes);
    stats_.flow_bytes -= entry.charged_bytes;
    update_resident_gauge();
  }
}

void LiveAnalyzer::recharge(Entry& entry) {
  if (config_.mem_budget == nullptr) return;
  const std::size_t want =
      entry.pending.capacity_bytes() +
      (entry.mimic ? entry.mimic->capacity_bytes() : 0) + kFlowOverheadBytes;
  if (want > entry.charged_bytes) {
    config_.mem_budget->charge(want - entry.charged_bytes);
  } else {
    config_.mem_budget->release(entry.charged_bytes - want);
  }
  stats_.flow_bytes = stats_.flow_bytes - entry.charged_bytes + want;
  entry.charged_bytes = want;
}

std::size_t LiveAnalyzer::soft_limit() const {
  // Evict down to half the cap, not the cap itself: the headroom absorbs
  // what lives outside the ledger (allocator slack, a never-settled flow's
  // orientation pass, the analyses handed to the callback). This is what
  // keeps the allocator-measured process peak, not just the ledger, under
  // the cap (bench/streaming_scale gates exactly that).
  return config_.mem_budget->limit() / 2;
}

std::size_t LiveAnalyzer::max_flow_bytes() const {
  // One flow may hold at most half the soft limit.
  return config_.mem_budget->limit() / 4;
}

void LiveAnalyzer::evict_for(std::size_t incoming, const net::FlowKey* keep) {
  util::MemoryBudget* budget = config_.mem_budget;
  if (budget == nullptr || budget->unlimited()) return;
  const std::size_t soft = soft_limit();
  while (budget->resident() + incoming > soft && !lru_.empty()) {
    if (keep != nullptr && lru_.front() == *keep) break;
    const std::size_t before = budget->resident();
    ++stats_.budget_evictions;
    TAPO_TRACE(telemetry::EventKind::kFlowEvict, 0, budget->resident(),
               budget->limit());
    count_flow_event("budget");
    finalize(lru_.front());
    if (budget->resident() >= before) break;  // other stages hold the rest
  }
}

void LiveAnalyzer::set_active_flows(std::size_t n) {
  stats_.active_flows = n;
  stats_.peak_active_flows = std::max(stats_.peak_active_flows, n);
}

void LiveAnalyzer::update_resident_gauge() {
  if (!telemetry::metrics_enabled() || config_.mem_budget == nullptr) return;
  static auto& resident =
      telemetry::Registry::instance().gauge("tapo_pipeline_resident_bytes");
  resident.set(static_cast<double>(config_.mem_budget->resident()));
}

void LiveAnalyzer::reap(TimePoint now) {
  // Finalize idle / lingering-after-FIN flows from the LRU front.
  while (!lru_.empty()) {
    const net::FlowKey key = lru_.front();
    const auto it = flows_.find(key);
    if (it == flows_.end()) {
      lru_.pop_front();
      continue;
    }
    const Entry& e = it->second;
    const Duration idle = now - e.last_activity;
    const bool idle_out = idle >= config_.idle_timeout;
    const bool fin_out = e.fin_seen && idle >= config_.fin_linger;
    if (!idle_out && !fin_out) break;  // LRU front is freshest of the stale
    finalize(key);
  }
}

void LiveAnalyzer::add_packet(const net::CapturedPacket& pkt) {
  ++stats_.packets;
  const net::FlowKey key = pkt.key.canonical();

  auto it = flows_.find(key);
  if (it == flows_.end()) {
    ++stats_.flows_started;
    it = start_entry(key);
  } else {
    // Move to the back of the LRU: relinks the node, so `lru_it` stays
    // valid and nothing is freed or allocated.
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
  }

  // Make room for the projected growth BEFORE ingest() allocates it —
  // evicting afterwards could not undo the peak. Other entries may be
  // finalized here; unordered_map erasure leaves `it` valid, and `key`
  // itself (just moved to the LRU back) is pinned.
  if (config_.mem_budget != nullptr && !config_.mem_budget->unlimited()) {
    const Entry& e = it->second;
    const std::size_t want =
        (e.mimic ? e.mimic->capacity_bytes(/*after_push=*/true)
                 : e.pending.capacity_bytes_after_append()) +
        kFlowOverheadBytes;
    if (want > e.charged_bytes) {
      const std::size_t delta = want - e.charged_bytes;
      const bool outgrows = want > max_flow_bytes();
      if (!outgrows) evict_for(delta, &key);
      // Past the per-flow cap, or still no room with every other flow
      // gone: this one flow outgrows the budget on its own. Analyze what
      // we have and restart the window, exactly like the
      // max_packets_per_flow truncation path.
      if ((outgrows ||
           config_.mem_budget->resident() + delta > soft_limit()) &&
          e.packets != 0) {
        ++stats_.budget_evictions;
        count_flow_event("budget");
        finalize(key);  // invalidates `it`
        it = start_entry(key);
      }
    }
  }

  Entry& entry = it->second;
  ingest(entry, pkt);
  entry.last_activity = pkt.timestamp;
  if (pkt.tcp.flags.fin) entry.fin_seen = true;
  recharge(entry);

  if (entry.packets >= config_.max_packets_per_flow) {
    // Long-lived elephant: analyze what we have and restart the window.
    ++stats_.truncated_flows;
    TAPO_TRACE(telemetry::EventKind::kFlowTruncate, pkt.timestamp.us(),
               entry.packets, flows_.size());
    count_flow_event("truncate");
    finalize(key);
  }

  reap(pkt.timestamp);

  // Table-full eviction: kick the least recently active flow.
  while (flows_.size() > config_.max_flows && !lru_.empty()) {
    ++stats_.flows_evicted;
    TAPO_TRACE(telemetry::EventKind::kFlowEvict, pkt.timestamp.us(),
               flows_.size(), config_.max_flows);
    count_flow_event("evict");
    finalize(lru_.front());
  }
  evict_over_budget();
  set_active_flows(flows_.size());
  update_resident_gauge();
}

void LiveAnalyzer::add_chunk(const net::TraceChunk& chunk) {
  for (const net::CapturedPacket& pkt : chunk.packets()) add_packet(pkt);
}

void LiveAnalyzer::flush() {
  while (!lru_.empty()) finalize(lru_.front());
  set_active_flows(0);
  if (sink_ != nullptr) {
    RunStats rs;
    rs.flows = sink_ordinal_;
    rs.threads = 1;
    sink_->finish(rs);
  }
}

}  // namespace tapo::analysis
