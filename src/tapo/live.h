// Streaming TAPO: continuous analysis of a live packet feed.
//
// The paper's TAPO ran offline on daily traces but was "integrated into the
// TCP analysis platform for daily maintenance of the network" (§3.3). This
// is that integration surface: packets are fed one at a time (e.g. from a
// capture socket), flows are tracked in a bounded-memory table, and each
// flow is analyzed with the full offline fidelity when it finishes (FIN
// observed + quiescent) or idles out.
//
// Memory bounds: at most `max_flows` concurrent flows (least-recently-
// active evicted first) and at most `max_packets_per_flow` buffered packets
// per flow (flows exceeding it are analyzed and restarted, counted in
// `truncated_flows`). With a util::MemoryBudget attached the bound becomes
// byte-accurate: every buffered flow charges its arena footprint against
// the shared pipeline ledger, and crossing the soft limit finalizes flows
// from the LRU front instead of letting residency grow toward OOM.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>

#include "net/chunk.h"
#include "tapo/analyzer.h"
#include "tapo/sink.h"
#include "util/memory_budget.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tapo::analysis {

struct LiveConfig {
  AnalyzerConfig analyzer;
  DemuxOptions demux;
  /// A flow with no packet for this long is finished and analyzed.
  Duration idle_timeout = Duration::seconds(60.0);
  /// A flow whose FIN (both-direction quiescence) is this old is finalized.
  Duration fin_linger = Duration::seconds(3.0);
  std::size_t max_flows = 100'000;
  std::size_t max_packets_per_flow = 200'000;
  /// Optional shared pipeline ledger (non-owning; must outlive the
  /// analyzer). When set and limited, every buffered flow charges its
  /// arena footprint plus a fixed per-flow overhead; once residency
  /// crosses the soft limit (half the cap) the least-recently-active
  /// flows are analyzed-and-dropped until back under it, and a single
  /// flow that would grow past a quarter of the cap, or outgrows the
  /// budget alone, is analyzed-and-restarted like the
  /// max_packets_per_flow truncation path. An evicted flow that keeps
  /// sending restarts mid-stream, which the classifier already surfaces
  /// as capture-suspect rather than inventing a stall cause. The
  /// half-budget headroom keeps the *peak* (which includes the
  /// finalize-time transient of the flow being analyzed, bounded by the
  /// per-flow quarter) under the configured cap, not just the steady
  /// state.
  util::MemoryBudget* mem_budget = nullptr;

  // Fluent construction (aggregate-init keeps working); setters validate
  // eagerly and throw std::invalid_argument, mirroring ExperimentConfig.
  LiveConfig& with_analyzer(const AnalyzerConfig& a);
  LiveConfig& with_demux(const DemuxOptions& d);
  LiveConfig& with_idle_timeout(Duration d);   // > 0
  LiveConfig& with_fin_linger(Duration d);     // >= 0
  LiveConfig& with_max_flows(std::size_t n);   // > 0
  LiveConfig& with_max_packets_per_flow(std::size_t n);  // > 1
  LiveConfig& with_mem_budget(util::MemoryBudget* b);    // nullptr detaches

  /// Throws std::invalid_argument on any unusable field (non-positive
  /// idle_timeout, zero max_flows, ...). Called by the LiveAnalyzer
  /// constructors, plus the nested analyzer validation.
  void validate() const;
};

struct LiveStats {
  std::uint64_t packets = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_finalized = 0;
  std::uint64_t flows_evicted = 0;    // table-full evictions
  std::uint64_t truncated_flows = 0;  // per-flow packet cap hit
  std::uint64_t budget_evictions = 0; // mem-budget soft-limit evictions
  std::size_t active_flows = 0;
  /// Bytes currently charged by this analyzer's flow table (subset of the
  /// shared budget's resident() when other stages charge the same ledger).
  std::size_t flow_bytes = 0;
};

class LiveAnalyzer {
 public:
  /// Called with the completed analysis whenever a flow is finalized.
  using FlowDoneFn = std::function<void(const FlowAnalysis&)>;

  explicit LiveAnalyzer(LiveConfig config, FlowDoneFn on_flow_done);

  /// Streams finalized flows into a tapo::FlowSink — the same delivery API
  /// the parallel experiment runner uses, so one sink implementation (an
  /// aggregator, a CSV writer) serves both producers. Each finalized flow
  /// becomes one FlowResult{index = finalize ordinal, analyses, packets};
  /// the simulation-only outcome fields stay default. flush() calls
  /// sink.finish() once with the flows-finalized total. The sink must
  /// outlive the analyzer.
  LiveAnalyzer(LiveConfig config, FlowSink& sink);

  /// Feeds one packet. Packets must arrive in (roughly) capture order;
  /// the packet's timestamp drives idle-timeout bookkeeping.
  void add_packet(const net::CapturedPacket& pkt);

  /// Feeds every packet of a chunk (the StreamingReader hand-off).
  /// The chunk stays owned by the caller; its packets are copied into the
  /// per-flow arenas, so the caller should drop the chunk right after —
  /// holding both doubles residency.
  void add_chunk(const net::TraceChunk& chunk);

  /// Finalizes every remaining flow (end of capture / shutdown). With a
  /// FlowSink attached, also invokes its finish() — call flush() once.
  void flush();

  const LiveStats& stats() const { return stats_; }

 private:
  struct Entry {
    net::PacketTrace trace;
    TimePoint last_activity;
    std::size_t charged_bytes = 0;  // what this flow holds in the budget
    bool fin_seen = false;
    std::list<net::FlowKey>::iterator lru_it;
  };

  /// Ledger charge per tracked flow beyond its packet arena (hash-table
  /// slot, LRU node, Entry bookkeeping). A coarse constant: the point is
  /// that a million tiny flows still register, not byte-exact malloc math.
  static constexpr std::size_t kFlowOverheadBytes = 512;

  void finalize(const net::FlowKey& key);
  void reap(TimePoint now);
  /// Re-syncs `entry`'s budget charge with its current arena capacity.
  void recharge(Entry& entry);
  /// Ledger bytes `entry` will hold after one more append, so eviction can
  /// run BEFORE the allocation that would overshoot the cap.
  std::size_t charge_after_append(const Entry& entry) const;
  /// Eviction threshold: half the cap (see LiveConfig::mem_budget).
  std::size_t soft_limit() const;
  /// Largest ledger charge one flow may grow to: a quarter of the cap.
  std::size_t max_flow_bytes() const;
  /// Analyzes-and-drops LRU-front flows while the shared ledger plus
  /// `incoming` bytes sits above the soft limit. Never drops `keep`
  /// (the flow about to receive the incoming bytes).
  void evict_for(std::size_t incoming, const net::FlowKey* keep);
  void evict_over_budget() { evict_for(0, nullptr); }
  void update_resident_gauge();

  LiveConfig config_;
  FlowDoneFn on_flow_done_;
  FlowSink* sink_ = nullptr;        // optional streaming delivery target
  std::size_t sink_ordinal_ = 0;    // FlowResult::index for the next flow
  Analyzer analyzer_;

  std::unordered_map<net::FlowKey, Entry, net::FlowKeyHash> flows_;
  /// LRU order: front = least recently active.
  std::list<net::FlowKey> lru_;
  LiveStats stats_;
};

/// Thread-safe facade over LiveAnalyzer for multi-threaded capture: N
/// ingest threads call add_packet()/add_chunk() concurrently while another
/// thread polls stats(), all serialized by one annotated util::Mutex
/// capability. LiveAnalyzer itself (and util::MemoryBudget, its ledger)
/// stays deliberately single-threaded — one pipeline, one thread — so the
/// facade owns a private MemoryBudget and rebinds the config's ledger
/// pointer to it, making the budget's every charge/release/evict decision
/// happen under the same capability as the flow table it bounds
/// (TAPO_GUARDED_BY below is the compile-time form of that contract).
///
/// Callback caveat: on_flow_done / sink callbacks fire while the lock is
/// held (finalization happens inside ingest). They must not call back into
/// the same SharedLiveAnalyzer — the annotated API makes that re-entrance
/// a -Wthread-safety error in any code path the analysis can see.
class SharedLiveAnalyzer {
 public:
  using FlowDoneFn = LiveAnalyzer::FlowDoneFn;

  /// Both constructors mirror LiveAnalyzer's. When `config.mem_budget` is
  /// set, only its *limit* is taken: the facade charges an owned ledger
  /// instead, so an external (unguarded) MemoryBudget is never shared
  /// across the ingest threads.
  SharedLiveAnalyzer(const LiveConfig& config, FlowDoneFn on_flow_done);
  SharedLiveAnalyzer(const LiveConfig& config, FlowSink& sink);

  void add_packet(const net::CapturedPacket& pkt) TAPO_EXCLUDES(mu_);
  void add_chunk(const net::TraceChunk& chunk) TAPO_EXCLUDES(mu_);
  /// Finalizes every remaining flow; call once, after ingest threads join.
  void flush() TAPO_EXCLUDES(mu_);

  /// Snapshot by value (the underlying stats mutate under the lock).
  LiveStats stats() const TAPO_EXCLUDES(mu_);
  /// Owned ledger readings (0 / high-water when no budget was configured).
  std::size_t budget_resident() const TAPO_EXCLUDES(mu_);
  std::size_t budget_high_water() const TAPO_EXCLUDES(mu_);

 private:
  /// Returns `config` with its ledger pointer rebound to `owned` (when a
  /// budget was configured at all). Static so constructor member-init can
  /// use it without touching guarded members outside the ctor exemption.
  static LiveConfig rebind(LiveConfig config, util::MemoryBudget* owned);

  mutable util::Mutex mu_;
  util::MemoryBudget budget_ TAPO_GUARDED_BY(mu_);
  LiveAnalyzer live_ TAPO_GUARDED_BY(mu_);
};

}  // namespace tapo::analysis
