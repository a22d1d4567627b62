#include "driver.h"

#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "cc/lock_manager.h"
#include "core/system.h"
#include "net/message.h"
#include "storage/storage_engine.h"
#include "verify/history.h"

namespace perfbench {

using rainbow::AbortCause;
using rainbow::RainbowSystem;
using rainbow::SiteId;
using rainbow::TraceEventKind;
using rainbow::TraceRecord;
using Clock = std::chrono::steady_clock;

namespace {

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int64_t Nanos(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// --- closed loop ------------------------------------------------------------

/// The benchmark's closed-loop load: `clients` clients, each with its own
/// RNG stream, each submitting its next program when the previous one
/// finishes, until `txns` submissions have been made.
class ClosedLoop {
 public:
  /// Called at each quarter boundary of completed transactions.
  using QuarterHook = std::function<void(size_t quarter)>;

  ClosedLoop(RainbowSystem* sys, const WorkloadSpec& spec, uint64_t seed)
      : sys_(sys), spec_(spec), bounds_(QuarterBounds(spec.txns)) {
    rngs_.reserve(spec.clients);
    for (uint32_t c = 0; c < spec.clients; ++c) {
      rngs_.push_back(ClientRng(seed, c));
    }
    response_us_.reserve(spec.txns);
  }

  void set_quarter_hook(QuarterHook hook) { hook_ = std::move(hook); }

  void Start() {
    for (uint32_t c = 0; c < spec_.clients; ++c) SubmitNext(c);
  }

  uint64_t submitted() const { return submitted_; }
  uint64_t completed() const { return completed_; }
  uint64_t committed() const { return committed_; }
  uint64_t submit_errors() const { return submit_errors_; }
  const std::array<uint64_t, 6>& aborts() const { return aborts_; }
  int64_t last_finish() const { return last_finish_; }
  std::vector<int64_t>& response_us() { return response_us_; }

 private:
  void SubmitNext(uint32_t c) {
    if (submitted_ >= spec_.txns) return;
    ++submitted_;
    auto home = static_cast<SiteId>(c % sys_->num_sites());
    rainbow::Status s = sys_->Submit(
        home, NextProgram(rngs_[c], spec_.gen),
        [this, c](const rainbow::TxnOutcome& o) { OnOutcome(c, o); });
    if (!s.ok()) ++submit_errors_;
  }

  void OnOutcome(uint32_t c, const rainbow::TxnOutcome& o) {
    ++completed_;
    if (o.committed) {
      ++committed_;
      response_us_.push_back(o.response_time());
    } else {
      ++aborts_[static_cast<size_t>(o.abort_cause)];
    }
    last_finish_ = std::max(last_finish_, o.finished_at);
    if (hook_ && next_quarter_ < 4 && completed_ == bounds_[next_quarter_]) {
      // Several bounds coincide when txns < 4.
      while (next_quarter_ < 4 && completed_ == bounds_[next_quarter_]) {
        hook_(next_quarter_++);
      }
    }
    SubmitNext(c);
  }

  RainbowSystem* sys_;
  const WorkloadSpec& spec_;
  std::array<uint64_t, 4> bounds_;
  std::vector<BenchRng> rngs_;
  QuarterHook hook_;
  size_t next_quarter_ = 0;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t committed_ = 0;
  uint64_t submit_errors_ = 0;
  std::array<uint64_t, 6> aborts_{};
  int64_t last_finish_ = 0;
  std::vector<int64_t> response_us_;
};

// --- layer counters ---------------------------------------------------------

/// Cumulative layer counters, summed over sites; a rep reports the
/// difference across its driven phase.
struct LayerCounters {
  uint64_t rpc_calls = 0, rpc_retries = 0, ns_lookups = 0, dropped = 0;
  uint64_t msgs = 0, bytes = 0;
  uint64_t lock_waits = 0, denials = 0, wounds = 0;
  uint64_t pool_hits = 0, pool_misses = 0, evictions = 0, disk_writes = 0;
  uint64_t wal_lsn = 0, wal_retained = 0;
};

LayerCounters ReadCounters(RainbowSystem& sys) {
  LayerCounters c;
  const rainbow::NetworkStats& net = sys.net().stats();
  c.rpc_calls = net.rpc_calls;
  c.rpc_retries = net.rpc_retries;
  c.ns_lookups =
      net.by_kind[static_cast<size_t>(rainbow::MessageKind::kNsLookupRequest)];
  c.dropped = net.total_dropped();
  c.msgs = net.network_sent();
  c.bytes = net.bytes;
  for (SiteId s = 0; s < sys.num_sites(); ++s) {
    rainbow::Site* site = sys.site(s);
    if (auto* lm = dynamic_cast<rainbow::LockManager*>(site->cc())) {
      c.lock_waits += lm->waits_started();
      c.denials += lm->denials();
      c.wounds += lm->wounds();
    }
    if (auto* ps = dynamic_cast<const rainbow::PageStore*>(&site->store())) {
      const rainbow::BufferPool::Stats& ps_stats = ps->pool().stats();
      c.pool_hits += ps_stats.hits;
      c.pool_misses += ps_stats.misses;
      c.evictions += ps_stats.evictions;
      c.disk_writes += ps->disk().writes();
    }
    c.wal_lsn += site->wal().LastLsn();
    c.wal_retained += site->wal().size();
  }
  return c;
}

/// Receives the barriers computed while timing, so the calls stay live.
volatile uint64_t g_barrier_sink = 0;

/// Host time of Wal::ProtocolBarrier() over all sites: the fastest of a
/// few passes.
double TimeProtocolBarriers(RainbowSystem& sys) {
  constexpr int kPasses = 5;
  double best_ns = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    uint64_t sink = 0;
    Clock::time_point t0 = Clock::now();
    for (SiteId s = 0; s < sys.num_sites(); ++s) {
      sink += sys.site(s)->wal().ProtocolBarrier();
    }
    Clock::time_point t1 = Clock::now();
    g_barrier_sink = sink;
    double ns = static_cast<double>(Nanos(t0, t1));
    if (pass == 0 || ns < best_ns) best_ns = ns;
  }
  return best_ns / 1e3;
}

// --- traced run -------------------------------------------------------------

/// Which layer a delivered message kind is charged to: name-server
/// lookups to the name server, replies to the coordinator side, every
/// other (request or one-way) kind to the participant side.
Layer LayerOfKind(rainbow::MessageKind k) {
  using rainbow::MessageKind;
  switch (k) {
    case MessageKind::kNsLookupRequest:
    case MessageKind::kNsLookupReply:
      return Layer::kNameServer;
    case MessageKind::kReadReply:
    case MessageKind::kPrewriteReply:
    case MessageKind::kVoteReply:
    case MessageKind::kAck:
    case MessageKind::kDecisionInfo:
    case MessageKind::kPreCommitAck:
    case MessageKind::kStateReply:
    case MessageKind::kRefreshReply:
      return Layer::kCoordinator;
    default:
      return Layer::kParticipant;
  }
}

/// kMsgRecv records name the message kind in `detail`.
std::unordered_map<std::string, Layer> MessageLayers() {
  std::unordered_map<std::string, Layer> m;
  for (size_t k = 0; k < static_cast<size_t>(rainbow::MessageKind::kCount);
       ++k) {
    auto kind = static_cast<rainbow::MessageKind>(k);
    m.emplace(rainbow::MessageKindName(kind), LayerOfKind(kind));
  }
  return m;
}

/// Rebuilds per-transaction virtual phase spans from the typed trace, one
/// step's records at a time.
class PhaseTracker {
 public:
  void Observe(const TraceRecord& r) {
    if (!r.txn.valid()) return;
    if (r.kind == TraceEventKind::kTxnSubmit) {
      Open o;
      o.submit = r.time;
      open_[r.txn] = std::move(o);
      return;
    }
    auto it = open_.find(r.txn);
    if (it == open_.end()) return;
    Open& o = it->second;
    switch (r.kind) {
      case TraceEventKind::kQuorumPlan:
        if (o.first_plan < 0) o.first_plan = r.time;
        o.cur_plan = r.time;
        break;
      case TraceEventKind::kQuorumReached:
        if (o.cur_plan >= 0) o.access += r.time - o.cur_plan;
        o.cur_plan = -1;
        break;
      case TraceEventKind::kCcBlock:
        o.blocked[Key(r)] = r.time;
        break;
      case TraceEventKind::kCcGrant:
      case TraceEventKind::kCcDeny: {
        auto b = o.blocked.find(Key(r));
        if (b != o.blocked.end()) {
          if (r.kind == TraceEventKind::kCcGrant) {
            o.lock_wait += r.time - b->second;
          }
          o.blocked.erase(b);
        }
        break;
      }
      case TraceEventKind::kPrepare:
        o.prepare = r.time;
        break;
      case TraceEventKind::kDecision:
        if (o.prepare >= 0) o.commit = r.time - o.prepare;
        break;
      case TraceEventKind::kTxnCommit:
        lookup_.push_back(o.first_plan >= 0 ? o.first_plan - o.submit : 0);
        access_.push_back(o.access);
        lock_wait_.push_back(o.lock_wait);
        commit_.push_back(o.commit);
        open_.erase(it);
        break;
      case TraceEventKind::kTxnAbort:
        open_.erase(it);
        break;
      default:
        break;
    }
  }

  void MoveInto(RepResult& r) {
    r.lookup_us = std::move(lookup_);
    r.access_us = std::move(access_);
    r.lock_wait_us = std::move(lock_wait_);
    r.commit_us = std::move(commit_);
  }

 private:
  struct Open {
    int64_t submit = 0;
    int64_t first_plan = -1;
    int64_t cur_plan = -1;
    int64_t access = 0;
    int64_t lock_wait = 0;
    int64_t prepare = -1;
    int64_t commit = 0;
    std::unordered_map<uint64_t, int64_t> blocked;  ///< (site,item) -> time
  };
  static uint64_t Key(const TraceRecord& r) {
    return (static_cast<uint64_t>(r.site) << 32) | r.item;
  }

  std::unordered_map<rainbow::TxnId, Open> open_;
  std::vector<int64_t> lookup_, access_, lock_wait_, commit_;
};

/// Runs the kernel one event at a time, timing each step and charging
/// it to the layers named by the records it appended. Clears the
/// collector after every step so memory stays flat.
void SteppedDrive(RainbowSystem& sys, PhaseTracker& phases, RepResult& r) {
  static const std::unordered_map<std::string, Layer> kLayers =
      MessageLayers();
  rainbow::Simulator& sim = sys.sim();
  rainbow::TraceCollector& col = sys.collector();
  std::vector<int64_t> step_ns;
  std::vector<Layer> served;
  for (;;) {
    Clock::time_point t0 = Clock::now();
    bool ran = sim.Step();
    Clock::time_point t1 = Clock::now();
    if (!ran) break;
    int64_t ns = Nanos(t0, t1);
    step_ns.push_back(ns);
    served.clear();
    for (const TraceRecord& rec : col.records()) {
      if (rec.kind == TraceEventKind::kMsgRecv) {
        auto it = kLayers.find(rec.detail);
        served.push_back(it == kLayers.end() ? Layer::kParticipant
                                             : it->second);
      }
      phases.Observe(rec);
    }
    ChargeStep(ns, served, r.rows);
    col.Clear();
    r.peak_pending = std::max<uint64_t>(r.peak_pending, sim.pending_events());
  }
  for (int64_t ns : step_ns) r.step_total_ns += ns;
  r.step_p999_ns = ExactPercentile(std::move(step_ns), 0.999);
}

}  // namespace

// --- workloads --------------------------------------------------------------

bool MakeWorkload(const std::string& name, const std::string& root,
                  WorkloadSpec* spec, std::string* error) {
  spec->name = name;
  if (name == "largetopo") {
    // 128 sites, 384 items x 3 copies, majority quorums, default engine.
    rainbow::SystemConfig c;
    c.seed = 2026;
    c.num_sites = 128;
    c.AddUniformItems(384, 100, 3);
    spec->config = std::move(c);
    spec->clients = 128;
    spec->txns = 4000;
    spec->streams = 4;
    spec->gen = GenParams{384, 2, 6, 0.40, 0.0, 16};
  } else if (name == "classroom" || name == "bigstore") {
    const std::string path = root + "/configs/classroom_default.rainbow";
    std::string text;
    if (!ReadFile(path, &text)) {
      *error = "cannot read " + path;
      return false;
    }
    auto parsed = rainbow::SystemConfig::FromText(text);
    if (!parsed.ok()) {
      *error = path + ": " + parsed.status().ToString();
      return false;
    }
    spec->config = std::move(*parsed);
    spec->clients = 8;
    if (name == "classroom") {
      spec->txns = 80000;
      spec->gen = GenParams{static_cast<uint32_t>(spec->config.items.size()),
                            2, 6, 0.25, 0.0, 16};
    } else {
      // Same topology and protocols, 150k fully replicated items.
      spec->config.items.clear();
      spec->config.AddFullyReplicatedItems(150000, 100);
      // A crash-recover cycle here (recover, then quiesce) costs about
      // as much as the driven phase, so one cycle per rep leaves time
      // for more reps.
      spec->txns = 2000;
      spec->streams = 4;
      spec->recovery_cycles = 1;
      spec->gen = GenParams{150000, 2, 6, 0.50, 0.10, 16};
    }
  } else {
    *error = "unknown workload '" + name + "'";
    return false;
  }
  spec->config.sim_shards = 1;
  rainbow::Status valid = spec->config.Validate();
  if (!valid.ok()) {
    *error = valid.ToString();
    return false;
  }
  return true;
}

double TimeSetup(const WorkloadSpec& spec) {
  rainbow::SystemConfig config = spec.config;
  Clock::time_point t0 = Clock::now();
  auto created = RainbowSystem::Create(std::move(config));
  Clock::time_point t1 = Clock::now();
  return created.ok() ? Seconds(t0, t1) : -1;
}

// --- one rep ----------------------------------------------------------------

RepResult RunRep(const WorkloadSpec& spec, uint64_t seed, RepMode mode) {
  RepResult r;
  auto fail = [&r](std::string why) {
    if (r.ok) r.error = std::move(why);
    r.ok = false;
  };

  rainbow::SystemConfig config = spec.config;
  if (mode.traced) {
    config.trace_enabled = true;
    config.trace_detail = rainbow::TraceDetail::kFull;
    config.record_history = true;
  }
  Clock::time_point c0 = Clock::now();
  auto created = RainbowSystem::Create(std::move(config));
  Clock::time_point c1 = Clock::now();
  if (!created.ok()) {
    fail("Create: " + created.status().ToString());
    return r;
  }
  r.setup_s = Seconds(c0, c1);
  RainbowSystem& sys = **created;
  const auto& items = sys.catalog().schema().items();
  if (items.size() != spec.gen.num_items) {
    fail("catalog holds " + std::to_string(items.size()) + " items, expected " +
         std::to_string(spec.gen.num_items));
    return r;
  }
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].id != i) {
      fail("item ids are not dense");
      return r;
    }
  }

  ClosedLoop loop(&sys, spec, seed);
  PhaseTracker phases;

  // Drift probe state. Probe time (and probe allocations) are taken out
  // of the driven phase's figures.
  Clock::time_point drive0;
  double probe_ns = 0;
  uint64_t probe_allocs = 0;
  std::array<double, 4> ns_at{};
  std::array<uint64_t, 4> events_at{};
  const uint64_t events0 = sys.sim().executed_events();
  if (mode.probe) {
    loop.set_quarter_hook([&](size_t q) {
      Clock::time_point t = Clock::now();
      uint64_t a0 = AllocCount();
      ns_at[q] = static_cast<double>(Nanos(drive0, t)) - probe_ns;
      events_at[q] = sys.sim().executed_events();
      r.barrier_us[q] = TimeProtocolBarriers(sys);
      probe_allocs += AllocCount() - a0;
      probe_ns += static_cast<double>(Nanos(t, Clock::now()));
    });
  }

  const LayerCounters before = ReadCounters(sys);
  const uint64_t allocs0 = AllocCount();
  drive0 = Clock::now();
  loop.Start();
  if (mode.traced) {
    // Records emitted by the initial submissions belong to no step.
    for (const TraceRecord& rec : sys.collector().records()) {
      phases.Observe(rec);
    }
    sys.collector().Clear();
    SteppedDrive(sys, phases, r);
  } else {
    sys.RunToQuiescence(SIZE_MAX);
  }
  Clock::time_point drive1 = Clock::now();
  r.counts.allocs = AllocCount() - allocs0 - probe_allocs;
  r.drive_s = Seconds(drive0, drive1) - probe_ns / 1e9;
  if (mode.probe) {
    r.quarters = SplitQuarters(ns_at, events0, events_at);
  }
  if (mode.traced) phases.MoveInto(r);

  const LayerCounters after = ReadCounters(sys);
  r.counts.submitted = loop.submitted();
  r.counts.completed = loop.completed();
  r.counts.committed = loop.committed();
  r.counts.aborted = loop.completed() - loop.committed();
  r.counts.events = sys.sim().executed_events() - events0;
  r.counts.msgs = after.msgs - before.msgs;
  r.counts.bytes = after.bytes - before.bytes;
  r.aborts_by_cause = loop.aborts();
  r.response_us = std::move(loop.response_us());
  r.virtual_end_us = loop.last_finish();
  r.rpc_calls = after.rpc_calls - before.rpc_calls;
  r.rpc_retries = after.rpc_retries - before.rpc_retries;
  r.rpc_latency_p99_us =
      static_cast<double>(sys.net().stats().rpc_latency.Percentile(0.99));
  r.ns_lookups = after.ns_lookups - before.ns_lookups;
  r.dropped = after.dropped - before.dropped;
  r.lock_waits = after.lock_waits - before.lock_waits;
  r.denials = after.denials - before.denials;
  r.wounds = after.wounds - before.wounds;
  r.pool_hits = after.pool_hits - before.pool_hits;
  r.pool_misses = after.pool_misses - before.pool_misses;
  r.evictions = after.evictions - before.evictions;
  r.disk_writes = after.disk_writes - before.disk_writes;
  r.wal_records = after.wal_lsn - before.wal_lsn;
  r.wal_retained = after.wal_retained;

  // --- correctness gate ---
  const uint64_t orphans = sys.monitor().orphans();
  r.failed = (r.counts.submitted - r.counts.completed) + orphans +
             r.aborts_by_cause[static_cast<size_t>(AbortCause::kSiteFailure)] +
             loop.submit_errors();
  if (r.counts.submitted != spec.txns) {
    fail("submitted " + std::to_string(r.counts.submitted) + " of " +
         std::to_string(spec.txns));
  }
  if (r.counts.completed != r.counts.submitted) {
    fail(std::to_string(r.counts.submitted - r.counts.completed) +
         " submissions have no outcome at quiescence");
  }
  if (r.failed != 0) fail(std::to_string(r.failed) + " failed submissions");
  if (!sys.Idle()) fail("system not idle after the driven phase");
  if (rainbow::Status s = sys.CheckReplicaConsistency(false); !s.ok()) {
    fail("replica consistency: " + s.ToString());
  }
  if (mode.traced) {
    if (RowsTotal(r.rows) != r.step_total_ns) {
      fail("layer rows do not sum to the step total");
    }
    if (rainbow::Status s =
            rainbow::CheckConflictSerializable(sys.history().transactions());
        !s.ok()) {
      fail("serializability: " + s.ToString());
    }
  }

  // Durability: crash every site at quiescence and recover every site
  // (timed), a few times over, then check that no committed value or
  // version moved.
  std::vector<rainbow::ItemCopy> latest;
  latest.reserve(items.size());
  for (const auto& item : items) {
    auto copy = sys.LatestCommitted(item.id);
    if (!copy.ok()) {
      fail("LatestCommitted(" + item.name + "): " + copy.status().ToString());
      return r;
    }
    latest.push_back(*copy);
  }
  for (int cycle = 0; cycle < spec.recovery_cycles; ++cycle) {
    for (SiteId s = 0; s < sys.num_sites(); ++s) sys.CrashSite(s);
    Clock::time_point r0 = Clock::now();
    for (SiteId s = 0; s < sys.num_sites(); ++s) sys.RecoverSite(s);
    Clock::time_point r1 = Clock::now();
    r.recovery_s.push_back(Seconds(r0, r1));
    sys.RunToQuiescence(SIZE_MAX);
  }
  for (size_t i = 0; i < items.size(); ++i) {
    auto copy = sys.LatestCommitted(items[i].id);
    if (!copy.ok() || copy->value != latest[i].value ||
        copy->version != latest[i].version) {
      fail("item " + items[i].name + " changed across crash and recovery");
      break;
    }
  }
  return r;
}

}  // namespace perfbench
