// One measured execution ("rep") of a workload: build the system, drive
// the benchmark's closed loop to quiescence, check the outputs, crash
// and recover every site, and read each layer's counters through the
// library's public entry points.
#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_math.h"
#include "core/config.h"
#include "generator.h"

namespace perfbench {

/// operator-new calls made by this process so far (alloc_hook.cc).
uint64_t AllocCount();

/// A workload: the system it runs on and the closed loop that drives it.
struct WorkloadSpec {
  std::string name;
  rainbow::SystemConfig config;
  /// Closed-loop clients; client c's home site is c % num_sites.
  uint32_t clients = 8;
  /// Submissions per rep. Fixed per workload, so every exact count and
  /// virtual-time metric is a function of the seed alone.
  uint64_t txns = 0;
  /// Program streams per --trace 0 run. Rep i of a run draws its
  /// programs from stream i % streams, so the run's metrics average over
  /// that many inputs rather than resting on one.
  uint32_t streams = 1;
  /// Crash-all / recover-all cycles at the end of each rep.
  int recovery_cycles = 5;
  GenParams gen;
};

/// Builds the named workload. Configs are read relative to `root` (the
/// repository checkout). Returns false and sets `error` on failure.
bool MakeWorkload(const std::string& name, const std::string& root,
                  WorkloadSpec* spec, std::string* error);

/// How a rep is observed.
struct RepMode {
  /// Drift probe: host time and events at each quarter of completed
  /// transactions, and Wal::ProtocolBarrier() timed on every site there.
  bool probe = false;
  /// Full structured tracing, history recording, and a step-timed kernel
  /// loop that charges each step to the layer it served.
  bool traced = false;
};

/// Deterministic counts of one rep. Same seed => identical values.
struct ExactCounts {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t events = 0;
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  uint64_t allocs = 0;  ///< operator-new calls during the driven phase
  bool operator==(const ExactCounts&) const = default;
  ExactCounts& operator+=(const ExactCounts& o) {
    submitted += o.submitted;
    completed += o.completed;
    committed += o.committed;
    aborted += o.aborted;
    events += o.events;
    msgs += o.msgs;
    bytes += o.bytes;
    allocs += o.allocs;
    return *this;
  }
};

struct RepResult {
  bool ok = true;
  std::string error;  ///< first failed check, when !ok

  ExactCounts counts;
  /// Submissions with no outcome, orphans and site-failure aborts.
  uint64_t failed = 0;
  /// Aborts by rainbow::AbortCause.
  std::array<uint64_t, 6> aborts_by_cause{};
  /// Virtual response times (us) of committed transactions, from the
  /// loop's own outcome callbacks.
  std::vector<int64_t> response_us;
  /// Virtual time of the last outcome (the driven phase starts at 0).
  int64_t virtual_end_us = 0;

  // Host clock.
  double setup_s = 0;     ///< RainbowSystem::Create, including item load
  double drive_s = 0;     ///< first submission to quiescence
  /// RecoverSite over all sites after crash-all at quiescence, once per
  /// cycle.
  std::vector<double> recovery_s;

  // Layer counters over the driven phase (all sites summed).
  uint64_t rpc_calls = 0;
  uint64_t rpc_retries = 0;
  double rpc_latency_p99_us = 0;
  uint64_t ns_lookups = 0;
  uint64_t dropped = 0;
  uint64_t lock_waits = 0;
  uint64_t denials = 0;
  uint64_t wounds = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t evictions = 0;
  uint64_t disk_writes = 0;
  uint64_t wal_records = 0;
  uint64_t wal_retained = 0;  ///< at quiescence

  // Drift probe (RepMode::probe).
  QuarterSplit quarters;
  std::array<double, 4> barrier_us{};  ///< all sites, at each quarter

  // Traced run (RepMode::traced).
  LayerRows rows{};
  int64_t step_total_ns = 0;
  int64_t step_p999_ns = 0;
  uint64_t peak_pending = 0;
  /// Virtual phase spans (us) per committed transaction.
  std::vector<int64_t> lookup_us, access_us, lock_wait_us, commit_us;
};

RepResult RunRep(const WorkloadSpec& spec, uint64_t seed, RepMode mode);

/// Host seconds to build the workload's system, including item load.
/// Returns a negative value if Create fails.
double TimeSetup(const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
