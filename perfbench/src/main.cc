// Rainbow's end-to-end benchmark driver.
//
//   perfbench --workload classroom|largetopo|bigstore --seed N
//             --seconds S --trace 0|1 [--root DIR]
//   perfbench --self-test [--root DIR]
//
// --trace 0 measures the end-to-end metrics: it sets the system up
// repeatedly for the setup time, then repeats the workload's fixed-size
// closed-loop rep, cycling through the workload's program streams, for
// S seconds, reporting host-time metrics as medians over the reps.
// --trace 1 measures the per-layer metrics: each round runs a
// probe-free rep, a drift-probed rep and a traced, step-timed rep of the
// same workload and seed. Every rep passes the correctness gate or the
// run fails. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Metrics are documented in perfbench/README.md.

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_math.h"
#include "driver.h"
#include "common/types.h"
#include "self_test.h"

namespace perfbench {
namespace {

using rainbow::AbortCause;
using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Elapsed(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Prints the human-readable rows and the final JSON line.
void Emit(bool correct, uint64_t attempted, uint64_t failed,
          const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Run-level bookkeeping: the gate verdict and the attempt tallies.
struct Tally {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const RepResult& r, const char* label) {
    attempted += r.counts.submitted;
    failed += r.failed;
    if (!r.ok) Fail(std::string(label) + " rep: " + r.error);
  }
  void Fail(const std::string& why) {
    if (correct) std::fprintf(stderr, "correctness gate failed: %s\n", why.c_str());
    correct = false;
  }
};

bool SameCore(const ExactCounts& a, const ExactCounts& b) {
  return a.committed == b.committed && a.aborted == b.aborted &&
         a.msgs == b.msgs && a.events == b.events;
}

// --- --trace 0 --------------------------------------------------------------

int EndToEnd(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Clock::time_point start = Clock::now();
  Tally tally;

  // Setup time: repeated builds for a tenth of the budget (at least
  // five), plus one sample per rep.
  std::vector<double> setup;
  while (setup.size() < 5 || Elapsed(start) < seconds * 0.1) {
    double s = TimeSetup(spec);
    if (s < 0) {
      std::fprintf(stderr, "RainbowSystem::Create failed\n");
      return 1;
    }
    setup.push_back(s);
  }

  // Rep i draws from stream i % k. Reps repeat while the next one, as
  // long as the last, still ends within the budget; at least three, and
  // with several streams at least two per stream.
  const uint32_t k = spec.streams;
  const size_t min_reps = k == 1 ? 3 : 2 * k;
  std::vector<RepResult> first(k);  // each stream's first rep
  std::vector<std::vector<double>> drive(k);  // per stream
  std::vector<double> recovery;
  size_t reps = 0;
  double rep_wall = 0;
  do {
    const uint32_t s = static_cast<uint32_t>(reps % k);
    Clock::time_point rep0 = Clock::now();
    RepResult r = RunRep(spec, StreamSeed(seed, s), {});
    rep_wall = Elapsed(rep0);
    ++reps;
    tally.Add(r, "driven");
    setup.push_back(r.setup_s);
    std::fprintf(stderr,
                 "rep %zu stream %u: drive %.4f s, recovery %.5f s, "
                 "setup %.6f s\n",
                 reps, s, r.drive_s, Median(r.recovery_s), r.setup_s);
    if (r.counts.committed == 0) tally.Fail("nothing committed");
    if (reps > k && !(r.counts == first[s].counts)) {
      tally.Fail("rep " + std::to_string(reps) + " did not reproduce the " +
                 "exact counts of stream " + std::to_string(s) + "'s first rep");
    }
    drive[s].push_back(r.drive_s);
    recovery.insert(recovery.end(), r.recovery_s.begin(), r.recovery_s.end());
    if (reps <= k) first[s] = std::move(r);
  } while (tally.correct &&
           (reps < min_reps || Elapsed(start) + rep_wall < seconds));

  // Exact and virtual metrics pool each stream's first rep; every later
  // rep reproduced them. Host throughput takes each stream's median
  // drive time.
  ExactCounts n;
  std::vector<int64_t> response_us;
  int64_t virtual_us = 0;
  double drive_s = 0;
  for (uint32_t s = 0; s < k; ++s) {
    n += first[s].counts;
    response_us.insert(response_us.end(), first[s].response_us.begin(),
                       first[s].response_us.end());
    virtual_us += first[s].virtual_end_us;
    drive_s += Median(drive[s]);
  }
  std::printf("# %s seed=%llu streams=%u reps=%zu setups=%zu submitted=%llu "
              "committed=%llu aborted=%llu events=%llu msgs=%llu allocs=%llu\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed), k,
              reps, setup.size(),
              static_cast<unsigned long long>(n.submitted),
              static_cast<unsigned long long>(n.committed),
              static_cast<unsigned long long>(n.aborted),
              static_cast<unsigned long long>(n.events),
              static_cast<unsigned long long>(n.msgs),
              static_cast<unsigned long long>(n.allocs));
  std::printf("# response percentiles over %zu committed transactions\n",
              response_us.size());
  double committed = static_cast<double>(n.committed);
  Emit(tally.correct, tally.attempted, tally.failed,
       {
           {"commits_per_s", Ratio(committed, drive_s), "1/s"},
           {"setup_s", Median(setup), "s"},
           {"recovery_s", Median(recovery), "s"},
           {"peak_rss_mb", PeakRssMb(), "MB"},
           {"allocs_per_commit", PerCommit(static_cast<double>(n.allocs),
                                           n.committed), "count"},
           {"vtps", Ratio(committed, static_cast<double>(virtual_us) / 1e6), "1/s"},
           {"p50_response_ms",
            static_cast<double>(ExactPercentile(response_us, 0.50)) / 1e3,
            "ms"},
           {"p99_response_ms",
            static_cast<double>(ExactPercentile(response_us, 0.99)) / 1e3,
            "ms"},
           {"commit_ratio", Ratio(committed, static_cast<double>(n.completed)),
            "ratio"},
           {"msgs_per_commit", PerCommit(static_cast<double>(n.msgs), n.committed),
            "count"},
           {"bytes_per_commit",
            PerCommit(static_cast<double>(n.bytes), n.committed), "B"},
       });
  return tally.correct ? 0 : 1;
}

// --- --trace 1 --------------------------------------------------------------

int PerLayer(const WorkloadSpec& spec, uint64_t seed, double seconds) {
  Clock::time_point start = Clock::now();
  Tally tally;
  RepResult base;  // the first probe-free rep: exact per-layer counts
  RepResult traced;
  std::vector<double> ns_per_event, drift, barrier_last, barrier_ratio,
      overhead, step_p999;
  std::vector<std::vector<double>> rows(static_cast<size_t>(Layer::kCount) + 1);
  int rounds = 0;
  double round_wall = 0;
  do {
    ++rounds;
    Clock::time_point round0 = Clock::now();
    RepResult a = RunRep(spec, seed, {});
    RepResult b = RunRep(spec, seed, {.probe = true});
    RepResult c = RunRep(spec, seed, {.traced = true});
    tally.Add(a, "probe-free");
    tally.Add(b, "drift-probed");
    tally.Add(c, "traced");
    if (rounds == 1) base = a;
    if (!(a.counts == base.counts)) {
      tally.Fail("round " + std::to_string(rounds) +
                 " did not reproduce round 1's exact counts");
    }
    if (!(b.counts == a.counts)) {
      tally.Fail("the drift probe changed the run's exact counts");
    }
    if (!SameCore(c.counts, a.counts)) {
      tally.Fail("the traced run did not reproduce the untraced run's "
                 "committed, aborted, message and event counts");
    }
    if (a.counts.committed == 0) tally.Fail("nothing committed");
    double committed = static_cast<double>(a.counts.committed);
    ns_per_event.push_back(
        Ratio(a.drive_s * 1e9, static_cast<double>(a.counts.events)));
    drift.push_back(b.quarters.DriftRatio());
    barrier_last.push_back(b.barrier_us[3]);
    barrier_ratio.push_back(Ratio(b.barrier_us[3], b.barrier_us[0]));
    overhead.push_back(Ratio(c.drive_s, a.drive_s));
    step_p999.push_back(static_cast<double>(c.step_p999_ns));
    for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
      rows[l].push_back(static_cast<double>(c.rows[l]) / committed);
    }
    rows.back().push_back(static_cast<double>(c.step_total_ns) / committed);
    if (rounds == 1) traced = std::move(c);
    round_wall = Elapsed(round0);
  } while (tally.correct && Elapsed(start) + round_wall < seconds);

  const ExactCounts& n = base.counts;
  auto per_commit = [&](uint64_t v) {
    return PerCommit(static_cast<double>(v), n.committed);
  };
  uint64_t aborted = n.aborted;
  auto share = [&](AbortCause cause) {
    return Ratio(static_cast<double>(base.aborts_by_cause[static_cast<size_t>(cause)]),
                 static_cast<double>(aborted));
  };
  auto ms = [](const std::vector<int64_t>& v, double q) {
    return static_cast<double>(ExactPercentile(v, q)) / 1e3;
  };
  auto row = [&](Layer l) { return Median(rows[static_cast<size_t>(l)]); };
  std::printf("# %s seed=%llu rounds=%d committed=%llu events=%llu "
              "traced steps=%llu phase samples=%zu\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed), rounds,
              static_cast<unsigned long long>(n.committed),
              static_cast<unsigned long long>(n.events),
              static_cast<unsigned long long>(traced.counts.events),
              traced.lookup_us.size());
  Emit(tally.correct, tally.attempted, tally.failed,
       {
           {"sim.events_per_commit", per_commit(n.events), "count"},
           {"sim.host_ns_per_event", Median(ns_per_event), "ns"},
           {"sim.drift_ratio", Median(drift), "ratio"},
           {"sim.peak_pending_events", static_cast<double>(traced.peak_pending),
            "count"},
           {"net.bytes_per_msg",
            Ratio(static_cast<double>(n.bytes), static_cast<double>(n.msgs)), "B"},
           {"net.rpc_calls_per_commit", per_commit(base.rpc_calls), "count"},
           {"net.nslookup_per_commit", per_commit(base.ns_lookups), "count"},
           {"net.rpc_latency_p99_ms", base.rpc_latency_p99_us / 1e3, "ms"},
           {"net.rpc_retries", static_cast<double>(base.rpc_retries), "count"},
           {"net.dropped", static_cast<double>(base.dropped), "count"},
           {"cc.lock_waits_per_commit", per_commit(base.lock_waits), "count"},
           {"cc.denials_per_commit", per_commit(base.denials), "count"},
           {"cc.wounds_per_commit", per_commit(base.wounds), "count"},
           {"abort.ccp_share", share(AbortCause::kCcp), "ratio"},
           {"abort.rcp_share", share(AbortCause::kRcp), "ratio"},
           {"abort.acp_share", share(AbortCause::kAcp), "ratio"},
           {"phase.lookup_p50_ms", ms(traced.lookup_us, 0.50), "ms"},
           {"phase.lookup_p99_ms", ms(traced.lookup_us, 0.99), "ms"},
           {"phase.access_p50_ms", ms(traced.access_us, 0.50), "ms"},
           {"phase.access_p99_ms", ms(traced.access_us, 0.99), "ms"},
           {"phase.lock_wait_p50_ms", ms(traced.lock_wait_us, 0.50), "ms"},
           {"phase.lock_wait_p99_ms", ms(traced.lock_wait_us, 0.99), "ms"},
           {"phase.commit_p50_ms", ms(traced.commit_us, 0.50), "ms"},
           {"phase.commit_p99_ms", ms(traced.commit_us, 0.99), "ms"},
           {"storage.pool_hit_rate",
            Ratio(static_cast<double>(base.pool_hits),
                  static_cast<double>(base.pool_hits + base.pool_misses)),
            "ratio"},
           {"storage.misses_per_commit", per_commit(base.pool_misses), "count"},
           {"storage.evictions_per_commit", per_commit(base.evictions), "count"},
           {"storage.disk_writes_per_commit", per_commit(base.disk_writes),
            "count"},
           {"storage.wal_records_per_commit", per_commit(base.wal_records),
            "count"},
           {"storage.wal_retained_records", static_cast<double>(base.wal_retained),
            "count"},
           {"storage.protocol_barrier_us", Median(barrier_last), "us"},
           {"storage.protocol_barrier_ratio", Median(barrier_ratio), "ratio"},
           {"host.nameserver_ns_per_commit", row(Layer::kNameServer), "ns"},
           {"host.coordinator_ns_per_commit", row(Layer::kCoordinator), "ns"},
           {"host.participant_ns_per_commit", row(Layer::kParticipant), "ns"},
           {"host.timer_ns_per_commit", row(Layer::kTimer), "ns"},
           {"host.step_ns_per_commit", Median(rows.back()), "ns"},
           {"host.step_p999_ns", Median(step_p999), "ns"},
           {"trace.overhead_ratio", Median(overhead), "ratio"},
       });
  return tally.correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string workload, root = ".";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = std::stoull(value());
    } else if (arg == "--seconds") {
      seconds = std::stod(value());
    } else if (arg == "--trace") {
      trace = std::stoi(value());
    } else if (arg == "--root") {
      root = value();
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  // Keep freed memory in the process, so later reps and recovery cycles
  // do not fault pages in again; page faults are the noisiest cost on a
  // shared virtual machine.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  if (self_test) return RunSelfTests(root, /*full=*/true) ? 0 : 1;
  if (!RunSelfTests(root, /*full=*/false)) return 1;
  WorkloadSpec spec;
  std::string error;
  if (!MakeWorkload(workload, root, &spec, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  return trace ? PerLayer(spec, seed, seconds) : EndToEnd(spec, seed, seconds);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
