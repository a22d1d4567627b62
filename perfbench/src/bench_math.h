// The benchmark's own arithmetic: exact percentiles, medians, the
// quarter split behind the drift probe, per-commit normalisation and the
// split of one timed kernel step across the layers it served. Kept apart
// from the driver so self_test.cc can check each piece on known inputs.
#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (0 < q <= 1): the smallest
/// sample such that at least q of all samples are <= it. Works on a
/// copy; 0 for an empty input.
inline int64_t ExactPercentile(std::vector<int64_t> samples, double q) {
  if (samples.empty()) return 0;
  size_t n = samples.size();
  size_t rank = static_cast<size_t>(q * static_cast<double>(n));
  if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median; the mean of the two middle values for an even count.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// `amount` per committed transaction; 0 when nothing committed, so a
/// run without commits reports zeros rather than dividing by zero.
inline double PerCommit(double amount, uint64_t committed) {
  return committed == 0 ? 0.0 : amount / static_cast<double>(committed);
}

/// `num` / `den`, 0 when `den` is 0.
inline double Ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

/// Completion counts that close each quarter of `total` completed
/// transactions: quarter k covers completions (b[k-1], b[k]] with
/// b[-1] = 0 and b[3] = total.
inline std::array<uint64_t, 4> QuarterBounds(uint64_t total) {
  return {total / 4, total / 2, total * 3 / 4, total};
}

/// Host time and kernel events spent in each quarter of a run, from the
/// cumulative readings taken when each quarter closed.
struct QuarterSplit {
  std::array<double, 4> host_ns{};
  std::array<uint64_t, 4> events{};

  double NsPerEvent(size_t q) const {
    return Ratio(host_ns[q], static_cast<double>(events[q]));
  }
  /// Host ns per event in the last quarter over the first: > 1 when the
  /// run slows down as it ages.
  double DriftRatio() const { return Ratio(NsPerEvent(3), NsPerEvent(0)); }
};

/// Builds the per-quarter split from cumulative readings at the four
/// quarter bounds: host ns since the start, and the kernel's event count
/// (`start_events` at the start).
inline QuarterSplit SplitQuarters(const std::array<double, 4>& ns_at,
                                  uint64_t start_events,
                                  const std::array<uint64_t, 4>& events_at) {
  QuarterSplit s;
  double prev_ns = 0;
  uint64_t prev_ev = start_events;
  for (size_t q = 0; q < 4; ++q) {
    s.host_ns[q] = ns_at[q] - prev_ns;
    s.events[q] = events_at[q] - prev_ev;
    prev_ns = ns_at[q];
    prev_ev = events_at[q];
  }
  return s;
}

/// Layers a kernel step is charged to in the traced run.
enum class Layer : size_t {
  kNameServer = 0,
  kCoordinator,
  kParticipant,
  kTimer,
  kCount,
};

using LayerRows = std::array<int64_t, static_cast<size_t>(Layer::kCount)>;

/// Charges `step_ns` to the layers of the records one step appended. A
/// same-tick delivery batch serves several messages in one step, so the
/// time is split evenly across them; the integer remainder goes to the
/// first, so the rows always sum to the step total. A step that
/// appended no message record ran a timer.
inline void ChargeStep(int64_t step_ns, const std::vector<Layer>& served,
                       LayerRows& rows) {
  if (served.empty()) {
    rows[static_cast<size_t>(Layer::kTimer)] += step_ns;
    return;
  }
  int64_t n = static_cast<int64_t>(served.size());
  int64_t share = step_ns / n;
  rows[static_cast<size_t>(served[0])] += step_ns - share * (n - 1);
  for (size_t i = 1; i < served.size(); ++i) {
    rows[static_cast<size_t>(served[i])] += share;
  }
}

inline int64_t RowsTotal(const LayerRows& rows) {
  int64_t t = 0;
  for (int64_t r : rows) t += r;
  return t;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
