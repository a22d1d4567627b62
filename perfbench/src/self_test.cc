#include "self_test.h"

#include <cstdio>
#include <string>
#include <vector>

#include "bench_math.h"
#include "driver.h"
#include "generator.h"

namespace perfbench {
namespace {

class Checker {
 public:
  void Expect(bool cond, const char* what) {
    ++checks_;
    if (!cond) {
      ++failures_;
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
    }
  }
  bool ok() const { return failures_ == 0; }
  int checks() const { return checks_; }

 private:
  int checks_ = 0;
  int failures_ = 0;
};

void TestPercentile(Checker& t) {
  std::vector<int64_t> v{5, 1, 4, 2, 3};
  t.Expect(ExactPercentile(v, 0.5) == 3, "p50 of 1..5 is 3");
  t.Expect(ExactPercentile(v, 0.2) == 1, "p20 of 1..5 is 1");
  t.Expect(ExactPercentile(v, 0.99) == 5, "p99 of 1..5 is 5");
  t.Expect(ExactPercentile(std::vector<int64_t>{}, 0.5) == 0,
           "percentile of nothing is 0");
  t.Expect(ExactPercentile(std::vector<int64_t>{7}, 0.999) == 7,
           "percentile of one sample is that sample");
  std::vector<int64_t> big;
  for (int64_t i = 1000; i >= 1; --i) big.push_back(i);
  t.Expect(ExactPercentile(big, 0.99) == 990, "p99 of 1..1000 is 990");
  t.Expect(ExactPercentile(big, 0.999) == 999, "p99.9 of 1..1000 is 999");
  t.Expect(ExactPercentile(big, 0.5) == 500, "p50 of 1..1000 is 500");
  t.Expect(Median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  t.Expect(Median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of even count");
}

void TestQuarters(Checker& t) {
  auto b = QuarterBounds(10);
  t.Expect(b[0] == 2 && b[1] == 5 && b[2] == 7 && b[3] == 10,
           "quarters of 10 close at 2, 5, 7, 10");
  auto b3 = QuarterBounds(3);
  t.Expect(b3[0] == 0 && b3[3] == 3, "quarters of 3 end at 3");
  QuarterSplit s = SplitQuarters({100, 200, 300, 500}, 40, {50, 60, 70, 80});
  t.Expect(s.host_ns[0] == 100 && s.host_ns[3] == 200,
           "quarter host time is the difference of readings");
  t.Expect(s.events[0] == 10 && s.events[3] == 10,
           "quarter events are the difference of readings");
  t.Expect(s.DriftRatio() == 2.0, "drift ratio is last ns/event over first");
  QuarterSplit empty;
  t.Expect(empty.DriftRatio() == 0.0, "drift of an empty split is 0");
}

void TestAttribution(Checker& t) {
  LayerRows rows{};
  ChargeStep(10, {Layer::kCoordinator, Layer::kParticipant, Layer::kNameServer},
             rows);
  t.Expect(rows[static_cast<size_t>(Layer::kCoordinator)] == 4 &&
               rows[static_cast<size_t>(Layer::kParticipant)] == 3 &&
               rows[static_cast<size_t>(Layer::kNameServer)] == 3,
           "a batch splits evenly, remainder to the first record");
  ChargeStep(7, {}, rows);
  t.Expect(rows[static_cast<size_t>(Layer::kTimer)] == 7,
           "a step with no message record goes to the timers");
  ChargeStep(5, {Layer::kParticipant, Layer::kParticipant}, rows);
  t.Expect(RowsTotal(rows) == 22, "layer rows sum to the step total");
  int64_t total = 0;
  LayerRows many{};
  for (int64_t ns = 1; ns < 200; ++ns) {
    std::vector<Layer> served(static_cast<size_t>(ns % 7),
                              static_cast<Layer>(ns % 3));
    ChargeStep(ns, served, many);
    total += ns;
  }
  t.Expect(RowsTotal(many) == total, "rows sum to the total over many steps");
}

void TestNormalisation(Checker& t) {
  t.Expect(PerCommit(6, 3) == 2.0, "per-commit divides by commits");
  t.Expect(PerCommit(6, 0) == 0.0, "per-commit with no commits is 0");
  t.Expect(Ratio(1, 0) == 0.0, "ratio over 0 is 0");
}

bool SameProgram(const rainbow::TxnProgram& a, const rainbow::TxnProgram& b) {
  if (a.ops.size() != b.ops.size()) return false;
  for (size_t i = 0; i < a.ops.size(); ++i) {
    if (a.ops[i].kind != b.ops[i].kind || a.ops[i].item != b.ops[i].item ||
        a.ops[i].value != b.ops[i].value) {
      return false;
    }
  }
  return true;
}

void TestGenerator(Checker& t) {
  GenParams p{1000, 2, 6, 0.5, 0.1, 16};
  bool same = true, differs = false, in_range = true;
  size_t scans = 0, ops = 0;
  for (uint32_t c = 0; c < 3; ++c) {
    BenchRng a = ClientRng(11, c), b = ClientRng(11, c), d = ClientRng(12, c);
    for (int i = 0; i < 500; ++i) {
      rainbow::TxnProgram pa = NextProgram(a, p);
      same &= SameProgram(pa, NextProgram(b, p));
      differs |= !SameProgram(pa, NextProgram(d, p));
      in_range &= pa.ops.size() >= 2 && pa.ops.size() <= 6;
      for (const rainbow::Op& op : pa.ops) {
        ++ops;
        if (op.kind == rainbow::OpKind::kScan) {
          ++scans;
          in_range &= op.item + op.value <= p.num_items;
        } else {
          in_range &= op.item < p.num_items;
        }
      }
    }
  }
  t.Expect(same, "the same seed gives an identical program stream");
  t.Expect(differs, "another seed gives a different program stream");
  t.Expect(in_range, "generated ops stay inside the item range");
  double share = static_cast<double>(scans) / static_cast<double>(ops);
  t.Expect(share > 0.07 && share < 0.13, "scan share is near 10%");
  BenchRng c0 = ClientRng(11, 0), c1 = ClientRng(11, 1);
  t.Expect(!SameProgram(NextProgram(c0, p), NextProgram(c1, p)),
           "clients draw from different streams");
  BenchRng s0 = ClientRng(StreamSeed(11, 0), 0);
  BenchRng s1 = ClientRng(StreamSeed(11, 1), 0);
  BenchRng base = ClientRng(11, 0);
  BenchRng s0_again = ClientRng(StreamSeed(11, 0), 0);
  t.Expect(SameProgram(NextProgram(s0, p), NextProgram(base, p)),
           "stream 0 is the seed itself");
  t.Expect(!SameProgram(NextProgram(s0_again, p), NextProgram(s1, p)),
           "another stream draws different programs");
}

/// Small classroom reps: the same seed twice gives identical exact
/// counts, and a drift-probed rep matches a probe-free one.
void TestDeterminism(Checker& t, const std::string& root) {
  WorkloadSpec spec;
  std::string error;
  if (!MakeWorkload("classroom", root, &spec, &error)) {
    t.Expect(false, ("classroom workload: " + error).c_str());
    return;
  }
  spec.txns = 400;
  RepResult a = RunRep(spec, 5, {});
  RepResult b = RunRep(spec, 5, {});
  RepResult p = RunRep(spec, 5, {.probe = true});
  RepResult c = RunRep(spec, 6, {});
  t.Expect(a.ok && b.ok && p.ok && c.ok, "small classroom reps pass the gate");
  t.Expect(a.counts == b.counts, "same seed gives identical exact counts");
  t.Expect(a.counts == p.counts, "the drift probe does not perturb the run");
  t.Expect(a.response_us == b.response_us,
           "same seed gives identical response times");
  t.Expect(!(a.counts == c.counts) || a.response_us != c.response_us,
           "another seed gives a different execution");
}

}  // namespace

bool RunSelfTests(const std::string& root, bool full) {
  Checker t;
  TestPercentile(t);
  TestQuarters(t);
  TestAttribution(t);
  TestNormalisation(t);
  TestGenerator(t);
  if (full) TestDeterminism(t, root);
  if (full) {
    std::printf("self-test: %d checks, %s\n", t.checks(),
                t.ok() ? "all passed" : "FAILED");
  }
  return t.ok();
}

}  // namespace perfbench
