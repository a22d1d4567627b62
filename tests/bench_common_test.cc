// The baseline gates shared by the M6/M8/M9 perf-smoke benches
// (bench/bench_common.h): a gated key missing from either side must
// fail, and --check must refuse a report path that is its own baseline.

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "bench/bench_common.h"

namespace rainbow {
namespace {

using Fields = std::map<std::string, double>;

TEST(BenchCheckTest, CheckMetricFailsOnMissingKey) {
  const Fields both{{"allocs", 10.0}};
  const Fields none;
  EXPECT_TRUE(bench::CheckMetric(both, both, "allocs", 1.5, false));
  EXPECT_FALSE(bench::CheckMetric(none, both, "allocs", 1.5, false));
  EXPECT_FALSE(bench::CheckMetric(both, none, "allocs", 1.5, false));
  EXPECT_FALSE(bench::CheckMetric(both, Fields{{"allocs", 16.0}}, "allocs",
                                  1.5, false));
}

TEST(BenchCheckTest, CheckExactFailsOnMissingKey) {
  const Fields both{{"committed", 73.0}};
  const Fields none;
  EXPECT_TRUE(bench::CheckExact(both, both, "committed"));
  EXPECT_FALSE(bench::CheckExact(none, both, "committed"));
  EXPECT_FALSE(bench::CheckExact(both, none, "committed"));
  EXPECT_FALSE(
      bench::CheckExact(both, Fields{{"committed", 74.0}}, "committed"));
}

TEST(BenchCheckTest, OutMayNotOverwriteTheCheckedBaseline) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "bench_common_test";
  fs::create_directories(dir);
  const std::string base = (dir / "BENCH.json").string();
  std::ofstream(base) << "{}\n";
  fs::remove(dir / "link.json");
  fs::create_symlink(base, dir / "link.json");

  EXPECT_FALSE(bench::OutOverwritesBaseline(base, ""));
  EXPECT_TRUE(bench::OutOverwritesBaseline(base, base));
  EXPECT_TRUE(bench::OutOverwritesBaseline(
      (dir / "." / "BENCH.json").string(), base));
  EXPECT_TRUE(bench::OutOverwritesBaseline((dir / "link.json").string(), base));
  EXPECT_FALSE(bench::OutOverwritesBaseline((dir / "now.json").string(), base));
  // A baseline that does not exist yet still matches its own path.
  const std::string fresh = (dir / "fresh.json").string();
  EXPECT_TRUE(bench::OutOverwritesBaseline(fresh, fresh));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rainbow
