// Self-tests of the benchmark's own arithmetic and generator.
#ifndef PERFBENCH_SELF_TEST_H_
#define PERFBENCH_SELF_TEST_H_

#include <string>

namespace perfbench {

/// Checks percentiles, the quarter split, step attribution, per-commit
/// normalisation and the program stream. With `full`, also runs small
/// classroom reps (configs read under `root`) to check that a seed fixes
/// every exact count and that the drift probe does not perturb the run.
/// Failures are printed to stderr.
bool RunSelfTests(const std::string& root, bool full);

}  // namespace perfbench

#endif  // PERFBENCH_SELF_TEST_H_
