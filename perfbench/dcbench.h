// Shared pieces of the dcbench driver: run arguments, the per-run report
// every workload fills, and small statistics/resource helpers.
#ifndef DATACELL_PERFBENCH_DCBENCH_H_
#define DATACELL_PERFBENCH_DCBENCH_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/scheduler.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace dcbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Tiny inputs and short phases, for checking the benchmark itself.
  bool smoke = false;
};

/// What one run produced. Metric names are the ones BENCHMARK.json lists;
/// `info` holds run facts (thread and connection counts, rates, sizes).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> errors;

  void Metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void Info(const std::string& key, double value);
  /// Records a correctness failure; the run reports correct=false.
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

datacell::Status RunWireSql(const Args& args, Report* report);
datacell::Status RunLroad(const Args& args, Report* report);
datacell::Status RunMqoBatch(const Args& args, Report* report);

/// q-quantile (q in [0,1]) of `v` by linear interpolation; sorts `v`.
double Quantile(std::vector<double>* v, double q);
double Median(std::vector<double> v);

/// User plus system CPU of this process so far, in microseconds.
int64_t ProcessCpuMicros();
/// Peak resident set of this process so far, in MiB.
double PeakRssMb();
/// Monotonic wall time in microseconds (the engine's SystemClock epoch).
int64_t NowMicros();

/// Forks; the child calls `child` with the write end of a pipe and exits,
/// and the parent reads `size` bytes from the pipe into `out` and waits for
/// the child. False if the child did not report them or exited non-zero.
/// The caller must have no other threads running.
bool RunForked(const std::function<void(int fd)>& child, void* out,
               size_t size);
/// Writes all `n` bytes to `fd`; false on error.
bool WriteAll(int fd, const void* p, size_t n);

/// Runs `fn` in a child process (see RunForked) and copies the value it
/// returns back into `*out`.
template <typename T, typename Fn>
bool RunInChild(Fn fn, T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  return RunForked(
      [&](int fd) {
        const T r = fn();
        if (!WriteAll(fd, &r, sizeof(r))) std::_Exit(1);
      },
      out, sizeof(T));
}

/// Firing counters summed over a set of transitions, from
/// Scheduler::TransitionStatsSnapshot. Histograms merge bucket-wise.
struct TransitionTotals {
  uint64_t transitions = 0;
  uint64_t firings = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t morsels = 0;
  datacell::obs::HistogramSnapshot fire_us;
  datacell::obs::HistogramSnapshot morsel_us;
};

void MergeInto(datacell::obs::HistogramSnapshot* into,
               const datacell::obs::HistogramSnapshot& h);
/// `after` minus `before` (same histogram, two points in time); the
/// maximum stays the later one's, which bounds the interval's maximum.
datacell::obs::HistogramSnapshot Minus(
    const datacell::obs::HistogramSnapshot& after,
    const datacell::obs::HistogramSnapshot& before);
TransitionTotals Minus(const TransitionTotals& after,
                       const TransitionTotals& before);
/// Adds the counters of `t` (the same transitions in another process) into
/// `*into`; `transitions` stays a count of transitions, not a sum.
void MergeInto(TransitionTotals* into, const TransitionTotals& t);

/// Totals over the transitions whose name satisfies `pick`.
template <typename Pick>
TransitionTotals SumTransitions(const datacell::core::Scheduler& scheduler,
                                Pick pick) {
  TransitionTotals t;
  for (const auto& s : scheduler.TransitionStatsSnapshot()) {
    if (!pick(s.name)) continue;
    ++t.transitions;
    t.firings += s.firings;
    t.rows_in += s.rows_in;
    t.rows_out += s.rows_out;
    t.morsels += s.morsels;
    MergeInto(&t.fire_us, s.latency);
    MergeInto(&t.morsel_us, s.morsel_latency);
  }
  return t;
}

/// Order-independent row checksum: the sum of Mix(key) over the rows.
inline uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace dcbench

#endif  // DATACELL_PERFBENCH_DCBENCH_H_
