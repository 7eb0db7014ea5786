// Workload lroad: Linear Road (§6.2) through lroad::Driver::Run plus the
// validator, in process on a simulated clock.
//
// A run is one full three-hour Linear Road run at scale factor kScale
// (about 1.5 s of wall time on a 4-core AVX2 host) per kSecondsPerSubRun
// of --seconds, each in a forked process of its own and with its own seed
// derived from --seed. Each simulated second is
// one batch; its wall time from delivery to quiescence is one latency
// sample. Every figure is the median over the sub-runs: the work per tuple
// depends on the accidents a seed injects, and single runs on a shared
// host differ by a third. A process per sub-run gives each its own peak
// resident memory.
//
// Why: core baskets, joins and aggregates do the work, with no net and no
// sql layer, and the workload runs unchanged whichever way the Linear
// Road network is built behind Driver::Run.

#include <algorithm>
#include <string>
#include <vector>

#include "dcbench.h"
#include "lroad/driver.h"
#include "lroad/generator.h"
#include "lroad/validator.h"
#include "obs/metrics.h"

namespace dcbench {
namespace {

using datacell::Result;
using datacell::Status;
namespace lroad = datacell::lroad;
namespace obs = datacell::obs;

constexpr double kScale = 0.2;
constexpr int kSecondsPerSubRun = 2;
// Set-ups timed in each sub-run process, after its run: on a shared host
// the set-up time moves with the host's state over seconds, so the
// samples are spread over the run.
constexpr size_t kSetupsPerSubRun = 3;

size_t SubRuns(const Args& args) {
  if (args.smoke) return 2;
  return static_cast<size_t>(std::max(1, args.seconds / kSecondsPerSubRun));
}

lroad::Driver::Options OptionsFor(const Args& args, size_t sub_run) {
  lroad::Driver::Options opts;
  opts.generator.seed = args.seed * SubRuns(args) + sub_run;
  opts.network.history_seed = opts.generator.seed * 7919 + 1;
  if (args.smoke) {
    opts.generator.scale_factor = 0.02;
    opts.generator.duration_sec = 900;
  } else {
    opts.generator.scale_factor = kScale;
  }
  opts.q7_window_tuples = 5'000;
  return opts;
}

// What one sub-run process reports back through its pipe.
struct SubRun {
  uint64_t tuples = 0;
  int64_t wall_us = 0;
  int64_t cpu_us = 0;
  double peak_rss_mb = 0;
  double p50 = 0, p99 = 0;
  double max_batch_ms = 0;
  uint64_t violations = 0;
  uint64_t batches = 0;
  uint64_t validation_errors = 0;
  uint64_t detected = 0, detectable = 0;
  double generate_s = 0;
  uint64_t generated = 0;
  double setup_s[kSetupsPerSubRun] = {};
  bool setup_failed = false;
  // Every transition of the run (the Linear Road collections), summed.
  uint64_t firings = 0, rows_in = 0;
  obs::HistogramSnapshot fire_us;
  obs::HistogramSnapshot collection_fire_us[7];
};

SubRun RunOne(const lroad::Driver::Options& opts, bool trace) {
  SubRun out;
  const int64_t cpu0 = ProcessCpuMicros();
  const int64_t t0 = NowMicros();
  Result<lroad::Driver::Report> run = lroad::Driver::Run(opts, nullptr);
  out.wall_us = NowMicros() - t0;
  out.cpu_us = ProcessCpuMicros() - cpu0;
  out.peak_rss_mb = PeakRssMb();
  if (!run.ok()) {
    out.validation_errors = 1;
    return out;
  }
  out.tuples = run->total_tuples;
  out.p50 = run->batch_latency.p50();
  out.p99 = run->batch_latency.p99();
  out.max_batch_ms = run->max_batch_wall_ms;
  out.violations = run->deadline_violations;
  out.batches = run->batch_latency.count;
  const lroad::ValidationReport v = lroad::Validate(*run);
  out.validation_errors = v.errors.size();
  out.detected = v.detected_accidents;
  out.detectable = v.detectable_accidents;

  // transition.<name>.firings / .rows_in / .fire_us; the
  // collections are transition.lr_q<k>_*.
  const std::string prefix = "transition.";
  for (const auto& m : obs::MetricsRegistry::Global().Snapshot()) {
    if (m.name.rfind(prefix, 0) != 0) continue;
    auto ends = [&](const std::string& s) {
      return m.name.size() > s.size() &&
             m.name.compare(m.name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends(".firings")) out.firings += static_cast<uint64_t>(m.value);
    if (ends(".rows_in")) out.rows_in += static_cast<uint64_t>(m.value);
    if (m.kind == obs::MetricKind::kHistogram && ends(".fire_us")) {
      const obs::HistogramSnapshot h =
          obs::MetricsRegistry::Global().GetHistogram(m.name)->Snapshot();
      MergeInto(&out.fire_us, h);
      const std::string lr = prefix + "lr_q";
      if (m.name.rfind(lr, 0) == 0 && m.name.size() > lr.size()) {
        const int q = m.name[lr.size()] - '1';
        if (q >= 0 && q < 7) MergeInto(&out.collection_fire_us[q], h);
      }
    }
  }
  // Set-up: build the engine, baskets and the standing network, and run
  // one simulated second through it.
  for (double& setup_s : out.setup_s) {
    lroad::Driver::Options tiny = opts;
    tiny.generator.duration_sec = 1;
    const int64_t s0 = NowMicros();
    if (!lroad::Driver::Run(tiny, nullptr).ok()) out.setup_failed = true;
    setup_s = static_cast<double>(NowMicros() - s0) / 1e6;
  }
  if (trace) {
    // The generator alone over the same input, so its share of the
    // run's wall time shows.
    lroad::Generator gen(opts.generator);
    const int64_t g0 = NowMicros();
    while (!gen.Done()) out.generated += gen.NextSecond().num_rows();
    out.generate_s = static_cast<double>(NowMicros() - g0) / 1e6;
  }
  return out;
}

}  // namespace

Status RunLroad(const Args& args, Report* report) {
  const size_t sub_runs = SubRuns(args);
  std::vector<double> tps, p50, p99, cpu, rss, setup_s;
  SubRun total;
  double wall_s = 0;
  for (size_t r = 0; r < sub_runs; ++r) {
    SubRun s;
    const lroad::Driver::Options opts = OptionsFor(args, r);
    if (!RunInChild([&] { return RunOne(opts, args.trace); }, &s)) {
      return Status::Internal("lroad sub-run " + std::to_string(r) +
                              " did not complete");
    }
    if (s.setup_failed) {
      return Status::Internal("lroad sub-run " + std::to_string(r) +
                              ": a set-up run failed");
    }
    const double tuples = static_cast<double>(s.tuples);
    tps.push_back(tuples * 1e6 / static_cast<double>(s.wall_us));
    cpu.push_back(static_cast<double>(s.cpu_us) / tuples);
    rss.push_back(s.peak_rss_mb);
    setup_s.insert(setup_s.end(), std::begin(s.setup_s), std::end(s.setup_s));
    p50.push_back(s.p50);
    p99.push_back(s.p99);
    wall_s += static_cast<double>(s.wall_us) / 1e6;
    total.tuples += s.tuples;
    total.max_batch_ms = std::max(total.max_batch_ms, s.max_batch_ms);
    total.violations += s.violations;
    total.batches += s.batches;
    total.generate_s += s.generate_s;
    total.firings += s.firings;
    total.rows_in += s.rows_in;
    MergeInto(&total.fire_us, s.fire_us);
    for (size_t q = 0; q < 7; ++q) {
      MergeInto(&total.collection_fire_us[q], s.collection_fire_us[q]);
    }
    report->attempted += s.tuples;
    report->failed += std::min(s.validation_errors, s.tuples);
    if (s.validation_errors > 0) {
      report->Fail("lroad sub-run " + std::to_string(r) + ": " +
                   std::to_string(s.validation_errors) +
                   " validation errors");
    }
    if (args.trace && s.generated != s.tuples) {
      report->Fail("lroad: generator replay produced " +
                   std::to_string(s.generated) + " tuples, the run saw " +
                   std::to_string(s.tuples));
    }
    report->Info("accidents_detected_" + std::to_string(r),
                 std::to_string(s.detected) + "/" +
                     std::to_string(s.detectable));
  }

  const double tuples = static_cast<double>(total.tuples);
  report->Metric("throughput_tps", Median(tps));
  report->Metric("latency_p50_us", Median(p50));
  report->Metric("cpu_us_per_tuple", Median(cpu));
  report->Metric("peak_rss_mb", Median(rss));
  report->Metric("setup_s", Median(setup_s));

  report->Metric("latency_p99_us", Median(p99));
  report->Metric("core.fire_us_p50", total.fire_us.p50());
  report->Metric("core.fire_us_p99", total.fire_us.p99());
  report->Metric("core.firings_per_ktuple",
                 static_cast<double>(total.firings) * 1e3 / tuples);
  report->Metric("core.rows_per_firing",
                 static_cast<double>(total.rows_in) /
                     static_cast<double>(std::max<uint64_t>(total.firings, 1)));
  report->Metric("core.busy_pct", static_cast<double>(total.fire_us.sum) /
                                      (wall_s * 1e6) * 100);

  for (size_t q = 0; q < 7; ++q) {
    const std::string name = "lroad.Q" + std::to_string(q + 1);
    report->Metric(name + ".fire_us_p50", total.collection_fire_us[q].p50());
    report->Metric(name + ".fire_us_p99", total.collection_fire_us[q].p99());
  }
  if (args.trace) report->Metric("lroad.generate_s", total.generate_s);
  report->Metric("lroad.max_batch_wall_ms", total.max_batch_ms);
  report->Metric("lroad.deadline_violations",
                 static_cast<double>(total.violations));

  report->Info("scale_factor", OptionsFor(args, 0).generator.scale_factor);
  report->Info("sub_runs", static_cast<double>(sub_runs));
  report->Info("batches", static_cast<double>(total.batches));
  report->Info("workers", 1.0);
  report->Info("connections", 0.0);
  report->Info("run_seconds", wall_s);
  report->Info("setups", static_cast<double>(setup_s.size()));
  return Status::OK();
}

}  // namespace dcbench
