// Workload mqo_batch: large batches through a shared multi-query plan.
//
// In process, no sockets, closed loop with one batch in flight: each batch
// (4 morsels of rows) enters through Receptor::Deliver into one source
// basket that 128 standing SQL queries read with sharing on. The queries
// share a selective prefix (payload < 1000, ~10%) and each adds a private
// 1% range residual, the shape of bench/bench_ablation_sharing. The
// receptor also copies each batch to a second basket read by one
// aggregate query, which the optimizer leaves on the direct path: the
// shared stages evaluate their conjuncts over candidate lists and never
// dispatch morsels, so this query is what exercises the morsel-parallel
// dense kernels. The scheduler runs one worker per two cores, at least
// two so that firings still split into morsels. A batch is
// answered when the net is idle again; its wall time is one latency
// sample.
//
// A run is one sub-run per kSecondsPerSubRun of --seconds, each in a forked
// process of its own that sets up an engine, warms it up and measures it;
// every figure is the median over the sub-runs. The engine runs on the
// allocator's defaults, and how much of each batch's column memory glibc
// returns to the kernel and faults in again depends on the heap layout a
// process happens to reach: single processes of the same seed differ by up
// to a quarter either way in throughput and twofold in peak resident
// memory.
//
// Why: the same sql/core layers as wire_sql, used the other way round — a
// shared plan net and batches large enough for the ops morsel and SIMD
// kernels to dominate, while per-firing overhead is amortised away.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/receptor.h"
#include "dcbench.h"
#include "ops/morsel.h"
#include "sql/session.h"
#include "util/clock.h"
#include "util/random.h"

namespace dcbench {
namespace {

using datacell::Result;
using datacell::Schema;
using datacell::Status;
using datacell::Table;
namespace core = datacell::core;
namespace sql = datacell::sql;

constexpr int64_t kPayloadRange = 10'000;
constexpr int64_t kPrefixBound = 1'000;  // shared prefix: payload < 1000
constexpr int64_t kResidualWidth = 10;   // private residual: 1% of payloads

constexpr int kSecondsPerSubRun = 1;

struct Shape {
  size_t queries;
  size_t batch_rows;
  size_t pool_batches;  // distinct generated batches, delivered in turn
  size_t sub_runs;
  int64_t sub_run_us;  // measured time of one sub-run
  size_t warmup_batches;
  size_t min_batches;  // measured batches of one sub-run, at least
};

Shape ShapeFor(const Args& args) {
  if (args.smoke) return {8, 4'096, 2, 2, 200'000, 1, 3};
  const size_t sub_runs =
      static_cast<size_t>(std::max(1, args.seconds / kSecondsPerSubRun));
  return {128,
          4 * datacell::ops::kMorselRows,
          8,
          sub_runs,
          static_cast<int64_t>(args.seconds) * 1'000'000 /
              static_cast<int64_t>(sub_runs),
          3,
          10};
}

// Counts and checksums what one query's sink receives. Each sink is called
// by one firing at a time; the atomics make the final read from the
// driving thread race-free.
struct QuerySink {
  std::atomic<uint64_t> rows{0};
  std::atomic<uint64_t> checksum{0};
};

struct Expected {
  uint64_t rows = 0;
  uint64_t checksum = 0;
};

constexpr int64_t kAggBound = 5'000;  // aggregate query: payload >= 5000
const char* const kAggSql =
    "select count(*), sum(x.payload) from [select * from t] as x "
    "where x.payload >= 5000";

std::string QuerySql(int64_t lo) {
  return "select * from [select * from s where payload < " +
         std::to_string(kPrefixBound) + " and payload >= " +
         std::to_string(lo) + " and payload < " +
         std::to_string(lo + kResidualWidth) + "]";
}

// One engine with the standing query set registered and the worker pool
// running. Member order is teardown order in reverse: the scheduler is
// stopped first (destructor), then the session, the engine, and last the
// sinks its transitions captured.
struct MqoEngine {
  std::vector<std::unique_ptr<QuerySink>> sinks;
  QuerySink agg;  // rows = sum of count(*), checksum = sum of sum(payload)
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<sql::Session> session;
  core::BasketPtr source;
  core::BasketPtr agg_source;
  core::ReceptorPtr receptor;

  ~MqoEngine() {
    if (engine != nullptr) engine->scheduler().Stop();
  }
};

// Builds the engine up to ready; returns setup seconds, and the query
// registration share in *register_ms.
Result<double> Setup(const std::vector<int64_t>& los, size_t workers,
                     MqoEngine* e, double* register_ms) {
  const int64_t t0 = NowMicros();
  e->engine = std::make_unique<core::Engine>(datacell::SystemClock::Get(),
                                             workers);
  e->session = std::make_unique<sql::Session>(e->engine.get());
  e->session->set_sharing_enabled(true);
  RETURN_NOT_OK(e->session
                    ->Execute("create basket s (id int, payload int);"
                              "create basket t (id int, payload int)")
                    .status());
  ASSIGN_OR_RETURN(e->source, e->engine->GetBasket("s"));
  ASSIGN_OR_RETURN(e->agg_source, e->engine->GetBasket("t"));
  const int64_t t_reg = NowMicros();
  for (size_t q = 0; q < los.size(); ++q) {
    e->sinks.push_back(std::make_unique<QuerySink>());
    QuerySink* sink = e->sinks.back().get();
    RETURN_NOT_OK(e->session
                      ->RegisterContinuousSelect(
                          "m" + std::to_string(q), QuerySql(los[q]),
                          [sink](const Table& t) -> Status {
                            ASSIGN_OR_RETURN(size_t idx,
                                             t.ColumnIndex("id"));
                            uint64_t sum = 0;
                            for (int64_t id : t.column(idx).ints()) {
                              sum += Mix(static_cast<uint64_t>(id));
                            }
                            sink->rows.fetch_add(t.num_rows());
                            sink->checksum.fetch_add(sum);
                            return Status::OK();
                          })
                      .status());
  }
  QuerySink* agg = &e->agg;
  RETURN_NOT_OK(e->session
                    ->RegisterContinuousSelect(
                        "agg", kAggSql,
                        [agg](const Table& t) -> Status {
                          for (size_t i = 0; i < t.num_rows(); ++i) {
                            agg->rows.fetch_add(static_cast<uint64_t>(
                                t.column(0).ints()[i]));
                            agg->checksum.fetch_add(static_cast<uint64_t>(
                                t.column(1).ints()[i]));
                          }
                          return Status::OK();
                        })
                    .status());
  *register_ms = static_cast<double>(NowMicros() - t_reg) / 1e3;
  e->receptor = std::make_shared<core::Receptor>("mqo_in");
  e->receptor->AddOutput(e->source);
  e->receptor->AddOutput(e->agg_source);
  RETURN_NOT_OK(e->engine->scheduler().Start());
  return static_cast<double>(NowMicros() - t0) / 1e6;
}

// Waits until the batch has left every place: the source is empty and no
// transition is queued or firing (a firing enqueues its successors before
// it completes, so Idle() cannot read true while tuples are in flight).
Status WaitDrained(const MqoEngine& e) {
  const int64_t deadline = NowMicros() + 60'000'000;
  while (!(e.source->empty() && e.agg_source->empty() &&
           e.engine->scheduler().Idle())) {
    if (NowMicros() > deadline) {
      return Status::Internal("mqo_batch: batch not drained within 60 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return e.engine->scheduler().last_error();
}

// The generated inputs: the query ranges, a pool of batches and what each
// query should receive from each batch.
struct Inputs {
  std::vector<int64_t> los;
  std::vector<Table> pool;
  std::vector<std::vector<Expected>> expected;  // [batch][query]
  std::vector<Expected> expected_agg;           // [batch]
};

// What one sub-run process reports back through its pipe.
struct SubRun {
  char error[256] = {};  // set when the run could not complete
  double setup_s = 0;
  double register_ms = 0;
  uint64_t delivered = 0;  // batches, warm-up included
  uint64_t batches = 0;    // measured batches
  int64_t wall_us = 0;
  int64_t cpu_us = 0;
  double peak_rss_mb = 0;
  double batch_p50_us = 0, batch_p99_us = 0;
  uint64_t peak_rows = 0;
  uint64_t failed = 0;
  uint64_t failed_queries = 0;
  uint64_t first_failed_query = 0;
  bool agg_failed = false;
  TransitionTotals stage, leaf, all;
};

Status RunOne(const Shape& shape, const Inputs& in, size_t workers,
              SubRun* out) {
  MqoEngine e;
  ASSIGN_OR_RETURN(out->setup_s,
                   Setup(in.los, workers, &e, &out->register_ms));
  datacell::SystemClock* clock = datacell::SystemClock::Get();
  core::Scheduler& sched = e.engine->scheduler();
  auto is_stage = [](const std::string& n) { return n.rfind("mqo.", 0) == 0; };
  // Leaves carry the query names, m0 .. m<queries-1>.
  auto is_leaf = [](const std::string& n) {
    return n.size() > 1 && n[0] == 'm' &&
           n.find_first_not_of("0123456789", 1) == std::string::npos;
  };
  auto any = [](const std::string&) { return true; };

  auto deliver = [&]() -> Status {
    const Table& batch = in.pool[out->delivered % in.pool.size()];
    ++out->delivered;
    RETURN_NOT_OK(e.receptor->Deliver(batch, clock->Now()).status());
    return WaitDrained(e);
  };
  for (size_t i = 0; i < shape.warmup_batches; ++i) RETURN_NOT_OK(deliver());

  const TransitionTotals stage0 = SumTransitions(sched, is_stage);
  const TransitionTotals leaf0 = SumTransitions(sched, is_leaf);
  const TransitionTotals all0 = SumTransitions(sched, any);
  const int64_t cpu0 = ProcessCpuMicros();
  const int64_t t0 = NowMicros();
  std::vector<double> batch_us;
  while (NowMicros() - t0 < shape.sub_run_us ||
         batch_us.size() < shape.min_batches) {
    const int64_t b0 = NowMicros();
    RETURN_NOT_OK(deliver());
    batch_us.push_back(static_cast<double>(NowMicros() - b0));
  }
  out->wall_us = NowMicros() - t0;
  out->cpu_us = ProcessCpuMicros() - cpu0;
  out->stage = Minus(SumTransitions(sched, is_stage), stage0);
  out->leaf = Minus(SumTransitions(sched, is_leaf), leaf0);
  out->all = Minus(SumTransitions(sched, any), all0);
  out->peak_rows = std::max(e.session->optimizer().PeakResidentRows(),
                            e.source->stats().peak_rows);
  out->peak_rss_mb = PeakRssMb();
  out->batches = batch_us.size();
  out->batch_p50_us = Quantile(&batch_us, 0.5);
  out->batch_p99_us = Quantile(&batch_us, 0.99);

  // Oracle: every query's row count and checksum over all batches.
  for (size_t q = 0; q < shape.queries; ++q) {
    Expected want;
    for (size_t b = 0; b < out->delivered; ++b) {
      want.rows += in.expected[b % in.pool.size()][q].rows;
      want.checksum += in.expected[b % in.pool.size()][q].checksum;
    }
    const uint64_t got_rows = e.sinks[q]->rows.load();
    if (got_rows != want.rows || e.sinks[q]->checksum.load() != want.checksum) {
      out->failed += std::max(want.rows, got_rows);
      if (out->failed_queries++ == 0) out->first_failed_query = q;
    }
  }
  Expected want_agg;
  for (size_t b = 0; b < out->delivered; ++b) {
    want_agg.rows += in.expected_agg[b % in.pool.size()].rows;
    want_agg.checksum += in.expected_agg[b % in.pool.size()].checksum;
  }
  if (e.agg.rows.load() != want_agg.rows ||
      e.agg.checksum.load() != want_agg.checksum) {
    out->failed += want_agg.rows;
    out->agg_failed = true;
  }
  return Status::OK();
}

}  // namespace

Status RunMqoBatch(const Args& args, Report* report) {
  const Shape shape = ShapeFor(args);
  // Half the cores: on a 4-vCPU host 2 workers answer as fast as 4
  // (3.2 M tuples/s either way), and leave room for the host's other
  // tenants, whose CPU steal cut 4-worker runs to half their rate.
  const size_t workers =
      std::max(2u, std::thread::hardware_concurrency() / 2);

  // The standing queries are fixed, the residual ranges of
  // bench/bench_ablation_sharing; the batch pool comes from the seed.
  Inputs in;
  for (size_t q = 0; q < shape.queries; ++q) {
    datacell::Random query_rng(13 + q);
    in.los.push_back(static_cast<int64_t>(
        query_rng.Uniform(kPrefixBound - kResidualWidth)));
  }
  datacell::Random rng(args.seed * 0x9E3779B97F4A7C15ULL + 1);
  const Schema schema({{"id", datacell::DataType::kInt64},
                       {"payload", datacell::DataType::kInt64}});
  in.expected.resize(shape.pool_batches);
  in.expected_agg.resize(shape.pool_batches);
  // covering[v]: the queries whose range holds payload v.
  std::vector<std::vector<size_t>> covering(kPrefixBound);
  for (size_t q = 0; q < in.los.size(); ++q) {
    for (int64_t v = in.los[q]; v < in.los[q] + kResidualWidth; ++v) {
      covering[static_cast<size_t>(v)].push_back(q);
    }
  }
  for (size_t p = 0; p < shape.pool_batches; ++p) {
    Table t(schema);
    in.expected[p].resize(shape.queries);
    for (size_t i = 0; i < shape.batch_rows; ++i) {
      const int64_t id = static_cast<int64_t>(p * shape.batch_rows + i);
      const int64_t v = static_cast<int64_t>(rng.Uniform(kPayloadRange));
      t.column(0).AppendInt(id);
      t.column(1).AppendInt(v);
      if (v >= kAggBound) {
        ++in.expected_agg[p].rows;
        in.expected_agg[p].checksum += static_cast<uint64_t>(v);
      }
      if (v < kPrefixBound) {
        for (size_t q : covering[static_cast<size_t>(v)]) {
          ++in.expected[p][q].rows;
          in.expected[p][q].checksum += Mix(static_cast<uint64_t>(id));
        }
      }
    }
    in.pool.push_back(std::move(t));
  }

  // Sub-runs, each in a process of its own (this one runs no threads).
  std::vector<double> tps, cpu, rss, p50, p99, setup_s, register_ms;
  TransitionTotals stage, leaf, all;
  uint64_t tuples = 0, batches = 0, peak_rows = 0;
  double wall_s = 0;
  for (size_t r = 0; r < shape.sub_runs; ++r) {
    SubRun s;
    const bool reported = RunInChild(
        [&] {
          SubRun out;
          const Status st = RunOne(shape, in, workers, &out);
          if (!st.ok()) {
            std::snprintf(out.error, sizeof(out.error), "%s",
                          st.ToString().c_str());
          }
          return out;
        },
        &s);
    if (!reported) {
      return Status::Internal("mqo_batch sub-run " + std::to_string(r) +
                              " did not complete");
    }
    if (s.error[0] != '\0') {
      return Status::Internal("mqo_batch sub-run " + std::to_string(r) +
                              ": " + s.error);
    }
    const double sub_tuples = static_cast<double>(s.batches * shape.batch_rows);
    tps.push_back(sub_tuples * 1e6 / static_cast<double>(s.wall_us));
    cpu.push_back(static_cast<double>(s.cpu_us) / sub_tuples);
    rss.push_back(s.peak_rss_mb);
    p50.push_back(s.batch_p50_us);
    p99.push_back(s.batch_p99_us);
    setup_s.push_back(s.setup_s);
    register_ms.push_back(s.register_ms);
    tuples += s.batches * shape.batch_rows;
    batches += s.batches;
    wall_s += static_cast<double>(s.wall_us) / 1e6;
    peak_rows = std::max(peak_rows, s.peak_rows);
    MergeInto(&stage, s.stage);
    MergeInto(&leaf, s.leaf);
    MergeInto(&all, s.all);

    const uint64_t sub_attempted = s.delivered * shape.batch_rows;
    report->attempted += sub_attempted;
    report->failed += std::min(s.failed, sub_attempted);
    if (s.failed_queries > 0) {
      report->Fail("sub-run " + std::to_string(r) + ": " +
                   std::to_string(s.failed_queries) +
                   " queries answered wrongly, the first m" +
                   std::to_string(s.first_failed_query));
    }
    if (s.agg_failed) {
      report->Fail("sub-run " + std::to_string(r) +
                   ": the aggregate query's count or sum is wrong");
    }
  }

  const double t = static_cast<double>(tuples);
  report->Metric("throughput_tps", Median(tps));
  report->Metric("latency_p50_us", Median(p50));
  report->Metric("cpu_us_per_tuple", Median(cpu));
  report->Metric("peak_rss_mb", Median(rss));
  report->Metric("setup_s", Median(setup_s));

  report->Metric("latency_p99_us", Median(p99));
  report->Metric("core.fire_us_p50", all.fire_us.p50());
  report->Metric("core.fire_us_p99", all.fire_us.p99());
  report->Metric("core.firings_per_ktuple",
                 static_cast<double>(all.firings) * 1e3 / t);
  report->Metric("core.rows_per_firing",
                 static_cast<double>(all.rows_in) /
                     static_cast<double>(std::max<uint64_t>(all.firings, 1)));
  report->Metric("core.busy_pct", static_cast<double>(all.fire_us.sum) /
                                      (wall_s * 1e6) * 100);

  report->Metric("sql.stage_fire_us_p50", stage.fire_us.p50());
  report->Metric("sql.stage_fire_us_p99", stage.fire_us.p99());
  report->Metric("sql.leaf_fire_us_p50", leaf.fire_us.p50());
  report->Metric("sql.leaf_fire_us_p99", leaf.fire_us.p99());
  // Share of (tuple, query) pairs the shared stages pass on to a leaf.
  report->Metric("sql.stage_selectivity",
                 static_cast<double>(leaf.rows_in) /
                     (t * static_cast<double>(shape.queries)));
  report->Metric("ops.morsels_per_batch", static_cast<double>(all.morsels) /
                                              static_cast<double>(batches));
  report->Metric("ops.morsel_us_p50", all.morsel_us.p50());
  report->Metric("ops.morsel_us_p99", all.morsel_us.p99());
  report->Metric("core.peak_rows", static_cast<double>(peak_rows));
  report->Metric("sql.register_ms", Median(register_ms));

  report->Info("queries", static_cast<double>(shape.queries));
  report->Info("batch_rows", static_cast<double>(shape.batch_rows));
  report->Info("workers", static_cast<double>(workers));
  report->Info("connections", 0.0);
  report->Info("sub_runs", static_cast<double>(shape.sub_runs));
  report->Info("batches", static_cast<double>(batches));
  report->Info("run_seconds", wall_s);
  report->Info("setups", static_cast<double>(setup_s.size()));
  report->Info("stage_transitions", static_cast<double>(stage.transitions));
  report->Info("stage_firings", static_cast<double>(stage.firings));
  report->Info("leaf_firings", static_cast<double>(leaf.firings));
  return Status::OK();
}

}  // namespace dcbench
