// dcbench: the DataCell benchmark driver binary. Runs one workload and
// prints one JSON line with the host fingerprint, the run's arguments,
// the correctness verdict and every metric; run.py turns that line into
// the benchmark's result. See README.md.
//
//   dcbench --workload wire_sql|lroad|mqo_batch --seed N --seconds S
//           --trace 0|1 [--smoke]

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "dcbench.h"
#include "util/clock.h"
#include "util/simd.h"

namespace dcbench {

void Report::Info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  info.emplace_back(key, buf);
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*v)[lo] + frac * ((*v)[hi] - (*v)[lo]);
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

void MergeInto(datacell::obs::HistogramSnapshot* into,
               const datacell::obs::HistogramSnapshot& h) {
  into->count += h.count;
  into->sum += h.sum;
  into->max = std::max(into->max, h.max);
  for (size_t i = 0; i < datacell::obs::HistogramSnapshot::kBuckets; ++i) {
    into->counts[i] += h.counts[i];
  }
}

datacell::obs::HistogramSnapshot Minus(
    const datacell::obs::HistogramSnapshot& after,
    const datacell::obs::HistogramSnapshot& before) {
  datacell::obs::HistogramSnapshot d = after;
  d.count -= before.count;
  d.sum -= before.sum;
  for (size_t i = 0; i < datacell::obs::HistogramSnapshot::kBuckets; ++i) {
    d.counts[i] -= before.counts[i];
  }
  return d;
}

TransitionTotals Minus(const TransitionTotals& after,
                       const TransitionTotals& before) {
  TransitionTotals d = after;
  d.firings -= before.firings;
  d.rows_in -= before.rows_in;
  d.rows_out -= before.rows_out;
  d.morsels -= before.morsels;
  d.fire_us = Minus(after.fire_us, before.fire_us);
  d.morsel_us = Minus(after.morsel_us, before.morsel_us);
  return d;
}

void MergeInto(TransitionTotals* into, const TransitionTotals& t) {
  into->transitions = std::max(into->transitions, t.transitions);
  into->firings += t.firings;
  into->rows_in += t.rows_in;
  into->rows_out += t.rows_out;
  into->morsels += t.morsels;
  MergeInto(&into->fire_us, t.fire_us);
  MergeInto(&into->morsel_us, t.morsel_us);
}

int64_t ProcessCpuMicros() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t NowMicros() { return datacell::SystemClock::Get()->Now(); }

bool WriteAll(int fd, const void* p, size_t n) {
  const char* c = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t w = ::write(fd, c, n);
    if (w <= 0) return false;
    c += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool RunForked(const std::function<void(int fd)>& child, void* out,
               size_t size) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    child(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);
  char* p = static_cast<char*>(out);
  size_t left = size;
  while (left > 0) {
    const ssize_t r = ::read(fds[0], p, left);
    if (r <= 0) break;
    p += r;
    left -= static_cast<size_t>(r);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return left == 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintReport(const Args& args, const Report& r) {
  std::string out = "{";
  out += "\"workload\": " + JsonString(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + std::to_string(args.seconds);
  out += ", \"trace\": " + std::to_string(args.trace ? 1 : 0);
  out += std::string(", \"smoke\": ") + (args.smoke ? "true" : "false");
  out += ", \"host\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd\": " +
         JsonString(datacell::simd::LevelName(datacell::simd::ActiveLevel())) +
         ", \"compiler\": " + JsonString(DCBENCH_COMPILER) +
         ", \"build_type\": " + JsonString(DCBENCH_BUILD_TYPE) + "}";
  out += std::string(", \"correct\": ") + (r.correct ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(r.metrics[i].first) + ": " +
           JsonNumber(r.metrics[i].second);
  }
  out += "}, \"info\": {";
  for (size_t i = 0; i < r.info.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(r.info[i].first) + ": " + JsonString(r.info[i].second);
  }
  out += "}, \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(r.errors[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: dcbench --workload wire_sql|lroad|mqo_batch "
               "--seed N --seconds S --trace 0|1 [--smoke]\n");
  return 2;
}

}  // namespace
}  // namespace dcbench

int main(int argc, char** argv) {
  dcbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::atoi(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return dcbench::Usage();
    }
  }
  if (args.seconds < 1) return dcbench::Usage();

  dcbench::Report report;
  datacell::Status status;
  if (args.workload == "wire_sql") {
    status = dcbench::RunWireSql(args, &report);
  } else if (args.workload == "lroad") {
    status = dcbench::RunLroad(args, &report);
  } else if (args.workload == "mqo_batch") {
    status = dcbench::RunMqoBatch(args, &report);
  } else {
    return dcbench::Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "dcbench %s failed: %s\n", args.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  dcbench::PrintReport(args, report);
  return 0;
}
