// Workload wire_sql: real sockets end to end.
//
// A forked load-generator child drives 64 non-blocking sensor connections
// from one sender thread and hosts the actuator in a second thread. The
// engine process (this one) runs net::ShardedIngress with one shard; its
// receptor fans every tuple out to 17 bounded source baskets, one per
// standing SQL query on the default direct path (sharing off): 16 range
// queries that partition the value domain, so each tuple has exactly one
// range answer, and one group-by. The queries insert into one output
// basket; an emitter hands it to net::TcpEgress, which writes to the
// actuator.
//
// Two phases:
//  * closed saturation, second: at most kInFlight tuples unanswered, and
//    TCP backpressure from the bounded baskets; gives throughput_tps (the
//    median answer rate over 100 ms windows) and cpu_us_per_tuple;
//  * open loop, first, at the fixed rate kOpenRate: each sensor write is
//    due on a fixed schedule and its tuples are timed from when they were
//    due; gives the latency percentiles. The source baskets' backlog and
//    the sender's lateness are sampled; a growing backlog or a late
//    sender marks the phase unsustainable and the run failed, instead of
//    reporting a latency.
//
// Traced runs split each open-loop tuple's D(t) - C(t) into four parts
// that telescope: due -> source-basket arrival (x.dc_arrival, projected by
// every query) -> output-basket arrival (the output basket's dc_arrival)
// -> emitter sink call (a wrapper around the TcpEgress sink) -> actuator
// receipt. The parts add up to D(t) - C(t) by construction; the run checks
// that they are causally ordered. Tracing is switched on and off in 100 ms
// slices, so the untraced slices of the same run give the tracing
// overhead, which must stay within 10%.
//
// Why: small batches and many standing queries, so the gateway and the
// per-firing SQL interpreter do most of the work.

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/receptor.h"
#include "dcbench.h"
#include "net/codec.h"
#include "net/gateway.h"
#include "net/shard.h"
#include "net/socket.h"
#include "sql/session.h"
#include "util/clock.h"

namespace dcbench {
namespace {

using datacell::Result;
using datacell::Schema;
using datacell::Status;
using datacell::Table;
namespace core = datacell::core;
namespace net = datacell::net;
namespace sql = datacell::sql;

constexpr int kConnections = 64;
constexpr int kBurst = 16;  // tuples per sensor write in the open loop
constexpr int kRangeQueries = 16;
constexpr int kGroupQuery = kRangeQueries;  // q column of group-by rows
constexpr int kQueries = kRangeQueries + 1;
constexpr int64_t kRangeWidth = 1024;
constexpr int64_t kValueRange = kRangeQueries * kRangeWidth;
constexpr int64_t kKeys = 64;
constexpr size_t kBasketCapacity = 4096;
// All queries insert into one output basket, so the scheduler's conflict
// rule serialises their firings; more workers only add lock contention.
constexpr size_t kWorkers = 1;
// Open-loop rate, tuples per second aggregate. A third of the saturated
// rate (~150k/s) sits past the knee of the small-batch latency curve at
// the parent of this benchmark: gateway queueing takes the p50 to ~7 ms
// and runs do not repeat. At 20k/s the engine is below the knee (p50
// ~0.45 ms) and still spends about half a core on per-firing work.
constexpr double kOpenRate = 20'000;
constexpr int64_t kLatencyWindowUs = 200'000;
// Spare set-ups timed at each of three points of a run (start, between
// the phases, after the drain): on a shared host the set-up time moves
// with the host's state over seconds, so samples spread over the run.
constexpr size_t kSetupsPerPoint = 5;
constexpr int64_t kInFlight = 16'384;  // saturation phase closed-loop window
constexpr int kChunk = 64;
constexpr int kSendBufferBytes = 16 * 1024;
constexpr int64_t kTraceSliceUs = 100'000;
constexpr int64_t kSampleUs = 20'000;
constexpr int64_t kWindowUs = 100'000;  // saturation throughput window
constexpr size_t kWarmupWindows = 2;
constexpr int64_t kSenderQuantumUs = 50;
constexpr int64_t kDrainTimeoutUs = 30'000'000;
// Sustainability bounds of the open-loop phase: the median backlog of its
// last third may not exceed twice that of its first third plus the slack,
// and the sender's p99 lateness stays under kMaxLateP99Us.
constexpr double kMaxLateP99Us = 10'000;
constexpr double kBacklogGrowth = 2.0;
constexpr double kBacklogSlackRows = 8'192;
// Traced runs: the traced slices' median latency may differ from the
// untraced slices' by at most this share.
constexpr double kMaxTraceOverhead = 0.10;

// The sensors' stream: tuple id, due time C(t), group key, value.
Schema WireSchema() {
  return Schema({{"id", datacell::DataType::kInt64},
                 {"tag", datacell::DataType::kTimestamp},
                 {"k", datacell::DataType::kInt64},
                 {"v", datacell::DataType::kInt64}});
}

int64_t KeyOf(uint64_t seed, int64_t id) {
  return static_cast<int64_t>(Mix(seed ^ static_cast<uint64_t>(id)) %
                              static_cast<uint64_t>(kKeys));
}
int64_t ValueOf(uint64_t seed, int64_t id) {
  return static_cast<int64_t>(
      Mix((seed * 31 + 7) ^ static_cast<uint64_t>(id)) %
      static_cast<uint64_t>(kValueRange));
}

// --- Control channel between the engine and the load generator ----------

enum Op : int64_t { kConnect = 1, kSaturate, kOpen, kFinish, kReady };

struct Msg {
  int64_t op = 0;
  int64_t a = 0, b = 0, c = 0;
};

bool WriteFull(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadFull(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

template <typename T>
bool SendVector(int fd, const std::vector<T>& v) {
  const int64_t n = static_cast<int64_t>(v.size());
  return WriteFull(fd, &n, sizeof(n)) &&
         WriteFull(fd, v.data(), v.size() * sizeof(T));
}

template <typename T>
bool RecvVector(int fd, std::vector<T>* v) {
  int64_t n = 0;
  if (!ReadFull(fd, &n, sizeof(n)) || n < 0 || n > (int64_t{1} << 32)) {
    return false;
  }
  v->resize(static_cast<size_t>(n));
  return ReadFull(fd, v->data(), v->size() * sizeof(T));
}

// --- The load-generator child --------------------------------------------

// Per-query oracle state: row count and checksum of the range answers,
// and per group-by key the count and value sum.
struct Oracle {
  uint64_t rows[kRangeQueries] = {};
  uint64_t checksum[kRangeQueries] = {};
  int64_t key_count[kKeys] = {};
  int64_t key_sum[kKeys] = {};
};

// Reads the emitter's stream: the schema header, then one row per line
// (q|a|b|c|tag|src|dc_arrival). Range rows are answers for tuple id a;
// the open-loop phase's ids [open_base, open_base + recv.size()) get
// their receipt time recorded.
class ActuatorSide {
 public:
  void Start(net::TcpListener* listener) {
    thread_ = std::thread([this, listener] { Run(listener); });
  }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  // Sets the id window whose receipt times are recorded. Called while no
  // such id can be in flight (before the phase sends its first tuple).
  void Arm(int64_t base, size_t n) {
    recv_.assign(n, 0);
    open_base_.store(base);
  }

  // Starts counting range answers per kWindowUs window from t0.
  void ArmWindows(int64_t t0, size_t n) {
    windows_.assign(n, 0);
    window_t0_.store(t0);
  }

  uint64_t range_rows() const { return range_rows_.load(); }
  const std::vector<int64_t>& windows() const { return windows_; }
  bool done() const { return done_.load(); }
  const std::vector<int64_t>& recv() const { return recv_; }
  const Oracle& got() const { return got_; }
  const std::string& error() const { return error_; }

 private:
  void Run(net::TcpListener* listener) {
    Result<net::TcpStream> s = listener->Accept();
    if (!s.ok()) {
      error_ = s.status().ToString();
      done_.store(true);
      return;
    }
    const int fd = s->fd();
    std::string buf;
    buf.reserve(1 << 20);
    size_t head = 0;
    bool header = true;
    char chunk[1 << 16];
    for (;;) {
      const ssize_t r = ::read(fd, chunk, sizeof(chunk));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) break;
      const int64_t now = NowMicros();
      buf.append(chunk, static_cast<size_t>(r));
      size_t nl;
      while ((nl = buf.find('\n', head)) != std::string::npos) {
        if (header) {
          header = false;
        } else {
          Line(buf.data() + head, buf.data() + nl, now);
        }
        head = nl + 1;
      }
      if (head > (1 << 19)) {
        buf.erase(0, head);
        head = 0;
      }
    }
    done_.store(true);
  }

  void Line(const char* p, const char* end, int64_t now) {
    int64_t f[4] = {};
    for (int i = 0; i < 4 && p < end; ++i) {
      const auto r = std::from_chars(p, end, f[i]);
      p = r.ptr + 1;  // skip '|'
    }
    const int64_t q = f[0];
    if (q >= 0 && q < kRangeQueries) {
      got_.rows[q] += 1;
      got_.checksum[q] += Mix(static_cast<uint64_t>(f[1]));
      const int64_t base = open_base_.load(std::memory_order_acquire);
      if (base >= 0 && f[1] >= base &&
          f[1] - base < static_cast<int64_t>(recv_.size())) {
        recv_[static_cast<size_t>(f[1] - base)] = now;
      }
      const int64_t w0 = window_t0_.load(std::memory_order_acquire);
      if (w0 >= 0 && now >= w0) {
        const size_t w = static_cast<size_t>((now - w0) / kWindowUs);
        if (w < windows_.size()) ++windows_[w];
      }
      range_rows_.fetch_add(1, std::memory_order_release);
    } else if (q == kGroupQuery && f[1] >= 0 && f[1] < kKeys) {
      got_.key_sum[f[1]] += f[2];
      got_.key_count[f[1]] += f[3];
    } else {
      error_ = "unexpected output row with q=" + std::to_string(q);
    }
  }

  std::thread thread_;
  std::atomic<int64_t> open_base_{-1};
  std::atomic<int64_t> window_t0_{-1};
  std::vector<int64_t> windows_;
  std::vector<int64_t> recv_;
  std::atomic<uint64_t> range_rows_{0};
  std::atomic<bool> done_{false};
  Oracle got_;
  std::string error_;
};

class LoadGenerator {
 public:
  LoadGenerator(uint64_t seed, int ctl) : seed_(seed), ctl_(ctl) {}

  int Main() {
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    Result<net::TcpListener> listener = net::TcpListener::Bind(0);
    if (!listener.ok()) return 1;
    actuator_.Start(&*listener);
    Msg ready{kReady, listener->port()};
    if (!WriteFull(ctl_, &ready, sizeof(ready))) return 1;
    Msg m;
    while (ReadFull(ctl_, &m, sizeof(m))) {
      bool ok = true;
      switch (m.op) {
        case kConnect:
          ok = Connect(static_cast<uint16_t>(m.a));
          break;
        case kSaturate:
          ok = Saturate(m.a);
          break;
        case kOpen:
          ok = Open(static_cast<double>(m.a), m.b);
          break;
        case kFinish:
          return Finish() ? 0 : 1;
        default:
          ok = false;
      }
      if (!ok) return 1;
    }
    return 1;  // the engine went away
  }

 private:
  struct Conn {
    int fd = -1;
    std::string pending;
    size_t off = 0;
  };

  bool Connect(uint16_t port) {
    const std::string header =
        net::Codec(WireSchema()).EncodeSchemaHeader() + "\n";
    for (int i = 0; i < kConnections; ++i) {
      Result<net::TcpStream> s = net::TcpStream::Connect("127.0.0.1", port);
      if (!s.ok() || !s->WriteAll(header).ok() ||
          !s->SetNonBlocking(true).ok()) {
        return false;
      }
      // A small send buffer, so a stalled engine backs up into the
      // sender instead of into megabytes of socket buffer.
      const int sndbuf = kSendBufferBytes;
      ::setsockopt(s->fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
      streams_.push_back(std::move(*s));
      conns_.push_back(Conn{streams_.back().fd(), {}, 0});
    }
    Msg ok{kConnect};
    return WriteFull(ctl_, &ok, sizeof(ok));
  }

  // Appends tuple `id`, due (and stamped) at `due`, to connection `c`.
  void Emit(Conn& c, int64_t id, int64_t due) {
    const int64_t k = KeyOf(seed_, id);
    const int64_t v = ValueOf(seed_, id);
    char line[96];
    char* p = line;
    for (int64_t f : {id, due, k, v}) {
      p = std::to_chars(p, line + sizeof(line), f).ptr;
      *p++ = '|';
    }
    p[-1] = '\n';
    c.pending.append(line, static_cast<size_t>(p - line));
    const size_t q = static_cast<size_t>(v / kRangeWidth);
    want_.rows[q] += 1;
    want_.checksum[q] += Mix(static_cast<uint64_t>(id));
    want_.key_count[k] += 1;
    want_.key_sum[k] += v;
    ++sent_;
  }

  // Writes what the connection has pending; false on a socket error.
  static bool Flush(Conn* c) {
    while (c->off < c->pending.size()) {
      const ssize_t w = ::send(c->fd, c->pending.data() + c->off,
                               c->pending.size() - c->off, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (w <= 0) return false;
      c->off += static_cast<size_t>(w);
    }
    c->pending.clear();
    c->off = 0;
    return true;
  }

  // Blocks until every connection's pending bytes are written.
  bool FlushAll() {
    for (;;) {
      std::vector<pollfd> fds;
      for (Conn& c : conns_) {
        if (!Flush(&c)) return false;
        if (!c.pending.empty()) fds.push_back({c.fd, POLLOUT, 0});
      }
      if (fds.empty()) return true;
      if (::poll(fds.data(), fds.size(), 1000) < 0 && errno != EINTR) {
        return false;
      }
    }
  }

  // Waits until every range answer for the tuples sent so far arrived.
  bool WaitAnswered(int64_t* last_answer) {
    const int64_t deadline = NowMicros() + kDrainTimeoutUs;
    while (actuator_.range_rows() < static_cast<uint64_t>(sent_)) {
      if (NowMicros() > deadline || actuator_.done()) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    *last_answer = NowMicros();
    return true;
  }

  // Closed loop: at most kInFlight tuples sent and not yet answered. The
  // sender fills connections round-robin with kChunk-tuple writes while
  // the window has room; TCP backpressure from the bounded baskets also
  // holds it back. The actuator counts answers per kWindowUs window.
  bool Saturate(int64_t duration_us) {
    const int64_t t0 = NowMicros();
    const int64_t first_id = sent_;
    actuator_.ArmWindows(t0, static_cast<size_t>(duration_us / kWindowUs));
    size_t next = 0;
    while (NowMicros() - t0 < duration_us) {
      bool progressed = false;
      for (size_t n = 0; n < conns_.size(); ++n) {
        Conn& c = conns_[next];
        next = (next + 1) % conns_.size();
        if (c.pending.empty()) {
          const int64_t outstanding =
              sent_ - static_cast<int64_t>(actuator_.range_rows());
          if (outstanding + kChunk > kInFlight) break;
          const int64_t now = NowMicros();
          for (int i = 0; i < kChunk; ++i) Emit(c, sent_, now);
          progressed = true;
        }
        if (!Flush(&c)) return false;
      }
      if (!progressed) {
        std::this_thread::sleep_for(std::chrono::microseconds(kSenderQuantumUs));
      }
    }
    if (!FlushAll()) return false;
    int64_t last = 0;
    const bool answered = WaitAnswered(&last);
    Msg done{kSaturate, sent_ - first_id, t0, answered ? last : 0};
    return WriteFull(ctl_, &done, sizeof(done)) &&
           SendVector(ctl_, actuator_.windows());
  }

  // Open loop at `rate` tuples/s for `duration_us`: burst k of kBurst
  // tuples goes to connection k % kConnections and is due (and stamped)
  // at t0 + k * kBurst / rate, whatever the engine does meanwhile.
  bool Open(double rate, int64_t duration_us) {
    const int64_t base = sent_;  // ids continue from any earlier phase
    const int64_t bursts = static_cast<int64_t>(
        rate * static_cast<double>(duration_us) / 1e6 / kBurst);
    const size_t n = static_cast<size_t>(bursts * kBurst);
    actuator_.Arm(base, n);
    std::vector<int64_t> due(n);
    std::vector<int64_t> late(static_cast<size_t>(bursts));
    const int64_t t0 = NowMicros() + 1000;
    const double gap = 1e6 * kBurst / rate;
    auto due_of = [&](int64_t k) {
      return t0 + static_cast<int64_t>(static_cast<double>(k) * gap);
    };
    int64_t k = 0;
    while (k < bursts) {
      const int64_t now = NowMicros();
      for (; k < bursts && due_of(k) <= now; ++k) {
        const int64_t d = due_of(k);
        late[static_cast<size_t>(k)] = now - d;
        Conn& c = conns_[static_cast<size_t>(k % kConnections)];
        for (int i = 0; i < kBurst; ++i) {
          due[static_cast<size_t>(k * kBurst + i)] = d;
          Emit(c, base + k * kBurst + i, d);
        }
        if (!Flush(&c)) return false;
      }
      if (k < bursts) {
        const int64_t wake =
            std::max(due_of(k), NowMicros() + kSenderQuantumUs);
        timespec ts{wake / 1'000'000, (wake % 1'000'000) * 1000};
        while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
               EINTR) {
        }
      }
      // Retry connections a full send buffer left with pending bytes.
      for (Conn& c : conns_) {
        if (!c.pending.empty() && !Flush(&c)) return false;
      }
    }
    if (!FlushAll()) return false;
    int64_t last = 0;
    const bool answered = WaitAnswered(&last);
    Msg done{kOpen, static_cast<int64_t>(n), base, answered ? 1 : 0};
    return WriteFull(ctl_, &done, sizeof(done)) && SendVector(ctl_, due) &&
           SendVector(ctl_, late) && SendVector(ctl_, actuator_.recv());
  }

  // Closes the sensors, waits for the emitter's EOF and checks every
  // query's answers against what was sent.
  bool Finish() {
    for (net::TcpStream& s : streams_) s.ShutdownWrite().IgnoreError();
    actuator_.Join();
    const Oracle& got = actuator_.got();
    int64_t failed = 0;
    std::string why = actuator_.error();
    for (int q = 0; q < kRangeQueries; ++q) {
      if (got.rows[q] != want_.rows[q] ||
          got.checksum[q] != want_.checksum[q]) {
        failed += static_cast<int64_t>(std::max(got.rows[q], want_.rows[q]));
        why += " q" + std::to_string(q) + ": " + std::to_string(got.rows[q]) +
               " rows, expected " + std::to_string(want_.rows[q]) + ";";
      }
    }
    for (int k = 0; k < kKeys; ++k) {
      if (got.key_count[k] != want_.key_count[k] ||
          got.key_sum[k] != want_.key_sum[k]) {
        failed += std::max(got.key_count[k], want_.key_count[k]);
        why += " group key " + std::to_string(k) + ": count " +
               std::to_string(got.key_count[k]) + ", expected " +
               std::to_string(want_.key_count[k]) + ";";
      }
    }
    Msg done{kFinish, sent_, failed, static_cast<int64_t>(why.size())};
    return WriteFull(ctl_, &done, sizeof(done)) &&
           WriteFull(ctl_, why.data(), why.size());
  }

  uint64_t seed_;
  int ctl_;
  ActuatorSide actuator_;
  std::vector<net::TcpStream> streams_;
  std::vector<Conn> conns_;
  int64_t sent_ = 0;  // tuples emitted so far; also the next tuple id
  Oracle want_;
};

// --- The engine side ------------------------------------------------------

// Per-tuple stamps the traced sink wrapper records for open-loop ids.
struct SplitRecorder {
  std::atomic<bool> on{false};
  int64_t base = 0;
  std::vector<int64_t> src, out, sink;  // indexed by id - base
  std::vector<double> sink_call_us;
};

// One engine up to ready: baskets, the 17 standing queries, the emitter,
// the receptor and a running ShardedIngress. Member order is teardown
// order in reverse.
struct WireEngine {
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<sql::Session> session;
  std::vector<core::BasketPtr> sources;
  core::BasketPtr out;
  core::ReceptorPtr receptor;
  std::unique_ptr<net::ShardedIngress> ingress;

  ~WireEngine() {
    if (ingress != nullptr) ingress->Stop();
    if (engine != nullptr) engine->scheduler().Stop();
  }
};

std::string RangeSql(int q) {
  return "insert into wout select " + std::to_string(q) +
         ", x.id, x.v, 1, x.tag, x.dc_arrival from [select * from s" +
         std::to_string(q) + "] as x where x.v >= " +
         std::to_string(q * kRangeWidth) + " and x.v < " +
         std::to_string((q + 1) * kRangeWidth);
}

std::string GroupSql() {
  return "insert into wout select " + std::to_string(kGroupQuery) +
         ", x.k, sum(x.v), count(*), max(x.tag), max(x.dc_arrival) from "
         "[select * from s" +
         std::to_string(kGroupQuery) + "] as x group by x.k";
}

// Builds the engine; returns set-up seconds and the query registration
// share in *register_ms.
Result<double> Setup(core::Emitter::Sink sink, WireEngine* w,
                     double* register_ms) {
  const int64_t t0 = NowMicros();
  datacell::SystemClock* clock = datacell::SystemClock::Get();
  w->engine = std::make_unique<core::Engine>(clock, kWorkers);
  w->session = std::make_unique<sql::Session>(w->engine.get());
  std::string ddl;
  for (int q = 0; q < kQueries; ++q) {
    ddl += "create basket s" + std::to_string(q) +
           " (id int, tag timestamp, k int, v int);";
  }
  ddl +=
      "create basket wout (q int, a int, b int, c int, tag timestamp, "
      "src timestamp);";
  RETURN_NOT_OK(w->session->Execute(ddl).status());
  w->receptor = std::make_shared<core::Receptor>("wire_in");
  for (int q = 0; q < kQueries; ++q) {
    ASSIGN_OR_RETURN(core::BasketPtr b,
                     w->engine->GetBasket("s" + std::to_string(q)));
    b->SetCapacity(kBasketCapacity);
    w->receptor->AddOutput(b);
    w->sources.push_back(b);
  }
  ASSIGN_OR_RETURN(w->out, w->engine->GetBasket("wout"));
  const int64_t t_reg = NowMicros();
  for (int q = 0; q < kRangeQueries; ++q) {
    RETURN_NOT_OK(w->session
                      ->RegisterContinuousQuery("w" + std::to_string(q),
                                                RangeSql(q))
                      .status());
  }
  RETURN_NOT_OK(w->session->RegisterContinuousQuery(
                    "w" + std::to_string(kGroupQuery), GroupSql())
                    .status());
  *register_ms = static_cast<double>(NowMicros() - t_reg) / 1e3;
  auto emitter = std::make_shared<core::Emitter>("wire_emit", std::move(sink));
  emitter->AddInput(w->out);
  w->engine->scheduler().Register(emitter);
  net::ShardedIngressOptions opts;
  opts.num_shards = 1;
  w->ingress = std::make_unique<net::ShardedIngress>(
      std::vector<core::ReceptorPtr>{w->receptor},
      net::Codec(WireSchema()), clock, opts);
  RETURN_NOT_OK(w->ingress->Start(0));
  RETURN_NOT_OK(w->engine->scheduler().Start());
  return static_cast<double>(NowMicros() - t0) / 1e6;
}

size_t ResidentRows(const WireEngine& w) {
  size_t rows = 0;
  for (const core::BasketPtr& b : w.sources) rows += b->size();
  return rows;
}

// Stops and reaps the child on every exit path.
struct ChildGuard {
  pid_t pid = -1;
  int ctl = -1;
  ~ChildGuard() {
    if (ctl >= 0) ::close(ctl);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

Status ExpectMsg(int fd, int64_t op, Msg* m) {
  if (!ReadFull(fd, m, sizeof(*m)) || m->op != op) {
    return Status::Internal("load generator failed (phase " +
                            std::to_string(op) + ")");
  }
  return Status::OK();
}

double Pct(std::vector<double> v, double q) { return Quantile(&v, q); }

}  // namespace

Status RunWireSql(const Args& args, Report* report) {
  // The open loop gets 25% of --seconds and saturation 55%; set-up and
  // drains take the rest. The answer rate drifts over seconds on a shared
  // host, so the throughput phase gets the larger share.
  const double seconds = static_cast<double>(args.seconds);
  const int64_t open_us =
      static_cast<int64_t>((args.smoke ? 0.3 : 0.25 * seconds) * 1e6);
  const int64_t sat_us =
      static_cast<int64_t>((args.smoke ? 0.3 : 0.55 * seconds) * 1e6);
  const double rate = args.smoke ? 5'000 : kOpenRate;

  // Fork before any thread exists in this process.
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    return Status::IOError("socketpair failed");
  }
  ChildGuard child;
  child.pid = ::fork();
  if (child.pid < 0) return Status::IOError("fork failed");
  if (child.pid == 0) {
    ::close(sv[0]);
    LoadGenerator gen(args.seed, sv[1]);
    ::_exit(gen.Main());
  }
  ::close(sv[1]);
  child.ctl = sv[0];
  const int ctl = child.ctl;

  Msg m;
  RETURN_NOT_OK(ExpectMsg(ctl, kReady, &m));
  const uint16_t actuator_port = static_cast<uint16_t>(m.a);
  ASSIGN_OR_RETURN(std::unique_ptr<net::TcpEgress> egress,
                   net::TcpEgress::Connect("127.0.0.1", actuator_port));

  // Set-up, several times; the last engine is the measured one, with the
  // egress sink (wrapped so traced slices can stamp each row).
  auto rec = std::make_shared<SplitRecorder>();
  core::Emitter::Sink egress_sink = egress->MakeSink();
  core::Emitter::Sink sink = egress_sink;
  if (args.trace) {
    sink = [rec, egress_sink](const Table& t) -> Status {
      if (!rec->on.load(std::memory_order_acquire)) return egress_sink(t);
      const int64_t now = NowMicros();
      const auto q = t.column(0).ints();
      const auto id = t.column(1).ints();
      const auto src = t.column(5).ints();
      const auto out = t.column(6).ints();  // wout's own dc_arrival
      for (size_t i = 0; i < t.num_rows(); ++i) {
        const int64_t slot = id[i] - rec->base;
        if (q[i] < kRangeQueries && slot >= 0 &&
            slot < static_cast<int64_t>(rec->sink.size())) {
          rec->src[static_cast<size_t>(slot)] = src[i];
          rec->out[static_cast<size_t>(slot)] = out[i];
          rec->sink[static_cast<size_t>(slot)] = now;
        }
      }
      const Status s = egress_sink(t);
      rec->sink_call_us.push_back(static_cast<double>(NowMicros() - now));
      return s;
    };
  }
  std::vector<double> setup_s, register_ms;
  const size_t spares = args.smoke ? 1 : kSetupsPerPoint;
  auto time_spare_setups = [&]() -> Status {
    for (size_t i = 0; i < spares; ++i) {
      WireEngine spare;
      double reg = 0;
      ASSIGN_OR_RETURN(
          double s,
          Setup([](const Table&) { return Status::OK(); }, &spare, &reg));
      setup_s.push_back(s);
      register_ms.push_back(reg);
    }
    return Status::OK();
  };
  RETURN_NOT_OK(time_spare_setups());
  auto w = std::make_unique<WireEngine>();
  {
    double reg = 0;
    ASSIGN_OR_RETURN(double s, Setup(sink, w.get(), &reg));
    setup_s.push_back(s);
    register_ms.push_back(reg);
  }
  core::Scheduler& sched = w->engine->scheduler();
  auto any = [](const std::string&) { return true; };

  Msg connect{kConnect, w->ingress->port()};
  if (!WriteFull(ctl, &connect, sizeof(connect))) {
    return Status::IOError("control channel closed");
  }
  RETURN_NOT_OK(ExpectMsg(ctl, kConnect, &m));

  // Open-loop phase first, from an idle engine. Tracing (traced runs)
  // alternates in kTraceSliceUs slices; the backlog is sampled meanwhile.
  const size_t n_open =
      static_cast<size_t>(rate * static_cast<double>(open_us) / 1e6 /
                          kBurst) *
      kBurst;
  rec->base = 0;
  rec->src.assign(n_open, 0);
  rec->out.assign(n_open, 0);
  rec->sink.assign(n_open, 0);
  Msg open{kOpen, static_cast<int64_t>(rate), open_us};
  if (!WriteFull(ctl, &open, sizeof(open))) {
    return Status::IOError("control channel closed");
  }
  std::vector<double> backlog;
  const int64_t open_t0 = NowMicros();
  const int64_t open_cpu0 = ProcessCpuMicros();
  for (;;) {
    pollfd p{ctl, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(kSampleUs / 1000)) > 0) break;
    const int64_t elapsed = NowMicros() - open_t0;
    if (elapsed <= open_us) {
      backlog.push_back(static_cast<double>(ResidentRows(*w)));
    }
    if (args.trace) {
      rec->on.store((elapsed / kTraceSliceUs) % 2 == 1,
                    std::memory_order_release);
    }
  }
  rec->on.store(false, std::memory_order_release);
  report->Info("open_engine_cores",
               static_cast<double>(ProcessCpuMicros() - open_cpu0) /
                   static_cast<double>(NowMicros() - open_t0));
  RETURN_NOT_OK(ExpectMsg(ctl, kOpen, &m));
  if (m.a != static_cast<int64_t>(n_open) || m.b != rec->base) {
    return Status::Internal("open-loop phase: id window mismatch");
  }
  if (m.c != 1) {
    report->Fail("open-loop phase: not every tuple was answered within " +
                 std::to_string(kDrainTimeoutUs / 1'000'000) + " s");
  }
  std::vector<int64_t> due, late, recv;
  if (!RecvVector(ctl, &due) || !RecvVector(ctl, &late) ||
      !RecvVector(ctl, &recv) || due.size() != n_open ||
      recv.size() != n_open) {
    return Status::IOError("open-loop phase: result transfer failed");
  }

  RETURN_NOT_OK(time_spare_setups());

  // Closed saturation phase.
  const TransitionTotals q0 = SumTransitions(sched, any);
  const uint64_t bp0 = w->ingress->backpressure_engagements();
  const uint64_t stalls0 = w->ingress->shard_stats(0).credit_stalls;
  const int64_t cpu0 = ProcessCpuMicros();
  Msg sat{kSaturate, sat_us};
  if (!WriteFull(ctl, &sat, sizeof(sat))) {
    return Status::IOError("control channel closed");
  }
  RETURN_NOT_OK(ExpectMsg(ctl, kSaturate, &m));
  const int64_t cpu_sat = ProcessCpuMicros() - cpu0;
  const int64_t sat_sent = m.a;
  const int64_t sat_t0 = m.b;
  const int64_t sat_last = m.c;
  std::vector<int64_t> windows;
  if (!RecvVector(ctl, &windows)) {
    return Status::IOError("saturation phase: result transfer failed");
  }
  const TransitionTotals qsat = Minus(SumTransitions(sched, any), q0);
  const uint64_t bp = w->ingress->backpressure_engagements() - bp0;
  const uint64_t stalls = w->ingress->shard_stats(0).credit_stalls - stalls0;
  if (sat_last == 0) {
    report->Fail("saturation phase: not every tuple was answered within " +
                 std::to_string(kDrainTimeoutUs / 1'000'000) + " s");
  }
  // Answer rate per window while the sender kept the pipe full, past the
  // warm-up windows; the median window is the saturated throughput.
  std::vector<double> window_tps;
  for (size_t i = std::min(kWarmupWindows, windows.size() / 2);
       i < windows.size(); ++i) {
    window_tps.push_back(static_cast<double>(windows[i]) * 1e6 / kWindowUs);
  }

  // Drain: every basket empties (consume-all queries leave no residue).
  const int64_t drain_deadline = NowMicros() + kDrainTimeoutUs;
  while (!(ResidentRows(*w) == 0 && w->out->empty() && sched.Idle())) {
    if (NowMicros() > drain_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const size_t residual = ResidentRows(*w) + w->out->size();
  if (residual != 0) {
    report->Fail("after the drain " + std::to_string(residual) +
                 " rows are still resident");
  }
  RETURN_NOT_OK(time_spare_setups());
  RETURN_NOT_OK(egress->Finish());
  Msg fin{kFinish};
  if (!WriteFull(ctl, &fin, sizeof(fin))) {
    return Status::IOError("control channel closed");
  }
  RETURN_NOT_OK(ExpectMsg(ctl, kFinish, &m));
  std::string why(static_cast<size_t>(std::max<int64_t>(m.c, 0)), '\0');
  if (!ReadFull(ctl, why.data(), why.size())) {
    return Status::IOError("oracle transfer failed");
  }
  const int64_t sent = m.a;
  uint64_t failed = static_cast<uint64_t>(m.b);
  if (failed > 0 || !why.empty()) report->Fail("oracle:" + why);
  int status = 0;
  ::waitpid(child.pid, &status, 0);
  child.pid = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    report->Fail("load generator exited abnormally");
  }
  const uint64_t dropped = w->ingress->tuples_dropped();
  w->ingress->Stop();
  sched.Stop();  // joins the workers: the recorder is now safe to read

  // Open-loop latency, split into traced and untraced slices.
  std::vector<double> lat_all, lat_plain;
  std::vector<double> lateness(late.begin(), late.end());
  std::vector<double> ingress, wait_fire, emit_wait, egress_part;
  std::vector<std::vector<double>> lat_windows;  // by due time
  uint64_t lost = 0;
  uint64_t misordered = 0;
  for (size_t j = 0; j < n_open; ++j) {
    if (recv[j] == 0) {
      ++lost;
      continue;
    }
    const double total = static_cast<double>(recv[j] - due[j]);
    lat_all.push_back(total);
    const size_t win =
        static_cast<size_t>((due[j] - due[0]) / kLatencyWindowUs);
    if (win >= lat_windows.size()) lat_windows.resize(win + 1);
    lat_windows[win].push_back(total);
    if (rec->sink[j] == 0) {
      lat_plain.push_back(total);
      continue;
    }
    ingress.push_back(static_cast<double>(rec->src[j] - due[j]));
    wait_fire.push_back(static_cast<double>(rec->out[j] - rec->src[j]));
    emit_wait.push_back(static_cast<double>(rec->sink[j] - rec->out[j]));
    egress_part.push_back(static_cast<double>(recv[j] - rec->sink[j]));
    // The stamps come from one monotonic clock in two processes and must
    // be causally ordered; a negative part means the split is broken.
    if (ingress.back() < 0 || wait_fire.back() < 0 || emit_wait.back() < 0 ||
        egress_part.back() < 0) {
      ++misordered;
    }
  }
  if (misordered > 0) {
    report->Fail("latency split: " + std::to_string(misordered) +
                 " tuples with a negative part");
  }
  failed += lost + dropped;

  // Sustainability of the open-loop phase.
  const size_t third = backlog.size() / 3;
  const double backlog_first =
      Median(std::vector<double>(backlog.begin(), backlog.begin() + third));
  const double backlog_last =
      Median(std::vector<double>(backlog.end() - third, backlog.end()));
  const double late_p99 = Pct(lateness, 0.99);
  if (backlog_last > kBacklogGrowth * backlog_first + kBacklogSlackRows) {
    report->Fail("open-loop phase unsustainable at " + std::to_string(rate) +
                 " tuples/s: source backlog grew from " +
                 std::to_string(backlog_first) + " to " +
                 std::to_string(backlog_last) + " rows");
  }
  if (late_p99 > kMaxLateP99Us) {
    report->Fail("open-loop phase unsustainable: sender p99 lateness " +
                 std::to_string(late_p99) + " us");
  }

  report->attempted = static_cast<uint64_t>(sent);
  report->failed = std::min<uint64_t>(failed, static_cast<uint64_t>(sent));

  const double sat_wall = static_cast<double>(sat_last - sat_t0);
  report->Metric("throughput_tps", Median(window_tps));
  // The median over 200 ms windows of each window's p50, so a host
  // stall that hits a few windows does not move the run's figure.
  std::vector<double> window_p50;
  for (std::vector<double>& v : lat_windows) {
    if (!v.empty()) window_p50.push_back(Quantile(&v, 0.5));
  }
  report->Metric("latency_p50_us", Median(window_p50));
  report->Metric("latency_p99_us", Pct(lat_all, 0.99));
  report->Metric("cpu_us_per_tuple", static_cast<double>(cpu_sat) /
                                         static_cast<double>(sat_sent));
  report->Metric("peak_rss_mb", PeakRssMb());
  report->Metric("setup_s", Median(setup_s));

  if (args.trace) {
    report->Metric("net.ingress_us_p50", Pct(ingress, 0.5));
    report->Metric("net.ingress_us_p99", Pct(ingress, 0.99));
    report->Metric("core.wait_fire_us_p50", Pct(wait_fire, 0.5));
    report->Metric("core.wait_fire_us_p99", Pct(wait_fire, 0.99));
    report->Metric("core.emit_wait_us_p50", Pct(emit_wait, 0.5));
    report->Metric("core.emit_wait_us_p99", Pct(emit_wait, 0.99));
    report->Metric("net.egress_us_p50", Pct(egress_part, 0.5));
    report->Metric("net.egress_us_p99", Pct(egress_part, 0.99));
    // Per tuple the four parts sum to its D(t) - C(t) by construction;
    // what the split can get wrong is their order, checked above. The
    // traced slices' median part sum is set against the untraced slices'
    // median D(t) - C(t): the difference is the tracing overhead, and the
    // traced split must stay within 10% of the untraced end-to-end figure.
    // A smoke run's few slices are too small a sample for that check.
    std::vector<double> sums;
    for (size_t i = 0; i < ingress.size(); ++i) {
      sums.push_back(ingress[i] + wait_fire[i] + emit_wait[i] +
                     egress_part[i]);
    }
    const double split = Pct(sums, 0.5);
    const double plain = Pct(lat_plain, 0.5);
    const double overhead = plain > 0 ? split / plain - 1 : 0;
    if (!args.smoke && (sums.empty() || lat_plain.empty() ||
                        std::abs(overhead) > kMaxTraceOverhead)) {
      report->Fail("latency split: traced median " + std::to_string(split) +
                   " us is not within 10% of the untraced median " +
                   std::to_string(plain) + " us");
    }
    report->Metric("trace.overhead_pct", overhead * 100);
    report->Info("split_sum_p50_us", split);
    report->Info("untraced_p50_us", plain);
    report->Info("traced_tuples", static_cast<double>(sums.size()));
    report->Info("untraced_tuples", static_cast<double>(lat_plain.size()));
    report->Metric("net.sink_us_p50", Pct(rec->sink_call_us, 0.5));
    report->Metric("net.sink_us_p99", Pct(rec->sink_call_us, 0.99));
  }
  // Firing-layer figures over the saturation phase, all transitions.
  const double sat_tuples = static_cast<double>(sat_sent);
  report->Metric("core.fire_us_p50", qsat.fire_us.p50());
  report->Metric("core.fire_us_p99", qsat.fire_us.p99());
  report->Metric("core.firings_per_ktuple",
                 static_cast<double>(qsat.firings) * 1e3 / sat_tuples);
  report->Metric("core.rows_per_firing",
                 static_cast<double>(qsat.rows_in) /
                     static_cast<double>(std::max<uint64_t>(qsat.firings, 1)));
  report->Metric("core.busy_pct", static_cast<double>(qsat.fire_us.sum) /
                                      sat_wall * 100);
  report->Metric("net.backpressure_engagements", static_cast<double>(bp));
  report->Metric("net.credit_stalls", static_cast<double>(stalls));
  report->Metric("core.backlog_rows_max",
                 backlog.empty() ? 0.0
                                 : *std::max_element(backlog.begin(),
                                                     backlog.end()));
  report->Metric("loadgen.late_us_p99", late_p99);
  report->Metric("sql.register_ms", Median(register_ms));

  report->Info("connections", static_cast<double>(kConnections));
  report->Info("sender_threads", 1.0);
  report->Info("workers", static_cast<double>(kWorkers));
  report->Info("shards", 1.0);
  report->Info("queries", static_cast<double>(kQueries));
  report->Info("basket_capacity", static_cast<double>(kBasketCapacity));
  report->Info("open_rate_tps", rate);
  report->Info("saturation_s", sat_wall / 1e6);
  report->Info("saturation_overall_tps",
               sat_last == 0 ? 0.0
                             : static_cast<double>(sat_sent) * 1e6 / sat_wall);
  report->Info("saturation_tuples", static_cast<double>(sat_sent));
  report->Info("open_s", static_cast<double>(open_us) / 1e6);
  report->Info("open_tuples", static_cast<double>(n_open));
  report->Info("backlog_first_third_rows", backlog_first);
  report->Info("backlog_last_third_rows", backlog_last);
  report->Info("setups", static_cast<double>(setup_s.size()));
  return Status::OK();
}

}  // namespace dcbench

