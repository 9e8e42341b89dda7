// TPC-C benchmark: one workload, one seed, one measured window.
//
//   tpcc_bench --workload <tpcc-mix|tpcc-async|tpcc-readonly> --seed <n>
//              [--seconds <s>] [--trace <0|1>] [--data-dir <dir>]
//              [--trace-dir <dir>] [--buffer-mb <n>] [--load-buffer-mb <n>]
//
// A closed loop: one generator thread keeps one transaction outstanding per
// client, one client per scheduler task slot. Every transaction is one
// scheduler task running a public TPC-C procedure; latency runs from
// submission to the acknowledged result. Untraced runs print the end-to-end
// metrics, traced runs (--trace 1) the per-layer metrics, both as
// "metric <name> <value> <unit>" lines followed by one JSON result line.
// See README.md in this directory.

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/profiler.h"
#include "core/database.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "io/io_stats.h"
#include "runtime/scheduler.h"
#include "tpcc/tpcc_driver.h"
#include "tpcc/tpcc_loader.h"
#include "tpcc/tpcc_txns.h"
#include "tpccbench/checks.h"
#include "tpccbench/trace.h"

namespace tpccbench {
namespace {

namespace tpcc = phoebe::tpcc;
using phoebe::DatabaseOptions;
using phoebe::Env;
using phoebe::FaultInjectionEnv;
using phoebe::IoStats;
using phoebe::NowNanos;
using phoebe::OpContext;
using phoebe::Profiler;
using phoebe::RowId;
using phoebe::Scheduler;
using phoebe::SchedulerStats;
using phoebe::Slice;
using phoebe::TaskEnv;
using phoebe::TaskFn;
using phoebe::Transaction;
using phoebe::TxnTask;
using phoebe::Value;
using phoebe::WaitKind;
using phoebe::YieldWait;

// Fixed shape of every workload (README "Workloads"). Two workers, pinned
// to CPUs 0 and 1, leave the other two vCPUs of a 4-vCPU host to the WAL
// flushers, the I/O threads and the generator. With four workers the
// run-to-run spread of tpm was ~20%; unpinned, tpcc-readonly (CPU-bound on
// the workers) spread 6-8%, pinned about 2%.
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kSlotsPerWorker = 8;
constexpr uint32_t kClients = kWorkers * kSlotsPerWorker;
constexpr int kWarehouses = 4;
constexpr uint32_t kMaxRetries = 5;
constexpr double kWarmupSeconds = 1.0;
/// No completion for this long while transactions are outstanding is a hang.
constexpr double kStallSeconds = 30.0;
/// Traced runs record the spans of one in this many transactions of each
/// client (the metrics count every transaction); about 6 spans each.
constexpr uint64_t kDetailEvery = 64;
constexpr size_t kSpansPerClient = 4096;

enum TxnType : uint8_t {
  kNewOrderT = 0, kPaymentT, kOrderStatusT, kDeliveryT, kStockLevelT,
  kNumTypes,
};
const char* const kTypeNames[kNumTypes] = {
    "new_order", "payment", "order_status", "delivery", "stock_level"};

struct WorkloadSpec {
  const char* name;
  std::array<int, kNumTypes> mix;  // percent per TxnType
  bool wal_sync;
  uint64_t buffer_mb;  // holds the loaded data plus everything a run inserts
};

// Why these three: README "Workloads".
const WorkloadSpec kWorkloads[] = {
    {"tpcc-mix", {45, 43, 4, 4, 4}, true, 1024},
    {"tpcc-async", {45, 43, 4, 4, 4}, false, 2048},
    {"tpcc-readonly", {0, 0, 50, 0, 50}, true, 512},
};

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  bool has_seed = false;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;
  std::string trace_dir;
  uint64_t buffer_mb = 0;       // 0 = the workload's
  uint64_t load_buffer_mb = 0;  // 0 = same as the run's buffer
};

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = strtoull(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

void Usage() {
  fprintf(stderr,
          "usage: tpcc_bench --workload <tpcc-mix|tpcc-async|tpcc-readonly> "
          "--seed <n> [--seconds <1..600>] [--trace <0|1>] "
          "[--data-dir <dir>] [--trace-dir <dir>] [--buffer-mb <n>] "
          "[--load-buffer-mb <n>]\n");
}

/// Strict parser: unknown flags, missing or malformed values and unknown
/// workload names are errors.
bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (flag.rfind("--", 0) != 0) {
      fprintf(stderr, "unexpected argument '%s'\n", flag.c_str());
      return false;
    }
    size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return false;
    }
    uint64_t n = 0;
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) a->spec = &w;
      }
      if (a->spec == nullptr) {
        fprintf(stderr, "unknown workload '%s'\n", value.c_str());
        return false;
      }
    } else if (flag == "--seed") {
      if (!ParseUint(value, &a->seed)) {
        fprintf(stderr, "bad --seed '%s'\n", value.c_str());
        return false;
      }
      a->has_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a->seconds = strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a->seconds >= 1.0) ||
          a->seconds > 600.0) {
        fprintf(stderr, "bad --seconds '%s' (1..600)\n", value.c_str());
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        fprintf(stderr, "bad --trace '%s' (0 or 1)\n", value.c_str());
        return false;
      }
      a->trace = value == "1";
    } else if (flag == "--data-dir") {
      a->data_dir = value;
    } else if (flag == "--trace-dir") {
      a->trace_dir = value;
    } else if (flag == "--buffer-mb" || flag == "--load-buffer-mb") {
      if (!ParseUint(value, &n) || n == 0 || n > (1u << 20)) {
        fprintf(stderr, "bad %s '%s'\n", flag.c_str(), value.c_str());
        return false;
      }
      (flag == "--buffer-mb" ? a->buffer_mb : a->load_buffer_mb) = n;
    } else {
      fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (a->spec == nullptr || !a->has_seed) {
    fprintf(stderr, "--workload and --seed are required\n");
    return false;
  }
  if (a->data_dir.empty()) {
    a->data_dir = ".bench_build/tpccbench-data-" + std::to_string(getpid());
  }
  if (a->trace_dir.empty()) a->trace_dir = ".bench_build";
  if (a->buffer_mb == 0) a->buffer_mb = a->spec->buffer_mb;
  if (a->load_buffer_mb == 0) a->load_buffer_mb = a->buffer_mb;
  return true;
}

/// Removes the data directory on every return path out of Run().
class DataDirGuard {
 public:
  explicit DataDirGuard(std::string dir) : dir_(std::move(dir)) { Remove(); }
  ~DataDirGuard() { Remove(); }
  DataDirGuard(const DataDirGuard&) = delete;
  DataDirGuard& operator=(const DataDirGuard&) = delete;
  const std::string& dir() const { return dir_; }

 private:
  void Remove() { (void)Env::Default()->RemoveDirRecursive(dir_); }
  std::string dir_;
};

// ---------------------------------------------------------------------------
// Clients and the per-transaction task
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer over (a, b): independent seeds per stream.
uint64_t Mix64(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Input {
  TxnType type = kNewOrderT;
  tpcc::NewOrderParams no;
  tpcc::PaymentParams pay;
  tpcc::OrderStatusParams os;
  tpcc::DeliveryParams del;
  tpcc::StockLevelParams sl;
};

constexpr size_t kNumWaitKinds = 5;  // WaitKind values

/// Outside-in accounting of one transaction (traced runs only).
struct TxnTrace {
  uint64_t cpu_ns = 0;
  uint64_t resumes = 0;
  std::array<uint64_t, kNumWaitKinds> wait_ns{};
  std::array<uint64_t, kNumWaitKinds> waits{};
  uint64_t backoff_ns = 0;
};

/// One closed-loop client: bound to one home warehouse and one worker.
/// The generator writes the input and reads the outcome; the running task
/// reads the input and writes the outcome. The two never overlap: the task
/// hands the client back through Bench::Complete (mutex-ordered).
struct Client {
  Client(uint32_t id_, uint64_t seed, size_t span_capacity)
      : id(id_),
        worker(id_ / kSlotsPerWorker),
        home_w(static_cast<int32_t>(id_ * kWarehouses / kClients) + 1),
        rng(Mix64(seed, id_)),
        spans(span_capacity) {}

  uint32_t id;
  uint32_t worker;
  int32_t home_w;
  tpcc::TpccRandom rng;
  uint64_t seq = 0;
  Input in;

  uint64_t txn_id = 0;
  bool detailed = false;
  uint64_t submit_ns = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  phoebe::Status result;
  bool user_abort = false;
  uint32_t retries = 0;
  TxnTrace tr;
  SpanBuffer spans;
};

struct Bench {
  tpcc::Workload* w = nullptr;
  bool traced = false;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<uint32_t> done;  // guarded by mu

  void Complete(uint32_t client) {
    {
      std::lock_guard<std::mutex> lk(mu);
      done.push_back(client);
    }
    cv.notify_one();
  }
};

TxnTask StartAttempt(tpcc::Workload* w, TaskEnv* env, const Input& in) {
  switch (in.type) {
    case kNewOrderT: return tpcc::NewOrderTxn(w, env, in.no);
    case kPaymentT: return tpcc::PaymentTxn(w, env, in.pay);
    case kOrderStatusT: return tpcc::OrderStatusTxn(w, env, in.os);
    case kDeliveryT: return tpcc::DeliveryTxn(w, env, in.del);
    default: return tpcc::StockLevelTxn(w, env, in.sl);
  }
}

SpanKind WaitSpan(WaitKind k) {
  switch (k) {
    case WaitKind::kLatch: return SpanKind::kWaitLatch;
    case WaitKind::kAsyncRead: return SpanKind::kWaitAsyncRead;
    case WaitKind::kXidLock: return SpanKind::kWaitXidLock;
    case WaitKind::kCommitFlush: return SpanKind::kWaitCommitFlush;
    default: return SpanKind::kWaitOther;
  }
}

/// The scheduler task of one transaction: drives the procedure's coroutine,
/// re-running it with the same inputs after a system abort, and hands the
/// outcome to the generator. In traced runs each Resume() slice is on-CPU
/// time and each suspension is charged to the WaitKind the procedure
/// published. Detailed transactions also record spans; a resume that finds
/// the task still blocked on the same kind is a poll and is folded into
/// the open wait span, so a commit-flush wait is one span, not hundreds.
TxnTask RunClientTxn(Bench* b, Client* c, TaskEnv* env) {
  const bool traced = b->traced;
  const bool detailed = c->detailed;
  c->start_ns = NowNanos();
  c->retries = 0;
  c->tr = TxnTrace();
  phoebe::Status st;
  bool user_abort = false;
  uint64_t backoff = 16;  // yields; doubles per retry, jittered
  for (uint32_t attempt = 0;; ++attempt) {
    TxnTask inner = StartAttempt(b->w, env, c->in);
    bool waiting = false;  // a wait span is open (detailed only)
    WaitKind open_kind = WaitKind::kNone;
    uint64_t open_start = 0;
    uint32_t polls = 0;
    for (;;) {
      const uint64_t t0 = traced ? NowNanos() : 0;
      inner.Resume();
      const bool done = inner.done();
      const WaitKind kind = done ? WaitKind::kNone : inner.wait_kind();
      uint64_t t1 = 0;
      if (traced) {
        t1 = NowNanos();
        c->tr.cpu_ns += t1 - t0;
        c->tr.resumes += 1;
        if (detailed) {
          if (waiting && !done && kind == open_kind) {
            ++polls;
          } else {
            if (waiting) {
              c->spans.Add(c->txn_id, WaitSpan(open_kind), open_start, t0,
                           polls);
            }
            c->spans.Add(c->txn_id, SpanKind::kResume, t0, t1);
            waiting = !done;
            open_kind = kind;
            open_start = t1;
            polls = 0;
          }
        }
      }
      if (done) break;
      co_await YieldWait(kind, inner.wait_xid());
      if (traced) {
        const size_t k = static_cast<size_t>(kind) % kNumWaitKinds;
        c->tr.wait_ns[k] += NowNanos() - t1;
        c->tr.waits[k] += 1;
      }
    }
    st = inner.result();
    const auto& cls = b->w->last_abort_user;
    user_abort = env->global_slot_id < cls.size() &&
                 cls[env->global_slot_id] != 0;
    if (st.ok() || !st.IsAborted() || user_abort || attempt >= kMaxRetries) {
      break;
    }
    c->retries += 1;
    const uint64_t t0 = traced ? NowNanos() : 0;
    const uint64_t spins = backoff + env->ctx.rng.Next() % backoff;
    for (uint64_t i = 0; i < spins; ++i) {
      // kLatch yields re-queue the slot at once: the backoff is paid in
      // scheduler passes, not sleeps.
      co_await YieldWait(WaitKind::kLatch, 0);
    }
    backoff = std::min<uint64_t>(backoff * 2, 1024);
    if (traced) {
      const uint64_t t1 = NowNanos();
      c->tr.backoff_ns += t1 - t0;
      if (detailed) c->spans.Add(c->txn_id, SpanKind::kBackoff, t0, t1);
    }
  }
  c->result = st;
  c->user_abort = user_abort;
  c->end_ns = NowNanos();
  b->Complete(c->id);  // `c` belongs to the generator from here on
  co_return st;
}

TxnType PickType(tpcc::TpccRandom* rng, const WorkloadSpec& spec) {
  int64_t roll = rng->Uniform(1, 100);
  for (int t = 0; t < kNumTypes; ++t) {
    if (roll <= spec.mix[t]) return static_cast<TxnType>(t);
    roll -= spec.mix[t];
  }
  return kStockLevelT;
}

void NextInput(Client* c, const WorkloadSpec& spec,
               const tpcc::ScaleConfig& scale) {
  Input& in = c->in;
  in.type = PickType(&c->rng, spec);
  switch (in.type) {
    case kNewOrderT:
      in.no = tpcc::MakeNewOrderParams(&c->rng, scale, c->home_w);
      break;
    case kPaymentT:
      in.pay = tpcc::MakePaymentParams(&c->rng, scale, c->home_w);
      break;
    case kOrderStatusT:
      in.os = tpcc::MakeOrderStatusParams(&c->rng, scale, c->home_w);
      break;
    case kDeliveryT:
      in.del = tpcc::MakeDeliveryParams(&c->rng, c->home_w);
      break;
    default:
      in.sl = tpcc::MakeStockLevelParams(&c->rng, c->home_w);
      break;
  }
}

// ---------------------------------------------------------------------------
// Counters and the measured window
// ---------------------------------------------------------------------------

/// Program counters sampled at the window edges.
struct Counters {
  uint64_t at_ns = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_flushes = 0;
  uint64_t data_bytes_read = 0;
  uint64_t loads = 0;
  uint64_t evictions = 0;
  SchedulerStats sched;
  uint64_t heap_allocs = 0;
  uint64_t heap_bytes = 0;
  uint64_t arena_bytes = 0;
  uint64_t live_undo = 0;
};

Counters Sample(Database* db, Scheduler* sched) {
  Counters c;
  IoStats& io = IoStats::Global();
  c.wal_bytes = io.wal_bytes_written.load(std::memory_order_relaxed);
  c.wal_flushes = io.wal_flushes.load(std::memory_order_relaxed);
  c.data_bytes_read = io.data_bytes_read.load(std::memory_order_relaxed);
  c.loads = db->pool()->stats().loads.load(std::memory_order_relaxed);
  c.evictions = db->pool()->stats().evictions.load(std::memory_order_relaxed);
  c.sched = sched->TotalStats();
  Profiler::Totals p = Profiler::Aggregate();
  c.heap_allocs = p.total_heap_allocs;
  c.heap_bytes = p.total_heap_bytes;
  c.arena_bytes = p.arena_bytes;
  c.live_undo = db->GetStats().live_undo_records;
  c.at_ns = NowNanos();
  return c;
}

/// What the generator learned from the acknowledged results.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rolled_back = 0;  // the spec's 1% NewOrder rollback
  std::string first_error;
  bool rollback_committed = false;  // a wrong outcome, not a failure
  Acks acks;

  double window_s = 0;
  uint64_t committed = 0;  // in the window
  std::array<uint64_t, kNumTypes> committed_by_type{};
  std::vector<uint64_t> lat_all;  // ns, committed in the window
  std::vector<uint64_t> per_second;  // commits per second of the window
  std::array<std::vector<uint64_t>, kNumTypes> lat_by_type;

  // Window sums over every transaction that completed in it (traced).
  TxnTrace tr;
  uint64_t queue_ns = 0;
  uint64_t retries = 0;
  Counters start;
  Counters end;
};

double Percentile(std::vector<uint64_t>* v, double p) {
  if (v->empty()) return 0.0;
  const double n = static_cast<double>(v->size());
  const size_t rank = static_cast<size_t>(std::ceil(p * n));
  size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v->begin(), v->begin() + static_cast<long>(idx), v->end());
  return static_cast<double>((*v)[idx]);
}

void Account(Client& c, uint64_t win_start, uint64_t win_end,
             RunResult* r) {
  r->attempted += 1;
  const Input& in = c.in;
  const bool in_window = c.end_ns >= win_start && c.end_ns < win_end;
  if (c.result.ok()) {
    if (in.type == kNewOrderT) {
      if (in.no.rollback) r->rollback_committed = true;
      r->acks.new_orders += 1;
      r->acks.order_lines += static_cast<uint64_t>(in.no.ol_cnt);
    } else if (in.type == kPaymentT) {
      r->acks.payments += 1;
      r->acks.payment_cents += std::llround(in.pay.amount * 100.0);
    }
    if (in_window) {
      const uint64_t lat = c.end_ns - c.submit_ns;
      r->committed += 1;
      const size_t sec = (c.end_ns - win_start) / 1000000000ull;
      if (r->per_second.size() <= sec) r->per_second.resize(sec + 1);
      r->per_second[sec] += 1;
      r->committed_by_type[in.type] += 1;
      r->lat_all.push_back(lat);
      r->lat_by_type[in.type].push_back(lat);
    }
  } else if (in.type == kNewOrderT && in.no.rollback && c.user_abort &&
             c.result.IsAborted()) {
    r->rolled_back += 1;
  } else {
    r->failed += 1;
    if (r->first_error.empty()) {
      r->first_error = std::string(kTypeNames[in.type]) + ": " +
                       c.result.ToString();
    }
  }
  if (in_window) {
    r->retries += c.retries;
    r->queue_ns += c.start_ns - c.submit_ns;
    r->tr.cpu_ns += c.tr.cpu_ns;
    r->tr.resumes += c.tr.resumes;
    r->tr.backoff_ns += c.tr.backoff_ns;
    for (size_t k = 0; k < kNumWaitKinds; ++k) {
      r->tr.wait_ns[k] += c.tr.wait_ns[k];
      r->tr.waits[k] += c.tr.waits[k];
    }
  }
}

/// Runs the closed loop: warm-up, the measured window, then a drain in
/// which no new transaction starts. Every submitted transaction is
/// acknowledged before this returns (unless the run stalls).
RunResult RunLoop(Database* db, tpcc::Workload* w, const Args& args,
                  std::vector<std::unique_ptr<Client>>* clients,
                  const tpcc::ScaleConfig& scale) {
  RunResult r;
  Bench b;
  b.w = w;
  b.traced = args.trace;

  Scheduler::Options so;
  so.workers = kWorkers;
  so.slots_per_worker = kSlotsPerWorker;
  so.pin_workers = true;
  Scheduler sched(so, db->MakeSchedulerHooks());
  sched.Start();

  auto submit = [&](Client* c) {
    NextInput(c, *args.spec, scale);
    c->seq += 1;
    c->txn_id = (static_cast<uint64_t>(c->id) << 40) + c->seq;
    c->detailed = args.trace && c->seq % kDetailEvery == 1;
    c->submit_ns = NowNanos();
    sched.SubmitToWorker(c->worker, [bp = &b, c](TaskEnv* env) {
      return RunClientTxn(bp, c, env);
    });
  };

  const uint64_t t0 = NowNanos();
  const uint64_t win_start =
      t0 + static_cast<uint64_t>(kWarmupSeconds * 1e9);
  const uint64_t win_end =
      win_start + static_cast<uint64_t>(args.seconds * 1e9);
  for (auto& c : *clients) submit(c.get());
  size_t outstanding = clients->size();
  bool started = false;
  bool ended = false;
  uint64_t last_progress = NowNanos();
  std::vector<uint32_t> batch;

  while (outstanding > 0) {
    {
      std::unique_lock<std::mutex> lk(b.mu);
      if (b.done.empty()) {
        uint64_t deadline = !started ? win_start : !ended ? win_end : 0;
        if (deadline != 0) {
          b.cv.wait_until(
              lk,
              std::chrono::steady_clock::time_point(
                  std::chrono::nanoseconds(deadline)),
              [&] { return !b.done.empty(); });
        } else {
          b.cv.wait_for(lk, std::chrono::milliseconds(100),
                        [&] { return !b.done.empty(); });
        }
      }
      batch.swap(b.done);
    }
    uint64_t now = NowNanos();
    if (!started && now >= win_start) {
      started = true;
      if (args.trace) Profiler::EnableAllocTracking(true);
      r.start = Sample(db, &sched);
    }
    if (!ended && now >= win_end) {
      ended = true;
      r.end = Sample(db, &sched);
      if (args.trace) Profiler::EnableAllocTracking(false);
    }
    if (batch.empty()) {
      if (static_cast<double>(now - last_progress) > kStallSeconds * 1e9) {
        // Workers are stuck, so the scheduler can be neither stopped nor
        // destroyed: remove the data and leave at once.
        fprintf(stderr, "tpcc_bench: no transaction completed for %.0f s\n",
                kStallSeconds);
        (void)Env::Default()->RemoveDirRecursive(args.data_dir);
        fflush(stderr);
        std::_Exit(3);
      }
      continue;
    }
    last_progress = now;
    for (uint32_t id : batch) {
      Client* c = (*clients)[id].get();
      Account(*c, win_start, win_end, &r);
      if (c->detailed) {
        c->spans.Add(c->txn_id, SpanKind::kTxn, c->submit_ns, c->end_ns);
        c->spans.Add(c->txn_id, SpanKind::kQueue, c->submit_ns, c->start_ns);
      }
      if (!ended && now < win_end) {
        submit(c);
      } else {
        --outstanding;
      }
    }
    batch.clear();
  }
  sched.Stop();
  r.window_s = static_cast<double>(win_end - win_start) / 1e9;
  return r;
}

// ---------------------------------------------------------------------------
// Probes (traced runs): synchronous calls into Table and Database
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct ProbeResult {
  double index_get_ns = 0;
  double index_scan_row_ns = 0;
  double empty_commit_us = 0;
};

phoebe::Status RunProbes(Database* db, const tpcc::Tables& t,
                         const tpcc::ScaleConfig& scale, uint64_t seed,
                         SpanBuffer* spans, ProbeResult* out) {
  const uint32_t slot = db->aux_slot(0);
  OpContext ctx;
  ctx.synchronous = true;
  phoebe::Random rng(Mix64(seed, 0xC0DE));
  auto pick = [&rng](int n) {
    return Value::Int32(static_cast<int32_t>(rng.Uniform(n)) + 1);
  };
  // Keys are drawn before each batch is timed.
  std::vector<std::vector<Value>> keys;

  // STOCK primary-key point lookups, 32 batches of 512.
  std::vector<double> per_get;
  for (int b = 0; b < 32; ++b) {
    keys.clear();
    for (int i = 0; i < 512; ++i) {
      keys.push_back({pick(kWarehouses), pick(scale.items)});
    }
    Transaction* txn = db->Begin(slot);
    const uint64_t t0 = NowNanos();
    for (const auto& key : keys) {
      RowId rid = 0;
      Slice row;
      phoebe::Status st = t.stock->IndexGetRef(&ctx, txn, tpcc::Tables::kPk,
                                               key, &rid, &row);
      if (!st.ok()) {
        (void)db->Abort(&ctx, txn);
        return st;
      }
    }
    const uint64_t t1 = NowNanos();
    (void)db->Abort(&ctx, txn);
    spans->Add(0, SpanKind::kProbeIndexGet, t0, t1);
    per_get.push_back(static_cast<double>(t1 - t0) / 512.0);
  }
  out->index_get_ns = Median(per_get);

  // ORDER_LINE primary-key prefix scans of loaded orders, 32 batches of 64.
  std::vector<double> per_row;
  for (int b = 0; b < 32; ++b) {
    keys.clear();
    for (int i = 0; i < 64; ++i) {
      keys.push_back({pick(kWarehouses), pick(scale.districts_per_warehouse),
                      pick(scale.initial_orders_per_district)});
    }
    Transaction* txn = db->Begin(slot);
    uint64_t rows = 0;
    const uint64_t t0 = NowNanos();
    for (const auto& key : keys) {
      phoebe::Status st = t.order_line->IndexScanRef(
          &ctx, txn, tpcc::Tables::kPk, key, {}, [&](RowId, Slice) {
            ++rows;
            return true;
          });
      if (!st.ok()) {
        (void)db->Abort(&ctx, txn);
        return st;
      }
    }
    const uint64_t t1 = NowNanos();
    (void)db->Abort(&ctx, txn);
    spans->Add(0, SpanKind::kProbeIndexScan, t0, t1);
    if (rows == 0) return phoebe::Status::Corruption("probe: no order lines");
    per_row.push_back(static_cast<double>(t1 - t0) /
                      static_cast<double>(rows));
  }
  out->index_scan_row_ns = Median(per_row);

  // Begin then Commit with no writes.
  std::vector<double> per_commit;
  for (int i = 0; i < 128; ++i) {
    uint64_t t0 = NowNanos();
    Transaction* txn = db->Begin(slot);
    phoebe::Status st = db->Commit(&ctx, txn);
    uint64_t t1 = NowNanos();
    if (!st.ok()) return st;
    spans->Add(0, SpanKind::kProbeEmptyCommit, t0, t1);
    per_commit.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  out->empty_commit_us = Median(per_commit);
  return phoebe::Status::OK();
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

uint64_t PeakRssKib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
}

std::vector<Metric> EndToEndMetrics(RunResult* r, double setup_s,
                                    double peak_rss_mb,
                                    double bytes_per_user_byte) {
  return {
      {"tpm", static_cast<double>(r->committed) / r->window_s * 60.0,
       "txn/min"},
      {"txn_p50_us", Percentile(&r->lat_all, 0.50) / 1e3, "us"},
      {"txn_p99_us", Percentile(&r->lat_all, 0.99) / 1e3, "us"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"bytes_per_user_byte", bytes_per_user_byte, "B/B"},
  };
}

/// Per-layer metrics: sums over the window divided by the transactions
/// committed in it, counter deltas across the window, and the probes.
std::vector<Metric> LayerMetrics(RunResult* r, const ProbeResult& probe,
                                 double recovery_s) {
  const double n = static_cast<double>(std::max<uint64_t>(1, r->committed));
  const double win = r->window_s;
  const Counters& a = r->start;
  const Counters& z = r->end;
  auto per = [&](uint64_t v) { return static_cast<double>(v) / n; };
  auto us_per = [&](uint64_t ns) {
    return static_cast<double>(ns) / 1e3 / n;
  };
  auto wait_us = [&](WaitKind k) {
    return us_per(r->tr.wait_ns[static_cast<size_t>(k)]);
  };
  auto waits = [&](WaitKind k) {
    return per(r->tr.waits[static_cast<size_t>(k)]);
  };
  std::vector<Metric> m;
  for (int t = 0; t < kNumTypes; ++t) {
    // A type the workload does not run reports 0.
    const std::string base = std::string("tpcc.") + kTypeNames[t];
    m.push_back({base + ".p50_us",
                 Percentile(&r->lat_by_type[t], 0.50) / 1e3, "us"});
    m.push_back({base + ".p99_us",
                 Percentile(&r->lat_by_type[t], 0.99) / 1e3, "us"});
  }
  const double counter_s = static_cast<double>(z.at_ns - a.at_ns) / 1e9;
  std::vector<Metric> rest = {
      {"tpcc.txn_p999_us", Percentile(&r->lat_all, 0.999) / 1e3, "us"},
      {"tpcc.new_order_per_min",
       static_cast<double>(r->committed_by_type[kNewOrderT]) / win * 60.0,
       "txn/min"},
      {"tpcc.tpm_traced", static_cast<double>(r->committed) / win * 60.0,
       "txn/min"},
      {"tpcc.cpu_us_per_txn", us_per(r->tr.cpu_ns), "us"},
      {"tpcc.retries_per_txn", per(r->retries), "count"},
      {"tpcc.retry_backoff_us_per_txn", us_per(r->tr.backoff_ns), "us"},
      {"runtime.queue_us_per_txn", us_per(r->queue_ns), "us"},
      {"runtime.resumes_per_txn", per(r->tr.resumes), "count"},
      {"runtime.steals_per_txn", per(z.sched.stolen - a.sched.stolen),
       "count"},
      {"runtime.parks_per_s",
       static_cast<double>(z.sched.parks - a.sched.parks) / counter_s, "1/s"},
      {"txn.lock_wait_us_per_txn", wait_us(WaitKind::kXidLock), "us"},
      {"txn.lock_waits_per_txn", waits(WaitKind::kXidLock), "count"},
      {"txn.live_undo_records", static_cast<double>(z.live_undo), "count"},
      {"wal.commit_wait_us_per_txn", wait_us(WaitKind::kCommitFlush), "us"},
      {"wal.commit_polls_per_txn", waits(WaitKind::kCommitFlush), "count"},
      {"wal.bytes_per_txn", per(z.wal_bytes - a.wal_bytes), "B"},
      {"wal.flushes_per_txn", per(z.wal_flushes - a.wal_flushes), "count"},
      {"wal.recovery_s", recovery_s, "s"},
      {"storage.latch_wait_us_per_txn", wait_us(WaitKind::kLatch), "us"},
      {"storage.latch_yields_per_txn", waits(WaitKind::kLatch), "count"},
      {"core.index_get_ns", probe.index_get_ns, "ns"},
      {"core.index_scan_row_ns", probe.index_scan_row_ns, "ns"},
      {"core.empty_commit_us", probe.empty_commit_us, "us"},
      {"buffer.loads_per_txn", per(z.loads - a.loads), "count"},
      {"buffer.evictions_per_txn", per(z.evictions - a.evictions), "count"},
      {"io.data_bytes_read_per_txn",
       per(z.data_bytes_read - a.data_bytes_read), "B"},
      {"io.async_read_wait_us_per_txn", wait_us(WaitKind::kAsyncRead), "us"},
      {"common.heap_allocs_per_txn", per(z.heap_allocs - a.heap_allocs),
       "count"},
      {"common.heap_bytes_per_txn", per(z.heap_bytes - a.heap_bytes), "B"},
      {"common.arena_bytes_per_txn", per(z.arena_bytes - a.arena_bytes), "B"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

bool WriteSpans(const std::string& path, const Args& args,
                const std::vector<std::unique_ptr<Client>>& clients,
                const SpanBuffer& other, uint64_t origin_ns) {
  std::vector<const SpanBuffer*> bufs;
  uint64_t dropped = 0;
  for (const auto& c : clients) {
    bufs.push_back(&c->spans);
    dropped += c->spans.dropped();
  }
  bufs.push_back(&other);
  const std::string header =
      std::string("{\"workload\":\"") + args.spec->name +
      "\",\"seed\":" + std::to_string(args.seed) +
      ",\"detail_every\":" + std::to_string(kDetailEvery) +
      ",\"dropped_spans\":" + std::to_string(dropped) + "}";
  return WriteTrace(path, header, bufs, origin_ns);
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

int Fail(const std::string& what) {
  fprintf(stderr, "tpcc_bench: %s\n", what.c_str());
  return 1;
}

int Run(const Args& args, uint64_t main_start_ns) {
  DataDirGuard dir(args.data_dir);
  const WorkloadSpec& spec = *args.spec;
  const bool read_only = spec.mix[kNewOrderT] == 0 &&
                         spec.mix[kPaymentT] == 0 && spec.mix[kDeliveryT] == 0;

  // All files go through the fault-injection Env so the crash check below
  // can drop exactly the bytes that were never synced.
  FaultInjectionEnv fenv(Env::Default(), Mix64(args.seed, 0xFA));
  DatabaseOptions opts;
  opts.path = dir.dir();
  opts.env = &fenv;
  opts.workers = kWorkers;
  opts.slots_per_worker = kSlotsPerWorker;
  opts.aux_slots = 8;
  opts.wal_sync = spec.wal_sync;
  opts.buffer_bytes = args.load_buffer_mb << 20;

  tpcc::ScaleConfig scale;  // the loader's default sizing
  scale.warehouses = kWarehouses;
  scale.seed = Mix64(args.seed, 0x10AD);
  scale.load_threads = 4;
  const int64_t loaded_orders = static_cast<int64_t>(kWarehouses) *
                                scale.districts_per_warehouse *
                                scale.initial_orders_per_district;

  // --- set-up: open, load, checkpoint (ready to serve) ----------------------
  auto opened = Database::Open(opts);
  if (!opened.ok()) return Fail("open: " + opened.status().ToString());
  std::unique_ptr<Database> db = std::move(opened.value());
  auto loaded = tpcc::LoadTpcc(db.get(), scale);
  if (!loaded.ok()) return Fail("load: " + loaded.status().ToString());
  tpcc::Tables tables = loaded.value();
  if (args.buffer_mb != args.load_buffer_mb) {
    // Larger-than-memory path: the run starts cold from the data file.
    phoebe::Status st = db->Close();
    if (!st.ok()) return Fail("close after load: " + st.ToString());
    db.reset();
    opts.buffer_bytes = args.buffer_mb << 20;
    opened = Database::Open(opts);
    if (!opened.ok()) return Fail("reopen: " + opened.status().ToString());
    db = std::move(opened.value());
    auto t = tpcc::GetTpccTables(db.get());
    if (!t.ok()) return Fail("reopen tables: " + t.status().ToString());
    tables = t.value();
  } else {
    db->DrainGc();
    phoebe::Status st = db->CheckpointNow();
    if (!st.ok()) return Fail("checkpoint after load: " + st.ToString());
  }
  const double setup_s =
      static_cast<double>(NowNanos() - main_start_ns) / 1e9;

  const uint32_t check_slot = db->aux_slot(0);
  Digest before;
  phoebe::Status st = ComputeDigest(db.get(), tables, check_slot, &before);
  if (!st.ok()) return Fail("digest before: " + st.ToString());

  // --- the measured run -------------------------------------------------
  auto w = std::make_unique<tpcc::Workload>();
  w->db = db.get();
  w->tables = tables;
  w->scale = scale;
  w->last_abort_user.assign(db->options().total_slots(), 0);
  std::vector<std::unique_ptr<Client>> clients;
  for (uint32_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(
        i, args.seed, args.trace ? kSpansPerClient : 0));
  }
  IoStats::Global().Reset();
  RunResult r = RunLoop(db.get(), w.get(), args, &clients, scale);
  const double peak_rss_mb = static_cast<double>(PeakRssKib()) / 1024.0;

  // --- checks on the live database -------------------------------------
  std::vector<std::string> violations;
  auto check = [&](const char* what, const phoebe::Status& s) {
    if (s.ok()) return;
    violations.push_back(std::string(what) + ": " + s.ToString());
    fprintf(stderr, "tpcc_bench: CHECK FAILED: %s\n",
            violations.back().c_str());
  };
  if (r.rollback_committed) {
    check("rollback", phoebe::Status::Corruption(
                          "a NewOrder with an invalid item committed"));
  }
  Digest after;
  st = ComputeDigest(db.get(), tables, check_slot, &after);
  if (!st.ok()) return Fail("digest after: " + st.ToString());
  check("consistency", tpcc::CheckConsistency(w.get()));
  if (read_only) {
    check("digest", CheckDigestUnchanged(before, after));
    ScanImage image;
    st = ScanForProbe(db.get(), tables, check_slot, &image);
    if (!st.ok()) return Fail("scan for probe: " + st.ToString());
    check("index vs scan",
          CheckIndexMatchesScan(db.get(), tables, check_slot, image,
                                Mix64(args.seed, 0x1DE), 2000));
  } else {
    check("neworder", CheckNewOrderConservation(before, after, r.acks,
                                                loaded_orders));
    check("money", CheckMoneyConservation(before, after, r.acks));
  }

  ProbeResult probe;
  SpanBuffer probe_spans(1024);
  if (args.trace) {
    st = RunProbes(db.get(), tables, scale, args.seed, &probe_spans, &probe);
    if (!st.ok()) return Fail("probe: " + st.ToString());
  }
  const Database::Stats dbstats = db->GetStats();

  {
    std::string series;
    for (uint64_t n : r.per_second) series += " " + std::to_string(n * 60);
    fprintf(stderr, "tpcc_bench: tpm per second:%s\n", series.c_str());
  }
  if (r.failed > 0) {
    fprintf(stderr, "tpcc_bench: %llu transactions failed; first: %s\n",
            static_cast<unsigned long long>(r.failed), r.first_error.c_str());
  }
  fprintf(stderr,
          "tpcc_bench: %s seed=%llu window=%.2fs committed=%llu "
          "rolled_back=%llu acked_new_orders=%llu acked_payments=%llu "
          "buffer=%lluMiB frames_used=%llu/%llu\n",
          spec.name, static_cast<unsigned long long>(args.seed), r.window_s,
          static_cast<unsigned long long>(r.committed),
          static_cast<unsigned long long>(r.rolled_back),
          static_cast<unsigned long long>(r.acks.new_orders),
          static_cast<unsigned long long>(r.acks.payments),
          static_cast<unsigned long long>(args.buffer_mb),
          static_cast<unsigned long long>(dbstats.buffer_frames_total -
                                          dbstats.buffer_frames_free),
          static_cast<unsigned long long>(dbstats.buffer_frames_total));

  // --- restart: a crash for durable commits, a clean close otherwise -----
  // Asynchronous commit acknowledges before the flush, so after a crash no
  // acknowledged transaction need survive; that workload checks a clean
  // restart instead. The reopen time is wal.recovery_s.
  w.reset();
  auto data_file_size = [&]() -> uint64_t {
    auto size = Env::Default()->FileSize(dir.dir() + "/data.pages");
    return size.ok() ? size.value() : 0;
  };
  uint64_t data_bytes = 0;
  uint64_t user_bytes = after.live_row_bytes;
  if (spec.wal_sync) {
    db->TEST_SimulateCrash();
    db.reset();
    fenv.DropUnsyncedData(/*torn_tail=*/false);
  } else {
    st = db->Close();
    if (!st.ok()) return Fail("close: " + st.ToString());
    db.reset();
    data_bytes = data_file_size();
  }
  opts.buffer_bytes = args.buffer_mb << 20;
  const uint64_t rec0 = NowNanos();
  opened = Database::Open(opts);
  const uint64_t rec1 = NowNanos();
  if (!opened.ok()) return Fail("reopen: " + opened.status().ToString());
  probe_spans.Add(0, SpanKind::kRecovery, rec0, rec1);
  db = std::move(opened.value());
  const double recovery_s = static_cast<double>(rec1 - rec0) / 1e9;
  auto rt = tpcc::GetTpccTables(db.get());
  if (!rt.ok()) return Fail("reopened tables: " + rt.status().ToString());
  tables = rt.value();
  Digest reopened;
  st = ComputeDigest(db.get(), tables, check_slot, &reopened);
  if (!st.ok()) return Fail("digest after reopen: " + st.ToString());
  {
    tpcc::Workload rw;
    rw.db = db.get();
    rw.tables = tables;
    rw.scale = scale;
    check("reopened consistency", tpcc::CheckConsistency(&rw));
  }
  if (read_only) {
    check("reopened digest", CheckDigestUnchanged(before, reopened));
  } else {
    check("reopened neworder", CheckNewOrderConservation(
                                   before, reopened, r.acks, loaded_orders));
    check("reopened money", CheckMoneyConservation(before, reopened, r.acks));
  }
  st = db->Close();
  if (!st.ok()) return Fail("close: " + st.ToString());
  db.reset();
  if (spec.wal_sync) {
    data_bytes = data_file_size();
    user_bytes = reopened.live_row_bytes;
  }
  if (data_bytes == 0) return Fail("data file size unavailable");
  fprintf(stderr, "tpcc_bench: data file %.1f MiB after the reopen\n",
          static_cast<double>(data_bytes) / (1 << 20));
  // --- space: data file after a clean close over live user bytes ----------
  const double bytes_per_user_byte =
      static_cast<double>(data_bytes) /
      static_cast<double>(std::max<uint64_t>(1, user_bytes));

  std::vector<Metric> m;
  if (!args.trace) {
    m = EndToEndMetrics(&r, setup_s, peak_rss_mb, bytes_per_user_byte);
  } else {
    m = LayerMetrics(&r, probe, recovery_s);
    const std::string trace_file = args.trace_dir + "/trace-" + spec.name +
                                   "-seed" + std::to_string(args.seed) +
                                   ".jsonl";
    if (!WriteSpans(trace_file, args, clients, probe_spans, main_start_ns)) {
      return Fail("cannot write trace " + trace_file);
    }
    fprintf(stderr, "tpcc_bench: trace written to %s\n", trace_file.c_str());
  }
  const bool correct = violations.empty();
  PrintResult(correct, r.attempted, r.failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tpccbench

int main(int argc, char** argv) {
  const uint64_t main_start_ns = phoebe::NowNanos();
  tpccbench::Args args;
  if (!tpccbench::ParseArgs(argc, argv, &args)) {
    tpccbench::Usage();
    return 2;
  }
  return tpccbench::Run(args, main_start_ns);
}
