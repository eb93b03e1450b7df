/// \file bench.h
/// Shared pieces of the end-to-end benchmark: options, latency samples,
/// the in-memory span tracer, the timed SogdbBackend decorator, the
/// plaintext oracle with its answer checks, and the result record every
/// workload fills. Everything here runs outside src/: the benchmark only
/// calls the layers' public APIs and reads the counters they expose.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/record.h"
#include "core/sogdb.h"
#include "dist/coordinator.h"
#include "edb/encrypted_database.h"
#include "query/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double SecondsOf(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for segment logs and span dumps.
  std::string data_dir = ".bench_build/perfbench-data";
};

/// A run that cannot continue (set-up error, wrong answer). Caught in
/// main, which prints a result line with correct=false and exits nonzero.
struct Fatal {
  std::string what;
};
[[noreturn]] void Die(const std::string& what);
void DieIf(const dpsync::Status& status, const std::string& what);

// --------------------------------------------------------------------------
// Latency samples.

/// Timings of one kind of operation.
class Samples {
 public:
  void Add(double us) { us_.push_back(us); }
  void Append(const Samples& other) {
    us_.insert(us_.end(), other.us_.begin(), other.us_.end());
  }
  size_t count() const { return us_.size(); }
  /// Nearest-rank percentile (p in [0,100]); 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<double> us_;
};

// --------------------------------------------------------------------------
// Tracing: one SpanLog per load thread, merged when the run ends.

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;  ///< span id, -1 for a root
  int64_t op = 0;       ///< operation id shared by one request's spans
};

/// Spans recorded by one thread. A disabled log records nothing and never
/// reads the clock.
class SpanLog {
 public:
  SpanLog(int thread, bool enabled) : thread_(thread), enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Starts a new operation: later spans carry its id.
  void NextOp() { ++op_; }
  size_t Open(const char* name);
  void Close(size_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  bool enabled_;
  int64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log && log->enabled() ? log : nullptr),
        index_(log_ ? log_->Open(name) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

/// Self times (duration minus the time direct children cover) of the
/// spans that started at or after `from_ns` (steady-clock nanoseconds),
/// by span name. Spans with children are also listed under
/// "<name>+children".
std::map<std::string, Samples> SelfTimes(
    const std::vector<const SpanLog*>& logs, int64_t from_ns);
/// Writes every span as one JSON object per line.
void WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path);

// --------------------------------------------------------------------------
// Owner side: the timed backend decorator and the commit log the answer
// checks read.

/// One committed prefix of a table: its real records, and every record
/// (real and dummy) the server stores for it.
struct Boundary {
  int64_t real = 0;
  int64_t total = 0;
};

/// The commit boundaries of one table, numbered from 0 (empty). The
/// decorator publishes `started` (the boundary it is about to commit)
/// before it forwards a Pi_Update and `done` after it returns, so any
/// state a concurrent reader observes is one of the boundaries between
/// the `done` it read before its call and the `started` it read after.
class CommitLog {
 public:
  size_t done() const { return done_.load(std::memory_order_acquire); }
  size_t started() const { return started_.load(std::memory_order_acquire); }
  void Begin(int64_t real_records, int64_t total_records);
  void End();
  /// Boundaries first..last (inclusive), ascending.
  std::vector<Boundary> Candidates(size_t first, size_t last) const;

 private:
  std::atomic<size_t> done_{0};
  std::atomic<size_t> started_{0};
  mutable std::mutex mu_;
  std::vector<Boundary> boundaries_{Boundary{}};
};

/// Counters the decorator keeps about the Pi_Updates it forwarded.
struct UpdateCounters {
  int64_t updates = 0;
  int64_t real_records = 0;
  int64_t dummy_records = 0;
  Samples update_us;
  double update_wall_us = 0;
  /// Distributed deployments: transport counters around each update.
  int64_t rpc_calls = 0;
  int64_t bytes_shipped = 0;
  int64_t bytes_replicated = 0;
};

/// SogdbBackend decorator handed to DpSyncEngine: times Setup/Update,
/// records the commit boundaries, and forwards commit_epoch. Update
/// counters start once the measured window opens (set_measuring). With a
/// distributed server it also reads the transport counters around each
/// update.
class TimedBackend : public dpsync::SogdbBackend {
 public:
  TimedBackend(dpsync::edb::EdbTable* inner, CommitLog* log,
               const dpsync::dist::DistributedEdbServer* dist)
      : inner_(inner), log_(log), dist_(dist) {}

  dpsync::Status Setup(const std::vector<dpsync::Record>& gamma0) override;
  dpsync::Status Update(const std::vector<dpsync::Record>& gamma) override;
  int64_t outsourced_count() const override {
    return inner_->outsourced_count();
  }
  uint64_t commit_epoch() const override { return inner_->commit_epoch(); }

  /// Owner-thread span log (may be null); the owner thread is the only
  /// caller of Setup/Update.
  void set_spans(SpanLog* spans) { spans_ = spans; }
  void set_measuring(bool on) {
    measuring_.store(on, std::memory_order_release);
  }
  /// Read once the owner thread has stopped.
  const UpdateCounters& counters() const { return counters_; }
  /// Pi_Updates forwarded since Setup, measured or not (owner thread).
  int64_t forwarded() const { return forwarded_; }
  /// Plaintext payload bytes of every real record synced, D_0 included.
  int64_t synced_real_bytes() const { return synced_real_bytes_; }

 private:
  dpsync::edb::EdbTable* inner_;
  CommitLog* log_;
  const dpsync::dist::DistributedEdbServer* dist_;
  SpanLog* spans_ = nullptr;
  std::atomic<bool> measuring_{false};
  UpdateCounters counters_;
  int64_t forwarded_ = 0;
  int64_t synced_real_bytes_ = 0;
};

// --------------------------------------------------------------------------
// Inputs and the plaintext oracle.

/// The plaintext fields the checked queries read.
struct Trip {
  int32_t pick_time = 0;
  int16_t zone = 0;
  double fare = 0;
};

constexpr int kZones = 265;

struct TableInputs {
  std::string name;
  std::vector<dpsync::Record> d0;
  std::vector<dpsync::Record> arrivals;
  /// Real records in FIFO sync order: D_0 then the arrivals.
  std::vector<Trip> sequence;
  int32_t max_pick_time = 0;
};

/// Generates `d0 + arrivals` taxi trips from `seed`. Fares and distances
/// are dyadic (multiples of 1/16), so SUM(fare) is exact in any order.
TableInputs MakeTableInputs(const std::string& name, uint64_t seed,
                            int64_t d0, int64_t arrivals);

/// A monotone position in one table's committed real prefix with the
/// per-zone aggregates at that position. Each session owns one: its
/// snapshots only move forward, so advancing is O(delta).
class Cursor {
 public:
  explicit Cursor(const std::vector<Trip>* seq) : seq_(seq) {}
  int64_t k() const { return k_; }
  void AdvanceTo(int64_t k);
  int64_t Count(int lo, int hi) const;
  double Sum(int lo, int hi) const;
  int64_t ZoneCount(int zone) const { return cnt_[zone]; }

 private:
  const std::vector<Trip>* seq_;
  int64_t k_ = 0;
  std::array<int64_t, kZones + 1> cnt_{};
  std::array<double, kZones + 1> sum_{};
};

/// A checked analyst query: how to compute its exact answer at a cursor.
struct QueryShape {
  enum Kind { kCount, kSum, kGroupCount } kind = kCount;
  int lo = 1;
  int hi = kZones;
};
std::string TableSql(const QueryShape& shape, const std::string& table);

/// How answers are compared with the oracle.
struct AnswerCheck {
  /// 0 for exact engines; otherwise the Laplace scale of the release.
  double laplace_scale = 0;
  /// The engine scans every stored row, so QueryStats::records_scanned
  /// must equal the boundary's real + dummy total. This gives noisy
  /// answers an exact check that a lost or duplicated record fails.
  bool scans_every_row = false;
  /// Failure probability of the Laplace tail test per answer.
  static constexpr double kTailFailure = 1e-12;
  bool Matches(const dpsync::query::QueryResult& got, const QueryShape& shape,
               const Cursor& at) const;
};

/// True when `got` (with `records_scanned` rows scanned) equals the oracle
/// at one of `candidates` at or past the cursor; the cursor is left at the
/// first matching candidate.
bool MatchSingle(const AnswerCheck& check, const QueryShape& shape,
                 const dpsync::query::QueryResult& got,
                 int64_t records_scanned,
                 const std::vector<Boundary>& candidates, Cursor* cursor);

/// Join oracle for Q3 (COUNT of a pickTime equi-join) over two tables'
/// committed prefixes.
class JoinCursor {
 public:
  JoinCursor(const TableInputs* left, const TableInputs* right);
  /// Exact join count when the prefixes stand at (kl, kr) >= the cursor.
  int64_t CountAt(int64_t kl, int64_t kr) const;
  void AdvanceTo(int64_t kl, int64_t kr);
  int64_t kl() const { return kl_; }
  int64_t kr() const { return kr_; }

 private:
  const TableInputs* left_;
  const TableInputs* right_;
  int64_t kl_ = 0;
  int64_t kr_ = 0;
  int64_t count_ = 0;
  std::vector<int32_t> cl_, cr_;
};

bool MatchJoin(double got, const std::vector<Boundary>& left_candidates,
               const std::vector<Boundary>& right_candidates,
               JoinCursor* cursor);

// --------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Every end-to-end number, printed-only ones included; run.py keeps
  /// the ones BENCHMARK.json declares.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Keeps every CPU awake while it lives: one spinning thread per CPU at
/// the lowest scheduling priority (SCHED_IDLE), so any other runnable
/// thread preempts it at once. On a virtualized host a CPU with nothing to
/// run halts, and waking it again goes through the hypervisor, which takes
/// milliseconds when the host is busy. Thread-pool fan-outs and lock and
/// socket hand-offs then run late by an amount that follows the host's
/// load. With the spinners there is always something runnable, no CPU
/// halts, and a wake-up is an ordinary in-guest preemption.
class CpuWaker {
 public:
  CpuWaker();
  ~CpuWaker();
  CpuWaker(const CpuWaker&) = delete;
  CpuWaker& operator=(const CpuWaker&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Restricts the calling thread, and so every thread it creates later, to
/// one CPU of those it may run on (the highest-numbered). Returns that CPU.
/// Call it before the deployment starts any thread.
int PinToOneCpu();

/// Returns freed heap to the system and restarts the kernel's count of
/// peak resident memory from the current resident size, so PeakRssMb()
/// covers only what runs after this call. Returns that resident size
/// (MiB).
double ResetPeakRss();
/// Peak resident memory (MiB) since the last ResetPeakRss().
double PeakRssMb();

/// Times one RecordCipher seal and open per record over `records`
/// (calibration pass; returns ns per record).
void CalibrateCrypto(const std::vector<dpsync::Record>& records,
                     double* seal_ns, double* open_ns);

RunResult RunSyncReplicated(const Options& options);
RunResult RunAnalystMix(const Options& options);
RunResult RunObliviousScan(const Options& options);

}  // namespace perfbench
