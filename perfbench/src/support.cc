#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <unordered_map>

#include "bench.h"
#include "common/rng.h"
#include "crypto/key_manager.h"
#include "crypto/record_cipher.h"
#include "workload/trip_record.h"

namespace perfbench {

using dpsync::Record;
using dpsync::Status;

void Die(const std::string& what) { throw Fatal{what}; }

void DieIf(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// --------------------------------------------------------------------------

double Samples::Percentile(double p) const {
  if (us_.empty()) return 0;
  std::vector<double> sorted = us_;
  std::sort(sorted.begin(), sorted.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

// --------------------------------------------------------------------------

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

constexpr int kSpanIndexBits = 40;

}  // namespace

size_t SpanLog::Open(const char* name) {
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.id = (static_cast<int64_t>(thread_) << kSpanIndexBits) |
            static_cast<int64_t>(spans_.size());
  span.parent = open_.empty() ? -1 : spans_[open_.back()].id;
  span.op = (static_cast<int64_t>(thread_) << kSpanIndexBits) | op_;
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::Close(size_t index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, Samples> SelfTimes(
    const std::vector<const SpanLog*>& logs, int64_t from_ns) {
  std::map<std::string, Samples> self;
  const int64_t index_mask = (int64_t{1} << kSpanIndexBits) - 1;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    // Children run nested on their parent's thread, so direct children
    // never overlap and their summed durations are the covered time.
    std::vector<int64_t> covered(spans.size(), 0);
    std::vector<bool> has_child(spans.size(), false);
    for (const Span& s : spans) {
      if (s.parent < 0) continue;
      size_t parent = static_cast<size_t>(s.parent & index_mask);
      covered[parent] += s.end_ns - s.start_ns;
      has_child[parent] = true;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.start_ns < from_ns) continue;
      double self_us = static_cast<double>(s.end_ns - s.start_ns -
                                           covered[i]) / 1e3;
      for (const std::string& key :
           {std::string(s.name),
            has_child[i] ? std::string(s.name) + "+children"
                         : std::string()}) {
        if (key.empty()) continue;
        self[key].Add(self_us);
      }
    }
  }
  return self;
}

void WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path) {
  std::ofstream out(path);
  if (!out) Die("cannot write span dump " + path);
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
    }
  }
  if (!out) Die("short write to span dump " + path);
}

// --------------------------------------------------------------------------

void CommitLog::Begin(int64_t real_records, int64_t total_records) {
  std::lock_guard<std::mutex> lk(mu_);
  const Boundary& last = boundaries_.back();
  boundaries_.push_back(
      Boundary{last.real + real_records, last.total + total_records});
  started_.store(boundaries_.size() - 1, std::memory_order_release);
}

void CommitLog::End() {
  done_.store(started_.load(std::memory_order_relaxed),
              std::memory_order_release);
}

std::vector<Boundary> CommitLog::Candidates(size_t first, size_t last) const {
  std::lock_guard<std::mutex> lk(mu_);
  return std::vector<Boundary>(
      boundaries_.begin() + static_cast<std::ptrdiff_t>(first),
      boundaries_.begin() + static_cast<std::ptrdiff_t>(last) + 1);
}

namespace {

struct BatchShape {
  int64_t real = 0;
  int64_t dummy = 0;
  int64_t real_bytes = 0;
};

BatchShape ShapeOf(const std::vector<Record>& batch) {
  BatchShape shape;
  for (const Record& r : batch) {
    if (r.is_dummy) {
      ++shape.dummy;
    } else {
      ++shape.real;
      shape.real_bytes += static_cast<int64_t>(r.payload.size());
    }
  }
  return shape;
}

}  // namespace

Status TimedBackend::Setup(const std::vector<Record>& gamma0) {
  BatchShape shape = ShapeOf(gamma0);
  log_->Begin(shape.real, shape.real + shape.dummy);
  Status status;
  {
    ScopedSpan span(spans_, "edb.Setup");
    status = inner_->Setup(gamma0);
  }
  log_->End();
  synced_real_bytes_ += shape.real_bytes;
  return status;
}

Status TimedBackend::Update(const std::vector<Record>& gamma) {
  BatchShape shape = ShapeOf(gamma);
  synced_real_bytes_ += shape.real_bytes;
  const bool measuring = measuring_.load(std::memory_order_acquire);
  const bool probe = dist_ != nullptr && measuring;
  log_->Begin(shape.real, shape.real + shape.dummy);
  const int64_t rpc0 = probe ? dist_->rpc_calls() : 0;
  const int64_t bytes0 = probe ? dist_->bytes_shipped() : 0;
  const int64_t repl0 = probe ? dist_->bytes_replicated() : 0;
  const auto start = Clock::now();
  Status status;
  {
    ScopedSpan span(spans_, "edb.Update");
    status = inner_->Update(gamma);
  }
  const double wall_us = Micros(Clock::now() - start);
  log_->End();
  ++forwarded_;
  if (!measuring) return status;
  counters_.update_us.Add(wall_us);
  counters_.update_wall_us += wall_us;
  ++counters_.updates;
  counters_.real_records += shape.real;
  counters_.dummy_records += shape.dummy;
  if (probe) {
    counters_.rpc_calls += dist_->rpc_calls() - rpc0;
    counters_.bytes_shipped += dist_->bytes_shipped() - bytes0;
    counters_.bytes_replicated += dist_->bytes_replicated() - repl0;
  }
  return status;
}

// --------------------------------------------------------------------------

TableInputs MakeTableInputs(const std::string& name, uint64_t seed,
                            int64_t d0, int64_t arrivals) {
  TableInputs in;
  in.name = name;
  in.d0.reserve(static_cast<size_t>(d0));
  in.arrivals.reserve(static_cast<size_t>(arrivals));
  in.sequence.reserve(static_cast<size_t>(d0 + arrivals));
  dpsync::Rng rng(seed);
  int64_t minute = 0;
  for (int64_t i = 0; i < d0 + arrivals; ++i) {
    dpsync::workload::TripRecord trip;
    minute += rng.UniformInt(0, 2);
    trip.pick_time = minute;
    // Half the pickups come from 60 popular zones.
    trip.pickup_id =
        rng.Bernoulli(0.5) ? rng.UniformInt(1, 60) : rng.UniformInt(1, kZones);
    trip.dropoff_id = rng.UniformInt(1, kZones);
    trip.trip_distance = static_cast<double>(rng.UniformInt(1, 96)) / 8.0;
    trip.fare = 2.5 + trip.trip_distance * 2.5;
    (i < d0 ? in.d0 : in.arrivals).push_back(trip.ToRecord());
    in.sequence.push_back(Trip{static_cast<int32_t>(trip.pick_time),
                               static_cast<int16_t>(trip.pickup_id),
                               trip.fare});
  }
  in.max_pick_time = static_cast<int32_t>(minute);
  return in;
}

void Cursor::AdvanceTo(int64_t k) {
  if (k < k_ || k > static_cast<int64_t>(seq_->size())) {
    Die("oracle cursor moved outside the generated prefix");
  }
  for (; k_ < k; ++k_) {
    const Trip& t = (*seq_)[static_cast<size_t>(k_)];
    ++cnt_[t.zone];
    sum_[t.zone] += t.fare;
  }
}

int64_t Cursor::Count(int lo, int hi) const {
  int64_t total = 0;
  for (int z = lo; z <= hi; ++z) total += cnt_[z];
  return total;
}

double Cursor::Sum(int lo, int hi) const {
  double total = 0;
  for (int z = lo; z <= hi; ++z) total += sum_[z];
  return total;
}

std::string TableSql(const QueryShape& shape, const std::string& table) {
  const std::string where = " WHERE pickupID BETWEEN " +
                            std::to_string(shape.lo) + " AND " +
                            std::to_string(shape.hi);
  const bool filtered = shape.lo != 1 || shape.hi != kZones;
  switch (shape.kind) {
    case QueryShape::kCount:
      return "SELECT COUNT(*) FROM " + table + (filtered ? where : "");
    case QueryShape::kSum:
      return "SELECT SUM(fare) FROM " + table + (filtered ? where : "");
    case QueryShape::kGroupCount:
      return "SELECT pickupID, COUNT(*) AS PickupCnt FROM " + table +
             " GROUP BY pickupID";
  }
  return "";
}

bool AnswerCheck::Matches(const dpsync::query::QueryResult& got,
                          const QueryShape& shape, const Cursor& at) const {
  if (shape.kind == QueryShape::kGroupCount) {
    if (laplace_scale != 0) Die("noisy grouped answers are not checked");
    if (!got.grouped) return false;
    size_t nonempty = 0;
    for (int z = 1; z <= kZones; ++z) nonempty += at.ZoneCount(z) > 0;
    if (got.groups.size() != nonempty) return false;
    for (const auto& [key, value] : got.groups) {
      if (key.type() != dpsync::query::ValueType::kInt) return false;
      int64_t zone = key.AsInt();
      if (zone < 1 || zone > kZones) return false;
      if (value != static_cast<double>(at.ZoneCount(static_cast<int>(zone)))) {
        return false;
      }
    }
    return true;
  }
  if (got.grouped) return false;
  const double exact = shape.kind == QueryShape::kCount
                           ? static_cast<double>(at.Count(shape.lo, shape.hi))
                           : at.Sum(shape.lo, shape.hi);
  if (laplace_scale == 0) return got.scalar == exact;
  // Released value is max(0, exact + Lap(b)); P[|Lap(b)| > t] = exp(-t/b).
  const double tol = laplace_scale * std::log(1.0 / kTailFailure);
  return got.scalar <= exact + tol && got.scalar >= std::max(0.0, exact - tol);
}

bool MatchSingle(const AnswerCheck& check, const QueryShape& shape,
                 const dpsync::query::QueryResult& got,
                 int64_t records_scanned,
                 const std::vector<Boundary>& candidates, Cursor* cursor) {
  for (const Boundary& c : candidates) {
    if (c.real < cursor->k()) continue;
    if (check.scans_every_row && records_scanned != c.total) continue;
    cursor->AdvanceTo(c.real);
    if (check.Matches(got, shape, *cursor)) return true;
  }
  return false;
}

JoinCursor::JoinCursor(const TableInputs* left, const TableInputs* right)
    : left_(left),
      right_(right),
      cl_(static_cast<size_t>(
              std::max(left->max_pick_time, right->max_pick_time)) + 1, 0),
      cr_(cl_.size(), 0) {}

int64_t JoinCursor::CountAt(int64_t kl, int64_t kr) const {
  if (kl < kl_ || kr < kr_ ||
      kl > static_cast<int64_t>(left_->sequence.size()) ||
      kr > static_cast<int64_t>(right_->sequence.size())) {
    Die("join oracle moved outside the generated prefix");
  }
  // Grow the left prefix against the current right one, then the right
  // prefix against the grown left one.
  int64_t count = count_;
  std::unordered_map<int32_t, int32_t> left_delta;
  for (int64_t i = kl_; i < kl; ++i) {
    int32_t t = left_->sequence[static_cast<size_t>(i)].pick_time;
    count += cr_[static_cast<size_t>(t)];
    ++left_delta[t];
  }
  for (int64_t i = kr_; i < kr; ++i) {
    int32_t t = right_->sequence[static_cast<size_t>(i)].pick_time;
    auto it = left_delta.find(t);
    count += cl_[static_cast<size_t>(t)] +
             (it == left_delta.end() ? 0 : it->second);
  }
  return count;
}

void JoinCursor::AdvanceTo(int64_t kl, int64_t kr) {
  count_ = CountAt(kl, kr);
  for (; kl_ < kl; ++kl_) {
    ++cl_[static_cast<size_t>(
        left_->sequence[static_cast<size_t>(kl_)].pick_time)];
  }
  for (; kr_ < kr; ++kr_) {
    ++cr_[static_cast<size_t>(
        right_->sequence[static_cast<size_t>(kr_)].pick_time)];
  }
}

bool MatchJoin(double got, const std::vector<Boundary>& left_candidates,
               const std::vector<Boundary>& right_candidates,
               JoinCursor* cursor) {
  // The true state is one of the matching pairs; advance only to their
  // componentwise minimum so later checks never start past it.
  int64_t min_l = -1, min_r = -1;
  for (const Boundary& left : left_candidates) {
    const int64_t a = left.real;
    if (a < cursor->kl()) continue;
    for (const Boundary& right : right_candidates) {
      const int64_t b = right.real;
      if (b < cursor->kr()) continue;
      if (static_cast<double>(cursor->CountAt(a, b)) != got) continue;
      min_l = min_l < 0 ? a : std::min(min_l, a);
      min_r = min_r < 0 ? b : std::min(min_r, b);
    }
  }
  if (min_l < 0) return false;
  cursor->AdvanceTo(min_l, min_r);
  return true;
}

// --------------------------------------------------------------------------

namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

CpuWaker::CpuWaker() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < cpus; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      param.sched_priority = 0;
      // Never spin at normal priority: that would take CPU from the
      // workload instead of only filling idle time.
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) CpuRelax();
    });
  }
}

CpuWaker::~CpuWaker() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    Die("cannot read the CPU affinity mask");
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) Die("the CPU affinity mask is empty");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    Die("cannot pin the benchmark to CPU " + std::to_string(cpu));
  }
  return cpu;
}

namespace {

/// A "<key>: <n> kB" line of /proc/self/status, in MiB.
double ProcStatusMb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;
    }
  }
  Die("no " + key + " line in /proc/self/status");
}

}  // namespace

double ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  // Linux: writing 5 sets the peak-RSS mark (VmHWM) to the current RSS.
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) Die("cannot reset the peak-RSS mark (/proc/self/clear_refs)");
  return ProcStatusMb("VmRSS");
}

double PeakRssMb() { return ProcStatusMb("VmHWM"); }

void CalibrateCrypto(const std::vector<Record>& records, double* seal_ns,
                     double* open_ns) {
  dpsync::crypto::RecordCipher cipher(
      dpsync::crypto::KeyManager::FromSeed(0xca11b8a7e)
          .DeriveKey("perfbench-calibration"));
  std::vector<dpsync::Bytes> sealed;
  sealed.reserve(records.size());
  auto start = Clock::now();
  for (const Record& r : records) {
    auto c = cipher.Encrypt(r.payload);
    DieIf(c.status(), "calibration seal");
    sealed.push_back(std::move(c.value()));
  }
  auto mid = Clock::now();
  size_t mismatches = 0;
  for (size_t i = 0; i < sealed.size(); ++i) {
    auto p = cipher.Decrypt(sealed[i]);
    DieIf(p.status(), "calibration open");
    mismatches += p.value() != records[i].payload;
  }
  auto end = Clock::now();
  if (mismatches != 0) Die("calibration open returned a different payload");
  const double n = static_cast<double>(std::max<size_t>(records.size(), 1));
  *seal_ns = std::chrono::duration<double, std::nano>(mid - start).count() / n;
  *open_ns = std::chrono::duration<double, std::nano>(end - mid).count() / n;
}

}  // namespace perfbench
