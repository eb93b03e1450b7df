/// \file workloads.cc
/// The three workloads. Each one builds its deployment from the public
/// APIs (EdbServer::CreateTable, DpSyncEngine::Setup/TickBatch,
/// QuerySession::Prepare/Execute, DistributedEdbServer), times set-up
/// several times, then runs one measured phase with its load threads and
/// checks every answer against the plaintext oracle. The sizes and rates
/// below are the ones perfbench/README.md documents.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/strategy_factory.h"
#include "dist/coordinator.h"
#include "edb/oblidb_engine.h"
#include "query/parser.h"
#include "workload/trip_record.h"

namespace perfbench {
namespace {

using namespace dpsync;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Load runs this long before the measured window opens. The first
/// seconds of load after an idle spell run measurably slower on the
/// virtualized 4-core host the benchmark was sized on.
constexpr double kWarmupSeconds = 3;

// --------------------------------------------------------------------------
// Workload parameters.

// sync-replicated: owner-heavy, distributed Crypt-eps.
constexpr int64_t kSrD0 = 20000;
constexpr int kSrArrivalsPerTick = 4;
/// 400 scatter-gather SUMs per 30 s of --seconds.
constexpr int kSrQueryEveryTicks = 225;
/// The closed loop runs a fixed number of ticks, this many per second of
/// --seconds (and of the warm-up), so every query sees the same table
/// size whatever the speed. On the 4-core host the benchmark was sized
/// on, the measured ticks and queries took 0.5 to 0.6 x --seconds.
constexpr int64_t kSrTicksPerSecond = 3000;
constexpr int kSrServers = 2;
constexpr int kSrFollowers = 1;
constexpr int kSrShards = 4;
constexpr double kSrQueryEpsilon = 3.0;

// analyst-mix: read-heavy, local ObliDB linear.
/// Every new ad-hoc plan warm-folds the whole table under its lock, and
/// owner syncs wait behind those folds. At 100,000 rows the waits made the
/// owner's lag, and so sync_*, follow the host's load; 50,000 halves them
/// (paired runs in perfbench/README.md).
constexpr int64_t kAmD0 = 50000;
constexpr double kAmTicksPerSecond = 200;
constexpr int kAmArrivalsPerTick = 2;
constexpr int64_t kAmTimerPeriod = 4;
/// Ad-hoc rate. A run issues rate x seconds distinct plans: 600 at 30 s,
/// past the 512-plan cache.
constexpr double kAmAdhocPerSecond = 20;
constexpr int kAmShards = 4;
/// Mean think time of the join session: without it the parallel hash join
/// keeps all four cores busy and the other threads' numbers follow the
/// scheduler rather than the code.
constexpr std::chrono::microseconds kAmJoinThink{25000};

// oblivious-scan: ORAM-heavy, local ObliDB indexed.
constexpr int64_t kOsD0 = 8000;
constexpr double kOsTicksPerSecond = 100;
constexpr int kOsArrivalsPerTick = 1;
constexpr int64_t kOsTimerPeriod = 2;
constexpr int kOsShards = 4;
/// Mean analyst think time between a reply and the next scan. With none,
/// scans hand the table mutex straight back and starve the owner
/// (perfbench/README.md).
constexpr std::chrono::microseconds kOsThink{60000};

// --------------------------------------------------------------------------

Clock::time_point DeadlineAfter(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// Stops every load thread and keeps the first failure.
class RunControl {
 public:
  bool stopped() const { return stop_.load(std::memory_order_acquire); }
  void Stop() { stop_.store(true, std::memory_order_release); }
  void Fail(const std::string& what) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (failure_.empty()) failure_ = what;
    }
    Stop();
  }
  std::string failure() const {
    std::lock_guard<std::mutex> lk(mu_);
    return failure_;
  }

 private:
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::string failure_;
};

/// Per-thread accumulators, merged when the phase ends.
struct ThreadStats {
  // Owner.
  Samples sync_us;  ///< ticks that posted a Pi_Update
  Samples lag_us;   ///< open loop: how late each tick started
  int64_t ticks = 0;
  // Primary analyst operation.
  Samples query_us, engine_query_us, admission_query_us;
  int64_t primary_ops = 0;
  int64_t primary_queries = 0;  ///< Executes inside primary operations
  int64_t rows_scanned = 0;
  int64_t oram_paths = 0;
  int64_t oram_buckets = 0;
  double engine_query_s = 0;
  // Distributed queries: transport deltas and wall time.
  int64_t query_rpc_calls = 0;
  int64_t query_bytes = 0;
  double query_wall_us = 0;
  // Join.
  Samples join_us, engine_join_us, admission_join_us;
  int64_t join_ops = 0;
  int64_t join_pairs = 0;
  // Ad-hoc.
  Samples adhoc_us, engine_adhoc_us, parse_us, prepare_miss_us;
  int64_t adhoc_ops = 0;
  // All analyst operations.
  int64_t attempted = 0;
  int64_t failed = 0;

  void Merge(const ThreadStats& o) {
    sync_us.Append(o.sync_us);
    lag_us.Append(o.lag_us);
    ticks += o.ticks;
    query_us.Append(o.query_us);
    engine_query_us.Append(o.engine_query_us);
    admission_query_us.Append(o.admission_query_us);
    primary_ops += o.primary_ops;
    primary_queries += o.primary_queries;
    rows_scanned += o.rows_scanned;
    oram_paths += o.oram_paths;
    oram_buckets += o.oram_buckets;
    engine_query_s += o.engine_query_s;
    query_rpc_calls += o.query_rpc_calls;
    query_bytes += o.query_bytes;
    query_wall_us += o.query_wall_us;
    join_us.Append(o.join_us);
    engine_join_us.Append(o.engine_join_us);
    admission_join_us.Append(o.admission_join_us);
    join_ops += o.join_ops;
    join_pairs += o.join_pairs;
    adhoc_us.Append(o.adhoc_us);
    engine_adhoc_us.Append(o.engine_adhoc_us);
    parse_us.Append(o.parse_us);
    prepare_miss_us.Append(o.prepare_miss_us);
    adhoc_ops += o.adhoc_ops;
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// Where a load thread records: operations due before the measured window
/// opens go to `warmup`, later ones to `measured`.
struct Meter {
  Clock::time_point from;
  ThreadStats measured;
  ThreadStats warmup;
  ThreadStats* At(Clock::time_point due) {
    return due >= from ? &measured : &warmup;
  }
};

/// A checked analyst query the deployment prepares at set-up.
struct QuerySpec {
  enum Role { kPrimary, kJoin } role = kPrimary;
  QueryShape shape;  ///< unused for joins
  size_t table = 0;
  std::string sql;
};

const char* kQ3 =
    "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
    "YellowCab.pickTime = GreenTaxi.pickTime";

QuerySpec Primary(QueryShape shape, size_t table, const std::string& name) {
  QuerySpec spec;
  spec.shape = shape;
  spec.table = table;
  spec.sql = TableSql(shape, name);
  return spec;
}

struct WorkloadConfig {
  std::string name;
  std::function<std::unique_ptr<edb::EdbServer>(const std::string& dir)>
      make_server;
  StrategyKind strategy = StrategyKind::kDpTimer;
  StrategyParams params;
  std::vector<TableInputs*> tables;
  std::vector<QuerySpec> queries;
  AnswerCheck check;
  /// Run a CpuWaker for the whole run. Paired runs on the sizing host
  /// (perfbench/README.md) showed it steadies the workloads whose latency
  /// waits on wake-ups (lock hand-offs, pool fan-outs), and costs the
  /// throughput-bound closed loop of sync-replicated about a third of its
  /// ingest rate.
  bool keep_cpus_awake = false;
};

/// One outsourced table with its owner-side engine.
struct OwnerTable {
  const TableInputs* in = nullptr;
  CommitLog log;
  std::unique_ptr<TimedBackend> backend;
  std::unique_ptr<DpSyncEngine> engine;
  std::vector<Record> arrivals;  ///< this deployment's copy
  size_t next = 0;

  std::vector<Record> NextBatch(int n) {
    std::vector<Record> batch;
    for (int i = 0; i < n && next < arrivals.size(); ++i) {
      batch.push_back(std::move(arrivals[next++]));
    }
    return batch;
  }
};

/// A server with its tables, engines and prepared queries. Destroys the
/// engines before the server and removes its storage directory.
struct Deployment {
  std::string dir;
  std::unique_ptr<edb::EdbServer> server;
  dist::DistributedEdbServer* dist = nullptr;
  std::vector<std::unique_ptr<OwnerTable>> tables;
  std::vector<edb::PreparedQuery> prepared;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    tables.clear();
    server.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }

  /// Pi_Updates forwarded so far (owner thread only).
  int64_t updates() const {
    int64_t n = 0;
    for (const auto& t : tables) n += t->backend->forwarded();
    return n;
  }
};

/// Input copies made before the set-up clock starts. Only deployments
/// that run a measured phase get the arrival stream; the last of them
/// takes it over instead of copying.
struct DeployInputs {
  std::vector<std::vector<Record>> d0;
  std::vector<std::vector<Record>> arrivals;
};

enum class Arrivals { kNone, kCopy, kMove };

DeployInputs CopyInputs(const WorkloadConfig& config, Arrivals arrivals) {
  DeployInputs out;
  for (TableInputs* in : config.tables) {
    out.d0.push_back(in->d0);
    switch (arrivals) {
      case Arrivals::kNone:
        out.arrivals.emplace_back();
        break;
      case Arrivals::kCopy:
        out.arrivals.push_back(in->arrivals);
        break;
      case Arrivals::kMove:
        out.arrivals.push_back(std::move(in->arrivals));
        break;
    }
  }
  return out;
}

/// Feeds the checker a perturbed copy of a correct answer and fails the
/// run if it is accepted. With scans_every_row, a scan count one record
/// short must be rejected too.
void PerturbAndExpectRejection(const WorkloadConfig& config,
                               const QuerySpec& spec,
                               const query::QueryResult& answer,
                               int64_t records_scanned,
                               const std::vector<Boundary>& candidates) {
  query::QueryResult perturbed = answer;
  if (perturbed.grouped) {
    if (perturbed.groups.empty()) Die("self-check needs a non-empty answer");
    perturbed.groups.begin()->second += 1;
  } else {
    const double tol = config.check.laplace_scale *
                       std::log(1.0 / AnswerCheck::kTailFailure);
    perturbed.scalar += 2 * tol + 1;
  }
  Cursor fresh(&config.tables[spec.table]->sequence);
  if (MatchSingle(config.check, spec.shape, perturbed, records_scanned,
                  candidates, &fresh)) {
    Die("answer check accepted a perturbed answer");
  }
  Cursor again(&config.tables[spec.table]->sequence);
  if (config.check.scans_every_row &&
      MatchSingle(config.check, spec.shape, answer, records_scanned - 1,
                  candidates, &again)) {
    Die("answer check accepted a scan that lost a record");
  }
}

/// Builds the deployment: server, tables, Setup(D_0), and the first
/// (checked) answer of every prepared query. This is what setup_s times.
std::unique_ptr<Deployment> Deploy(const WorkloadConfig& config,
                                   const Options& options, int index,
                                   DeployInputs inputs, bool self_check) {
  auto dep = std::make_unique<Deployment>();
  dep->dir = options.data_dir + "/" + config.name + "-" +
             std::to_string(::getpid()) + "-" + std::to_string(index);
  std::error_code ec;
  std::filesystem::create_directories(dep->dir, ec);
  if (ec) Die("cannot create " + dep->dir + ": " + ec.message());
  dep->server = config.make_server(dep->dir);
  dep->dist = dynamic_cast<dist::DistributedEdbServer*>(dep->server.get());
  if (dep->dist) DieIf(dep->dist->init_status(), "distributed server init");

  Rng seeder(options.seed * 0x9e3779b97f4a7c15ULL + 17);
  for (size_t i = 0; i < config.tables.size(); ++i) {
    const TableInputs* in = config.tables[i];
    auto table = dep->server->CreateTable(in->name, workload::TripSchema());
    DieIf(table.status(), "CreateTable " + in->name);
    auto owner = std::make_unique<OwnerTable>();
    owner->in = in;
    owner->backend = std::make_unique<TimedBackend>(
        table.value(), &owner->log, dep->dist);
    auto strategy = MakeStrategy(config.strategy, config.params, &seeder);
    owner->engine = std::make_unique<DpSyncEngine>(
        std::move(strategy), owner->backend.get(),
        workload::MakeTripDummyFactory(seeder.Next()), seeder.Next());
    owner->arrivals = std::move(inputs.arrivals[i]);
    DieIf(owner->engine->Setup(std::move(inputs.d0[i])), "Setup " + in->name);
    dep->tables.push_back(std::move(owner));
  }

  auto session = dep->server->CreateSession();
  for (const QuerySpec& spec : config.queries) {
    auto prepared = session->Prepare(spec.sql);
    DieIf(prepared.status(), "Prepare " + spec.sql);
    auto answer = session->Execute(prepared.value());
    DieIf(answer.status(), "first Execute " + spec.sql);
    if (spec.role == QuerySpec::kJoin) {
      JoinCursor cursor(config.tables[0], config.tables[1]);
      const auto& l = dep->tables[0]->log;
      const auto& r = dep->tables[1]->log;
      if (!MatchJoin(answer.value().result.scalar,
                     l.Candidates(l.done(), l.started()),
                     r.Candidates(r.done(), r.started()), &cursor)) {
        Die("wrong first answer to " + spec.sql);
      }
    } else {
      const CommitLog& log = dep->tables[spec.table]->log;
      auto candidates = log.Candidates(log.done(), log.started());
      const int64_t scanned = answer.value().stats.records_scanned;
      Cursor cursor(&config.tables[spec.table]->sequence);
      if (!MatchSingle(config.check, spec.shape, answer.value().result,
                       scanned, candidates, &cursor)) {
        Die("wrong first answer to " + spec.sql);
      }
      if (self_check && spec.role == QuerySpec::kPrimary) {
        PerturbAndExpectRejection(config, spec, answer.value().result,
                                  scanned, candidates);
        self_check = false;
      }
    }
    dep->prepared.push_back(prepared.value());
  }
  return dep;
}

// --------------------------------------------------------------------------
// Measured phase.

struct PhaseResult {
  double seconds = 0;  ///< length of the measured window
  /// Wall time the ingest and query rates are taken over: the window for
  /// the open-loop workloads; for sync-replicated, whose one thread does
  /// both, the time spent in owner ticks and in queries respectively.
  double ingest_seconds = 0;
  double query_seconds = 0;
  ThreadStats st;
  UpdateCounters upd;  ///< summed over tables (no samples kept)
  Samples update_us;
  int64_t real_bytes_total = 0;
  int64_t outsourced_bytes = 0;
  edb::ServerStats before, after;
  edb::OramHealth oram_before, oram_after;
  int64_t failovers = 0;
  int64_t replica_lag_batches = 0;
  double budget_consumed = 0;  ///< over the measured window
  double budget_total = 0;     ///< since the server was built
  std::map<std::string, Samples> self_us;  ///< traced phase only
  size_t span_count = 0;
  /// Peak resident memory the deployment added, from just before its
  /// set-up to the end of its phase, over what the process held before.
  double peak_rss_mb = 0;
};

/// Snapshot of the counters a phase reports as deltas.
struct CounterMark {
  edb::ServerStats stats;
  edb::OramHealth oram;
  int64_t replica_lag = 0;
  double budget = 0;
};

CounterMark Mark(const Deployment& dep) {
  CounterMark m;
  m.stats = dep.server->stats();
  m.oram = dep.server->oram_health();
  if (dep.dist) {
    m.replica_lag = dep.dist->replica_lag_batches();
    m.budget = dep.dist->consumed_query_budget();
  }
  return m;
}

/// One analyst session: runs operations, times them, and checks every
/// answer against the oracle at the commit boundaries visible during the
/// call.
class Analyst {
 public:
  Analyst(Deployment* dep, const WorkloadConfig* config, RunControl* control,
          Meter* meter, SpanLog* spans)
      : dep_(dep),
        config_(config),
        control_(control),
        meter_(meter),
        spans_(spans),
        session_(dep->server->CreateSession()) {
    for (const TableInputs* in : config->tables) {
      cursors_.emplace_back(&in->sequence);
    }
    if (config->tables.size() == 2) {
      join_.emplace(config->tables[0], config->tables[1]);
    }
  }

  /// One operation: the prepared queries `queries` (indices into the
  /// workload's list, all of one role) back to back, timed from `due`.
  /// A dashboard refresh is Q1 then Q2.
  void RunOp(const std::vector<size_t>& queries, Clock::time_point due) {
    spans_->NextOp();
    ThreadStats* st = meter_->At(due);
    const bool join = config_->queries[queries[0]].role == QuerySpec::kJoin;
    double engine_us = 0, wall_us = 0;
    for (size_t q : queries) {
      std::optional<edb::QueryStats> qs =
          Execute(config_->queries[q], dep_->prepared[q], st);
      if (!qs) return;
      engine_us += qs->measured_seconds * 1e6;
      wall_us += last_wall_us_;
      if (join) {
        st->join_pairs += qs->join_pairs;
        continue;
      }
      ++st->primary_queries;
      st->rows_scanned += qs->records_scanned;
      st->oram_paths += qs->oram_paths;
      st->oram_buckets += qs->oram_buckets;
      st->engine_query_s += qs->measured_seconds;
    }
    const double latency_us = Micros(Clock::now() - due);
    if (join) {
      ++st->join_ops;
      st->join_us.Add(latency_us);
      st->engine_join_us.Add(engine_us);
      st->admission_join_us.Add(wall_us - engine_us);
    } else {
      ++st->primary_ops;
      st->query_us.Add(latency_us);
      st->engine_query_us.Add(engine_us);
      st->admission_query_us.Add(wall_us - engine_us);
    }
  }

  /// Ad-hoc operation: parse + Prepare + Execute of a never-seen plan,
  /// timed from `due`.
  void RunAdhoc(const QueryShape& shape, size_t table, Clock::time_point due) {
    spans_->NextOp();
    ThreadStats* st = meter_->At(due);
    QuerySpec spec;
    spec.shape = shape;
    spec.table = table;
    spec.sql = TableSql(shape, config_->tables[table]->name);
    auto parse_start = Clock::now();
    StatusOr<query::SelectQuery> ast = Status::Internal("not parsed");
    {
      ScopedSpan span(spans_, "query.ParseSelect");
      ast = query::ParseSelect(spec.sql);
    }
    auto prepare_start = Clock::now();
    st->parse_us.Add(Micros(prepare_start - parse_start));
    if (!ast.ok()) return control_->Fail("parse " + spec.sql);
    StatusOr<edb::PreparedQuery> prepared = Status::Internal("not prepared");
    {
      ScopedSpan span(spans_, "edb.Prepare");
      prepared = session_->Prepare(ast.value());
    }
    if (!prepared.ok()) {
      ++st->attempted;
      ++st->failed;
      return;
    }
    if (!prepared.value().from_plan_cache()) {
      st->prepare_miss_us.Add(Micros(Clock::now() - prepare_start));
    }
    std::optional<edb::QueryStats> qs = Execute(spec, prepared.value(), st);
    if (!qs) return;
    ++st->adhoc_ops;
    st->adhoc_us.Add(Micros(Clock::now() - due));
    st->engine_adhoc_us.Add(qs->measured_seconds * 1e6);
  }

 private:
  /// Executes and checks one query; nullopt when the server refused it
  /// (counted as failed) or the answer was wrong (fails the run).
  std::optional<edb::QueryStats> Execute(const QuerySpec& spec,
                                         const edb::PreparedQuery& prepared,
                                         ThreadStats* st) {
    const bool join = spec.role == QuerySpec::kJoin;
    const size_t tables = join ? 2 : 1;
    auto log_of = [&](size_t i) -> const CommitLog& {
      return dep_->tables[join ? i : spec.table]->log;
    };
    size_t lo[2] = {0, 0}, hi[2] = {0, 0};
    for (size_t i = 0; i < tables; ++i) lo[i] = log_of(i).done();
    const int64_t rpc0 = dep_->dist ? dep_->dist->rpc_calls() : 0;
    const int64_t bytes0 = dep_->dist ? dep_->dist->bytes_shipped() : 0;
    const auto start = Clock::now();
    StatusOr<edb::QueryResponse> response = Status::Internal("not run");
    {
      ScopedSpan span(spans_, "edb.Execute");
      response = session_->Execute(prepared);
    }
    last_wall_us_ = Micros(Clock::now() - start);
    for (size_t i = 0; i < tables; ++i) hi[i] = log_of(i).started();
    ++st->attempted;
    if (!response.ok()) {
      ++st->failed;
      return std::nullopt;
    }
    if (dep_->dist) {
      st->query_rpc_calls += dep_->dist->rpc_calls() - rpc0;
      st->query_bytes += dep_->dist->bytes_shipped() - bytes0;
      st->query_wall_us += last_wall_us_;
    }

    const query::QueryResult& got = response.value().result;
    const bool ok =
        join ? MatchJoin(got.scalar, log_of(0).Candidates(lo[0], hi[0]),
                         log_of(1).Candidates(lo[1], hi[1]), &*join_)
             : MatchSingle(config_->check, spec.shape, got,
                           response.value().stats.records_scanned,
                           log_of(0).Candidates(lo[0], hi[0]),
                           &cursors_[spec.table]);
    if (!ok) {
      control_->Fail("wrong answer to " + spec.sql + ": got " +
                     got.ToString());
      return std::nullopt;
    }
    return response.value().stats;
  }

  Deployment* dep_;
  const WorkloadConfig* config_;
  RunControl* control_;
  Meter* meter_;
  SpanLog* spans_;
  std::unique_ptr<edb::QuerySession> session_;
  std::vector<Cursor> cursors_;
  std::optional<JoinCursor> join_;
  double last_wall_us_ = 0;
};

/// Ticks every table once (sequentially, on the calling owner thread).
/// Returns true when any table posted a Pi_Update.
bool OwnerTick(Deployment* dep, int arrivals_per_tick, RunControl* control,
               SpanLog* spans) {
  const int64_t before = dep->updates();
  for (auto& t : dep->tables) {
    spans->NextOp();
    Status s;
    {
      ScopedSpan span(spans, "core.TickBatch");
      s = t->engine->TickBatch(t->NextBatch(arrivals_per_tick));
    }
    if (!s.ok()) {
      control->Fail("TickBatch " + t->in->name + ": " + s.ToString());
      return false;
    }
  }
  return dep->updates() != before;
}

/// Open-loop owner: one tick of every table every 1/rate seconds, timed
/// from its due time.
void OpenLoopOwner(Deployment* dep, double ticks_per_second,
                   int arrivals_per_tick, Clock::time_point start,
                   RunControl* control, Meter* meter, SpanLog* spans) {
  for (int64_t i = 0; !control->stopped(); ++i) {
    const auto due = DeadlineAfter(start, i / ticks_per_second);
    std::this_thread::sleep_until(due);
    if (control->stopped()) break;
    ThreadStats* st = meter->At(due);
    st->lag_us.Add(Micros(Clock::now() - due));
    const bool posted = OwnerTick(dep, arrivals_per_tick, control, spans);
    ++st->ticks;
    if (posted) st->sync_us.Add(Micros(Clock::now() - due));
  }
}

/// Closed-loop analyst session cycling through `ops`. With a mean think
/// time, it pauses between a reply and the next request for a time drawn
/// uniformly from [0.5, 1.5] x the mean (from `seed`), so the session and
/// the owner's fixed tick period never fall into step. Exponential pauses
/// did that too, but their short draws sent requests back to back, and
/// how often a seed drew them moved the owner's sync figures between
/// seeds (perfbench/README.md).
void ClosedLoopSession(Deployment* dep, const WorkloadConfig* config,
                       std::vector<std::vector<size_t>> ops,
                       RunControl* control,
                       Meter* meter, SpanLog* spans,
                       std::chrono::microseconds mean_think,
                       uint64_t seed) {
  Analyst analyst(dep, config, control, meter, spans);
  Rng rng(seed);
  for (size_t i = 0; !control->stopped(); ++i) {
    analyst.RunOp(ops[i % ops.size()], Clock::now());
    if (mean_think.count() > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
          static_cast<double>(mean_think.count()) *
          (0.5 + rng.UniformDouble())));
    }
  }
}

/// Collects the phase's counters once every load thread has joined.
PhaseResult Finish(const Deployment& dep, const CounterMark& before,
                   Clock::time_point from, const std::vector<Meter>& meters,
                   const std::vector<std::unique_ptr<SpanLog>>& logs,
                   const Options& options, bool traced) {
  PhaseResult r;
  r.seconds = SecondsOf(Clock::now() - from);
  r.ingest_seconds = r.seconds;
  r.query_seconds = r.seconds;
  for (const Meter& m : meters) r.st.Merge(m.measured);
  for (const auto& t : dep.tables) {
    const UpdateCounters& c = t->backend->counters();
    r.upd.updates += c.updates;
    r.upd.real_records += c.real_records;
    r.upd.dummy_records += c.dummy_records;
    r.upd.update_wall_us += c.update_wall_us;
    r.upd.rpc_calls += c.rpc_calls;
    r.upd.bytes_shipped += c.bytes_shipped;
    r.upd.bytes_replicated += c.bytes_replicated;
    r.update_us.Append(c.update_us);
    r.real_bytes_total += t->backend->synced_real_bytes();
  }
  r.outsourced_bytes = dep.server->total_outsourced_bytes();
  CounterMark after = Mark(dep);
  r.before = before.stats;
  r.after = after.stats;
  r.oram_before = before.oram;
  r.oram_after = after.oram;
  r.failovers = after.stats.failovers - before.stats.failovers;
  r.replica_lag_batches = after.replica_lag - before.replica_lag;
  r.budget_consumed = after.budget - before.budget;
  r.budget_total = after.budget;
  if (traced) {
    std::vector<const SpanLog*> views;
    for (const auto& l : logs) {
      views.push_back(l.get());
      r.span_count += l->spans().size();
    }
    r.self_us = SelfTimes(
        views, std::chrono::duration_cast<std::chrono::nanoseconds>(
                   from.time_since_epoch())
                   .count());
    WriteSpans(views, options.data_dir + "/spans-" + options.workload +
                          "-seed" + std::to_string(options.seed) + ".jsonl");
  }
  return r;
}

// --------------------------------------------------------------------------
// Metrics.

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void AddEndToEnd(const PhaseResult& p, double setup_s, RunResult* out) {
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    out->end_to_end.push_back({name, value, unit});
  };
  const ThreadStats& st = p.st;
  auto pct = [](const Samples& s, double q) { return s.Percentile(q); };
  add("setup_s", setup_s, "s");
  add("ingest_records_per_s",
      Ratio(static_cast<double>(p.upd.real_records + p.upd.dummy_records),
            p.ingest_seconds),
      "records/s");
  add("sync_p50_us", pct(st.sync_us, 50), "us");
  add("sync_p95_us", pct(st.sync_us, 95), "us");
  add("query_p50_us", pct(st.query_us, 50), "us");
  add("query_p95_us", pct(st.query_us, 95), "us");
  add("queries_per_s",
      Ratio(static_cast<double>(st.primary_ops), p.query_seconds),
      "queries/s");
  add("peak_rss_mb", p.peak_rss_mb, "MiB");
  add("bytes_per_real_byte",
      Ratio(static_cast<double>(p.outsourced_bytes),
            static_cast<double>(p.real_bytes_total)),
      "ratio");
  // Printed, not in BENCHMARK.json: they exist on one workload only, or
  // are zero on a healthy run (the JSON line carries attempted/failed).
  if (st.join_ops > 0) {
    add("join_p50_us", pct(st.join_us, 50), "us");
    add("join_p95_us", pct(st.join_us, 95), "us");
  }
  if (st.adhoc_ops > 0) {
    add("adhoc_p50_us", pct(st.adhoc_us, 50), "us");
    add("adhoc_p95_us", pct(st.adhoc_us, 95), "us");
  }
  add("failed_frac",
      Ratio(static_cast<double>(st.failed), static_cast<double>(st.attempted)),
      "ratio");
  add("sync_samples", static_cast<double>(st.sync_us.count()), "count");
  add("query_samples", static_cast<double>(st.query_us.count()), "count");
  if (st.join_ops > 0) {
    add("join_samples", static_cast<double>(st.join_us.count()), "count");
  }
  if (st.adhoc_ops > 0) {
    add("adhoc_samples", static_cast<double>(st.adhoc_us.count()), "count");
  }
  add("owner_lag_p95_us", st.lag_us.Percentile(95), "us");
  add("phase_s", p.seconds, "s");
  add("ingest_s", p.ingest_seconds, "s");
  add("query_s", p.query_seconds, "s");
}

void AddPerLayer(const PhaseResult& traced, const PhaseResult& plain,
                 double seal_ns, double open_ns, double query_epsilon,
                 RunResult* out) {
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    out->per_layer.push_back({name, value, unit});
  };
  const ThreadStats& st = traced.st;
  const edb::ServerStats& a = traced.after;
  const edb::ServerStats& b = traced.before;
  const double syncs = static_cast<double>(traced.upd.updates);
  const double primary = static_cast<double>(st.primary_queries);

  // core
  // Self time of the ticks that posted: TickBatch minus its edb.Update.
  auto posted = traced.self_us.find("core.TickBatch+children");
  add("core.tick_self_us",
      posted == traced.self_us.end() ? 0 : posted->second.Percentile(50),
      "us");
  add("core.syncs", syncs, "count");
  add("core.dummy_share",
      Ratio(static_cast<double>(traced.upd.dummy_records),
            static_cast<double>(traced.upd.real_records +
                                traced.upd.dummy_records)),
      "ratio");
  add("core.ticks", static_cast<double>(st.ticks), "count");
  add("core.owner_lag_p95_us", st.lag_us.Percentile(95), "us");
  // crypto (calibration pass on the workload's own records)
  add("crypto.seal_ns_per_record", seal_ns, "ns");
  add("crypto.open_ns_per_record", open_ns, "ns");
  // edb, owner side
  add("edb.update_us", traced.update_us.Percentile(50), "us");
  add("edb.update_records",
      Ratio(static_cast<double>(traced.upd.real_records +
                                traced.upd.dummy_records),
            syncs),
      "records");
  add("edb.view_folds_per_sync",
      Ratio(static_cast<double>(a.view_folds - b.view_folds), syncs), "count");
  // edb, analyst side
  add("edb.queries_executed",
      static_cast<double>(a.queries_executed - b.queries_executed), "count");
  add("edb.prepares", static_cast<double>(a.prepares - b.prepares), "count");
  add("edb.prepare_us", st.prepare_miss_us.Percentile(50), "us");
  add("edb.plan_cache_hit_ratio",
      Ratio(static_cast<double>(a.plan_cache_hits - b.plan_cache_hits),
            static_cast<double>(a.prepares - b.prepares)),
      "ratio");
  add("edb.view_hit_ratio",
      Ratio(static_cast<double>(a.view_hits - b.view_hits),
            static_cast<double>(a.queries_executed - b.queries_executed)),
      "ratio");
  add("edb.engine_query_us", st.engine_query_us.Percentile(50), "us");
  add("edb.engine_join_us", st.engine_join_us.Percentile(50), "us");
  add("edb.engine_adhoc_us", st.engine_adhoc_us.Percentile(50), "us");
  add("edb.admission_us", st.admission_query_us.Percentile(50), "us");
  add("edb.admission_join_us", st.admission_join_us.Percentile(50), "us");
  add("edb.join_ops", static_cast<double>(st.join_ops), "count");
  add("edb.snapshot_join_ratio",
      Ratio(static_cast<double>(a.snapshot_joins - b.snapshot_joins),
            static_cast<double>(st.join_ops)),
      "ratio");
  add("edb.rejected",
      static_cast<double>(a.queries_rejected - b.queries_rejected), "count");
  add("edb.deadlines_exceeded",
      static_cast<double>(a.deadlines_exceeded - b.deadlines_exceeded),
      "count");
  add("edb.adhoc_ops", static_cast<double>(st.adhoc_ops), "count");
  // query
  add("query.parse_us", st.parse_us.Percentile(50), "us");
  add("query.rows_scanned_per_query",
      Ratio(static_cast<double>(st.rows_scanned), primary), "rows");
  add("query.join_pairs",
      Ratio(static_cast<double>(st.join_pairs),
            static_cast<double>(st.join_ops)),
      "pairs");
  // oram
  add("oram.paths_per_query",
      Ratio(static_cast<double>(st.oram_paths), primary), "count");
  add("oram.buckets_per_query",
      Ratio(static_cast<double>(st.oram_buckets), primary), "count");
  add("oram.us_per_path",
      Ratio(st.engine_query_s * 1e6, static_cast<double>(st.oram_paths)),
      "us");
  add("oram.max_stash", static_cast<double>(traced.oram_after.max_stash_size),
      "blocks");
  add("oram.accesses",
      static_cast<double>(traced.oram_after.access_count -
                          traced.oram_before.access_count),
      "count");
  // dist / net
  add("dist.rpc_calls_per_sync",
      Ratio(static_cast<double>(traced.upd.rpc_calls), syncs), "count");
  add("dist.rpc_calls_per_query",
      Ratio(static_cast<double>(st.query_rpc_calls), primary), "count");
  add("net.bytes_per_sync",
      Ratio(static_cast<double>(traced.upd.bytes_shipped), syncs), "bytes");
  add("net.bytes_per_query",
      Ratio(static_cast<double>(st.query_bytes), primary), "bytes");
  add("dist.bytes_replicated_per_sync",
      Ratio(static_cast<double>(traced.upd.bytes_replicated), syncs), "bytes");
  add("dist.us_per_rpc",
      Ratio(traced.upd.update_wall_us + st.query_wall_us,
            static_cast<double>(traced.upd.rpc_calls + st.query_rpc_calls)),
      "us");
  add("dist.replica_lag_batches",
      static_cast<double>(traced.replica_lag_batches), "count");
  add("dist.failovers", static_cast<double>(traced.failovers), "count");
  // dp
  add("dp.query_budget_consumed", traced.budget_consumed, "epsilon");
  add("dp.budget_queries",
      query_epsilon > 0 ? static_cast<double>(st.primary_queries) : 0,
      "count");
  // tracing
  add("trace.spans", static_cast<double>(traced.span_count), "count");
  add("trace.overhead_sync_p50_us",
      traced.st.sync_us.Percentile(50) - plain.st.sync_us.Percentile(50),
      "us");
  add("trace.overhead_query_p50_us",
      traced.st.query_us.Percentile(50) - plain.st.query_us.Percentile(50),
      "us");
}

/// Checks the budget guard once the phase has drained: every Crypt-eps
/// query the server executed since it was built cost exactly
/// query_epsilon.
void CheckBudget(const PhaseResult& p, double query_epsilon) {
  const double want =
      static_cast<double>(p.after.queries_executed) * query_epsilon;
  if (std::fabs(p.budget_total - want) > 1e-6 * std::max(1.0, want)) {
    Die("query budget consumed " + std::to_string(p.budget_total) +
        " != queries x epsilon " + std::to_string(want));
  }
}

using PhaseFn = std::function<PhaseResult(Deployment*, bool traced)>;

/// Shared run loop: set-up repeated kSetupRepeats times (median = setup_s);
/// the first deployment runs the measured phase. A traced run measures
/// the untraced phase on the first deployment and the traced one on the
/// second, and reports per-layer numbers plus the tracing overhead.
RunResult Drive(const WorkloadConfig& config, const Options& options,
                const PhaseFn& phase, double query_epsilon) {
  std::optional<CpuWaker> waker;
  if (config.keep_cpus_awake) waker.emplace();
  double seal_ns = 0, open_ns = 0;
  if (options.trace) {
    const auto& d0 = config.tables[0]->d0;
    std::vector<Record> sample(
        d0.begin(), d0.begin() + static_cast<std::ptrdiff_t>(
                                     std::min<size_t>(d0.size(), 20000)));
    CalibrateCrypto(sample, &seal_ns, &open_ns);
  }
  std::vector<double> setup_times;
  std::optional<PhaseResult> plain, traced;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const bool runs_plain = i == 0;
    const bool runs_traced = options.trace && i == 1;
    const bool last_phase = options.trace ? runs_traced : runs_plain;
    DeployInputs inputs = CopyInputs(
        config, last_phase ? Arrivals::kMove
                           : (runs_plain ? Arrivals::kCopy : Arrivals::kNone));
    double rss_before = 0;
    if (runs_plain || runs_traced) rss_before = ResetPeakRss();
    const auto start = Clock::now();
    auto dep = Deploy(config, options, i, std::move(inputs), i == 0);
    setup_times.push_back(SecondsOf(Clock::now() - start));
    if (runs_plain || runs_traced) {
      std::optional<PhaseResult>& slot = runs_plain ? plain : traced;
      slot = phase(dep.get(), runs_traced);
      slot->peak_rss_mb = PeakRssMb() - rss_before;
      if (query_epsilon > 0) CheckBudget(*slot, query_epsilon);
    }
  }
  std::sort(setup_times.begin(), setup_times.end());
  RunResult out;
  AddEndToEnd(*plain, setup_times[setup_times.size() / 2], &out);
  out.attempted = plain->st.attempted + plain->st.ticks;
  out.failed = plain->st.failed;
  if (traced) {
    AddPerLayer(*traced, *plain, seal_ns, open_ns, query_epsilon, &out);
    out.attempted += traced->st.attempted + traced->st.ticks;
    out.failed += traced->st.failed;
  }
  return out;
}

/// Runs the load threads: kWarmupSeconds of warm-up, then the measured
/// window of options.seconds, and collects. `adhoc_index` (optional)
/// names a thread that runs a fixed count inside the window and is
/// waited for before the others stop, so the number of ad-hoc plans never
/// depends on speed.
PhaseResult RunThreads(
    Deployment* dep, const Options& options, bool traced,
    const std::vector<std::function<void(Clock::time_point, RunControl*,
                                         Meter*, SpanLog*)>>& loops,
    int adhoc_index) {
  const size_t n = loops.size();
  std::vector<Meter> meters(n);
  std::vector<std::unique_ptr<SpanLog>> logs;
  for (size_t i = 0; i < n; ++i) {
    logs.push_back(std::make_unique<SpanLog>(static_cast<int>(i), traced));
  }
  for (auto& t : dep->tables) t->backend->set_spans(logs[0].get());
  RunControl control;
  const auto start = Clock::now();
  const auto from = DeadlineAfter(start, kWarmupSeconds);
  for (Meter& m : meters) m.from = from;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        loops[i](start, &control, &meters[i], logs[i].get());
      } catch (const Fatal& fatal) {
        control.Fail(fatal.what);
      }
    });
  }
  auto wait_until = [&](Clock::time_point t) {
    while (Clock::now() < t && !control.stopped()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };
  wait_until(from);
  const CounterMark before = Mark(*dep);
  for (auto& t : dep->tables) t->backend->set_measuring(true);
  wait_until(DeadlineAfter(from, options.seconds));
  if (adhoc_index >= 0) threads[static_cast<size_t>(adhoc_index)].join();
  control.Stop();
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<int>(i) != adhoc_index) threads[i].join();
  }
  for (auto& t : dep->tables) t->backend->set_spans(nullptr);
  if (!control.failure().empty()) Die(control.failure());
  return Finish(*dep, before, from, meters, logs, options, traced);
}

std::vector<TableInputs> Inputs(const Options& options,
                                const std::vector<std::string>& names,
                                int64_t d0, int64_t arrivals) {
  std::vector<TableInputs> out;
  for (size_t i = 0; i < names.size(); ++i) {
    out.push_back(MakeTableInputs(names[i], options.seed * 1000003 + i, d0,
                                  arrivals));
  }
  return out;
}

}  // namespace

// --------------------------------------------------------------------------

RunResult RunSyncReplicated(const Options& options) {
  // The whole deployment runs on one CPU: the coordinator, the four shard
  // servers, the shared pool and the owner thread. Each sync is a chain of
  // socket hand-offs between them; spread over the VM's vCPUs, every
  // hand-off waited for another vCPU to be scheduled by the host, and the
  // run's wall time followed other tenants' load (perfbench/README.md).
  PinToOneCpu();
  const int64_t warmup_ticks =
      static_cast<int64_t>(kSrTicksPerSecond * kWarmupSeconds);
  const int64_t measured_ticks =
      static_cast<int64_t>(kSrTicksPerSecond * options.seconds);
  std::vector<TableInputs> inputs =
      Inputs(options, {"YellowCab"}, kSrD0,
             (warmup_ticks + measured_ticks) * kSrArrivalsPerTick);

  WorkloadConfig config;
  config.name = "sync-replicated";
  config.make_server = [&](const std::string& dir) {
    dist::DistributedConfig cfg;
    cfg.engine = dist::DistEngineKind::kCryptEps;
    cfg.num_servers = kSrServers;
    cfg.replication_factor = kSrFollowers;
    cfg.crypteps.master_seed = options.seed;
    cfg.crypteps.query_epsilon = kSrQueryEpsilon;
    cfg.crypteps.storage.backend = edb::StorageBackendKind::kSegmentLog;
    cfg.crypteps.storage.num_shards = kSrShards;
    cfg.crypteps.storage.dir = dir;
    cfg.crypteps.storage.flush_every_update = true;
    cfg.crypteps.storage.fsync_data = false;
    return std::make_unique<dist::DistributedEdbServer>(cfg);
  };
  config.strategy = StrategyKind::kDpAnt;
  config.tables = {&inputs[0]};
  config.queries = {Primary({QueryShape::kSum, 50, 150}, 0, "YellowCab")};
  // Crypt-eps releases with Lap(1/query_epsilon), after a scan of every
  // stored row.
  config.check.laplace_scale = 1.0 / kSrQueryEpsilon;
  config.check.scans_every_row = true;

  // One closed-loop thread (the caller): warm-up ticks, then the measured
  // ticks; every kSrQueryEveryTicks ticks it runs the scatter-gather SUM.
  // The ingest rate is taken over the time spent in ticks and the query
  // rate over the time spent in queries, so each follows its own path.
  auto phase = [&](Deployment* dep, bool traced) {
    std::vector<Meter> meters(1);
    Meter& meter = meters[0];
    meter.from = Clock::time_point::max();
    std::vector<std::unique_ptr<SpanLog>> logs;
    logs.push_back(std::make_unique<SpanLog>(0, traced));
    SpanLog* spans = logs[0].get();
    TimedBackend& backend = *dep->tables[0]->backend;
    backend.set_spans(spans);
    RunControl control;
    Analyst analyst(dep, &config, &control, &meter, spans);
    CounterMark before;
    double ingest_us = 0, query_us = 0;
    for (int64_t tick = 0;
         tick < warmup_ticks + measured_ticks && !control.stopped(); ++tick) {
      const bool measured = tick >= warmup_ticks;
      if (tick == warmup_ticks) {
        before = Mark(*dep);
        backend.set_measuring(true);
        meter.from = Clock::now();
      }
      const auto tick_start = Clock::now();
      ThreadStats* st = meter.At(tick_start);
      const bool posted = OwnerTick(dep, kSrArrivalsPerTick, &control, spans);
      const double tick_us = Micros(Clock::now() - tick_start);
      if (posted) st->sync_us.Add(tick_us);
      ++st->ticks;
      if (measured) ingest_us += tick_us;
      if ((tick + 1) % kSrQueryEveryTicks == 0) {
        const auto query_start = Clock::now();
        analyst.RunOp({0}, query_start);
        if (measured) query_us += Micros(Clock::now() - query_start);
      }
    }
    backend.set_spans(nullptr);
    if (!control.failure().empty()) Die(control.failure());
    PhaseResult r =
        Finish(*dep, before, meter.from, meters, logs, options, traced);
    r.ingest_seconds = ingest_us / 1e6;
    r.query_seconds = query_us / 1e6;
    return r;
  };
  return Drive(config, options, phase, kSrQueryEpsilon);
}

RunResult RunAnalystMix(const Options& options) {
  // Arrivals for a phase of up to 1.5x its length.
  const int64_t arrivals =
      static_cast<int64_t>(kAmTicksPerSecond * kAmArrivalsPerTick *
                           (kWarmupSeconds + options.seconds) * 1.5) +
      64;
  std::vector<TableInputs> inputs =
      Inputs(options, {"YellowCab", "GreenTaxi"}, kAmD0, arrivals);

  // Ad-hoc plans: distinct (lo, hi) ranges x {COUNT, SUM} x table, drawn
  // from the seed. None repeats, and none equals a dashboard plan. Plan i
  // is due at a seeded point of [i, i + 1) / rate: a fixed rate that never
  // falls into step with the owner's tick period. Poisson arrivals
  // instead sent plans back to back often enough that syncs waited behind
  // two or three warm folds in a row, and how often a seed did that moved
  // sync_p95_us between seeds (perfbench/README.md).
  const int64_t adhoc_count =
      static_cast<int64_t>(kAmAdhocPerSecond * options.seconds);
  struct Adhoc {
    QueryShape shape;
    size_t table;
    double due_s;
  };
  std::vector<Adhoc> adhoc;
  {
    std::vector<std::pair<int, int>> ranges;
    for (int lo = 1; lo <= kZones; ++lo) {
      for (int hi = lo; hi <= kZones; ++hi) {
        if (lo == 50 && hi == 100) continue;  // Q1
        if (lo == 1 && hi == kZones) continue;
        ranges.emplace_back(lo, hi);
      }
    }
    Rng rng(options.seed ^ 0xad0cULL);
    rng.Shuffle(&ranges);
    for (int64_t i = 0; i < adhoc_count; ++i) {
      const auto& [lo, hi] = ranges[static_cast<size_t>(i) % ranges.size()];
      QueryShape shape{i % 2 ? QueryShape::kSum : QueryShape::kCount, lo, hi};
      const double due_s =
          (static_cast<double>(i) + rng.UniformDouble()) / kAmAdhocPerSecond;
      adhoc.push_back({shape, static_cast<size_t>((i / 2) % 2), due_s});
    }
  }

  WorkloadConfig config;
  config.name = "analyst-mix";
  config.make_server = [&](const std::string&) {
    edb::ObliDbConfig cfg;
    cfg.master_seed = options.seed;
    cfg.storage.num_shards = kAmShards;
    return std::make_unique<edb::ObliDbServer>(cfg);
  };
  config.strategy = StrategyKind::kDpTimer;
  config.params.timer_period = kAmTimerPeriod;
  config.keep_cpus_awake = true;
  config.tables = {&inputs[0], &inputs[1]};
  config.queries = {
      Primary({QueryShape::kCount, 50, 100}, 0, "YellowCab"),  // Q1
      Primary({QueryShape::kGroupCount, 1, kZones}, 0, "YellowCab"),  // Q2
  };
  QuerySpec q3;
  q3.role = QuerySpec::kJoin;
  q3.sql = kQ3;
  config.queries.push_back(q3);

  auto phase = [&](Deployment* dep, bool traced) {
    return RunThreads(
        dep, options, traced,
        {
            [&](Clock::time_point start, RunControl* control, Meter* meter,
                SpanLog* spans) {
              OpenLoopOwner(dep, kAmTicksPerSecond, kAmArrivalsPerTick, start,
                            control, meter, spans);
            },
            [&](Clock::time_point, RunControl* control, Meter* meter,
                SpanLog* spans) {
              ClosedLoopSession(dep, &config, {{0, 1}}, control, meter, spans,
                                std::chrono::microseconds::zero(), 0);
            },
            [&](Clock::time_point, RunControl* control, Meter* meter,
                SpanLog* spans) {
              ClosedLoopSession(dep, &config, {{2}}, control, meter, spans,
                                kAmJoinThink, options.seed ^ 0x701aULL);
            },
            [&](Clock::time_point, RunControl* control, Meter* meter,
                SpanLog* spans) {
              // The fixed count runs inside the measured window.
              Analyst analyst(dep, &config, control, meter, spans);
              for (size_t i = 0; i < adhoc.size() && !control->stopped();
                   ++i) {
                const auto due = DeadlineAfter(meter->from, adhoc[i].due_s);
                std::this_thread::sleep_until(due);
                analyst.RunAdhoc(adhoc[i].shape, adhoc[i].table, due);
              }
            },
        },
        3);
  };
  return Drive(config, options, phase, 0);
}

RunResult RunObliviousScan(const Options& options) {
  const int64_t arrivals =
      static_cast<int64_t>(kOsTicksPerSecond * kOsArrivalsPerTick *
                           (kWarmupSeconds + options.seconds) * 1.5) +
      64;
  std::vector<TableInputs> inputs =
      Inputs(options, {"YellowCab"}, kOsD0, arrivals);
  // The per-shard ORAM caps are hard: give every shard 2x headroom over the
  // largest table this run can reach (every generated record plus dummy
  // padding of at most as many again).
  const size_t oram_capacity = static_cast<size_t>(2 * 2 * (kOsD0 + arrivals));

  WorkloadConfig config;
  config.name = "oblivious-scan";
  config.make_server = [&](const std::string&) {
    edb::ObliDbConfig cfg;
    cfg.master_seed = options.seed;
    cfg.use_oram_index = true;
    cfg.oram_capacity = oram_capacity;
    cfg.storage.num_shards = kOsShards;
    return std::make_unique<edb::ObliDbServer>(cfg);
  };
  config.strategy = StrategyKind::kDpTimer;
  config.params.timer_period = kOsTimerPeriod;
  config.keep_cpus_awake = true;
  config.tables = {&inputs[0]};
  config.queries = {
      Primary({QueryShape::kCount, 1, kZones}, 0, "YellowCab"),
      Primary({QueryShape::kSum, 1, kZones}, 0, "YellowCab"),
  };

  auto phase = [&](Deployment* dep, bool traced) {
    PhaseResult r = RunThreads(
        dep, options, traced,
        {
            [&](Clock::time_point start, RunControl* control, Meter* meter,
                SpanLog* spans) {
              OpenLoopOwner(dep, kOsTicksPerSecond, kOsArrivalsPerTick, start,
                            control, meter, spans);
            },
            [&](Clock::time_point, RunControl* control, Meter* meter,
                SpanLog* spans) {
              ClosedLoopSession(dep, &config, {{0}, {1}}, control, meter,
                                spans, kOsThink, options.seed ^ 0x5e55ULL);
            },
        },
        -1);
    const int64_t final_size = dep->server->total_outsourced_records();
    if (static_cast<size_t>(2 * final_size) > oram_capacity) {
      Die("ORAM capacity " + std::to_string(oram_capacity) +
          " is below 2x the final table size " + std::to_string(final_size));
    }
    return r;
  };
  return Drive(config, options, phase, 0);
}

}  // namespace perfbench
