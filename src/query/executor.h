/// \file executor.h
/// Reference (plaintext) query executor. It computes exact answers over
/// in-memory tables and serves two roles:
///  1. the analyst's ground truth q_t(D_t) over the logical database, used
///     by the query-error metric (§4.5.2);
///  2. the decrypted-side evaluation inside the simulated enclave / Crypt-eps
///     aggregation (the edb layer feeds it decrypted rows).
///
/// Aggregates: COUNT(*) / COUNT(col) / SUM / AVG / MIN / MAX, optionally
/// GROUP BY one column; INNER equi-joins run as a partitioned hash join
/// on the ON column (build side partitioned by key hash into
/// open-addressing tables, probe side walked in strict row order —
/// optionally in parallel — with per-chunk partials merged in chunk
/// order, so answers are bit-identical to the serial row-at-a-time
/// reference). Joins support the same single-column GROUP BY as scans;
/// the group key must be table-qualified ("T.col") to bind in the joined
/// schema.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "query/columnar.h"
#include "query/result.h"
#include "query/schema.h"

namespace dpsync::query {

/// A borrowed, address-stable run of rows. Spans carry their length
/// explicitly instead of pointing at a container: the edb snapshot layer
/// hands out spans over enclave mirror chunks that a concurrent writer may
/// still be appending to, and a reader that never consults the container's
/// size cannot observe (or race with) that growth. See edb/snapshot.h.
///
/// `columns`, when non-empty, carries one ColumnSpan per schema column — a
/// columnar projection of the same rows captured under the same lock and
/// bounded by the same `size`. Spans without projections (plain in-memory
/// tables, pre-columnar borrows) simply keep the executor on the scalar
/// row path.
struct RowSpan {
  const Row* data = nullptr;
  size_t size = 0;
  std::vector<ColumnSpan> columns;
};

/// A named in-memory relation. Rows are either owned (`rows`), borrowed
/// from an external store (`borrowed_rows`), borrowed as a list of
/// per-shard partitions (`borrowed_parts`), or borrowed as explicit row
/// spans (`borrowed_spans`, what an epoch snapshot serves) — the edb
/// engines borrow their enclave-resident shard mirrors to avoid copying
/// per query, and the executor fans scans out across the partitions.
struct Table {
  std::string name;
  Schema schema;
  std::vector<Row> rows;
  const std::vector<Row>* borrowed_rows = nullptr;
  std::vector<const std::vector<Row>*> borrowed_parts;
  std::vector<RowSpan> borrowed_spans;

  /// The effective row set when the table is NOT multi-partition. Callers
  /// that may see sharded tables must use Spans()/TotalRows() instead.
  const std::vector<Row>& data() const {
    return borrowed_rows ? *borrowed_rows : rows;
  }

  /// The effective partitions (one per shard; exactly one for owned or
  /// single-borrow tables). Pointers are non-null. Span-backed tables have
  /// no partition form — use Spans(), which every execution path does.
  std::vector<const std::vector<Row>*> Parts() const {
    if (!borrowed_parts.empty()) return borrowed_parts;
    return {borrowed_rows ? borrowed_rows : &rows};
  }

  /// The effective row spans, in scan order (shard-major for sharded
  /// borrows). This is the one representation every execution path
  /// consumes; the other storage forms degrade to it.
  std::vector<RowSpan> Spans() const {
    if (!borrowed_spans.empty()) return borrowed_spans;
    std::vector<RowSpan> spans;
    const auto parts = Parts();
    spans.reserve(parts.size());
    for (const auto* part : parts) {
      spans.push_back({part->data(), part->size(), {}});
    }
    return spans;
  }

  /// Total rows across all partitions/spans.
  size_t TotalRows() const {
    if (!borrowed_spans.empty()) {
      size_t n = 0;
      for (const auto& span : borrowed_spans) n += span.size;
      return n;
    }
    if (borrowed_parts.empty()) return data().size();
    size_t n = 0;
    for (const auto* part : borrowed_parts) n += part->size();
    return n;
  }
};

/// Name -> table lookup (non-owning).
class Catalog {
 public:
  void AddTable(const Table* table) { tables_[table->name] = table; }
  const Table* Find(const std::string& name) const {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : it->second;
  }

 private:
  std::map<std::string, const Table*> tables_;
};

/// Builds the schema of `left JOIN right`: every column is table-qualified
/// ("Left.col", "Right.col") so predicates can address either side.
Schema JoinedSchema(const Table& left, const Table& right);

/// Execution knobs. `vectorized` (default on) lets eligible scans run on
/// the columnar batch path: predicate evaluation fills a selection bitmap
/// per tile and aggregation folds typed column arrays directly. The
/// scalar row path remains the reference implementation and answers every
/// query the batch path cannot take (spans without columnar projections,
/// non-compilable predicates, string/float group keys) — and the batch
/// path is constructed to be bit-identical to it (fixed reduction order;
/// see docs/ARCHITECTURE.md), so flipping this knob never changes an
/// answer, only wall-clock time.
///
/// `parallel_join` (default on) runs the partitioned hash join's key
/// extraction, build and probe phases on the shared pool. The probe
/// decomposition (chunk boundaries and the chunk-order partial merge) is
/// the same in both modes, so serial and parallel joins are bit-identical
/// — the knob only moves which thread walks each chunk.
///
/// `join_skip_dummy_rows` (default off) lets the join pre-filter each
/// side's rows on its `isDummy = 0` conjunct during key extraction and
/// elide those conjuncts from the per-pair WHERE. Callers must only set
/// it for queries whose WHERE carries the Appendix-B dummy-exclusion
/// conjuncts for both sides (what RewriteForDummies emits — the edb
/// engines); the pre-filter is then a pure optimization: it removes
/// exactly the pairs the conjuncts would have rejected, and avoids the
/// quadratic blow-up of dummy rows sharing a join key.
struct ExecutorOptions {
  bool vectorized = true;
  bool parallel_join = true;
  bool join_skip_dummy_rows = false;
};

/// Executes SELECT statements against a catalog.
class Executor {
 public:
  explicit Executor(const Catalog* catalog,
                    ExecutorOptions options = ExecutorOptions())
      : catalog_(catalog), options_(options) {}

  /// Runs the query. Errors: NotFound (unknown table), Unimplemented
  /// (unsupported shapes: no aggregate, multi-column GROUP BY).
  StatusOr<QueryResult> Execute(const SelectQuery& q) const;

 private:
  StatusOr<QueryResult> ExecuteScan(const SelectQuery& q,
                                    const Table& table) const;
  StatusOr<QueryResult> ExecuteJoin(const SelectQuery& q, const Table& left,
                                    const Table& right) const;
  /// Attempts the columnar batch path; nullopt means "not eligible, use
  /// the scalar path". Never wrong, only sometimes unavailable.
  std::optional<QueryResult> TryVectorizedScan(const SelectQuery& q,
                                               const Table& table,
                                               const SelectItem& agg) const;

  const Catalog* catalog_;
  ExecutorOptions options_;
};

/// Streaming aggregate accumulator shared by all execution backends.
class AggAccumulator {
 public:
  explicit AggAccumulator(AggFunc func) : func_(func) {}

  /// Adds one row's contribution; `v` is the aggregated column value
  /// (ignored for COUNT(*)).
  void Add(const Value& v);

  /// Final aggregate value (0 for empty COUNT/SUM, NaN-safe AVG -> 0).
  double Result() const;

  /// Folds another accumulator into this one, as if its rows had been
  /// Add()ed here in order. Lets parallel scans keep per-chunk partials
  /// and merge them deterministically (chunk-index order).
  void Merge(const AggAccumulator& other);

  /// Vectorized-path equivalents of Add(), inlined so FoldColumn's tight
  /// loops compile to straight-line code. AddNull() is Add(NULL): the row
  /// is counted (COUNT(col) and AVG's divisor include NULLs — the
  /// documented Add() semantics) but contributes nothing else.
  /// AddMeasure(d) is Add(v) for non-null v with v.AsDouble() == d; the
  /// statement order matches Add() exactly so SUM/MIN/MAX state evolves
  /// bit-identically.
  void AddNull() { ++count_; }
  void AddMeasure(double d) {
    ++count_;
    if (func_ == AggFunc::kCount) return;
    sum_ += d;
    if (!seen_ || d < min_) min_ = d;
    if (!seen_ || d > max_) max_ = d;
    seen_ = true;
  }

  /// Folds the selected rows [begin, begin+n) of a typed column in strict
  /// ascending row order — the fixed lane-reduction order that keeps
  /// FP-sensitive aggregates (SUM/AVG) bit-identical to row-at-a-time
  /// Add() over the same rows. `sel` is a 0/1 bitmap of length n;
  /// nullptr means every row is selected. `col` must be typed
  /// (kInt or kDouble).
  void FoldColumn(const ColumnSpan& col, size_t begin, size_t n,
                  const uint8_t* sel);

  /// COUNT-style fold: every selected row contributes its existence only
  /// (Add() ignores the value for kCount).
  void FoldCount(size_t n, const uint8_t* sel);

  int64_t count() const { return count_; }
  AggFunc func() const { return func_; }

  /// The accumulator's full internal state, exposed for serialization
  /// (the distributed layer ships partials between processes). A state
  /// captured on one host and restored with FromState() on another
  /// continues Merge()/Result() bit-identically — doubles travel as
  /// exact bit patterns on the wire.
  struct State {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    bool seen = false;
  };
  State state() const { return {count_, sum_, min_, max_, seen_}; }
  static AggAccumulator FromState(AggFunc func, const State& s) {
    AggAccumulator acc(func);
    acc.count_ = s.count;
    acc.sum_ = s.sum;
    acc.min_ = s.min;
    acc.max_ = s.max;
    acc.seen_ = s.seen;
    return acc;
  }

 private:
  AggFunc func_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool seen_ = false;
};

/// One span's (one storage shard's) contribution to a scan: the fold of
/// that span's sub-chunk accumulators in chunk order, starting from a
/// fresh accumulator. Span partials are the unit of the scan reduction
/// tree (see ScanPartial below): they never blend rows across a span
/// boundary, which is what lets a remote process recompute exactly this
/// cell from its local copy of the span.
struct SpanPartial {
  AggAccumulator total{AggFunc::kCount};
  std::map<Value, AggAccumulator> groups;
};

/// A mergeable partial aggregate over a prefix-contiguous run of a
/// table's spans — what a shard server returns for its local shard range
/// and what the coordinator merges in strict server-rank order.
///
/// The determinism contract: every scan path (scalar, vectorized, local
/// or distributed) reduces over the SAME tree — sub-chunks fold left
/// within their span, span partials fold left in span order — which is a
/// pure function of the ordered span row counts, never of how spans are
/// grouped into processes or scheduled onto threads. Because FP addition
/// is non-associative, the per-span cells travel alongside the folded
/// aggregate: MergeFrom replays `other`'s cells one span at a time, so a
/// coordinator folding per-server partials in rank order reproduces the
/// single-process fold bit for bit (SUM/AVG over doubles included).
struct ScanPartial {
  AggFunc func = AggFunc::kCount;
  bool grouped = false;
  /// Per-span cells in span (global shard) order; empty spans contribute
  /// no cell. `total`/`groups` are the left fold of these cells.
  std::vector<SpanPartial> spans;
  AggAccumulator total{AggFunc::kCount};
  std::map<Value, AggAccumulator> groups;
  int64_t records_scanned = 0;

  /// Appends one span's cell and folds it into the aggregate state.
  void AppendSpan(SpanPartial cell);

  /// Folds `other` into this partial, one span cell at a time. `other`'s
  /// spans must come later in the global span order than everything
  /// already merged (rank order guarantees this).
  Status MergeFrom(const ScanPartial& other);

  /// The final answer, identical to ExecuteScan over the union of rows.
  QueryResult Finalize() const;
};

/// Runs the scalar aggregation loop of ExecuteScan over `table` but stops
/// before finalizing: the returned partial carries raw accumulator state
/// suitable for cross-process merging. Supports the same shapes as
/// ExecuteScan minus joins (single aggregate, optional single-column
/// GROUP BY). ExecuteScan itself finalizes this partial, so the
/// span-aligned decomposition and its merge tree are shared by
/// construction and Finalize() on a single table's partial equals
/// ExecuteScan exactly.
StatusOr<ScanPartial> ExecuteScanPartial(const SelectQuery& q,
                                         const Table& table);

}  // namespace dpsync::query
