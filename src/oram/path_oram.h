/// \file path_oram.h
/// Path ORAM (Stefanov et al., CCS'13) with a non-recursive position map.
/// The ObliDB-style engine (src/edb/oblidb_engine.h) uses it for oblivious
/// point accesses to encrypted records, so the server learns nothing about
/// *which* record an access touches — every access reads and rewrites one
/// uniformly random root-to-leaf path.
///
/// PathOram is also the single-tree implementation of the OramMirror seam
/// (oram_mirror.h); ShardedOramMirror composes one PathOram per storage
/// shard on top of it.
///
/// Parameters: bucket size Z (default 4), capacity N. The tree has
/// 2^ceil(log2(max(N,2))) leaves; the stash holds overflow blocks and is
/// expected to stay O(log N) (we track its high-water mark for tests).
///
/// Layout: one flat slot array indexed node * Z + i plus a fill count per
/// bucket, and a vector stash. Every slot and stash entry carries its
/// block's current leaf, so an access touches only the path's occupied
/// slots and the stash, and moving blocks allocates nothing once the stash
/// vector has grown (docs/ORAM.md, "Tree layout").
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "oram/oram_mirror.h"

namespace dpsync::oram {

/// One ORAM block: an application identifier, the leaf the block is
/// currently mapped to, and an opaque payload.
struct OramBlock {
  static constexpr uint64_t kInvalidId = ~0ull;
  uint64_t id = kInvalidId;
  uint64_t leaf = 0;
  Bytes data;
};

/// Tree-based ORAM with per-access path read/write.
class PathOram : public OramMirror {
 public:
  struct Config {
    size_t capacity = 1024;   ///< max number of live blocks
    size_t bucket_size = 4;   ///< Z
    uint64_t seed = 42;       ///< seeds leaf assignment randomness
    bool record_trace = false;  ///< keep the access transcript (tests)
  };

  explicit PathOram(const Config& config);

  /// Inserts or overwrites block `id`. Fails with OutOfRange when the ORAM
  /// is at capacity and `id` is new.
  Status Write(uint64_t id, Bytes value);

  /// Reads block `id` (the access is indistinguishable from a write).
  StatusOr<Bytes> Read(uint64_t id) override;

  /// Performs the oblivious path access for `id` without copying the
  /// value out of the stash — the scan hot path.
  Status Touch(uint64_t id) override;

  /// Deletes block `id`. Performs a normal path access, then drops the
  /// block. NotFound if absent.
  Status Remove(uint64_t id) override;

  /// True if block `id` is live (no path access — position map only).
  bool Contains(uint64_t id) const { return position_map_.count(id) != 0; }

  /// Live blocks currently stored.
  size_t size() const override { return position_map_.size(); }
  size_t capacity() const override { return config_.capacity; }
  size_t num_leaves() const { return num_leaves_; }

  /// Stash diagnostics (post-eviction occupancy).
  size_t stash_size() const { return stash_.size(); }
  size_t max_stash_size() const { return max_stash_size_; }

  /// Total path accesses performed.
  int64_t access_count() const { return access_count_; }

  /// The observable access transcript (empty unless record_trace).
  const std::vector<PathAccess>& trace() const { return trace_; }

  // --- OramMirror: a PathOram is the single-tree mirror -----------------
  int num_shards() const override { return 1; }
  int ShardOf(const Bytes& /*identity*/) const override { return 0; }
  Status Mirror(uint64_t id, const Bytes& /*identity*/,
                Bytes value) override {
    return Write(id, std::move(value));
  }
  StatusOr<std::vector<int>> MirrorBatch(
      std::vector<MirrorEntry> entries) override;
  const std::vector<PathAccess>& Trace(int /*shard*/) const override {
    return trace_;
  }
  size_t ShardLeaves(int /*shard*/) const override { return num_leaves_; }
  size_t ShardLevels(int /*shard*/) const override { return num_levels_; }
  int64_t ShardAccessCount(int /*shard*/) const override {
    return access_count_;
  }
  size_t ShardMaxStash(int /*shard*/) const override {
    return max_stash_size_;
  }
  MirrorStashStats StashStats() const override {
    return {size(), stash_.size(), max_stash_size_, access_count_};
  }

 private:
  enum class Op { kRead, kTouch, kWrite, kRemove };

  /// The single access procedure all operations funnel through.
  StatusOr<Bytes> Access(Op op, uint64_t id, Bytes* new_value);

  uint64_t RandomLeaf() { return rng_.Next() % num_leaves_; }

  Config config_;
  size_t num_leaves_;
  size_t num_levels_;  ///< tree height + 1 (root..leaf inclusive)
  /// Heap-ordered buckets (root = node 0, children of n at 2n+1, 2n+2):
  /// bucket n owns slots [n * Z, n * Z + fill_[n]).
  std::vector<OramBlock> slots_;
  std::vector<uint32_t> fill_;
  std::vector<size_t> path_;  ///< the current access's nodes, root first
  std::unordered_map<uint64_t, uint64_t> position_map_;  ///< id -> leaf
  std::vector<OramBlock> stash_;
  Rng rng_;
  size_t max_stash_size_ = 0;
  int64_t access_count_ = 0;
  std::vector<PathAccess> trace_;
};

}  // namespace dpsync::oram
