#include "oram/path_oram.h"

#include <algorithm>

namespace dpsync::oram {

namespace {
size_t CeilLog2(size_t n) {
  size_t bits = 0;
  size_t v = 1;
  while (v < n) {
    v <<= 1;
    ++bits;
  }
  return bits;
}
}  // namespace

PathOram::PathOram(const Config& config) : config_(config), rng_(config.seed) {
  size_t leaf_bits = CeilLog2(std::max<size_t>(config.capacity, 2));
  num_leaves_ = size_t{1} << leaf_bits;
  num_levels_ = leaf_bits + 1;
  slots_.resize((2 * num_leaves_ - 1) * config_.bucket_size);
  fill_.resize(2 * num_leaves_ - 1, 0);
  path_.resize(num_levels_);
}

StatusOr<Bytes> PathOram::Access(Op op, uint64_t id, Bytes* new_value) {
  auto pos_it = position_map_.find(id);
  const bool exists = pos_it != position_map_.end();
  if (!exists && op != Op::kWrite) {
    return Status::NotFound("ORAM block not found: " + std::to_string(id));
  }
  if (!exists && position_map_.size() >= config_.capacity) {
    return Status::OutOfRange("ORAM at capacity");
  }

  // 1. Look up (or mint) the block's leaf, then remap it to a fresh
  //    uniformly random leaf — the core of Path ORAM's obliviousness.
  uint64_t old_leaf = exists ? pos_it->second : RandomLeaf();
  ++access_count_;
  if (config_.record_trace) trace_.push_back({old_leaf});

  // 2. Read the whole path into the stash. Nodes are heap-indexed, so the
  //    path's node at `level` is the top `level` bits of the leaf, offset
  //    by the 2^level - 1 nodes above that level.
  const size_t z = config_.bucket_size;
  const size_t leaf_bits = num_levels_ - 1;
  for (size_t level = 0; level < num_levels_; ++level) {
    const size_t node = ((size_t{1} << level) - 1) +
                        static_cast<size_t>(old_leaf >> (leaf_bits - level));
    path_[level] = node;
    for (uint32_t i = 0; i < fill_[node]; ++i) {
      stash_.push_back(std::move(slots_[node * z + i]));
    }
    fill_[node] = 0;
  }

  // 3. Serve the request from the stash and remap the block. A touch
  //    verifies presence but skips the copy-out — scans only need the
  //    path access itself.
  Bytes result;
  const uint64_t new_leaf = RandomLeaf();
  if (!exists) {  // a new block
    stash_.push_back({id, new_leaf, std::move(*new_value)});
    position_map_.emplace(id, new_leaf);
  } else {
    auto it = std::find_if(stash_.begin(), stash_.end(),
                           [id](const OramBlock& b) { return b.id == id; });
    if (it == stash_.end()) {
      return Status::Internal("position map points to a missing block");
    }
    if (op == Op::kRead) result = it->data;
    if (op == Op::kWrite) it->data = std::move(*new_value);
    if (op == Op::kRemove) {
      std::swap(*it, stash_.back());
      stash_.pop_back();
      position_map_.erase(pos_it);
    } else {
      it->leaf = new_leaf;
      pos_it->second = new_leaf;
    }
  }

  // 4. Evict greedily bottom-up. A block fits the path bucket at `level`
  //    iff its leaf agrees with old_leaf on the top `level` bits: its
  //    deepest shared level is leaf_bits - bit_width(leaf ^ old_leaf).
  //    Ordering the stash by leaf ^ old_leaf puts the deepest-fitting
  //    blocks first, so each bucket takes the next min(Z, eligible).
  std::sort(stash_.begin(), stash_.end(),
            [old_leaf](const OramBlock& a, const OramBlock& b) {
              return (a.leaf ^ old_leaf) < (b.leaf ^ old_leaf);
            });
  size_t placed = 0;
  for (size_t level = num_levels_; level-- > 0;) {
    const size_t node = path_[level];
    uint32_t& fill = fill_[node];
    while (fill < z && placed < stash_.size() &&
           ((stash_[placed].leaf ^ old_leaf) >> (leaf_bits - level)) == 0) {
      slots_[node * z + fill++] = std::move(stash_[placed++]);
    }
  }
  stash_.erase(stash_.begin(), stash_.begin() + static_cast<ptrdiff_t>(placed));
  max_stash_size_ = std::max(max_stash_size_, stash_.size());
  return result;
}

Status PathOram::Write(uint64_t id, Bytes value) {
  if (id == OramBlock::kInvalidId) {
    return Status::InvalidArgument("reserved ORAM block id");
  }
  auto r = Access(Op::kWrite, id, &value);
  return r.ok() ? Status::Ok() : r.status();
}

StatusOr<Bytes> PathOram::Read(uint64_t id) {
  return Access(Op::kRead, id, nullptr);
}

Status PathOram::Touch(uint64_t id) {
  auto r = Access(Op::kTouch, id, nullptr);
  return r.ok() ? Status::Ok() : r.status();
}

Status PathOram::Remove(uint64_t id) {
  auto r = Access(Op::kRemove, id, nullptr);
  return r.ok() ? Status::Ok() : r.status();
}

StatusOr<std::vector<int>> PathOram::MirrorBatch(
    std::vector<MirrorEntry> entries) {
  for (auto& e : entries) {
    DPSYNC_RETURN_IF_ERROR(Write(e.id, std::move(e.value)));
  }
  return std::vector<int>(entries.size(), 0);
}

}  // namespace dpsync::oram
