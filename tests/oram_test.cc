// Path ORAM tests: functional correctness, capacity handling, stash
// behaviour, and the statistical obliviousness property (leaf-access
// distribution independent of the logical access pattern) — for both the
// single tree and the sharded OramMirror built on top of it.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/shard_router.h"
#include "edb/leakage.h"
#include "oram/oram_mirror.h"
#include "oram/path_oram.h"
#include "oram/sharded_oram_mirror.h"

namespace dpsync::oram {
namespace {

Bytes Payload(uint64_t id) {
  Bytes b(16, 0);
  StoreLE64(b.data(), id * 1000003);
  return b;
}

PathOram::Config SmallConfig(bool trace = false) {
  PathOram::Config cfg;
  cfg.capacity = 256;
  cfg.seed = 11;
  cfg.record_trace = trace;
  return cfg;
}

TEST(PathOramTest, WriteThenRead) {
  PathOram oram(SmallConfig());
  ASSERT_TRUE(oram.Write(1, Payload(1)).ok());
  auto r = oram.Read(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Payload(1));
}

TEST(PathOramTest, OverwriteReplacesValue) {
  PathOram oram(SmallConfig());
  ASSERT_TRUE(oram.Write(1, Payload(1)).ok());
  ASSERT_TRUE(oram.Write(1, Payload(99)).ok());
  EXPECT_EQ(oram.Read(1).value(), Payload(99));
  EXPECT_EQ(oram.size(), 1u);
}

TEST(PathOramTest, ReadMissingIsNotFound) {
  PathOram oram(SmallConfig());
  EXPECT_EQ(oram.Read(42).status().code(), StatusCode::kNotFound);
}

TEST(PathOramTest, RemoveDeletes) {
  PathOram oram(SmallConfig());
  ASSERT_TRUE(oram.Write(7, Payload(7)).ok());
  ASSERT_TRUE(oram.Remove(7).ok());
  EXPECT_FALSE(oram.Read(7).ok());
  EXPECT_EQ(oram.size(), 0u);
}

TEST(PathOramTest, RemoveMissingFails) {
  PathOram oram(SmallConfig());
  EXPECT_FALSE(oram.Remove(7).ok());
}

TEST(PathOramTest, ReservedIdRejected) {
  PathOram oram(SmallConfig());
  EXPECT_FALSE(oram.Write(OramBlock::kInvalidId, Payload(0)).ok());
}

TEST(PathOramTest, CapacityEnforced) {
  PathOram::Config cfg;
  cfg.capacity = 8;
  cfg.seed = 3;
  PathOram oram(cfg);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(oram.Write(i, Payload(i)).ok()) << i;
  }
  EXPECT_EQ(oram.Write(100, Payload(100)).code(), StatusCode::kOutOfRange);
  // Overwriting an existing block is still allowed at capacity.
  EXPECT_TRUE(oram.Write(3, Payload(33)).ok());
}

TEST(PathOramTest, ManyBlocksAllRecoverable) {
  PathOram::Config cfg;
  cfg.capacity = 2048;
  cfg.seed = 17;
  PathOram oram(cfg);
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(oram.Write(i, Payload(i)).ok()) << i;
  }
  EXPECT_EQ(oram.size(), 2000u);
  for (uint64_t i = 0; i < 2000; i += 37) {
    auto r = oram.Read(i);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(r.value(), Payload(i)) << i;
  }
}

TEST(PathOramTest, StashStaysSmall) {
  PathOram::Config cfg;
  cfg.capacity = 1024;
  cfg.seed = 23;
  PathOram oram(cfg);
  Rng rng(5);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(oram.Write(i, Payload(i)).ok());
  }
  for (int i = 0; i < 5000; ++i) {
    uint64_t id = static_cast<uint64_t>(rng.UniformInt(0, 999));
    ASSERT_TRUE(oram.Read(id).ok());
  }
  // Theory: stash exceeds ~O(log N) with negligible probability for Z=4.
  EXPECT_LT(oram.max_stash_size(), 120u);
}

TEST(PathOramTest, AccessCountTracksOperations) {
  PathOram oram(SmallConfig());
  ASSERT_TRUE(oram.Write(1, Payload(1)).ok());
  ASSERT_TRUE(oram.Read(1).ok());
  ASSERT_TRUE(oram.Remove(1).ok());
  EXPECT_EQ(oram.access_count(), 3);
}

// Obliviousness: the observable leaf sequence must look uniform regardless
// of the logical access pattern. We access a *single hot block* repeatedly
// and check that the touched leaves cover the leaf range near-uniformly
// (chi-squared against uniform, loose bound).
TEST(PathOramTest, HotBlockAccessLeavesLookUniform) {
  auto cfg = SmallConfig(/*trace=*/true);
  PathOram oram(cfg);
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(oram.Write(i, Payload(i)).ok());
  }
  const int kAccesses = 20000;
  for (int i = 0; i < kAccesses; ++i) {
    ASSERT_TRUE(oram.Read(7).ok());
  }
  // Count leaf frequencies over the trailing accesses.
  std::map<uint64_t, int> freq;
  const auto& trace = oram.trace();
  size_t start = trace.size() - kAccesses;
  for (size_t i = start; i < trace.size(); ++i) freq[trace[i].leaf]++;
  double expected = static_cast<double>(kAccesses) /
                    static_cast<double>(oram.num_leaves());
  double chi2 = 0;
  for (uint64_t leaf = 0; leaf < oram.num_leaves(); ++leaf) {
    double observed = static_cast<double>(freq[leaf]);
    chi2 += (observed - expected) * (observed - expected) / expected;
  }
  // dof = num_leaves - 1 = 255; 99.9th percentile ~ 340.
  EXPECT_LT(chi2, 360.0);
}

// Two very different logical workloads must induce statistically similar
// observable traces (here: mean leaf value close to the uniform mean).
TEST(PathOramTest, TraceIndependentOfWorkload) {
  auto run = [](bool sequential) {
    auto cfg = SmallConfig(/*trace=*/true);
    cfg.seed = 777;
    PathOram oram(cfg);
    for (uint64_t i = 0; i < 128; ++i) {
      EXPECT_TRUE(oram.Write(i, Payload(i)).ok());
    }
    Rng rng(31);
    for (int i = 0; i < 8000; ++i) {
      uint64_t id = sequential ? static_cast<uint64_t>(i % 128)
                               : static_cast<uint64_t>(rng.UniformInt(0, 7));
      EXPECT_TRUE(oram.Read(id).ok());
    }
    double sum = 0;
    for (const auto& a : oram.trace()) sum += static_cast<double>(a.leaf);
    return sum / static_cast<double>(oram.trace().size());
  };
  double mean_seq = run(true);
  double mean_hot = run(false);
  double uniform_mean = (256.0 - 1.0) / 2.0;  // leaves 0..255
  EXPECT_NEAR(mean_seq, uniform_mean, 4.0);
  EXPECT_NEAR(mean_hot, uniform_mean, 4.0);
}

// ------------------------------------------------------------ OramMirror

/// A distinct record identity per id (routing input; never stored).
Bytes Identity(uint64_t id) {
  Bytes b(24, 0);
  StoreLE64(b.data(), id);
  StoreLE64(b.data() + 8, id * 0x9e3779b97f4a7c15ULL);
  return b;
}

OramMirrorConfig MirrorConfig(int shards, bool trace = false) {
  OramMirrorConfig cfg;
  cfg.capacity = 256;
  cfg.num_shards = shards;
  cfg.master_seed = 2027;
  cfg.record_trace = trace;
  return cfg;
}

TEST(OramMirrorTest, FactoryPicksImplementationByTopology) {
  auto single = MakeOramMirror(MirrorConfig(1));
  auto sharded = MakeOramMirror(MirrorConfig(4));
  EXPECT_EQ(single->num_shards(), 1);
  EXPECT_NE(dynamic_cast<PathOram*>(single.get()), nullptr);
  EXPECT_EQ(sharded->num_shards(), 4);
  EXPECT_NE(dynamic_cast<ShardedOramMirror*>(sharded.get()), nullptr);
}

TEST(OramMirrorTest, CapacitySplitsCeilOverShards) {
  OramMirrorConfig cfg = MirrorConfig(4);
  cfg.capacity = 1023;  // ceil(1023/4) = 256 per shard
  auto mirror = MakeOramMirror(cfg);
  EXPECT_EQ(mirror->capacity(), 1024u);
  for (int s = 0; s < 4; ++s) {
    // 256-capacity trees: 256 leaves, 9 buckets per path.
    EXPECT_EQ(mirror->ShardLeaves(s), 256u);
    EXPECT_EQ(mirror->ShardLevels(s), 9u);
  }
}

TEST(OramMirrorTest, ShardSeedsAreDistinctAndDeterministic) {
  EXPECT_EQ(DeriveOramShardSeed(7, 0), DeriveOramShardSeed(7, 0));
  EXPECT_NE(DeriveOramShardSeed(7, 0), DeriveOramShardSeed(7, 1));
  EXPECT_NE(DeriveOramShardSeed(7, 0), DeriveOramShardSeed(8, 0));
}

TEST(OramMirrorTest, RoutesByTheSameFnv1aIdentityAsShardRouter) {
  auto mirror = MakeOramMirror(MirrorConfig(4));
  ShardRouter router(4);
  for (uint64_t id = 0; id < 64; ++id) {
    EXPECT_EQ(mirror->ShardOf(Identity(id)), router.Route(Identity(id)))
        << id;
  }
}

TEST(ShardedOramMirrorTest, RoundTripAcrossShards) {
  auto mirror = MakeOramMirror(MirrorConfig(4));
  for (uint64_t id = 0; id < 200; ++id) {
    ASSERT_TRUE(mirror->Mirror(id, Identity(id), Payload(id)).ok()) << id;
  }
  EXPECT_EQ(mirror->size(), 200u);
  for (uint64_t id = 0; id < 200; ++id) {
    auto r = mirror->Read(id);
    ASSERT_TRUE(r.ok()) << id;
    EXPECT_EQ(r.value(), Payload(id)) << id;
  }
  // Blocks landed in the tree their identity routes to.
  ShardRouter router(4);
  int64_t total_accesses = 0;
  for (int s = 0; s < 4; ++s) total_accesses += mirror->ShardAccessCount(s);
  EXPECT_EQ(total_accesses, 400);  // 200 writes + 200 reads
  for (uint64_t id = 0; id < 200; ++id) {
    int shard = router.Route(Identity(id));
    EXPECT_GT(mirror->ShardAccessCount(shard), 0) << id;
  }
}

TEST(ShardedOramMirrorTest, TouchRemoveAndMissingIds) {
  auto mirror = MakeOramMirror(MirrorConfig(4));
  ASSERT_TRUE(mirror->Mirror(5, Identity(5), Payload(5)).ok());
  EXPECT_TRUE(mirror->Touch(5).ok());
  EXPECT_EQ(mirror->Touch(6).code(), StatusCode::kNotFound);
  ASSERT_TRUE(mirror->Remove(5).ok());
  EXPECT_EQ(mirror->size(), 0u);
  EXPECT_EQ(mirror->Read(5).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(mirror->Remove(5).code(), StatusCode::kNotFound);
}

TEST(ShardedOramMirrorTest, MirrorBatchMatchesSingleWrites) {
  auto batched = MakeOramMirror(MirrorConfig(4));
  auto single = MakeOramMirror(MirrorConfig(4));
  std::vector<Bytes> identities;
  for (uint64_t id = 0; id < 100; ++id) identities.push_back(Identity(id));
  std::vector<OramMirror::MirrorEntry> entries;
  for (uint64_t id = 0; id < 100; ++id) {
    entries.push_back({id, &identities[id], Payload(id)});
    ASSERT_TRUE(single->Mirror(id, identities[id], Payload(id)).ok());
  }
  auto routes = batched->MirrorBatch(std::move(entries));
  ASSERT_TRUE(routes.ok());
  ASSERT_EQ(routes.value().size(), 100u);
  ShardRouter reference(4);
  for (uint64_t id = 0; id < 100; ++id) {
    EXPECT_EQ(routes.value()[id], reference.Route(identities[id])) << id;
  }
  EXPECT_EQ(batched->size(), single->size());
  for (uint64_t id = 0; id < 100; ++id) {
    auto a = batched->Read(id);
    auto b = single->Read(id);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value()) << id;
  }
}

TEST(ShardedOramMirrorTest, BatchOverflowLeavesConsistentState) {
  // Overfill a tiny mirror: ceil(12/4) = 3 blocks per tree, 64 entries —
  // every tree overflows. The batch must fail with OutOfRange and the
  // mirror must stay consistent: size() only counts blocks a tree really
  // holds, and failed ids are absent (NotFound), not half-registered.
  OramMirrorConfig cfg = MirrorConfig(4);
  cfg.capacity = 12;
  auto mirror = MakeOramMirror(cfg);
  std::vector<Bytes> identities;
  for (uint64_t id = 0; id < 64; ++id) identities.push_back(Identity(id));
  std::vector<OramMirror::MirrorEntry> entries;
  for (uint64_t id = 0; id < 64; ++id) {
    entries.push_back({id, &identities[id], Payload(id)});
  }
  auto routed = mirror->MirrorBatch(std::move(entries));
  EXPECT_EQ(routed.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(mirror->size(), 12u);
  size_t readable = 0;
  for (uint64_t id = 0; id < 64; ++id) {
    auto r = mirror->Read(id);
    if (r.ok()) {
      ++readable;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kNotFound) << id;
    }
  }
  EXPECT_EQ(readable, 12u);
}

TEST(ShardedOramMirrorTest, StashStatsAggregateAcrossTrees) {
  auto mirror = MakeOramMirror(MirrorConfig(4));
  for (uint64_t id = 0; id < 128; ++id) {
    ASSERT_TRUE(mirror->Mirror(id, Identity(id), Payload(id)).ok());
  }
  auto stats = mirror->StashStats();
  EXPECT_EQ(stats.live_blocks, 128u);
  EXPECT_EQ(stats.access_count, 128);
  size_t max_over_shards = 0;
  for (int s = 0; s < 4; ++s) {
    max_over_shards = std::max(max_over_shards, mirror->ShardMaxStash(s));
  }
  EXPECT_EQ(stats.max_stash_size, max_over_shards);
}

// The acceptance property for the per-shard refactor: each shard's
// observable transcript — aggregated the same way the leakage layer does —
// must be uniform over that shard's own leaves, for both the single global
// tree and the sharded topology. Per-shard trees must not leak more than
// the tree they replaced.
TEST(ShardedOramMirrorTest, PerShardTranscriptsUniformOverLeaves) {
  for (int shards : {1, 4}) {
    auto mirror = MakeOramMirror(MirrorConfig(shards, /*trace=*/true));
    const uint64_t kBlocks = 128;
    for (uint64_t id = 0; id < kBlocks; ++id) {
      ASSERT_TRUE(mirror->Mirror(id, Identity(id), Payload(id)).ok());
    }
    // A deliberately skewed logical workload: round-robin sweeps plus a
    // hot block, the access mix an indexed scan + point lookups produces.
    for (int i = 0; i < 20000; ++i) {
      ASSERT_TRUE(mirror->Touch(static_cast<uint64_t>(i) % kBlocks).ok());
      if (i % 4 == 0) ASSERT_TRUE(mirror->Touch(7).ok());
    }
    auto transcripts = edb::AggregateOramTranscripts(*mirror);
    ASSERT_EQ(transcripts.size(), static_cast<size_t>(shards));
    for (const auto& t : transcripts) {
      ASSERT_GT(t.accesses, 0) << "shard " << t.shard;
      ASSERT_EQ(t.leaf_counts.size(), t.num_leaves);
      // Chi-squared against uniform with dof = leaves - 1; the bound is
      // mean + 5 sigma (sigma = sqrt(2 dof)), far past the 99.9th
      // percentile yet tight enough to catch any leaf bias.
      double dof = static_cast<double>(t.num_leaves) - 1.0;
      EXPECT_LT(t.chi2_uniform, dof + 5.0 * std::sqrt(2.0 * dof))
          << "shards=" << shards << " shard=" << t.shard;
    }
  }
}

class OramSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(OramSizeTest, FillDrainRoundTrip) {
  PathOram::Config cfg;
  cfg.capacity = GetParam();
  cfg.seed = GetParam() * 7 + 1;
  PathOram oram(cfg);
  size_t n = cfg.capacity;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(oram.Write(i, Payload(i)).ok());
  }
  for (uint64_t i = 0; i < n; ++i) {
    auto r = oram.Read(i);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), Payload(i));
  }
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(oram.Remove(i).ok());
  }
  EXPECT_EQ(oram.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, OramSizeTest,
                         ::testing::Values(2, 4, 16, 100, 512, 1000));

// ------------------------------------------------------- golden parity

// These constants pin the tree's observable behaviour: the leaf transcript,
// the stash occupancy after every access, the stash high-water mark, the
// access count and every value read back. The tree layout may change; none
// of these may. Greedy bottom-up eviction places min(Z, eligible) blocks per
// bucket whichever eligible blocks it picks, so stash occupancy depends only
// on the leaf stream, never on the storage order of buckets or stash.

uint64_t FoldWord(uint64_t h, uint64_t word) {
  uint8_t buf[8];
  StoreLE64(buf, word);
  return Fnv1a64(buf, sizeof(buf), h);
}

uint64_t TranscriptHash(const std::vector<PathAccess>& trace) {
  uint64_t h = Fnv1a64(nullptr, 0);
  for (const auto& a : trace) h = FoldWord(h, a.leaf);
  return h;
}

/// A payload that differs per id *and* per write, so a stale value shows.
Bytes VersionedPayload(uint64_t id, uint64_t version) {
  Bytes b(24, 0);
  StoreLE64(b.data(), id);
  StoreLE64(b.data() + 8, version);
  StoreLE64(b.data() + 16, (id + 1) * 0x9e3779b97f4a7c15ULL ^ version);
  return b;
}

struct GoldenCase {
  size_t capacity;
  size_t blocks;  ///< blocks written before the mixed phase
  uint64_t seed;
  // Pinned results.
  uint64_t leaf_hash;
  uint64_t stash_hash;
  size_t max_stash;
  int64_t accesses;
  uint64_t read_hash;
};

/// Fills `blocks` ids, then runs a seeded mix of new-block and overwrite
/// writes, reads, touches and removes over ids [0, blocks * 5 / 4] — so a
/// share of calls hit absent ids (NotFound) or a full tree (OutOfRange).
/// A model map checks every read; failed calls must not touch the tree.
GoldenCase RunGoldenMix(size_t capacity, size_t blocks, uint64_t seed) {
  PathOram::Config cfg;
  cfg.capacity = capacity;
  cfg.seed = seed;
  cfg.record_trace = true;
  PathOram oram(cfg);
  std::map<uint64_t, Bytes> model;
  uint64_t version = 0;
  uint64_t stash_hash = Fnv1a64(nullptr, 0);
  uint64_t read_hash = Fnv1a64(nullptr, 0);
  int64_t before = 0;
  // Every successful call is exactly one path access; a failed call is
  // none, and leaves the stash alone.
  auto check = [&](const Status& s, bool expect_ok, StatusCode code) {
    EXPECT_EQ(oram.access_count(), before + (expect_ok ? 1 : 0));
    before = oram.access_count();
    if (expect_ok) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      stash_hash = FoldWord(stash_hash, oram.stash_size());
    } else {
      EXPECT_EQ(s.code(), code);
    }
  };

  for (uint64_t id = 0; id < blocks; ++id) {
    Bytes v = VersionedPayload(id, ++version);
    model[id] = v;
    check(oram.Write(id, std::move(v)), true, StatusCode::kOk);
  }
  Rng rng(seed * 31 + 7);
  const int64_t max_id = static_cast<int64_t>(blocks + blocks / 4);
  for (int op = 0; op < 4000; ++op) {
    const uint64_t id = static_cast<uint64_t>(rng.UniformInt(0, max_id));
    const bool live = model.count(id) != 0;
    switch (rng.UniformInt(0, 9)) {
      case 0: case 1: case 2: case 3: {  // Read
        auto r = oram.Read(id);
        check(r.status(), live, StatusCode::kNotFound);
        if (live && r.ok()) {
          EXPECT_EQ(r.value(), model[id]) << "id " << id << " op " << op;
          read_hash = Fnv1a64(r.value().data(), r.value().size(), read_hash);
        }
        break;
      }
      case 4: case 5:  // Touch
        check(oram.Touch(id), live, StatusCode::kNotFound);
        break;
      case 6: case 7: case 8: {  // Write: overwrite, or a new block
        const bool fits = live || model.size() < capacity;
        Bytes v = VersionedPayload(id, ++version);
        if (fits) model[id] = v;
        check(oram.Write(id, std::move(v)), fits, StatusCode::kOutOfRange);
        break;
      }
      default:  // Remove
        check(oram.Remove(id), live, StatusCode::kNotFound);
        model.erase(id);
        break;
    }
  }
  EXPECT_EQ(oram.size(), model.size());
  EXPECT_EQ(static_cast<int64_t>(oram.trace().size()), oram.access_count());
  return {capacity,          blocks,
          seed,              TranscriptHash(oram.trace()),
          stash_hash,        oram.max_stash_size(),
          oram.access_count(), read_hash};
}

TEST(PathOramGoldenTest, TranscriptStashAndReadsArePinned) {
  const GoldenCase kCases[] = {
      // capacity, blocks, seed, leaf_hash, stash_hash, max_stash,
      // accesses, read_hash
      {16, 16, 101, 0x5b90f5ddb9230c69ULL, 0xe1054b3fa124f606ULL, 2, 3070,
       0xb32dd3f3a92a51ebULL},
      {256, 192, 202, 0x026466150f0a66c6ULL, 0x5d3a4de947364ce0ULL, 4, 3484,
       0x8b81c089d035a9bfULL},
      {1024, 1000, 303, 0x8b97415a77feb46bULL, 0x5681197b1bbf2644ULL, 5, 4329,
       0xa3cefb53df244f03ULL},
      {13014, 3000, 404, 0x30b9382224e8ff44ULL, 0x1690e53032f05002ULL, 9,
       6434, 0x35769a2be6d58e73ULL},
  };
  for (const auto& want : kCases) {
    SCOPED_TRACE("capacity " + std::to_string(want.capacity));
    GoldenCase got = RunGoldenMix(want.capacity, want.blocks, want.seed);
    EXPECT_EQ(got.leaf_hash, want.leaf_hash);
    EXPECT_EQ(got.stash_hash, want.stash_hash);
    EXPECT_EQ(got.max_stash, want.max_stash);
    EXPECT_EQ(got.accesses, want.accesses);
    EXPECT_EQ(got.read_hash, want.read_hash);
  }
}

TEST(PathOramGoldenTest, ShardedTranscriptsArePinned) {
  OramMirrorConfig cfg = MirrorConfig(4, /*trace=*/true);
  cfg.capacity = 1024;
  auto mirror = MakeOramMirror(cfg);
  for (uint64_t id = 0; id < 600; ++id) {
    ASSERT_TRUE(mirror->Mirror(id, Identity(id), Payload(id)).ok()) << id;
  }
  Rng rng(99);
  for (int op = 0; op < 3000; ++op) {
    const uint64_t id = static_cast<uint64_t>(rng.UniformInt(0, 599));
    if (op % 3 == 0) {
      ASSERT_TRUE(mirror->Read(id).ok()) << id;
    } else {
      ASSERT_TRUE(mirror->Touch(id).ok()) << id;
    }
  }
  const uint64_t kShardHashes[4] = {
      0x7c730779a1d47ad1ULL, 0x67449c5f5746a702ULL, 0x3c58847f25ae7de9ULL,
      0xaef3754febe09f59ULL};
  const int64_t kShardAccesses[4] = {871, 841, 1003, 885};
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(TranscriptHash(mirror->Trace(s)), kShardHashes[s]) << s;
    EXPECT_EQ(mirror->ShardAccessCount(s), kShardAccesses[s]) << s;
  }
  EXPECT_EQ(mirror->StashStats().max_stash_size, 4u);
}

}  // namespace
}  // namespace dpsync::oram
