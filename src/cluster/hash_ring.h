// Consistent-hash ring for the serve cluster (DESIGN.md §15).
//
// The router shards diagnosis jobs across N `rose_served` backends by the
// submission's canonical trace hash. Two properties matter:
//
//   Stability: adding or removing one shard remaps only the keys that shard
//     owned (plus the slice the new shard claims) — every other key keeps
//     its owner, so shard-local result caches stay hot across membership
//     changes. Plain modulo hashing would reshuffle nearly everything.
//
//   Determinism: ring points are a pure function of (shard name, vnode
//     index), so two routers configured with the same membership route every
//     key identically — which is what makes clustered output reproducible
//     and lets a restarted router agree with its own journal.
//
// Each shard contributes kVnodes points (FNV-mixed from name + index) so
// ownership splits evenly even with two or three shards. Membership changes
// bump `epoch()`; the router journals each epoch with its member list.
#ifndef SRC_CLUSTER_HASH_RING_H_
#define SRC_CLUSTER_HASH_RING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rose {

class HashRing {
 public:
  // Ring points per shard.
  static constexpr int kVnodes = 64;

  // False when `name` is already a member (no change, no epoch bump).
  bool AddShard(const std::string& name);
  // False when `name` is not a member.
  bool RemoveShard(const std::string& name);
  bool HasShard(const std::string& name) const;

  // Owner of `key`: the first ring point at or clockwise after hash(key).
  // Empty string when the ring has no shards.
  std::string OwnerOf(uint64_t key) const;

  // Owner of `key` with `skip` treated as dead: the next distinct shard
  // clockwise. Empty when no other shard exists. This is the failover
  // successor — deterministic, so a re-dispatch lands where a fresh routing
  // of the same key would once the dead shard is removed.
  std::string SuccessorOf(uint64_t key, const std::string& skip) const;

  // Members in insertion order (the journal's epoch record payload).
  const std::vector<std::string>& shards() const { return shards_; }
  size_t size() const { return shards_.size(); }
  uint64_t epoch() const { return epoch_; }
  // Continues epoch numbering after a journal replay (epochs stay monotonic
  // across router restarts).
  void SeedEpoch(uint64_t epoch) { epoch_ = epoch; }

  // The ring point for an arbitrary key (exposed for ownership tests).
  static uint64_t HashKey(uint64_t key);

 private:
  struct Point {
    uint64_t position;
    // Index into shards_ — names live once, points stay small.
    size_t shard;
  };

  void Rebuild();

  uint64_t epoch_ = 0;
  std::vector<std::string> shards_;
  std::vector<Point> points_;  // Sorted by position.
};

}  // namespace rose

#endif  // SRC_CLUSTER_HASH_RING_H_
