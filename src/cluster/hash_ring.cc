#include "src/cluster/hash_ring.h"

#include <algorithm>

#include "src/common/hash.h"

namespace rose {

// SplitMix64's finalizer spreads FNV's low-entropy high bits across the
// whole word; ring positions must be uniform for vnode ownership to split
// evenly.
uint64_t HashRing::HashKey(uint64_t key) {
  return SplitMix64Finalize(Fnv1a(kFnvOffsetBasis, key));
}

bool HashRing::AddShard(const std::string& name) {
  if (HasShard(name)) {
    return false;
  }
  shards_.push_back(name);
  epoch_++;
  Rebuild();
  return true;
}

bool HashRing::RemoveShard(const std::string& name) {
  auto it = std::find(shards_.begin(), shards_.end(), name);
  if (it == shards_.end()) {
    return false;
  }
  shards_.erase(it);
  epoch_++;
  Rebuild();
  return true;
}

bool HashRing::HasShard(const std::string& name) const {
  return std::find(shards_.begin(), shards_.end(), name) != shards_.end();
}

void HashRing::Rebuild() {
  points_.clear();
  points_.reserve(shards_.size() * kVnodes);
  for (size_t s = 0; s < shards_.size(); s++) {
    const uint64_t base = Fnv1a(kFnvOffsetBasis, shards_[s]);
    for (int v = 0; v < kVnodes; v++) {
      points_.push_back(Point{SplitMix64Finalize(Fnv1a(base, static_cast<uint64_t>(v))), s});
    }
  }
  std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
    // Position ties (vanishingly rare) break on shard index so the order —
    // and therefore ownership — never depends on sort stability.
    return a.position != b.position ? a.position < b.position : a.shard < b.shard;
  });
}

std::string HashRing::OwnerOf(uint64_t key) const {
  return SuccessorOf(key, "");
}

std::string HashRing::SuccessorOf(uint64_t key, const std::string& skip) const {
  if (points_.empty()) {
    return "";
  }
  const uint64_t position = HashKey(key);
  auto it = std::lower_bound(points_.begin(), points_.end(), position,
                             [](const Point& p, uint64_t pos) { return p.position < pos; });
  // Walk clockwise (wrapping) until a shard other than `skip` appears; at
  // most one full lap even when every point belongs to `skip`.
  for (size_t walked = 0; walked < points_.size(); walked++, ++it) {
    if (it == points_.end()) {
      it = points_.begin();
    }
    const std::string& owner = shards_[it->shard];
    if (owner != skip) {
      return owner;
    }
  }
  return "";
}

}  // namespace rose
