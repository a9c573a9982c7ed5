// Canonical-hash result cache for served diagnoses.
//
// Diagnosis is a pure function of (bug spec, profile, production dump, seed):
// the engine is deterministic, so two submissions with the same canonical
// key MUST produce the same confirmed schedule — recomputing it would burn
// thousands of simulated runs to rediscover a known answer. The cache maps
//
//   key = FNV-mix(canonical trace hash, bug id, seed)
//
// to the finished DiagnosisResult essentials. The canonical trace hash
// (rose::analyze) is pool-independent, so a dump that went through save /
// load / merge round-trips still hits.
//
// Bounds and durability:
//   - In memory: LRU over `capacity` entries (Get promotes, Put evicts).
//   - On disk (optional `dir`): confirmed schedules persist as
//     `<key>.yaml` — the byte-exact FaultSchedule::ToYaml() output, valid
//     input for the executor and `lint_schedule` as-is — plus a `<key>.meta`
//     sidecar with the counters (the YAML stays pristine because the
//     schedule parser has no comment syntax). A memory miss reads the
//     key's two files, so a running or restarted daemon answers every
//     schedule it ever confirmed, however many there are. Unconfirmed
//     results are cached in memory only: they are deterministic too, but
//     worthless across restarts.
#ifndef SRC_SERVE_RESULT_CACHE_H_
#define SRC_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>

namespace rose {

struct CachedResult {
  bool reproduced = false;
  std::string schedule_yaml;
  uint32_t rate_permille = 0;
  uint32_t level = 0;
  uint32_t schedules = 0;
  uint32_t runs = 0;
  std::string fault_summary;
};

class ResultCache {
 public:
  // `dir` is created if missing; empty disables persistence.
  ResultCache(size_t capacity, std::string dir);

  // A memory hit promotes the entry to most-recently-used; a memory miss
  // loads the key's persisted entry, if one is intact, into memory.
  std::optional<CachedResult> Get(uint64_t key);

  // Inserts (or refreshes) an entry; persists confirmed ones when a
  // directory is configured. Evicts the least-recently-used entry beyond
  // capacity (memory only — the disk copy still answers Get).
  void Put(uint64_t key, const CachedResult& result);

  size_t size() const { return entries_.size(); }
  const std::string& dir() const { return dir_; }

 private:
  void Persist(uint64_t key, const CachedResult& result) const;
  // Reads `key`'s persisted entry; false when it is absent or damaged.
  bool Load(uint64_t key, CachedResult* result) const;
  // Inserts into memory as most-recently-used, evicting beyond capacity.
  void Remember(uint64_t key, const CachedResult& result);

  size_t capacity_;
  std::string dir_;
  // MRU at the back; map points into the list.
  std::list<uint64_t> lru_;
  struct Entry {
    CachedResult result;
    std::list<uint64_t>::iterator lru_it;
  };
  std::map<uint64_t, Entry> entries_;
};

}  // namespace rose

#endif  // SRC_SERVE_RESULT_CACHE_H_
