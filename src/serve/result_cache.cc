#include "src/serve/result_cache.h"

#include <filesystem>
#include <fstream>

#include "src/common/strings.h"
#include "src/trace/trace_io.h"

namespace rose {

namespace {

std::string KeyName(uint64_t key) {
  return StrFormat("%016llx", static_cast<unsigned long long>(key));
}

// Temp-file + atomic rename: a crash mid-write leaves a stray .tmp (never
// read: Load opens only final names), never a half-written cache entry under
// its final name. Readers therefore see each file either whole or absent. A
// failed write or rename removes its .tmp.
bool WriteFileAtomic(const std::filesystem::path& path, std::string_view data) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();  // Flushes: a failed write may surface only here.
  std::error_code ec;
  if (!out.fail()) {
    std::filesystem::rename(tmp, path, ec);
    if (!ec) {
      return true;
    }
  }
  std::filesystem::remove(tmp, ec);
  return false;
}

}  // namespace

ResultCache::ResultCache(size_t capacity, std::string dir)
    : capacity_(capacity), dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
  }
}

std::optional<CachedResult> ResultCache::Get(uint64_t key) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    return it->second.result;
  }
  CachedResult result;
  if (dir_.empty() || !Load(key, &result)) {
    return std::nullopt;
  }
  Remember(key, result);
  return result;
}

void ResultCache::Put(uint64_t key, const CachedResult& result) {
  Remember(key, result);
  if (!dir_.empty() && result.reproduced) {
    Persist(key, result);
  }
}

void ResultCache::Remember(uint64_t key, const CachedResult& result) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.result = result;
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_back(key);
  entries_[key] = Entry{result, std::prev(lru_.end())};
  while (entries_.size() > capacity_ && !lru_.empty()) {
    entries_.erase(lru_.front());
    lru_.pop_front();
  }
}

void ResultCache::Persist(uint64_t key, const CachedResult& result) const {
  const std::filesystem::path base = std::filesystem::path(dir_) / KeyName(key);
  // Yaml first, meta second: the meta file is the commit point (Load starts
  // from it), so an entry only becomes visible once both halves are durably
  // named. yaml_bytes is written last so any truncation of the meta — or of
  // the yaml it vouches for — is detectable on load.
  const std::string yaml_path = base.string() + ".yaml";
  if (!WriteFileAtomic(yaml_path, result.schedule_yaml)) {
    return;
  }
  std::string meta = "rose-serve-result v1\n";
  meta += StrFormat("reproduced %d\n", result.reproduced ? 1 : 0);
  meta += StrFormat("rate_permille %u\n", result.rate_permille);
  meta += StrFormat("level %u\n", result.level);
  meta += StrFormat("schedules %u\n", result.schedules);
  meta += StrFormat("runs %u\n", result.runs);
  meta += "summary " + result.fault_summary + "\n";
  meta += StrFormat("yaml_bytes %zu\n", result.schedule_yaml.size());
  if (!WriteFileAtomic(base.string() + ".meta", meta)) {
    // No meta vouches for the yaml, so nothing would ever read or remove it.
    std::error_code ec;
    std::filesystem::remove(yaml_path, ec);
  }
}

bool ResultCache::Load(uint64_t key, CachedResult* result) const {
  const std::string base = (std::filesystem::path(dir_) / KeyName(key)).string();
  std::string meta;
  if (!ReadFileBytes(base + ".meta", &meta)) {
    return false;
  }
  bool header_ok = false;
  bool sealed = false;  // yaml_bytes present = the meta is complete.
  uint64_t yaml_bytes = 0;
  for (const std::string& raw : Split(meta, '\n')) {
    const std::string_view line = StripWhitespace(raw);
    if (line.empty()) {
      continue;
    }
    if (!header_ok) {
      if (line != "rose-serve-result v1") {
        break;
      }
      header_ok = true;
      continue;
    }
    const size_t space = line.find(' ');
    if (space == std::string_view::npos) {
      continue;
    }
    const std::string_view field = line.substr(0, space);
    const std::string_view value = line.substr(space + 1);
    uint64_t number = 0;
    if (field == "summary") {
      result->fault_summary = std::string(value);
    } else if (ParseUint64(value, &number)) {
      if (field == "reproduced") {
        result->reproduced = number != 0;
      } else if (field == "rate_permille") {
        result->rate_permille = static_cast<uint32_t>(number);
      } else if (field == "level") {
        result->level = static_cast<uint32_t>(number);
      } else if (field == "schedules") {
        result->schedules = static_cast<uint32_t>(number);
      } else if (field == "runs") {
        result->runs = static_cast<uint32_t>(number);
      } else if (field == "yaml_bytes") {
        yaml_bytes = number;
        sealed = true;
      }
    }
  }
  // `sealed` rejects a meta truncated mid-file (yaml_bytes is its last
  // line); the size check rejects a yaml truncated after its meta was
  // sealed. Either way the damaged entry is a miss — the cache recovers
  // with one fewer hit, never with a corrupt schedule.
  std::string yaml;
  if (!header_ok || !sealed || !ReadFileBytes(base + ".yaml", &yaml) ||
      yaml.size() != yaml_bytes) {
    return false;
  }
  result->schedule_yaml = std::move(yaml);
  return true;
}

}  // namespace rose
