#include "src/trace/string_pool.h"

namespace rose {

StrId StringPool::Intern(std::string_view s) {
  if (s.empty()) {
    return kEmptyStrId;
  }
  const auto it = index_.find(s);
  if (it != index_.end()) {
    return it->second;
  }
  const auto id = static_cast<StrId>(entries_.size());
  entries_.push_back(Entry{static_cast<uint32_t>(arena_.size()),
                           static_cast<uint32_t>(s.size())});
  arena_.append(s);
  index_.emplace(std::string(s), id);
  return id;
}

}  // namespace rose
