#include "src/profile/binary_info.h"

#include <algorithm>

namespace rose {

int32_t BinaryInfo::RegisterFunction(const std::string& name, const std::string& source_file,
                                     std::vector<OffsetInfo> offsets) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    return it->second;
  }
  const auto id = static_cast<int32_t>(functions_.size());
  FunctionInfo info;
  info.id = id;
  info.name = name;
  info.source_file = source_file;
  info.offsets = std::move(offsets);
  functions_.push_back(std::move(info));
  by_name_[name] = id;
  return id;
}

const FunctionInfo* BinaryInfo::Find(int32_t id) const {
  if (id < 0 || static_cast<size_t>(id) >= functions_.size()) {
    return nullptr;
  }
  return &functions_[static_cast<size_t>(id)];
}

const FunctionInfo* BinaryInfo::FindByName(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : Find(it->second);
}

std::string BinaryInfo::NameOf(int32_t id) const {
  const FunctionInfo* info = Find(id);
  return info == nullptr ? "?" : info->name;
}

std::vector<int32_t> BinaryInfo::FunctionsInFiles(const std::set<std::string>& files) const {
  std::vector<int32_t> out;
  for (const FunctionInfo& info : functions_) {
    if (files.count(info.source_file) != 0) {
      out.push_back(info.id);
    }
  }
  return out;
}

std::vector<OffsetInfo> BinaryInfo::PrioritizedOffsets(int32_t id) const {
  const FunctionInfo* info = Find(id);
  if (info == nullptr) {
    return {};
  }
  std::vector<OffsetInfo> out = info->offsets;
  std::stable_sort(out.begin(), out.end(), [](const OffsetInfo& a, const OffsetInfo& b) {
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  });
  return out;
}

}  // namespace rose
