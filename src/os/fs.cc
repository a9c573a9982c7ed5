#include "src/os/fs.h"

#include <algorithm>
#include <vector>

#include "src/common/strings.h"

namespace rose {

InMemoryFileSystem::InMemoryFileSystem() { directories_.insert("/"); }

bool InMemoryFileSystem::ParentIsValid(const std::string& path) const {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos || slash == 0) {
    return true;  // Root-level entries are always fine.
  }
  const std::string parent = path.substr(0, slash);
  // A parent that exists as a regular file is a layout error.
  return files_.find(parent) == files_.end();
}

Err InMemoryFileSystem::Create(const std::string& path, bool truncate) {
  if (path.empty()) {
    return Err::kEINVAL;
  }
  if (directories_.count(path) != 0) {
    return Err::kEISDIR;
  }
  if (!ParentIsValid(path)) {
    return Err::kENOTDIR;
  }
  auto it = files_.find(path);
  if (it == files_.end()) {
    files_[path] = FileNode{};
    return Err::kOk;
  }
  if ((it->second.mode & 0600) == 0) {
    return Err::kEACCES;
  }
  if (truncate) {
    it->second.data.clear();
  }
  return Err::kOk;
}

Err InMemoryFileSystem::OpenPath(const std::string& path, bool create, bool truncate,
                                 bool readonly, int64_t* size) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    if (directories_.count(path) != 0) {
      *size = -1;
      return Err::kOk;
    }
    if (!create) {
      return Err::kENOENT;
    }
    if (path.empty()) {
      return Err::kEINVAL;
    }
    if (!ParentIsValid(path)) {
      return Err::kENOTDIR;
    }
    files_.emplace_hint(it, path, FileNode{});
    *size = 0;
    return Err::kOk;
  }
  const uint32_t needed = readonly ? 0400u : 0600u;
  if ((it->second.mode & needed) != needed && directories_.count(path) == 0) {
    return Err::kEACCES;
  }
  if (truncate) {
    it->second.data.clear();
  }
  *size = static_cast<int64_t>(it->second.data.size());
  return Err::kOk;
}

bool InMemoryFileSystem::Exists(const std::string& path) const {
  return files_.count(path) != 0 || directories_.count(path) != 0;
}

bool InMemoryFileSystem::IsDirectory(const std::string& path) const {
  return directories_.count(path) != 0;
}

Err InMemoryFileSystem::Stat(const std::string& path, FileStat* out) const {
  if (directories_.count(path) != 0) {
    *out = FileStat{0, 0755, true};
    return Err::kOk;
  }
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Err::kENOENT;
  }
  if ((it->second.mode & 0400) == 0) {
    return Err::kEACCES;
  }
  *out = FileStat{static_cast<int64_t>(it->second.data.size()), it->second.mode, false};
  return Err::kOk;
}

Err InMemoryFileSystem::ReadAt(const std::string& path, int64_t offset, int64_t count,
                               std::string* out) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Err::kENOENT;
  }
  if ((it->second.mode & 0400) == 0) {
    return Err::kEACCES;
  }
  const auto& data = it->second.data;
  if (offset < 0) {
    return Err::kEINVAL;
  }
  if (offset >= static_cast<int64_t>(data.size())) {
    out->clear();
    return Err::kOk;
  }
  const auto available = static_cast<int64_t>(data.size()) - offset;
  *out = data.substr(static_cast<size_t>(offset),
                     static_cast<size_t>(std::min(count, available)));
  return Err::kOk;
}

Err InMemoryFileSystem::WriteAt(const std::string& path, int64_t offset, std::string_view data) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Err::kENOENT;
  }
  if ((it->second.mode & 0200) == 0) {
    return Err::kEACCES;
  }
  auto& contents = it->second.data;
  if (offset < 0) {
    return Err::kEINVAL;
  }
  if (static_cast<size_t>(offset) + data.size() > contents.size()) {
    contents.resize(static_cast<size_t>(offset) + data.size(), '\0');
  }
  contents.replace(static_cast<size_t>(offset), data.size(), data);
  return Err::kOk;
}

Err InMemoryFileSystem::Truncate(const std::string& path, int64_t size) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Err::kENOENT;
  }
  it->second.data.resize(static_cast<size_t>(size), '\0');
  return Err::kOk;
}

Err InMemoryFileSystem::Unlink(const std::string& path) {
  if (directories_.count(path) != 0) {
    return Err::kEISDIR;
  }
  if (files_.erase(path) == 0) {
    return Err::kENOENT;
  }
  return Err::kOk;
}

Err InMemoryFileSystem::Rename(const std::string& from, const std::string& to) {
  auto it = files_.find(from);
  if (it == files_.end()) {
    return Err::kENOENT;
  }
  if (!ParentIsValid(to)) {
    return Err::kENOTDIR;
  }
  FileNode node = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(node);
  return Err::kOk;
}

Err InMemoryFileSystem::Mkdir(const std::string& path) {
  if (Exists(path)) {
    return Err::kEEXIST;
  }
  directories_.insert(path);
  return Err::kOk;
}

Err InMemoryFileSystem::Chmod(const std::string& path, uint32_t mode) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Err::kENOENT;
  }
  it->second.mode = mode;
  return Err::kOk;
}

std::optional<std::string> InMemoryFileSystem::ReadAll(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return std::nullopt;
  }
  return it->second.data;
}

void InMemoryFileSystem::WriteAll(const std::string& path, std::string_view data) {
  files_[path].data = std::string(data);
}

std::vector<std::string> InMemoryFileSystem::ListFiles(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, node] : files_) {
    if (StartsWith(path, prefix)) {
      out.push_back(path);
    }
  }
  return out;
}

int64_t InMemoryFileSystem::SizeOf(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? -1 : static_cast<int64_t>(it->second.data.size());
}

int64_t InMemoryFileSystem::TotalBytes() const {
  int64_t total = 0;
  for (const auto& [path, node] : files_) {
    total += static_cast<int64_t>(node.data.size());
  }
  return total;
}

void InMemoryFileSystem::Wipe() {
  files_.clear();
  directories_.clear();
  directories_.insert("/");
}

}  // namespace rose
