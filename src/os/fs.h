// Per-node in-memory filesystem.
//
// Every simulated node owns one InMemoryFileSystem ("its disk"). The disk
// survives process crashes and restarts within a simulation run, which is
// what makes crash-recovery bugs (corrupted snapshots, index mismatches)
// observable: a crash between two write() syscalls leaves exactly the bytes
// already written.
#ifndef SRC_OS_FS_H_
#define SRC_OS_FS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/os/errno.h"

namespace rose {

struct FileStat {
  int64_t size = 0;
  uint32_t mode = 0644;
  bool is_directory = false;
};

class InMemoryFileSystem {
 public:
  InMemoryFileSystem();

  // Creates the file if missing; truncates when `truncate` is set.
  // Fails with ENOTDIR if a parent component is a file, EACCES if the file
  // exists but the mode denies access.
  Err Create(const std::string& path, bool truncate);

  // open(2)'s filesystem half with a single path lookup: ENOENT when the
  // path is missing and `create` is unset, otherwise Create(path, false)'s
  // checks; for an existing file the `readonly` access check (directories
  // pass) and optional truncation. On success `*size` is the file size after
  // truncation, -1 for a directory.
  Err OpenPath(const std::string& path, bool create, bool truncate, bool readonly,
               int64_t* size);

  bool Exists(const std::string& path) const;
  bool IsDirectory(const std::string& path) const;

  Err Stat(const std::string& path, FileStat* out) const;

  // Reads up to `count` bytes starting at `offset`; returns bytes read.
  Err ReadAt(const std::string& path, int64_t offset, int64_t count, std::string* out) const;

  // Writes `data` at `offset`, extending the file as needed.
  Err WriteAt(const std::string& path, int64_t offset, std::string_view data);

  Err Truncate(const std::string& path, int64_t size);
  Err Unlink(const std::string& path);
  Err Rename(const std::string& from, const std::string& to);
  Err Mkdir(const std::string& path);

  // Permission bits; 0000 makes every open/stat fail with EACCES.
  Err Chmod(const std::string& path, uint32_t mode);

  // Whole-file convenience accessors (used by tests and recovery code).
  std::optional<std::string> ReadAll(const std::string& path) const;
  void WriteAll(const std::string& path, std::string_view data);

  // All regular files under `prefix`, sorted.
  std::vector<std::string> ListFiles(const std::string& prefix) const;

  int64_t SizeOf(const std::string& path) const;

  // Total bytes stored across all files.
  int64_t TotalBytes() const;

  // Drops all files and directories (a fresh disk).
  void Wipe();

 private:
  struct FileNode {
    std::string data;
    uint32_t mode = 0644;
  };

  bool ParentIsValid(const std::string& path) const;

  std::map<std::string, FileNode> files_;
  std::set<std::string> directories_;
};

}  // namespace rose

#endif  // SRC_OS_FS_H_
