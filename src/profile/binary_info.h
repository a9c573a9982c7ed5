// Simulated static binary analysis (paper §5.1, §5.3).
//
// On Linux, Rose extracts function symbols and offsets with readelf /
// addr2line / objdump. In the simulator each guest system registers its
// "binary": the functions it will announce through uprobes, the source file
// each symbol lives in, and the interesting offsets inside each function,
// classified the way Level 3 prioritizes them (syscall call sites first,
// then call sites to other functions, then remaining offsets).
#ifndef SRC_PROFILE_BINARY_INFO_H_
#define SRC_PROFILE_BINARY_INFO_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/os/syscall.h"

namespace rose {

enum class OffsetKind : int8_t {
  kSyscallCallSite = 0,  // Highest Level-3 priority.
  kCallSite,
  kOther,
};

struct OffsetInfo {
  int32_t offset = 0;
  OffsetKind kind = OffsetKind::kOther;
  // Which syscall the call site invokes (valid when kind == kSyscallCallSite).
  Sys sys = Sys::kOpen;
};

struct FunctionInfo {
  int32_t id = -1;
  std::string name;
  std::string source_file;
  std::vector<OffsetInfo> offsets;
};

class BinaryInfo {
 public:
  // Registers a function symbol; returns its id (stable registration order).
  int32_t RegisterFunction(const std::string& name, const std::string& source_file,
                           std::vector<OffsetInfo> offsets = {});

  const FunctionInfo* Find(int32_t id) const;
  const FunctionInfo* FindByName(std::string_view name) const;
  std::string NameOf(int32_t id) const;

  // Function ids whose source file is in `files` — the developer-provided
  // "list of key system files" from which monitoring candidates are drawn.
  std::vector<int32_t> FunctionsInFiles(const std::set<std::string>& files) const;

  const std::vector<FunctionInfo>& functions() const { return functions_; }

  // Level-3 offset exploration order for one function: syscall call sites,
  // then call sites, then other offsets (each group in offset order).
  std::vector<OffsetInfo> PrioritizedOffsets(int32_t id) const;

 private:
  std::vector<FunctionInfo> functions_;
  std::map<std::string, int32_t, std::less<>> by_name_;  // Transparent: no key temporaries.
};

}  // namespace rose

#endif  // SRC_PROFILE_BINARY_INFO_H_
