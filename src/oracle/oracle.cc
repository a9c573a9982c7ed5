#include "src/oracle/oracle.h"

#include <map>

#include "src/common/strings.h"

namespace rose {

std::vector<HistoryViolation> ElleLite::CheckAppendHistory(
    const std::vector<std::string>& acked, const std::vector<std::string>& committed) {
  std::vector<HistoryViolation> violations;

  std::map<std::string, int> committed_count;
  std::map<std::string, size_t> committed_pos;
  for (size_t i = 0; i < committed.size(); i++) {
    committed_count[committed[i]]++;
    if (committed_pos.find(committed[i]) == committed_pos.end()) {
      committed_pos[committed[i]] = i;
    }
  }

  for (const auto& [op, count] : committed_count) {
    if (count > 1) {
      violations.push_back({HistoryViolation::Kind::kDuplicate, op,
                            StrFormat("op appears %d times in the committed log", count)});
    }
  }

  size_t last_pos = 0;
  bool have_last = false;
  for (const std::string& op : acked) {
    auto it = committed_pos.find(op);
    if (it == committed_pos.end()) {
      violations.push_back(
          {HistoryViolation::Kind::kLostWrite, op, "acknowledged op missing from log"});
      continue;
    }
    if (have_last && it->second < last_pos) {
      violations.push_back({HistoryViolation::Kind::kReordered, op,
                            "acknowledged op committed before an earlier ack"});
    }
    last_pos = it->second;
    have_last = true;
  }
  return violations;
}

}  // namespace rose
