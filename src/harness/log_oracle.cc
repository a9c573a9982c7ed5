#include "src/harness/log_oracle.h"

#include <stdexcept>
#include <utility>

namespace rose {

LogOracle::LogOracle(const Cluster* cluster, std::string pattern)
    : cluster_(cluster), pattern_(std::move(pattern)) {
  if (pattern_.empty() || pattern_.find('\n') != std::string::npos) {
    throw std::invalid_argument("log oracle pattern must be one non-empty line");
  }
}

bool LogOracle::operator()() {
  if (matched_) {
    return true;
  }
  cursors_.resize(static_cast<size_t>(cluster_->node_count()), 0);
  for (NodeId id = 0; id < cluster_->node_count(); id++) {
    const std::vector<std::string>& log = cluster_->LogsOf(id);
    for (size_t& cursor = cursors_[static_cast<size_t>(id)]; cursor < log.size(); cursor++) {
      if (log[cursor].find(pattern_) != std::string::npos) {
        matched_ = true;
        return true;
      }
    }
  }
  return false;
}

}  // namespace rose
