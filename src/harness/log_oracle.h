// The log-grep bug oracle: true once any node's log has a line containing a
// failure signature.
//
// A poll scans only the lines appended since the previous poll, through one
// cursor per node, and the answer latches at the first match. That is exact
// for two reasons. Node logs only append: Cluster::AppendLog is their one
// writer, and a restart keeps them. And the pattern is one non-empty line,
// so a match in the merged log text lies inside one line.
#ifndef SRC_HARNESS_LOG_ORACLE_H_
#define SRC_HARNESS_LOG_ORACLE_H_

#include <string>
#include <vector>

#include "src/apps/framework/cluster.h"

namespace rose {

class LogOracle {
 public:
  // Throws std::invalid_argument when `pattern` is empty or spans lines.
  LogOracle(const Cluster* cluster, std::string pattern);

  bool operator()();

 private:
  const Cluster* cluster_;
  std::string pattern_;
  // cursors_[id]: lines of node id's log already scanned.
  std::vector<size_t> cursors_;
  bool matched_ = false;
};

}  // namespace rose

#endif  // SRC_HARNESS_LOG_ORACLE_H_
