// Bug oracles.
//
// The paper's oracles are log greps, health checks, or Elle. The log grep
// reads a deployed cluster's logs, so it lives in src/harness/log_oracle.h.
// This module holds ElleLite: an append-history consistency checker in the
// spirit of Elle, detecting lost acknowledged writes and duplicated
// applications. Like Elle it is deliberately the *expensive* oracle (it
// walks the entire operation history), which is why the Redpanda rows of
// Table 1 run longer than the others.
#ifndef SRC_ORACLE_ORACLE_H_
#define SRC_ORACLE_ORACLE_H_

#include <string>
#include <vector>

namespace rose {

struct HistoryViolation {
  enum class Kind { kLostWrite, kDuplicate, kReordered };
  Kind kind = Kind::kLostWrite;
  std::string op_id;
  std::string detail;
};

class ElleLite {
 public:
  // `acked` — operation ids acknowledged to clients, in ack order.
  // `committed` — operation ids in the system's final authoritative order.
  // Reports acked-but-missing (lost), multiply-present (duplicate), and
  // acked ops whose relative order was inverted (reordered).
  static std::vector<HistoryViolation> CheckAppendHistory(
      const std::vector<std::string>& acked, const std::vector<std::string>& committed);
};

}  // namespace rose

#endif  // SRC_ORACLE_ORACLE_H_
