// Replicated coordinator journal for the serve cluster (DESIGN.md §15).
//
// Rose's thesis applied to Rose itself: a shard dying mid-job must be
// recoverable from a lightweight record, not luck. The router appends every
// consequential coordinator decision — ring membership epochs, job
// dispatches (including the full submit payload, so a job can be re-posed
// from the journal alone), and completions — to an append-only, CRC-framed
// log modeled on the raft write-ahead-log shape, in the shared framing of
// src/common/framing.h:
//
//   header:  'R' 'J' 'N' 'L' | u16 version (LE) | u16 reserved
//   record:  u8 type | u32 payload_len (LE) | u32 crc32(payload) (LE) | payload
//   types:   1 = ring epoch, 2 = dispatch, 3 = complete
//
// Durability: each append is written and fsync'd before the router acts on
// it (dispatch-before-forward), so the journal never trails the cluster's
// observable behavior. Replay tolerates a torn tail — a crash mid-append
// leaves a truncated or CRC-broken final record, which replay drops and
// Append() then overwrites (the file is truncated back to the last good
// record), exactly the recovery the RTRC trace container practices. A write
// or fsync that fails while the process lives (EINTR and short writes are
// retried) is cut off the same way at once and reported by the append, so
// the records after it still replay.
//
// Replication: the one follower, fixed when the journal opens, receives the
// journal as a byte stream over a Transport — the same framed bytes that hit
// the leader's disk, so its file is a byte-identical prefix of the leader's
// and replays with the same code. It is sent the intact journal Replay read
// (from byte 0), then every append; the leader keeps no other copy.
//
// Replay output: the pending map (dispatches without a completion) is
// exactly the set of jobs a restarted or failed-over coordinator must
// re-dispatch; the last epoch record names the membership it believed in.
#ifndef SRC_CLUSTER_JOURNAL_H_
#define SRC_CLUSTER_JOURNAL_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/framing.h"
#include "src/net/transport.h"

namespace rose {

inline constexpr uint16_t kJournalFormatVersion = 1;
// A dispatch record embeds a whole submit payload; a length beyond 256 MiB
// is a corrupt length field, not a plausible record.
inline constexpr FrameFormat kJournalFormat = {{'R', 'J', 'N', 'L'}, kJournalFormatVersion,
                                               256u * 1024u * 1024u};

enum class JournalRecordType : uint8_t {
  kRingEpoch = 1,
  kDispatch = 2,
  kComplete = 3,
};

// One job dispatch (or re-dispatch) decision. `payload` is the verbatim
// serve-protocol kSubmit payload, so the job can be re-posed to any shard
// without the original client.
struct DispatchRecord {
  uint64_t job_id = 0;
  uint64_t key = 0;         // Cache/dedup key (JobKey).
  uint64_t trace_hash = 0;  // Ring key (canonical blob hash).
  std::string shard;
  bool redispatch = false;  // True when posed by failover, not admission.
  std::string payload;
};

struct RingEpochRecord {
  uint64_t epoch = 0;
  std::vector<std::string> shards;
};

struct CompleteRecord {
  uint64_t job_id = 0;
  bool reproduced = false;
};

// Record payload codecs (exposed for tests; framing is the journal's).
std::string EncodeDispatch(const DispatchRecord& record);
bool DecodeDispatch(std::string_view payload, DispatchRecord* out);
std::string EncodeRingEpoch(const RingEpochRecord& record);
bool DecodeRingEpoch(std::string_view payload, RingEpochRecord* out);
std::string EncodeComplete(const CompleteRecord& record);
bool DecodeComplete(std::string_view payload, CompleteRecord* out);

class ClusterJournal {
 public:
  // Opens (creating if missing) and replays `path`. Empty path = memory-only
  // journal: appends are framed and replicated but nothing touches disk —
  // the configuration a router without durability needs (tests, benches).
  // A non-null `follower` is the journal's one replica link: it is sent the
  // intact journal from byte 0, then every append.
  explicit ClusterJournal(const std::string& path, std::shared_ptr<Transport> follower = nullptr);
  ~ClusterJournal();

  ClusterJournal(const ClusterJournal&) = delete;
  ClusterJournal& operator=(const ClusterJournal&) = delete;

  // --- Appends (written + fsync'd before returning) ------------------------
  // Each returns false when the record's write or fsync failed. The file is
  // then cut back to its last intact record, so later appends still replay.
  // A failed dispatch leaves pending() and next_job_id() as the file has
  // them (the router refuses that submit); the other records take the
  // in-memory state either way.
  bool AppendRingEpoch(const RingEpochRecord& record);
  bool AppendDispatch(DispatchRecord record);
  bool AppendComplete(const CompleteRecord& record);

  // --- Replay results -------------------------------------------------------
  // Dispatches without a completion, by job id; a re-dispatch overwrites the
  // shard of its predecessor (last writer wins, as on the wire). The router
  // keeps no other copy of a submit: it dispatches and re-poses from here.
  const std::map<uint64_t, DispatchRecord>& pending() const { return pending_; }
  // The last epoch record, or a default (epoch 0, no shards).
  const RingEpochRecord& last_epoch() const { return last_epoch_; }
  // One past the largest job id ever journaled (0 on a fresh journal) — the
  // restarted router's first job id, so ids never collide across restarts.
  uint64_t next_job_id() const { return next_job_id_; }
  uint64_t replayed_records() const { return replayed_records_; }
  // True when replay dropped a torn/corrupt tail (now truncated away).
  bool recovered_torn_tail() const { return recovered_torn_tail_; }

  // --- Counters (mirrored into cluster.journal_* metrics by the owner) ------
  uint64_t appends() const { return appends_; }
  uint64_t fsyncs() const { return fsyncs_; }
  uint64_t bytes_written() const { return bytes_written_; }

  // --- Follower replication -------------------------------------------------
  // Moves the bytes the follower has not taken yet (short writes respected)
  // and drops the follower once it hung up; call it from the router's Poll().
  void PumpReplication();
  bool replication_idle() const { return outbox_.empty(); }

 private:
  bool Append(JournalRecordType type, std::string_view payload);
  // Writes `bytes` to the file (if any) and queues them for the follower;
  // on a failed write or fsync, truncates the file to `intact_end_` instead
  // and returns false.
  bool Emit(std::string_view bytes);
  // Reads `path` into the replay results; returns its intact prefix.
  std::string Replay(const std::string& path);

  int fd_ = -1;
  // File offset just past the last intact record.
  off_t intact_end_ = 0;
  std::shared_ptr<Transport> follower_;
  // Bytes not yet taken by the follower; empty without one.
  Outbox outbox_;

  std::map<uint64_t, DispatchRecord> pending_;
  RingEpochRecord last_epoch_;
  uint64_t next_job_id_ = 1;
  uint64_t replayed_records_ = 0;
  bool recovered_torn_tail_ = false;

  uint64_t appends_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t bytes_written_ = 0;
};

// Follower half of journal replication: drains a Transport into a local
// journal file (creating it with the leader's exact bytes). The file is a
// valid ClusterJournal — replayable with the same code, so a promoted
// follower recovers the same pending set the leader would have.
class JournalFollower {
 public:
  // Empty path counts the received bytes and writes them nowhere; tests and
  // benches replicate without touching disk.
  JournalFollower(std::string path, std::shared_ptr<Transport> transport);
  ~JournalFollower();

  JournalFollower(const JournalFollower&) = delete;
  JournalFollower& operator=(const JournalFollower&) = delete;

  // Reads whatever the leader sent and appends it verbatim (fsync'd).
  void Poll();

  uint64_t bytes_received() const { return bytes_received_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::shared_ptr<Transport> transport_;
  uint64_t bytes_received_ = 0;
};

}  // namespace rose

#endif  // SRC_CLUSTER_JOURNAL_H_
