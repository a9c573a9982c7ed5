// RaftKV — a miniature RedisRaft: a replicated key/value store driven by a
// Raft-style consensus core with log persistence, snapshotting, log
// compaction, snapshot transfer to lagging followers, and crash recovery.
//
// Five external-fault-induced bugs from the paper's RedisRaft study are
// seeded behind option flags (one enabled per experiment, like checking out
// the buggy version):
//
//   bug42  (RedisRaft-42)  — log compaction writes an off-by-one first-index
//          header; recovery asserts `first == snap_idx + 1`, so ANY crash
//          after a snapshot+compaction panics the node on restart.
//          Trigger class: PS(Crash), Level 1.
//   bug43  (RedisRaft-43)  — snapshot installation unlinks the old log
//          before RaftLogCreate recreates it; recovery of a node crashed at
//          RaftLogCreate entry finds a snapshot without a log and asserts.
//          Trigger class: crash *during RaftLogCreate*, Level 2.
//   bug51  (RedisRaft-51)  — a leader paused >3 s mid snapshot-transfer
//          asserts cache-index integrity when the transfer timer resumes.
//          Trigger class: pause on the *leader* in transfer, Level 2 +
//          amplification (role-specific).
//   bug_new (RedisRaft-NEW) — storeSnapshotData overwrites the snapshot
//          file in place (open(TRUNC) → write → close, meta written after);
//          a crash between open and write leaves data/meta mismatched and
//          recovery panics ("Redis itself crashes"). Trigger class: crash at
//          the write call site inside storeSnapshotData, Level 3.
//   bug_new2 (RedisRaft-NEW2) — the leader applies its own client ops
//          optimistically at append time and does not roll back on log
//          truncation; recommitting the same op at a different index asserts
//          "repeated key". Trigger class: partition isolating the leader,
//          Level 1.
#ifndef SRC_APPS_RAFTKV_RAFTKV_H_
#define SRC_APPS_RAFTKV_RAFTKV_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/framework/guest_node.h"
#include "src/profile/binary_info.h"

namespace rose {

struct RaftKvOptions {
  int cluster_size = 5;
  bool bug42 = false;
  bool bug43 = false;
  bool bug51 = false;
  bool bug_new = false;
  bool bug_new2 = false;

  int snapshot_every = 8;             // Applied entries between snapshots.
  SimTime election_timeout_min = Millis(400);
  SimTime election_timeout_max = Millis(800);
  SimTime heartbeat_interval = Millis(100);
  SimTime chunk_interval = Millis(150);
  int transfer_chunks = 3;
};

// Registers RaftKV's function symbols/offsets (the guest "binary").
BinaryInfo BuildRaftKvBinary();

class RaftKvNode : public GuestNode {
 public:
  RaftKvNode(Cluster* cluster, NodeId id, RaftKvOptions options);

  void OnStart() override;
  void OnMessage(const Message& msg) override;
  void OnTimer(const std::string& name) override;

  bool is_leader() const { return role_ == Role::kLeader; }
  int64_t commit_index() const { return commit_index_; }
  int64_t last_log_index() const;
  const std::map<std::string, std::string>& kv() const { return kv_; }

 private:
  enum class Role { kFollower, kCandidate, kLeader };

  struct LogEntry {
    int64_t index = 0;
    int64_t term = 0;
    std::string key;
    std::string value;
    std::string op_id;
    NodeId client = kNoNode;
    // EncodeEntry of the fields above, made once: the line the log file and
    // AppendEntries carry. A follower keeps the leader's text as received.
    std::string line;
  };

  // --- Persistence -----------------------------------------------------------
  void PersistState();
  void AppendEntryToDisk(const LogEntry& entry);
  void RewriteLogFile();
  static std::string EncodeEntry(const LogEntry& entry);
  // The fields of an encoded line; `line` itself is left empty.
  static std::optional<LogEntry> DecodeEntry(std::string_view line);

  // --- Recovery ---------------------------------------------------------------
  void RaftLogOpen();
  void LoadSnapshot();

  // --- Snapshotting ------------------------------------------------------------
  void TakeSnapshot();
  void StoreSnapshotData(int64_t snap_index, int64_t snap_term);
  void CompactLog();
  std::string SerializeKv() const;
  void DeserializeKv(const std::string& data);

  // --- Snapshot transfer ----------------------------------------------------------
  void BeginSnapshotTransfer(NodeId peer);
  void SendSnapshotChunk(NodeId peer);
  void HandleInstallChunk(const Message& msg);
  void HandleInstallSnapshot(int64_t snap_index, int64_t snap_term, const std::string& data);
  void RaftLogCreate(int64_t snap_index);
  void ParseLog();

  // --- Consensus ---------------------------------------------------------------
  void ResetElectionTimer();
  void StartElection();
  void BecomeLeader();
  void BecomeFollower(int64_t term);
  void SendHeartbeats();
  void HandleRequestVote(const Message& msg);
  void HandleVoteReply(const Message& msg);
  void HandleAppendEntries(const Message& msg);
  void HandleAppendReply(const Message& msg);
  void AdvanceCommit();
  void ApplyCommitted();
  void ApplyEntry(const LogEntry& entry, bool optimistic);

  // --- Clients ------------------------------------------------------------------
  void HandleClientPut(const Message& msg);
  void HandleClientGet(const Message& msg);

  const LogEntry* EntryAt(int64_t index) const;
  int64_t TermAt(int64_t index) const;
  void MaintenanceTick();

  RaftKvOptions options_;
  // AppendEntryToDisk's write buffer, reused for every entry.
  std::string append_buffer_;

  // Volatile consensus state.
  Role role_ = Role::kFollower;
  int64_t term_ = 0;
  NodeId voted_for_ = kNoNode;
  std::vector<LogEntry> log_;  // Entries after the snapshot, ascending index.
  int64_t snap_index_ = 0;
  int64_t snap_term_ = 0;
  int64_t commit_index_ = 0;
  int64_t last_applied_ = 0;
  NodeId leader_hint_ = kNoNode;
  std::set<NodeId> votes_;
  std::map<NodeId, int64_t> next_index_;
  std::map<NodeId, int64_t> match_index_;
  int applied_since_snapshot_ = 0;

  // State machine.
  std::map<std::string, std::string> kv_;
  // op_id -> log index it was applied from; kept only under bug_new2.
  std::map<std::string, int64_t> applied_ops_;
  // Pending client replies: log index -> (client, op_id).
  std::map<int64_t, std::pair<NodeId, std::string>> pending_client_ops_;

  // Snapshot transfer state (leader side).
  struct Transfer {
    int next_chunk = 0;
    int64_t snap_index = 0;
    int64_t snap_term = 0;
    std::string data;
    SimTime last_chunk_at = 0;
  };
  std::map<NodeId, Transfer> transfers_;

  // Snapshot transfer state (follower side).
  std::string incoming_chunks_;
  int incoming_seen_ = 0;
};

}  // namespace rose

#endif  // SRC_APPS_RAFTKV_RAFTKV_H_
