#include "src/apps/raftkv/raftkv.h"

#include <algorithm>

#include "src/common/strings.h"

namespace rose {

namespace {

constexpr char kStatePath[] = "/data/state";
constexpr char kLogPath[] = "/data/raft.log";
constexpr char kSnapshotPath[] = "/data/snapshot";
constexpr char kSnapshotTmpPath[] = "/data/snapshot.tmp";
constexpr char kLogTmpPath[] = "/data/raft.log.tmp";

// AppendEntries carries at most this many entries, the i-th under "e<i>".
constexpr int kMaxEntriesPerAppend = 10;
constexpr Literal kEntryKeys[kMaxEntriesPerAppend] = {"e0", "e1", "e2", "e3", "e4",
                                                      "e5", "e6", "e7", "e8", "e9"};

}  // namespace

BinaryInfo BuildRaftKvBinary() {
  BinaryInfo binary;
  // raft.c — consensus core and log management.
  binary.RegisterFunction("RaftLogOpen", "raft.c",
                          {{0x08, OffsetKind::kSyscallCallSite, Sys::kOpen},
                           {0x20, OffsetKind::kCallSite},
                           {0x34, OffsetKind::kOther}});
  binary.RegisterFunction("RaftLogCreate", "raft.c",
                          {{0x08, OffsetKind::kSyscallCallSite, Sys::kOpen},
                           {0x14, OffsetKind::kCallSite},  // parseLog
                           {0x28, OffsetKind::kOther}});
  binary.RegisterFunction("parseLog", "raft.c",
                          {{0x08, OffsetKind::kSyscallCallSite, Sys::kRead},
                           {0x18, OffsetKind::kOther}});
  binary.RegisterFunction("appendLogEntry", "raft.c",
                          {{0x08, OffsetKind::kSyscallCallSite, Sys::kWrite}});
  binary.RegisterFunction("RaftLogCurrentIdx", "raft.c", {{0x04, OffsetKind::kOther}});
  binary.RegisterFunction("startElection", "raft.c", {{0x10, OffsetKind::kCallSite}});
  binary.RegisterFunction("becomeLeader", "raft.c", {{0x10, OffsetKind::kCallSite}});
  binary.RegisterFunction("becomeFollower", "raft.c", {{0x10, OffsetKind::kCallSite}});
  // snapshot.c — snapshotting, compaction, transfer.
  binary.RegisterFunction("TakeSnapshot", "snapshot.c",
                          {{0x10, OffsetKind::kCallSite}, {0x20, OffsetKind::kCallSite}});
  binary.RegisterFunction("storeSnapshotData", "snapshot.c",
                          {{0x08, OffsetKind::kSyscallCallSite, Sys::kOpen},
                           {0x10, OffsetKind::kSyscallCallSite, Sys::kWrite},
                           {0x18, OffsetKind::kSyscallCallSite, Sys::kClose}});
  binary.RegisterFunction("compactLog", "snapshot.c",
                          {{0x08, OffsetKind::kSyscallCallSite, Sys::kOpen},
                           {0x14, OffsetKind::kSyscallCallSite, Sys::kRename}});
  binary.RegisterFunction("HandleInstallSnapshot", "snapshot.c",
                          {{0x10, OffsetKind::kCallSite},
                           {0x1c, OffsetKind::kSyscallCallSite, Sys::kUnlink},
                           {0x28, OffsetKind::kCallSite}});
  binary.RegisterFunction("BeginSnapshotTransfer", "snapshot.c",
                          {{0x10, OffsetKind::kCallSite}});
  binary.RegisterFunction("sendSnapshotChunk", "snapshot.c",
                          {{0x10, OffsetKind::kSyscallCallSite, Sys::kSend}});
  binary.RegisterFunction("loadSnapshot", "snapshot.c",
                          {{0x08, OffsetKind::kSyscallCallSite, Sys::kRead}});
  // kv.c — state machine.
  binary.RegisterFunction("applyEntry", "kv.c", {{0x08, OffsetKind::kOther}});
  binary.RegisterFunction("handleClientPut", "kv.c", {{0x08, OffsetKind::kCallSite}});
  return binary;
}

RaftKvNode::RaftKvNode(Cluster* cluster, NodeId id, RaftKvOptions options)
    : GuestNode(cluster, id, StrFormat("raftkv-%d", id)), options_(options) {}

// ---------------------------------------------------------------------------
// Persistence helpers
// ---------------------------------------------------------------------------

void RaftKvNode::PersistState() {
  WriteFileDurably(kStatePath, StrFormat("%lld %d", static_cast<long long>(term_),
                                         voted_for_));
}

// "index|term|key|value|op_id|client", integers in decimal.
std::string RaftKvNode::EncodeEntry(const LogEntry& entry) {
  std::string out;
  out.reserve(48 + entry.key.size() + entry.value.size() + entry.op_id.size());
  AppendDecimal(&out, entry.index);
  out += '|';
  AppendDecimal(&out, entry.term);
  out += '|';
  out += entry.key;
  out += '|';
  out += entry.value;
  out += '|';
  out += entry.op_id;
  out += '|';
  AppendDecimal(&out, entry.client);
  return out;
}

std::optional<RaftKvNode::LogEntry> RaftKvNode::DecodeEntry(std::string_view line) {
  // Exactly six '|'-separated fields, empty ones included.
  std::string_view parts[6];
  size_t count = 0;
  size_t start = 0;
  while (true) {
    if (count == 6) {
      return std::nullopt;
    }
    const size_t pos = line.find('|', start);
    if (pos == std::string_view::npos) {
      parts[count++] = line.substr(start);
      break;
    }
    parts[count++] = line.substr(start, pos - start);
    start = pos + 1;
  }
  if (count != 6) {
    return std::nullopt;
  }
  LogEntry entry;
  int64_t value = 0;
  if (!ParseInt64(parts[0], &value)) {
    return std::nullopt;
  }
  entry.index = value;
  if (!ParseInt64(parts[1], &value)) {
    return std::nullopt;
  }
  entry.term = value;
  entry.key = parts[2];
  entry.value = parts[3];
  entry.op_id = parts[4];
  if (ParseInt64(parts[5], &value)) {
    entry.client = static_cast<NodeId>(value);
  }
  return entry;
}

void RaftKvNode::AppendEntryToDisk(const LogEntry& entry) {
  EnterFunction("appendLogEntry");
  SimKernel::OpenFlags flags;
  flags.create = true;
  flags.append = true;
  const SyscallResult opened = Open(kLogPath, flags);
  if (!opened.ok()) {
    Log(StrFormat("failed to open raft log for append: %s",
                  std::string(ErrName(opened.err)).c_str()));
    Panic("unable to write transaction log");
  }
  const auto fd = static_cast<int32_t>(opened.value);
  append_buffer_.assign(entry.line);
  append_buffer_ += '\n';
  const SyscallResult written = WriteFd(fd, append_buffer_);
  Close(fd);
  if (!written.ok()) {
    Panic("raft log append failed");
  }
}

void RaftKvNode::RewriteLogFile() {
  // Atomic rewrite: tmp + rename.
  std::string contents = StrFormat("HDR %lld\n", static_cast<long long>(
      log_.empty() ? snap_index_ + 1 : log_.front().index));
  for (const LogEntry& entry : log_) {
    contents += entry.line;
    contents += '\n';
  }
  WriteFileDurably(kLogTmpPath, contents);
  RenamePath(kLogTmpPath, kLogPath);
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

void RaftKvNode::OnStart() {
  Log("raftkv booting");
  // Benign probes every boot (profiler learns these as benign faults).
  StatPath("/data/conf.d/override.conf");
  ReadlinkPath("/data/current");

  if (const auto state = ReadWholeFile(kStatePath); state.has_value()) {
    const std::vector<std::string> parts = Split(std::string(StripWhitespace(*state)), ' ');
    if (parts.size() == 2) {
      int64_t value = 0;
      if (ParseInt64(parts[0], &value)) {
        term_ = value;
      }
      if (ParseInt64(parts[1], &value)) {
        voted_for_ = static_cast<NodeId>(value);
      }
    }
  }
  LoadSnapshot();
  RaftLogOpen();

  role_ = Role::kFollower;
  commit_index_ = snap_index_;
  last_applied_ = snap_index_;
  ResetElectionTimer();
  SetTimer("maint", Seconds(1));
  Log(StrFormat("recovered: term=%lld snap=%lld log_last=%lld",
                static_cast<long long>(term_), static_cast<long long>(snap_index_),
                static_cast<long long>(last_log_index())));
}

void RaftKvNode::LoadSnapshot() {
  EnterFunction("loadSnapshot");
  SyscallResult stat = StatPath(kSnapshotPath);
  if (!stat.ok()) {
    return;  // No snapshot yet.
  }
  const auto contents = ReadWholeFile(kSnapshotPath);
  bool corrupt = !contents.has_value();
  int64_t idx = 0;
  int64_t term = 0;
  int64_t length = 0;
  std::string data;
  if (!corrupt) {
    const size_t newline = contents->find('\n');
    if (newline == std::string::npos) {
      corrupt = true;
    } else {
      const std::vector<std::string> header = Split(contents->substr(0, newline), ' ');
      data = contents->substr(newline + 1);
      if (header.size() != 3 || !ParseInt64(header[0], &idx) ||
          !ParseInt64(header[1], &term) || !ParseInt64(header[2], &length) ||
          static_cast<int64_t>(data.size()) != length) {
        corrupt = true;
      }
    }
  }
  if (corrupt) {
    if (options_.bug_new) {
      // RedisRaft-NEW: the in-place snapshot writer can leave a truncated
      // file; recovery trusts the snapshot blindly and dies.
      Log("snapshot file corrupt");
      Panic("corrupted snapshot file: cannot start");
    }
    Log("snapshot unreadable; ignoring and replaying log");
    return;
  }
  snap_index_ = idx;
  snap_term_ = term;
  DeserializeKv(data);
}

void RaftKvNode::RaftLogOpen() {
  EnterFunction("RaftLogOpen");
  SimKernel::OpenFlags flags;
  flags.readonly = true;
  const SyscallResult opened = Open(kLogPath, flags);
  if (!opened.ok()) {
    if (snap_index_ > 0 && options_.bug43) {
      // RedisRaft-43: snapshot installation deleted the log before the
      // crash; recovery insists the log exists and matches the snapshot.
      Assert(false, "snapshot and log index mismatch (missing log segment)");
    }
    // Correct behavior: recreate an empty log starting after the snapshot.
    RewriteLogFile();
    return;
  }
  const auto fd = static_cast<int32_t>(opened.value);
  std::string contents;
  while (true) {
    std::string chunk;
    const SyscallResult got = ReadFd(fd, 4096, &chunk);
    if (!got.ok() || got.value == 0) {
      break;
    }
    contents += chunk;
  }
  Close(fd);

  log_.clear();
  int64_t header_first = snap_index_ + 1;
  for (const std::string& line : Split(contents, '\n')) {
    if (line.empty()) {
      continue;
    }
    if (StartsWith(line, "HDR ")) {
      int64_t value = 0;
      if (ParseInt64(line.substr(4), &value)) {
        header_first = value;
      }
      continue;
    }
    if (auto entry = DecodeEntry(line); entry.has_value()) {
      if (entry->index > snap_index_) {
        entry->line = EncodeEntry(*entry);
        log_.push_back(std::move(*entry));
      }
    }
  }
  // Integrity: the log must cover the index right after the snapshot. A
  // compaction that dropped committed entries (RedisRaft-42) leaves a hole.
  Assert(header_first <= snap_index_ + 1,
         "snapshot and log integrity violated (log hole after compaction)");
  (void)header_first;
}

// ---------------------------------------------------------------------------
// Snapshotting
// ---------------------------------------------------------------------------

std::string RaftKvNode::SerializeKv() const {
  std::string out;
  for (const auto& [key, value] : kv_) {
    out += key;
    out += '=';
    out += value;
    out += '\n';
  }
  return out;
}

void RaftKvNode::DeserializeKv(const std::string& data) {
  kv_.clear();
  for (const std::string& line : Split(data, '\n')) {
    const size_t eq = line.find('=');
    if (eq != std::string::npos) {
      kv_[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }
}

void RaftKvNode::StoreSnapshotData(int64_t snap_index, int64_t snap_term) {
  EnterFunction("storeSnapshotData");
  const std::string data = SerializeKv();
  const std::string blob = StrFormat("%lld %lld %lld\n", static_cast<long long>(snap_index),
                                     static_cast<long long>(snap_term),
                                     static_cast<long long>(data.size())) +
                           data;
  if (options_.bug_new) {
    // RedisRaft-NEW: in-place overwrite. A crash after the truncating open
    // but before the write leaves a 0-byte snapshot the recovery path
    // cannot survive.
    SimKernel::OpenFlags flags;
    flags.create = true;
    flags.truncate = true;
    AtOffset("storeSnapshotData", 0x08);
    const SyscallResult opened = Open(kSnapshotPath, flags);
    if (!opened.ok()) {
      Log("snapshot store failed at open");
      return;
    }
    const auto fd = static_cast<int32_t>(opened.value);
    AtOffset("storeSnapshotData", 0x10);
    WriteFd(fd, blob);
    AtOffset("storeSnapshotData", 0x18);
    Close(fd);
    return;
  }
  // Correct behavior: write-to-temp + rename is atomic under crashes.
  WriteFileDurably(kSnapshotTmpPath, blob);
  RenamePath(kSnapshotTmpPath, kSnapshotPath);
}

void RaftKvNode::CompactLog() {
  EnterFunction("compactLog");
  // RedisRaft-42: off-by-one keeps the log starting at snap+2, silently
  // dropping one committed entry; the recovery integrity check then fails on
  // the next restart.
  const int64_t first_kept = options_.bug42 ? snap_index_ + 2 : snap_index_ + 1;
  std::erase_if(log_, [first_kept](const LogEntry& entry) { return entry.index < first_kept; });
  std::string contents = StrFormat("HDR %lld\n", static_cast<long long>(first_kept));
  for (const LogEntry& entry : log_) {
    contents += entry.line;
    contents += '\n';
  }
  WriteFileDurably(kLogTmpPath, contents);
  RenamePath(kLogTmpPath, kLogPath);
}

void RaftKvNode::TakeSnapshot() {
  EnterFunction("TakeSnapshot");
  const int64_t snap_index = last_applied_;
  const int64_t snap_term = TermAt(snap_index);
  StoreSnapshotData(snap_index, snap_term);
  snap_index_ = snap_index;
  snap_term_ = snap_term;
  CompactLog();
  applied_since_snapshot_ = 0;
  Log(StrFormat("snapshot taken at %lld", static_cast<long long>(snap_index)));
}

// ---------------------------------------------------------------------------
// Snapshot transfer (leader -> lagging follower)
// ---------------------------------------------------------------------------

void RaftKvNode::BeginSnapshotTransfer(NodeId peer) {
  if (transfers_.count(peer) != 0) {
    return;
  }
  EnterFunction("BeginSnapshotTransfer");
  Transfer transfer;
  transfer.snap_index = snap_index_;
  transfer.snap_term = snap_term_;
  transfer.data = SerializeKv();
  transfer.next_chunk = 0;
  transfer.last_chunk_at = 0;
  transfers_[peer] = std::move(transfer);
  Log(StrFormat("starting snapshot transfer to n%d at idx %lld", peer,
                static_cast<long long>(snap_index_)));
  SendSnapshotChunk(peer);
}

void RaftKvNode::SendSnapshotChunk(NodeId peer) {
  auto it = transfers_.find(peer);
  if (it == transfers_.end() || role_ != Role::kLeader) {
    return;
  }
  EnterFunction("sendSnapshotChunk");
  Transfer& transfer = it->second;
  if (options_.bug51 && transfer.last_chunk_at != 0 &&
      now() - transfer.last_chunk_at > Seconds(3)) {
    // RedisRaft-51: the transfer cursor is validated against the log cache,
    // which moved on while the process was stopped.
    Assert(false, "cache index integrity violated during snapshot transfer");
  }
  const int total = options_.transfer_chunks;
  const size_t chunk_size = transfer.data.size() / static_cast<size_t>(total) + 1;
  const int seq = transfer.next_chunk;
  const size_t begin = static_cast<size_t>(seq) * chunk_size;
  const std::string piece =
      begin < transfer.data.size() ? transfer.data.substr(begin, chunk_size) : "";

  Message msg("SnapChunk", id(), peer);
  msg.SetInt("term", term_);
  msg.SetInt("idx", transfer.snap_index);
  msg.SetInt("snap_term", transfer.snap_term);
  msg.SetInt("seq", seq);
  msg.SetInt("total", total);
  msg.SetStr("data", piece);
  Send(peer, std::move(msg));

  transfer.last_chunk_at = now();
  transfer.next_chunk++;
  if (transfer.next_chunk < total) {
    SetTimer(StrFormat("xfer:%d", peer), options_.chunk_interval);
  } else {
    // All chunks out: if the follower never acks, abandon the transfer and
    // fall back to heartbeats instead of wedging the peer forever.
    SetTimer(StrFormat("xfergc:%d", peer), Seconds(5));
  }
}

void RaftKvNode::HandleInstallChunk(const Message& msg) {
  const int64_t term = msg.IntField("term");
  if (term < term_) {
    return;
  }
  if (term > term_ || role_ != Role::kFollower) {
    BecomeFollower(term);
  }
  leader_hint_ = msg.from;
  ResetElectionTimer();
  const auto seq = static_cast<int>(msg.IntField("seq"));
  const auto total = static_cast<int>(msg.IntField("total"));
  if (seq == 0) {
    incoming_chunks_.clear();
    incoming_seen_ = 0;
  }
  if (seq != incoming_seen_) {
    return;  // Out-of-order chunk; wait for retransfer.
  }
  incoming_chunks_ += msg.StrField("data");
  incoming_seen_++;
  if (incoming_seen_ == total) {
    HandleInstallSnapshot(msg.IntField("idx"), msg.IntField("snap_term"), incoming_chunks_);
    Message reply("SnapOk", id(), msg.from);
    reply.SetInt("idx", msg.IntField("idx"));
    Send(msg.from, std::move(reply));
  }
}

void RaftKvNode::HandleInstallSnapshot(int64_t snap_index, int64_t snap_term,
                                       const std::string& data) {
  EnterFunction("HandleInstallSnapshot");
  if (snap_index <= snap_index_) {
    return;
  }
  DeserializeKv(data);
  snap_index_ = snap_index;
  snap_term_ = snap_term;
  commit_index_ = std::max(commit_index_, snap_index);
  last_applied_ = snap_index;
  log_.clear();
  StoreSnapshotData(snap_index, snap_term);
  if (options_.bug43) {
    // RedisRaft-43: the old log is deleted *before* the replacement exists.
    // A crash inside RaftLogCreate leaves a snapshot with no log segment.
    AtOffset("HandleInstallSnapshot", 0x1c);
    UnlinkPath(kLogPath);
    RaftLogCreate(snap_index);
  } else {
    // Correct behavior: atomically rewrite the log (tmp + rename).
    RewriteLogFile();
  }
  Log(StrFormat("installed snapshot at %lld", static_cast<long long>(snap_index)));
}

void RaftKvNode::RaftLogCreate(int64_t snap_index) {
  EnterFunction("RaftLogCreate");
  AtOffset("RaftLogCreate", 0x08);
  WriteFileDurably(kLogPath, StrFormat("HDR %lld\n", static_cast<long long>(snap_index + 1)));
  AtOffset("RaftLogCreate", 0x14);
  ParseLog();
}

void RaftKvNode::ParseLog() {
  EnterFunction("parseLog");
  SimKernel::OpenFlags flags;
  flags.readonly = true;
  const SyscallResult opened = Open(kLogPath, flags);
  if (opened.ok()) {
    std::string chunk;
    ReadFd(static_cast<int32_t>(opened.value), 4096, &chunk);
    Close(static_cast<int32_t>(opened.value));
  }
}

// ---------------------------------------------------------------------------
// Consensus
// ---------------------------------------------------------------------------

int64_t RaftKvNode::last_log_index() const {
  return log_.empty() ? snap_index_ : log_.back().index;
}

const RaftKvNode::LogEntry* RaftKvNode::EntryAt(int64_t index) const {
  if (log_.empty() || index < log_.front().index || index > log_.back().index) {
    return nullptr;
  }
  return &log_[static_cast<size_t>(index - log_.front().index)];
}

int64_t RaftKvNode::TermAt(int64_t index) const {
  if (index == snap_index_) {
    return snap_term_;
  }
  const LogEntry* entry = EntryAt(index);
  return entry == nullptr ? -1 : entry->term;
}

void RaftKvNode::ResetElectionTimer() {
  // Timeouts are staggered by node id (plus jitter), so the lowest-id alive
  // node usually wins elections. Real deployments often behave this way too
  // (stable leadership); for Rose it means fault schedules that implicitly
  // depend on "who is leader" replay consistently across runs.
  const SimTime stagger = Millis(40) * id();
  const SimTime jitter = static_cast<SimTime>(rng().NextBelow(static_cast<uint64_t>(
      options_.election_timeout_max - options_.election_timeout_min) / 4 + 1));
  SetTimer("election", options_.election_timeout_min + stagger + jitter);
}

void RaftKvNode::StartElection() {
  EnterFunction("startElection");
  role_ = Role::kCandidate;
  term_++;
  voted_for_ = id();
  PersistState();
  votes_.clear();
  votes_.insert(id());
  Message msg("RequestVote", id(), kNoNode);
  msg.SetInt("term", term_);
  msg.SetInt("last_idx", last_log_index());
  msg.SetInt("last_term", TermAt(last_log_index()));
  Broadcast(msg, options_.cluster_size);
  ResetElectionTimer();
}

void RaftKvNode::BecomeLeader() {
  EnterFunction("becomeLeader");
  role_ = Role::kLeader;
  leader_hint_ = id();
  transfers_.clear();
  next_index_.clear();
  match_index_.clear();
  for (NodeId peer = 0; peer < options_.cluster_size; peer++) {
    if (peer != id()) {
      next_index_[peer] = last_log_index() + 1;
      match_index_[peer] = 0;
    }
  }
  Log(StrFormat("became leader for term %lld", static_cast<long long>(term_)));
  CancelTimer("election");
  SendHeartbeats();
}

void RaftKvNode::BecomeFollower(int64_t term) {
  if (term > term_) {
    EnterFunction("becomeFollower");
    term_ = term;
    voted_for_ = kNoNode;
    PersistState();
  }
  if (role_ == Role::kLeader) {
    CancelTimer("heartbeat");
    transfers_.clear();
  }
  role_ = Role::kFollower;
  ResetElectionTimer();
}

void RaftKvNode::SendHeartbeats() {
  EnterFunction("RaftLogCurrentIdx");
  for (NodeId peer = 0; peer < options_.cluster_size; peer++) {
    if (peer == id()) {
      continue;
    }
    if (transfers_.count(peer) != 0) {
      continue;  // Snapshot transfer in progress.
    }
    const int64_t next = next_index_[peer];
    if (next <= snap_index_) {
      BeginSnapshotTransfer(peer);
      continue;
    }
    Message msg("AppendEntries", id(), peer);
    // term, prev_idx, prev_term, commit and n, then up to
    // kMaxEntriesPerAppend entries: more than a message reserves by default.
    msg.Reserve(5 + kMaxEntriesPerAppend);
    msg.SetInt("term", term_);
    msg.SetInt("prev_idx", next - 1);
    msg.SetInt("prev_term", TermAt(next - 1));
    msg.SetInt("commit", commit_index_);
    int count = 0;
    for (int64_t idx = next; idx <= last_log_index() && count < kMaxEntriesPerAppend;
         idx++, count++) {
      const LogEntry* entry = EntryAt(idx);
      if (entry == nullptr) {
        break;  // Compaction hole (e.g. the bug42 off-by-one): nothing to send.
      }
      msg.SetStr(kEntryKeys[count], entry->line);
    }
    msg.SetInt("n", count);
    Send(peer, std::move(msg));
  }
  SetTimer("heartbeat", options_.heartbeat_interval);
}

void RaftKvNode::HandleRequestVote(const Message& msg) {
  const int64_t term = msg.IntField("term");
  if (term > term_) {
    BecomeFollower(term);
  }
  bool granted = false;
  if (term == term_ && (voted_for_ == kNoNode || voted_for_ == msg.from)) {
    const int64_t last_idx = msg.IntField("last_idx");
    const int64_t last_term = msg.IntField("last_term");
    const int64_t my_last_term = TermAt(last_log_index());
    const bool up_to_date = last_term > my_last_term ||
                            (last_term == my_last_term && last_idx >= last_log_index());
    if (up_to_date) {
      granted = true;
      voted_for_ = msg.from;
      PersistState();
      ResetElectionTimer();
    }
  }
  Message reply("VoteReply", id(), msg.from);
  reply.SetInt("term", term_);
  reply.SetInt("granted", granted ? 1 : 0);
  Send(msg.from, std::move(reply));
}

void RaftKvNode::HandleVoteReply(const Message& msg) {
  const int64_t term = msg.IntField("term");
  if (term > term_) {
    BecomeFollower(term);
    return;
  }
  if (role_ != Role::kCandidate || term != term_ || msg.IntField("granted") == 0) {
    return;
  }
  votes_.insert(msg.from);
  if (static_cast<int>(votes_.size()) * 2 > options_.cluster_size) {
    BecomeLeader();
  }
}

void RaftKvNode::HandleAppendEntries(const Message& msg) {
  const int64_t term = msg.IntField("term");
  Message reply("AppendReply", id(), msg.from);
  reply.SetInt("term", term_);
  if (term < term_) {
    reply.SetInt("success", 0);
    reply.SetInt("match", 0);
    Send(msg.from, std::move(reply));
    return;
  }
  BecomeFollower(term);
  leader_hint_ = msg.from;

  const int64_t prev_idx = msg.IntField("prev_idx");
  const int64_t prev_term = msg.IntField("prev_term");
  bool ok = true;
  if (prev_idx > last_log_index()) {
    ok = false;
  } else if (prev_idx > snap_index_ && TermAt(prev_idx) != prev_term) {
    // Conflict: truncate the divergent suffix. Note that with bug_new2 the
    // optimistic applications of truncated entries are NOT rolled back.
    while (!log_.empty() && log_.back().index >= prev_idx) {
      log_.pop_back();
    }
    RewriteLogFile();
    ok = false;
  }
  if (!ok) {
    reply.SetInt("term", term_);
    reply.SetInt("success", 0);
    reply.SetInt("match", std::min(prev_idx - 1, last_log_index()));
    Send(msg.from, std::move(reply));
    return;
  }

  // A leader sends at most kMaxEntriesPerAppend entries; keys past them
  // would be absent anyway.
  const int64_t count = std::min<int64_t>(msg.IntField("n"), kMaxEntriesPerAppend);
  for (int i = 0; i < count; i++) {
    const std::string_view line = msg.StrView(kEntryKeys[i].view());
    auto entry = DecodeEntry(line);
    if (!entry.has_value() || entry->index <= snap_index_) {
      continue;
    }
    const LogEntry* existing = EntryAt(entry->index);
    if (existing != nullptr) {
      if (existing->term == entry->term) {
        continue;
      }
      while (!log_.empty() && log_.back().index >= entry->index) {
        log_.pop_back();
      }
      RewriteLogFile();
    }
    entry->line = std::string(line);  // The leader's text is already canonical.
    AppendEntryToDisk(*entry);
    log_.push_back(std::move(*entry));
  }

  const int64_t leader_commit = msg.IntField("commit");
  if (leader_commit > commit_index_) {
    commit_index_ = std::min(leader_commit, last_log_index());
    ApplyCommitted();
  }
  reply.SetInt("term", term_);
  reply.SetInt("success", 1);
  reply.SetInt("match", last_log_index());
  Send(msg.from, std::move(reply));
}

void RaftKvNode::HandleAppendReply(const Message& msg) {
  const int64_t term = msg.IntField("term");
  if (term > term_) {
    BecomeFollower(term);
    return;
  }
  if (role_ != Role::kLeader) {
    return;
  }
  const NodeId peer = msg.from;
  if (msg.IntField("success") == 1) {
    match_index_[peer] = msg.IntField("match");
    next_index_[peer] = match_index_[peer] + 1;
    AdvanceCommit();
    return;
  }
  const int64_t hint = msg.IntField("match");
  next_index_[peer] = std::max<int64_t>(1, std::min(next_index_[peer] - 1, hint + 1));
  if (next_index_[peer] <= snap_index_) {
    BeginSnapshotTransfer(peer);
  }
}

void RaftKvNode::AdvanceCommit() {
  for (int64_t idx = last_log_index(); idx > commit_index_; idx--) {
    if (TermAt(idx) != term_) {
      continue;
    }
    int replicas = 1;  // Self.
    for (const auto& [peer, match] : match_index_) {
      if (match >= idx) {
        replicas++;
      }
    }
    if (replicas * 2 > options_.cluster_size) {
      commit_index_ = idx;
      ApplyCommitted();
      break;
    }
  }
}

void RaftKvNode::ApplyCommitted() {
  while (last_applied_ < commit_index_) {
    const LogEntry* entry = EntryAt(last_applied_ + 1);
    if (entry == nullptr) {
      break;
    }
    ApplyEntry(*entry, /*optimistic=*/false);
    last_applied_++;
    applied_since_snapshot_++;

    auto pending = pending_client_ops_.find(last_applied_);
    if (pending != pending_client_ops_.end()) {
      if (role_ == Role::kLeader && pending->second.first != kNoNode) {
        Message reply("ClientPutOk", id(), pending->second.first);
        reply.SetStr("op", pending->second.second);
        Send(pending->second.first, std::move(reply));
      }
      pending_client_ops_.erase(pending);
    }
  }
  if (applied_since_snapshot_ >= options_.snapshot_every) {
    TakeSnapshot();
  }
}

void RaftKvNode::ApplyEntry(const LogEntry& entry, bool optimistic) {
  EnterFunction("applyEntry");
  if (options_.bug_new2 && !optimistic) {
    auto it = applied_ops_.find(entry.op_id);
    if (it != applied_ops_.end()) {
      if (it->second == entry.index) {
        return;  // Already applied optimistically from this log slot.
      }
      // RedisRaft-NEW2: the op was applied from a log slot that has since
      // been truncated; the state machine now sees the same key twice.
      Assert(false, StrFormat("repeated key: op %s applied twice", entry.op_id.c_str()));
    }
  }
  kv_[entry.key] = entry.value;
  if (options_.bug_new2) {
    applied_ops_[entry.op_id] = entry.index;
  }
}

// ---------------------------------------------------------------------------
// Client operations
// ---------------------------------------------------------------------------

void RaftKvNode::HandleClientPut(const Message& msg) {
  EnterFunction("handleClientPut");
  if (role_ != Role::kLeader) {
    Message reply("ClientRedirect", id(), msg.from);
    reply.SetStr("op", msg.StrField("op"));
    reply.SetInt("leader", leader_hint_);
    Send(msg.from, std::move(reply));
    return;
  }
  LogEntry entry;
  entry.index = last_log_index() + 1;
  entry.term = term_;
  entry.key = msg.StrField("key");
  entry.value = msg.StrField("val");
  entry.op_id = msg.StrField("op");
  entry.client = msg.from;
  entry.line = EncodeEntry(entry);
  AppendEntryToDisk(entry);
  const LogEntry& appended = log_.emplace_back(std::move(entry));
  pending_client_ops_[appended.index] = {msg.from, appended.op_id};
  if (options_.bug_new2) {
    // RedisRaft-NEW2: apply optimistically at append time.
    ApplyEntry(appended, /*optimistic=*/true);
  }
  AdvanceCommit();  // Single-node commit path for tiny clusters.
}

void RaftKvNode::HandleClientGet(const Message& msg) {
  Message reply("ClientGetOk", id(), msg.from);
  reply.SetStr("op", msg.StrField("op"));
  auto it = kv_.find(msg.StrField("key"));
  reply.SetStr("val", it == kv_.end() ? "" : it->second);
  reply.SetInt("leader", role_ == Role::kLeader ? 1 : 0);
  Send(msg.from, std::move(reply));
}

// ---------------------------------------------------------------------------
// Event plumbing
// ---------------------------------------------------------------------------

void RaftKvNode::MaintenanceTick() {
  // Benign failing probes, mirroring the stat/readlink noise real runtimes
  // generate (this is what the diagnosis phase's FR% removes).
  StatPath("/data/conf.d/override.conf");
  ReadlinkPath("/data/current");
  StatPath("/data/raft.lock");
  SetTimer("maint", Seconds(1));
}

void RaftKvNode::OnTimer(const std::string& name) {
  if (name == "election") {
    if (role_ != Role::kLeader) {
      StartElection();
    }
    return;
  }
  if (name == "heartbeat") {
    if (role_ == Role::kLeader) {
      SendHeartbeats();
    }
    return;
  }
  if (name == "maint") {
    MaintenanceTick();
    return;
  }
  if (StartsWith(name, "xfergc:")) {
    int64_t peer = 0;
    if (ParseInt64(name.substr(7), &peer)) {
      transfers_.erase(static_cast<NodeId>(peer));
    }
    return;
  }
  if (StartsWith(name, "xfer:")) {
    int64_t peer = 0;
    if (ParseInt64(name.substr(5), &peer)) {
      SendSnapshotChunk(static_cast<NodeId>(peer));
    }
    return;
  }
}

void RaftKvNode::OnMessage(const Message& msg) {
  if (msg.type == "RequestVote") {
    HandleRequestVote(msg);
  } else if (msg.type == "VoteReply") {
    HandleVoteReply(msg);
  } else if (msg.type == "AppendEntries") {
    HandleAppendEntries(msg);
  } else if (msg.type == "AppendReply") {
    HandleAppendReply(msg);
  } else if (msg.type == "SnapChunk") {
    HandleInstallChunk(msg);
  } else if (msg.type == "SnapOk") {
    const NodeId peer = msg.from;
    transfers_.erase(peer);
    match_index_[peer] = msg.IntField("idx");
    next_index_[peer] = match_index_[peer] + 1;
  } else if (msg.type == "ClientPut") {
    HandleClientPut(msg);
  } else if (msg.type == "ClientGet") {
    HandleClientGet(msg);
  }
}

}  // namespace rose
