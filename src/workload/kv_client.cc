#include "src/workload/kv_client.h"

#include "src/common/strings.h"

namespace rose {

KvClient::KvClient(Cluster* cluster, NodeId id, KvClientOptions options)
    : GuestNode(cluster, id, StrFormat("kvclient-%d", id)), options_(options) {
  if (options_.zipfian_keys) {
    zipf_.emplace(static_cast<uint64_t>(options_.key_space), options_.zipfian_theta);
  }
}

void KvClient::OnStart() {
  target_ = static_cast<NodeId>(rng().NextBelow(static_cast<uint64_t>(options_.server_count)));
  SetTimer("tick", options_.op_interval);
}

void KvClient::NextOp() {
  OpRecord record;
  // "<prefix><node>-<n>", "key-<k>", "v<r>".
  record.op_id = options_.op_prefix;
  AppendDecimal(&record.op_id, id());
  record.op_id += '-';
  AppendDecimal(&record.op_id, op_counter_++);
  const uint64_t key_index =
      zipf_.has_value() ? zipf_->Next(rng())
                        : rng().NextBelow(static_cast<uint64_t>(options_.key_space));
  record.key = "key-";
  AppendDecimal(&record.key, key_index);
  record.value = "v";
  AppendDecimal(&record.value, rng().Next() % 100000);
  record.sent_at = now();
  history_.push_back(std::move(record));
  current_ = history_.size() - 1;
  in_flight_ = true;
  attempted_++;
  SendCurrent();
}

void KvClient::SendCurrent() {
  OpRecord& record = history_[current_];
  record.attempts++;
  Message msg(rng().NextBool(options_.read_fraction) ? "ClientGet" : "ClientPut", id(),
              target_);
  msg.SetStr("key", record.key);
  msg.SetStr("val", record.value);
  msg.SetStr("op", record.op_id);
  Send(target_, std::move(msg));
}

void KvClient::OnTimer(const std::string& name) {
  if (name != "tick") {
    return;
  }
  if (in_flight_) {
    OpRecord& record = history_[current_];
    if (now() - record.sent_at >= options_.retry_timeout) {
      // Retry the SAME operation id against the next server — the classic
      // ambiguous-outcome retry that consistency bugs feed on.
      target_ = static_cast<NodeId>((target_ + 1) % options_.server_count);
      record.sent_at = now();
      SendCurrent();
    }
  } else {
    NextOp();
  }
  SetTimer("tick", options_.op_interval);
}

void KvClient::OnMessage(const Message& msg) {
  if (msg.type == "ClientRedirect") {
    const auto leader = static_cast<NodeId>(msg.IntField("leader", kNoNode));
    const bool valid_hint = leader != kNoNode && leader >= 0 && leader < options_.server_count;
    if (valid_hint) {
      target_ = leader;
      if (in_flight_ && msg.StrField("op") == history_[current_].op_id) {
        history_[current_].sent_at = now();
        SendCurrent();
      }
    } else {
      // No leader known: rotate and let the tick-based retry pace us instead
      // of ping-ponging redirects at network speed.
      target_ = static_cast<NodeId>((target_ + 1) % options_.server_count);
      if (in_flight_) {
        history_[current_].sent_at = now() - options_.retry_timeout + Millis(300);
      }
    }
    return;
  }
  if (msg.type == "ClientPutOk" || msg.type == "ClientGetOk") {
    if (in_flight_ && msg.StrField("op") == history_[current_].op_id) {
      history_[current_].acknowledged = true;
      history_[current_].acked_at = now();
      in_flight_ = false;
      completed_++;
    }
    return;
  }
}

}  // namespace rose
