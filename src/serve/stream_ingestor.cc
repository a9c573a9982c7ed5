#include "src/serve/stream_ingestor.h"

#include <algorithm>
#include <vector>

namespace rose {

StreamIngestor::StreamIngestor(size_t window_bytes)
    : window_bytes_(std::max<size_t>(window_bytes, 1)) {
  MetricRegistry& reg = MetricRegistry::Global();
  m_resident_ = reg.GetGauge("stream.resident_bytes");
  m_dropped_events_ = reg.GetCounter("stream.dropped_events");
  m_materialize_ns_ = reg.GetHistogram("stream.materialize_ns");
}

void StreamIngestor::Open(uint64_t id) {
  sessions_[id] = std::make_unique<Session>();
  session_cost_[id] = 0;
}

bool StreamIngestor::Feed(uint64_t id, std::string_view bytes) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return false;
  }
  Session& session = *it->second;
  session.decoder.Feed(bytes);
  for (;;) {
    switch (session.decoder.Next()) {
      case StreamDecoder::Item::kNeedMore:
        // The pool cannot shrink (a later frame may name any earlier id):
        // once it alone outgrows the window, the session never fits again.
        if (session.decoder.pool().payload_bytes() > window_bytes_) {
          return false;
        }
        EnforceWindow(id, session);
        return true;
      case StreamDecoder::Item::kEvents:
        session.resident.insert(session.resident.end(),
                                session.decoder.events().begin(),
                                session.decoder.events().end());
        break;
      case StreamDecoder::Item::kEpoch:
        // A bumped epoch means the sender restarted; the window keeps what
        // it holds (the pre-restart past is still the recent past).
        break;
      case StreamDecoder::Item::kOracleMark:
        session.oracle = session.decoder.oracle();
        session.oracle_pending = true;
        break;
      case StreamDecoder::Item::kEnd:
      case StreamDecoder::Item::kCorrupt:
        break;  // Corrupt frames were counted and skipped by the decoder.
      case StreamDecoder::Item::kBadStream:
        return false;
    }
  }
}

bool StreamIngestor::oracle_pending(uint64_t id) const {
  auto it = sessions_.find(id);
  return it != sessions_.end() && it->second->oracle_pending;
}

OracleMark StreamIngestor::TakeOracle(uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return {};
  }
  it->second->oracle_pending = false;
  return it->second->oracle;
}

std::string StreamIngestor::Materialize(uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return {};
  }
  Session& session = *it->second;
  ScopedTimer timer(m_materialize_ns_);
  // Events arrive fd-resolved and with the open-ended flushes appended by
  // the sink, in the tracer's recording order.
  return Trace::FromWindow({session.resident.begin(), session.resident.end()},
                           session.decoder.pool())
      .SerializeBinary();
}

void StreamIngestor::Close(uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return;
  }
  resident_total_ -= session_cost_[id];
  session_cost_.erase(id);
  sessions_.erase(it);
  m_resident_->Set(static_cast<int64_t>(resident_total_));
}

uint64_t StreamIngestor::drops(uint64_t id) const {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? 0 : it->second->drops;
}

uint64_t StreamIngestor::corrupt_frames(uint64_t id) const {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? 0 : it->second->decoder.corrupt_frames();
}

size_t StreamIngestor::ResidentCost(const Session& session) const {
  return session.resident.size() * sizeof(TraceEvent) +
         session.decoder.pool().payload_bytes();
}

void StreamIngestor::EnforceWindow(uint64_t id, Session& session) {
  // Feed ended any session whose pool alone exceeds the bound, so dropping
  // events always brings the cost back under it.
  while (ResidentCost(session) > window_bytes_ && !session.resident.empty()) {
    session.resident.pop_front();
    session.drops++;
    drops_total_++;
    m_dropped_events_->Inc();
  }
  UpdateResidentGauge(id, session);
}

void StreamIngestor::UpdateResidentGauge(uint64_t id, Session& session) {
  const size_t cost = ResidentCost(session);
  size_t& cached = session_cost_[id];
  resident_total_ = resident_total_ - cached + cost;
  cached = cost;
  if (resident_total_ > resident_peak_) {
    resident_peak_ = resident_total_;
  }
  m_resident_->Set(static_cast<int64_t>(resident_total_));
}

}  // namespace rose
