#include "src/serve/stream_ingestor.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>
#include <vector>

namespace rose {

// Spilled records are raw TraceEvent structs (fixed-size; StrIds resolve
// against the session's resident pool, which never shrinks). Same process,
// same layout — a ring slot read back is the event that was written.
static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "spill ring stores TraceEvent structs byte-for-byte");

StreamIngestor::StreamIngestor(StreamIngestorConfig config) : config_(config) {
  if (config_.window_bytes == 0) {
    config_.window_bytes = 1;
  }
  spill_capacity_records_ = config_.spill_bytes / sizeof(TraceEvent);
  MetricRegistry& reg = MetricRegistry::Global();
  m_resident_ = reg.GetGauge("stream.resident_bytes");
  m_evictions_ = reg.GetCounter("stream.window_evictions");
  m_spilled_bytes_ = reg.GetCounter("stream.spilled_bytes");
  m_dropped_events_ = reg.GetCounter("stream.dropped_events");
  m_materialize_ns_ = reg.GetHistogram("stream.materialize_ns");
}

StreamIngestor::~StreamIngestor() {
  for (auto& [id, session] : sessions_) {
    if (session->spill != nullptr) {
      std::fclose(session->spill);
      std::remove(session->spill_path.c_str());
    }
  }
}

void StreamIngestor::Open(uint64_t id) {
  auto session = std::make_unique<Session>();
  if (!config_.spill_dir.empty() && spill_capacity_records_ > 0) {
    session->spill_path =
        config_.spill_dir + "/stream-" + std::to_string(id) + ".spill";
    session->spill = std::fopen(session->spill_path.c_str(), "wb+");
    // A spill dir that cannot be written degrades to drop-on-evict; the
    // drops counter (and the client's throttle frames) make that visible.
  }
  sessions_[id] = std::move(session);
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

  // Window reassembly in arrival order: the spilled prefix, oldest live
  // record first, then the resident tail.
  std::vector<TraceEvent> events;
  events.reserve(static_cast<size_t>(session.spill_end - session.spill_begin) +
                 session.resident.size());
  if (session.spill != nullptr && session.spill_end > session.spill_begin) {
    TraceEvent record;
    for (uint64_t index = session.spill_begin; index < session.spill_end; index++) {
      const uint64_t slot = index % spill_capacity_records_;
      if (std::fseek(session.spill,
                     static_cast<long>(slot * sizeof(TraceEvent)), SEEK_SET) != 0 ||
          std::fread(&record, sizeof(TraceEvent), 1, session.spill) != 1) {
        break;  // Unreadable ring tail: materialize what survived.
      }
      events.push_back(record);
    }
  }
  events.insert(events.end(), session.resident.begin(), session.resident.end());

  // Tracer::Dump's exact canonicalization (events arrive fd-resolved and
  // with open-ended flushes appended by the sink): stable sort by timestamp
  // — ties keep arrival order, which is the tracer's insertion order — then
  // compact into a fresh pool in first-appearance order.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts < b.ts; });
  Trace trace;
  trace.events().reserve(events.size());
  std::vector<StrId> remap;
  for (const TraceEvent& event : events) {
    trace.AppendRemapped(event, session.decoder.pool(), &remap);
  }
  return trace.SerializeBinary();
}

void StreamIngestor::Close(uint64_t id) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return;
  }
  if (it->second->spill != nullptr) {
    std::fclose(it->second->spill);
    std::remove(it->second->spill_path.c_str());
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
  // The pool is part of the resident cost but cannot be evicted (spilled
  // records resolve against it), so a pathological pool alone can exceed the
  // bound; the loop then drains every event and stops.
  while (ResidentCost(session) > config_.window_bytes && !session.resident.empty()) {
    const TraceEvent& oldest = session.resident.front();
    evictions_total_++;
    m_evictions_->Inc();
    if (session.spill != nullptr) {
      const uint64_t slot = session.spill_end % spill_capacity_records_;
      if (std::fseek(session.spill,
                     static_cast<long>(slot * sizeof(TraceEvent)), SEEK_SET) == 0 &&
          std::fwrite(&oldest, sizeof(TraceEvent), 1, session.spill) == 1) {
        session.spill_end++;
        m_spilled_bytes_->Inc(sizeof(TraceEvent));
        if (session.spill_end - session.spill_begin > spill_capacity_records_) {
          // Ring full: this write overwrote the oldest spilled record.
          session.spill_begin = session.spill_end - spill_capacity_records_;
          session.drops++;
          drops_total_++;
          m_dropped_events_->Inc();
        }
      } else {
        session.drops++;  // Spill write failed; the event is gone.
        drops_total_++;
        m_dropped_events_->Inc();
      }
    } else {
      session.drops++;
      drops_total_++;
      m_dropped_events_->Inc();
    }
    session.resident.pop_front();
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
