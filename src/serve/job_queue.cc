#include "src/serve/job_queue.h"

namespace rose {

JobQueue::PushResult JobQueue::Push(uint64_t tenant, uint64_t job_id) {
  if (size_ >= capacity_) {
    return PushResult::kFull;
  }
  std::deque<uint64_t>& jobs = per_tenant_[tenant];
  if (jobs.empty()) {
    rotation_.push_back(tenant);
  }
  jobs.push_back(job_id);
  size_++;
  return PushResult::kOk;
}

std::optional<uint64_t> JobQueue::Pop() {
  if (rotation_.empty()) {
    return std::nullopt;
  }
  const uint64_t tenant = rotation_.front();
  rotation_.pop_front();
  auto it = per_tenant_.find(tenant);
  const uint64_t job_id = it->second.front();
  it->second.pop_front();
  size_--;
  if (it->second.empty()) {
    per_tenant_.erase(it);
  } else {
    rotation_.push_back(tenant);
  }
  return job_id;
}

}  // namespace rose
