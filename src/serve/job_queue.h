// Bounded multi-tenant job queue with round-robin fairness.
//
// The serve daemon admits jobs from many clients but runs a fixed number of
// diagnosis engines at once; everything else waits here. Two policies:
//
//   Bounded: at most `capacity` jobs wait at any time, across all tenants.
//     Push on a full queue is a typed rejection (the kQueueFull wire error);
//     the client retries with backoff. Bounding the queue — instead of
//     buffering unboundedly — is what turns overload into backpressure the
//     protocol can express.
//
//   Fair: Pop serves the tenants with queued jobs round-robin, each joining
//     the rotation when its queue turns non-empty, so a tenant that
//     batch-submits 50 dumps cannot starve one that submits a single urgent
//     window. Within a tenant, jobs stay FIFO. A tenant whose queue drains
//     leaves the rotation, so the queue holds no state for past tenants.
//
// Single-threaded by design: only the service's Poll() thread touches it.
#ifndef SRC_SERVE_JOB_QUEUE_H_
#define SRC_SERVE_JOB_QUEUE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>

namespace rose {

class JobQueue {
 public:
  explicit JobQueue(size_t capacity) : capacity_(capacity) {}

  enum class PushResult : uint8_t { kOk = 0, kFull };

  PushResult Push(uint64_t tenant, uint64_t job_id);

  // Next job id, round-robin over tenants with queued work.
  std::optional<uint64_t> Pop();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  // Tenants with queued jobs (the rotation's length).
  size_t tenants() const { return rotation_.size(); }

 private:
  size_t capacity_;
  size_t size_ = 0;
  // Queued job ids of each tenant in the rotation; never an empty queue.
  std::map<uint64_t, std::deque<uint64_t>> per_tenant_;
  // Tenants with queued jobs, the next one to serve first.
  std::deque<uint64_t> rotation_;
};

}  // namespace rose

#endif  // SRC_SERVE_JOB_QUEUE_H_
