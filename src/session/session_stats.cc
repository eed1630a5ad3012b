#include "session/session_stats.h"

#include <algorithm>

#include "trace/stats.h"

namespace wadc::session {

void SessionStats::add(const SessionRecord& record) {
  sessions_.push_back(record);
  makespan_seconds_ = std::max(makespan_seconds_, record.end_seconds);
  images_total_ += record.images;

  if (record.shed) {
    ++shed_;
    return;  // never queued, never ran: nothing else to fold
  }
  ++admitted_;
  if (record.deferred) ++deferred_;
  const double queue = record.queue_seconds();
  queue_sum_ += queue;
  queue_max_ = std::max(queue_max_, queue);

  if (!record.completed) return;  // aborted: admitted, but no response metrics
  ++completed_;
  const double response = record.response_seconds();
  response_sum_ += response;
  responses_.push_back(response);
  const double x = record.throughput();
  throughput_sum_ += x;
  throughput_sum_sq_ += x * x;
}

double SessionStats::shed_fraction() const {
  if (sessions_.empty()) return 0.0;
  return static_cast<double>(shed_) / static_cast<double>(sessions_.size());
}

double SessionStats::mean_response_seconds() const {
  return completed_ > 0 ? response_sum_ / completed_ : 0.0;
}

double SessionStats::p95_response_seconds() const {
  if (responses_.empty()) return 0.0;
  return trace::percentile_of(responses_, 95.0);
}

double SessionStats::mean_queue_seconds() const {
  return admitted_ > 0 ? queue_sum_ / admitted_ : 0.0;
}

double SessionStats::jain_fairness() const {
  if (completed_ == 0 || throughput_sum_sq_ <= 0) return 1.0;
  return (throughput_sum_ * throughput_sum_) /
         (completed_ * throughput_sum_sq_);
}

double SessionStats::aggregate_throughput() const {
  if (makespan_seconds_ <= 0) return 0.0;
  return static_cast<double>(images_total_) / makespan_seconds_;
}

double SessionStats::goodput_per_hour() const {
  if (makespan_seconds_ <= 0) return 0.0;
  return completed_ * 3600.0 / makespan_seconds_;
}

}  // namespace wadc::session
