#include "session/session_manager.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "common/model_constants.h"
#include "common/rng.h"

namespace wadc::session {
namespace {

// Sub-stream labels for the manager's forked generators (arbitrary,
// fixed forever for reproducibility).
constexpr std::uint64_t kSessionSeedLabel = 0x5e5510;
constexpr std::uint64_t kArrivalLabel = 0x5e551a;

// The response predictor sized from the workload: one session must deliver
// every server's partitions to the client through its single NIC —
// iterations * num_servers messages of the mean image size each. Control
// traffic is deliberately ignored; it is small and the prediction only has
// to rank "fits the deadline" against "misses it by a lot".
ResponsePredictor make_predictor(const core::CombinationTree& tree,
                                 const workload::ImageWorkload& workload) {
  const int messages = workload.iterations() * tree.num_servers();
  const double bytes = kMeanImageBytes * messages;
  return ResponsePredictor(bytes, messages);
}

}  // namespace

SessionManager::SessionManager(sim::Simulation& sim, net::Network& network,
                               monitor::MonitoringSystem& monitoring,
                               const core::CombinationTree& tree,
                               const workload::ImageWorkload& workload,
                               const dataflow::EngineParams& engine_base,
                               const SessionSpec& spec, std::uint64_t seed)
    : sim_(sim),
      network_(network),
      monitoring_(monitoring),
      tree_(tree),
      workload_(workload),
      engine_base_(engine_base),
      spec_(spec),
      seed_(seed),
      predictor_(make_predictor(tree, workload)),
      admission_(spec.admission, [this]() { return load_signals(); },
                 &predictor_),
      obs_(engine_base.obs) {
  const std::string spec_problem = spec_.validate();
  WADC_ASSERT(spec_problem.empty(), "invalid session spec: ", spec_problem);
  total_ = spec_.total_sessions();
  sessions_.reserve(static_cast<std::size_t>(total_));
  if (obs_.metrics) {
    arrivals_counter_ = &obs_.metrics->counter("session.arrivals");
    admitted_counter_ = &obs_.metrics->counter("session.admitted");
    deferred_counter_ = &obs_.metrics->counter("session.deferred");
    shed_counter_ = &obs_.metrics->counter("session.shed");
    completed_counter_ = &obs_.metrics->counter("session.completed");
    queue_seconds_hist_ = &obs_.metrics->histogram(
        "session.queue_seconds", obs::exponential_buckets(1, 2, 24));
    response_seconds_hist_ = &obs_.metrics->histogram(
        "session.response_seconds", obs::exponential_buckets(1, 2, 24));
  }
}

std::uint64_t SessionManager::session_seed(int id) const {
  return Rng(seed_)
      .fork(kSessionSeedLabel)
      .fork(static_cast<std::uint64_t>(id))
      .next_u64();
}

void SessionManager::trace_session_event(const char* name, int id) {
  if (obs_.tracer) {
    obs_.tracer->instant("session", name, tree_.client_host(),
                         obs::kControlLane, sim_.now(), {{"session", id}});
  }
}

const char* SessionManager::session_state(int id) const {
  WADC_ASSERT(id >= 0 && static_cast<std::size_t>(id) < sessions_.size(),
              "session id out of range");
  const Session& s = sessions_[static_cast<std::size_t>(id)];
  if (s.record.shed) return "shed";
  if (s.done) return "done";
  return s.engine ? "running" : "queued";
}

int SessionManager::session_images(int id) const {
  WADC_ASSERT(id >= 0 && static_cast<std::size_t>(id) < sessions_.size(),
              "session id out of range");
  const Session& s = sessions_[static_cast<std::size_t>(id)];
  if (!s.engine) return s.record.images;  // queued (0), shed (0), or done
  return static_cast<int>(
      std::as_const(*s.engine).stats().arrival_seconds.size());
}

std::optional<double> SessionManager::client_link_bandwidth() const {
  // The minimum, not the mean: every iteration of the combination barriers
  // on all servers, so a session progresses at the pace of its slowest
  // client<->server pair. The mean overestimates throughput on
  // heterogeneous configurations by an order of magnitude, and admission
  // predictions built on it admit straight into a pileup.
  const net::HostId client = tree_.client_host();
  std::optional<double> slowest;
  for (int s = 0; s < tree_.num_servers(); ++s) {
    if (const std::optional<double> bw = monitoring_.cached_bandwidth(
            client, client, tree_.server_host(s))) {
      if (!slowest || *bw < *slowest) slowest = *bw;
    }
  }
  return slowest;
}

LoadSignals SessionManager::load_signals() const {
  LoadSignals s;  // running is filled in by the controller
  s.inflight_bytes = network_.inflight_bytes();
  s.client_bandwidth = client_link_bandwidth();
  return s;
}

void SessionManager::schedule_arrivals() {
  switch (spec_.mode) {
    case ArrivalMode::kExplicit: {
      // The event queue orders by (time, seq), so scheduling in time order
      // gives sessions ids in arrival order, with listed order breaking
      // ties (stable sort).
      std::vector<ExplicitArrival> arrivals = spec_.arrivals;
      std::stable_sort(arrivals.begin(), arrivals.end(),
                       [](const ExplicitArrival& a, const ExplicitArrival& b) {
                         return a.arrival_seconds < b.arrival_seconds;
                       });
      for (const ExplicitArrival& a : arrivals) {
        sim_.schedule_at(a.arrival_seconds,
                         [this, id = a.id, deadline = a.deadline_seconds] {
                           begin_session(-1, id, deadline);
                         });
      }
      break;
    }
    case ArrivalMode::kOpenLoop: {
      Rng arrivals_rng = Rng(seed_).fork(kArrivalLabel);
      const double mean_gap_seconds = 3600.0 / spec_.open_rate_per_hour;
      double t = 0;
      for (int i = 0; i < spec_.open_count; ++i) {
        t += arrivals_rng.exponential(mean_gap_seconds);
        sim_.schedule_at(t, [this] { begin_session(-1, -1, 0); });
      }
      break;
    }
    case ArrivalMode::kClosedLoop: {
      remaining_queries_.assign(
          static_cast<std::size_t>(spec_.clients),
          spec_.queries_per_client - 1);
      for (int c = 0; c < spec_.clients; ++c) {
        sim_.schedule_at(0, [this, c] { begin_session(c, -1, 0); });
      }
      break;
    }
  }
}

void SessionManager::begin_session(int client, int spec_id,
                                   double deadline_seconds) {
  const int id = static_cast<int>(sessions_.size());
  Session s;
  s.record.id = id;
  s.record.spec_id = spec_id >= 0 ? spec_id : id;
  s.record.client = client;
  s.record.arrival_seconds = sim_.now();
  s.record.deadline_seconds = deadline_seconds > 0
                                  ? deadline_seconds
                                  : spec_.admission.deadline_seconds;
  sessions_.push_back(std::move(s));
  if (arrivals_counter_) arrivals_counter_->add();
  trace_session_event("arrive", id);

  const AdmissionDecision d = admission_.request(id, deadline_seconds);
  sessions_[static_cast<std::size_t>(id)].record.predicted_response_seconds =
      d.predicted_response_seconds;
  switch (d.outcome) {
    case AdmissionOutcome::kAdmit:
      admit(id, d.reason, d.predicted_response_seconds);
      break;
    case AdmissionOutcome::kDefer:
      sessions_[static_cast<std::size_t>(id)].record.deferred = true;
      if (deferred_counter_) deferred_counter_->add();
      trace_session_event("defer", id);
      if (obs_.decisions) {
        obs_.decisions->record(sim_.now(), "admission", "defer", id,
                               {{"reason", d.reason},
                                {"queued", admission_.queued()},
                                {"running", admission_.running()}});
      }
      break;
    case AdmissionOutcome::kShed:
      sessions_[static_cast<std::size_t>(id)].record.shed = true;
      if (shed_counter_) shed_counter_->add();
      trace_session_event("shed", id);
      if (obs_.decisions) {
        obs_.decisions->record(
            sim_.now(), "admission", "shed", id,
            {{"reason", d.reason},
             {"predicted_s", d.predicted_response_seconds},
             {"queued", admission_.queued()},
             {"running", admission_.running()}});
      }
      finish_without_running(id);
      break;
  }
}

void SessionManager::admit(int id, const char* reason,
                           double predicted_seconds) {
  Session& s = sessions_[static_cast<std::size_t>(id)];
  s.record.admit_seconds = sim_.now();
  if (admitted_counter_) admitted_counter_->add();
  if (queue_seconds_hist_) {
    queue_seconds_hist_->observe(s.record.queue_seconds());
  }
  trace_session_event("admit", id);
  if (obs_.decisions) {
    obs_.decisions->record(sim_.now(), "admission", "admit", id,
                           {{"reason", reason},
                            {"predicted_s", predicted_seconds},
                            {"queue_s", s.record.queue_seconds()},
                            {"queued", admission_.queued()},
                            {"running", admission_.running()}});
  }

  dataflow::EngineParams params = engine_base_;
  params.session_id = id;
  params.seed = session_seed(id);
  s.engine = std::make_unique<dataflow::Engine>(sim_, network_, monitoring_,
                                                tree_, workload_, params);
  s.engine->start_detached([this, id] { on_session_done(id); });
}

void SessionManager::finish_without_running(int id) {
  Session& s = sessions_[static_cast<std::size_t>(id)];
  s.done = true;
  s.record.admit_seconds = s.record.arrival_seconds;
  s.record.end_seconds = sim_.now();
  ++finished_;
  maybe_issue_next_query(s.record.client);
  if (finished_ == total_) sim_.request_stop();
}

void SessionManager::on_session_done(int id) {
  Session& s = sessions_[static_cast<std::size_t>(id)];
  s.done = true;
  s.record.end_seconds = sim_.now();
  // Harvest only the scalars the record keeps; the engine (and its
  // per-image vectors) is torn down right after this callback returns.
  const dataflow::RunStats& run = std::as_const(*s.engine).stats();
  s.record.completed = run.completed;
  s.record.images = static_cast<int>(run.arrival_seconds.size());
  s.record.relocations = run.relocations;
  if (completed_counter_) completed_counter_->add();
  if (response_seconds_hist_) {
    response_seconds_hist_->observe(s.record.response_seconds());
  }
  trace_session_event("complete", id);
  ++finished_;
  // The engine stays alive until the run ends: its destructor terminates
  // every process in the SHARED simulation, so a finished engine cannot be
  // retired while other sessions still run. The record keeps only scalars,
  // so the per-session cost of the finished engine is its fixed state, not
  // a growing per-image history copy.
  maybe_issue_next_query(s.record.client);

  for (const int next : admission_.on_completed()) {
    admit(next, "dequeued", -1);
  }

  if (finished_ == total_) sim_.request_stop();
}

void SessionManager::maybe_issue_next_query(int client) {
  if (client < 0) return;
  if (remaining_queries_[static_cast<std::size_t>(client)] > 0) {
    --remaining_queries_[static_cast<std::size_t>(client)];
    sim_.schedule_in(spec_.think_seconds,
                     [this, client] { begin_session(client, -1, 0); });
  }
}

SessionStats SessionManager::run() {
  WADC_ASSERT(!ran_, "SessionManager::run() may be called only once");
  ran_ = true;
  schedule_arrivals();
  sim_.run();
  WADC_ASSERT(finished_ == total_, "session run ended with ",
              total_ - finished_, " of ", total_, " sessions unfinished");

  SessionStats stats;
  for (const Session& s : sessions_) stats.add(s.record);
  return stats;
}

}  // namespace wadc::session
