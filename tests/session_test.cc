// Tests for the multi-client session runtime: spec parsing/validation,
// the admission controller's four policies (including the overload-control
// pair: shedding and deadline-aware), the response predictor, the aggregate
// metrics, and end-to-end session experiments (determinism, contention,
// closed loop, overload outcomes).
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "session/admission.h"
#include "session/overload.h"
#include "session/session_spec.h"
#include "session/session_stats.h"
#include "trace/library.h"

namespace wadc::session {
namespace {

trace::TraceLibrary& shared_library() {
  static trace::TraceLibrary lib(trace::TraceLibraryParams{}, 2026);
  return lib;
}

// ---------------------------------------------------------------------------
// spec parsing

TEST(SessionSpecParse, ExplicitArrivals) {
  const SessionSpec spec = parse_session_spec(
      "# two sessions\n"
      "session 0\n"
      "\n"
      "session 10.5\n");
  EXPECT_EQ(spec.mode, ArrivalMode::kExplicit);
  ASSERT_EQ(spec.arrivals.size(), 2u);
  EXPECT_EQ(spec.arrivals[0].arrival_seconds, 0.0);
  EXPECT_EQ(spec.arrivals[1].arrival_seconds, 10.5);
  // Unnumbered sessions get their line ordinal as id.
  EXPECT_EQ(spec.arrivals[0].id, 0);
  EXPECT_EQ(spec.arrivals[1].id, 1);
  EXPECT_EQ(spec.total_sessions(), 2);
  EXPECT_EQ(spec.admission.policy, AdmissionPolicy::kUnbounded);
  EXPECT_TRUE(spec.validate().empty());
}

TEST(SessionSpecParse, ExplicitArrivalOptions) {
  const SessionSpec spec = parse_session_spec(
      "session 0 id=7 deadline=300\n"
      "session 5 deadline=60\n");
  ASSERT_EQ(spec.arrivals.size(), 2u);
  EXPECT_EQ(spec.arrivals[0].id, 7);
  EXPECT_EQ(spec.arrivals[0].deadline_seconds, 300.0);
  EXPECT_EQ(spec.arrivals[1].id, 1);
  EXPECT_EQ(spec.arrivals[1].deadline_seconds, 60.0);
  EXPECT_TRUE(spec.validate().empty());
}

TEST(SessionSpecParse, OpenLoopWithCap) {
  const SessionSpec spec = parse_session_spec(
      "open 5 12\n"
      "admission cap 2\n");
  EXPECT_EQ(spec.mode, ArrivalMode::kOpenLoop);
  EXPECT_EQ(spec.open_count, 5);
  EXPECT_EQ(spec.open_rate_per_hour, 12.0);
  EXPECT_EQ(spec.total_sessions(), 5);
  EXPECT_EQ(spec.admission.policy, AdmissionPolicy::kFixedCap);
  EXPECT_EQ(spec.admission.max_concurrent, 2);
  EXPECT_TRUE(spec.validate().empty());
}

TEST(SessionSpecParse, ClosedLoopWithBandwidthAdmission) {
  const SessionSpec spec = parse_session_spec(
      "closed 3 2 60\n"
      "admission cap 2\n");
  EXPECT_EQ(spec.mode, ArrivalMode::kClosedLoop);
  EXPECT_EQ(spec.clients, 3);
  EXPECT_EQ(spec.queries_per_client, 2);
  EXPECT_EQ(spec.think_seconds, 60.0);
  EXPECT_EQ(spec.total_sessions(), 6);
  EXPECT_EQ(spec.admission.policy, AdmissionPolicy::kFixedCap);
  EXPECT_EQ(spec.admission.max_concurrent, 2);
  EXPECT_TRUE(spec.validate().empty());
}

TEST(SessionSpecParse, OverloadPolicies) {
  const SessionSpec shed = parse_session_spec(
      "open 10 60\n"
      "admission shed 2 3\n");
  EXPECT_EQ(shed.admission.policy, AdmissionPolicy::kLoadShedding);
  EXPECT_EQ(shed.admission.max_concurrent, 2);
  EXPECT_EQ(shed.admission.max_queue, 3);
  EXPECT_TRUE(shed.validate().empty());

  // Shed cap 0 is the legal degenerate "serve nobody" controller.
  const SessionSpec shed0 = parse_session_spec(
      "session 0\n"
      "admission shed 0\n");
  EXPECT_EQ(shed0.admission.max_concurrent, 0);
  EXPECT_EQ(shed0.admission.max_queue, 0);
  EXPECT_TRUE(shed0.validate().empty());

  const SessionSpec deadline = parse_session_spec(
      "open 10 60\n"
      "admission deadline 1800\n");
  EXPECT_EQ(deadline.admission.policy, AdmissionPolicy::kDeadlineAware);
  EXPECT_EQ(deadline.admission.deadline_seconds, 1800.0);
  EXPECT_TRUE(deadline.validate().empty());
}

TEST(SessionSpecParse, MalformedSpecsThrowWithLineNumber) {
  EXPECT_THROW(parse_session_spec("bogus 1\n"), std::runtime_error);
  EXPECT_THROW(parse_session_spec(""), std::runtime_error);
  EXPECT_THROW(parse_session_spec("session\n"), std::runtime_error);
  EXPECT_THROW(parse_session_spec("session -5\n"), std::runtime_error);
  EXPECT_THROW(parse_session_spec("open 0 5\n"), std::runtime_error);
  EXPECT_THROW(parse_session_spec("closed 2 1 10 extra\n"),
               std::runtime_error);
  EXPECT_THROW(parse_session_spec("session 0\nadmission cap 0\n"),
               std::runtime_error);
  // Arrival modes are mutually exclusive.
  EXPECT_THROW(parse_session_spec("session 0\nopen 2 6\n"),
               std::runtime_error);
  EXPECT_THROW(parse_session_spec("open 2 6\nclosed 2 1 10\n"),
               std::runtime_error);
  try {
    parse_session_spec("session 0\nwat\n");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(SessionSpecParse, RejectsHostileNumbersAndDuplicateIds) {
  // Duplicate session ids (explicit and via the line-ordinal default).
  EXPECT_THROW(parse_session_spec("session 0 id=3\nsession 1 id=3\n"),
               std::runtime_error);
  EXPECT_THROW(parse_session_spec("session 0 id=1\nsession 1\n"),
               std::runtime_error);
  EXPECT_THROW(parse_session_spec("session 0 id=-2\n"), std::runtime_error);
  // NaN/inf do not parse as numbers anywhere in the format.
  EXPECT_THROW(parse_session_spec("open 5 nan\n"), std::runtime_error);
  EXPECT_THROW(parse_session_spec("closed 2 1 nan\n"), std::runtime_error);
  EXPECT_THROW(parse_session_spec("session nan\n"), std::runtime_error);
  EXPECT_THROW(parse_session_spec("session 0 deadline=inf\n"),
               std::runtime_error);
  // Negative rates, think times, deadlines, queue bounds, caps.
  EXPECT_THROW(parse_session_spec("open 5 -12\n"), std::runtime_error);
  EXPECT_THROW(parse_session_spec("closed 2 1 -10\n"), std::runtime_error);
  EXPECT_THROW(parse_session_spec("session 0 deadline=-1\n"),
               std::runtime_error);
  EXPECT_THROW(parse_session_spec("session 0\nadmission shed -1\n"),
               std::runtime_error);
  EXPECT_THROW(parse_session_spec("session 0\nadmission shed 1 -1\n"),
               std::runtime_error);
  EXPECT_THROW(parse_session_spec("session 0\nadmission deadline -5\n"),
               std::runtime_error);
  // clients x queries must fit the int session count (46341^2 > INT_MAX).
  EXPECT_THROW(parse_session_spec("closed 46341 46341 0\n"),
               std::runtime_error);
  // Malformed key=value tokens must not half-parse.
  EXPECT_THROW(parse_session_spec("session 0 id=3x\n"), std::runtime_error);
  EXPECT_THROW(parse_session_spec("session 0 id\n"), std::runtime_error);
  EXPECT_THROW(parse_session_spec("session 0 frobnicate=1\n"),
               std::runtime_error);
}

TEST(SessionSpec, ConcurrentClientsShape) {
  const SessionSpec spec = SessionSpec::concurrent_clients(4);
  EXPECT_EQ(spec.mode, ArrivalMode::kExplicit);
  ASSERT_EQ(spec.arrivals.size(), 4u);
  for (std::size_t i = 0; i < spec.arrivals.size(); ++i) {
    EXPECT_EQ(spec.arrivals[i].arrival_seconds, 0.0);
    EXPECT_EQ(spec.arrivals[i].id, static_cast<int>(i));
  }
  EXPECT_EQ(spec.admission.policy, AdmissionPolicy::kUnbounded);
  EXPECT_TRUE(spec.validate().empty());
}

TEST(SessionSpec, PoissonShape) {
  const SessionSpec spec = SessionSpec::poisson(50, 12.0);
  EXPECT_EQ(spec.mode, ArrivalMode::kOpenLoop);
  EXPECT_EQ(spec.open_count, 50);
  EXPECT_EQ(spec.open_rate_per_hour, 12.0);
  EXPECT_EQ(spec.total_sessions(), 50);
  EXPECT_TRUE(spec.validate().empty());
}

TEST(SessionSpec, ValidateRejectsBadShapes) {
  SessionSpec spec;  // explicit mode, no arrivals
  EXPECT_FALSE(spec.validate().empty());
  spec.arrivals = {{0.0, 0, 0}, {-1.0, 1, 0}};
  EXPECT_FALSE(spec.validate().empty());
  spec.arrivals = {{0.0, 0, 0}};
  EXPECT_TRUE(spec.validate().empty());
  spec.admission.policy = AdmissionPolicy::kFixedCap;
  spec.admission.max_concurrent = 0;
  EXPECT_FALSE(spec.validate().empty());
}

// ---------------------------------------------------------------------------
// response predictor

TEST(ResponsePredictor, NoBandwidthMeansNoPrediction) {
  const ResponsePredictor pred(1000.0, 10);
  LoadSignals idle;
  EXPECT_FALSE(pred.predict(idle).has_value());
  idle.client_bandwidth = 0.0;  // a zero estimate is no estimate
  EXPECT_FALSE(pred.predict(idle).has_value());
}

TEST(ResponsePredictor, ModelMatchesHandComputation) {
  const ResponsePredictor pred(1000.0, 10);
  // Unloaded: 10 messages * 50 ms + 1000 B / 100 B/s = 10.5 s.
  EXPECT_DOUBLE_EQ(pred.service_seconds(100.0), 10.5);

  LoadSignals idle;
  idle.client_bandwidth = 100.0;
  EXPECT_DOUBLE_EQ(pred.predict(idle).value(), 10.5);

  // One running session and 200 B of backlog: drain 2 s, then share the
  // NIC two ways — 2 + 2 * 10.5 = 23 s.
  LoadSignals loaded;
  loaded.client_bandwidth = 100.0;
  loaded.running = 1;
  loaded.inflight_bytes = 200.0;
  EXPECT_DOUBLE_EQ(pred.predict(loaded).value(), 23.0);
}

// ---------------------------------------------------------------------------
// admission controller

TEST(AdmissionController, UnboundedAdmitsEverything) {
  AdmissionController ctrl(AdmissionParams{}, nullptr);
  for (int id = 0; id < 5; ++id) {
    const AdmissionDecision d = ctrl.request(id);
    EXPECT_EQ(d.outcome, AdmissionOutcome::kAdmit);
    EXPECT_STREQ(d.reason, "unbounded");
  }
  EXPECT_EQ(ctrl.running(), 5);
  EXPECT_EQ(ctrl.queued(), 0);
}

TEST(AdmissionController, FixedCapQueuesFifoBeyondCap) {
  AdmissionParams params;
  params.policy = AdmissionPolicy::kFixedCap;
  params.max_concurrent = 2;
  AdmissionController ctrl(params, nullptr);

  EXPECT_EQ(ctrl.request(0).outcome, AdmissionOutcome::kAdmit);
  EXPECT_EQ(ctrl.request(1).outcome, AdmissionOutcome::kAdmit);
  EXPECT_EQ(ctrl.request(2).outcome, AdmissionOutcome::kDefer);
  EXPECT_EQ(ctrl.request(3).outcome, AdmissionOutcome::kDefer);
  EXPECT_EQ(ctrl.running(), 2);
  EXPECT_EQ(ctrl.queued(), 2);

  // Completions admit the queue in arrival order, one slot at a time.
  EXPECT_EQ(ctrl.on_completed(), (std::vector<int>{2}));
  EXPECT_EQ(ctrl.running(), 2);
  EXPECT_EQ(ctrl.on_completed(), (std::vector<int>{3}));
  EXPECT_EQ(ctrl.queued(), 0);
  EXPECT_EQ(ctrl.on_completed(), (std::vector<int>{}));
  EXPECT_EQ(ctrl.running(), 1);
}

TEST(AdmissionController, SheddingBoundsQueueAndRejectsBeyond) {
  AdmissionParams params;
  params.policy = AdmissionPolicy::kLoadShedding;
  params.max_concurrent = 1;
  params.max_queue = 1;
  AdmissionController ctrl(params, nullptr);

  EXPECT_EQ(ctrl.request(0).outcome, AdmissionOutcome::kAdmit);
  EXPECT_EQ(ctrl.request(1).outcome, AdmissionOutcome::kDefer);
  const AdmissionDecision d = ctrl.request(2);
  EXPECT_EQ(d.outcome, AdmissionOutcome::kShed);
  EXPECT_STREQ(d.reason, "queue-full");
  // The shed session is forgotten: running and queue are unchanged.
  EXPECT_EQ(ctrl.running(), 1);
  EXPECT_EQ(ctrl.queued(), 1);
  // Shedding preserves the FIFO behaviour of the surviving queue.
  EXPECT_EQ(ctrl.on_completed(), (std::vector<int>{1}));
}

TEST(AdmissionController, SheddingCapZeroRejectsEverySession) {
  AdmissionParams params;
  params.policy = AdmissionPolicy::kLoadShedding;
  params.max_concurrent = 0;
  params.max_queue = 0;
  AdmissionController ctrl(params, nullptr);
  for (int id = 0; id < 4; ++id) {
    EXPECT_EQ(ctrl.request(id).outcome, AdmissionOutcome::kShed);
  }
  EXPECT_EQ(ctrl.running(), 0);
  EXPECT_EQ(ctrl.queued(), 0);
}

TEST(AdmissionController, DeadlinePolicyShedsPredictedMisses) {
  AdmissionParams params;
  params.policy = AdmissionPolicy::kDeadlineAware;
  params.deadline_seconds = 15.0;
  const ResponsePredictor pred(1000.0, 10);  // 10.5 s unloaded at bw 100
  LoadSignals signals;
  signals.client_bandwidth = 100.0;
  AdmissionController ctrl(params, [&] { return signals; }, &pred);

  // Idle: predicted 10.5 s fits the 15 s deadline.
  const AdmissionDecision first = ctrl.request(0);
  EXPECT_EQ(first.outcome, AdmissionOutcome::kAdmit);
  EXPECT_STREQ(first.reason, "predicted-fit");
  EXPECT_DOUBLE_EQ(first.predicted_response_seconds, 10.5);

  // One session running: predicted 21 s misses 15 s — shed, with the
  // prediction attached as evidence.
  const AdmissionDecision second = ctrl.request(1);
  EXPECT_EQ(second.outcome, AdmissionOutcome::kShed);
  EXPECT_STREQ(second.reason, "predicted-miss");
  EXPECT_DOUBLE_EQ(second.predicted_response_seconds, 21.0);
  EXPECT_EQ(ctrl.running(), 1);

  // A per-session deadline overrides the default: 21 s fits 30 s.
  EXPECT_EQ(ctrl.request(2, 30.0).outcome, AdmissionOutcome::kAdmit);

  // No bandwidth estimate while sessions run: admitting blind on top of
  // existing load is the cold-start pileup — shed.
  signals.client_bandwidth.reset();
  const AdmissionDecision blind = ctrl.request(3);
  EXPECT_EQ(blind.outcome, AdmissionOutcome::kShed);
  EXPECT_STREQ(blind.reason, "no-estimate-busy");

  // No estimate and nothing running: an idle system admits (the session's
  // own traffic warms the bandwidth cache).
  ctrl.on_completed();
  ctrl.on_completed();
  EXPECT_EQ(ctrl.running(), 0);
  const AdmissionDecision idle = ctrl.request(4);
  EXPECT_EQ(idle.outcome, AdmissionOutcome::kAdmit);
  EXPECT_STREQ(idle.reason, "no-estimate");
}

TEST(AdmissionController, DeadlinePolicyWithoutDeadlineAdmits) {
  AdmissionParams params;
  params.policy = AdmissionPolicy::kDeadlineAware;
  params.deadline_seconds = 0;  // no default deadline
  const ResponsePredictor pred(1000.0, 10);
  LoadSignals signals;
  signals.client_bandwidth = 1.0;  // hopeless bandwidth, but no deadline
  AdmissionController ctrl(params, [&] { return signals; }, &pred);
  const AdmissionDecision d = ctrl.request(0);
  EXPECT_EQ(d.outcome, AdmissionOutcome::kAdmit);
  EXPECT_STREQ(d.reason, "no-deadline");
}

// ---------------------------------------------------------------------------
// aggregate metrics

SessionRecord make_record(int id, double arrival, double admit, double end,
                          int images) {
  SessionRecord r;
  r.id = id;
  r.spec_id = id;
  r.arrival_seconds = arrival;
  r.admit_seconds = admit;
  r.end_seconds = end;
  r.completed = true;
  r.images = images;
  return r;
}

SessionRecord make_shed_record(int id, double arrival) {
  SessionRecord r;
  r.id = id;
  r.spec_id = id;
  r.arrival_seconds = arrival;
  r.admit_seconds = arrival;
  r.end_seconds = arrival;
  r.shed = true;
  return r;
}

TEST(SessionStats, AggregatesMatchHandComputation) {
  SessionStats stats;
  // Throughputs 1.0 and 0.5 images/s: Jain = (1.5)^2 / (2 * 1.25) = 0.9.
  stats.add(make_record(0, 0, 0, 10, 10));
  stats.add(make_record(1, 0, 5, 20, 10));

  EXPECT_EQ(stats.total_count(), 2);
  EXPECT_EQ(stats.completed_count(), 2);
  EXPECT_EQ(stats.admitted_count(), 2);
  EXPECT_EQ(stats.shed_count(), 0);
  EXPECT_DOUBLE_EQ(stats.makespan_seconds(), 20.0);
  EXPECT_DOUBLE_EQ(stats.mean_response_seconds(), 15.0);
  EXPECT_DOUBLE_EQ(stats.mean_queue_seconds(), 2.5);
  EXPECT_DOUBLE_EQ(stats.max_queue_seconds(), 5.0);
  EXPECT_DOUBLE_EQ(stats.jain_fairness(), 0.9);
  EXPECT_DOUBLE_EQ(stats.aggregate_throughput(), 1.0);
  EXPECT_DOUBLE_EQ(stats.goodput_per_hour(), 2.0 * 3600.0 / 20.0);
}

TEST(SessionStats, EqualServiceIsPerfectlyFair) {
  SessionStats stats;
  for (int i = 0; i < 4; ++i) stats.add(make_record(i, 0, 0, 10, 5));
  EXPECT_DOUBLE_EQ(stats.jain_fairness(), 1.0);
}

TEST(SessionStats, ShedSessionsAreExcludedFromResponseAndFairness) {
  SessionStats stats;
  stats.add(make_record(0, 0, 0, 10, 10));
  stats.add(make_record(1, 0, 5, 20, 10));
  stats.add(make_shed_record(2, 1.0));

  EXPECT_EQ(stats.total_count(), 3);
  EXPECT_EQ(stats.admitted_count(), 2);
  EXPECT_EQ(stats.shed_count(), 1);
  EXPECT_DOUBLE_EQ(stats.shed_fraction(), 1.0 / 3.0);
  // The rejected session contributes neither response time, nor queue
  // time, nor a zero-throughput term to the fairness index: the aggregates
  // describe the sessions the service accepted.
  EXPECT_DOUBLE_EQ(stats.mean_response_seconds(), 15.0);
  EXPECT_DOUBLE_EQ(stats.mean_queue_seconds(), 2.5);
  EXPECT_DOUBLE_EQ(stats.jain_fairness(), 0.9);
}

TEST(SessionStats, OutcomeTalliesFold) {
  SessionStats stats;
  SessionRecord deferred = make_record(0, 0, 30, 100, 8);
  deferred.deferred = true;
  stats.add(deferred);
  stats.add(make_record(1, 0, 0, 80, 8));
  stats.add(make_shed_record(2, 0));
  EXPECT_EQ(stats.deferred_count(), 1);
  EXPECT_EQ(stats.shed_count(), 1);
  EXPECT_EQ(stats.admitted_count(), 2);
  EXPECT_EQ(stats.completed_count(), 2);
}

TEST(SessionStats, EmptyStatsAreWellDefined) {
  const SessionStats stats;
  EXPECT_EQ(stats.completed_count(), 0);
  EXPECT_EQ(stats.mean_response_seconds(), 0.0);
  EXPECT_EQ(stats.jain_fairness(), 1.0);
  EXPECT_EQ(stats.aggregate_throughput(), 0.0);
  EXPECT_EQ(stats.shed_fraction(), 0.0);
  EXPECT_EQ(stats.goodput_per_hour(), 0.0);
}

// ---------------------------------------------------------------------------
// end-to-end session experiments

exp::ExperimentSpec small_experiment(core::AlgorithmKind algorithm) {
  exp::ExperimentSpec spec;
  spec.algorithm = algorithm;
  spec.num_servers = 3;
  spec.iterations = 8;
  spec.config_seed = 11;
  return spec;
}

TEST(RunSessionExperiment, DeterministicInSeed) {
  const auto spec = small_experiment(core::AlgorithmKind::kOneShot);
  const auto sessions = SessionSpec::concurrent_clients(3);
  const SessionStats a =
      exp::run_session_experiment(shared_library(), spec, sessions);
  const SessionStats b =
      exp::run_session_experiment(shared_library(), spec, sessions);
  ASSERT_EQ(a.sessions().size(), b.sessions().size());
  for (std::size_t i = 0; i < a.sessions().size(); ++i) {
    EXPECT_EQ(a.sessions()[i].end_seconds, b.sessions()[i].end_seconds);
    EXPECT_EQ(a.sessions()[i].images, b.sessions()[i].images);
  }
  EXPECT_EQ(a.makespan_seconds(), b.makespan_seconds());
}

TEST(RunSessionExperiment, ContentionSlowsConcurrentSessions) {
  const auto spec = small_experiment(core::AlgorithmKind::kDownloadAll);
  const SessionStats solo = exp::run_session_experiment(
      shared_library(), spec, SessionSpec::concurrent_clients(1));
  const SessionStats crowd = exp::run_session_experiment(
      shared_library(), spec, SessionSpec::concurrent_clients(4));
  ASSERT_EQ(solo.completed_count(), 1);
  ASSERT_EQ(crowd.completed_count(), 4);
  // Four sessions share the client NIC and the wide-area links; each must
  // take longer than the session that had the network to itself.
  EXPECT_GT(crowd.mean_response_seconds(), solo.mean_response_seconds());
}

TEST(RunSessionExperiment, FixedCapBoundsConcurrencyAndQueues) {
  const auto spec = small_experiment(core::AlgorithmKind::kOneShot);
  SessionSpec sessions = SessionSpec::concurrent_clients(3);
  sessions.admission.policy = AdmissionPolicy::kFixedCap;
  sessions.admission.max_concurrent = 1;
  const SessionStats stats =
      exp::run_session_experiment(shared_library(), spec, sessions);
  ASSERT_EQ(stats.completed_count(), 3);
  EXPECT_EQ(stats.deferred_count(), 2);
  // Cap 1 serialises the sessions: each admission waits for the previous
  // session to finish, so the runs must not overlap.
  EXPECT_GT(stats.max_queue_seconds(), 0.0);
  for (std::size_t i = 1; i < stats.sessions().size(); ++i) {
    EXPECT_GE(stats.sessions()[i].admit_seconds,
              stats.sessions()[i - 1].end_seconds);
  }
}

TEST(RunSessionExperiment, SheddingRejectsBeyondCapAndQueue) {
  const auto spec = small_experiment(core::AlgorithmKind::kOneShot);
  SessionSpec sessions = SessionSpec::concurrent_clients(4);
  sessions.admission.policy = AdmissionPolicy::kLoadShedding;
  sessions.admission.max_concurrent = 1;
  sessions.admission.max_queue = 1;
  const SessionStats stats =
      exp::run_session_experiment(shared_library(), spec, sessions);
  ASSERT_EQ(stats.total_count(), 4);
  EXPECT_EQ(stats.completed_count(), 2);  // one admitted + one queued
  EXPECT_EQ(stats.shed_count(), 2);
  EXPECT_DOUBLE_EQ(stats.shed_fraction(), 0.5);
  // The surviving queue keeps FIFO cap-1 semantics: the deferred session
  // starts only after the first one ends.
  const SessionRecord& first = stats.sessions()[0];
  const SessionRecord& second = stats.sessions()[1];
  EXPECT_FALSE(first.shed);
  EXPECT_TRUE(second.deferred);
  EXPECT_GE(second.admit_seconds, first.end_seconds);
  // Shed sessions are rejected at arrival time, never run, deliver nothing.
  for (const SessionRecord& r : stats.sessions()) {
    if (!r.shed) continue;
    EXPECT_EQ(r.end_seconds, r.arrival_seconds);
    EXPECT_EQ(r.images, 0);
    EXPECT_FALSE(r.completed);
  }
}

TEST(RunSessionExperiment, ShedCapZeroRejectsEveryArrival) {
  const auto spec = small_experiment(core::AlgorithmKind::kOneShot);
  SessionSpec sessions = SessionSpec::concurrent_clients(3);
  sessions.admission.policy = AdmissionPolicy::kLoadShedding;
  sessions.admission.max_concurrent = 0;
  const SessionStats stats =
      exp::run_session_experiment(shared_library(), spec, sessions);
  EXPECT_EQ(stats.total_count(), 3);
  EXPECT_EQ(stats.completed_count(), 0);
  EXPECT_EQ(stats.shed_count(), 3);
  EXPECT_DOUBLE_EQ(stats.shed_fraction(), 1.0);
  // Nothing ran: the aggregates stay at their well-defined empty values.
  EXPECT_DOUBLE_EQ(stats.makespan_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(stats.goodput_per_hour(), 0.0);
  EXPECT_DOUBLE_EQ(stats.jain_fairness(), 1.0);
}

TEST(RunSessionExperiment, ClosedLoopRespectsThinkTime) {
  const auto spec = small_experiment(core::AlgorithmKind::kOneShot);
  SessionSpec sessions;
  sessions.mode = ArrivalMode::kClosedLoop;
  sessions.clients = 2;
  sessions.queries_per_client = 2;
  sessions.think_seconds = 120.0;
  const SessionStats stats =
      exp::run_session_experiment(shared_library(), spec, sessions);
  ASSERT_EQ(stats.completed_count(), 4);
  // Each client's second query arrives one think time after its first one
  // completed.
  for (int client = 0; client < 2; ++client) {
    const SessionRecord* first = nullptr;
    const SessionRecord* second = nullptr;
    for (const SessionRecord& r : stats.sessions()) {
      if (r.client != client) continue;
      if (!first) {
        first = &r;
      } else {
        second = &r;
      }
    }
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    EXPECT_DOUBLE_EQ(second->arrival_seconds,
                     first->end_seconds + sessions.think_seconds);
  }
}

}  // namespace
}  // namespace wadc::session
