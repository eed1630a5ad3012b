#include "dataflow/change_over.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "common/assert.h"
#include "core/bandwidth_resolver.h"
#include "core/local_rule.h"
#include "dataflow/adaptation_policy.h"

namespace wadc::dataflow {

namespace {

// The client will not initiate a change-over with fewer than (twice the
// tree depth + this) iterations left, so barriers always complete.
constexpr int kBarrierGuardIterations = 4;

}  // namespace

ChangeOverCoordinator::ChangeOverCoordinator(sim::Simulation& sim,
                                             EngineServices& services,
                                             const core::CombinationTree& tree,
                                             const obs::Obs& obs,
                                             RunStats& stats,
                                             PolicyTraits traits)
    : sim_(sim),
      services_(services),
      tree_(tree),
      stats_(stats),
      traits_(traits),
      obs_(obs) {
  actual_location_.assign(static_cast<std::size_t>(tree.num_operators()),
                          tree.client_host());
  op_state_.resize(static_cast<std::size_t>(tree.num_operators()));
  release_.resize(static_cast<std::size_t>(tree.num_hosts()));
  for (auto& rs : release_) rs.event = std::make_unique<sim::Event>(sim_);
  client_control_ = std::make_unique<sim::Mailbox<BarrierReport>>(sim_);
  epochs_.push_back(
      PlanEpoch{0, tree, core::Placement::all_at_client(tree)});

  if (obs_.metrics) {
    relocations_counter_ = &obs_.metrics->counter("engine.relocations");
    replans_counter_ = &obs_.metrics->counter("engine.replans");
    barriers_initiated_counter_ =
        &obs_.metrics->counter("engine.barriers_initiated");
    barriers_completed_counter_ =
        &obs_.metrics->counter("engine.barriers_completed");
    barrier_round_seconds_ = &obs_.metrics->histogram(
        "engine.barrier_round_seconds", obs::exponential_buckets(0.1, 2, 12));
  }
}

// ---------------------------------------------------------------------------
// plan epochs & locations

const ChangeOverCoordinator::PlanEpoch& ChangeOverCoordinator::epoch_for(
    int iteration) const {
  WADC_ASSERT(!epochs_.empty(), "no plan installed");
  const PlanEpoch* best = &epochs_.front();
  for (const PlanEpoch& epoch : epochs_) {
    if (epoch.start_iteration <= iteration) best = &epoch;
  }
  return *best;
}

void ChangeOverCoordinator::install_startup_plan(core::CombinationTree tree,
                                                 core::Placement placement) {
  epochs_.clear();
  epochs_.push_back(PlanEpoch{0, std::move(tree), std::move(placement)});
}

net::HostId ChangeOverCoordinator::operator_location(
    core::OperatorId op) const {
  WADC_ASSERT(op >= 0 &&
                  static_cast<std::size_t>(op) < actual_location_.size(),
              "operator id out of range");
  return actual_location_[static_cast<std::size_t>(op)];
}

void ChangeOverCoordinator::set_location(core::OperatorId op,
                                         net::HostId loc) {
  WADC_ASSERT(op >= 0 &&
                  static_cast<std::size_t>(op) < actual_location_.size(),
              "operator id out of range");
  actual_location_[static_cast<std::size_t>(op)] = loc;
}

ChangeOverCoordinator::BarrierOpState& ChangeOverCoordinator::op_barrier(
    core::OperatorId op) {
  WADC_ASSERT(op >= 0 && static_cast<std::size_t>(op) < op_state_.size(),
              "operator id out of range");
  return op_state_[static_cast<std::size_t>(op)];
}

ChangeOverCoordinator::ReleaseState& ChangeOverCoordinator::release_state(
    net::HostId h) {
  WADC_ASSERT(h >= 0 && static_cast<std::size_t>(h) < release_.size(),
              "host id out of range");
  return release_[static_cast<std::size_t>(h)];
}

// ---------------------------------------------------------------------------
// barrier protocol state

void ChangeOverCoordinator::note_pending_version(core::OperatorId op,
                                                 int version) {
  BarrierOpState& st = op_barrier(op);
  if (version > st.pending_version_seen) st.pending_version_seen = version;
}

void ChangeOverCoordinator::note_version_forwarded(core::OperatorId op,
                                                   int version) {
  BarrierOpState& st = op_barrier(op);
  st.pending_version_forwarded =
      std::max(st.pending_version_forwarded, version);
}

void ChangeOverCoordinator::note_fetch(core::OperatorId op, int iteration) {
  op_barrier(op).next_fetch_iteration = iteration;
}

int ChangeOverCoordinator::pending_version_seen(core::OperatorId op) const {
  return op_state_[static_cast<std::size_t>(op)].pending_version_seen;
}

int ChangeOverCoordinator::pending_version() const {
  return active_barrier_ ? active_barrier_->version : 0;
}

void ChangeOverCoordinator::deliver_report(const BarrierReport& report) {
  client_control_->send(report);
}

sim::Task<void> ChangeOverCoordinator::await_release(net::HostId h,
                                                     int version) {
  ReleaseState& rs = release_state(h);
  while (rs.released_version < version) {
    co_await rs.event->wait();
  }
}

// ---------------------------------------------------------------------------
// replanning & change-over

sim::Task<void> ChangeOverCoordinator::replanner_process(
    AdaptationPolicy& policy) {
  const int n = services_.total_iterations();
  // A change-over needs every server to see the pending version on a
  // future demand; the wave takes up to one tree depth of iterations to
  // propagate while servers advance by up to another depth. Stop planning
  // once the most-advanced server is too close to the end.
  const auto too_late = [this, n] {
    const int depth_now = epochs_.back().tree.depth();
    return services_.max_server_iteration() + 2 * depth_now +
               kBarrierGuardIterations >=
           n;
  };
  for (;;) {
    co_await sim_.delay(services_.params().relocation_period_seconds);
    if (services_.finished()) co_return;
    if (active_barrier_) continue;  // previous change-over still in flight
    if (too_late()) co_return;

    const sim::SimTime replan_begin = sim_.now();
    ReplanDecision decision = co_await policy.replan(services_);
    ++stats_.replans;
    if (replans_counter_) replans_counter_->add();
    if (obs_.tracer) {
      obs_.tracer->complete(
          "plan", "replan", tree_.client_host(), obs::kControlLane,
          replan_begin, sim_.now(),
          {{"changed", decision.changed ? 1 : 0},
           {"client_iteration", services_.client_next_iteration()}});
    }
    if (obs_.decisions) {
      obs_.decisions->record(
          sim_.now(), "plan",
          decision.changed ? "replan_changed" : "replan_unchanged",
          services_.params().session_id,
          {{"client_iteration", services_.client_next_iteration()},
           {"plan_s", sim_.now() - replan_begin}});
    }
    if (services_.finished()) co_return;
    if (services_.faults_active()) {
      // The plan was computed from possibly-stale knowledge; never adopt a
      // placement that targets a currently-dead host.
      sanitize_placement(decision.placement);
      decision.changed =
          decision.changed || !(decision.placement == epochs_.back().placement);
    }
    if (!decision.changed) continue;
    if (active_barrier_) continue;
    if (too_late()) co_return;  // probing took time; re-check

    Barrier b;
    b.version = next_version_++;
    b.new_tree = std::move(decision.tree);
    b.new_placement = std::move(decision.placement);
    b.initiated_at = sim_.now();
    active_barrier_ = std::move(b);
    ++stats_.barriers_initiated;
    if (barriers_initiated_counter_) barriers_initiated_counter_->add();
    if (obs_.tracer) {
      obs_.tracer->instant("barrier", "barrier_initiated",
                           tree_.client_host(), obs::kControlLane, sim_.now(),
                           {{"version", active_barrier_->version}});
    }
    if (obs_.decisions) {
      obs_.decisions->record(sim_.now(), "barrier", "initiated",
                             services_.params().session_id,
                             {{"version", active_barrier_->version}});
    }
    sim_.spawn(barrier_coordinator(active_barrier_->version));
  }
}

sim::Task<void> ChangeOverCoordinator::barrier_coordinator(int version) {
  // Gather one report per server (§2.2).
  const sim::SimTime collect_begin = sim_.now();
  int reports = 0;
  int max_reported = 0;
  const int servers = tree_.num_servers();
  while (reports < servers) {
    BarrierReport r = co_await client_control_->receive();
    if (r.version != version) continue;  // stale duplicate
    ++reports;
    max_reported = std::max(max_reported, r.iteration);
    if (obs_.tracer) {
      obs_.tracer->instant("barrier", "barrier_report", tree_.client_host(),
                           obs::kControlLane, sim_.now(),
                           {{"version", version},
                            {"server", r.server},
                            {"iteration", r.iteration}});
    }
  }
  if (obs_.tracer) {
    obs_.tracer->complete("barrier", "barrier_collect", tree_.client_host(),
                          obs::kControlLane, collect_begin, sim_.now(),
                          {{"version", version}, {"reports", reports}});
  }

  // Switch strictly after every partition in flight: atomic change-over.
  const int switch_iteration = max_reported + 1;
  WADC_ASSERT(active_barrier_ && active_barrier_->version == version,
              "barrier vanished mid-coordination");
  active_barrier_->switch_iteration = switch_iteration;
  epochs_.push_back(PlanEpoch{switch_iteration, active_barrier_->new_tree,
                              active_barrier_->new_placement});
  if (obs_.decisions) {
    obs_.decisions->record(sim_.now(), "barrier", "switch_scheduled",
                           services_.params().session_id,
                           {{"version", version},
                            {"switch_iteration", switch_iteration},
                            {"collect_s", sim_.now() - collect_begin}});
  }
  for (core::OperatorId op = 0; op < tree_.num_operators(); ++op) {
    WADC_ASSERT(op_barrier(op).next_fetch_iteration < switch_iteration,
                "operator fetched past the change-over point");
  }

  // Broadcast the release — high-priority barrier messages (§2.2). The
  // client host releases locally: operators co-located with the client wait
  // on the same per-host event.
  const sim::SimTime broadcast_begin = sim_.now();
  {
    ReleaseState& rs = release_state(tree_.client_host());
    rs.released_version = version;
    rs.event->trigger();
  }
  if (services_.faults_active()) {
    // One independent release task per host: a dead host retries in the
    // background without stalling the releases of live ones.
    for (net::HostId h = 1; h < tree_.num_hosts(); ++h) {
      sim_.spawn(release_host(h, version));
    }
  } else {
    for (net::HostId h = 1; h < tree_.num_hosts(); ++h) {
      co_await services_.hop(tree_.client_host(), h, kControlBytes,
                             services_.params().control_priority);
      ReleaseState& rs = release_state(h);
      rs.released_version = version;
      rs.event->trigger();
    }
  }
  if (obs_.tracer) {
    obs_.tracer->complete("barrier", "barrier_broadcast", tree_.client_host(),
                          obs::kControlLane, broadcast_begin, sim_.now(),
                          {{"version", version},
                           {"switch_iteration", switch_iteration}});
  }

  if (active_barrier_ && active_barrier_->version == version) {
    active_barrier_->broadcast_done = true;
    if (active_barrier_->moves_applied == tree_.num_operators()) {
      complete_barrier();
    }
  }
}

sim::Task<void> ChangeOverCoordinator::release_host(net::HostId h,
                                                    int version) {
  int round = 0;
  while (!co_await services_.hop(tree_.client_host(), h, kControlBytes,
                                 services_.params().control_priority)) {
    if (services_.stopping()) co_return;
    co_await sim_.delay(services_.retry_backoff(round++));
  }
  ReleaseState& rs = release_state(h);
  if (version > rs.released_version) {
    rs.released_version = version;
    rs.event->trigger();
  }
}

sim::Task<void> ChangeOverCoordinator::operator_window(core::OperatorId op,
                                                       int iteration) {
  BarrierOpState& st = op_barrier(op);
  // If we have already propagated a pending placement toward the servers,
  // do not fetch further until the switch iteration is known: this closes
  // the race between the release broadcast and resumed data flow.
  const sim::SimTime stall_begin = sim_.now();
  while (active_barrier_ &&
         st.pending_version_forwarded >= active_barrier_->version &&
         release_state(actual_location_[static_cast<std::size_t>(op)])
                 .released_version < active_barrier_->version) {
    co_await release_state(actual_location_[static_cast<std::size_t>(op)])
        .event->wait();
  }
  if (obs_.tracer && sim_.now() > stall_begin) {
    // The operator sat out the change-over waiting for the release
    // broadcast — dead time the barrier design charges this host.
    obs_.tracer->complete(
        "barrier", "barrier_stall",
        actual_location_[static_cast<std::size_t>(op)],
        obs::operator_lane(op), stall_begin, sim_.now(), {{"op", op}});
  }

  if (active_barrier_ && active_barrier_->switch_iteration &&
      active_barrier_->version > st.moved_for_version &&
      iteration + 1 >= *active_barrier_->switch_iteration) {
    const int version = active_barrier_->version;
    st.moved_for_version = version;
    const net::HostId target = active_barrier_->new_placement.location(op);
    if (target != actual_location_[static_cast<std::size_t>(op)]) {
      co_await relocate(op, target);
    }
    // Retire the barrier once every operator has applied it.
    if (active_barrier_ && active_barrier_->version == version) {
      if (++active_barrier_->moves_applied == tree_.num_operators() &&
          active_barrier_->broadcast_done) {
        complete_barrier();
      }
    }
  }
}

void ChangeOverCoordinator::complete_barrier() {
  WADC_ASSERT(active_barrier_, "no barrier to complete");
  const sim::SimTime round = sim_.now() - active_barrier_->initiated_at;
  const int version = active_barrier_->version;
  active_barrier_.reset();
  ++stats_.barriers_completed;
  if (barriers_completed_counter_) barriers_completed_counter_->add();
  if (barrier_round_seconds_) barrier_round_seconds_->observe(round);
  if (obs_.tracer) {
    obs_.tracer->instant("barrier", "barrier_complete", tree_.client_host(),
                         obs::kControlLane, sim_.now(),
                         {{"version", version}, {"round_s", round}});
  }
  if (obs_.decisions) {
    obs_.decisions->record(sim_.now(), "barrier", "complete",
                           services_.params().session_id,
                           {{"version", version}, {"round_s", round}});
  }
}

// ---------------------------------------------------------------------------
// relocation & repair

sim::Task<void> ChangeOverCoordinator::relocate(core::OperatorId op,
                                                net::HostId to) {
  const net::HostId from = actual_location_[static_cast<std::size_t>(op)];
  if (services_.faults_active() && from == to) {
    co_return;  // repaired to target already
  }
  WADC_ASSERT(from != to, "relocating operator to its current host");
  const sim::SimTime begin = sim_.now();
  // Light-move: the operator holds no output in this window, so its state
  // is one small control message.
  if (!co_await services_.hop(from, to, kOperatorMoveBytes,
                              services_.params().control_priority)) {
    co_return;  // fault mode only: the move failed; stay put
  }
  if (services_.faults_active() &&
      actual_location_[static_cast<std::size_t>(op)] != from) {
    co_return;  // a repair relocated the operator while the move was in flight
  }
  actual_location_[static_cast<std::size_t>(op)] = to;
  if (obs_.tracer) {
    obs_.tracer->complete("engine", "light_move", from,
                          obs::operator_lane(op), begin, sim_.now(),
                          {{"op", op}, {"from", from}, {"to", to}});
    obs_.tracer->instant("engine", "relocated", to, obs::operator_lane(op),
                         sim_.now(), {{"op", op}, {"from", from}});
  }
  if (relocations_counter_) relocations_counter_->add();
  if (obs_.decisions) {
    obs_.decisions->record(sim_.now(), "relocation", "relocate",
                           services_.params().session_id,
                           {{"op", op},
                            {"from", from},
                            {"to", to},
                            {"move_s", sim_.now() - begin}});
  }
  if (traits_.uses_directory) {
    // §2.3: "the original site updates the corresponding entry in the
    // location vector and increments ... the timestamp vector."
    core::OperatorDirectory& origin = services_.directory(from);
    origin.record_move(op, to);
    services_.directory(to).apply_entry(op, to, origin.timestamp(op));
  }
  ++stats_.relocations;
  stats_.relocation_trace.push_back(
      RelocationEvent{sim_.now(), op, from, to});
}

net::HostId ChangeOverCoordinator::choose_repair_host(core::OperatorId op) {
  const net::HostId client = tree_.client_host();
  const core::CombinationTree& t = epochs_.back().tree;
  const auto site = [&](const core::Child& c) {
    return c.is_server() ? tree_.server_host(c.index)
                         : actual_location_[static_cast<std::size_t>(c.index)];
  };
  const net::HostId p0 = site(t.left_child(op));
  const net::HostId p1 = site(t.right_child(op));
  const core::OperatorId parent = t.parent(op);
  const net::HostId consumer =
      parent == core::kNoOperator
          ? client
          : actual_location_[static_cast<std::size_t>(parent)];

  // Score every live host with the local-rule cost using the client's cache
  // (repair is coordinated at the client). Hosts whose links are unmeasured
  // are skipped; if nothing live is scorable the operator degrades to the
  // client — with every operator there, the run is effectively
  // download-all, which needs no cooperation from anyone but the servers.
  core::CacheResolver resolver(services_.bandwidth_cache(client), sim_.now(),
                               sim_.now());
  const core::LocalRule rule(services_.cost_model());
  net::HostId best = client;
  double best_cost = std::numeric_limits<double>::infinity();
  for (net::HostId h = 0; h < tree_.num_hosts(); ++h) {
    if (!services_.host_alive(h)) continue;
    std::set<core::HostPair> unknown;
    const double cost = rule.local_cost(h, p0, p1, consumer, resolver,
                                        &unknown);
    if (!unknown.empty()) continue;
    if (cost < best_cost) {
      best_cost = cost;
      best = h;
    }
  }
  return best;
}

void ChangeOverCoordinator::apply_repair_move(core::OperatorId op,
                                              net::HostId to) {
  const net::HostId from = actual_location_[static_cast<std::size_t>(op)];
  actual_location_[static_cast<std::size_t>(op)] = to;
  ++stats_.relocations;
  ++stats_.failure_summary.repair_relocations;
  if (relocations_counter_) relocations_counter_->add();
  stats_.relocation_trace.push_back(RelocationEvent{sim_.now(), op, from, to});
  if (obs_.tracer) {
    obs_.tracer->instant("engine", "repair_relocated", to,
                         obs::operator_lane(op), sim_.now(),
                         {{"op", op}, {"from", from}});
  }
  if (obs_.decisions) {
    obs_.decisions->record(sim_.now(), "repair", "relocate",
                           services_.params().session_id,
                           {{"op", op}, {"from", from}, {"to", to}});
  }
  if (traits_.uses_directory) {
    // The dead origin cannot gossip its own move; the client records it on
    // the origin's behalf so directories converge on the repair location.
    core::OperatorDirectory& cdir = services_.directory(tree_.client_host());
    cdir.record_move(op, to);
    services_.directory(to).apply_entry(op, to, cdir.timestamp(op));
  } else {
    // Placement-based routing is authoritative for the global family:
    // patch every epoch (and any pending barrier placement) that still
    // maps the operator to the dead host.
    for (auto& epoch : epochs_) {
      if (epoch.placement.location(op) == from) {
        epoch.placement.set_location(op, to);
      }
    }
    if (active_barrier_ && active_barrier_->new_placement.location(op) == from) {
      active_barrier_->new_placement.set_location(op, to);
    }
  }
  // Anything parked on the dead host's release event (barrier stall loops
  // re-check their condition on wake) must notice the operator has moved.
  release_state(from).event->trigger();
}

sim::Task<void> ChangeOverCoordinator::repair_process() {
  const sim::SimTime began = sim_.now();
  ++stats_.failure_summary.recovery_replans;
  if (obs_.metrics) {
    if (!recovery_replans_counter_) {
      recovery_replans_counter_ =
          &obs_.metrics->counter("engine.recovery_replans");
    }
    recovery_replans_counter_->add();
  }
  if (obs_.tracer) {
    obs_.tracer->instant("engine", "recovery_replan", tree_.client_host(),
                         obs::kControlLane, sim_.now(), {});
  }
  if (obs_.decisions) {
    obs_.decisions->record(sim_.now(), "repair", "recovery_replan",
                           services_.params().session_id, {});
  }
  // Repair until no operator sits on a dead host (more hosts may die while
  // we work; the sweep restarts until the placement is clean).
  for (;;) {
    if (services_.stopping()) break;
    core::OperatorId stranded = core::kNoOperator;
    for (core::OperatorId op = 0; op < tree_.num_operators(); ++op) {
      if (!services_.host_alive(
              actual_location_[static_cast<std::size_t>(op)])) {
        stranded = op;
        break;
      }
    }
    if (stranded == core::kNoOperator) break;
    const net::HostId to = choose_repair_host(stranded);
    // The move is a re-install from the client's code repository (§3): the
    // dead host cannot ship state, and the light-move window guarantees the
    // operator holds no output. Free when the target is the client itself.
    co_await services_.hop(tree_.client_host(), to, kOperatorMoveBytes,
                           services_.params().control_priority);
    if (services_.stopping()) break;
    if (!services_.host_alive(
            actual_location_[static_cast<std::size_t>(stranded)])) {
      apply_repair_move(stranded, services_.host_alive(to)
                                      ? to
                                      : tree_.client_host());
    }
  }
  stats_.failure_summary.recovery_seconds_total += sim_.now() - began;
  repair_in_progress_ = false;
}

void ChangeOverCoordinator::sanitize_placement(
    core::Placement& placement) const {
  for (core::OperatorId op = 0; op < tree_.num_operators(); ++op) {
    if (!services_.host_alive(placement.location(op))) {
      placement.set_location(op, tree_.client_host());
    }
  }
}

}  // namespace wadc::dataflow
