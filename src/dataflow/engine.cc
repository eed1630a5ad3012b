#include "dataflow/engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/assert.h"
#include "dataflow/engine_awaiters.h"

namespace wadc::dataflow {

namespace {

core::CostModelParams cost_params_from(const workload::WorkloadParams& wp,
                                       const net::NetworkParams& np) {
  core::CostModelParams cp;
  cp.startup_seconds = np.startup_seconds;
  cp.partition_bytes = wp.mean_bytes;
  cp.compute_seconds_per_byte = wp.compute_seconds_per_byte;
  cp.disk_bytes_per_second = wp.disk_bytes_per_second;
  return cp;
}

// The image the whole tree should deliver for one iteration; used to verify
// that relocation never corrupts the dataflow.
workload::ImageSpec expected_output(const core::CombinationTree& tree,
                                    const workload::ImageWorkload& wl,
                                    const core::Child& c, int iteration) {
  if (c.is_server()) return wl.image(c.index, iteration);
  const auto l = expected_output(tree, wl, tree.left_child(c.index), iteration);
  const auto r =
      expected_output(tree, wl, tree.right_child(c.index), iteration);
  return workload::compose(l, r);
}

static_assert(net::kControlPriority == 10,
              "EngineParams::control_priority default must match");

// Base timeout for one transfer attempt under faults. The engine adds the
// message's worst-case transmission time at the cost model's pessimistic
// bandwidth, so an in-flight transfer on a live slow link never times out
// spuriously.
constexpr double kTransferTimeoutSeconds = 120;
// Retries per hop after the first attempt. Exhausting them surfaces the
// failure to the caller, which re-resolves the destination (the operator
// may have been repaired elsewhere) and tries again.
constexpr int kMaxTransferRetries = 5;
// Backoff between retry attempts: min(base * 2^attempt, max), with
// deterministic seeded jitter in [0.75, 1.25).
constexpr double kRetryBackoffBaseSeconds = 2;
constexpr double kRetryBackoffMaxSeconds = 60;
// Hard wall for fault-tolerant runs: if the computation has not finished
// by this simulated time, run() returns completed=false with a populated
// failure_summary instead of spinning forever.
constexpr double kRunDeadlineSeconds = 14 * 86400.0;

// The engine's hop retry discipline. Fault-free runs carry no deadline (a
// transfer can only complete); fault-tolerant runs use the base timeout
// plus the worst-case transmission time at the cost model's pessimistic
// bandwidth.
net::RetryPolicy hop_retry_policy(const EngineParams& params,
                                  const core::CostModel& cost_model) {
  net::RetryPolicy policy;
  if (params.fault_injector != nullptr) {
    policy.timeout_base_seconds = kTransferTimeoutSeconds;
    policy.timeout_pessimistic_bandwidth =
        cost_model.params().pessimistic_bandwidth;
  }
  policy.max_retries = kMaxTransferRetries;
  policy.backoff_base_seconds = kRetryBackoffBaseSeconds;
  policy.backoff_max_seconds = kRetryBackoffMaxSeconds;
  return policy;
}

}  // namespace

Engine::Engine(sim::Simulation& sim, net::Network& network,
               monitor::MonitoringSystem& monitoring,
               const core::CombinationTree& tree,
               const workload::ImageWorkload& workload,
               const EngineParams& params)
    : sim_(sim),
      network_(network),
      monitoring_(monitoring),
      tree_(tree),
      workload_(workload),
      params_(params),
      cost_model_(tree, cost_params_from(workload.params(), network.params())),
      rng_(Rng(params.seed).fork(0xe1e1)),
      channel_(network, hop_retry_policy(params, cost_model_),
               Rng(params.seed).fork(0xfa17)),
      cache_(params.cache_fabric),
      faults_active_(params.fault_injector != nullptr),
      obs_(params.obs),
      policy_(make_adaptation_policy(params.degraded_mode
                                         ? core::AlgorithmKind::kOneShot
                                         : params.algorithm)),
      uses_directory_(policy_->uses_directory()),
      uses_barrier_(policy_->uses_barrier()),
      adapts_order_(policy_->adapts_order()),
      acts_in_window_(policy_->acts_in_window()),
      // The coordinator only records the references; it never calls back
      // into the engine during construction.
      coordinator_(sim, *this, tree, obs_, stats_,
                   PolicyTraits{uses_directory_, uses_barrier_,
                                adapts_order_}),
      router_(*this, uses_directory_,
              [this](int iteration) -> const core::Placement& {
                return coordinator_.placement_for(iteration);
              }) {
  WADC_ASSERT(network.num_hosts() == tree.num_hosts(),
              "network/tree host count mismatch");
  WADC_ASSERT(workload.num_servers() == tree.num_servers(),
              "workload/tree server count mismatch");
  const std::string problem = validate(params_);
  WADC_ASSERT(problem.empty(), "bad EngineParams: ", problem);
  if (faults_active_) {
    params_.fault_injector->add_listener(
        [this](const fault::FaultEvent& ev) { on_fault_event(ev); });
  }
  channel_.set_retry_listener(
      {[](void* ctx, net::HostId from, net::HostId to, int attempt,
          double backoff_seconds) {
         static_cast<Engine*>(ctx)->note_retry(from, to, attempt,
                                               backoff_seconds);
       },
       this});
  if (params_.session_id >= 0) {
    channel_.set_session_tag(params_.session_id);
  }

  operators_.resize(static_cast<std::size_t>(tree.num_operators()));
  for (core::OperatorId op = 0; op < tree.num_operators(); ++op) {
    OperatorState& st = operators_[static_cast<std::size_t>(op)];
    st.demands = std::make_unique<sim::Mailbox<Demand>>(sim_);
    st.data = std::make_unique<sim::Mailbox<DataMessage>>(sim_);
  }

  servers_.resize(static_cast<std::size_t>(tree.num_servers()));
  for (int s = 0; s < tree.num_servers(); ++s) {
    ServerState& st = servers_[static_cast<std::size_t>(s)];
    st.demands = std::make_unique<sim::Mailbox<Demand>>(sim_);
    st.disk = std::make_unique<sim::Resource>(sim_, 1);
  }

  hosts_.resize(static_cast<std::size_t>(tree.num_hosts()));
  const core::Placement start = core::Placement::all_at_client(tree);
  for (net::HostId h = 0; h < tree.num_hosts(); ++h) {
    HostState& hs = hosts_[static_cast<std::size_t>(h)];
    hs.directory = std::make_unique<core::OperatorDirectory>(
        start, params_.merge_rule);
    hs.cpu = std::make_unique<sim::Resource>(sim_, 1);
  }

  client_data_ = std::make_unique<sim::Mailbox<DataMessage>>(sim_);

  if (obs_.metrics) {
    forwards_counter_ = &obs_.metrics->counter("engine.messages_forwarded");
    router_.set_forwards_counter(forwards_counter_);
  }
  if (obs_.tracer) {
    for (net::HostId h = 0; h < tree.num_hosts(); ++h) {
      obs_.tracer->name_process(
          h, h == tree.client_host() ? "host" + std::to_string(h) + " (client)"
                                     : "host" + std::to_string(h));
      obs_.tracer->name_thread(h, obs::kControlLane, "control");
      for (core::OperatorId op = 0; op < tree.num_operators(); ++op) {
        obs_.tracer->name_thread(h, obs::operator_lane(op),
                                 "op" + std::to_string(op));
      }
    }
  }
}

int Engine::operator_side(const core::CombinationTree& tree,
                          core::OperatorId op) {
  const core::OperatorId parent = tree.parent(op);
  if (parent == core::kNoOperator) return 0;  // sole producer of the client
  const core::Child& left = tree.left_child(parent);
  return (!left.is_server() && left.index == op) ? 0 : 1;
}

int Engine::server_side(const core::CombinationTree& tree, int server) {
  const core::OperatorId consumer = tree.server_consumer(server);
  const core::Child& left = tree.left_child(consumer);
  return (left.is_server() && left.index == server) ? 0 : 1;
}

Engine::~Engine() {
  // Process frames reference engine members (mailboxes, resources); destroy
  // them while those members are still alive.
  sim_.terminate_all();
}

Engine::OperatorState& Engine::op_state(core::OperatorId op) {
  WADC_ASSERT(op >= 0 &&
                  static_cast<std::size_t>(op) < operators_.size(),
              "operator id out of range");
  return operators_[static_cast<std::size_t>(op)];
}

Engine::HostState& Engine::host_state(net::HostId h) {
  WADC_ASSERT(h >= 0 && static_cast<std::size_t>(h) < hosts_.size(),
              "host id out of range");
  return hosts_[static_cast<std::size_t>(h)];
}

double Engine::directory_bytes() const {
  return kDirectoryEntryBytes * static_cast<double>(tree_.num_operators());
}

void Engine::start_detached(std::function<void()> on_done) {
  detached_ = true;
  on_done_ = std::move(on_done);
  sim_.spawn(orchestrate());
}

void Engine::finish_detached() {
  if (done_reported_) return;
  done_reported_ = true;
  stats_.completed = done_;
  if (faults_active_) {
    FailureSummary& fs = stats_.failure_summary;
    fs.active = true;
    // The network is shared across sessions in detached mode, so the
    // network-wide failure totals are not attributed here; per-engine retry
    // and repair counters were maintained as they happened.
  }
  if (on_done_) on_done_();
}

RunStats Engine::run() {
  WADC_ASSERT(!detached_, "run() is not available in detached mode");
  sim_.spawn(orchestrate());
  if (!faults_active_) {
    const auto status = sim_.run();
    WADC_ASSERT(done_, "simulation ended before the computation completed ",
                "(status ", static_cast<int>(status), ", t=", sim_.now(), ")");
    stats_.completed = true;
    return stats_;
  }

  // Fault-tolerant mode: bound the run and report what happened instead of
  // asserting. A run that cannot complete (client dead, server data gone,
  // link permanently dark) returns completed=false with the reason.
  const auto status = sim_.run(kRunDeadlineSeconds);
  FailureSummary& fs = stats_.failure_summary;
  fs.active = true;
  fs.transfers_failed = network_.transfers_failed();
  fs.transfers_timed_out = network_.transfers_timed_out();
  stats_.completed = done_;
  if (!done_ && fs.abort_reason.empty()) {
    fs.abort_reason = status == sim::Simulation::RunStatus::kTimeLimit
                          ? "run deadline exceeded"
                          : "simulation stalled before completion";
  }
  return stats_;
}

// ---------------------------------------------------------------------------
// failure surfacing

void Engine::abort_run(std::string reason) {
  if (aborted_) return;
  aborted_ = true;
  if (obs_.decisions) {
    obs_.decisions->record(sim_.now(), "fault", "abort", params_.session_id,
                           {{"reason", reason}});
  }
  stats_.failure_summary.abort_reason = std::move(reason);
  if (detached_) {
    // Other sessions share the loop; report this engine's end instead of
    // stopping the world.
    finish_detached();
    return;
  }
  sim_.request_stop();
}

void Engine::note_retry(net::HostId from, net::HostId to, int attempt,
                        double backoff_seconds) {
  ++stats_.failure_summary.transfer_retries;
  if (obs_.metrics) {
    if (!retries_counter_) {
      retries_counter_ = &obs_.metrics->counter("engine.retries");
    }
    retries_counter_->add();
  }
  if (obs_.tracer) {
    obs_.tracer->instant("engine", "retry", from, obs::kControlLane,
                         sim_.now(), {{"to", to}, {"attempt", attempt}});
  }
  if (obs_.decisions) {
    obs_.decisions->record(
        sim_.now(), "retry", "backoff", params_.session_id,
        {{"from", from},
         {"to", to},
         {"attempt", attempt},
         {"backoff_s", backoff_seconds}});
  }
}

void Engine::on_fault_event(const fault::FaultEvent& ev) {
  FailureSummary& fs = stats_.failure_summary;
  fs.active = true;
  ++fs.faults_injected;
  if (obs_.decisions) {
    const char* kind = "?";
    switch (ev.kind) {
      case fault::FaultEvent::Kind::kHostDown: kind = "host_down"; break;
      case fault::FaultEvent::Kind::kHostUp: kind = "host_up"; break;
      case fault::FaultEvent::Kind::kBlackoutBegin:
        kind = "blackout_begin";
        break;
      case fault::FaultEvent::Kind::kBlackoutEnd:
        kind = "blackout_end";
        break;
    }
    std::vector<obs::TraceArg> args{{"kind", kind}};
    if (ev.host >= 0) args.emplace_back("host", ev.host);
    if (ev.a >= 0) args.emplace_back("a", ev.a);
    if (ev.b >= 0) args.emplace_back("b", ev.b);
    obs_.decisions->record(sim_.now(), "fault", "observed",
                           params_.session_id, std::move(args));
  }
  switch (ev.kind) {
    case fault::FaultEvent::Kind::kHostDown: {
      ++fs.host_crashes;
      for (auto& hs : hosts_) hs.directory->set_host_alive(ev.host, false);
      // Measurements through the corpse describe a network that no longer
      // exists; planning from them would steer operators into it.
      monitoring_.invalidate_host(ev.host);
      // Likewise any cached sub-results: the bytes died with the host, and
      // serving a phantom replica would hang the fetch. (The fabric is
      // shared, so repeat notifications from sibling sessions are no-ops.)
      if (cache_ != nullptr) cache_->invalidate_host(ev.host, sim_.now());
      if (!params_.fault_injector->host_restarts_after(ev.host, sim_.now())) {
        // Operators relocate around a dead host; the client and the servers
        // cannot. Losing one permanently makes completion impossible, so
        // report that now instead of retrying until the run deadline.
        if (ev.host == tree_.client_host()) {
          abort_run("client host crashed permanently");
          return;
        }
        for (int s = 0; s < tree_.num_servers(); ++s) {
          if (tree_.server_host(s) == ev.host) {
            abort_run("server host " + std::to_string(ev.host) +
                      " crashed permanently");
            return;
          }
        }
      }
      if (done_ || aborted_ || coordinator_.repair_in_progress()) return;
      for (core::OperatorId op = 0; op < tree_.num_operators(); ++op) {
        if (coordinator_.operator_location(op) == ev.host) {
          // Marked synchronously (still inside the injector's event) so a
          // second crash in the same instant cannot start a second sweep.
          coordinator_.mark_repair_started();
          sim_.spawn(coordinator_.repair_process());
          break;
        }
      }
      return;
    }
    case fault::FaultEvent::Kind::kHostUp:
      ++fs.host_restarts;
      for (auto& hs : hosts_) hs.directory->set_host_alive(ev.host, true);
      return;
    case fault::FaultEvent::Kind::kBlackoutBegin:
      ++fs.link_blackouts;
      // Replicas behind a blacked-out link are unreachable for its whole
      // duration; dropping them steers lookups to reachable copies (or to
      // recompute) instead of burning retry budgets against a dark link.
      if (cache_ != nullptr) {
        if (ev.a >= 0) cache_->invalidate_host(ev.a, sim_.now());
        if (ev.b >= 0) cache_->invalidate_host(ev.b, sim_.now());
      }
      return;
    case fault::FaultEvent::Kind::kBlackoutEnd:
      ++fs.link_blackout_ends;
      return;
  }
}

// ---------------------------------------------------------------------------
// start-up

sim::Task<void> Engine::orchestrate() {
  StartupPlan plan = co_await policy_->plan_startup(*this);
  core::Placement initial = std::move(plan.placement);

  // Install operators at their start-up locations: control message per
  // off-client operator ("installing all the code at all servers and using
  // control messages to transfer operators", §3). Under faults a planned
  // host may already be dead (or die during the install); such operators
  // start at the client and recovery replanning picks them up from there.
  for (core::OperatorId op = 0; op < tree_.num_operators(); ++op) {
    net::HostId loc = initial.location(op);
    if (faults_active_ && !network_.host_alive(loc)) {
      loc = tree_.client_host();
    }
    if (loc != tree_.client_host()) {
      if (!co_await Hop(*this, tree_.client_host(), loc, kOperatorMoveBytes,
                        params_.control_priority)) {
        loc = tree_.client_host();
      }
    }
    if (loc != initial.location(op)) initial.set_location(op, loc);
    coordinator_.set_location(op, loc);
  }
  coordinator_.install_startup_plan(std::move(plan.tree), initial);
  for (auto& hs : hosts_) {
    hs.directory = std::make_unique<core::OperatorDirectory>(
        initial, params_.merge_rule);
  }

  for (int s = 0; s < tree_.num_servers(); ++s) {
    sim_.spawn(server_process(s));
  }
  for (core::OperatorId op = 0; op < tree_.num_operators(); ++op) {
    sim_.spawn(operator_process(op));
  }
  sim_.spawn(client_process());
  if (uses_barrier_) sim_.spawn(coordinator_.replanner_process(*policy_));
}

// ---------------------------------------------------------------------------
// actors

sim::Task<void> Engine::client_process() {
  const int n = total_iterations();
  for (int iter = 0; iter < n; ++iter) {
    const core::OperatorId root = tree_for(iter).root();
    client_next_iteration_ = iter;
    Demand d;
    d.iteration = iter;
    // The client has a single producer, so that producer is trivially the
    // latest one, and the root of the tree is on the critical path by
    // definition (§2.3).
    d.marked_later = true;
    d.consumer_on_critical_path = true;
    d.pending_version = coordinator_.pending_version();

    // Result cache: when the whole-tree result for this iteration is
    // already materialized somewhere, fetch it from the nearest replica
    // and send the demand *pruned* — the tree still advances its iteration
    // counters (and the barrier piggyback still flows) but produces
    // nothing. Fetch-before-prune: a failed fetch falls back to the normal
    // demand with nothing pruned yet.
    std::optional<workload::ImageSpec> cached;
    cache::CacheKey key;
    const core::CombinationTree* keyed_tree = nullptr;
    if (cache_ != nullptr) {
      keyed_tree = &tree_for(iter);
      key = subtree_cache_key(*keyed_tree, core::Child::op(root), iter);
      cached = co_await try_cache_fetch(key, tree_.client_host());
      if (cached) d.pruned = true;
    }

    int round = 0;
    while (co_await Route(*this,
                          router_.to_operator(tree_.client_host(), root, iter),
                          kDemandBytes, net::kDataPriority) ==
           net::kInvalidHost) {
      // Fault mode only: the root is unreachable right now. Back off and
      // re-resolve — recovery may relocate it meanwhile.
      if (aborted_) co_return;
      co_await sim_.delay(retry_backoff(std::min(round++, 5)));
    }
    op_state(root).demands->send(d);

    workload::ImageSpec image;
    if (cached) {
      image = *cached;
    } else {
      DataMessage m = co_await client_data_->receive();
      WADC_ASSERT(m.iteration == iter, "client received image out of order");
      image = m.image;
      if (cache_ != nullptr && cache_->config().diffusion) {
        // Data diffusion toward the client: the delivered result lands in
        // the client host's cache, where overlapping sessions (which all
        // demand from this host) serve it with zero network cost. A
        // change-over can switch this iteration to a new tree while its
        // demand is in flight; the result is keyed by the tree that built
        // it.
        const core::CombinationTree& built = tree_for(iter);
        if (&built != keyed_tree) {
          key = subtree_cache_key(built, core::Child::op(root), iter);
        }
        cache_->insert(
            key, image, tree_.client_host(),
            workload_.compose_seconds(image) +
                2 * image.bytes / cost_model_.params().pessimistic_bandwidth,
            sim_.now(), params_.session_id);
      }
    }
    const core::CombinationTree& t = tree_for(iter);
    const auto expected =
        expected_output(t, workload_, core::Child::op(t.root()), iter);
    WADC_ASSERT(image.lineage == expected.lineage,
                "composed image lineage mismatch at iteration ", iter);
    stats_.arrival_seconds.push_back(sim_.now());
    if (obs_.tracer) {
      obs_.tracer->instant("client", "image_arrival", tree_.client_host(),
                           obs::kControlLane, sim_.now(),
                           {{"iteration", iter}});
    }
  }
  stats_.completion_seconds = sim_.now();
  done_ = true;
  if (detached_) {
    finish_detached();
    co_return;
  }
  sim_.request_stop();
}

sim::Task<void> Engine::server_process(int server) {
  ServerState& st = servers_[static_cast<std::size_t>(server)];
  const net::HostId host = tree_.server_host(server);
  const int n = total_iterations();
  int expected_next = 0;  // demands arrive in order under a static tree
  for (int count = 0; count < n; ++count) {
    // Serve demands as they arrive. Each iteration is demanded exactly
    // once; only an order-changing change-over can reorder arrivals
    // (the new consumer's first demand racing the old consumer's last).
    Demand d = co_await st.demands->receive();
    if (!adapts_order_) {
      WADC_ASSERT(d.iteration == expected_next,
                  "server demand out of order");
    }
    expected_next = d.iteration + 1;
    max_server_iteration_ = std::max(max_server_iteration_, d.iteration);

    if (uses_barrier_ && d.pending_version > st.pending_version_seen) {
      // §2.2: first sight of a pending placement — report the current
      // iteration number to the client and suspend until released.
      st.pending_version_seen = d.pending_version;
      BarrierReport report;
      report.version = d.pending_version;
      report.server = server;
      report.iteration = d.iteration;
      int round = 0;
      while (!co_await Hop(*this, host, tree_.client_host(), kControlBytes,
                           params_.control_priority)) {
        if (done_ || aborted_) co_return;
        co_await sim_.delay(retry_backoff(std::min(round++, 5)));
      }
      coordinator_.deliver_report(report);
      co_await coordinator_.await_release(host, d.pending_version);
    }

    // Pruned demand (result cache): the consumer already has this
    // iteration's output, so the server advances its counters and honors
    // the barrier piggyback above, but skips the disk read and the send.
    if (d.pruned) continue;

    // Copy what this demand needs from its epoch before suspending again.
    const core::CombinationTree& t = tree_for(d.iteration);
    const core::OperatorId consumer = t.server_consumer(server);
    const int side = server_side(t, server);
    const workload::ImageSpec img = workload_.image(server, d.iteration);
    {
      auto lock = co_await st.disk->acquire();
      co_await sim_.delay(workload_.disk_seconds(img));
    }
    DataMessage m;
    m.image = img;
    m.iteration = d.iteration;
    m.producer_side = side;
    int send_round = 0;
    while (co_await Route(*this,
                          router_.to_operator(host, consumer, d.iteration),
                          m.image.bytes, net::kDataPriority) ==
           net::kInvalidHost) {
      if (done_ || aborted_) co_return;
      co_await sim_.delay(retry_backoff(std::min(send_round++, 5)));
    }
    op_state(consumer).data->send(m);
  }
}

sim::Task<Demand> Engine::receive_demand_for(core::OperatorId op,
                                             int iteration) {
  OperatorState& st = op_state(op);
  if (const auto it = st.demand_stash.find(iteration);
      it != st.demand_stash.end()) {
    Demand d = it->second;
    st.demand_stash.erase(it);
    co_return d;
  }
  for (;;) {
    Demand d = co_await st.demands->receive();
    if (d.iteration == iteration) co_return d;
    WADC_ASSERT(d.iteration > iteration,
                "duplicate or stale demand at operator ", op);
    // Version information must not wait in the stash.
    coordinator_.note_pending_version(op, d.pending_version);
    st.demand_stash.emplace(d.iteration, d);
  }
}

sim::Task<void> Engine::operator_process(core::OperatorId op) {
  OperatorState& st = op_state(op);
  const int n = total_iterations();
  std::optional<workload::ImageSpec> held;
  for (int iter = 0; iter < n; ++iter) {
    Demand d = co_await receive_demand_for(op, iter);
    coordinator_.note_pending_version(op, d.pending_version);

    if (d.pruned) {
      // The consumer satisfied this iteration from the result cache. If a
      // prefetched result is held, discard it (the children already
      // produced it); otherwise cascade the prune so the whole subtree
      // advances without producing. Crucially, still prefetch the next
      // iteration below: the §2.2 change-over barrier reaches the servers
      // one level per demand wave, riding the pipeline's guarantee that
      // every edge carries exactly one demand per iteration. Going idle
      // here would strand a pending version above this subtree and
      // deadlock the barrier. The prefetch consults the cache first, so a
      // hit streak still cascades as prunes with zero transfers.
      if (!held) co_await send_prunes_to_children(op, iter);
    } else {
      if (d.marked_later) ++st.critical.later_marks;
      st.critical.consumer_on_critical_path = d.consumer_on_critical_path;

      if (!held) {
        // First iteration: nothing has been prefetched yet.
        held = co_await fetch_and_compose(op, iter);
      }
      co_await dispatch(op, iter, *held);
      ++st.critical.dispatches;
    }
    held.reset();

    // §2: "Relocation of an operator can occur after it has dispatched its
    // output and before it requests new data." Each half is awaited only
    // when it can act: the policy's for a policy that acts in its window,
    // the change-over's while a barrier is active.
    if (acts_in_window_) co_await policy_->relocation_window(*this, op);
    if (coordinator_.barrier_active()) {
      co_await coordinator_.operator_window(op, iter);
    }

    if (iter + 1 < n) {
      held = co_await fetch_and_compose(op, iter + 1);
    }
  }
}

sim::Task<workload::ImageSpec> Engine::fetch_and_compose(core::OperatorId op,
                                                         int iteration) {
  OperatorState& st = op_state(op);
  coordinator_.note_fetch(op, iteration);
  const core::CombinationTree& t = tree_for(iteration);

  // Result cache: a hit short-circuits the whole subtree. Fetch first,
  // prune only on success — a failed replica fetch leaves the children
  // un-demanded, so the normal path below proceeds untouched. A miss
  // inserts the composed result under the same key.
  cache::CacheKey key;
  if (cache_ != nullptr) {
    key = subtree_cache_key(t, core::Child::op(op), iteration);
    if (auto img =
            co_await try_cache_fetch(key, coordinator_.operator_location(op))) {
      co_await send_prunes_to_children(op, iteration);
      co_return *img;
    }
  }

  const core::Child children[2] = {t.left_child(op), t.right_child(op)};
  for (int side = 0; side < 2; ++side) {
    Demand d;
    d.iteration = iteration;
    d.marked_later = st.critical.last_later_side == side;
    d.consumer_on_critical_path = st.critical.on_critical_path;
    d.pending_version = coordinator_.pending_version_seen(op);
    int round = 0;
    while (!co_await send_demand_to_child(op, children[side], d)) {
      if (done_ || aborted_) co_return workload::ImageSpec{};
      co_await sim_.delay(retry_backoff(std::min(round++, 5)));
    }
  }
  DataMessage first = co_await st.data->receive();
  DataMessage second = co_await st.data->receive();
  WADC_ASSERT(first.iteration == iteration && second.iteration == iteration,
              "input iteration mismatch at operator ", op);
  WADC_ASSERT(first.producer_side != second.producer_side,
              "duplicate input side at operator ", op);
  st.critical.last_later_side = second.producer_side;

  const workload::ImageSpec& left =
      first.producer_side == 0 ? first.image : second.image;
  const workload::ImageSpec& right =
      first.producer_side == 0 ? second.image : first.image;
  const workload::ImageSpec out = workload::compose(left, right);
  {
    auto cpu =
        co_await host_state(coordinator_.operator_location(op)).cpu->acquire();
    co_await sim_.delay(workload_.compose_seconds(out));
  }

  if (cache_ != nullptr && !done_ && !aborted_) {
    // Register the freshly materialized sub-result. The recreate cost —
    // compose time plus shipping both inputs at the best bandwidth estimate
    // we have — feeds the cost-aware eviction policy. An input produced on
    // this host needs no transfer and adds nothing.
    const net::HostId loc = coordinator_.operator_location(op);
    double recreate = workload_.compose_seconds(out);
    const workload::ImageSpec inputs[2] = {left, right};
    for (int side = 0; side < 2; ++side) {
      const core::Child& c = children[side];
      const net::HostId child_host =
          c.is_server() ? tree_.server_host(c.index)
                        : coordinator_.operator_location(c.index);
      if (child_host == loc) continue;
      const double bw =
          monitoring_.cached_bandwidth(loc, loc, child_host)
              .value_or(cost_model_.params().pessimistic_bandwidth);
      recreate += inputs[side].bytes / bw;
    }
    cache_->insert(key, out, loc, recreate, sim_.now(), params_.session_id);
  }
  co_return out;
}

cache::CacheKey Engine::subtree_cache_key(const core::CombinationTree& tree,
                                          const core::Child& c,
                                          int iteration) {
  // Canonical identity of a materialized sub-result: the set of source
  // partitions it combines plus the order-sensitive lineage digest the
  // workload itself computes. Folding the lineage in means a restructured
  // tree (kGlobalOrder) can never serve a structurally different result.
  key_leaves_.clear();
  const auto collect = [&](const auto& self, const core::Child& node) -> std::uint64_t {
    if (node.is_server()) {
      key_leaves_.push_back(node.index);
      return workload::lineage_leaf(node.index, iteration);
    }
    const std::uint64_t l = self(self, tree.left_child(node.index));
    const std::uint64_t r = self(self, tree.right_child(node.index));
    return workload::lineage_combine(l, r);
  };
  const std::uint64_t lineage = collect(collect, c);
  return cache::CacheKey{
      cache::subtree_signature(key_leaves_, lineage, "compose"), iteration};
}

sim::Task<std::optional<workload::ImageSpec>> Engine::try_cache_fetch(
    cache::CacheKey key, net::HostId requester) {
  const auto hit = cache_->lookup(
      key, requester, [this](net::HostId h) { return network_.host_alive(h); });
  if (!hit) {
    cache_->on_miss(requester);
    co_return std::nullopt;
  }
  if (!hit->local && !co_await Hop(*this, hit->replica, requester,
                                   hit->image.bytes, net::kDataPriority)) {
    // Replica unreachable right now; treat as a miss and recompute.
    cache_->on_miss(requester);
    co_return std::nullopt;
  }
  // Without the cache, both subtree inputs (each at least as large as the
  // output, since compose output = max of inputs) would have shipped; a
  // remote hit still pays one output-sized transfer.
  const double saved =
      2 * hit->image.bytes - (hit->local ? 0.0 : hit->image.bytes);
  cache_->on_hit(key, *hit, requester, saved, sim_.now(), params_.session_id);
  co_return hit->image;
}

sim::Task<void> Engine::send_prunes_to_children(core::OperatorId op,
                                                int iteration) {
  const core::CombinationTree& t = tree_for(iteration);
  const core::Child children[2] = {t.left_child(op), t.right_child(op)};
  for (int side = 0; side < 2; ++side) {
    Demand d;
    d.iteration = iteration;
    d.pruned = true;
    d.pending_version = coordinator_.pending_version_seen(op);
    int round = 0;
    while (!co_await send_demand_to_child(op, children[side], d)) {
      if (done_ || aborted_) co_return;
      co_await sim_.delay(retry_backoff(std::min(round++, 5)));
    }
  }
}

sim::Task<void> Engine::dispatch(core::OperatorId op, int iteration,
                                 const workload::ImageSpec& image) {
  if (!uses_directory_ && !faults_active_) {
    // Coordinated change-over invariant: data always flows along edges of
    // the placement in force for its iteration (the Figure 3 hazard).
    // Repair moves are deliberately out-of-cycle, so the invariant does
    // not hold while faults are being injected.
    WADC_ASSERT(coordinator_.operator_location(op) ==
                    placement_for(iteration).location(op),
                "operator ", op, " dispatching iteration ", iteration,
                " from a host not in the active placement");
  }
  DataMessage m;
  m.image = image;
  m.iteration = iteration;
  m.producer_side = operator_side(tree_for(iteration), op);
  const net::HostId host = coordinator_.operator_location(op);
  const sim::SimTime begin = sim_.now();
  int round = 0;
  while (!co_await send_data_to_consumer(op, m)) {
    if (done_ || aborted_) co_return;
    co_await sim_.delay(retry_backoff(std::min(round++, 5)));
  }
  if (obs_.tracer) {
    obs_.tracer->complete("engine", "dispatch", host, obs::operator_lane(op),
                          begin, sim_.now(),
                          {{"iteration", iteration}, {"bytes", image.bytes}});
  }
}

}  // namespace wadc::dataflow
