#include "dataflow/adaptation_policy.h"

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "core/bandwidth_resolver.h"
#include "core/local_rule.h"
#include "core/one_shot.h"
#include "core/order_planner.h"
#include "obs/obs.h"

namespace wadc::dataflow {

sim::Task<ReplanDecision> AdaptationPolicy::replan(EngineServices&) {
  WADC_ASSERT(false, "replan() called on a policy without a barrier");
  co_return ReplanDecision{};
}

sim::Task<void> AdaptationPolicy::relocation_window(EngineServices&,
                                                    core::OperatorId) {
  co_return;
}

namespace {

// Order-adaptive replanning adopts a new combination tree only when its
// estimated cost undercuts the current plan's by this factor: switching the
// whole tree relocates many operators, so a little hysteresis prevents
// thrash.
constexpr double kOrderAdoptionThreshold = 0.9;

// The one-shot start-up span ("initial_plan") every planning policy emits;
// the download-all baseline plans nothing and stays silent.
void emit_initial_plan_trace(EngineServices& services, sim::SimTime begin) {
  const obs::Obs& obs = services.observability();
  if (obs.tracer) {
    obs.tracer->complete("plan", "initial_plan",
                         services.base_tree().client_host(), obs::kControlLane,
                         begin, services.simulation().now(),
                         {{"plan_rounds", services.stats().plan_rounds}});
  }
}

// ---------------------------------------------------------------------------
// shared planning helpers

// Probe-and-replan at the client for unknown link bandwidths (§2.1):
// `plan` runs a planner over the client's cache, and the pairs it had to
// cost pessimistically are probed before it plans again, for at most
// kMaxPlanProbeRounds probe rounds. Takes simulated time: probes are real
// traffic.
template <typename Plan,
          typename Outcome =
              std::invoke_result_t<Plan&, core::BandwidthResolver&>>
sim::Task<Outcome> plan_with_probes(EngineServices& services, Plan plan) {
  const net::HostId client = services.base_tree().client_host();
  const sim::SimTime session_start = services.simulation().now();
  Outcome outcome;
  for (int round = 0;; ++round) {
    core::CacheResolver resolver(services.bandwidth_cache(client),
                                 services.simulation().now(), session_start);
    outcome = plan(resolver);
    ++services.stats().plan_rounds;
    if (outcome.unknown_pairs.empty() || round >= kMaxPlanProbeRounds) {
      break;
    }
    for (const auto& [a, b] : outcome.unknown_pairs) {
      co_await services.fetch_bandwidth(client, a, b);
    }
  }
  co_return outcome;
}

// One-shot placement planning from `initial` (§2.1).
sim::Task<core::PlanOutcome> plan_placement(EngineServices& services,
                                            core::Placement initial) {
  const core::OneShotPlanner planner(services.cost_model());
  if (services.params().oracle_bandwidth) {
    // Ablation: idealized planning from ground truth, no probe traffic.
    core::OracleResolver oracle(services.links(), services.simulation().now());
    core::PlanOutcome outcome = planner.plan(oracle, std::move(initial));
    ++services.stats().plan_rounds;
    co_return outcome;
  }
  co_return co_await plan_with_probes(
      services,
      [&](core::BandwidthResolver& r) { return planner.plan(r, initial); });
}

// Joint order+location planning (the order-adaptive extension).
// `fix_at_client` pins every operator to the client (the reorder-only
// ablation).
sim::Task<core::OrderPlanOutcome> plan_order(EngineServices& services,
                                             bool fix_at_client) {
  core::OrderPlannerOptions options;
  options.fix_at_client = fix_at_client;
  const core::OrderPlanner planner(services.base_tree().num_servers(),
                                   core::OneShotParams{}, options);
  co_return co_await plan_with_probes(
      services, [&](core::BandwidthResolver& r) { return planner.plan(r); });
}

// ---------------------------------------------------------------------------
// download-all (§4 baseline): every operator stays at the client; no
// planning, no adaptation.

class DownloadAllPolicy final : public AdaptationPolicy {
 public:
  sim::Task<StartupPlan> plan_startup(EngineServices& services) override {
    co_return StartupPlan{services.base_tree(),
                          core::Placement::all_at_client(services.base_tree())};
  }
};

// ---------------------------------------------------------------------------
// one-shot (§2.1): branch-and-bound placement before computation starts,
// probing only the links the search touches; never adapts afterwards.

class OneShotPolicy : public AdaptationPolicy {
 public:
  sim::Task<StartupPlan> plan_startup(EngineServices& services) override {
    const sim::SimTime begin = services.simulation().now();
    auto outcome = co_await plan_placement(
        services, core::Placement::all_at_client(services.base_tree()));
    StartupPlan plan{services.base_tree(), std::move(outcome.placement)};
    emit_initial_plan_trace(services, begin);
    co_return plan;
  }
};

// ---------------------------------------------------------------------------
// global (§2.2): one-shot start-up, then periodic replanning from the
// current placement with barrier-coordinated change-over.

class GlobalPolicy final : public OneShotPolicy {
 public:
  bool uses_barrier() const override { return true; }

  sim::Task<ReplanDecision> replan(EngineServices& services) override {
    ReplanDecision decision;
    decision.tree = services.current_tree();
    decision.placement = services.current_placement();
    auto outcome =
        co_await plan_placement(services, services.current_placement());
    // current_placement is re-read after the probing awaits: a repair may
    // have patched the plan while we probed.
    decision.changed = !(outcome.placement == services.current_placement());
    const obs::Obs& obs = services.observability();
    if (obs.decisions) {
      obs.decisions->record(
          services.simulation().now(), "plan",
          decision.changed ? "global_adopt" : "global_keep",
          services.params().session_id,
          {{"cost", outcome.cost},
           {"iterations", outcome.iterations},
           {"candidates", outcome.candidates_evaluated}});
    }
    decision.placement = std::move(outcome.placement);
    co_return decision;
  }
};

// ---------------------------------------------------------------------------
// order-adaptive extension (kGlobalOrder / kReorderOnly): change-overs may
// switch the combination tree as well as the placement. A candidate is
// adopted only when it undercuts the current plan's estimated cost by the
// hysteresis threshold — switching the tree relocates many operators.

class OrderPolicy final : public AdaptationPolicy {
 public:
  explicit OrderPolicy(bool fix_at_client) : fix_at_client_(fix_at_client) {}

  bool uses_barrier() const override { return true; }
  bool adapts_order() const override { return true; }

  sim::Task<StartupPlan> plan_startup(EngineServices& services) override {
    const sim::SimTime begin = services.simulation().now();
    auto outcome = co_await plan_order(services, fix_at_client_);
    StartupPlan plan{std::move(outcome.tree), std::move(outcome.placement)};
    emit_initial_plan_trace(services, begin);
    co_return plan;
  }

  sim::Task<ReplanDecision> replan(EngineServices& services) override {
    ReplanDecision decision;
    decision.tree = services.current_tree();
    decision.placement = services.current_placement();
    auto outcome = co_await plan_order(services, fix_at_client_);
    // Adopt the candidate only if it strictly beats the current plan under
    // the same (post-probing) bandwidth knowledge.
    core::CacheResolver resolver(
        services.bandwidth_cache(services.base_tree().client_host()),
        services.simulation().now(), services.simulation().now());
    const core::CostModel current_model(services.current_tree(),
                                        core::CostModelParams{});
    const double current_cost =
        current_model.placement_cost(services.current_placement(), resolver);
    const bool adopt = outcome.cost < kOrderAdoptionThreshold * current_cost;
    const obs::Obs& obs = services.observability();
    if (obs.decisions) {
      // The adopt/reject call with its cost-model evidence: the candidate
      // order's estimated cost vs the incumbent's, and the hysteresis
      // threshold that separates them.
      obs.decisions->record(services.simulation().now(), "plan",
                            adopt ? "order_adopt" : "order_reject",
                            services.params().session_id,
                            {{"candidate_cost", outcome.cost},
                             {"current_cost", current_cost},
                             {"threshold", kOrderAdoptionThreshold}});
    }
    if (adopt) {
      decision.tree = std::move(outcome.tree);
      decision.placement = std::move(outcome.placement);
      decision.changed = true;
    }
    co_return decision;
  }

 private:
  const bool fix_at_client_;
};

// ---------------------------------------------------------------------------
// local (§2.3): one-shot start-up, then per-operator epoch actions in the
// relocation window — later-producer marking detects the critical path, and
// operators on it improve their own placement from local knowledge.

class LocalPolicy final : public OneShotPolicy {
 public:
  bool uses_directory() const override { return true; }
  bool acts_in_window() const override { return true; }

  sim::Task<void> relocation_window(EngineServices& services,
                                    core::OperatorId op) override {
    const core::CombinationTree& tree = services.base_tree();
    sim::Simulation& sim = services.simulation();
    CriticalPathState& st = services.critical_path_state(op);
    const double epoch_len = services.params().relocation_period_seconds /
                             static_cast<double>(tree.depth());
    const auto epoch_index = static_cast<std::int64_t>(sim.now() / epoch_len);
    if (epoch_index <= st.last_epoch_acted) co_return;
    if (epoch_index % tree.depth() != tree.level(op)) co_return;
    st.last_epoch_acted = epoch_index;

    // §2.3: on the critical path iff marked the later producer more than
    // half the times we dispatched during the epoch, and our consumer is
    // too.
    const bool majority_later =
        st.dispatches > 0 && 2 * st.later_marks > st.dispatches;
    st.on_critical_path = majority_later && st.consumer_on_critical_path;
    st.later_marks = 0;
    st.dispatches = 0;
    if (!st.on_critical_path) co_return;

    const net::HostId self = services.operator_location(op);
    const core::OperatorDirectory& dir = services.directory(self);
    const auto child_site = [&](const core::Child& c) {
      return c.is_server() ? tree.server_host(c.index) : dir.location(c.index);
    };
    const net::HostId p0 = child_site(tree.left_child(op));
    const net::HostId p1 = child_site(tree.right_child(op));
    const core::OperatorId parent = tree.parent(op);
    const net::HostId consumer = parent == core::kNoOperator
                                     ? tree.client_host()
                                     : dir.location(parent);

    // k extra random candidate sites from the remaining hosts (Figure 7).
    std::vector<net::HostId> extras;
    if (services.params().local_extra_candidates > 0) {
      std::vector<net::HostId> pool;
      for (net::HostId h = 0; h < tree.num_hosts(); ++h) {
        if (services.faults_active() && !services.host_alive(h)) continue;
        if (h != self && h != p0 && h != p1 && h != consumer) {
          pool.push_back(h);
        }
      }
      const std::size_t k = std::min(
          pool.size(),
          static_cast<std::size_t>(services.params().local_extra_candidates));
      for (const std::size_t i :
           services.rng().sample_without_replacement(pool.size(), k)) {
        extras.push_back(pool[i]);
      }
    }

    const core::LocalRule rule(services.cost_model());
    const sim::SimTime session_start = sim.now();
    core::CacheResolver resolver(services.bandwidth_cache(self), sim.now(),
                                 session_start);
    core::LocalDecision decision =
        rule.choose(self, p0, p1, consumer, extras, resolver);
    if (!decision.unknown_pairs.empty() && services.probing_enabled()) {
      // Additional candidate links have to be monitored (§5); probe them,
      // then decide again with the samples this session gathered.
      for (const auto& [a, b] : decision.unknown_pairs) {
        co_await services.fetch_bandwidth(self, a, b);
      }
      core::CacheResolver fresh(services.bandwidth_cache(self), sim.now(),
                                session_start);
      decision = rule.choose(self, p0, p1, consumer, extras, fresh);
    }
    const obs::Obs& obs = services.observability();
    if (obs.decisions) {
      obs.decisions->record(sim.now(), "relocation",
                            decision.moved ? "local_move" : "local_stay",
                            services.params().session_id,
                            {{"op", op},
                             {"self", self},
                             {"chosen", decision.chosen},
                             {"local_cost", decision.local_cost}});
    }
    if (decision.moved) {
      if (services.faults_active() && !services.host_alive(decision.chosen)) {
        co_return;
      }
      co_await services.relocate_operator(op, decision.chosen);
    }
  }
};

}  // namespace

std::unique_ptr<AdaptationPolicy> make_adaptation_policy(
    core::AlgorithmKind kind) {
  switch (kind) {
    case core::AlgorithmKind::kDownloadAll:
      return std::make_unique<DownloadAllPolicy>();
    case core::AlgorithmKind::kOneShot:
      return std::make_unique<OneShotPolicy>();
    case core::AlgorithmKind::kGlobal:
      return std::make_unique<GlobalPolicy>();
    case core::AlgorithmKind::kLocal:
      return std::make_unique<LocalPolicy>();
    case core::AlgorithmKind::kGlobalOrder:
      return std::make_unique<OrderPolicy>(/*fix_at_client=*/false);
    case core::AlgorithmKind::kReorderOnly:
      return std::make_unique<OrderPolicy>(/*fix_at_client=*/true);
  }
  WADC_ASSERT(false, "unknown algorithm kind");
  return nullptr;
}

}  // namespace wadc::dataflow
