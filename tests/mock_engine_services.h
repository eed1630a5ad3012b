// A scriptable EngineServices for unit-testing adaptation policies and the
// change-over coordinator without constructing a full Engine. Hops succeed
// instantly (and are recorded), bandwidth comes from a pre-fillable cache,
// and relocation just rewrites the location table.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/placement.h"
#include "dataflow/engine_services.h"

namespace wadc::dataflow::testing {

class MockEngineServices : public EngineServices {
 public:
  struct HopRecord {
    net::HostId from;
    net::HostId to;
    double bytes;
    int priority;
  };
  struct RelocationRecord {
    core::OperatorId op;
    net::HostId to;
  };

  MockEngineServices(sim::Simulation& sim, const core::CombinationTree& tree,
                     EngineParams params)
      : sim_(sim),
        tree_(tree),
        params_(std::move(params)),
        cost_model_(tree, core::CostModelParams{}),
        links_(tree.num_hosts()),
        rng_(params_.seed),
        cache_(tree.num_hosts(), /*ttl_seconds=*/1e9),
        current_tree_(tree),
        current_placement_(core::Placement::all_at_client(tree)),
        locations_(static_cast<std::size_t>(tree.num_operators()),
                   tree.client_host()),
        critical_(static_cast<std::size_t>(tree.num_operators())) {
    const core::Placement start = core::Placement::all_at_client(tree);
    for (net::HostId h = 0; h < tree.num_hosts(); ++h) {
      directories_.push_back(std::make_unique<core::OperatorDirectory>(start));
    }
    alive_.assign(static_cast<std::size_t>(tree.num_hosts()), true);
  }

  // ---- test knobs --------------------------------------------------------
  // Gives the (single, shared) cache a measurement for every host pair, so
  // planners run with full knowledge and issue no probes. Bandwidths are
  // distinct per pair to keep the optimum placement unique.
  void fill_cache_all_pairs(double base_bandwidth) {
    for (net::HostId a = 0; a < tree_.num_hosts(); ++a) {
      for (net::HostId b = a + 1; b < tree_.num_hosts(); ++b) {
        cache_.record(a, b, base_bandwidth + 10.0 * a + b, sim_.now());
      }
    }
  }
  void set_host_alive(net::HostId h, bool alive) {
    alive_[static_cast<std::size_t>(h)] = alive;
  }
  void set_finished(bool finished) { finished_ = finished; }
  void set_faults_active(bool active) { faults_active_ = active; }
  void set_total_iterations(int n) { total_iterations_ = n; }
  void set_max_server_iteration(int n) { max_server_iteration_ = n; }
  void set_current_plan(core::CombinationTree tree,
                        core::Placement placement) {
    current_tree_ = std::move(tree);
    current_placement_ = std::move(placement);
  }
  void set_operator_location(core::OperatorId op, net::HostId h) {
    locations_[static_cast<std::size_t>(op)] = h;
  }

  const std::vector<HopRecord>& hops() const { return hops_; }
  const std::vector<RelocationRecord>& relocations() const {
    return relocations_;
  }
  int fetch_bandwidth_calls() const { return fetch_bandwidth_calls_; }

  // ---- EngineServices ----------------------------------------------------
  sim::Simulation& simulation() override { return sim_; }
  const EngineParams& params() const override { return params_; }
  const core::CombinationTree& base_tree() const override { return tree_; }
  const core::CostModel& cost_model() const override { return cost_model_; }
  int total_iterations() const override { return total_iterations_; }
  bool faults_active() const override { return faults_active_; }
  bool finished() const override { return finished_; }
  bool stopping() const override { return finished_; }
  bool host_alive(net::HostId h) const override {
    return alive_[static_cast<std::size_t>(h)];
  }
  const net::LinkTable& links() const override { return links_; }
  Rng& rng() override { return rng_; }
  sim::Task<bool> hop(net::HostId from, net::HostId to, double bytes,
                      int priority) override {
    hops_.push_back(HopRecord{from, to, bytes, priority});
    co_return true;
  }
  double retry_backoff(int) override { return 1.0; }
  monitor::BandwidthCache& bandwidth_cache(net::HostId) override {
    return cache_;
  }
  bool probing_enabled() const override { return probing_enabled_; }
  sim::Task<std::optional<double>> fetch_bandwidth(net::HostId, net::HostId,
                                                   net::HostId) override {
    ++fetch_bandwidth_calls_;
    co_return std::nullopt;
  }
  const core::CombinationTree& current_tree() const override {
    return current_tree_;
  }
  const core::Placement& current_placement() const override {
    return current_placement_;
  }
  net::HostId operator_location(core::OperatorId op) const override {
    return locations_[static_cast<std::size_t>(op)];
  }
  core::OperatorDirectory& directory(net::HostId h) override {
    return *directories_[static_cast<std::size_t>(h)];
  }
  CriticalPathState& critical_path_state(core::OperatorId op) override {
    return critical_[static_cast<std::size_t>(op)];
  }
  int client_next_iteration() const override { return client_next_iteration_; }
  int max_server_iteration() const override { return max_server_iteration_; }
  sim::Task<void> relocate_operator(core::OperatorId op,
                                    net::HostId to) override {
    relocations_.push_back(RelocationRecord{op, to});
    locations_[static_cast<std::size_t>(op)] = to;
    co_return;
  }
  RunStats& stats() override { return stats_; }
  const obs::Obs& observability() const override { return params_.obs; }

  RunStats stats_;
  bool probing_enabled_ = false;

 private:
  sim::Simulation& sim_;
  const core::CombinationTree& tree_;
  EngineParams params_;
  core::CostModel cost_model_;
  net::LinkTable links_;
  Rng rng_;
  monitor::BandwidthCache cache_;
  core::CombinationTree current_tree_;
  core::Placement current_placement_;
  std::vector<net::HostId> locations_;
  std::vector<CriticalPathState> critical_;
  std::vector<std::unique_ptr<core::OperatorDirectory>> directories_;
  std::vector<bool> alive_;
  std::vector<HopRecord> hops_;
  std::vector<RelocationRecord> relocations_;
  int fetch_bandwidth_calls_ = 0;
  int total_iterations_ = 100;
  int client_next_iteration_ = 0;
  int max_server_iteration_ = 0;
  bool finished_ = false;
  bool faults_active_ = false;
};

}  // namespace wadc::dataflow::testing
