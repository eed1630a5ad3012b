// Placement cost model and branch-and-bound critical path.
//
// "The execution time is governed by the length of the critical path of the
// data-flow tree. Critical path is defined as the length of the longest
// path from a server to the final destination (the client). All three
// algorithms attempt to iteratively reduce the critical path" (§2).
//
// A root-to-server path costs: disk read at the server, plus for every hop
// (server→operator, operator→operator, root→client) a transfer cost of
// startup + bytes/bandwidth (zero when co-located), plus the composition
// compute cost at each operator on the path.
//
// The critical path is computed with branch and bound (§2.1): subtrees are
// explored in decreasing upper-bound order and a sibling subtree whose
// optimistic upper bound cannot exceed an already-resolved sibling's exact
// cost is skipped *without resolving its links' bandwidth* — this is why
// "only a subset of the links need to be measured".
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "core/bandwidth_resolver.h"
#include "core/combination_tree.h"
#include "core/placement.h"

namespace wadc::core {

struct CostModelParams {
  double startup_seconds = 0.05;          // 50 ms message startup (§4)
  double partition_bytes = 128.0 * 1024;  // expected image size (§4)
  double compute_seconds_per_byte = 7e-6; // 7 us/pixel, one byte per pixel
  double disk_bytes_per_second = 3.0e6;   // 3 MB/s (§4)
  // Bandwidth assumed for links with no measurement: pessimistic, so it is
  // simultaneously (a) the safe upper bound used by branch and bound and
  // (b) an incentive for the planning driver to probe unknown links that
  // actually matter. Must not exceed the lowest bandwidth that can occur
  // (the trace generator floors at 500 B/s), or branch-and-bound pruning
  // would no longer be safe.
  double pessimistic_bandwidth = 400.0;
};

class CostModel {
  // Per-operator scratch of one walk: the optimistic upper bound on the
  // path cost through the operator's output, and which input (0 = left,
  // 1 = right) carries the critical path into it.
  struct OpScratch {
    double bound = 0;
    int best_input = -1;
  };

 public:
  // The model reads `tree`'s shape once, here; the tree must outlive it.
  CostModel(const CombinationTree& tree, const CostModelParams& params);

  const CombinationTree& tree() const { return tree_; }
  const CostModelParams& params() const { return params_; }

  // Cost of one composition (seconds of CPU per partition).
  double compute_cost() const;
  // Cost of reading one partition from disk.
  double disk_cost() const;
  // Transfer cost of one partition between two hosts; 0 when co-located.
  // Unknown bandwidth falls back to the pessimistic estimate, and the pair
  // is added to `unknown` when non-null.
  double edge_cost(net::HostId from, net::HostId to, BandwidthResolver& r,
                   std::set<HostPair>* unknown) const;

  struct CriticalPathResult {
    double cost = 0;
    // Operators on the critical path, listed from the root down to the
    // operator adjacent to the critical server.
    std::vector<OperatorId> path;
    int critical_server = -1;
    // Pairs whose bandwidth was needed but unknown (pessimistic fallback).
    std::set<HostPair> unknown_pairs;
    // Branch-and-bound statistics.
    std::uint64_t subtrees_pruned = 0;
    std::uint64_t edges_resolved = 0;
  };

  CriticalPathResult critical_path(const Placement& p,
                                   BandwidthResolver& r) const;

  // Convenience: critical-path cost only.
  double placement_cost(const Placement& p, BandwidthResolver& r) const {
    return critical_path(p, r).cost;
  }

  // Edge costs by host pair for one planning pass, plus the walk's
  // per-operator scratch. Each pair goes to the resolver at most once, and
  // an unknown pair is added to `unknown` (when non-null) the first time
  // only. Valid only while the resolver's answers cannot change: for the
  // span of one synchronous OneShotPlanner::plan() (bandwidth_resolver.h).
  class EdgeMemo {
   public:
    EdgeMemo(const CostModel& model, BandwidthResolver& r,
             std::set<HostPair>* unknown);

   private:
    friend class CostModel;
    BandwidthResolver& resolver_;
    std::set<HostPair>* unknown_;
    std::vector<double> costs_;  // by net::pair_index; < 0 = not asked yet
    std::vector<OpScratch> ops_;
  };

  // The critical-path cost of `p`, with its edges costed through `memo`.
  // It runs the same walk as critical_path(), so the two costs are
  // bit-identical. When `path` is non-null it receives the critical path's
  // operators, root first. Allocates nothing beyond `path`'s growth.
  double critical_path_cost(const Placement& p, EdgeMemo& memo,
                            std::vector<OperatorId>* path = nullptr) const;

 private:
  // One input of an operator as the walk reads it: an operator, or
  // kNoOperator for a server together with the server's host.
  struct Input {
    OperatorId op = kNoOperator;
    net::HostId server_host = net::kInvalidHost;
  };
  struct Walk;

  // The branch-and-bound walk (§2.1): upper bounds bottom-up, then the
  // exact cost from the root, exploring the input with the larger bound
  // first and skipping the other — without resolving its links'
  // bandwidth — when its bound cannot beat the first input's exact cost.
  double walk(Walk& w) const;
  // Exact longest path from any server below `op` to `op`'s output.
  double subtree_cost(OperatorId op, Walk& w) const;
  double walk_edge(net::HostId from, net::HostId to, Walk& w) const;
  // Fills `path` from the walk's best-input marks; returns the critical
  // server.
  int trace_path(const OpScratch* ops, std::vector<OperatorId>& path) const;

  const CombinationTree& tree_;
  CostModelParams params_;
  std::vector<std::array<Input, 2>> inputs_;  // by OperatorId
};

}  // namespace wadc::core
