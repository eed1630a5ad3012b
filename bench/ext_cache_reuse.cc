// Extension: cross-session reuse through the result cache (src/cache,
// docs/CACHING.md). Overlapping sessions over one shared network all
// combine the same partitions; with the cache enabled, whoever
// materializes a sub-tree first serves everyone else from the nearest
// replica and the pruned sub-trees ship nothing. The harness sweeps fleet
// size {1, 4, 8} x cache mode {off, lru, cost} over several network
// configurations and reports, per cell, the aggregate session throughput,
// mean response time, network bytes actually delivered, and the fabric hit
// ratio. The headline numbers — the 8-session throughput speedup and
// bytes-shipped reduction of cache-on (lru) over cache-off — are written
// to the JSON (default BENCH_ext_cache_reuse.json, deterministic for any
// --jobs value); CI regresses against them.
//
// The lru and cost modes run at two per-host capacities. 256 MiB holds
// every result and never evicts, so there the two policies cannot differ;
// 8 MiB is smaller than the working set, so the eviction policy decides
// what stays cached (modes lru-8m and cost-8m).
//
// Arrivals are staggered at ~40% of the measured unloaded response time,
// so sessions overlap (contending for links) while later arrivals find a
// warm cache — the cross-session reuse scenario, not a cold-start race.
//
// --fault-spec=FILE composes a fault schedule into every run (replica
// invalidation under crashes included). Environment knobs: WADC_CONFIGS,
// WADC_SEED.
#include <cstdio>
#include <exception>
#include <iomanip>
#include <ostream>
#include <string>
#include <vector>

#include "cache/cache_config.h"
#include "common/output_file.h"
#include "common/parse.h"
#include "exp/bench_support.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "fault/spec_io.h"
#include "obs/metrics.h"
#include "session/session_spec.h"
#include "session/session_stats.h"
#include "trace/library.h"
#include "trace/stats.h"

namespace {

// Data servers in every run (the client makes one more host).
constexpr int kServers = 5;

struct ModeUnderTest {
  const char* name;
  bool enabled;
  wadc::cache::EvictionPolicy policy;
  std::uint64_t capacity_bytes;  // per host
};

// Per-(mode, fleet) aggregates over the configurations.
struct Cell {
  double aggregate_throughput = 0;  // sum of per-session images/s, mean
  double mean_response_seconds = 0;
  double network_bytes = 0;
  double hit_ratio = 0;
  double bytes_saved = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace wadc;

  std::string fault_spec_path;
  std::string curves_out = "BENCH_ext_cache_reuse.json";
  exp::BenchHarness bench(
      argc, argv, "ext_cache_reuse",
      {{path_flag("--out", curves_out),
        "  --out=FILE         reuse-sweep JSON (default "
        "BENCH_ext_cache_reuse.json)"},
       {path_flag("--fault-spec", fault_spec_path),
        "  --fault-spec=FILE  compose a fault schedule into every run "
        "(docs/FAULTS.md)"}});

  fault::FaultSpec fault;
  if (!fault_spec_path.empty()) {
    try {
      fault = fault::load_fault_spec_file(fault_spec_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ext_cache_reuse: %s\n", e.what());
      return 2;
    }
    if (const std::string problem = fault.validate(kServers + 1);
        !problem.empty()) {
      std::fprintf(stderr, "ext_cache_reuse: bad fault spec: %s\n",
                   problem.c_str());
      return 2;
    }
  }

  const trace::TraceLibrary library(trace::TraceLibraryParams{}, 2026);
  const int configs = exp::env_configs(4);
  const std::uint64_t base_seed = exp::env_seed(1000);
  const int jobs = exp::resolve_jobs(bench.jobs());
  constexpr std::uint64_t kCapacityBytes = 256ull << 20;  // never evicts
  constexpr std::uint64_t kPressureBytes = 8ull << 20;    // evicts

  const std::vector<ModeUnderTest> modes = {
      {"off", false, cache::EvictionPolicy::kLru, 0},
      {"lru", true, cache::EvictionPolicy::kLru, kCapacityBytes},
      {"cost", true, cache::EvictionPolicy::kCost, kCapacityBytes},
      {"lru-8m", true, cache::EvictionPolicy::kLru, kPressureBytes},
      {"cost-8m", true, cache::EvictionPolicy::kCost, kPressureBytes},
  };
  const std::vector<int> fleets = {1, 4, 8};
  const int num_modes = static_cast<int>(modes.size());
  const int num_fleets = static_cast<int>(fleets.size());

  const auto make_spec = [&](int c, const ModeUnderTest& mode) {
    exp::ExperimentSpec spec;
    spec.algorithm = core::AlgorithmKind::kGlobal;
    spec.num_servers = kServers;
    spec.iterations = 30;
    spec.relocation_period_seconds = 300;
    spec.config_seed = base_seed + static_cast<std::uint64_t>(c);
    spec.fault = fault;
    spec.cache.enabled = mode.enabled;
    spec.cache.capacity_bytes = mode.capacity_bytes;
    spec.cache.policy = mode.policy;
    return spec;
  };

  std::printf("=== Extension: cross-session reuse via the result cache, "
              "%d configurations per cell ===\n\n",
              configs);

  // ---- unloaded baseline, anchors the arrival stagger --------------------
  std::vector<session::SessionStats> solo(static_cast<std::size_t>(configs));
  exp::parallel_for(configs, jobs, [&](int c) {
    solo[static_cast<std::size_t>(c)] = exp::run_session_experiment(
        library, make_spec(c, modes[0]),
        session::SessionSpec::concurrent_clients(1));
  });
  std::vector<double> solo_responses;
  solo_responses.reserve(static_cast<std::size_t>(configs));
  for (const session::SessionStats& st : solo) {
    solo_responses.push_back(st.mean_response_seconds());
  }
  bench.add_runs(configs);
  const double unloaded_mean = trace::mean_of(solo_responses);
  const double stagger = 0.4 * unloaded_mean;
  std::printf("unloaded response: mean %.1f s; arrival stagger %.1f s\n\n",
              unloaded_mean, stagger);

  const auto make_arrivals = [&](int fleet) {
    session::SessionSpec sessions;
    sessions.mode = session::ArrivalMode::kExplicit;
    for (int i = 0; i < fleet; ++i) {
      session::ExplicitArrival a;
      a.arrival_seconds = stagger * i;
      a.id = i;
      sessions.arrivals.push_back(a);
    }
    return sessions;
  };

  // Every (mode, fleet, configuration) cell is an independent session run;
  // index-keyed result slots keep output byte-identical for any jobs count.
  struct RunOutcome {
    session::SessionStats stats;
    double hits = 0, misses = 0, bytes_saved = 0;
  };
  const int total = num_modes * num_fleets * configs;
  std::vector<RunOutcome> outcomes(static_cast<std::size_t>(total));
  exp::parallel_for(total, jobs, [&](int idx) {
    const int c = idx % configs;
    const int k = (idx / configs) % num_fleets;
    const int m = idx / (configs * num_fleets);
    obs::MetricsRegistry metrics;
    exp::ExperimentSpec spec = make_spec(c, modes[static_cast<std::size_t>(m)]);
    spec.obs.metrics = &metrics;
    RunOutcome& out = outcomes[static_cast<std::size_t>(idx)];
    out.stats = exp::run_session_experiment(
        library, spec, make_arrivals(fleets[static_cast<std::size_t>(k)]));
    out.hits = metrics.counter("cache.hits").value();
    out.misses = metrics.counter("cache.misses").value();
    out.bytes_saved = metrics.counter("cache.bytes_saved").value();
  });
  for (const int fleet : fleets) bench.add_runs(configs * fleet * num_modes);

  // ---- aggregate the cells ----------------------------------------------
  std::vector<std::vector<Cell>> cells(static_cast<std::size_t>(num_modes));
  for (int m = 0; m < num_modes; ++m) {
    for (int k = 0; k < num_fleets; ++k) {
      std::vector<double> tput, resp, bytes, ratio, saved;
      for (int c = 0; c < configs; ++c) {
        const RunOutcome& out = outcomes[static_cast<std::size_t>(
            (m * num_fleets + k) * configs + c)];
        tput.push_back(out.stats.aggregate_throughput());
        resp.push_back(out.stats.mean_response_seconds());
        bytes.push_back(out.stats.network_bytes_delivered);
        const double lookups = out.hits + out.misses;
        ratio.push_back(lookups > 0 ? out.hits / lookups : 0.0);
        saved.push_back(out.bytes_saved);
      }
      Cell cell;
      cell.aggregate_throughput = trace::mean_of(tput);
      cell.mean_response_seconds = trace::mean_of(resp);
      cell.network_bytes = trace::mean_of(bytes);
      cell.hit_ratio = trace::mean_of(ratio);
      cell.bytes_saved = trace::mean_of(saved);
      cells[static_cast<std::size_t>(m)].push_back(cell);
    }
  }

  std::printf("mode\tsessions\tagg_throughput_img_s\tmean_response_s\t"
              "network_bytes\thit_ratio\tbytes_saved\n");
  for (int m = 0; m < num_modes; ++m) {
    for (int k = 0; k < num_fleets; ++k) {
      const Cell& cell =
          cells[static_cast<std::size_t>(m)][static_cast<std::size_t>(k)];
      std::printf("%s\t%d\t%.6f\t%.1f\t%.0f\t%.3f\t%.0f\n",
                  modes[static_cast<std::size_t>(m)].name,
                  fleets[static_cast<std::size_t>(k)],
                  cell.aggregate_throughput, cell.mean_response_seconds,
                  cell.network_bytes, cell.hit_ratio, cell.bytes_saved);
    }
    std::fflush(stdout);
  }

  // Headline: cache-on (lru) vs cache-off at the deepest fleet.
  const int deep = num_fleets - 1;
  const Cell& off8 = cells[0][static_cast<std::size_t>(deep)];
  const Cell& lru8 = cells[1][static_cast<std::size_t>(deep)];
  const double speedup = off8.aggregate_throughput > 0
                             ? lru8.aggregate_throughput /
                                   off8.aggregate_throughput
                             : 0.0;
  const double bytes_reduction =
      off8.network_bytes > 0
          ? 1.0 - lru8.network_bytes / off8.network_bytes
          : 0.0;
  std::printf("\nat %d overlapping sessions: cache-on (lru) aggregate "
              "throughput %.2fx cache-off, network bytes down %.1f%%, "
              "hit ratio %.1f%%\n",
              fleets[static_cast<std::size_t>(deep)], speedup,
              100.0 * bytes_reduction, 100.0 * lru8.hit_ratio);
  // Under eviction pressure the policy decides: cost against lru.
  const Cell& lru_small = cells[3][static_cast<std::size_t>(deep)];
  const Cell& cost_small = cells[4][static_cast<std::size_t>(deep)];
  std::printf("at %d overlapping sessions with 8 MiB per host: cost %.4f "
              "images/s, lru %.4f images/s (%.2fx)\n",
              fleets[static_cast<std::size_t>(deep)],
              cost_small.aggregate_throughput, lru_small.aggregate_throughput,
              cost_small.aggregate_throughput /
                  lru_small.aggregate_throughput);

  // ---- the deterministic reuse-sweep JSON -------------------------------
  try {
    write_file(curves_out, [&](std::ostream& f) {
      f << std::fixed << std::setprecision(6);
      f << "{\n  \"name\": \"ext_cache_reuse\",\n";
      f << "  \"configs\": " << configs << ",\n";
      f << "  \"capacity_bytes\": " << kCapacityBytes << ",\n";
      f << "  \"fault_spec\": \"" << fault_spec_path << "\",\n";
      f << "  \"unloaded_mean_response_seconds\": " << unloaded_mean << ",\n"
        << "  \"arrival_stagger_seconds\": " << stagger << ",\n";
      f << "  \"speedup_at_" << fleets[static_cast<std::size_t>(deep)]
        << "_sessions\": " << speedup << ",\n";
      f << "  \"bytes_reduction_at_" << fleets[static_cast<std::size_t>(deep)]
        << "_sessions\": " << bytes_reduction << ",\n";
      f << "  \"modes\": [\n";
      for (int m = 0; m < num_modes; ++m) {
        const ModeUnderTest& mode = modes[static_cast<std::size_t>(m)];
        f << "    {\"mode\": \"" << mode.name << "\", \"capacity_bytes\": "
          << mode.capacity_bytes << ", \"cells\": [\n";
        for (int k = 0; k < num_fleets; ++k) {
          const Cell& cell =
              cells[static_cast<std::size_t>(m)][static_cast<std::size_t>(k)];
          f << "      {\"sessions\": " << fleets[static_cast<std::size_t>(k)]
            << ", \"aggregate_throughput\": " << cell.aggregate_throughput
            << ", \"mean_response_seconds\": " << cell.mean_response_seconds
            << ", \"network_bytes\": " << cell.network_bytes
            << ", \"hit_ratio\": " << cell.hit_ratio
            << ", \"bytes_saved\": " << cell.bytes_saved << "}"
            << (k + 1 < num_fleets ? "," : "") << "\n";
        }
        f << "    ]}" << (m + 1 < num_modes ? "," : "") << "\n";
      }
      f << "  ]\n}\n";
    });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ext_cache_reuse: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "[bench] ext_cache_reuse: reuse sweep -> %s\n",
               curves_out.c_str());

  return bench.finish(jobs);
}
