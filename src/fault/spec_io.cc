#include "fault/spec_io.h"

#include "common/parse.h"

namespace wadc::fault {

constexpr const char* kSpec = "fault spec";

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  for_each_spec_line(kSpec, text, [&spec](SpecLine& line) {
    const std::string keyword = line.word("keyword");
    if (keyword == "drop") {
      spec.drop_probability = line.read<double>("drop probability");
    } else if (keyword == "crash") {
      HostCrash c;
      c.host = line.read<int>("host id");
      c.at = line.read<double>("crash time");
      if (const auto restart = line.read_optional<double>("restart time")) {
        c.restart_at = *restart;
      }
      spec.crashes.push_back(c);
    } else if (keyword == "blackout") {
      LinkBlackout b;
      b.a = line.read<int>("host id");
      b.b = line.read<int>("host id");
      b.begin = line.read<double>("blackout begin");
      b.end = line.read<double>("blackout end");
      spec.blackouts.push_back(b);
    } else if (keyword == "rate") {
      const std::string what = line.word("'crash' or 'blackout'");
      if (what == "crash") {
        spec.random.crash_rate_per_hour =
            line.read<double>("crash rate per hour");
        spec.random.mean_downtime_seconds =
            line.read<double>("mean downtime seconds");
      } else if (what == "blackout") {
        spec.random.blackout_rate_per_hour =
            line.read<double>("blackout rate per hour");
        spec.random.mean_blackout_seconds =
            line.read<double>("mean blackout seconds");
      } else {
        line.fail("unknown rate kind '" + what + "'");
      }
    } else if (keyword == "horizon") {
      spec.random.horizon_seconds = line.read<double>("horizon seconds");
    } else if (keyword == "protect_client") {
      spec.random.protect_client = line.read<int>("0 or 1") != 0;
    } else {
      line.fail("unknown keyword '" + keyword + "'");
    }
  });
  return spec;
}

FaultSpec load_fault_spec_file(const std::string& path) {
  return parse_fault_spec(read_spec_file(kSpec, path));
}

}  // namespace wadc::fault
