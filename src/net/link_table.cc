#include "net/link_table.h"

#include <algorithm>

#include "common/assert.h"

namespace wadc::net {

LinkTable::LinkTable(int num_hosts)
    : num_hosts_(num_hosts), links_(pair_count(num_hosts)) {
  WADC_ASSERT(num_hosts >= 2, "a network needs at least two hosts");
}

void LinkTable::set_link(HostId a, HostId b,
                         const trace::BandwidthTrace* trace,
                         sim::SimTime offset_seconds) {
  WADC_ASSERT(trace != nullptr, "null trace");
  WADC_ASSERT(offset_seconds >= 0, "negative trace offset");
  Link& l = links_[pair_index(a, b, num_hosts_)];
  l.trace = trace;
  l.offset = offset_seconds;
}

bool LinkTable::has_link(HostId a, HostId b) const {
  return links_[pair_index(a, b, num_hosts_)].trace != nullptr;
}

const LinkTable::Link& LinkTable::link(HostId a, HostId b) const {
  const Link& l = links_[pair_index(a, b, num_hosts_)];
  WADC_ASSERT(l.trace != nullptr, "link {", a, ",", b, "} has no trace");
  return l;
}

double LinkTable::bandwidth_at(HostId a, HostId b, sim::SimTime t) const {
  const Link& l = link(a, b);
  return l.trace->at(l.offset + t);
}

sim::SimTime LinkTable::finish_time(HostId a, HostId b, sim::SimTime t0,
                                    double bytes) const {
  const Link& l = link(a, b);
  // Shifting into the trace and back rounds: when the transfer lasts less
  // than an ulp of offset + t0 (always, for 0 bytes), the difference can
  // land below t0. A transfer never finishes before it starts.
  return std::max(t0, l.trace->finish_time(l.offset + t0, bytes) - l.offset);
}

double LinkTable::average_bandwidth(HostId a, HostId b, sim::SimTime t0,
                                    sim::SimTime t1) const {
  const Link& l = link(a, b);
  return l.trace->average(l.offset + t0, l.offset + t1);
}

}  // namespace wadc::net
