// Unit tests for the network model: link tables, transfer timing, endpoint
// congestion (single NIC) and message priority.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "net/link_table.h"
#include "net/network.h"
#include "net/types.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "trace/bandwidth_trace.h"

namespace wadc::net {
namespace {

TEST(PairIndex, IsSymmetric) {
  EXPECT_EQ(pair_index(2, 5, 9), pair_index(5, 2, 9));
}

TEST(PairIndex, IsABijectionOverAllPairs) {
  const int n = 9;
  std::vector<int> seen(pair_count(n), 0);
  for (HostId a = 0; a < n; ++a) {
    for (HostId b = a + 1; b < n; ++b) {
      const std::size_t idx = pair_index(a, b, n);
      ASSERT_LT(idx, seen.size());
      ++seen[idx];
    }
  }
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TEST(PairIndex, CountMatchesFormula) {
  EXPECT_EQ(pair_count(2), 1u);
  EXPECT_EQ(pair_count(9), 36u);
  EXPECT_EQ(pair_count(33), 528u);
}

class LinkTableTest : public ::testing::Test {
 protected:
  LinkTableTest() : fast_(10.0, {1000.0}), slow_(10.0, {100.0, 50.0}) {}
  trace::BandwidthTrace fast_;
  trace::BandwidthTrace slow_;
};

TEST_F(LinkTableTest, StoresAndReadsBandwidth) {
  LinkTable table(3);
  table.set_link(0, 1, &fast_);
  table.set_link(1, 2, &slow_);
  EXPECT_TRUE(table.has_link(0, 1));
  EXPECT_FALSE(table.has_link(0, 2));
  EXPECT_DOUBLE_EQ(table.bandwidth_at(0, 1, 5.0), 1000.0);
  EXPECT_DOUBLE_EQ(table.bandwidth_at(2, 1, 15.0), 50.0);  // symmetric
}

TEST_F(LinkTableTest, OffsetShiftsIntoTheTrace) {
  LinkTable table(2);
  table.set_link(0, 1, &slow_, /*offset=*/10.0);
  // At sim time 0 the link reads the trace at 10 s -> second sample.
  EXPECT_DOUBLE_EQ(table.bandwidth_at(0, 1, 0.0), 50.0);
}

TEST_F(LinkTableTest, FinishTimeAccountsForOffset) {
  LinkTable table(2);
  table.set_link(0, 1, &slow_, /*offset=*/5.0);
  // At sim t=0 trace t=5: 5 s left at 100 B/s (500 B), then 50 B/s.
  EXPECT_DOUBLE_EQ(table.finish_time(0, 1, 0.0, 750.0), 10.0);
}

// ---- Network ----------------------------------------------------------------

struct NetFixture {
  NetFixture(double bw01, double bw02 = 1000, double bw12 = 1000)
      : t01(10.0, {bw01}),
        t02(10.0, {bw02}),
        t12(10.0, {bw12}),
        links(3),
        network{} {
    links.set_link(0, 1, &t01);
    links.set_link(0, 2, &t02);
    links.set_link(1, 2, &t12);
    network = std::make_unique<Network>(sim, links, NetworkParams{});
  }
  sim::Simulation sim;
  trace::BandwidthTrace t01, t02, t12;
  LinkTable links;
  std::unique_ptr<Network> network;
};

TEST(Network, TransferTimeIsStartupPlusBytesOverBandwidth) {
  NetFixture f(/*bw01=*/1000);
  TransferRecord rec;
  f.sim.spawn([](Network& n, TransferRecord& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 2000.0);
  }(*f.network, rec));
  f.sim.run();
  EXPECT_DOUBLE_EQ(rec.started, 0.0);
  EXPECT_DOUBLE_EQ(rec.completed, 0.05 + 2.0);  // 50 ms startup + 2 s
  EXPECT_NEAR(rec.app_bandwidth(), 2000.0 / 2.05, 1e-9);
}

TEST(Network, LocalTransferIsInstant) {
  NetFixture f(1000);
  TransferRecord rec;
  f.sim.spawn([](Network& n, TransferRecord& out) -> sim::Task<> {
    out = co_await n.transfer(1, 1, 1e9);
  }(*f.network, rec));
  f.sim.run();
  EXPECT_DOUBLE_EQ(rec.completed, 0.0);
}

TEST(Network, SingleNicSerializesTransfersAtAHost) {
  // Two senders (1 and 2) to the same receiver 0: second must wait.
  NetFixture f(/*bw01=*/1000, /*bw02=*/1000);
  std::vector<TransferRecord> recs(2);
  f.sim.spawn([](Network& n, TransferRecord& out) -> sim::Task<> {
    out = co_await n.transfer(1, 0, 1000.0);
  }(*f.network, recs[0]));
  f.sim.spawn([](Network& n, TransferRecord& out) -> sim::Task<> {
    out = co_await n.transfer(2, 0, 1000.0);
  }(*f.network, recs[1]));
  f.sim.run();
  // First: 0.05 + 1 = 1.05; second starts at 1.05, ends at 2.10.
  EXPECT_DOUBLE_EQ(recs[0].completed, 1.05);
  EXPECT_DOUBLE_EQ(recs[1].started, 1.05);
  EXPECT_DOUBLE_EQ(recs[1].completed, 2.10);
  EXPECT_DOUBLE_EQ(recs[1].queue_wait(), 1.05);
}

TEST(Network, DisjointPairsTransferConcurrently) {
  // 0->1 and a self-contained 2->... need 4 hosts for disjoint pairs.
  sim::Simulation sim;
  trace::BandwidthTrace tr(10.0, {1000.0});
  LinkTable links(4);
  for (HostId a = 0; a < 4; ++a) {
    for (HostId b = a + 1; b < 4; ++b) links.set_link(a, b, &tr);
  }
  Network network(sim, links, NetworkParams{});
  std::vector<TransferRecord> recs(2);
  sim.spawn([](Network& n, TransferRecord& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 1000.0);
  }(network, recs[0]));
  sim.spawn([](Network& n, TransferRecord& out) -> sim::Task<> {
    out = co_await n.transfer(2, 3, 1000.0);
  }(network, recs[1]));
  sim.run();
  EXPECT_DOUBLE_EQ(recs[0].completed, 1.05);
  EXPECT_DOUBLE_EQ(recs[1].completed, 1.05);  // no interference
}

TEST(Network, TransferHoldsBothEndpoints) {
  // While 0->1 is active, 1->2 must wait even though 2 is idle.
  NetFixture f(1000, 1000, 1000);
  std::vector<TransferRecord> recs(2);
  f.sim.spawn([](Network& n, TransferRecord& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 1000.0);
  }(*f.network, recs[0]));
  f.sim.spawn([](sim::Simulation& s, Network& n,
                 TransferRecord& out) -> sim::Task<> {
    co_await s.delay(0.1);
    out = co_await n.transfer(1, 2, 1000.0);
  }(f.sim, *f.network, recs[1]));
  f.sim.run();
  EXPECT_DOUBLE_EQ(recs[1].started, 1.05);
}

TEST(Network, HighPriorityOvertakesQueuedTransfers) {
  // Host 0 busy; a data transfer and then a control transfer queue up.
  // The control transfer must start first.
  NetFixture f(1000, 1000, 1000);
  std::vector<TransferRecord> recs(3);
  f.sim.spawn([](Network& n, TransferRecord& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 1000.0);  // busy until 1.05
  }(*f.network, recs[0]));
  f.sim.spawn([](sim::Simulation& s, Network& n,
                 TransferRecord& out) -> sim::Task<> {
    co_await s.delay(0.1);
    out = co_await n.transfer(0, 2, 1000.0, kDataPriority);
  }(f.sim, *f.network, recs[1]));
  f.sim.spawn([](sim::Simulation& s, Network& n,
                 TransferRecord& out) -> sim::Task<> {
    co_await s.delay(0.2);  // arrives after the data transfer
    out = co_await n.transfer(0, 2, 100.0, kControlPriority);
  }(f.sim, *f.network, recs[2]));
  f.sim.run();
  EXPECT_DOUBLE_EQ(recs[2].started, 1.05);      // control first
  EXPECT_GE(recs[1].started, recs[2].completed);  // data after control
}

TEST(Network, InProgressTransferIsNotPreempted) {
  NetFixture f(1000, 1000, 1000);
  std::vector<TransferRecord> recs(2);
  f.sim.spawn([](Network& n, TransferRecord& out) -> sim::Task<> {
    out = co_await n.transfer(0, 1, 10000.0);  // long data transfer
  }(*f.network, recs[0]));
  f.sim.spawn([](sim::Simulation& s, Network& n,
                 TransferRecord& out) -> sim::Task<> {
    co_await s.delay(1.0);
    out = co_await n.transfer(0, 2, 100.0, kControlPriority);
  }(f.sim, *f.network, recs[1]));
  f.sim.run();
  EXPECT_DOUBLE_EQ(recs[0].completed, 10.05);
  EXPECT_DOUBLE_EQ(recs[1].started, 10.05);  // waited for completion
}

TEST(Network, BandwidthChangeMidTransferIsHonored) {
  sim::Simulation sim;
  trace::BandwidthTrace tr(10.0, {100.0, 200.0});
  LinkTable links(2);
  links.set_link(0, 1, &tr);
  NetworkParams params;
  params.startup_seconds = 0;  // simplify arithmetic
  Network network(sim, links, params);
  TransferRecord rec;
  sim.spawn([](Network& n, TransferRecord& out) -> sim::Task<> {
    // 1500 B from t=5: 500 B at 100 B/s (5 s), 1000 B at 200 B/s (5 s).
    out = co_await n.transfer(0, 1, 1500.0);
  }(network, rec));
  sim.schedule_at(5.0, [] {});  // make sure nothing else runs first
  sim.run();
  // The transfer starts at t=0 though: 1000 B at 100 (10 s) + 500 at 200
  // (2.5 s) = 12.5 s.
  EXPECT_DOUBLE_EQ(rec.completed, 12.5);
}

TEST(Network, ObserversSeeCompletedTransfers) {
  NetFixture f(1000);
  std::vector<TransferRecord> observed;
  f.network->add_observer(
      {[](void* ctx, const TransferRecord& r) {
         static_cast<std::vector<TransferRecord>*>(ctx)->push_back(r);
       },
       &observed});
  f.sim.spawn([](Network& n) -> sim::Task<> {
    co_await n.transfer(0, 1, 500.0);
    co_await n.transfer(1, 2, 700.0);
  }(*f.network));
  f.sim.run();
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_DOUBLE_EQ(observed[0].bytes, 500.0);
  EXPECT_DOUBLE_EQ(observed[1].bytes, 700.0);
  EXPECT_EQ(f.network->transfers_completed(), 2u);
  EXPECT_DOUBLE_EQ(f.network->bytes_delivered(), 1200.0);
}

TEST(Network, FifoAmongEqualPriority) {
  NetFixture f(1000, 1000, 1000);
  std::vector<int> completion_order;
  for (int i = 0; i < 3; ++i) {
    f.sim.spawn([](sim::Simulation& s, Network& n, std::vector<int>& order,
                   int id) -> sim::Task<> {
      co_await s.delay(0.01 * id);
      co_await n.transfer(0, 1, 100.0);
      order.push_back(id);
    }(f.sim, *f.network, completion_order, i));
  }
  f.sim.run();
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2}));
}

TEST(Network, CapacityTwoAllowsConcurrentTransfersAtAHost) {
  sim::Simulation sim;
  trace::BandwidthTrace tr(10.0, {1000.0});
  LinkTable links(3);
  for (HostId a = 0; a < 3; ++a) {
    for (HostId b = a + 1; b < 3; ++b) links.set_link(a, b, &tr);
  }
  NetworkParams params;
  params.host_capacity = 2;
  Network network(sim, links, params);
  std::vector<TransferRecord> recs(2);
  sim.spawn([](Network& n, TransferRecord& out) -> sim::Task<> {
    out = co_await n.transfer(1, 0, 1000.0);
  }(network, recs[0]));
  sim.spawn([](Network& n, TransferRecord& out) -> sim::Task<> {
    out = co_await n.transfer(2, 0, 1000.0);
  }(network, recs[1]));
  sim.run();
  // With two interfaces at host 0, both transfers run concurrently.
  EXPECT_DOUBLE_EQ(recs[0].completed, 1.05);
  EXPECT_DOUBLE_EQ(recs[1].completed, 1.05);
}

TEST(Network, CapacityTwoStillQueuesTheThird) {
  sim::Simulation sim;
  trace::BandwidthTrace tr(10.0, {1000.0});
  LinkTable links(4);
  for (HostId a = 0; a < 4; ++a) {
    for (HostId b = a + 1; b < 4; ++b) links.set_link(a, b, &tr);
  }
  NetworkParams params;
  params.host_capacity = 2;
  Network network(sim, links, params);
  std::vector<TransferRecord> recs(3);
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Network& n, TransferRecord& out, HostId src) -> sim::Task<> {
      out = co_await n.transfer(src, 0, 1000.0);
    }(network, recs[static_cast<std::size_t>(i)], static_cast<HostId>(i + 1)));
  }
  sim.run();
  EXPECT_DOUBLE_EQ(recs[0].completed, 1.05);
  EXPECT_DOUBLE_EQ(recs[1].completed, 1.05);
  EXPECT_DOUBLE_EQ(recs[2].started, 1.05);  // waited for a free slot
  EXPECT_EQ(network.host_active_transfers(0), 0);
}

TEST(Network, HostBusyReflectsActiveTransfer) {
  NetFixture f(1000);
  f.sim.spawn([](Network& n) -> sim::Task<> {
    co_await n.transfer(0, 1, 1000.0);
  }(*f.network));
  f.sim.run(0.5);
  EXPECT_TRUE(f.network->host_busy(0));
  EXPECT_TRUE(f.network->host_busy(1));
  EXPECT_FALSE(f.network->host_busy(2));
  f.sim.run();
  EXPECT_FALSE(f.network->host_busy(0));
}

// ---- Differential: admission against a full-rescan reference --------------
//
// ReferenceNetwork is the admission model with nothing incremental in it:
// one queue sorted by (priority desc, seq asc), rescanned in full after
// every enqueue, completion, timeout and fault change; active transfers in
// a std::map. Network must reproduce it exactly — same records, same
// resume and observer order, same queue-depth gauge — on seeded scripts of
// transfers with mixed priorities and deadlines, host crashes and
// restarts, link blackouts and drops. Each start consumes one drop draw,
// so a different start order shows up as different dropped transfers.

class ReferenceNetwork {
 public:
  struct Awaiter {
    ReferenceNetwork& net;
    TransferRecord record;
    double timeout;
    std::coroutine_handle<> waiter;

    bool await_ready() {
      record.requested = net.sim_.now();
      if (record.src != record.dst) return false;
      record.started = record.completed = record.requested;
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      waiter = h;
      net.enqueue(*this);
    }
    TransferRecord await_resume() const { return record; }
  };

  ReferenceNetwork(sim::Simulation& sim, const LinkTable& links,
                   const NetworkParams& params)
      : sim_(sim),
        links_(links),
        params_(params),
        active_count_(static_cast<std::size_t>(links.num_hosts()), 0),
        dead_(static_cast<std::size_t>(links.num_hosts()), false),
        blackout_(pair_count(links.num_hosts()), 0) {}

  Awaiter transfer(HostId src, HostId dst, double bytes, int priority,
                   double timeout) {
    TransferRecord r;
    r.src = src;
    r.dst = dst;
    r.bytes = bytes;
    r.priority = priority;
    return Awaiter{*this, r, timeout, {}};
  }

  void add_observer(Network::TransferObserver o) { observers_.push_back(o); }

  void set_drop_probability(double p, std::uint64_t seed) {
    drop_p_ = p;
    drop_rng_.emplace(Rng(seed).fork(0xd209));
  }

  void set_host_alive(HostId h, bool alive) {
    dead_[static_cast<std::size_t>(h)] = !alive;
    if (alive) {
      rescan();
      return;
    }
    std::vector<std::uint64_t> victims;
    for (const auto& [seq, e] : active_) {
      if (e.src == h || e.dst == h) victims.push_back(seq);
    }
    for (const std::uint64_t seq : victims) {
      if (active_.count(seq) != 0) {
        finish(seq, TransferOutcome::kFailed, false, false);
      }
    }
  }

  void set_link_blackout(HostId a, HostId b, bool on) {
    int& depth = blackout_[pair_index(a, b, links_.num_hosts())];
    if (!on) {
      if (--depth == 0) rescan();
      return;
    }
    ++depth;
    std::vector<std::uint64_t> victims;
    for (const auto& [seq, e] : active_) {
      if ((e.src == a && e.dst == b) || (e.src == b && e.dst == a)) {
        victims.push_back(seq);
      }
    }
    for (const std::uint64_t seq : victims) {
      if (active_.count(seq) != 0) {
        finish(seq, TransferOutcome::kFailed, false, false);
      }
    }
  }

  const obs::Gauge& pending_gauge() const { return gauge_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t timed_out() const { return timed_out_; }
  double delivered() const { return delivered_; }

 private:
  struct Entry {
    HostId src;
    HostId dst;
    double bytes;
    int priority;
    std::uint64_t seq;
    Awaiter* caller;
    sim::EventSeq completion;
    sim::EventSeq timeout;
    bool dropped;
  };

  void enqueue(Awaiter& t) {
    const std::uint64_t seq = next_seq_++;
    Entry e{t.record.src, t.record.dst,     t.record.bytes,
            t.record.priority, seq, &t, sim::kNoEventSeq, sim::kNoEventSeq,
            false};
    if (t.timeout != kNoTransferTimeout) {
      e.timeout = sim_.schedule_at_cancellable(
          sim_.now() + t.timeout, [this, seq] { on_timeout(seq); });
    }
    const auto at = std::find_if(
        pending_.begin(), pending_.end(),
        [&](const Entry& p) { return p.priority < e.priority; });
    pending_.insert(at, e);
    gauge_.set(static_cast<double>(pending_.size()));
    rescan();
  }

  bool startable(const Entry& e) const {
    const auto s = static_cast<std::size_t>(e.src);
    const auto d = static_cast<std::size_t>(e.dst);
    return active_count_[s] < params_.host_capacity &&
           active_count_[d] < params_.host_capacity && !dead_[s] &&
           !dead_[d] &&
           blackout_[pair_index(e.src, e.dst, links_.num_hosts())] == 0;
  }

  void rescan() {
    for (std::size_t i = 0; i < pending_.size();) {
      if (!startable(pending_[i])) {
        ++i;
        continue;
      }
      Entry e = pending_[i];
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      gauge_.set(static_cast<double>(pending_.size()));
      start(e);
    }
  }

  void start(Entry e) {
    ++active_count_[static_cast<std::size_t>(e.src)];
    ++active_count_[static_cast<std::size_t>(e.dst)];
    e.caller->record.started = sim_.now();
    e.dropped = drop_p_ > 0 && drop_rng_->bernoulli(drop_p_);
    const double end = links_.finish_time(
        e.src, e.dst, sim_.now() + params_.startup_seconds, e.bytes);
    const std::uint64_t seq = e.seq;
    e.completion = sim_.schedule_at_cancellable(end, [this, seq] {
      finish(seq,
             active_.at(seq).dropped ? TransferOutcome::kFailed
                                     : TransferOutcome::kCompleted,
             true, false);
    });
    active_.emplace(seq, e);
  }

  void on_timeout(std::uint64_t seq) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].seq != seq) continue;
      const Entry e = pending_[i];
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      gauge_.set(static_cast<double>(pending_.size()));
      TransferRecord& r = e.caller->record;
      r.started = r.completed = sim_.now();
      r.outcome = TransferOutcome::kTimedOut;
      ++timed_out_;
      resolve(*e.caller);
      return;
    }
    finish(seq, TransferOutcome::kTimedOut, false, true);
  }

  void finish(std::uint64_t seq, TransferOutcome outcome,
              bool completion_fired, bool timeout_fired) {
    const auto it = active_.find(seq);
    const Entry e = it->second;
    active_.erase(it);
    if (!completion_fired) sim_.cancel_scheduled(e.completion);
    if (!timeout_fired) sim_.cancel_scheduled(e.timeout);
    --active_count_[static_cast<std::size_t>(e.src)];
    --active_count_[static_cast<std::size_t>(e.dst)];
    TransferRecord& r = e.caller->record;
    r.completed = sim_.now();
    r.outcome = outcome;
    if (outcome == TransferOutcome::kCompleted) {
      ++completed_;
      delivered_ += r.bytes;
    } else if (outcome == TransferOutcome::kTimedOut) {
      ++timed_out_;
    } else {
      ++failed_;
    }
    resolve(*e.caller);
    rescan();
  }

  void resolve(const Awaiter& t) {
    for (const auto& o : observers_) o.fn(o.ctx, t.record);
    const std::coroutine_handle<> h = t.waiter;
    sim_.schedule_at(sim_.now(), [h] { h.resume(); });
  }

  sim::Simulation& sim_;
  const LinkTable& links_;
  NetworkParams params_;
  std::vector<int> active_count_;
  std::vector<bool> dead_;
  std::vector<int> blackout_;
  std::vector<Entry> pending_;
  std::map<std::uint64_t, Entry> active_;
  std::vector<Network::TransferObserver> observers_;
  std::uint64_t next_seq_ = 0;
  double drop_p_ = 0;
  std::optional<Rng> drop_rng_;
  obs::Gauge gauge_;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t timed_out_ = 0;
  double delivered_ = 0;
};

struct ScriptedTransfer {
  double at;
  HostId src;
  HostId dst;
  double bytes;  // unique per transfer: identifies it in observer order
  int priority;
  double timeout;
};

struct ScriptedFault {
  double at;
  enum Kind { kHostDown, kHostUp, kBlackoutBegin, kBlackoutEnd } kind;
  HostId a;
  HostId b;
};

struct Script {
  int hosts = 0;
  NetworkParams params;
  double drop = 0;
  std::vector<ScriptedTransfer> transfers;
  std::vector<ScriptedFault> faults;
};

Script make_script(std::uint64_t seed, int capacity) {
  Rng rng(seed);
  Script s;
  s.hosts = 4 + static_cast<int>(rng.next_below(2));
  s.params.host_capacity = capacity;
  s.drop = rng.bernoulli(0.5) ? 0.2 : 0.0;
  const auto host = [&] {
    return static_cast<HostId>(
        rng.next_below(static_cast<std::uint64_t>(s.hosts)));
  };
  const int priorities[] = {kDataPriority, kDataPriority, 5, kControlPriority};
  for (int i = 0; i < 90; ++i) {
    ScriptedTransfer t;
    // Multiples of 5 s make simultaneous enqueues and completions common.
    t.at = rng.bernoulli(0.5) ? 5.0 * static_cast<double>(rng.next_below(60))
                              : rng.uniform(0, 300);
    t.src = host();
    t.dst = rng.bernoulli(0.1) ? t.src : host();
    t.bytes = 1000.0 * static_cast<double>(1 + rng.next_below(300)) + i;
    t.priority = priorities[rng.next_below(4)];
    t.timeout = rng.bernoulli(0.6) ? kNoTransferTimeout : rng.uniform(1, 60);
    s.transfers.push_back(t);
  }
  for (int i = 0; i < 4; ++i) {  // crash/restart windows
    const double down = rng.uniform(0, 300);
    const HostId h = host();
    s.faults.push_back({down, ScriptedFault::kHostDown, h, h});
    s.faults.push_back(
        {down + rng.uniform(1, 80), ScriptedFault::kHostUp, h, h});
  }
  for (int i = 0; i < 4; ++i) {  // blackout windows, possibly nested
    const HostId a = host();
    HostId b = host();
    if (b == a) b = (a + 1) % s.hosts;
    const double begin = rng.uniform(0, 300);
    s.faults.push_back({begin, ScriptedFault::kBlackoutBegin, a, b});
    s.faults.push_back(
        {begin + rng.uniform(1, 80), ScriptedFault::kBlackoutEnd, a, b});
  }
  return s;
}

struct ScriptOutcome {
  std::vector<TransferRecord> records;
  std::vector<int> resume_order;
  std::vector<double> observed;  // bytes of each resolved transfer, in order
  double gauge_last = 0;
  double gauge_min = 0;
  double gauge_max = 0;
  std::uint64_t gauge_updates = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_out = 0;
  double delivered = 0;
};

template <typename Net>
sim::Task<> scripted_transfer(sim::Simulation& sim, Net& net,
                              const ScriptedTransfer& t, TransferRecord& out,
                              std::vector<int>& order, int id) {
  co_await sim.delay(t.at);
  out = co_await net.transfer(t.src, t.dst, t.bytes, t.priority, t.timeout);
  order.push_back(id);
}

template <typename Net>
void drive(sim::Simulation& sim, Net& net, const Script& s,
           ScriptOutcome& out) {
  if (s.drop > 0) net.set_drop_probability(s.drop, 77);
  net.add_observer({[](void* ctx, const TransferRecord& r) {
                      static_cast<std::vector<double>*>(ctx)->push_back(
                          r.bytes);
                    },
                    &out.observed});
  for (const ScriptedFault& f : s.faults) {
    sim.schedule_at(f.at, [&net, f] {
      switch (f.kind) {
        case ScriptedFault::kHostDown:
          net.set_host_alive(f.a, false);
          break;
        case ScriptedFault::kHostUp:
          net.set_host_alive(f.a, true);
          break;
        case ScriptedFault::kBlackoutBegin:
          net.set_link_blackout(f.a, f.b, true);
          break;
        case ScriptedFault::kBlackoutEnd:
          net.set_link_blackout(f.a, f.b, false);
          break;
      }
    });
  }
  out.records.resize(s.transfers.size());
  for (std::size_t i = 0; i < s.transfers.size(); ++i) {
    sim.spawn(scripted_transfer(sim, net, s.transfers[i], out.records[i],
                                out.resume_order, static_cast<int>(i)));
  }
  sim.run();
}

struct ScriptLinks {
  std::vector<std::unique_ptr<trace::BandwidthTrace>> traces;
  LinkTable links;

  ScriptLinks(const Script& s, std::uint64_t seed) : links(s.hosts) {
    Rng rng(seed ^ 0x11);
    for (HostId a = 0; a < s.hosts; ++a) {
      for (HostId b = a + 1; b < s.hosts; ++b) {
        std::vector<double> values;
        for (int i = 0; i < 40; ++i) values.push_back(rng.uniform(2e3, 2e5));
        traces.push_back(
            std::make_unique<trace::BandwidthTrace>(10.0, std::move(values)));
        links.set_link(a, b, traces.back().get());
      }
    }
  }
};

ScriptOutcome run_network(const Script& s, const LinkTable& links) {
  sim::Simulation sim;
  obs::MetricsRegistry metrics;
  Network net(sim, links, s.params);
  net.set_obs(obs::Obs{nullptr, &metrics});
  ScriptOutcome out;
  drive(sim, net, s, out);
  const obs::Gauge& g = metrics.gauge("net.pending_transfers");
  out.gauge_last = g.value();
  out.gauge_min = g.min();
  out.gauge_max = g.max();
  out.gauge_updates = g.updates();
  out.completed = net.transfers_completed();
  out.failed = net.transfers_failed();
  out.timed_out = net.transfers_timed_out();
  out.delivered = net.bytes_delivered();
  return out;
}

ScriptOutcome run_reference(const Script& s, const LinkTable& links) {
  sim::Simulation sim;
  ReferenceNetwork net(sim, links, s.params);
  ScriptOutcome out;
  drive(sim, net, s, out);
  const obs::Gauge& g = net.pending_gauge();
  out.gauge_last = g.value();
  out.gauge_min = g.min();
  out.gauge_max = g.max();
  out.gauge_updates = g.updates();
  out.completed = net.completed();
  out.failed = net.failed();
  out.timed_out = net.timed_out();
  out.delivered = net.delivered();
  return out;
}

class AdmissionDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(AdmissionDifferentialTest, MatchesFullRescanReference) {
  const int capacity = GetParam();
  std::uint64_t queued_timeouts = 0;
  std::uint64_t failures = 0;
  double deepest_queue = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Script s = make_script(seed, capacity);
    const ScriptLinks links(s, seed);
    const ScriptOutcome got = run_network(s, links.links);
    const ScriptOutcome want = run_reference(s, links.links);
    ASSERT_EQ(got.records.size(), want.records.size());
    for (std::size_t i = 0; i < got.records.size(); ++i) {
      SCOPED_TRACE("transfer " + std::to_string(i));
      const TransferRecord& g = got.records[i];
      const TransferRecord& w = want.records[i];
      EXPECT_EQ(g.requested, w.requested);
      EXPECT_EQ(g.started, w.started);
      EXPECT_EQ(g.completed, w.completed);
      EXPECT_EQ(g.outcome, w.outcome);
      EXPECT_EQ(g.bytes, w.bytes);
      EXPECT_EQ(g.priority, w.priority);
      if (w.outcome == TransferOutcome::kTimedOut && w.started == w.completed &&
          w.src != w.dst) {
        ++queued_timeouts;
      }
    }
    EXPECT_EQ(got.resume_order, want.resume_order);
    EXPECT_EQ(got.observed, want.observed);
    EXPECT_EQ(got.gauge_last, want.gauge_last);
    EXPECT_EQ(got.gauge_min, want.gauge_min);
    EXPECT_EQ(got.gauge_max, want.gauge_max);
    EXPECT_EQ(got.gauge_updates, want.gauge_updates);
    EXPECT_EQ(got.completed, want.completed);
    EXPECT_EQ(got.failed, want.failed);
    EXPECT_EQ(got.timed_out, want.timed_out);
    EXPECT_EQ(got.delivered, want.delivered);
    failures += want.failed;
    deepest_queue = std::max(deepest_queue, want.gauge_max);
  }
  // The scripts reach the paths under test: transfers time out while still
  // queued, faults and drops fail transfers, and queues build up.
  EXPECT_GT(queued_timeouts, 0u);
  EXPECT_GT(failures, 0u);
  EXPECT_GE(deepest_queue, 5.0);
}

INSTANTIATE_TEST_SUITE_P(HostCapacity, AdmissionDifferentialTest,
                         ::testing::Values(1, 2));

}  // namespace
}  // namespace wadc::net
