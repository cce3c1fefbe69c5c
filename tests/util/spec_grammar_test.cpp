// The four option-string grammars through their public parsers: malformed
// numbers are rejected with a diagnostic naming the key (before any cast or
// allocation they would reach), and the specs the scenario table, the
// benchmark, the README and the examples use parse to pinned field values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>

#include "cloud/scheduler.h"
#include "sim/fault_plan.h"
#include "workloads/trace_gen.h"

namespace hm {
namespace {

enum class Grammar { kFaults, kArrivals, kTrace };

struct Rejection {
  Grammar grammar;
  const char* spec;
  const char* key;  // the key the diagnostic names
};
void PrintTo(const Rejection& r, std::ostream* os) { *os << '\'' << r.spec << '\''; }

bool parse(Grammar g, const char* spec, std::string* err) {
  switch (g) {
    case Grammar::kFaults: {
      sim::FaultSpec s;
      return sim::parse_fault_spec(spec, &s, err);
    }
    case Grammar::kArrivals: {
      cloud::SchedulerConfig s;
      return cloud::parse_scheduler_spec(spec, &s, err);
    }
    case Grammar::kTrace: {
      workloads::TraceSourceConfig s;
      return workloads::parse_trace_spec(spec, &s, err);
    }
  }
  return false;
}

sim::FaultSpec faults(const std::string& spec) {
  sim::FaultSpec s;
  std::string err;
  EXPECT_TRUE(sim::parse_fault_spec(spec, &s, &err)) << spec << ": " << err;
  return s;
}

cloud::SchedulerConfig sched(const std::string& spec) {
  cloud::SchedulerConfig s;
  std::string err;
  EXPECT_TRUE(cloud::parse_scheduler_spec(spec, &s, &err)) << spec << ": " << err;
  return s;
}

class SpecRejection : public ::testing::TestWithParam<Rejection> {};

TEST_P(SpecRejection, FailsWithADiagnosticNamingTheKey) {
  const Rejection& c = GetParam();
  std::string err;
  EXPECT_FALSE(parse(c.grammar, c.spec, &err)) << c.spec;
  EXPECT_NE(err.find("'" + std::string(c.key) + "'"), std::string::npos) << c.spec << ": " << err;
}

INSTANTIATE_TEST_SUITE_P(
    AllGrammars, SpecRejection,
    ::testing::Values(
        // --faults: non-finite and overflowing times and durations.
        Rejection{Grammar::kFaults, "degrade@nan+5", "time"},
        Rejection{Grammar::kFaults, "degrade@1e400", "time"},
        Rejection{Grammar::kFaults, "degrade@5+inf", "duration"},
        Rejection{Grammar::kFaults, "rand:crashes=1,span=inf", "span"},
        Rejection{Grammar::kFaults, "churn:crash-mtbf=inf", "crash-mtbf"},
        Rejection{Grammar::kFaults, "rand:crashes=1,from=1e308,span=1e308", "span"},
        // Counts past the uint32 cast (undefined behaviour) and past the cap.
        Rejection{Grammar::kFaults, "rand:crashes=1e20", "crashes"},
        Rejection{Grammar::kFaults, "rand:crashes=16777217", "crashes"},
        Rejection{Grammar::kFaults, "node-crash@5;domains:r=0-16777216", "node id"},
        // --arrivals and its ;sched: list.
        Rejection{Grammar::kArrivals, "poisson:rate=inf,until=10", "rate"},
        Rejection{Grammar::kArrivals, "poisson:rate=0x10,until=10", "rate"},
        Rejection{Grammar::kArrivals, "poisson:rate=1,until=9,count=1e20", "count"},
        Rejection{Grammar::kArrivals, "trace:1,nan,3", "instant"},
        Rejection{Grammar::kArrivals, "trace: 5", "instant"},
        Rejection{Grammar::kArrivals, "poisson:rate=1,until=9;sched:attempts=4294967295",
                  "attempts"},
        // trace:SPEC: hexadecimal and space-led numbers.
        Rejection{Grammar::kTrace, "zipf:chunks=0x10", "chunks"},
        Rejection{Grammar::kTrace, "zipf:dur= 5", "dur"}));

// The top of each capped range still parses; integer keys take a whole
// number in any notation.
TEST(SpecCorpus, RangeEdgesAreAccepted) {
  EXPECT_EQ(faults("rand:crashes=16777216").rand_spec.crashes, 16777216u);
  EXPECT_EQ(faults("node-crash@5;domains:r=16777215").domains[0].nodes,
            (std::vector<std::uint32_t>{16777215}));
  EXPECT_EQ(faults("degrade@1#4294967295").scripted[0].target, 4294967295u);
  const cloud::SchedulerConfig s =
      sched("poisson:rate=1,until=9,count=4294967295;sched:attempts=2147483647,concurrent=2.0");
  EXPECT_EQ(s.arrivals.count, 4294967295u);
  EXPECT_EQ(s.max_attempts, 2147483647);
  EXPECT_EQ(s.max_concurrent, 2u);
}

// --- acceptance corpus ---------------------------------------------------------

TEST(SpecCorpus, ScenarioRandAndChurnFaults) {
  const sim::FaultSpec r = faults(
      "faults:rand:crashes=2,dst-crashes=2,degrades=4,flaps=2,slow=2,outages=1,"
      "from=20,span=8,dur=8");
  ASSERT_TRUE(r.rand);
  EXPECT_FALSE(r.churn);
  const sim::FaultRandSpec& rs = r.rand_spec;
  EXPECT_EQ(rs.crashes, 2u);
  EXPECT_EQ(rs.dst_crashes, 2u);
  EXPECT_EQ(rs.degrades, 4u);
  EXPECT_EQ(rs.flaps, 2u);
  EXPECT_EQ(rs.slow, 2u);
  EXPECT_EQ(rs.outages, 1u);
  EXPECT_EQ(rs.from, 20.0);
  EXPECT_EQ(rs.span, 8.0);
  EXPECT_EQ(rs.dur, 8.0);
  EXPECT_EQ(rs.factor, 0.25);
  EXPECT_TRUE(r.domains.empty());

  const sim::FaultSpec c = faults(
      "faults:churn:crash-mtbf=60,crash-mttr=5,degrade-mtbf=45,degrade-mttr=6,"
      "domain-mtbf=40,domain-mttr=6,factor=0.4,from=20,until=120;domains:rack0=0-3");
  ASSERT_TRUE(c.churn);
  const sim::FaultChurnSpec& cs = c.churn_spec;
  EXPECT_EQ(cs.crash_mtbf, 60.0);
  EXPECT_EQ(cs.crash_mttr, 5.0);
  EXPECT_EQ(cs.degrade_mtbf, 45.0);
  EXPECT_EQ(cs.degrade_mttr, 6.0);
  EXPECT_EQ(cs.flap_mtbf, 0.0);
  EXPECT_EQ(cs.flap_mttr, 2.0);
  EXPECT_EQ(cs.domain_mtbf, 40.0);
  EXPECT_EQ(cs.domain_mttr, 6.0);
  EXPECT_EQ(cs.factor, 0.4);
  EXPECT_EQ(cs.from, 20.0);
  EXPECT_EQ(cs.until, 120.0);
  EXPECT_EQ(cs.nodes, 0u);
  ASSERT_EQ(c.domains.size(), 1u);
  EXPECT_EQ(c.domains[0].name, "rack0");
  EXPECT_EQ(c.domains[0].nodes, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

// The steady/oversub family's spec, printed with %g as the scenario table
// prints it, at every fleet size N = 2...1024.
TEST(SpecCorpus, SteadyOversubAtEveryFleetSize) {
  const struct {
    std::size_t n;
    double rate;
    std::uint32_t concurrent;
  } rows[] = {{2, 0.02, 2},  {4, 0.04, 2},  {8, 0.08, 2},   {16, 0.16, 2},   {32, 0.32, 4},
              {64, 0.64, 8}, {128, 1.28, 16}, {256, 2.56, 32}, {512, 5.12, 64}, {1024, 10.24, 128}};
  for (const auto& row : rows) {
    char spec[160];
    std::snprintf(spec, sizeof(spec),
                  "poisson:rate=%g,until=240,hi=0.25"
                  ";sched:concurrent=%zu,capacity=2,groups=4,"
                  "policy=least-loaded,preempt=1",
                  static_cast<double>(row.n) / 100.0, std::max<std::size_t>(2, row.n / 8));
    const cloud::SchedulerConfig s = sched(spec);
    EXPECT_EQ(s.arrivals.kind, sim::ArrivalKind::kPoisson) << spec;
    EXPECT_EQ(s.arrivals.rate, row.rate) << spec;
    EXPECT_EQ(s.arrivals.until, 240.0) << spec;
    EXPECT_EQ(s.arrivals.from, 0.0) << spec;
    EXPECT_EQ(s.arrivals.count, 0u) << spec;
    EXPECT_EQ(s.arrivals.hi_share, 0.25) << spec;
    EXPECT_EQ(s.max_concurrent, row.concurrent) << spec;
    EXPECT_EQ(s.placement.capacity, 2u) << spec;
    EXPECT_EQ(s.placement.affinity_groups, 4u) << spec;
    EXPECT_EQ(s.placement.policy, cloud::PlacementPolicy::kLeastLoaded) << spec;
    EXPECT_TRUE(s.preempt) << spec;
    EXPECT_EQ(s.max_attempts, 0) << spec;
  }
}

// The benchmark's service-churn workload at N = 128: its request stream and
// its churn spec over two 20-node racks.
TEST(SpecCorpus, BenchmarkServiceAndChurnStrings) {
  const cloud::SchedulerConfig s = sched(
      "poisson:rate=1.28,until=480,count=307,hi=0.25;sched:concurrent=16,capacity=2,"
      "groups=4,policy=least-loaded,preempt=1");
  EXPECT_EQ(s.arrivals.rate, 1.28);
  EXPECT_EQ(s.arrivals.until, 480.0);
  EXPECT_EQ(s.arrivals.count, 307u);
  EXPECT_EQ(s.arrivals.hi_share, 0.25);
  EXPECT_EQ(s.max_concurrent, 16u);
  EXPECT_EQ(s.placement.policy, cloud::PlacementPolicy::kLeastLoaded);

  const sim::FaultSpec c = faults(
      "churn:crash-mtbf=600,crash-mttr=8,degrade-mtbf=300,degrade-mttr=6,"
      "domain-mtbf=150,domain-mttr=8,factor=0.4,from=20,until=240"
      ";domains:rack0=0-19,rack1=20-39");
  const sim::FaultChurnSpec& cs = c.churn_spec;
  EXPECT_EQ(cs.crash_mtbf, 600.0);
  EXPECT_EQ(cs.crash_mttr, 8.0);
  EXPECT_EQ(cs.degrade_mtbf, 300.0);
  EXPECT_EQ(cs.degrade_mttr, 6.0);
  EXPECT_EQ(cs.domain_mtbf, 150.0);
  EXPECT_EQ(cs.domain_mttr, 8.0);
  EXPECT_EQ(cs.factor, 0.4);
  EXPECT_EQ(cs.until, 240.0);
  ASSERT_EQ(c.domains.size(), 2u);
  EXPECT_EQ(c.domains[0].nodes.size(), 20u);
  EXPECT_EQ(c.domains[1].nodes.front(), 20u);
  EXPECT_EQ(c.domains[1].nodes.back(), 39u);
}

TEST(SpecCorpus, ReadmeAndExampleSpecs) {
  const sim::FaultSpec e = faults("src-crash@40+15");
  ASSERT_EQ(e.scripted.size(), 1u);
  EXPECT_EQ(e.scripted[0].kind, sim::FaultKind::kSourceCrash);
  EXPECT_EQ(e.scripted[0].at, 40.0);
  EXPECT_EQ(e.scripted[0].duration_s, 15.0);
  EXPECT_EQ(e.scripted[0].factor, 0.25);
  EXPECT_EQ(e.scripted[0].target, 0u);

  const sim::FaultSpec r = faults("rand:crashes=2,degrades=4,from=20,span=120");
  EXPECT_EQ(r.rand_spec.crashes, 2u);
  EXPECT_EQ(r.rand_spec.degrades, 4u);
  EXPECT_EQ(r.rand_spec.from, 20.0);
  EXPECT_EQ(r.rand_spec.span, 120.0);
  EXPECT_EQ(r.rand_spec.dur, 10.0);

  const sim::FaultSpec c =
      faults("churn:crash-mtbf=60,crash-mttr=5,domain-mtbf=40,domain-mttr=6;domains:rack0=0-3");
  EXPECT_EQ(c.churn_spec.crash_mtbf, 60.0);
  EXPECT_EQ(c.churn_spec.crash_mttr, 5.0);
  EXPECT_EQ(c.churn_spec.domain_mtbf, 40.0);
  EXPECT_EQ(c.churn_spec.domain_mttr, 6.0);
  EXPECT_EQ(c.churn_spec.until, 0.0);
  ASSERT_EQ(c.domains.size(), 1u);

  const cloud::SchedulerConfig burst =
      sched("trace:20,20,20,20;sched:concurrent=2,policy=least-loaded");
  EXPECT_EQ(burst.arrivals.kind, sim::ArrivalKind::kTrace);
  EXPECT_EQ(burst.arrivals.times, (std::vector<double>{20, 20, 20, 20}));
  EXPECT_EQ(burst.arrivals.hi_share, 0.0);
  EXPECT_EQ(burst.max_concurrent, 2u);
  EXPECT_TRUE(burst.preempt);

  const cloud::SchedulerConfig evac =
      sched("trace:10,10,10,hi=1;sched:concurrent=2,policy=least-loaded,preempt=1");
  EXPECT_EQ(evac.arrivals.times, (std::vector<double>{10, 10, 10}));
  EXPECT_EQ(evac.arrivals.hi_share, 1.0);
  EXPECT_TRUE(evac.preempt);

  workloads::TraceSourceConfig t;
  std::string err;
  ASSERT_TRUE(workloads::parse_trace_spec(
      "zipf:dur=30,theta=0.99,pages=128,page_kib=1024,chunks=128,chunk_kib=1024,offset_mib=64",
      &t, &err))
      << err;
  EXPECT_EQ(t.gen.duration_s, 30.0);
  EXPECT_EQ(t.gen.zipf_theta, 0.99);
  EXPECT_EQ(t.gen.pages, 128u);
  EXPECT_EQ(t.gen.page_bytes, 1024u * 1024u);
  EXPECT_EQ(t.gen.chunks, 128u);
  EXPECT_EQ(t.gen.chunk_bytes, 1024u * 1024u);
  EXPECT_EQ(t.gen.file_offset, 64u * 1024u * 1024u);
}

// Every scripted kind and modifier, and two domains (the fault-injector
// table test's spec).
TEST(SpecCorpus, FaultInjectorTableSpec) {
  const sim::FaultSpec s = faults(
      "src-crash@10+1#1;dst-crash@20+1#3;degrade@30+1*0.5#6;flap@40+1#0;"
      "slow-recv@50+1*0.3#2;repo-outage@60+1;node-crash@70+1#13;"
      "node-degrade@80+1*0.5#7;node-flap@90+1#8;domain-crash@100+1#1;"
      "domain-degrade@110+1*0.5#0;domains:rackA=5-6,rackB=8-12");
  ASSERT_EQ(s.scripted.size(), 11u);
  const struct {
    sim::FaultKind kind;
    double at, factor;
    std::uint32_t target;
  } want[] = {
      {sim::FaultKind::kSourceCrash, 10, 0.25, 1},  {sim::FaultKind::kDestCrash, 20, 0.25, 3},
      {sim::FaultKind::kLinkDegrade, 30, 0.5, 6},   {sim::FaultKind::kLinkFlap, 40, 0.25, 0},
      {sim::FaultKind::kSlowReceiver, 50, 0.3, 2},  {sim::FaultKind::kRepoOutage, 60, 0.25, 0},
      {sim::FaultKind::kNodeCrash, 70, 0.25, 13},   {sim::FaultKind::kNodeDegrade, 80, 0.5, 7},
      {sim::FaultKind::kNodeFlap, 90, 0.25, 8},     {sim::FaultKind::kDomainCrash, 100, 0.25, 1},
      {sim::FaultKind::kDomainDegrade, 110, 0.5, 0},
  };
  for (std::size_t i = 0; i < s.scripted.size(); ++i) {
    EXPECT_EQ(s.scripted[i].kind, want[i].kind) << i;
    EXPECT_EQ(s.scripted[i].at, want[i].at) << i;
    EXPECT_EQ(s.scripted[i].duration_s, 1.0) << i;
    EXPECT_EQ(s.scripted[i].factor, want[i].factor) << i;
    EXPECT_EQ(s.scripted[i].target, want[i].target) << i;
  }
  ASSERT_EQ(s.domains.size(), 2u);
  EXPECT_EQ(s.domains[0].nodes, (std::vector<std::uint32_t>{5, 6}));
  EXPECT_EQ(s.domains[1].nodes, (std::vector<std::uint32_t>{8, 9, 10, 11, 12}));
}

}  // namespace
}  // namespace hm
