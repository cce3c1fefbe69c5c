// --faults spec parsing and deterministic plan materialization.
#include "sim/fault_plan.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/random.h"

namespace hm::sim {
namespace {

FaultSpec parse_ok(const char* arg) {
  FaultSpec spec;
  std::string err;
  EXPECT_TRUE(parse_fault_spec(arg, &spec, &err)) << arg << ": " << err;
  return spec;
}

TEST(FaultSpec, NoneAndEmptyDisable) {
  EXPECT_FALSE(parse_ok("none").enabled());
  EXPECT_FALSE(parse_ok("").enabled());
}

TEST(FaultSpec, ScriptedEventWithAllModifiers) {
  FaultSpec spec = parse_ok("degrade@40+15*0.5#3");
  ASSERT_EQ(spec.scripted.size(), 1u);
  const FaultEvent& e = spec.scripted[0];
  EXPECT_EQ(e.kind, FaultKind::kLinkDegrade);
  EXPECT_DOUBLE_EQ(e.at, 40.0);
  EXPECT_DOUBLE_EQ(e.duration_s, 15.0);
  EXPECT_DOUBLE_EQ(e.factor, 0.5);
  EXPECT_EQ(e.target, 3u);
}

TEST(FaultSpec, ScriptedListParsesEveryKind) {
  FaultSpec spec = parse_ok(
      "src-crash@10;dst-crash@20;degrade@30;flap@40;slow-recv@50;repo-outage@60");
  ASSERT_EQ(spec.scripted.size(), 6u);
  EXPECT_EQ(spec.scripted[0].kind, FaultKind::kSourceCrash);
  EXPECT_EQ(spec.scripted[1].kind, FaultKind::kDestCrash);
  EXPECT_EQ(spec.scripted[2].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(spec.scripted[3].kind, FaultKind::kLinkFlap);
  EXPECT_EQ(spec.scripted[4].kind, FaultKind::kSlowReceiver);
  EXPECT_EQ(spec.scripted[5].kind, FaultKind::kRepoOutage);
}

TEST(FaultSpec, OptionalFaultsPrefixIsAccepted) {
  FaultSpec spec = parse_ok("faults:src-crash@5+2");
  ASSERT_EQ(spec.scripted.size(), 1u);
  EXPECT_EQ(spec.scripted[0].kind, FaultKind::kSourceCrash);
  EXPECT_DOUBLE_EQ(spec.scripted[0].duration_s, 2.0);
}

TEST(FaultSpec, RandSpecParsesKeys) {
  FaultSpec spec =
      parse_ok("rand:crashes=2,dst-crashes=1,degrades=4,flaps=3,slow=2,outages=1,"
               "from=20,span=120,dur=8,factor=0.5");
  EXPECT_TRUE(spec.rand);
  EXPECT_EQ(spec.rand_spec.crashes, 2u);
  EXPECT_EQ(spec.rand_spec.dst_crashes, 1u);
  EXPECT_EQ(spec.rand_spec.degrades, 4u);
  EXPECT_EQ(spec.rand_spec.flaps, 3u);
  EXPECT_EQ(spec.rand_spec.slow, 2u);
  EXPECT_EQ(spec.rand_spec.outages, 1u);
  EXPECT_DOUBLE_EQ(spec.rand_spec.from, 20.0);
  EXPECT_DOUBLE_EQ(spec.rand_spec.span, 120.0);
  EXPECT_DOUBLE_EQ(spec.rand_spec.dur, 8.0);
  EXPECT_DOUBLE_EQ(spec.rand_spec.factor, 0.5);
}

TEST(FaultSpec, MalformedSpecsAreRejected) {
  for (const char* bad :
       {"bogus@10", "src-crash", "src-crash@", "degrade@x", "rand:nope=3",
        "src-crash@10+", "degrade@10*"}) {
    FaultSpec spec;
    std::string err;
    EXPECT_FALSE(parse_fault_spec(bad, &spec, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(FaultSpec, BuildIsDeterministicSortedAndTargeted) {
  FaultSpec spec = parse_ok("rand:crashes=3,degrades=5,flaps=2,from=10,span=50");
  const Rng rng(1234);
  const std::vector<FaultEvent> a = build_fault_plan(spec, rng, /*num_migrations=*/4);
  const std::vector<FaultEvent> b = build_fault_plan(spec, rng, /*num_migrations=*/4);
  ASSERT_EQ(a.size(), 10u);
  ASSERT_EQ(b.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_DOUBLE_EQ(a[i].at, b[i].at) << i;
    EXPECT_DOUBLE_EQ(a[i].duration_s, b[i].duration_s) << i;
    EXPECT_EQ(a[i].target, b[i].target) << i;
  }
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(), [](const FaultEvent& x, const FaultEvent& y) {
    return x.at < y.at;
  }));
  for (const FaultEvent& e : a) {
    EXPECT_GE(e.at, 10.0);
    EXPECT_LT(e.at, 60.0);
    EXPECT_LT(e.target, 4u);
    EXPECT_GT(e.duration_s, 0.0);
  }
}

TEST(FaultSpec, NewNodeAndDomainKindsParse) {
  FaultSpec spec = parse_ok(
      "node-crash@10#5;node-degrade@20*0.5#6;node-flap@30#7;"
      "domain-crash@40#0;domain-degrade@50*0.3#1;domains:r0=0-1,r1=2-3");
  ASSERT_EQ(spec.scripted.size(), 5u);
  EXPECT_EQ(spec.scripted[0].kind, FaultKind::kNodeCrash);
  EXPECT_EQ(spec.scripted[1].kind, FaultKind::kNodeDegrade);
  EXPECT_EQ(spec.scripted[2].kind, FaultKind::kNodeFlap);
  EXPECT_EQ(spec.scripted[3].kind, FaultKind::kDomainCrash);
  EXPECT_EQ(spec.scripted[4].kind, FaultKind::kDomainDegrade);
  ASSERT_EQ(spec.domains.size(), 2u);
  EXPECT_EQ(spec.domains[0].name, "r0");
  EXPECT_EQ(spec.domains[0].nodes, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(spec.domains[1].nodes, (std::vector<std::uint32_t>{2, 3}));
}

TEST(FaultSpec, DomainRangesAndUnions) {
  FaultSpec spec = parse_ok("node-crash@5#0;domains:rack=0-2+7+9-10");
  ASSERT_EQ(spec.domains.size(), 1u);
  EXPECT_EQ(spec.domains[0].nodes, (std::vector<std::uint32_t>{0, 1, 2, 7, 9, 10}));
}

TEST(FaultSpec, ChurnSpecParsesKeys) {
  FaultSpec spec = parse_ok(
      "churn:crash-mtbf=600,crash-mttr=20,degrade-mtbf=300,degrade-mttr=30,"
      "flap-mtbf=150,flap-mttr=2,domain-mtbf=3600,domain-mttr=60,"
      "factor=0.4,from=50,until=2000,nodes=16;domains:r0=0-7");
  EXPECT_TRUE(spec.enabled());
  EXPECT_TRUE(spec.churn);
  EXPECT_DOUBLE_EQ(spec.churn_spec.crash_mtbf, 600.0);
  EXPECT_DOUBLE_EQ(spec.churn_spec.crash_mttr, 20.0);
  EXPECT_DOUBLE_EQ(spec.churn_spec.degrade_mtbf, 300.0);
  EXPECT_DOUBLE_EQ(spec.churn_spec.degrade_mttr, 30.0);
  EXPECT_DOUBLE_EQ(spec.churn_spec.flap_mtbf, 150.0);
  EXPECT_DOUBLE_EQ(spec.churn_spec.flap_mttr, 2.0);
  EXPECT_DOUBLE_EQ(spec.churn_spec.domain_mtbf, 3600.0);
  EXPECT_DOUBLE_EQ(spec.churn_spec.domain_mttr, 60.0);
  EXPECT_DOUBLE_EQ(spec.churn_spec.factor, 0.4);
  EXPECT_DOUBLE_EQ(spec.churn_spec.from, 50.0);
  EXPECT_DOUBLE_EQ(spec.churn_spec.until, 2000.0);
  EXPECT_EQ(spec.churn_spec.nodes, 16u);
  ASSERT_EQ(spec.domains.size(), 1u);
  const Rng rng(9);
  EXPECT_TRUE(build_fault_plan(spec, rng, 4).empty());  // churn events materialize lazily
}

TEST(FaultSpec, RandZeroCountsDisable) {
  // All-zero category counts: the spec parses but is a no-op plan.
  FaultSpec spec;
  std::string err;
  EXPECT_FALSE(parse_fault_spec("rand:crashes=0,degrades=0", &spec, &err));
  EXPECT_FALSE(err.empty());
}

TEST(FaultSpec, FactorIsClampedToUnitInterval) {
  // factor is a capacity multiplier in (0, 1]: non-positive values clamp to
  // a small positive floor, values > 1 clamp to 1.
  EXPECT_DOUBLE_EQ(parse_ok("degrade@10*0").scripted[0].factor, 1e-3);
  EXPECT_DOUBLE_EQ(parse_ok("degrade@10*-2").scripted[0].factor, 1e-3);
  EXPECT_DOUBLE_EQ(parse_ok("degrade@10*1.5").scripted[0].factor, 1.0);
  EXPECT_DOUBLE_EQ(parse_ok("churn:crash-mtbf=60,factor=7").churn_spec.factor, 1.0);
}

TEST(FaultSpec, RandDurationsHaveAFloor) {
  // Exponential duration draws are floored at 0.5 s so no fault window is
  // degenerate.
  FaultSpec spec = parse_ok("rand:degrades=40,from=0,span=10,dur=0.01");
  const Rng rng(77);
  const std::vector<FaultEvent> events = build_fault_plan(spec, rng, 4);
  ASSERT_EQ(events.size(), 40u);
  for (const FaultEvent& e : events) EXPECT_GE(e.duration_s, 0.5);
}

TEST(FaultSpec, ChurnGrammarErrors) {
  for (const char* bad : {
           "churn:",                              // no category enabled
           "churn:factor=0.5",                    // still no category
           "churn:crash-mtbf=0",                  // mtbf must be > 0
           "churn:crash-mtbf=-5",                 // negative mtbf
           "churn:crash-mtbf=60,crash-mttr=0",    // mttr must be > 0
           "churn:crash-mtbf=60,from=-1",         // from must be >= 0
           "churn:crash-mtbf=60,until=0",         // until must be > 0
           "churn:crash-mtbf=60,from=50,until=40",  // empty window
           "churn:crash-mtbf=60,nodes=x",         // malformed count
           "churn:bogus=1",                       // unknown key
           "churn:domain-mtbf=60",                // domain churn needs domains
       }) {
    FaultSpec spec;
    std::string err;
    EXPECT_FALSE(parse_fault_spec(bad, &spec, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(FaultSpec, DomainGrammarErrors) {
  for (const char* bad : {
           "node-crash@5;domains:",                 // empty section
           "node-crash@5;domains:r0",               // missing '='
           "node-crash@5;domains:=0-1",             // empty name
           "node-crash@5;domains:r0=",              // no members
           "node-crash@5;domains:r0=5-2",           // inverted range
           "node-crash@5;domains:r0=a-b",           // malformed id
           "node-crash@5;domains:r0=0-1,r0=2-3",    // duplicate name
           "node-crash@5;domains:r0=0-2+1",         // node repeated in domain
           "node-crash@5;domains:r0=0-2,r1=2-4",    // node in two domains
           "domain-crash@5#2;domains:r0=0-1",       // target out of range
       }) {
    FaultSpec spec;
    std::string err;
    EXPECT_FALSE(parse_fault_spec(bad, &spec, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(FaultSpec, ScriptedEventsPassThroughBuildVerbatim) {
  FaultSpec spec = parse_ok("flap@30+2;src-crash@10+5#1");
  const Rng rng(7);
  const std::vector<FaultEvent> events = build_fault_plan(spec, rng, 2);
  ASSERT_EQ(events.size(), 2u);
  // Sorted by time: the crash at t=10 comes first.
  EXPECT_EQ(events[0].kind, FaultKind::kSourceCrash);
  EXPECT_DOUBLE_EQ(events[0].at, 10.0);
  EXPECT_EQ(events[0].target, 1u);
  EXPECT_EQ(events[1].kind, FaultKind::kLinkFlap);
  EXPECT_DOUBLE_EQ(events[1].at, 30.0);
}

}  // namespace
}  // namespace hm::sim
