#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/harness.hpp"
#include "util/rng.hpp"

namespace gt::fault {
namespace {

TEST(FaultSpec, ParsesFullGrammar) {
  const FaultPlan plan = FaultPlan::parse(
      "gpusim.alloc@batch=3:layer=1;preproc.sample@batch=7;"
      " transfer@batch=0:times=2 ; gpusim.kernel@batch=9:always;"
      "preproc.reindex@batch=4:layer=0:kind=abort;"
      "gpusim.alloc@batch=5:kind=oom:times=inf");
  const auto entries = plan.entries();
  ASSERT_EQ(entries.size(), 6u);
  EXPECT_EQ(entries[0].site, Site::kGpusimAlloc);
  EXPECT_EQ(entries[0].batch, 3u);
  EXPECT_EQ(entries[0].coord, 1u);
  EXPECT_EQ(entries[0].kind, Kind::kTransient);
  EXPECT_EQ(entries[0].times, 1u);
  EXPECT_EQ(entries[1].site, Site::kPreprocSample);
  EXPECT_EQ(entries[1].coord, kAnyCoord);
  EXPECT_EQ(entries[2].times, 2u);
  EXPECT_EQ(entries[3].times, kForever);
  EXPECT_EQ(entries[4].kind, Kind::kAbort);
  EXPECT_EQ(entries[5].kind, Kind::kOom);
  EXPECT_EQ(entries[5].times, kForever);
}

TEST(FaultSpec, EmptyAndSemicolonOnlySpecsYieldEmptyPlans) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(" ; ;").empty());
}

TEST(FaultSpec, RejectsMalformedEntries) {
  EXPECT_THROW(FaultPlan::parse("gpusim.alloc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("bogus.site@batch=1"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("gpusim.alloc@layer=1"),
               std::invalid_argument);  // batch= is required
  EXPECT_THROW(FaultPlan::parse("gpusim.alloc@batch=x"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("gpusim.alloc@batch=1:times=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("gpusim.alloc@batch=1:kind=wat"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("gpusim.alloc@batch=1:frobnicate=2"),
               std::invalid_argument);
  // kind=oom only makes sense where an allocator can fail.
  EXPECT_THROW(FaultPlan::parse("preproc.sample@batch=1:kind=oom"),
               std::invalid_argument);
}

TEST(FaultSpec, RejectsOverflowingIntegers) {
  // 2^64 + 1 would silently wrap to batch=1 without the overflow check,
  // arming the fault at an unintended batch.
  EXPECT_THROW(FaultPlan::parse("preproc.sample@batch=18446744073709551617"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("preproc.sample@batch=99999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("gpusim.kernel@batch=1:times=18446744073709551616"),
               std::invalid_argument);
  // The exact maximum still parses.
  const FaultPlan plan =
      FaultPlan::parse("preproc.sample@batch=18446744073709551615");
  EXPECT_EQ(plan.entries().at(0).batch, 18446744073709551615ull);
}

// Seeded mutations of real specs: every parse either yields a plan of
// well-formed entries or throws the grammar's own std::invalid_argument.
TEST(FaultSpec, SurvivesMutatedSpecs) {
  std::vector<std::string> seeds = default_fault_specs();
  seeds.push_back("preproc.sample@batch=2;gpusim.kernel@batch=5:always");
  seeds.push_back("gpusim.kernel@batch=5:layer=1");
  const std::string grammar_bytes = "@:=;0123456789";
  Xoshiro256 rng(20261018);
  std::size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string spec = seeds[rng.uniform(seeds.size())];
    const std::uint64_t mutations = 1 + rng.uniform(3);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      const std::size_t at = rng.uniform(spec.size() + 1);
      switch (rng.uniform(4)) {
        case 0:  // truncate
          spec.resize(at);
          break;
        case 1:  // overwrite one byte: a grammar byte or any value
          if (!spec.empty())
            spec[rng.uniform(spec.size())] =
                rng.uniform(2) == 0
                    ? grammar_bytes[rng.uniform(grammar_bytes.size())]
                    : static_cast<char>(rng.uniform(256));
          break;
        case 2:  // duplicate a span in place
          spec.insert(at, spec.substr(at, 1 + rng.uniform(24)));
          break;
        default:  // delete a span
          spec.erase(at, 1 + rng.uniform(24));
      }
    }
    try {
      const FaultPlan plan = FaultPlan::parse(spec);
      ++accepted;
      for (const FaultEntry& e : plan.entries()) {
        EXPECT_LT(static_cast<std::size_t>(e.site), kNumSites) << spec;
        EXPECT_GE(e.times, 1u) << spec;
        EXPECT_TRUE(e.kind != Kind::kOom || e.site == Site::kGpusimAlloc)
            << spec;
      }
    } catch (const std::invalid_argument& ex) {
      ++rejected;
      EXPECT_EQ(std::string(ex.what()).rfind("fault spec:", 0), 0u)
          << ex.what();
    }
  }
  // The mutations must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(FaultCheck, NoScopeMeansNoOp) {
  EXPECT_FALSE(active());
  EXPECT_NO_THROW(check(Site::kGpusimAlloc));
  EXPECT_NO_THROW(check(Site::kPreprocReindex, 0));
}

TEST(FaultCheck, NullPlanScopeStaysInert) {
  PlanScope scope(nullptr, 0);
  EXPECT_FALSE(active());
  EXPECT_NO_THROW(check(Site::kTransfer));
}

TEST(FaultCheck, MatchesBatchAndThrowsTyped) {
  FaultPlan plan = FaultPlan::parse("preproc.sample@batch=2");
  {
    PlanScope scope(&plan, 1);
    EXPECT_TRUE(active());
    EXPECT_NO_THROW(check(Site::kPreprocSample));  // wrong batch
  }
  {
    PlanScope scope(&plan, 2);
    EXPECT_NO_THROW(check(Site::kTransfer));  // wrong site
    try {
      check(Site::kPreprocSample);
      FAIL() << "expected InjectedFault";
    } catch (const InjectedFault& f) {
      EXPECT_EQ(f.site(), Site::kPreprocSample);
      EXPECT_EQ(f.kind(), Kind::kTransient);
      EXPECT_EQ(f.batch(), 2u);
      EXPECT_NE(std::string(f.what()).find("preproc.sample@batch=2"),
                std::string::npos);
    }
  }
  EXPECT_EQ(plan.injected(), 1u);
}

TEST(FaultCheck, TimesBudgetDisarmsAndRearmResets) {
  FaultPlan plan = FaultPlan::parse("gpusim.kernel@batch=0:times=2");
  for (int attempt = 0; attempt < 2; ++attempt) {
    PlanScope scope(&plan, 0);
    EXPECT_THROW(check(Site::kGpusimKernel), InjectedFault);
  }
  {
    PlanScope scope(&plan, 0);
    EXPECT_NO_THROW(check(Site::kGpusimKernel));  // budget spent
  }
  EXPECT_EQ(plan.injected(), 2u);
  plan.rearm();
  EXPECT_EQ(plan.injected(), 0u);
  PlanScope scope(&plan, 0);
  EXPECT_THROW(check(Site::kGpusimKernel), InjectedFault);
}

TEST(FaultCheck, OccurrenceOrdinalsSelectTheNthCheck) {
  // layer=2 on an occurrence-coordinate site: the third check of that
  // site within one attempt fires, earlier ones pass.
  FaultPlan plan = FaultPlan::parse("gpusim.alloc@batch=0:layer=2");
  {
    PlanScope scope(&plan, 0);
    EXPECT_NO_THROW(check(Site::kGpusimAlloc));  // occurrence 0
    EXPECT_NO_THROW(check(Site::kGpusimAlloc));  // occurrence 1
    EXPECT_THROW(check(Site::kGpusimAlloc), InjectedFault);  // 2
  }
  // A fresh scope (= a retry attempt) resets the ordinals, so the same
  // coordinate is reproduced deterministically.
  plan.rearm();
  PlanScope scope(&plan, 0);
  EXPECT_NO_THROW(check(Site::kGpusimAlloc));
  EXPECT_NO_THROW(check(Site::kGpusimAlloc));
  EXPECT_THROW(check(Site::kGpusimAlloc), InjectedFault);
}

TEST(FaultCheck, ExplicitCoordinatesBypassOrdinals) {
  FaultPlan plan = FaultPlan::parse("preproc.reindex@batch=0:layer=1");
  PlanScope scope(&plan, 0);
  EXPECT_NO_THROW(check(Site::kPreprocReindex, 0));
  EXPECT_THROW(check(Site::kPreprocReindex, 1), InjectedFault);
  EXPECT_NO_THROW(check(Site::kPreprocReindex, 2));
}

TEST(FaultCheck, ScopesNestAndRestore) {
  FaultPlan outer_plan = FaultPlan::parse("transfer@batch=1:always");
  PlanScope outer(&outer_plan, 1);
  EXPECT_THROW(check(Site::kTransfer), InjectedFault);
  {
    PlanScope inner(nullptr, 0);
    EXPECT_FALSE(active());
    EXPECT_NO_THROW(check(Site::kTransfer));
  }
  EXPECT_TRUE(active());
  EXPECT_THROW(check(Site::kTransfer), InjectedFault);
}

}  // namespace
}  // namespace gt::fault
