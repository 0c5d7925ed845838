// Unit tests of the benchmark's own machinery: span self-time arithmetic,
// the span recorder's nesting, and the seeded pickers and schedule.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "trace.hpp"

namespace serving {
namespace {

Span span(std::uint64_t start, std::uint64_t end, std::int32_t parent) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTimes, LeafSpanKeepsItsWholeDuration) {
  const std::vector<Span> spans = {span(10, 25, -1)};
  EXPECT_EQ(self_times(spans), (std::vector<std::uint64_t>{15}));
}

TEST(SelfTimes, ParentLosesItsChildrensTime) {
  // op [0,100) -> wsnp [10,70) -> repl [20,50), plus a second send [80,90).
  const std::vector<Span> spans = {span(0, 100, -1), span(10, 70, 0),
                                   span(20, 50, 1), span(80, 90, 0)};
  EXPECT_EQ(self_times(spans), (std::vector<std::uint64_t>{30, 30, 30, 10}));
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans = {span(0, 100, -1), span(10, 60, 0),
                                   span(40, 80, 0)};
  EXPECT_EQ(self_times(spans)[0], 30u);
}

TEST(SelfTimes, ChildOutsideItsParentIsClipped) {
  const std::vector<Span> spans = {span(10, 50, -1), span(0, 30, 0)};
  EXPECT_EQ(self_times(spans)[0], 20u);
}

TEST(SelfTimes, ChildCoveringTheParentLeavesZero) {
  const std::vector<Span> spans = {span(10, 20, -1), span(5, 25, 0)};
  EXPECT_EQ(self_times(spans)[0], 0u);
}

TEST(Tracer, NestsThroughThePerThreadStack) {
  Tracer& tracer = Tracer::instance();
  Tracer::ThreadLog& log = tracer.local();
  const std::size_t base = log.spans.size();
  tracer.enable(true);
  {
    const ScopedSpan op("op");
    tracer.enable(false);  // children of a recorded span are still recorded
    const ScopedSpan send("wsnp", 3);
    { const ScopedSpan repl("repl", 1); }
  }
  { const ScopedSpan ignored("off"); }
  ASSERT_EQ(log.spans.size(), base + 3);
  EXPECT_EQ(log.spans[base].parent, -1);
  EXPECT_EQ(log.spans[base + 1].parent, static_cast<std::int32_t>(base));
  EXPECT_EQ(log.spans[base + 1].node, 3u);
  EXPECT_EQ(log.spans[base + 2].parent, static_cast<std::int32_t>(base + 1));
  EXPECT_TRUE(log.stack.empty());
  for (std::size_t i = base; i < log.spans.size(); ++i) {
    EXPECT_LE(log.spans[i].start_ns, log.spans[i].end_ns);
  }
}

TEST(EnvelopeVerb, ReadsTheHeaderVerb) {
  EXPECT_STREQ(envelope_verb("CLSTR/1 repl 0 1 2 3\nabc"), "repl");
  EXPECT_STREQ(envelope_verb("CLSTR/1 wsnp 4294967295 0 0 0\n"), "wsnp");
  EXPECT_STREQ(envelope_verb("CLSTR/1 wsnpx 0 0 0 0\n"), "?");
  EXPECT_STREQ(envelope_verb("WSNP/1 error 3\nabc"), "?");
}

TEST(ZipfPicker, SameSeedSameSequence) {
  const ZipfPicker a(32, 1.0, 7), b(32, 1.0, 7);
  std::mt19937_64 ra(11), rb(11);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(ra), b(rb));
}

TEST(ZipfPicker, HottestKeyDominates) {
  const ZipfPicker zipf(32, 1.0, 3);
  std::mt19937_64 rng(5);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 100'000; ++i) ++counts[zipf(rng)];
  // Zipf(1) over 32 keys gives rank 0 a share of 1 / H(32) ~ 24.6 %.
  const double share = counts[zipf.key_of_rank(0)] / 100'000.0;
  EXPECT_NEAR(share, 0.246, 0.01);
  EXPECT_GT(counts[zipf.key_of_rank(0)], counts[zipf.key_of_rank(1)]);
}

TEST(ZipfPicker, SeedChangesWhichKeyIsHot) {
  bool differs = false;
  for (std::uint64_t seed = 1; seed < 8 && !differs; ++seed) {
    differs = ZipfPicker(32, 1.0, seed).key_of_rank(0) !=
              ZipfPicker(32, 1.0, 0).key_of_rank(0);
  }
  EXPECT_TRUE(differs);
}

TEST(UniformPicker, SameSeedSameSequenceAndInRange) {
  const UniformPicker pick(8);
  std::mt19937_64 ra(2), rb(2);
  for (int i = 0; i < 1000; ++i) {
    const std::size_t k = pick(ra);
    EXPECT_EQ(k, pick(rb));
    EXPECT_LT(k, 8u);
  }
}

TEST(PoissonSchedule, SameSeedSameScheduleAndExpectedRate) {
  const auto a = poisson_schedule(10'000.0, 2.0, 9);
  EXPECT_EQ(a, poisson_schedule(10'000.0, 2.0, 9));
  EXPECT_NE(a, poisson_schedule(10'000.0, 2.0, 10));
  EXPECT_NEAR(static_cast<double>(a.size()), 20'000.0, 600.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 2'000'000'000u);
}

}  // namespace
}  // namespace serving
