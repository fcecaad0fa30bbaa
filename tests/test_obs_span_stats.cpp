// Span-time attribution: self time must equal inclusive time minus the
// time of directly nested spans, per thread.

#include <gtest/gtest.h>

#include <vector>

#include "cts/obs/span_stats.hpp"

namespace obs = cts::obs;

namespace {

obs::TraceEvent ev(const char* name, int tid, std::int64_t ts,
                   std::int64_t dur) {
  obs::TraceEvent e;
  e.name = name;
  e.tid = tid;
  e.ts_us = ts;
  e.dur_us = dur;
  return e;
}

const obs::SpanAgg* find(const std::vector<obs::SpanAgg>& aggs,
                         const std::string& name) {
  for (const obs::SpanAgg& a : aggs) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

TEST(AggregateSpans, SelfTimeSubtractsNestedChildren) {
  // parent [0,100) with children [10,40) and [50,80); grandchild [12,20).
  const std::vector<obs::TraceEvent> events = {
      ev("parent", 1, 0, 100),
      ev("child", 1, 10, 30),
      ev("grandchild", 1, 12, 8),
      ev("child", 1, 50, 30),
  };
  const std::vector<obs::SpanAgg> aggs = obs::aggregate_spans(events);
  ASSERT_EQ(aggs.size(), 3u);

  const obs::SpanAgg* parent = find(aggs, "parent");
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->count, 1u);
  EXPECT_EQ(parent->total_us, 100);
  EXPECT_EQ(parent->self_us, 40);  // 100 - 30 - 30; grandchild hits child

  const obs::SpanAgg* child = find(aggs, "child");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->count, 2u);
  EXPECT_EQ(child->total_us, 60);
  EXPECT_EQ(child->self_us, 52);  // 60 - 8
  EXPECT_EQ(child->min_us, 30);
  EXPECT_EQ(child->max_us, 30);

  const obs::SpanAgg* grandchild = find(aggs, "grandchild");
  ASSERT_NE(grandchild, nullptr);
  EXPECT_EQ(grandchild->self_us, 8);
}

TEST(AggregateSpans, ThreadsDoNotNestAcrossEachOther) {
  // Identical intervals on different tids must not subtract.
  const std::vector<obs::TraceEvent> events = {
      ev("a", 1, 0, 100),
      ev("b", 2, 10, 50),
  };
  const std::vector<obs::SpanAgg> aggs = obs::aggregate_spans(events);
  EXPECT_EQ(find(aggs, "a")->self_us, 100);
  EXPECT_EQ(find(aggs, "b")->self_us, 50);
}

TEST(AggregateSpans, SiblingsAtSameStartSortLongerFirst) {
  // Same start: the longer span is the parent.
  const std::vector<obs::TraceEvent> events = {
      ev("inner", 1, 0, 40),
      ev("outer", 1, 0, 100),
  };
  const std::vector<obs::SpanAgg> aggs = obs::aggregate_spans(events);
  EXPECT_EQ(find(aggs, "outer")->self_us, 60);
  EXPECT_EQ(find(aggs, "inner")->self_us, 40);
}

TEST(AggregateSpans, SortedBySelfTimeDescending) {
  const std::vector<obs::TraceEvent> events = {
      ev("small", 1, 0, 10),
      ev("big", 1, 100, 90),
  };
  const std::vector<obs::SpanAgg> aggs = obs::aggregate_spans(events);
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_EQ(aggs[0].name, "big");
  EXPECT_EQ(aggs[1].name, "small");
}

TEST(AggregateSpans, EmptyInput) {
  EXPECT_TRUE(obs::aggregate_spans({}).empty());
}

}  // namespace
