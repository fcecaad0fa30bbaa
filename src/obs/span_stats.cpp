#include "cts/obs/span_stats.hpp"

#include <algorithm>
#include <map>

namespace cts::obs {

std::vector<SpanAgg> aggregate_spans(const std::vector<TraceEvent>& events) {
  // Sort by (tid, start, duration desc) so that within a thread a parent
  // span precedes the spans nested inside it, even when they start on the
  // same microsecond tick.
  std::vector<const TraceEvent*> order;
  order.reserve(events.size());
  for (const TraceEvent& e : events) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->tid != b->tid) return a->tid < b->tid;
              if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
              return a->dur_us > b->dur_us;
            });

  std::map<std::string, SpanAgg> by_name;
  struct Open {
    std::int64_t end_us;
    SpanAgg* agg;
  };
  std::vector<Open> stack;
  int current_tid = 0;
  bool first = true;

  for (const TraceEvent* e : order) {
    if (first || e->tid != current_tid) {
      stack.clear();
      current_tid = e->tid;
      first = false;
    }
    // Close finished ancestors; anything still open encloses this span.
    while (!stack.empty() && stack.back().end_us <= e->ts_us) stack.pop_back();

    SpanAgg& agg = by_name[e->name];
    if (agg.count == 0) {
      agg.name = e->name;
      agg.min_us = e->dur_us;
      agg.max_us = e->dur_us;
    } else {
      agg.min_us = std::min(agg.min_us, e->dur_us);
      agg.max_us = std::max(agg.max_us, e->dur_us);
    }
    ++agg.count;
    agg.total_us += e->dur_us;
    agg.self_us += e->dur_us;
    // Nested time belongs to the child: subtract from the immediate parent.
    if (!stack.empty()) stack.back().agg->self_us -= e->dur_us;
    stack.push_back({e->ts_us + e->dur_us, &agg});
  }

  std::vector<SpanAgg> out;
  out.reserve(by_name.size());
  for (auto& [name, agg] : by_name) out.push_back(std::move(agg));
  std::sort(out.begin(), out.end(), [](const SpanAgg& a, const SpanAgg& b) {
    if (a.self_us != b.self_us) return a.self_us > b.self_us;
    return a.name < b.name;
  });
  return out;
}

}  // namespace cts::obs
