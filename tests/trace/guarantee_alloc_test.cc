// Allocation regression test for the guarantee checker: a check whose
// first LHS atom binds every item parameter allocates for the compiled
// guarantee, the timeline, the per-item memo entries and the
// geometrically grown representative index, never per LHS witness. Two
// payroll traces over the same 32 employees, one with four times the
// updates of the other (and so many times the witnesses), must both stay
// under one bound that has a fixed term and a per-item term only.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/spec/guarantee.h"
#include "src/trace/guarantee_checker.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocOrThrow(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable allocation form the test's code paths use goes through
// malloc/free, so memory never crosses between these and a sanitizer's own
// operators.
void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hcm::trace {
namespace {

using rule::Event;
using rule::EventKind;
using rule::ItemId;

constexpr int kEmployees = 32;

// The bound: a fixed term for the compiled guarantee and the run's scratch,
// plus a per-item term for the timeline's interner and the sample-point and
// item-match memo entries of each employee's items. (About 780-810
// allocations for either trace when written; one allocation per witness
// would be 19k-76k.)
constexpr size_t kFixedAllocations = 300;
constexpr size_t kAllocationsPerItem = 12;

// E1 payroll: salary1(n) updates propagate to salary2(n) 50-900 ms later,
// in order per employee.
Trace PayrollTrace(int updates, uint64_t seed) {
  Rng rng(seed);
  TraceRecorder rec;
  for (int n = 0; n < kEmployees; ++n) {
    rec.SetInitialValue(ItemId{"salary1", {Value::Int(n)}}, Value::Int(1000));
    rec.SetInitialValue(ItemId{"salary2", {Value::Int(n)}}, Value::Int(1000));
  }
  std::vector<Event> events;
  std::vector<int64_t> current(kEmployees, 1000);
  std::vector<int64_t> last_copy(kEmployees, 0);
  int64_t now = 0;
  for (int u = 0; u < updates; ++u) {
    now += rng.UniformInt(20, 400);
    int n = static_cast<int>(rng.Index(kEmployees));
    int64_t v = 1000 + rng.UniformInt(1, 500);
    Event w;
    w.time = TimePoint::FromMillis(now);
    w.site = "A";
    w.kind = EventKind::kWriteSpont;
    w.item = ItemId{"salary1", {Value::Int(n)}};
    w.values = {Value::Int(current[n]), Value::Int(v)};
    events.push_back(w);
    current[n] = v;
    int64_t at = std::max(now + rng.UniformInt(50, 900), last_copy[n] + 1);
    last_copy[n] = at;
    Event c;
    c.time = TimePoint::FromMillis(at);
    c.site = "B";
    c.kind = EventKind::kWrite;
    c.item = ItemId{"salary2", {Value::Int(n)}};
    c.values = {Value::Int(v)};
    c.rule_id = 0;
    c.trigger_event_id = 0;
    c.rhs_step = 0;
    events.push_back(c);
  }
  std::stable_sort(
      events.begin(), events.end(),
      [](const Event& a, const Event& b) { return a.time < b.time; });
  for (Event& e : events) rec.Record(std::move(e));
  return rec.Finish(TimePoint::FromMillis(now + 2000));
}

struct Counted {
  GuaranteeCheckResult result;
  size_t allocations = 0;
};

Counted CountCheck(const Trace& trace, const spec::Guarantee& g) {
  GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Seconds(1);
  g_allocations = 0;
  g_counting = true;
  auto r = CheckGuarantee(trace, g, opts);
  g_counting = false;
  EXPECT_TRUE(r.ok());
  return Counted{r.ok() ? *r : GuaranteeCheckResult{}, g_allocations.load()};
}

TEST(GuaranteeAllocTest, AllocationsDoNotGrowWithWitnesses) {
  Trace small = PayrollTrace(100, 7);
  Trace large = PayrollTrace(400, 7);
  const size_t items = 2 * kEmployees;
  const size_t bound = kFixedAllocations + kAllocationsPerItem * items;
  // E1's two guarantees, plus y-follows-x without its order constraint:
  // its RHS reads no LHS time variable, so witnesses sharing (n, yv) are
  // deduplicated through the representative index.
  for (const spec::Guarantee& g :
       {spec::YFollowsX("salary1(n)", "salary2(n)"),
        spec::XLeadsY("salary1(n)", "salary2(n)"),
        spec::ParseGuarantee("(salary2(n) = yv)@t1 => (salary1(n) = yv)@t2")
            .value()}) {
    Counted a = CountCheck(small, g);
    Counted b = CountCheck(large, g);
    EXPECT_EQ(a.result.stats.items, items) << g.name;
    EXPECT_EQ(b.result.stats.items, items) << g.name;
    EXPECT_TRUE(a.result.holds) << g.name << ": " << a.result.ToString();
    EXPECT_TRUE(b.result.holds) << g.name << ": " << b.result.ToString();
    // The larger trace has many times the witnesses...
    EXPECT_GT(b.result.lhs_witnesses, 3 * a.result.lhs_witnesses) << g.name;
    // ...but both checks stay under the same witness-free bound.
    EXPECT_LE(a.allocations, bound)
        << g.name << ": " << a.result.lhs_witnesses << " witnesses";
    EXPECT_LE(b.allocations, bound)
        << g.name << ": " << b.result.lhs_witnesses << " witnesses";
  }
}

}  // namespace
}  // namespace hcm::trace
