// Experiment E9 (Section 4.3): the Stanford deployment at scale. The
// paper's qualitative claim: the toolkit coordinates several loosely
// coupled heterogeneous databases "without modifying the databases or the
// existing applications", with per-constraint work that scales with the
// update stream, not with the number of items. This harness grows the
// population across the whois + file + relational deployment, drives a
// mixed update stream, and reports event counts, CM messages, rule
// firings, wall-clock cost, and guarantee validity.
//
// The parallel engine's numbers for the same deployment (128 lanes, 1 vs 4
// worker threads, trace hashes against a golden) come from
// `hcm_e2e --workload=stanford-wide` in bench/e2e.

#include <chrono>
#include <string>

#include "bench/bench_util.h"

#include "src/common/rng.h"

namespace hcm::bench {
namespace {

constexpr const char* kRidWhois = R"(
ris whois
site WHOIS
param notify_delay 200ms
item phone
  read   get $1 phone
  write  set $1 phone $v
  list   list
  notify attr phone
interface notify phone(n) 1s
)";

constexpr const char* kRidLookup = R"(
ris filestore
site LOOKUP
item CsdPhone
  read  /staff/phone/$1
  write /staff/phone/$1
  list  /staff/phone/
interface write CsdPhone(n) 2s
)";

constexpr const char* kRidGroup = R"(
ris relational
site GROUP
item GroupPhone
  read   select phone from members where login = $1
  write  update members set phone = $v where login = $1
  list   select login from members
interface write GroupPhone(n) 2s
)";

struct Row {
  int staff;
  int updates;
  size_t events;
  uint64_t messages;
  uint64_t firings;
  double wall_ms;
  bool copies_ok;
};

// Builds the three-site Stanford deployment with both copy constraints
// installed and `staff` members seeded everywhere.
void BuildStanford(toolkit::System& system, int staff) {
  auto* whois = *system.AddWhoisSite("WHOIS");
  auto* lookup = *system.AddFileSite("LOOKUP");
  auto* group = *system.AddRelationalSite("GROUP");
  group->Execute("create table members (login str primary key, phone str)");
  for (int i = 0; i < staff; ++i) {
    std::string login = "user" + std::to_string(i);
    whois->Query("set " + login + " phone 000-0000");
    lookup->Write("/staff/phone/" + login, "\"000-0000\"");
    group->Execute("insert into members values ('" + login +
                   "', '000-0000')");
  }
  system.ConfigureTranslator(kRidWhois);
  system.ConfigureTranslator(kRidLookup);
  system.ConfigureTranslator(kRidGroup);
  for (int i = 0; i < staff; ++i) {
    Value login = Value::Str("user" + std::to_string(i));
    system.DeclareInitial(rule::ItemId{"phone", {login}});
    system.DeclareInitial(rule::ItemId{"CsdPhone", {login}});
    system.DeclareInitial(rule::ItemId{"GroupPhone", {login}});
  }
  for (const char* copy : {"CsdPhone(n)", "GroupPhone(n)"}) {
    auto constraint = *spec::MakeCopyConstraint("phone(n)", copy);
    auto suggestions = *system.Suggest(constraint);
    system.InstallStrategy(std::string("c/") + copy, constraint,
                           suggestions.at(0).strategy);
  }
}

bool CheckCopies(const trace::Trace& t) {
  trace::GuaranteeCheckOptions opts;
  opts.settle_margin = Duration::Minutes(1);
  bool ok = true;
  for (const char* copy : {"CsdPhone(n)", "GroupPhone(n)"}) {
    ok = ok &&
         trace::CheckGuarantee(t, spec::YFollowsX("phone(n)", copy), opts)
             ->holds &&
         trace::CheckGuarantee(t, spec::XLeadsY("phone(n)", copy), opts)
             ->holds;
  }
  return ok;
}

Row RunCell(int staff, int updates) {
  toolkit::System system;
  BuildStanford(system, staff);

  // Wall clock covers the simulation only — setup and the offline
  // guarantee checks are not part of the per-event cost being measured.
  auto start = std::chrono::steady_clock::now();
  Rng rng(static_cast<uint64_t>(staff) * 1000 + 77);
  for (int u = 0; u < updates; ++u) {
    int i = static_cast<int>(rng.Index(static_cast<size_t>(staff)));
    std::string number =
        std::to_string(rng.UniformInt(200, 999)) + "-" +
        std::to_string(rng.UniformInt(1000, 9999));
    system.WorkloadWrite(
        rule::ItemId{"phone", {Value::Str("user" + std::to_string(i))}},
        Value::Str(number));
    system.RunFor(Duration::Seconds(5));
  }
  system.RunFor(Duration::Minutes(2));
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  Row row;
  row.staff = staff;
  row.updates = updates;
  row.wall_ms = wall_ms;
  row.messages = system.network().total_messages_sent();
  row.firings = (*system.ShellAt("WHOIS"))->firings() +
                (*system.ShellAt("LOOKUP"))->firings() +
                (*system.ShellAt("GROUP"))->firings();
  trace::Trace t = system.FinishTrace();
  row.events = t.events.size();
  row.copies_ok = CheckCopies(t);
  return row;
}
}  // namespace
}  // namespace hcm::bench

int main() {
  using namespace hcm;
  using namespace hcm::bench;

  Banner("E9: heterogeneous deployment at scale, Section 4.3",
         "constraints over whois + files + relational are maintained "
         "concurrently without touching the sources; CM work scales with "
         "the update stream, not the population");
  std::printf("%-8s %-9s %-9s %-10s %-9s %-10s | %-10s\n", "staff",
              "updates", "events", "messages", "firings", "wall(ms)",
              "guarantees");
  bool ok = true;
  double msgs_per_update_first = 0;
  double msgs_per_update_last = 0;
  for (int staff : {10, 40, 100}) {
    auto row = RunCell(staff, 60);
    double msgs_per_update =
        static_cast<double>(row.messages) / row.updates;
    if (staff == 10) msgs_per_update_first = msgs_per_update;
    msgs_per_update_last = msgs_per_update;
    std::printf("%-8d %-9d %-9zu %-10llu %-9llu %-10.1f | %-10s %s\n",
                row.staff, row.updates, row.events,
                static_cast<unsigned long long>(row.messages),
                static_cast<unsigned long long>(row.firings), row.wall_ms,
                row.copies_ok ? "HOLD" : "VIOLATED",
                ThroughputStr(row.wall_ms, row.events).c_str());
    ok = ok && row.copies_ok;
  }
  // CM messaging tracks the update stream, not the population size.
  ok = ok && msgs_per_update_last < msgs_per_update_first * 1.5;

  std::printf("\nresult: %s — messages per update stay flat as the item "
              "population grows 10x.\n",
              ok ? "REPRODUCED" : "NOT REPRODUCED");
  return ok ? 0 : 1;
}
