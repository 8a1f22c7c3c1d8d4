#include "src/trace/trace_io.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "src/common/string_util.h"
#include "src/rule/lexer.h"
#include "src/rule/parser.h"

namespace hcm::trace {
namespace {

std::string QuoteSite(const std::string& site) {
  return Value::Str(site).ToString();
}

// Renders an event's descriptor in template syntax (all-ground).
std::string DescriptorText(const rule::Event& e) {
  rule::EventTemplate tpl;
  tpl.kind = e.kind;
  tpl.item = rule::ItemRef{e.item.base, {}};
  for (const Value& v : e.item.args) {
    tpl.item.args.push_back(rule::Term::Lit(v));
  }
  for (const Value& v : e.values) {
    tpl.values.push_back(rule::Term::Lit(v));
  }
  return tpl.ToString();
}

}  // namespace

std::string SerializeTrace(const Trace& trace) {
  std::string out = StrFormat("hcm-trace v1 horizon=%lldms\n",
                              static_cast<long long>(trace.horizon.millis()));
  for (const auto& [item, value] : trace.initial_values) {
    out += "init " + item.ToString() + " = " + value.ToString() + "\n";
  }
  for (const auto& e : trace.events) {
    out += StrFormat("event %lld @ %lldms site %s %s",
                     static_cast<long long>(e.id),
                     static_cast<long long>(e.time.millis()),
                     QuoteSite(e.site).c_str(), DescriptorText(e).c_str());
    if (!e.spontaneous()) {
      out += StrFormat(" rule %lld trigger %lld step %d",
                       static_cast<long long>(e.rule_id),
                       static_cast<long long>(e.trigger_event_id),
                       e.rhs_step);
    }
    out += "\n";
  }
  return out;
}

namespace {

using rule::Token;
using rule::TokenCursor;
using rule::TokenKind;

Result<int64_t> ExpectInt(TokenCursor& cursor) {
  bool negative = cursor.AcceptSymbol("-");
  if (cursor.Peek().kind != TokenKind::kInt) {
    return cursor.Error("expected integer");
  }
  HCM_ASSIGN_OR_RETURN(int64_t v, ParseInt64(cursor.Advance().text));
  return negative ? -v : v;
}

Result<int64_t> ExpectMillis(TokenCursor& cursor) {
  const Token& t = cursor.Peek();
  if (t.kind != TokenKind::kDuration && t.kind != TokenKind::kInt) {
    return cursor.Error("expected duration");
  }
  HCM_ASSIGN_OR_RETURN(Duration d, rule::ParseDurationText(cursor.Advance().text));
  return d.millis();
}

Result<std::string> ExpectString(TokenCursor& cursor) {
  if (cursor.Peek().kind != TokenKind::kString) {
    return cursor.Error("expected quoted string");
  }
  return cursor.Advance().text;
}

// Converts a fully ground template back into descriptor fields.
Status TemplateToEvent(const rule::EventTemplate& tpl, rule::Event* event) {
  event->kind = tpl.kind;
  rule::Binding empty;
  if (rule::EventKindHasItem(tpl.kind)) {
    HCM_ASSIGN_OR_RETURN(event->item, tpl.item.Ground(empty));
  }
  event->values.clear();
  for (const auto& term : tpl.values) {
    HCM_ASSIGN_OR_RETURN(Value v, term.Ground(empty));
    event->values.push_back(std::move(v));
  }
  return Status::OK();
}

}  // namespace

Result<Trace> ParseTrace(const std::string& text) {
  Trace trace;
  bool saw_header = false;
  size_t line_no = 0;
  for (const std::string& raw : StrSplit(text, '\n')) {
    ++line_no;
    std::string line = StrTrim(raw);
    if (line.empty() || line[0] == '#') continue;
    auto fail = [&](const std::string& msg) {
      return Status::InvalidArgument(
          StrFormat("trace line %zu: %s", line_no, msg.c_str()));
    };
    if (StrStartsWith(line, "hcm-trace")) {
      std::vector<std::string> parts = StrSplitTrim(line, ' ');
      if (parts.size() < 3 || parts[1] != "v1" ||
          !StrStartsWith(parts[2], "horizon=")) {
        return fail("bad header");
      }
      HCM_ASSIGN_OR_RETURN(Duration h,
                           rule::ParseDurationText(parts[2].substr(8)));
      trace.horizon = TimePoint::FromMillis(h.millis());
      saw_header = true;
      continue;
    }
    if (!saw_header) return fail("missing hcm-trace header");
    if (StrStartsWith(line, "init ")) {
      // "init <item> = <value>"; split on the last " = ".
      size_t eq = line.rfind(" = ");
      if (eq == std::string::npos) return fail("init needs '<item> = <v>'");
      std::string item_text = StrTrim(line.substr(5, eq - 5));
      std::string value_text = StrTrim(line.substr(eq + 3));
      auto probe = rule::ParseTemplate("RR(" + item_text + ")");
      if (!probe.ok()) return fail("bad init item: " + item_text);
      rule::Binding empty;
      HCM_ASSIGN_OR_RETURN(rule::ItemId item, probe->item.Ground(empty));
      HCM_ASSIGN_OR_RETURN(Value value, Value::Parse(value_text));
      trace.initial_values[item] = std::move(value);
      continue;
    }
    HCM_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                         rule::TokenizeRuleText(line));
    TokenCursor cursor(std::move(tokens));
    if (!cursor.AcceptIdent("event")) {
      return fail("expected 'event' or 'init'");
    }
    rule::Event event;
    HCM_ASSIGN_OR_RETURN(event.id, ExpectInt(cursor));
    HCM_RETURN_IF_ERROR(cursor.ExpectSymbol("@"));
    HCM_ASSIGN_OR_RETURN(int64_t ms, ExpectMillis(cursor));
    event.time = TimePoint::FromMillis(ms);
    if (!cursor.AcceptIdent("site")) return fail("expected 'site'");
    HCM_ASSIGN_OR_RETURN(event.site, ExpectString(cursor));
    HCM_ASSIGN_OR_RETURN(rule::EventTemplate tpl,
                         rule::ParseTemplateFrom(cursor));
    HCM_RETURN_IF_ERROR(TemplateToEvent(tpl, &event));
    if (cursor.AcceptIdent("rule")) {
      HCM_ASSIGN_OR_RETURN(event.rule_id, ExpectInt(cursor));
      if (!cursor.AcceptIdent("trigger")) return fail("expected 'trigger'");
      HCM_ASSIGN_OR_RETURN(event.trigger_event_id, ExpectInt(cursor));
      if (!cursor.AcceptIdent("step")) return fail("expected 'step'");
      HCM_ASSIGN_OR_RETURN(int64_t step, ExpectInt(cursor));
      if (step < std::numeric_limits<int>::min() ||
          step > std::numeric_limits<int>::max()) {
        return fail(StrFormat("step %lld out of range",
                              static_cast<long long>(step)));
      }
      event.rhs_step = static_cast<int>(step);
    }
    if (!cursor.AtEnd()) return fail("trailing tokens");
    trace.events.push_back(std::move(event));
  }
  if (!saw_header) {
    return Status::InvalidArgument("not an hcm-trace file");
  }
  return trace;
}

Status SaveTraceFile(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Unavailable("cannot open " + path);
  out << SerializeTrace(trace);
  return out.good() ? Status::OK()
                    : Status::Unavailable("write failed: " + path);
}

Result<Trace> LoadTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseTrace(buffer.str());
}

}  // namespace hcm::trace
