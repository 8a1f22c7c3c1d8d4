#ifndef HCM_TOOLKIT_MESSAGES_H_
#define HCM_TOOLKIT_MESSAGES_H_

#include <cstdint>
#include <string>

#include "src/common/symbols.h"
#include "src/rule/binding.h"
#include "src/rule/event.h"
#include "src/rule/item.h"
#include "src/toolkit/failure.h"

namespace hcm::toolkit {

// Network payloads exchanged between CM-Shells and CM-Translators. Message
// kinds (sim::Message::kind):
//   "event"    EventMessage: an event observed/produced at the sender,
//              delivered to the shell responsible for rules on it.
//   "fire"     FireMessage: LHS shell -> RHS shell, carrying the matching
//              interpretation; the receiver executes the rule's RHS.
//   "wr"/"rr"  CM-Interface requests, shell -> local translator.
//   "del"      CM-initiated delete request, shell -> local translator.
//   "failure"  FailureMessage, translator -> local shell.
//   "failure-relay"  FailureMessage, that shell -> its strategy peers (the
//              shells sharing an installed strategy with it); informational.

struct EventMessage {
  rule::Event event;
};

// A fired rule, LHS shell -> RHS shell. On the compiled path the matching
// interpretation travels as a raw slot-indexed frame (the two shells
// compiled identical rule content, so their slot maps agree — see
// Rule::Compile); the reference path carries the name-keyed map.
struct FireMessage {
  int64_t rule_id = -1;
  int64_t trigger_event_id = -1;
  TimePoint trigger_time;
  rule::Binding binding;      // reference (string) path
  rule::BindingFrame frame;   // compiled path
  bool compiled = false;
};

// CM-Interface request (kinds "wr", "rr", "del"): a pre-built event whose
// time/site the translator stamps at receipt (a WR/RR event *is* "the
// database receiving the request"). whole_base marks a parameterized read
// covering every instance of event.item.base.
struct RequestMessage {
  rule::Event event;
  bool whole_base = false;
};

struct FailureMessage {
  FailureNotice notice;
};

// The network endpoint name a site's translator listens on (the shell
// itself listens on the bare site name). Senders on the hot path should
// build this once at wiring time and reuse the cached string/symbol rather
// than concatenating per send.
inline std::string TranslatorEndpoint(const std::string& site) {
  return site + "#tr";
}

}  // namespace hcm::toolkit

#endif  // HCM_TOOLKIT_MESSAGES_H_
