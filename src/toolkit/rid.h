#ifndef HCM_TOOLKIT_RID_H_
#define HCM_TOOLKIT_RID_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/spec/interface_spec.h"

namespace hcm::toolkit {

// How a CM-Translator maps one item base onto the raw source's native
// interface. Commands are templates in the RIS's own language with
// positional placeholders: $1..$9 for the item's arguments and $v for the
// value being written. For whois these are the line protocol, for a file
// store a path template and for biblio a "field=term" search expression,
// each rendered per request by SubstituteCommand. For a relational RIS they
// are SQL, parsed once when the translator is configured into prepared
// statements whose placeholders are parameters in literal positions only
// (docs/RID_FORMAT.md); a template's parse error is returned by each
// request that uses it.
struct RidItemMapping {
  std::string item_base;
  std::string read_command;
  std::string write_command;
  std::string list_command;    // enumerates instances of a parameterized item
  std::string insert_command;  // referential-integrity support
  std::string delete_command;
  std::string notify_hint;     // RIS-specific trigger/hook declaration
};

// A parsed CM-Raw-Interface-Description: "configures standard
// CM-Translators to the particular underlying data source by presenting the
// specifics of the RISI in a standard format" (Section 4.1).
//
// Textual format, line oriented ('#' comments):
//
//   ris relational
//   site A
//   param server sybase-sf.company.com
//   param write_delay 500ms
//   item salary1
//     read   select salary from employees where empid = $1
//     write  update employees set salary = $v where empid = $1
//     list   select empid from employees
//     notify trigger employees.salary
//   interface notify salary1(n) 1s
//   interface write salary1(n) 2s
//   interface periodic-notify salary1(n) 300s 1s
//   interface conditional-notify salary1(n) 1s abs(b - a) > a * 0.1
struct RidConfig {
  std::string ris_type;  // relational | filestore | whois | biblio
  std::string site;
  std::map<std::string, std::string> params;
  std::vector<RidItemMapping> items;
  std::vector<spec::InterfaceSpec> interfaces;

  const RidItemMapping* FindItem(const std::string& base) const;

  // A named param parsed as a duration, or `fallback` when absent.
  Duration ParamDuration(const std::string& name, Duration fallback) const;
};

Result<RidConfig> ParseRid(const std::string& text);

// Substitutes $1..$9 with the item's arguments (rendered with `render`) and
// $v with the value. Returns an error when a referenced argument is absent.
Result<std::string> SubstituteCommand(
    const std::string& command_template, const std::vector<Value>& args,
    const Value* value, const std::function<std::string(const Value&)>& render);

}  // namespace hcm::toolkit

#endif  // HCM_TOOLKIT_RID_H_
