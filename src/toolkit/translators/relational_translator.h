#ifndef HCM_TOOLKIT_TRANSLATORS_RELATIONAL_TRANSLATOR_H_
#define HCM_TOOLKIT_TRANSLATORS_RELATIONAL_TRANSLATOR_H_

#include "src/ris/relational/database.h"
#include "src/toolkit/translator.h"

namespace hcm::toolkit {

// CM-Translator for the mini relational engine (the Sybase/Oracle stand-in).
// RID commands are SQL templates, parsed once here into prepared statements
// whose $1..$9/$v parameters each call binds; a template that does not parse
// fails every call that uses it with its parse error.
// The notify_hint for an item is "trigger <table> <value-column>
// <key-column...>": the translator declares a column-scoped UPDATE trigger
// and derives the item arguments from the key columns of the changed row.
class RelationalTranslator : public Translator {
 public:
  RelationalTranslator(RidConfig config, ris::relational::Database* db,
                       sim::Executor* executor, sim::Network* network,
                       trace::TraceRecorder* recorder,
                       const sim::FailureInjector* failures);

 protected:
  Result<Value> NativeRead(const RidItemMapping& mapping,
                           const std::vector<Value>& args) override;
  Status NativeWrite(const RidItemMapping& mapping,
                     const std::vector<Value>& args,
                     const Value& value) override;
  Result<std::vector<std::vector<Value>>> NativeList(
      const RidItemMapping& mapping) override;
  Status NativeInsert(const RidItemMapping& mapping,
                      const std::vector<Value>& args) override;
  Status NativeDelete(const RidItemMapping& mapping,
                      const std::vector<Value>& args) override;
  Status InstallChangeHook(const RidItemMapping& mapping,
                           ChangeHook hook) override;

 private:
  using Command = Result<ris::relational::PreparedStatement>;

  // One item mapping's commands, prepared from its RID templates.
  struct Commands {
    Command read;
    Command write;
    Command list;
    Command insert;
    Command del;
  };

  // Runs `mapping`'s `command` with $1..$9 bound to `args`, $v to *value.
  Result<ris::relational::QueryResult> Run(const RidItemMapping& mapping,
                                           Command Commands::*command,
                                           const std::vector<Value>& args,
                                           const Value* value);

  ris::relational::Database* db_;
  std::vector<Commands> commands_;  // parallel to rid().items
};

}  // namespace hcm::toolkit

#endif  // HCM_TOOLKIT_TRANSLATORS_RELATIONAL_TRANSLATOR_H_
