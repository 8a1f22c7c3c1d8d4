#include "src/rule/lexer.h"

#include <cctype>
#include <cmath>

#include "src/common/string_util.h"

namespace hcm::rule {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsDurationUnit(const std::string& s) {
  return s == "ms" || s == "s" || s == "m" || s == "h";
}

}  // namespace

Result<std::vector<Token>> TokenizeRuleText(const std::string& input) {
  std::vector<Token> out;
  size_t pos = 0;
  const size_t n = input.size();
  while (pos < n) {
    char c = input[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    if (c == '#') {  // comment to end of line
      while (pos < n && input[pos] != '\n') ++pos;
      continue;
    }
    size_t start = pos;
    if (IsIdentStart(c)) {
      while (pos < n && IsIdentChar(input[pos])) ++pos;
      out.push_back({TokenKind::kIdent, input.substr(start, pos - start),
                     start});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      bool is_real = false;
      while (pos < n && (std::isdigit(static_cast<unsigned char>(input[pos])) ||
                         input[pos] == '.')) {
        if (input[pos] == '.') {
          // Guard ".." or trailing '.': only consume a '.' followed by digit.
          if (pos + 1 >= n ||
              !std::isdigit(static_cast<unsigned char>(input[pos + 1]))) {
            break;
          }
          is_real = true;
        }
        ++pos;
      }
      // Attached unit suffix -> duration token.
      size_t unit_start = pos;
      while (pos < n && std::isalpha(static_cast<unsigned char>(input[pos]))) {
        ++pos;
      }
      std::string unit = input.substr(unit_start, pos - unit_start);
      if (!unit.empty()) {
        if (!IsDurationUnit(unit)) {
          return Status::InvalidArgument(
              StrFormat("bad numeric suffix '%s' at offset %zu", unit.c_str(),
                        start));
        }
        out.push_back({TokenKind::kDuration, input.substr(start, pos - start),
                       start});
        continue;
      }
      out.push_back({is_real ? TokenKind::kReal : TokenKind::kInt,
                     input.substr(start, pos - start), start});
      continue;
    }
    if (c == '"') {
      ++pos;
      std::string s;
      while (true) {
        if (pos >= n) {
          return Status::InvalidArgument("unterminated string literal");
        }
        if (input[pos] == '"') {
          ++pos;
          break;
        }
        if (input[pos] == '\\' && pos + 1 < n) {
          char next = input[pos + 1];
          if (next == 'n') {
            s += '\n';
          } else if (next == 't') {
            s += '\t';
          } else {
            s += next;
          }
          pos += 2;
        } else {
          s += input[pos++];
        }
      }
      out.push_back({TokenKind::kString, std::move(s), start});
      continue;
    }
    // Multi-character symbols, longest first.
    static const char* kMulti[] = {"->", "=>", "@@", "!=", "<=", ">="};
    bool matched = false;
    for (const char* sym : kMulti) {
      if (input.compare(pos, 2, sym) == 0) {
        out.push_back({TokenKind::kSymbol, sym, start});
        pos += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    static const std::string kSingles = "(),?:;@[]&=<>+-*/|.";
    if (kSingles.find(c) == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("unexpected character '%c' at offset %zu", c, pos));
    }
    out.push_back({TokenKind::kSymbol, std::string(1, c), start});
    ++pos;
  }
  out.push_back({TokenKind::kEnd, "", pos});
  return out;
}

Result<Duration> ParseDurationText(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty duration");
  size_t unit_pos = text.size();
  while (unit_pos > 0 &&
         std::isalpha(static_cast<unsigned char>(text[unit_pos - 1]))) {
    --unit_pos;
  }
  std::string number = text.substr(0, unit_pos);
  std::string unit = text.substr(unit_pos);
  HCM_ASSIGN_OR_RETURN(double v, ParseDouble(number));
  double ms;
  if (unit == "ms") {
    ms = v;
  } else if (unit == "s" || unit.empty()) {  // bare number = seconds
    ms = v * 1000;
  } else if (unit == "m") {
    ms = v * 60000;
  } else if (unit == "h") {
    ms = v * 3600000;
  } else {
    return Status::InvalidArgument("bad duration unit: " + unit);
  }
  // Converting a double outside int64's range is undefined, and -2^63 ms
  // could not be printed back (Duration::ToString negates it), so accept
  // only |ms| < 2^63. NaN fails the comparison too.
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (!(std::fabs(ms) < kLimit)) {
    return Status::InvalidArgument("duration out of range: " + text);
  }
  return Duration::Millis(static_cast<int64_t>(ms));
}

}  // namespace hcm::rule
