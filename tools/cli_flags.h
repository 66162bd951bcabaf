// Strict command-line flag parsing shared by the daisy tools
// (daisy_cli, daisy_serve). Every flag must be declared, every
// non-boolean flag must have a value, numeric flags must parse fully as
// non-negative decimal integers and real flags as finite decimal
// numbers — a typo exits non-zero with a clear message instead of being
// silently ignored or wrapped into a huge count.
#ifndef DAISY_TOOLS_CLI_FLAGS_H_
#define DAISY_TOOLS_CLI_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace daisy::cli {

/// Declares one accepted --flag.
struct FlagSpec {
  const char* name;       // without the leading "--"
  bool boolean = false;   // takes no value (e.g. --resume)
  bool numeric = false;   // value must be a non-negative decimal integer
  bool repeated = false;  // may appear more than once (values accumulate)
  bool real = false;      // value must be a finite decimal number
};

/// Parsed flags. Accepts both "--flag value" and "--flag=value".
class FlagSet {
 public:
  /// Parses argv[first..argc). On failure returns false with a
  /// human-readable message in *error.
  bool Parse(int argc, char** argv, int first,
             const std::vector<FlagSpec>& specs, std::string* error) {
    for (int i = first; i < argc;) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) != 0) {
        *error = "unexpected positional argument: " + token;
        return false;
      }
      std::string key = token.substr(2);
      std::string inline_value;
      bool has_inline = false;
      if (const size_t eq = key.find('='); eq != std::string::npos) {
        inline_value = key.substr(eq + 1);
        key = key.substr(0, eq);
        has_inline = true;
      }
      const FlagSpec* spec = nullptr;
      for (const auto& s : specs) {
        if (key == s.name) {
          spec = &s;
          break;
        }
      }
      if (spec == nullptr) {
        *error = "unknown flag: --" + key;
        return false;
      }
      std::string value;
      if (spec->boolean) {
        if (has_inline) {
          *error = "flag --" + key + " takes no value";
          return false;
        }
        value = "1";
        i += 1;
      } else if (has_inline) {
        value = inline_value;
        i += 1;
      } else {
        if (i + 1 >= argc) {
          *error = "flag --" + key + " requires a value";
          return false;
        }
        value = argv[i + 1];
        i += 2;
      }
      if (spec->numeric && !IsCount(value)) {
        *error = "flag --" + key +
                 (IsInteger(value) ? " expects a non-negative integer"
                                   : " expects an integer") +
                 ", got: " + value;
        return false;
      }
      if (spec->real && !IsReal(value)) {
        *error = "flag --" + key + " expects a finite number, got: " + value;
        return false;
      }
      if (spec->repeated) {
        repeated_[key].push_back(value);
      } else {
        if (flags_.count(key) != 0) {
          *error = "flag --" + key + " given more than once";
          return false;
        }
        flags_[key] = value;
      }
    }
    return true;
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = flags_.find(key);
    return it == flags_.end() ? fallback : it->second;
  }

  /// Value of a numeric flag (validated during Parse).
  long GetInt(const std::string& key, long fallback) const {
    const auto it = flags_.find(key);
    return it == flags_.end() ? fallback : std::atol(it->second.c_str());
  }

  /// Value of a real flag (validated during Parse).
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = flags_.find(key);
    if (it == flags_.end()) return fallback;
    return std::strtod(it->second.c_str(), nullptr);
  }

  bool Has(const std::string& key) const {
    return flags_.count(key) != 0 || repeated_.count(key) != 0;
  }

  /// All values of a repeated flag, in command-line order.
  std::vector<std::string> GetAll(const std::string& key) const {
    const auto it = repeated_.find(key);
    return it == repeated_.end() ? std::vector<std::string>{} : it->second;
  }

 private:
  static bool IsInteger(const std::string& s) {
    if (s.empty()) return false;
    size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
    if (i == s.size()) return false;
    for (; i < s.size(); ++i)
      if (s[i] < '0' || s[i] > '9') return false;
    return true;
  }

  // An integer that GetInt returns unchanged: not negative, and no
  // more than a long holds.
  static bool IsCount(const std::string& s) {
    if (!IsInteger(s) || s[0] == '-') return false;
    errno = 0;
    std::strtol(s.c_str(), nullptr, 10);
    return errno == 0;
  }

  static bool IsReal(const std::string& s) {
    if (s.empty()) return false;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    return errno == 0 && *end == '\0' && std::isfinite(v);
  }

  std::map<std::string, std::string> flags_;
  std::map<std::string, std::vector<std::string>> repeated_;
};

}  // namespace daisy::cli

#endif  // DAISY_TOOLS_CLI_FLAGS_H_
