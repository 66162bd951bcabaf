// The one JSON reader. The relational spec (data/schema_json) and the
// JSONL run log (obs/run_logger) both parse through it, and each
// reader decides what its keys mean.
//
// A recursive-descent parser over RFC 8259: objects, arrays, strings
// (every escape; `\uXXXX` decoded to UTF-8, a surrogate half refused),
// numbers, true/false/null. Containers nest at most kMaxJsonDepth
// levels, so no input can overflow the stack. Duplicate object keys,
// raw control characters in strings, trailing bytes and every other
// malformation are an InvalidArgument naming the byte offset.
#ifndef DAISY_CORE_JSON_H_
#define DAISY_CORE_JSON_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"

namespace daisy {

/// Deepest container nesting ParseJson accepts (the relational spec
/// needs 6).
inline constexpr size_t kMaxJsonDepth = 64;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  /// kString: the decoded text. kNumber: the number's token as written,
  /// so each reader converts it at the precision it needs. kBool and
  /// kNull: the keyword.
  std::string text;
  std::vector<JsonValue> items;
  /// Object members in document order (keys are unique).
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* Find(const std::string& key) const;
};

/// Parses one complete JSON document (surrounding whitespace allowed).
Result<JsonValue> ParseJson(const std::string& text);

}  // namespace daisy

#endif  // DAISY_CORE_JSON_H_
