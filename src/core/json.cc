#include "core/json.h"

namespace daisy {

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    DAISY_RETURN_IF_ERROR(ParseValue(&v, 0));
    SkipSpace();
    if (pos_ != text_.size())
      return Fail("trailing characters after the JSON document");
    return v;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("json at offset " + std::to_string(pos_) +
                                   ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  // `depth` counts the containers enclosing this value.
  Status ParseValue(JsonValue* out, size_t depth) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth == kMaxJsonDepth)
        return Fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                    " levels");
      return c == '{' ? ParseObject(out, depth + 1)
                      : ParseArray(out, depth + 1);
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->text);
    }
    if (c == '-' || IsDigit(c)) return ParseNumber(out);
    return ParseKeyword(out);
  }

  Status ParseObject(JsonValue* out, size_t depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return Fail("expected a quoted object key");
      std::string key;
      DAISY_RETURN_IF_ERROR(ParseString(&key));
      if (out->Find(key) != nullptr)
        return Fail("duplicate object key '" + key + "'");
      if (!Consume(':')) return Fail("expected ':' after object key");
      JsonValue value;
      DAISY_RETURN_IF_ERROR(ParseValue(&value, depth));
      out->members.emplace_back(std::move(key), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, size_t depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      DAISY_RETURN_IF_ERROR(ParseValue(&value, depth));
      out->items.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']' in array");
    }
  }

  // Decodes the \u escape whose "\u" is already consumed to UTF-8. A
  // surrogate half (D800-DFFF) is refused: characters above U+FFFF
  // reach the readers as raw UTF-8 only.
  Status AppendUnicodeEscape(std::string* out) {
    const std::string hex = text_.substr(pos_, 4);
    if (hex.size() < 4 ||
        hex.find_first_not_of("0123456789abcdefABCDEF") != std::string::npos)
      return Fail("bad \\u escape");
    pos_ += 4;
    const unsigned cp = static_cast<unsigned>(std::stoul(hex, nullptr, 16));
    if (cp >= 0xD800 && cp <= 0xDFFF)
      return Fail("surrogate half in \\u escape");
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20)
        return Fail("raw control character in string");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': DAISY_RETURN_IF_ERROR(AppendUnicodeEscape(out)); break;
        default:
          return Fail(std::string("unsupported string escape '\\") + e + "'");
      }
    }
    return Fail("unterminated string");
  }

  Status ParseKeyword(JsonValue* out) {
    for (const std::string word : {"true", "false", "null"}) {
      if (text_.compare(pos_, word.size(), word) != 0) continue;
      pos_ += word.size();
      out->kind = word == "null" ? JsonValue::Kind::kNull
                                 : JsonValue::Kind::kBool;
      out->text = word;
      return Status::OK();
    }
    return Fail("unrecognized token");
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    const auto digits = [&] {
      const size_t from = pos_;
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
      return pos_ - from;
    };
    const auto skip = [&](const std::string& one_of) {
      const bool hit = pos_ < text_.size() &&
                       one_of.find(text_[pos_]) != std::string::npos;
      pos_ += hit;
      return hit;
    };
    skip("-");
    const bool leading_zero = pos_ < text_.size() && text_[pos_] == '0';
    const size_t int_digits = digits();
    bool ok = int_digits > 0 && !(leading_zero && int_digits > 1);
    if (ok && skip(".")) ok = digits() > 0;
    if (ok && skip("eE")) {
      skip("+-");
      ok = digits() > 0;
    }
    if (!ok)
      return Fail("malformed number '" + text_.substr(start, pos_ - start) +
                  "'");
    out->kind = JsonValue::Kind::kNumber;
    out->text = text_.substr(start, pos_ - start);
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

}  // namespace daisy
