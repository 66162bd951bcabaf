#include "data/schema_json.h"

#include <cctype>
#include <map>
#include <memory>
#include <utility>

#include "core/durable.h"

namespace daisy::data {

namespace {

// ---- Minimal JSON value model + recursive-descent parser ----------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;
  // Insertion-ordered object members (duplicate keys rejected at parse).
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    DAISY_RETURN_IF_ERROR(ParseValue(&v));
    SkipSpace();
    if (pos_ != text_.size())
      return Fail("trailing characters after the JSON document");
    return v;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("schema json at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
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

  Status ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    DAISY_CHECK(Consume('{'));
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return Fail("expected a quoted object key");
      std::string key;
      DAISY_RETURN_IF_ERROR(ParseString(&key));
      if (!Consume(':')) return Fail("expected ':' after object key");
      JsonValue value;
      DAISY_RETURN_IF_ERROR(ParseValue(&value));
      for (const auto& [k, v] : out->members)
        if (k == key) return Fail("duplicate object key '" + key + "'");
      out->members.emplace_back(std::move(key), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    DAISY_CHECK(Consume('['));
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      DAISY_RETURN_IF_ERROR(ParseValue(&value));
      out->items.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    DAISY_CHECK(pos_ < text_.size() && text_[pos_] == '"');
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
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
          default:
            return Fail(std::string("unsupported string escape '\\") + e +
                        "'");
        }
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  Status ParseKeyword(JsonValue* out) {
    auto matches = [&](const char* kw) {
      const size_t len = std::string(kw).size();
      return text_.compare(pos_, len, kw) == 0;
    };
    if (matches("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return Status::OK();
    }
    if (matches("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      pos_ += 5;
      return Status::OK();
    }
    if (matches("null")) {
      out->kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return Status::OK();
    }
    return Fail("unrecognized token");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty()) return Fail("unrecognized token");
    char* end = nullptr;
    out->number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size())
      return Fail("malformed number '" + token + "'");
    out->kind = JsonValue::Kind::kNumber;
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---- Spec extraction ----------------------------------------------

Status SpecError(const std::string& what) {
  return Status::InvalidArgument("relational spec: " + what);
}

Result<std::string> RequiredString(const JsonValue& obj,
                                   const std::string& key,
                                   const std::string& where) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return SpecError(where + " is missing \"" + key + "\"");
  if (v->kind != JsonValue::Kind::kString || v->str.empty())
    return SpecError(where + " \"" + key + "\" must be a non-empty string");
  return v->str;
}

Status CheckKnownKeys(const JsonValue& obj,
                      const std::vector<std::string>& known,
                      const std::string& where) {
  for (const auto& [k, v] : obj.members) {
    bool ok = false;
    for (const auto& known_key : known) ok = ok || k == known_key;
    if (!ok) return SpecError(where + " has unknown key \"" + k + "\"");
  }
  return Status::OK();
}

}  // namespace

Result<RelationalSpec> ParseRelationalSpecJson(const std::string& json) {
  JsonParser parser(json);
  auto parsed = parser.Parse();
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (root.kind != JsonValue::Kind::kObject)
    return SpecError("top level must be an object");
  DAISY_RETURN_IF_ERROR(CheckKnownKeys(root, {"tables"}, "top level"));
  const JsonValue* tables = root.Find("tables");
  if (tables == nullptr || tables->kind != JsonValue::Kind::kArray ||
      tables->items.empty())
    return SpecError("\"tables\" must be a non-empty array");

  RelationalSpec spec;
  for (size_t i = 0; i < tables->items.size(); ++i) {
    const JsonValue& t = tables->items[i];
    const std::string where = "table entry " + std::to_string(i);
    if (t.kind != JsonValue::Kind::kObject)
      return SpecError(where + " must be an object");
    DAISY_RETURN_IF_ERROR(CheckKnownKeys(
        t, {"name", "file", "primary_key", "foreign_keys"}, where));
    RelationalTableSpec table;
    auto name = RequiredString(t, "name", where);
    if (!name.ok()) return name.status();
    table.name = name.take();
    auto file = RequiredString(t, "file", where);
    if (!file.ok()) return file.status();
    table.file = file.take();
    auto pk = RequiredString(t, "primary_key", where);
    if (!pk.ok()) return pk.status();
    table.primary_key = pk.take();

    if (const JsonValue* fks = t.Find("foreign_keys"); fks != nullptr) {
      if (fks->kind != JsonValue::Kind::kArray)
        return SpecError(where + " \"foreign_keys\" must be an array");
      for (size_t f = 0; f < fks->items.size(); ++f) {
        const JsonValue& fk = fks->items[f];
        const std::string fk_where =
            where + " foreign key " + std::to_string(f);
        if (fk.kind != JsonValue::Kind::kObject)
          return SpecError(fk_where + " must be an object");
        DAISY_RETURN_IF_ERROR(
            CheckKnownKeys(fk, {"column", "references"}, fk_where));
        auto column = RequiredString(fk, "column", fk_where);
        if (!column.ok()) return column.status();
        const JsonValue* refs = fk.Find("references");
        if (refs == nullptr || refs->kind != JsonValue::Kind::kObject)
          return SpecError(fk_where + " needs a \"references\" object");
        DAISY_RETURN_IF_ERROR(CheckKnownKeys(
            *refs, {"table", "column"}, fk_where + " references"));
        auto ref_table =
            RequiredString(*refs, "table", fk_where + " references");
        if (!ref_table.ok()) return ref_table.status();
        auto ref_column =
            RequiredString(*refs, "column", fk_where + " references");
        if (!ref_column.ok()) return ref_column.status();
        ForeignKey edge;
        edge.child_table = table.name;
        edge.child_column = column.take();
        edge.parent_table = ref_table.take();
        edge.parent_column = ref_column.take();
        spec.foreign_keys.push_back(std::move(edge));
      }
    }
    spec.tables.push_back(std::move(table));
  }
  return spec;
}

Result<RelationalSpec> LoadRelationalSpec(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.ok()) {
    if (text.status().code() == Status::Code::kNotFound)
      return Status::IOError("cannot open schema json: " + path);
    return text.status();
  }
  return ParseRelationalSpecJson(text.value());
}

}  // namespace daisy::data
