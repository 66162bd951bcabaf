#include "data/schema_json.h"

#include <utility>

#include "core/durable.h"
#include "core/json.h"

namespace daisy::data {

namespace {

Status SpecError(const std::string& what) {
  return Status::InvalidArgument("relational spec: " + what);
}

Result<std::string> RequiredString(const JsonValue& obj,
                                   const std::string& key,
                                   const std::string& where) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return SpecError(where + " is missing \"" + key + "\"");
  if (v->kind != JsonValue::Kind::kString || v->text.empty())
    return SpecError(where + " \"" + key + "\" must be a non-empty string");
  return v->text;
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
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return SpecError(parsed.status().message());
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
