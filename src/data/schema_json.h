// JSON description of a relational schema, for the CLI's train-rel /
// eval-rel commands. The JSON names tables, files and key columns;
// attribute types come from the data files themselves (CSV schema
// inference, or the schema baked into a .dcol). Expected shape:
//
//   {
//     "tables": [
//       {"name": "users", "file": "users.csv", "primary_key": "user_id"},
//       {"name": "orders", "file": "orders.csv", "primary_key": "order_id",
//        "foreign_keys": [
//          {"column": "user_id",
//           "references": {"table": "users", "column": "user_id"}}]}
//     ]
//   }
//
// The JSON is read by core/json (nesting bounded at kMaxJsonDepth
// levels; the spec needs 6). Malformed JSON and every shape error are
// a descriptive "relational spec: ..." InvalidArgument; unknown keys
// are errors too, so a typo ("primary_kay") cannot pass silently.
#ifndef DAISY_DATA_SCHEMA_JSON_H_
#define DAISY_DATA_SCHEMA_JSON_H_

#include <string>
#include <vector>

#include "core/status.h"
#include "data/relational_schema.h"

namespace daisy::data {

/// One table entry of the JSON spec.
struct RelationalTableSpec {
  std::string name;
  std::string file;  ///< relative data file (.csv or .dcol)
  std::string primary_key;
};

/// Parsed spec: tables in declaration order plus the FK edges.
struct RelationalSpec {
  std::vector<RelationalTableSpec> tables;
  std::vector<ForeignKey> foreign_keys;
};

/// Parses the JSON text of a relational spec.
Result<RelationalSpec> ParseRelationalSpecJson(const std::string& json);

/// Reads and parses a spec file.
Result<RelationalSpec> LoadRelationalSpec(const std::string& path);

}  // namespace daisy::data

#endif  // DAISY_DATA_SCHEMA_JSON_H_
