#include "relational/bundle.h"

#include <sstream>

#include "core/durable.h"
#include "core/serial.h"
#include "data/schema_serial.h"

namespace daisy::rel {

namespace {

constexpr char kFormatTag[] = "daisy-relbundle-v1";

// Far above any real schema, small enough that a corrupt length can't
// drive a pathological allocation before the parse fails.
constexpr uint64_t kMaxTables = 1u << 12;
constexpr uint64_t kMaxCols = 1u << 16;

void WritePayload(Serializer* out, const RelationalBundle& b) {
  out->WriteTag(kFormatTag);
  out->WriteU64(b.tables.size());
  for (const BundleTable& t : b.tables) {
    out->WriteTag("table");
    out->WriteString(t.name);
    data::SerializeSchema(out, t.schema);
    out->WriteString(t.primary_key);
    out->WriteU64(t.has_parent ? 1 : 0);
    if (t.has_parent) {
      out->WriteString(t.fk_column);
      out->WriteString(t.fk_parent_table);
      out->WriteString(t.fk_parent_column);
    }
    out->WriteU64(t.real_rows);
    out->WriteU64(t.kept_cols.size());
    for (uint64_t c : t.kept_cols) out->WriteU64(c);
    // The embedded model payload is arbitrary bytes; WriteString is
    // length-prefixed so it round-trips exactly.
    out->WriteTag("model");
    out->WriteString(t.model_blob);
    if (t.has_parent) {
      t.cardinality.Serialize(out);
      t.encoder.Serialize(out);
    }
  }
}

Result<RelationalBundle> ReadPayload(Deserializer* in) {
  in->ExpectTag(kFormatTag);
  const uint64_t n = in->ReadU64();
  if (!in->ok())
    return Status::InvalidArgument("relational bundle: " + in->error());
  if (n > kMaxTables)
    return Status::InvalidArgument("relational bundle: implausible table "
                                   "count");
  RelationalBundle b;
  b.tables.resize(n);
  for (BundleTable& t : b.tables) {
    in->ExpectTag("table");
    t.name = in->ReadString();
    t.schema = data::DeserializeSchema(in);
    t.primary_key = in->ReadString();
    t.has_parent = in->ReadU64() == 1;
    if (t.has_parent) {
      t.fk_column = in->ReadString();
      t.fk_parent_table = in->ReadString();
      t.fk_parent_column = in->ReadString();
    }
    t.real_rows = in->ReadU64();
    const uint64_t kc = in->ReadU64();
    if (!in->ok())
      return Status::InvalidArgument("relational bundle: " + in->error());
    if (kc > kMaxCols)
      return Status::InvalidArgument("relational bundle: implausible kept "
                                     "column count");
    t.kept_cols.resize(kc);
    for (uint64_t& c : t.kept_cols) c = in->ReadU64();
    in->ExpectTag("model");
    t.model_blob = in->ReadString();
    if (t.has_parent) {
      t.cardinality = CardinalityModel::Deserialize(in);
      t.encoder = ParentCondEncoder::Deserialize(in);
    }
    if (!in->ok())
      return Status::InvalidArgument("relational bundle: " + in->error());
  }
  return b;
}

}  // namespace

std::string SerializeBundle(const RelationalBundle& bundle) {
  std::ostringstream os;
  Serializer out(&os);
  WritePayload(&out, bundle);
  std::string bytes = os.str();
  AppendChecksumTrailer(&bytes);
  return bytes;
}

Result<RelationalBundle> ParseBundle(const std::string& bytes) {
  auto payload_len = VerifyChecksumTrailer(bytes, "bundle");
  if (!payload_len.ok()) return payload_len.status();
  std::istringstream is(bytes.substr(0, payload_len.value()));
  Deserializer in(&is);
  return ReadPayload(&in);
}

Status SaveBundle(const RelationalBundle& bundle, const std::string& path) {
  return WriteFileAtomic(path, SerializeBundle(bundle));
}

Result<RelationalBundle> LoadBundle(const std::string& path) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  auto parsed = ParseBundle(bytes.value());
  if (!parsed.ok())
    return parsed.status().WithPrefix("bundle '" + path + "': ");
  return parsed.take();
}

}  // namespace daisy::rel
