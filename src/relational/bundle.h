// On-disk container for a fitted RelationalSynthesizer: one versioned,
// checksummed file ("daisy-relbundle-v1") holding every per-table GAN
// model (as an embedded daisy-model-v3 payload), the per-edge
// cardinality histograms and parent-condition encoders, and enough of
// the relational schema to rebuild it exactly. The file carries the
// core/durable checksum trailer over the whole payload, so every
// single-byte flip and every truncation is detected at load, and it is
// written through core/durable's AtomicFile.
#ifndef DAISY_RELATIONAL_BUNDLE_H_
#define DAISY_RELATIONAL_BUNDLE_H_

#include <string>
#include <vector>

#include "core/status.h"
#include "data/schema.h"
#include "relational/cardinality.h"
#include "relational/cond_encoder.h"

namespace daisy::rel {

/// Everything persisted for one table of the relational model. Tables
/// appear in schema declaration order.
struct BundleTable {
  std::string name;
  data::Schema schema;           ///< full original schema (keys included)
  std::string primary_key;
  bool has_parent = false;
  std::string fk_column;         ///< child's FK column (has_parent only)
  std::string fk_parent_table;
  std::string fk_parent_column;
  uint64_t real_rows = 0;        ///< training row count (generation scale base)
  std::vector<uint64_t> kept_cols;  ///< modeled col -> original col index
  std::string model_blob;        ///< TableSynthesizer::SaveToStream payload
  CardinalityModel cardinality;  ///< children-per-parent (has_parent only)
  ParentCondEncoder encoder;     ///< parent-cond encoder (has_parent only)
};

struct RelationalBundle {
  std::vector<BundleTable> tables;
};

/// Payload + checksum trailer, the exact bytes SaveBundle writes.
std::string SerializeBundle(const RelationalBundle& bundle);

/// Inverse of SerializeBundle. Verifies the trailer before touching the
/// payload; any flipped byte or truncation fails with InvalidArgument.
Result<RelationalBundle> ParseBundle(const std::string& bytes);

/// Atomic checksummed write (core/durable WriteFileAtomic).
Status SaveBundle(const RelationalBundle& bundle, const std::string& path);

/// Reads and verifies a bundle file. NotFound when the path is absent.
Result<RelationalBundle> LoadBundle(const std::string& path);

}  // namespace daisy::rel

#endif  // DAISY_RELATIONAL_BUNDLE_H_
