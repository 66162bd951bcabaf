// Multi-table synthesis over a RelationalSchema (parents-first
// conditional generation, the hierarchy decomposition of Row
// Conditional-TGAN / Hierarchical Conditional Tabular GAN applied to
// this repository's single-table design space):
//
//   Fit: tables are visited in topological order. Key columns are
//   stripped (they are identity, not content); a root table fits a
//   plain TableSynthesizer, a child table fits one conditioned on its
//   real parent's encoded attributes (ParentCondEncoder), plus a
//   CardinalityModel of children-per-parent counts.
//
//   Generate: roots first, scale * real_rows records with sequential
//   synthetic primary keys 1..n. For each child table: one cardinality
//   draw per synthetic parent (in parent row order), then one
//   conditioned GAN record per child slot, with the FK set to its
//   parent's synthetic key — referential integrity holds by
//   construction (FK validity is 1.0, which eval/relational.h checks
//   rather than assumes).
//
// Determinism: one shared rng stream, consumed in a documented fixed
// order (per table in topo order: all cardinality draws, then per-row
// generation latents), so output bytes are a pure function of the
// bundle and the seed — independent of thread count, SIMD ISA, chunk
// sizes, and of whether training read in-memory or paged tables.
#ifndef DAISY_RELATIONAL_RELATIONAL_SYNTHESIZER_H_
#define DAISY_RELATIONAL_RELATIONAL_SYNTHESIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "data/relational_schema.h"
#include "relational/bundle.h"
#include "relational/cardinality.h"
#include "relational/cond_encoder.h"
#include "synth/synthesizer.h"

namespace daisy::rel {

struct RelationalOptions {
  /// Per-table GAN hyper-parameters. seed is the base seed; table i
  /// (declaration order) trains with seed + i so sibling models do not
  /// share parameter-init streams. Child tables condition on parent
  /// rows, so label conditioning or TBS fails their Fit.
  synth::GanOptions gan;
  transform::TransformOptions transform;

  /// Paged-input knobs (used when a table arrives as a PagedTable).
  size_t page_budget = 64;
  bool use_mmap = true;
  /// Directory for intermediate key-stripped .dcol projections of
  /// paged inputs (created if missing).
  std::string work_dir = "daisy_rel_work";
};

/// One table's training data: exactly one of the two pointers is set.
struct RelationalInput {
  const data::Table* table = nullptr;
  const data::PagedTable* paged = nullptr;
};

class RelationalSynthesizer {
 public:
  explicit RelationalSynthesizer(RelationalOptions options);

  /// Fits every per-table model. `inputs` is parallel to
  /// schema.tables() (declaration order). Fails with InvalidArgument on
  /// duplicate parent primary keys, dangling child foreign keys, or a
  /// table with no non-key columns. When `sink` is non-null it receives
  /// the concatenated per-table training telemetry.
  Status Fit(const data::RelationalSchema& schema,
             const std::vector<RelationalInput>& inputs,
             obs::MetricSink* sink = nullptr);

  /// Generates a synthetic database: result[i] is table i (declaration
  /// order, full schema including key columns). Root tables get
  /// round(scale * real_rows) records (at least 1); child sizes follow
  /// the sampled cardinalities.
  Result<std::vector<data::Table>> Generate(double scale, Rng* rng) const;

  /// Persists every fitted model into one checksummed bundle file.
  Status Save(const std::string& path) const;

  /// Restores a synthesizer from a bundle written by Save; ready for
  /// Generate (Fit must not be called on it).
  static Result<std::unique_ptr<RelationalSynthesizer>> Load(
      const std::string& path);

  const data::RelationalSchema& schema() const { return schema_; }
  bool fitted() const { return fitted_; }

 private:
  struct TableModel {
    std::unique_ptr<synth::TableSynthesizer> model;
    std::vector<size_t> kept_cols;  ///< modeled col -> original col
    size_t real_rows = 0;
    // Child-table state (ParentEdge != nullptr only):
    CardinalityModel cardinality;
    ParentCondEncoder encoder;  ///< over the PARENT's modeled columns
  };

  RelationalOptions opts_;
  data::RelationalSchema schema_;
  std::vector<TableModel> models_;  ///< parallel to schema_.tables()
  bool fitted_ = false;
};

}  // namespace daisy::rel

#endif  // DAISY_RELATIONAL_RELATIONAL_SYNTHESIZER_H_
