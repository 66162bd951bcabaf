// In-memory relational table. Cell storage is a dense double matrix:
// numerical attributes hold their raw values, categorical attributes
// hold category indices (0 .. domain-1). This uniform representation
// keeps the transformation layer and evaluation substrate simple.
#ifndef DAISY_DATA_TABLE_H_
#define DAISY_DATA_TABLE_H_

#include <string>
#include <vector>

#include "core/matrix.h"
#include "core/rng.h"
#include "data/schema.h"

namespace daisy::data {

/// A table T of n records over a fixed schema.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t num_records() const { return cells_.rows(); }
  size_t num_attributes() const { return schema_.num_attributes(); }

  /// Raw cell value (numeric value, or category index).
  double value(size_t record, size_t attr) const {
    return cells_(record, attr);
  }
  void set_value(size_t record, size_t attr, double v) {
    cells_(record, attr) = v;
  }

  /// Category index of a categorical cell (validated & rounded).
  size_t category(size_t record, size_t attr) const;

  /// Rendered cell (category name, or formatted number).
  std::string CellToString(size_t record, size_t attr) const;

  /// Appends one record; `values` must match the schema width, with
  /// categorical entries holding in-domain category indices.
  void AppendRecord(const std::vector<double>& values);

  /// Pre-allocates storage then appends via AppendRecord.
  void Reserve(size_t n) { reserved_ = n; }

  /// Label (category index) of a record; schema must have a label.
  size_t label(size_t record) const;
  /// All labels.
  std::vector<size_t> Labels() const;
  /// Count of records per label value.
  std::vector<size_t> LabelCounts() const;

  /// Min / max of a numerical attribute over all records.
  double AttributeMin(size_t attr) const;
  double AttributeMax(size_t attr) const;
  /// All values of one attribute.
  std::vector<double> Column(size_t attr) const;

  /// New table with the given record indices (in order).
  Table Gather(const std::vector<size_t>& indices) const;
  /// First n records.
  Table Head(size_t n) const;

  /// Feature matrix (all non-label attributes, numeric view) and, for
  /// convenience, the parallel label vector. Used by the evaluation
  /// classifiers which consume raw numeric/ordinal features.
  Matrix FeatureMatrix() const;

  /// Direct access to the underlying cell matrix.
  const Matrix& cells() const { return cells_; }

 private:
  Schema schema_;
  Matrix cells_;
  size_t reserved_ = 0;
};

/// Deterministic shuffled split into train/valid/test with the given
/// ratios (paper uses 4:1:1).
struct TableSplit {
  Table train;
  Table valid;
  Table test;
};
TableSplit SplitTable(const Table& table, double train_ratio,
                      double valid_ratio, Rng* rng);

/// Merges two schemas attribute-by-attribute: names, types and (when
/// present) label position must match; each categorical domain becomes
/// a's categories followed by b's categories not in a. Two tables read
/// from independent CSVs (first-seen category order, possibly missing
/// rare categories entirely) can both be remapped onto the union and
/// then compared index-for-index — without this, a synthetic table
/// that dropped a rare label evaluates against the wrong indices or
/// crashes the classifiers on a one-label domain.
Result<Schema> UnionSchema(const Schema& a, const Schema& b);

/// Rewrites a table's categorical indices under `target`, matching
/// categories by name. Names/types must match attribute-for-attribute
/// and every category of the table's schema must exist in `target`
/// (UnionSchema guarantees both). Numerical cells pass through.
Result<Table> RemapToSchema(const Table& table, const Schema& target);

/// Schema holding only the given columns, in the given order. A label
/// column survives (with its index remapped) when it is among `cols`.
Schema ProjectSchema(const Schema& schema, const std::vector<size_t>& cols);

/// New table holding only the given columns, in the given order (the
/// column counterpart of Gather). Used by the relational layer to
/// strip key columns before the GAN sees a table.
Table ProjectColumns(const Table& table, const std::vector<size_t>& cols);

}  // namespace daisy::data

#endif  // DAISY_DATA_TABLE_H_
