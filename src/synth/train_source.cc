#include "synth/train_source.h"

#include <cmath>

namespace daisy::synth {

InMemoryTrainSource::InMemoryTrainSource(
    const data::Table& table,
    const transform::RecordTransformer* transformer)
    : table_(table), real_all_(transformer->Transform(table)) {}

std::vector<size_t> InMemoryTrainSource::CategoryColumn(
    size_t source_col) const {
  std::vector<size_t> out(table_.num_records());
  for (size_t i = 0; i < out.size(); ++i)
    out[i] = table_.category(i, source_col);
  return out;
}

PagedTrainSource::PagedTrainSource(
    const data::PagedTable* table,
    const transform::RecordTransformer* transformer)
    : table_(table), transformer_(transformer) {}

Matrix PagedTrainSource::GatherSamples(
    const std::vector<size_t>& rows) const {
  auto raw = table_->GatherRows(rows);
  DAISY_CHECK(raw.ok());
  const Matrix& cells = raw.value();

  // Rehydrate the batch as a tiny full-schema table so the transformer
  // encodes it exactly as it would the in-memory original (same
  // category validation, same per-record encoding).
  data::Table batch(table_->schema());
  batch.Reserve(rows.size());
  std::vector<double> record(table_->num_attributes());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < record.size(); ++j) record[j] = cells(i, j);
    batch.AppendRecord(record);
  }
  return transformer_->Transform(batch);
}

std::vector<size_t> PagedTrainSource::CategoryColumn(
    size_t source_col) const {
  const data::Attribute& attr = table_->schema().attribute(source_col);
  DAISY_CHECK(attr.is_categorical());
  const size_t n = table_->num_records();
  // Cache-bypassing sequential scan: one pass over the column without
  // evicting the page cache the training loop depends on.
  std::vector<double> cells(n);
  auto st = table_->ScanColumn(source_col, 0, n, cells.data());
  DAISY_CHECK(st.ok());
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    // Same round-and-validate as Table::category, so paged pools are
    // identical to in-memory pools for the same data.
    const long long idx = std::llround(cells[i]);
    DAISY_CHECK(idx >= 0 &&
                idx < static_cast<long long>(attr.domain_size()));
    out[i] = static_cast<size_t>(idx);
  }
  return out;
}

}  // namespace daisy::synth
