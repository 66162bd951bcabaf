#include "data/table.h"

#include <cmath>

#include "core/format.h"

namespace daisy::data {

size_t Table::category(size_t record, size_t attr) const {
  DAISY_CHECK(schema_.attribute(attr).is_categorical());
  const double v = cells_(record, attr);
  const long long idx = std::llround(v);
  DAISY_CHECK(idx >= 0 &&
              idx < static_cast<long long>(
                        schema_.attribute(attr).domain_size()));
  return static_cast<size_t>(idx);
}

std::string Table::CellToString(size_t record, size_t attr) const {
  const Attribute& a = schema_.attribute(attr);
  if (a.is_categorical()) return a.categories[category(record, attr)];
  std::string out;
  AppendG(cells_(record, attr), kTextDigits, &out);
  return out;
}

void Table::AppendRecord(const std::vector<double>& values) {
  DAISY_CHECK(values.size() == schema_.num_attributes());
  for (size_t j = 0; j < values.size(); ++j) {
    const Attribute& a = schema_.attribute(j);
    if (a.is_categorical()) {
      const long long idx = std::llround(values[j]);
      DAISY_CHECK(idx >= 0 && idx < static_cast<long long>(a.domain_size()));
    }
  }
  if (cells_.rows() == 0 && reserved_ > 0 && !values.empty()) {
    cells_.ReserveRows(reserved_, values.size());
    reserved_ = 0;
  }
  cells_.AppendRow(values);
}

size_t Table::label(size_t record) const {
  return category(record, schema_.label_index());
}

std::vector<size_t> Table::Labels() const {
  std::vector<size_t> out(num_records());
  for (size_t i = 0; i < out.size(); ++i) out[i] = label(i);
  return out;
}

std::vector<size_t> Table::LabelCounts() const {
  std::vector<size_t> counts(schema_.num_labels(), 0);
  for (size_t i = 0; i < num_records(); ++i) ++counts[label(i)];
  return counts;
}

double Table::AttributeMin(size_t attr) const {
  DAISY_CHECK(num_records() > 0);
  double m = cells_(0, attr);
  for (size_t i = 1; i < num_records(); ++i)
    m = std::min(m, cells_(i, attr));
  return m;
}

double Table::AttributeMax(size_t attr) const {
  DAISY_CHECK(num_records() > 0);
  double m = cells_(0, attr);
  for (size_t i = 1; i < num_records(); ++i)
    m = std::max(m, cells_(i, attr));
  return m;
}

std::vector<double> Table::Column(size_t attr) const {
  std::vector<double> out(num_records());
  for (size_t i = 0; i < out.size(); ++i) out[i] = cells_(i, attr);
  return out;
}

Table Table::Gather(const std::vector<size_t>& indices) const {
  Table out(schema_);
  out.cells_ = cells_.GatherRows(indices);
  return out;
}

Table Table::Head(size_t n) const {
  Table out(schema_);
  out.cells_ = cells_.RowRange(0, std::min(n, num_records()));
  return out;
}

Matrix Table::FeatureMatrix() const {
  const auto features = schema_.FeatureIndices();
  Matrix out(num_records(), features.size());
  for (size_t i = 0; i < num_records(); ++i)
    for (size_t j = 0; j < features.size(); ++j)
      out(i, j) = cells_(i, features[j]);
  return out;
}

TableSplit SplitTable(const Table& table, double train_ratio,
                      double valid_ratio, Rng* rng) {
  DAISY_CHECK(train_ratio > 0.0 && valid_ratio >= 0.0 &&
              train_ratio + valid_ratio <= 1.0);
  const size_t n = table.num_records();
  auto perm = rng->Permutation(n);
  const size_t n_train = static_cast<size_t>(train_ratio * n);
  const size_t n_valid = static_cast<size_t>(valid_ratio * n);

  std::vector<size_t> idx_train(perm.begin(), perm.begin() + n_train);
  std::vector<size_t> idx_valid(perm.begin() + n_train,
                                perm.begin() + n_train + n_valid);
  std::vector<size_t> idx_test(perm.begin() + n_train + n_valid, perm.end());

  TableSplit split;
  split.train = table.Gather(idx_train);
  split.valid = table.Gather(idx_valid);
  split.test = table.Gather(idx_test);
  return split;
}

Result<Schema> UnionSchema(const Schema& a, const Schema& b) {
  if (a.num_attributes() != b.num_attributes())
    return Status::InvalidArgument("union schema: attribute counts differ");
  const bool label_match =
      a.has_label() == b.has_label() &&
      (!a.has_label() || a.label_index() == b.label_index());
  if (!label_match)
    return Status::InvalidArgument("union schema: label positions differ");

  std::vector<Attribute> attrs;
  attrs.reserve(a.num_attributes());
  for (size_t j = 0; j < a.num_attributes(); ++j) {
    const Attribute& aj = a.attribute(j);
    const Attribute& bj = b.attribute(j);
    if (aj.name != bj.name)
      return Status::InvalidArgument("union schema: attribute " +
                                     std::to_string(j) + " named '" +
                                     aj.name + "' vs '" + bj.name + "'");
    if (aj.is_categorical() != bj.is_categorical())
      return Status::InvalidArgument("union schema: attribute '" + aj.name +
                                     "' is categorical in one table only");
    if (!aj.is_categorical()) {
      attrs.push_back(aj);
      continue;
    }
    std::vector<std::string> cats = aj.categories;
    for (const auto& cat : bj.categories) {
      bool seen = false;
      for (const auto& have : cats) seen = seen || have == cat;
      if (!seen) cats.push_back(cat);
    }
    attrs.push_back(Attribute::Categorical(aj.name, std::move(cats)));
  }
  return Schema(std::move(attrs),
                a.has_label() ? static_cast<int>(a.label_index()) : -1);
}

Result<Table> RemapToSchema(const Table& table, const Schema& target) {
  const Schema& source = table.schema();
  if (source.num_attributes() != target.num_attributes())
    return Status::InvalidArgument("remap: attribute counts differ");

  // index_map[j][c] = target category index of source category c.
  std::vector<std::vector<double>> index_map(source.num_attributes());
  for (size_t j = 0; j < source.num_attributes(); ++j) {
    const Attribute& sj = source.attribute(j);
    const Attribute& tj = target.attribute(j);
    if (sj.name != tj.name || sj.is_categorical() != tj.is_categorical())
      return Status::InvalidArgument("remap: attribute '" + sj.name +
                                     "' does not match the target schema");
    if (!sj.is_categorical()) continue;
    index_map[j].reserve(sj.categories.size());
    for (const auto& cat : sj.categories) {
      size_t to = tj.categories.size();
      for (size_t c = 0; c < tj.categories.size(); ++c)
        if (tj.categories[c] == cat) to = c;
      if (to == tj.categories.size())
        return Status::InvalidArgument("remap: category '" + cat +
                                       "' of attribute '" + sj.name +
                                       "' missing from the target schema");
      index_map[j].push_back(static_cast<double>(to));
    }
  }

  Table out(target);
  out.Reserve(table.num_records());
  std::vector<double> record(source.num_attributes());
  for (size_t i = 0; i < table.num_records(); ++i) {
    for (size_t j = 0; j < source.num_attributes(); ++j)
      record[j] = index_map[j].empty()
                      ? table.value(i, j)
                      : index_map[j][table.category(i, j)];
    out.AppendRecord(record);
  }
  return out;
}

Schema ProjectSchema(const Schema& schema, const std::vector<size_t>& cols) {
  std::vector<Attribute> attrs;
  attrs.reserve(cols.size());
  int label_index = -1;
  for (size_t k = 0; k < cols.size(); ++k) {
    DAISY_CHECK(cols[k] < schema.num_attributes());
    attrs.push_back(schema.attribute(cols[k]));
    if (schema.has_label() && cols[k] == schema.label_index())
      label_index = static_cast<int>(k);
  }
  return Schema(std::move(attrs), label_index);
}

Table ProjectColumns(const Table& table, const std::vector<size_t>& cols) {
  Table out(ProjectSchema(table.schema(), cols));
  out.Reserve(table.num_records());
  std::vector<double> record(cols.size());
  for (size_t i = 0; i < table.num_records(); ++i) {
    for (size_t k = 0; k < cols.size(); ++k)
      record[k] = table.value(i, cols[k]);
    out.AppendRecord(record);
  }
  return out;
}

}  // namespace daisy::data
