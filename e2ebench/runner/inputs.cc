#include "runner/inputs.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "core/rng.h"
#include "data/csv.h"

namespace e2ebench {

namespace {

namespace data = daisy::data;

constexpr size_t kBlockRows = 4096;

struct CatColumn {
  const char* name;
  std::vector<std::string> categories;
};

// Categorical columns other than education (which is a function of
// education_num, as in the census data).
const std::vector<CatColumn>& CatColumns() {
  static const std::vector<CatColumn> cols = {
      {"workclass", {"Private", "Self-emp-not-inc", "Self-emp-inc",
                     "Federal-gov", "Local-gov", "State-gov", "Without-pay"}},
      {"marital_status", {"Married-civ-spouse", "Divorced", "Never-married",
                          "Separated", "Widowed", "Married-spouse-absent",
                          "Married-AF-spouse"}},
      {"occupation", {"Tech-support", "Craft-repair", "Other-service",
                      "Sales", "Exec-managerial", "Prof-specialty",
                      "Handlers-cleaners", "Machine-op-inspct",
                      "Adm-clerical", "Farming-fishing", "Transport-moving",
                      "Priv-house-serv", "Protective-serv", "Armed-Forces"}},
      {"relationship", {"Wife", "Own-child", "Husband", "Not-in-family",
                        "Other-relative", "Unmarried"}},
      {"race", {"White", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other",
                "Black"}},
      {"sex", {"Female", "Male"}},
      {"native_country", {"United-States", "Mexico", "Philippines",
                          "Germany", "Canada", "India", "England", "China",
                          "Cuba", "Other"}},
  };
  return cols;
}

const std::vector<std::string>& EducationNames() {
  static const std::vector<std::string> names = {
      "Preschool", "1st-4th",   "5th-6th",      "7th-8th",
      "9th",       "10th",      "11th",         "12th",
      "HS-grad",   "Some-college", "Assoc-voc", "Assoc-acdm",
      "Bachelors", "Masters",   "Prof-school",  "Doctorate"};
  return names;
}

data::Schema AdultSchema() {
  using data::Attribute;
  const auto& cats = CatColumns();
  std::vector<Attribute> attrs = {
      Attribute::Numerical("age"),
      Attribute::Categorical(cats[0].name, cats[0].categories),
      Attribute::Numerical("fnlwgt"),
      Attribute::Categorical("education", EducationNames()),
      Attribute::Numerical("education_num"),
      Attribute::Categorical(cats[1].name, cats[1].categories),
      Attribute::Categorical(cats[2].name, cats[2].categories),
      Attribute::Categorical(cats[3].name, cats[3].categories),
      Attribute::Categorical(cats[4].name, cats[4].categories),
      Attribute::Categorical(cats[5].name, cats[5].categories),
      Attribute::Numerical("capital_gain"),
      Attribute::Numerical("capital_loss"),
      Attribute::Numerical("hours_per_week"),
      Attribute::Categorical(cats[6].name, cats[6].categories),
      Attribute::Categorical("income", {"<=50K", ">50K"}),
  };
  return data::Schema(std::move(attrs), /*label_index=*/14);
}

double Gamma2(daisy::Rng* rng) {
  return -std::log(1.0 - rng->Uniform()) - std::log(1.0 - rng->Uniform());
}

// Category index with probability ∝ (i + 1)^-skew, rotated by `shift`
// so the two income classes favour different categories.
size_t SkewedCategory(daisy::Rng* rng, size_t domain, double skew,
                      size_t shift) {
  std::vector<double> w(domain);
  for (size_t i = 0; i < domain; ++i)
    w[(i + shift) % domain] = std::pow(static_cast<double>(i + 1), -skew);
  return rng->Categorical(w);
}

// One record in schema order. The income class is drawn first (25%
// high) and every attribute depends on it. Numerical attributes are
// skewed continuous shapes (gamma, log-normal), on which the 5-component
// GMM normalisation runs a similar number of EM iterations for any
// seed, so the transform's cost does not swing with the seed.
std::vector<double> AdultRecord(daisy::Rng* rng) {
  const bool high = rng->Uniform() < 0.25;
  const size_t y = high ? 1 : 0;
  std::vector<double> r(15);
  r[0] = 17.0 + (high ? 11.0 : 7.5) * Gamma2(rng);
  r[1] = static_cast<double>(SkewedCategory(rng, 7, 1.6, y));
  r[2] = std::exp(rng->Gaussian(11.9, 0.55));
  const double edu = std::clamp(
      (high ? 9.0 : 6.5) + 1.6 * Gamma2(rng), 1.0, 16.999);
  r[4] = edu;
  r[3] = std::floor(edu) - 1.0;
  r[5] = static_cast<double>(SkewedCategory(rng, 7, 1.2, high ? 0 : 2));
  r[6] = static_cast<double>(SkewedCategory(rng, 14, 0.8, high ? 4 : 0));
  r[7] = static_cast<double>(SkewedCategory(rng, 6, 1.0, high ? 2 : 3));
  r[8] = static_cast<double>(SkewedCategory(rng, 5, 2.2, 0));
  r[9] = static_cast<double>(rng->Uniform() < (high ? 0.85 : 0.6) ? 1 : 0);
  r[10] = std::exp(rng->Gaussian(high ? 8.6 : 7.6, 0.9)) *
          (0.5 + rng->Uniform());
  r[11] = std::exp(rng->Gaussian(high ? 7.4 : 6.8, 0.4)) * Gamma2(rng);
  r[12] = 10.0 + (high ? 8.0 : 6.5) * Gamma2(rng) + 20.0 * rng->Uniform();
  r[13] = static_cast<double>(SkewedCategory(rng, 10, 2.5, 0));
  r[14] = static_cast<double>(y);
  return r;
}

}  // namespace

data::Table MakeAdultTable(size_t rows, uint64_t seed) {
  daisy::Rng rng(seed);
  data::Table table(AdultSchema());
  table.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) table.AppendRecord(AdultRecord(&rng));
  return table;
}

daisy::Status WriteAdultCsv(const std::string& path, size_t rows,
                            uint64_t seed, std::string* label_column) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return daisy::Status::IOError("cannot open for write: " + path);
  daisy::Rng rng(seed);
  data::Table block(AdultSchema());
  const data::Schema& schema = block.schema();
  for (size_t j = 0; j < schema.num_attributes(); ++j)
    out << (j ? "," : "") << data::EscapeCsvField(schema.attribute(j).name);
  out << '\n';
  *label_column = schema.label_attribute().name;
  for (size_t done = 0; done < rows;) {
    const size_t n = std::min(kBlockRows, rows - done);
    block = data::Table(schema);
    for (size_t i = 0; i < n; ++i) block.AppendRecord(AdultRecord(&rng));
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < schema.num_attributes(); ++j)
        out << (j ? "," : "") << data::EscapeCsvField(block.CellToString(i, j));
      out << '\n';
    }
    done += n;
  }
  out.close();
  if (!out) return daisy::Status::IOError("write failed: " + path);
  return daisy::Status::OK();
}

}  // namespace e2ebench
