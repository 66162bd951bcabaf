#include "eval/report.h"

#include <cstdarg>
#include <cstdio>

#include "data/profile.h"

namespace daisy::eval {

namespace {

void Append(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

struct Text {
  const char* key;
  const char* text;
};

// Section headings, keyed by the suite's metric-name prefix.
constexpr Text kHeadings[] = {
    {"clustering", "Clustering utility (lower is better)"},
    {"fidelity", "Statistical fidelity (lower is better, except recall)"},
    {"privacy", "Privacy risk (lower is better, except DCR)"},
    {"aqp", "Approximate query answering (lower is better)"},
};

// What each suite metric measures, in plain words.
constexpr Text kLabels[] = {
    {"clustering.nmi_diff", "k-means NMI diff"},
    {"fidelity.marginal_kl", "mean marginal KL"},
    {"fidelity.numeric_corr_diff", "mean pairwise numeric-correlation diff"},
    {"fidelity.cat_assoc_diff", "mean pairwise categorical-association diff"},
    {"fidelity.rare_mode_recall", "recall of the real table's rare categories"},
    {"fidelity.per_category_kl", "smoothed per-category KL"},
    {"fidelity.fd_violation_rate",
     "violation rate of the real table's functional dependencies"},
    {"privacy.hitting_rate",
     "hitting rate (share of sampled synthetic records that match a real "
     "record attribute-for-attribute)"},
    {"privacy.dcr",
     "DCR (average normalized distance from a real record to its closest "
     "synthetic record; 0 would mean a leaked record)"},
    {"aqp.diff", "mean relative-error diff of aggregate queries"},
};

template <size_t N>
std::string Lookup(const Text (&table)[N], const std::string& key) {
  for (const Text& t : table)
    if (key == t.key) return t.text;
  return key;
}

}  // namespace

std::string GenerateQualityReport(const SuiteReport& suite,
                                  const data::Table& real,
                                  const data::Table& synthetic) {
  const std::string f1 = "utility.f1_diff.", auc = "utility.auc_diff.";
  bool has_auc = false;
  for (const auto& m : suite.metrics) has_auc |= m.name.starts_with(auc);

  std::string out = "# Synthetic data quality report\n\n";
  Append(&out, "Real table: %zu records. Synthetic table: %zu records.\n\n",
         real.num_records(), synthetic.num_records());

  // The suite emits each section's metrics together, so a section
  // starts where the name prefix changes.
  std::string section;
  for (const auto& m : suite.metrics) {
    if (m.name.starts_with(auc)) continue;  // a column of its F1 row
    if (m.name.starts_with(f1)) {
      if (section.empty()) {
        section = "utility";
        out += "## Classification utility (Diff of Eq. 1: |score on real "
               "- score on synthetic|; lower is better)\n\n";
        out += has_auc ? "| Classifier | F1 Diff | AUC Diff |\n|---|---|---|\n"
                       : "| Classifier | F1 Diff |\n|---|---|\n";
      }
      const std::string kind = m.name.substr(f1.size());
      Append(&out, "| %s | %.4f |", kind.c_str(), m.value);
      if (const SuiteMetric* a = suite.Find(auc + kind))
        Append(&out, " %.4f |", a->value);
      out += "\n";
      continue;
    }
    const std::string prefix = m.name.substr(0, m.name.find('.'));
    if (prefix != section) {
      if (!section.empty()) out += "\n";
      section = prefix;
      out += "## " + Lookup(kHeadings, prefix) + "\n\n";
    }
    Append(&out, "- %s: **%.4f** (`%s`)\n", Lookup(kLabels, m.name).c_str(),
           m.value, m.name.c_str());
  }
  if (!section.empty()) out += "\n";

  out += "## Attribute profiles\n\n### Real\n\n```\n";
  out += data::ProfileToString(data::ProfileTable(real));
  out += "```\n\n### Synthetic\n\n```\n";
  out += data::ProfileToString(data::ProfileTable(synthetic));
  out += "```\n";
  return out;
}

}  // namespace daisy::eval
