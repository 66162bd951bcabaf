// Markdown rendering of an EvaluationSuite result for a synthetic
// table: the paper's utility diff per classifier, clustering, fidelity,
// privacy and AQP metrics, and a side-by-side attribute profile (the
// CLI's `eval --report` output). It computes no metric itself.
#ifndef DAISY_EVAL_REPORT_H_
#define DAISY_EVAL_REPORT_H_

#include <string>

#include "data/table.h"
#include "eval/suite.h"

namespace daisy::eval {

/// Renders `suite` — the result of EvaluationSuite::Run on (`real`,
/// `synthetic`) — as a markdown document. The tables supply only the
/// record counts and the attribute profiles.
std::string GenerateQualityReport(const SuiteReport& suite,
                                  const data::Table& real,
                                  const data::Table& synthetic);

}  // namespace daisy::eval

#endif  // DAISY_EVAL_REPORT_H_
