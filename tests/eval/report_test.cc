#include "eval/report.h"

#include <gtest/gtest.h>

#include "data/generators/realistic.h"
#include "eval/classifier.h"

namespace daisy::eval {
namespace {

TEST(QualityReportTest, ContainsEverySection) {
  Rng rng(1);
  data::Table real = data::MakeAdultSim(400, &rng);
  data::Table fake = data::MakeAdultSim(400, &rng);  // same distribution
  SuiteOptions opts;
  opts.privacy_samples = 50;
  const std::string report = GenerateQualityReport(
      EvaluationSuite(opts).Run(real, fake).value(), real, fake);

  EXPECT_NE(report.find("# Synthetic data quality report"),
            std::string::npos);
  EXPECT_NE(report.find("## Classification utility"), std::string::npos);
  EXPECT_NE(report.find("## Statistical fidelity"), std::string::npos);
  EXPECT_NE(report.find("## Privacy risk"), std::string::npos);
  EXPECT_NE(report.find("## Attribute profiles"), std::string::npos);
  // All six classifiers appear as table rows.
  for (auto kind : AllClassifierKinds())
    EXPECT_NE(report.find("| " + ClassifierKindName(kind) + " |"),
              std::string::npos);
}

TEST(QualityReportTest, UtilitySectionSkippableAndLabelAware) {
  Rng rng(2);
  data::Table real = data::MakeBingSim(200, &rng);  // unlabeled
  data::Table fake = data::MakeBingSim(200, &rng);
  SuiteOptions opts;
  opts.privacy_samples = 30;
  const std::string report = GenerateQualityReport(
      EvaluationSuite(opts).Run(real, fake).value(), real, fake);
  EXPECT_EQ(report.find("## Classification utility"), std::string::npos);
  EXPECT_NE(report.find("## Statistical fidelity"), std::string::npos);
}

TEST(QualityReportTest, SameDistributionScoresBetterThanNoise) {
  Rng rng(3);
  data::Table real = data::MakeHtru2Sim(300, &rng);
  data::Table same = data::MakeHtru2Sim(300, &rng);
  data::Table noise = same;
  Rng nrng(4);
  for (size_t i = 0; i < noise.num_records(); ++i)
    for (size_t j = 0; j + 1 < noise.num_attributes(); ++j)
      noise.set_value(i, j, nrng.Gaussian(0.0, 100.0));

  SuiteOptions opts;
  opts.utility = false;
  opts.privacy_samples = 30;
  // Extract the marginal KL lines and compare.
  auto kl_of = [&](const data::Table& synth) {
    const std::string report = GenerateQualityReport(
        EvaluationSuite(opts).Run(real, synth).value(), real, synth);
    const auto pos = report.find("mean marginal KL: **");
    EXPECT_NE(pos, std::string::npos);
    return std::atof(report.c_str() + pos + 20);
  };
  EXPECT_LT(kl_of(same), kl_of(noise));
}

}  // namespace
}  // namespace daisy::eval
