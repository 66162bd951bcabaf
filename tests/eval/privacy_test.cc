#include "eval/privacy.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "data/generators/realistic.h"

namespace daisy::eval {
namespace {

TEST(HittingRateTest, CopyOfOriginalHitsEverything) {
  Rng rng(1);
  data::Table t = data::MakeAdultSim(200, &rng);
  HittingRateOptions opts;
  opts.num_synthetic_samples = 100;
  Rng prng(2);
  EXPECT_DOUBLE_EQ(HittingRate(t, t, opts, &prng).value(), 1.0);
}

TEST(HittingRateTest, FarAwaySyntheticHitsNothing) {
  Rng rng(3);
  data::Table t = data::MakeHtru2Sim(200, &rng);
  data::Table far = t;
  for (size_t i = 0; i < far.num_records(); ++i)
    for (size_t j = 0; j < far.num_attributes(); ++j)
      if (!far.schema().attribute(j).is_categorical())
        far.set_value(i, j, far.value(i, j) + 1e6);
  HittingRateOptions opts;
  opts.num_synthetic_samples = 100;
  Rng prng(4);
  EXPECT_DOUBLE_EQ(HittingRate(t, far, opts, &prng).value(), 0.0);
}

TEST(HittingRateTest, ThresholdScalesWithDivisor) {
  // Shift numeric values by a small delta: a loose divisor hits, a
  // tight one misses.
  Rng rng(5);
  data::Table t = data::MakeHtru2Sim(100, &rng);
  data::Table near = t;
  for (size_t i = 0; i < near.num_records(); ++i)
    for (size_t j = 0; j < near.num_attributes(); ++j)
      if (!near.schema().attribute(j).is_categorical()) {
        const double range = t.AttributeMax(j) - t.AttributeMin(j);
        near.set_value(i, j, near.value(i, j) + range / 50.0);
      }
  HittingRateOptions loose;
  loose.range_divisor = 30.0;  // threshold range/30 > range/50 shift
  loose.num_synthetic_samples = 50;
  HittingRateOptions tight;
  tight.range_divisor = 500.0;
  tight.num_synthetic_samples = 50;
  Rng r1(6), r2(6);
  EXPECT_GT(HittingRate(t, near, loose, &r1).value(),
            HittingRate(t, near, tight, &r2).value());
}

TEST(DcrTest, IdenticalTablesHaveZeroDistance) {
  Rng rng(7);
  data::Table t = data::MakeAdultSim(100, &rng);
  DcrOptions opts;
  opts.num_original_samples = 50;
  Rng prng(8);
  EXPECT_NEAR(DistanceToClosestRecord(t, t, opts, &prng).value(), 0.0,
              1e-12);
}

TEST(DcrTest, PerturbedSyntheticHasPositiveDistance) {
  Rng rng(9);
  data::Table t = data::MakeHtru2Sim(150, &rng);
  data::Table shifted = t;
  for (size_t i = 0; i < shifted.num_records(); ++i)
    for (size_t j = 0; j < shifted.num_attributes(); ++j)
      if (!shifted.schema().attribute(j).is_categorical()) {
        const double range = t.AttributeMax(j) - t.AttributeMin(j);
        shifted.set_value(i, j, shifted.value(i, j) + 0.1 * range);
      }
  DcrOptions opts;
  opts.num_original_samples = 50;
  Rng prng(10);
  const double dcr =
      DistanceToClosestRecord(t, shifted, opts, &prng).value();
  EXPECT_GT(dcr, 0.05);
}

TEST(DcrTest, BiggerPerturbationBiggerDistance) {
  Rng rng(11);
  data::Table t = data::MakeHtru2Sim(150, &rng);
  auto shift = [&](double frac) {
    data::Table s = t;
    for (size_t i = 0; i < s.num_records(); ++i)
      for (size_t j = 0; j < s.num_attributes(); ++j)
        if (!s.schema().attribute(j).is_categorical()) {
          const double range = t.AttributeMax(j) - t.AttributeMin(j);
          s.set_value(i, j, s.value(i, j) + frac * range);
        }
    return s;
  };
  DcrOptions opts;
  opts.num_original_samples = 40;
  Rng r1(12), r2(12);
  EXPECT_LT(DistanceToClosestRecord(t, shift(0.05), opts, &r1).value(),
            DistanceToClosestRecord(t, shift(0.3), opts, &r2).value());
}

TEST(DcrTest, CategoricalMismatchContributes) {
  data::Schema schema({data::Attribute::Categorical("c", {"a", "b"})});
  data::Table orig(schema);
  orig.AppendRecord({0});
  data::Table synth(schema);
  synth.AppendRecord({1});
  DcrOptions opts;
  Rng rng(13);
  EXPECT_DOUBLE_EQ(DistanceToClosestRecord(orig, synth, opts, &rng).value(),
                   1.0);
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ULL", v);
  return buf;
}

// Categorical cells on llround's boundaries (halves, values a hair off a
// half, -0.0), next to cells they equal only under round-half-away-
// from-zero: lrint (half to even) or truncation would score some of
// these pairs as mismatches. The pinned bits below were captured from
// the scans that called std::llround on both cells of every pair.
void MakeBoundaryTables(data::Table* orig, data::Table* synth) {
  data::Schema schema({data::Attribute::Categorical("a", {"p", "q", "r"}),
                       data::Attribute::Numerical("x"),
                       data::Attribute::Categorical("b", {"u", "v", "w"})});
  const double orig_a[] = {0.5, -0.5, 2.4999999, 1.5000001,
                           -0.0, 2.5, 1.0, 0.0};
  const double synth_a[] = {1.0, -1.0, 2.0, 2.0, 0.0, 3.0, 0.5, -0.5};
  const double orig_b[] = {0, 1, 2, 0, 1, 2, 0, 1};
  const double synth_b[] = {-0.0, 0.5000001, 2.4999999, 0.4999999,
                            0.5, 1.5, -0.5, 1.0};
  *orig = data::Table(schema);
  *synth = data::Table(schema);
  // Four copies of the eight pairs; x keeps each synthetic row within
  // the hitting threshold of its own original row only.
  for (size_t i = 0; i < 32; ++i) {
    const double x = static_cast<double>(i);
    orig->AppendRecord({0, x, 0});
    synth->AppendRecord({0, x + 0.01 * static_cast<double>(i % 3), 0});
    orig->set_value(i, 0, orig_a[i % 8]);
    orig->set_value(i, 2, orig_b[i % 8]);
    synth->set_value(i, 0, synth_a[i % 8]);
    synth->set_value(i, 2, synth_b[i % 8]);
  }
}

TEST(HittingRateTest, CategoryCodesRoundHalfAwayFromZero) {
  data::Table orig, synth;
  MakeBoundaryTables(&orig, &synth);
  HittingRateOptions opts;
  opts.num_synthetic_samples = 64;
  Rng rng(14);
  const double rate = HittingRate(orig, synth, opts, &rng).value();
  EXPECT_EQ(Bits(rate), 0x3fe6000000000000ULL) << Hex(Bits(rate));
}

TEST(DcrTest, CategoryCodesRoundHalfAwayFromZero) {
  data::Table orig, synth;
  MakeBoundaryTables(&orig, &synth);
  Rng rng(15);
  const double dcr =
      DistanceToClosestRecord(orig, synth, DcrOptions{}, &rng).value();
  EXPECT_EQ(Bits(dcr), 0x3fa2adbfeadbfeaeULL) << Hex(Bits(dcr));
}

}  // namespace
}  // namespace daisy::eval
