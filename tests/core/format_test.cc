// AppendG against its definition: for every value and precision it must
// append exactly the bytes snprintf("%.<precision>g") writes, since CSV
// files, model files, checkpoints and JSONL logs are compared byte for
// byte across versions.
#include "core/format.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace daisy {
namespace {

std::string Printf(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

double FromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Counts mismatches at both precisions; reports the first few.
class Checker {
 public:
  void Check(double v) {
    for (int precision : {kTextDigits, kRoundTripDigits}) {
      std::string got = "x";  // AppendG appends: the prefix must survive
      AppendG(v, precision, &got);
      const std::string want = "x" + Printf(v, precision);
      ++checked_;
      if (got != want && ++mismatches_ <= 10)
        ADD_FAILURE() << "precision " << precision << ": AppendG wrote '"
                      << got << "', printf '" << want << "'";
    }
  }
  size_t checked() const { return checked_; }
  size_t mismatches() const { return mismatches_; }

 private:
  size_t checked_ = 0;
  size_t mismatches_ = 0;
};

TEST(FormatTest, AppendGMatchesPrintfOnSpecialValues) {
  Checker c;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {0.0, -0.0, kInf, -kInf, kNan, std::copysign(kNan, -1.0),
                   std::numeric_limits<double>::denorm_min(),
                   -std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::lowest(), 1e-5, 1e-4,
                   0.0001, 99999.95, 999999.5, 1e6, 1e16, 1e17, 0.1, 1.0 / 3})
    c.Check(v);
  EXPECT_EQ(c.mismatches(), 0u);
}

// Over a million seeded values: random bit patterns (NaN payloads of
// either sign, subnormals and infinities among them), integers on both
// sides of %g's switch to exponent form, and exact binary ties at the
// sixth significant digit, where the rounding rule shows.
TEST(FormatTest, AppendGMatchesPrintfOnSeededValues) {
  Rng rng(26);
  Checker c;
  for (int i = 0; i < 1'000'000; ++i) c.Check(FromBits(rng.Next()));
  for (int i = 0; i < 100'000; ++i) {
    const double sign = rng.UniformInt(2) ? -1.0 : 1.0;
    c.Check(sign * static_cast<double>(1'000'000 + rng.UniformInt(9'000'000)));
    c.Check(sign * (100'000.0 + static_cast<double>(rng.UniformInt(900'000)) +
                    0.5));
    for (double frac : {0.25, 0.5, 0.75})
      c.Check(sign * (10'000.0 + static_cast<double>(rng.UniformInt(90'000)) +
                      frac));
  }
  EXPECT_EQ(c.checked(), 2u * 1'500'000u);
  EXPECT_EQ(c.mismatches(), 0u);
}

}  // namespace
}  // namespace daisy
