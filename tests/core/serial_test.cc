// Property tests for the tagged text serialization layer: randomized
// round-trips (including control characters in strings and NaN/±inf
// doubles) and an exhaustive truncation sweep asserting that every
// strict prefix of a stream is rejected through the latched error
// channel — never a crash, hang, or silent success.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/matrix.h"
#include "core/rng.h"
#include "core/serial.h"

namespace daisy {
namespace {

// Doubles drawn from a pool that includes the values most likely to
// break text round-trips: extremes, denormals, signed zeros, NaN, ±inf.
double RandomDouble(Rng* rng) {
  switch (rng->UniformInt(10)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return std::numeric_limits<double>::infinity();
    case 2:
      return -std::numeric_limits<double>::infinity();
    case 3:
      return std::numeric_limits<double>::denorm_min();
    case 4:
      return -0.0;
    case 5:
      return std::numeric_limits<double>::max();
    case 6:
      return std::numeric_limits<double>::lowest();
    default:
      return rng->Gaussian() * std::pow(10.0, rng->Uniform(-30.0, 30.0));
  }
}

void ExpectSameDouble(double a, double b) {
  if (std::isnan(a)) {
    EXPECT_TRUE(std::isnan(b));
  } else {
    EXPECT_EQ(a, b);
  }
}

std::string RandomBytes(Rng* rng, size_t max_len) {
  std::string s(rng->UniformInt(max_len + 1), '\0');
  for (auto& ch : s)
    ch = static_cast<char>(rng->UniformInt(256));  // any byte, incl. \0 \n
  return s;
}

TEST(SerialPropertyTest, RandomRoundTrips) {
  Rng rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    // Generate a random schedule of typed values, then write and read
    // it back in lockstep.
    const size_t ops = 1 + rng.UniformInt(12);
    std::vector<int> kinds(ops);
    std::vector<uint64_t> u64s(ops);
    std::vector<double> doubles(ops);
    std::vector<std::string> strings(ops);
    std::vector<Matrix> matrices(ops);
    std::vector<std::vector<double>> vectors(ops);

    std::ostringstream os;
    Serializer ser(&os);
    for (size_t i = 0; i < ops; ++i) {
      kinds[i] = static_cast<int>(rng.UniformInt(6));
      switch (kinds[i]) {
        case 0:
          ser.WriteTag("tag" + std::to_string(i));
          break;
        case 1:
          u64s[i] = rng.UniformInt(3) == 0
                        ? std::numeric_limits<uint64_t>::max()
                        : (rng.UniformInt(1ull << 32) << 32) |
                              rng.UniformInt(1ull << 32);
          ser.WriteU64(u64s[i]);
          break;
        case 2:
          doubles[i] = RandomDouble(&rng);
          ser.WriteDouble(doubles[i]);
          break;
        case 3:
          strings[i] = RandomBytes(&rng, 40);
          ser.WriteString(strings[i]);
          break;
        case 4: {
          const size_t r = rng.UniformInt(4);
          const size_t c = rng.UniformInt(4);
          matrices[i] = Matrix(r, c);
          for (size_t rr = 0; rr < r; ++rr)
            for (size_t cc = 0; cc < c; ++cc)
              matrices[i](rr, cc) = RandomDouble(&rng);
          ser.WriteMatrix(matrices[i]);
          break;
        }
        default: {
          vectors[i].resize(rng.UniformInt(6));
          for (auto& v : vectors[i]) v = RandomDouble(&rng);
          ser.WriteDoubleVector(vectors[i]);
          break;
        }
      }
    }

    std::istringstream is(os.str());
    Deserializer des(&is);
    for (size_t i = 0; i < ops; ++i) {
      switch (kinds[i]) {
        case 0:
          des.ExpectTag("tag" + std::to_string(i));
          break;
        case 1:
          EXPECT_EQ(des.ReadU64(), u64s[i]);
          break;
        case 2:
          ExpectSameDouble(doubles[i], des.ReadDouble());
          break;
        case 3:
          EXPECT_EQ(des.ReadString(), strings[i]);
          break;
        case 4: {
          const Matrix m = des.ReadMatrix();
          ASSERT_TRUE(m.SameShape(matrices[i]));
          for (size_t rr = 0; rr < m.rows(); ++rr)
            for (size_t cc = 0; cc < m.cols(); ++cc)
              ExpectSameDouble(matrices[i](rr, cc), m(rr, cc));
          break;
        }
        default: {
          const std::vector<double> v = des.ReadDoubleVector();
          ASSERT_EQ(v.size(), vectors[i].size());
          for (size_t k = 0; k < v.size(); ++k)
            ExpectSameDouble(vectors[i][k], v[k]);
          break;
        }
      }
    }
    EXPECT_TRUE(des.ok()) << "trial " << trial << ": " << des.error();
  }
}

// Every number a model file or checkpoint holds must be the bytes
// snprintf("%.17g") writes. The reference is built by hand: a size
// line, then one line per matrix row (one empty line for an empty
// matrix or vector), numbers separated by single spaces.
TEST(SerialPropertyTest, NumberBytesMatchPrintfReference) {
  Rng rng(26);
  const auto draw = [&rng] {
    if (rng.UniformInt(2)) return RandomDouble(&rng);
    const uint64_t bits = rng.Next();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  };
  const auto line = [](const double* v, size_t n) {
    std::string out;
    char buf[40];
    for (size_t i = 0; i < n; ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
      out += (i ? " " : "") + std::string(buf);
    }
    return out + "\n";
  };

  std::ostringstream os;
  Serializer ser(&os);
  std::string want;
  const std::pair<size_t, size_t> shapes[] = {{0, 0}, {0, 3},  {3, 0},
                                              {1, 1}, {4, 7}, {64, 33}};
  for (const auto& [rows, cols] : shapes) {
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i) m.data()[i] = draw();
    ser.WriteMatrix(m);
    want += std::to_string(rows) + " " + std::to_string(cols) + "\n";
    if (m.size() == 0) want += "\n";
    for (size_t r = 0; r < rows && cols > 0; ++r) want += line(m.row(r), cols);
  }
  for (size_t n : {0, 1, 5, 1000}) {
    std::vector<double> v(n);
    for (double& x : v) x = draw();
    ser.WriteDoubleVector(v);
    want += std::to_string(n) + "\n" + line(v.data(), n);
  }
  for (int i = 0; i < 1000; ++i) {
    const double v = draw();
    ser.WriteDouble(v);
    want += line(&v, 1);
  }
  EXPECT_EQ(os.str(), want);
}

TEST(SerialPropertyTest, MalformedTokensAreRejected) {
  for (const char* payload :
       {"x1.5", "1.5x", "", "nanx", "--3", "1e", "0x", "one"}) {
    std::istringstream is(std::string(payload) + "\n");
    Deserializer des(&is);
    des.ReadDouble();
    EXPECT_FALSE(des.ok()) << "accepted malformed double: " << payload;
    EXPECT_FALSE(des.error().empty());
  }
  {
    // Implausible string length must be refused before allocation.
    std::istringstream is("S99999999999:abc\n");
    Deserializer des(&is);
    des.ReadString();
    EXPECT_FALSE(des.ok());
  }
}

TEST(SerialPropertyTest, TruncationSweepNeverCrashesOrPasses) {
  // One stream exercising every value type, terminated by a sentinel
  // tag. Every writer ends with '\n', so the only cut that leaves a
  // parseable stream is stripping that final newline — the sweep stops
  // one byte short of it. Everything else must latch an error.
  Rng rng(77);
  std::ostringstream os;
  Serializer ser(&os);
  ser.WriteTag("hdr");
  ser.WriteU64(18446744073709551615ull);
  ser.WriteDouble(std::numeric_limits<double>::quiet_NaN());
  ser.WriteDouble(-std::numeric_limits<double>::infinity());
  ser.WriteString(std::string("ctrl\n\0\t chars", 13));
  Matrix m(2, 3);
  for (size_t r = 0; r < 2; ++r)
    for (size_t c = 0; c < 3; ++c) m(r, c) = rng.Gaussian();
  ser.WriteMatrix(m);
  ser.WriteDoubleVector({1.0, -2.5, 3e300});
  ser.WriteTag("end");
  const std::string full = os.str();
  ASSERT_GT(full.size(), 10u);
  ASSERT_EQ(full.back(), '\n');

  struct Verdict {
    bool ok;
    std::string error;
  };
  const auto read_all = [&](const std::string& bytes) -> Verdict {
    std::istringstream is(bytes);
    Deserializer des(&is);
    des.ExpectTag("hdr");
    des.ReadU64();
    des.ReadDouble();
    des.ReadDouble();
    des.ReadString();
    des.ReadMatrix();
    des.ReadDoubleVector();
    des.ExpectTag("end");
    return {des.ok(), des.error()};
  };

  {
    std::istringstream is(full);
    Deserializer des(&is);
    des.ExpectTag("hdr");
    EXPECT_EQ(des.ReadU64(), 18446744073709551615ull);
    EXPECT_TRUE(std::isnan(des.ReadDouble()));
    EXPECT_EQ(des.ReadDouble(), -std::numeric_limits<double>::infinity());
    EXPECT_EQ(des.ReadString(), std::string("ctrl\n\0\t chars", 13));
    des.ReadMatrix();
    des.ReadDoubleVector();
    des.ExpectTag("end");
    ASSERT_TRUE(des.ok()) << des.error();
  }

  for (size_t cut = 0; cut + 1 < full.size(); ++cut) {
    const Verdict v = read_all(full.substr(0, cut));
    EXPECT_FALSE(v.ok) << "cut at byte " << cut << " parsed cleanly";
    EXPECT_FALSE(v.error.empty()) << "cut at byte " << cut;
  }
}

}  // namespace
}  // namespace daisy
