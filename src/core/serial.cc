#include "core/serial.h"

#include <cerrno>
#include <cinttypes>
#include <cstdlib>

#include "core/format.h"

namespace daisy {

namespace {

// `n` round-trip numbers on one line, space-separated ("%.17g" each).
void WriteLine(std::ostream* os, const double* v, size_t n) {
  std::string line;
  for (size_t i = 0; i < n; ++i) {
    if (i) line.push_back(' ');
    AppendG(v[i], kRoundTripDigits, &line);
  }
  line.push_back('\n');
  *os << line;
}

}  // namespace

void Serializer::WriteTag(const std::string& tag) { *os_ << tag << '\n'; }

void Serializer::WriteU64(uint64_t v) { *os_ << v << '\n'; }

void Serializer::WriteDouble(double v) { WriteLine(os_, &v, 1); }

void Serializer::WriteString(const std::string& s) {
  *os_ << "S" << s.size() << ":" << s << '\n';
}

void Serializer::WriteMatrix(const Matrix& m) {
  *os_ << m.rows() << ' ' << m.cols() << '\n';
  if (m.rows() == 0 || m.cols() == 0) {
    *os_ << '\n';
    return;
  }
  for (size_t r = 0; r < m.rows(); ++r) WriteLine(os_, m.row(r), m.cols());
}

void Serializer::WriteDoubleVector(const std::vector<double>& v) {
  *os_ << v.size() << '\n';
  WriteLine(os_, v.data(), v.size());
}

void Deserializer::Fail(const std::string& what) {
  if (ok_) {
    ok_ = false;
    error_ = what;
  }
}

void Deserializer::ExpectTag(const std::string& tag) {
  if (!ok_) return;
  std::string got;
  if (!(*is_ >> got)) {
    Fail("unexpected end of stream; wanted tag " + tag);
    return;
  }
  if (got != tag) Fail("tag mismatch: wanted " + tag + ", got " + got);
}

uint64_t Deserializer::ReadU64() {
  if (!ok_) return 0;
  uint64_t v = 0;
  if (!(*is_ >> v)) Fail("failed to read u64");
  return v;
}

double Deserializer::ReadDouble() {
  if (!ok_) return 0.0;
  // istream's num_get refuses the "nan" / "inf" tokens that %.17g
  // emits, so read a whitespace-delimited token and hand it to strtod,
  // which accepts them. The whole token must be consumed.
  std::string tok;
  if (!(*is_ >> tok)) {
    Fail("failed to read double");
    return 0.0;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size() || tok.empty()) {
    Fail("malformed double: " + tok);
    return 0.0;
  }
  return v;
}

std::string Deserializer::ReadString() {
  if (!ok_) return "";
  char ch = 0;
  *is_ >> ch;
  if (ch != 'S') {
    Fail("malformed string header");
    return "";
  }
  size_t len = 0;
  if (!(*is_ >> len)) {
    Fail("malformed string length");
    return "";
  }
  if (len > (1u << 30)) {
    Fail("implausible string length");
    return "";
  }
  if (is_->get() != ':') {
    Fail("malformed string separator");
    return "";
  }
  std::string out(len, '\0');
  is_->read(out.data(), static_cast<std::streamsize>(len));
  if (is_->gcount() != static_cast<std::streamsize>(len)) {
    Fail("truncated string");
    return "";
  }
  return out;
}

Matrix Deserializer::ReadMatrix() {
  if (!ok_) return Matrix();
  const size_t rows = ReadU64();
  const size_t cols = ReadU64();
  if (!ok_) return Matrix();
  if (rows > (1u << 24) || cols > (1u << 24)) {
    Fail("implausible matrix dimensions");
    return Matrix();
  }
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows && ok_; ++r)
    for (size_t c = 0; c < cols && ok_; ++c) m(r, c) = ReadDouble();
  return m;
}

std::vector<double> Deserializer::ReadDoubleVector() {
  if (!ok_) return {};
  const size_t n = ReadU64();
  if (!ok_ || n > (1u << 26)) {
    Fail("implausible vector length");
    return {};
  }
  std::vector<double> v(n);
  for (size_t i = 0; i < n && ok_; ++i) v[i] = ReadDouble();
  return v;
}

}  // namespace daisy
