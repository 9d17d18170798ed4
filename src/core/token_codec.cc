#include "core/token_codec.h"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace uguide {

namespace {

Status BadToken(const char* what, std::string_view token) {
  return Status::InvalidArgument("bad " + std::string(what) + " token '" +
                                 std::string(token.substr(0, 64)) + "'");
}

/// 1..`max_digits` digits of `base` (10 or 16, lowercase), overflow-checked.
Result<uint64_t> ParseDigits(std::string_view token, uint64_t base,
                             size_t max_digits, const char* what) {
  if (token.empty() || token.size() > max_digits) return BadToken(what, token);
  uint64_t value = 0;
  for (const char c : token) {
    const uint64_t digit = c >= '0' && c <= '9'   ? c - '0'
                           : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                                  : base;
    if (digit >= base || value > (UINT64_MAX - digit) / base) {
      return BadToken(what, token);
    }
    value = value * base + digit;
  }
  return value;
}

}  // namespace

std::string HexFloat(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

Result<double> ParseHexFloat(std::string_view token) {
  // strtod skips leading whitespace and takes a '+'; %a writes neither.
  if (token.empty() || token.size() > 64 || token[0] == '+' ||
      std::isspace(static_cast<unsigned char>(token[0]))) {
    return BadToken("float", token);
  }
  const std::string owned(token);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(owned.c_str(), &end);
  if (errno != 0 || end != owned.c_str() + owned.size()) {
    return BadToken("float", token);
  }
  return value;
}

std::string HexMask(uint64_t mask) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIx64, mask);
  return buf;
}

Result<uint64_t> ParseHexMask(std::string_view token) {
  return ParseDigits(token, 16, 16, "mask");
}

Result<uint64_t> ParseDecimal(std::string_view token) {
  return ParseDigits(token, 10, 20, "integer");
}

Result<Answer> ParseAnswerToken(std::string_view token) {
  if (token == "yes") return Answer::kYes;
  if (token == "no") return Answer::kNo;
  if (token == "idk") return Answer::kIdk;
  return BadToken("answer", token);
}

}  // namespace uguide
