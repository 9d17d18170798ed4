#ifndef UGUIDE_CORE_TOKEN_CODEC_H_
#define UGUIDE_CORE_TOKEN_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "oracle/expert.h"

namespace uguide {

/// \file
/// \brief The text tokens the wire protocol and the session journal share:
/// doubles as C hexfloats, FD left-hand sides as hex attribute masks,
/// answers as yes/no/idk. Each token has one formatter and one parser, and
/// every parser is canonical: it accepts what the formatter can emit and
/// refuses the rest (a sign on a mask, a leading '+' or whitespace on a
/// hexfloat, "0x" or upper case on a mask), so a hostile token can never
/// alias a legitimate one.

/// Formats a double as a C hexfloat (`%a`): an exact round trip.
std::string HexFloat(double value);
/// Parses a HexFloat token, whole-token strict; a leading '-' is accepted.
Result<double> ParseHexFloat(std::string_view token);

/// Formats a mask as lowercase hex without padding ({0, 5} -> "21").
std::string HexMask(uint64_t mask);
/// Parses 1-16 lowercase hex digits (leading zeros allowed).
Result<uint64_t> ParseHexMask(std::string_view token);

/// Parses an unsigned decimal integer: 1-20 digits, range-checked.
Result<uint64_t> ParseDecimal(std::string_view token);

/// Parses the AnswerName spelling: "yes", "no" or "idk".
Result<Answer> ParseAnswerToken(std::string_view token);

}  // namespace uguide

#endif  // UGUIDE_CORE_TOKEN_CODEC_H_
