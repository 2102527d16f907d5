/**
 * @file
 * Shared tokenizing and numeric parsing: locale-independent, with both
 * non-fatal (error-returning) and fatal flavours. One implementation
 * serves the design-spec grammar, the experiment-file reader, the
 * bench option parser and the h2sim CLI.
 */

#pragma once

#include <charconv>
#include <string_view>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace h2 {

/** Split @p s on @p delim, dropping empty items. */
inline std::vector<std::string_view>
splitOn(std::string_view s, char delim)
{
    std::vector<std::string_view> out;
    while (!s.empty()) {
        auto pos = s.find(delim);
        std::string_view item = s.substr(0, pos);
        if (!item.empty())
            out.push_back(item);
        if (pos == std::string_view::npos)
            break;
        s.remove_prefix(pos + 1);
    }
    return out;
}

/** Parse "key=value" into (key, value); bare words get value "". */
inline std::pair<std::string_view, std::string_view>
keyValue(std::string_view token)
{
    auto eq = token.find('=');
    if (eq == std::string_view::npos)
        return {token, {}};
    return {token.substr(0, eq), token.substr(eq + 1)};
}

/** Non-fatal decimal u64 parse; full-match only. */
inline bool
tryParseU64(std::string_view value, u64 &out)
{
    u64 v = 0;
    auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), v, 10);
    if (ec != std::errc{} || ptr != value.data() + value.size() ||
        value.empty())
        return false;
    out = v;
    return true;
}

/**
 * Non-fatal non-negative decimal parse allowing a fractional part.
 * Digits and dots only: std::from_chars alone would also accept signs
 * and inf/nan, which no option in this codebase means.
 */
inline bool
tryParseF64(std::string_view value, double &out)
{
    if (value.empty() ||
        value.find_first_not_of("0123456789.") != std::string_view::npos)
        return false;
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(value.data(),
                                     value.data() + value.size(), v,
                                     std::chars_format::fixed);
    if (ec != std::errc{} || ptr != value.data() + value.size())
        return false;
    out = v;
    return true;
}

/** Parse @p value as a decimal u64; h2_fatal on garbage, naming
 *  @p what in the error. */
inline u64
parseU64OrFatal(std::string_view what, std::string_view value)
{
    u64 v = 0;
    if (!tryParseU64(value, v)) {
        // Distinguish overflow for an actionable message.
        u64 dummy = 0;
        auto [ptr, ec] = std::from_chars(
            value.data(), value.data() + value.size(), dummy, 10);
        if (ec == std::errc::result_out_of_range &&
            ptr == value.data() + value.size())
            h2_fatal("bad value for ", what, ": '", value,
                     "' (out of range)");
        h2_fatal("bad value for ", what, ": '", value,
                 "' (expected a decimal integer)");
    }
    return v;
}

} // namespace h2
