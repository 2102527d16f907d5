#include "sim/design_spec.h"

#include <charconv>
#include <set>
#include <sstream>

#include "common/log.h"
#include "common/parse.h"
#include "sim/design_registry.h"

namespace h2::sim {

namespace {

/** Shortest fixed-notation round-trip rendering of @p v. The grammar's
 *  number parser (tryParseF64) accepts digits and dots only, so the
 *  canonical form must never use scientific notation — plain to_chars
 *  would render e.g. 0.0001 as "1e-04", which could not re-parse. */
std::string
formatF64(double v)
{
    char buf[1100]; // fixed notation of a denormal double can run long
    auto [ptr, ec] =
        std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed);
    h2_assert(ec == std::errc{}, "double format overflow");
    return std::string(buf, ptr);
}

const ParamDef *
positionalParam(const DesignInfo &info)
{
    for (const auto &p : info.params)
        if (p.positional)
            return &p;
    return nullptr;
}

std::string
badValue(const DesignInfo &info, const ParamDef &pd, std::string_view value,
         const std::string &why)
{
    return detail::concat("bad value for ", info.name, " ", pd.name, ": '",
                          value, "' (", why, ")");
}

/** Parse + range-check one option value into @p values; "" on success.
 *  Values equal to the schema default are dropped (canonicalization). */
std::string
applyValue(std::map<std::string, ParamValue> &values,
           const DesignInfo &info, const ParamDef &pd,
           std::string_view value)
{
    ParamValue pv;
    pv.type = pd.type;
    switch (pd.type) {
    case ParamDef::Type::Flag:
        if (!value.empty())
            return badValue(info, pd, value, "flag takes no value");
        pv.b = true;
        values.emplace(pd.name, pv);
        return {};
    case ParamDef::Type::U64: {
        if (!tryParseU64(value, pv.u)) {
            u64 dummy = 0;
            auto [ptr, ec] = std::from_chars(
                value.data(), value.data() + value.size(), dummy, 10);
            if (ec == std::errc::result_out_of_range &&
                ptr == value.data() + value.size())
                return badValue(info, pd, value, "out of range");
            return badValue(info, pd, value, "expected a decimal integer");
        }
        if (pv.u < pd.minU64 || pv.u > pd.maxU64)
            return badValue(info, pd, value,
                            detail::concat("allowed range ", pd.minU64,
                                           "..", pd.maxU64));
        if (pd.powerOfTwo && (pv.u == 0 || (pv.u & (pv.u - 1)) != 0))
            return badValue(info, pd, value, "must be a power of two");
        if (pv.u != pd.defU64)
            values.emplace(pd.name, pv);
        return {};
    }
    case ParamDef::Type::F64:
        if (!tryParseF64(value, pv.f))
            return badValue(info, pd, value, "expected a decimal number");
        if (pv.f < pd.minF64 || pv.f > pd.maxF64)
            return badValue(info, pd, value,
                            detail::concat("allowed range ", pd.minF64,
                                           "..", pd.maxF64));
        if (pv.f != pd.defF64)
            values.emplace(pd.name, pv);
        return {};
    }
    return "unreachable";
}

} // namespace

DesignSpec::ParseResult
DesignSpec::parse(std::string_view text)
{
    ParseResult result;
    auto colon = text.find(':');
    std::string_view head = text.substr(0, colon);
    const DesignInfo *info = DesignRegistry::instance().find(head);
    if (!info) {
        result.error = detail::concat("unknown design spec: '", text, "'");
        return result;
    }

    DesignSpec spec(*info);
    std::string_view opts =
        colon == std::string_view::npos ? std::string_view{}
                                        : text.substr(colon + 1);
    std::set<std::string, std::less<>> seen;
    for (std::string_view token : splitOn(opts, ',')) {
        auto [key, value] = keyValue(token);
        const ParamDef *pd = spec.findParam(std::string(key));
        if (!pd) {
            // A bare value binds to the design's positional parameter
            // ("ideal:256"); anything else is an unknown option.
            const ParamDef *pos = positionalParam(*info);
            if (token.find('=') == std::string_view::npos && pos) {
                pd = pos;
                value = token;
            } else {
                result.error = detail::concat("unknown ", info->name,
                                              " option: ", key);
                return result;
            }
        }
        if (!seen.insert(std::string(pd->name)).second) {
            result.error = detail::concat("duplicate ", info->name,
                                          " option: ", pd->name);
            return result;
        }
        std::string err = applyValue(spec.values, *info, *pd, value);
        if (!err.empty()) {
            result.error = std::move(err);
            return result;
        }
    }

    if (info->crossCheck) {
        std::string err = info->crossCheck(spec);
        if (!err.empty()) {
            result.error = detail::concat("invalid ", info->name,
                                          " spec '", text, "': ", err);
            return result;
        }
    }
    result.spec = std::move(spec);
    return result;
}

DesignSpec
DesignSpec::parseOrFatal(std::string_view text)
{
    ParseResult result = parse(text);
    if (!result.ok())
        h2_fatal(result.error);
    return *std::move(result.spec);
}

std::string
DesignSpec::toString() const
{
    std::ostringstream os;
    os << def->name;
    char sep = ':';
    // Schema order, not map order: the canonical form is stable under
    // any input spelling or option order.
    for (const auto &pd : def->params) {
        auto it = values.find(pd.name);
        if (it == values.end())
            continue;
        os << sep;
        sep = ',';
        switch (pd.type) {
        case ParamDef::Type::Flag:
            os << pd.name;
            break;
        case ParamDef::Type::U64:
            os << pd.name << '=' << it->second.u;
            break;
        case ParamDef::Type::F64:
            os << pd.name << '=' << formatF64(it->second.f);
            break;
        }
    }
    return os.str();
}

bool
DesignSpec::isSet(const std::string &name) const
{
    return values.count(name) != 0;
}

const ParamDef *
DesignSpec::findParam(const std::string &name) const
{
    for (const auto &p : def->params)
        if (p.name == name)
            return &p;
    return nullptr;
}

u64
DesignSpec::u64Param(const std::string &name) const
{
    auto it = values.find(name);
    if (it != values.end())
        return it->second.u;
    const ParamDef *pd = findParam(name);
    h2_assert(pd && pd->type == ParamDef::Type::U64,
              "no u64 param '", name, "' in design ", def->name);
    return pd->defU64;
}

double
DesignSpec::f64Param(const std::string &name) const
{
    auto it = values.find(name);
    if (it != values.end())
        return it->second.f;
    const ParamDef *pd = findParam(name);
    h2_assert(pd && pd->type == ParamDef::Type::F64,
              "no f64 param '", name, "' in design ", def->name);
    return pd->defF64;
}

bool
DesignSpec::flag(const std::string &name) const
{
    auto it = values.find(name);
    if (it != values.end())
        return it->second.b;
    const ParamDef *pd = findParam(name);
    h2_assert(pd && pd->type == ParamDef::Type::Flag,
              "no flag '", name, "' in design ", def->name);
    return false;
}

bool
DesignSpec::operator==(const DesignSpec &other) const
{
    return def == other.def && values == other.values;
}

std::string
canonicalDesignSpec(const std::string &spec)
{
    return DesignSpec::parseOrFatal(spec).toString();
}

} // namespace h2::sim
