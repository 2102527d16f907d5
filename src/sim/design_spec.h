/**
 * @file
 * Typed design specifications.
 *
 * A DesignSpec is the parsed, validated, canonical representation of
 * one memory-organization design: a design kind plus a typed parameter
 * set checked against the registered schema (see design_registry.h).
 * The textual grammar every entry point accepts is
 *
 *   <kind>[:<option>,<option>,...]
 *
 * where an option is "key=value", a bare flag name, or (for designs
 * with a positional parameter, e.g. "ideal:256") a bare value.
 *
 * DesignSpec::parse() returns a spec or a precise error (unknown
 * design, unknown option, bad value, out of range, not a power of
 * two). toString() renders the canonical form: options in schema
 * order, defaults elided, so equivalent spellings ("dfc", "dfc:1024",
 * "dfc:line=1024") compare and memoize as one design.
 */

#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.h"

namespace h2::sim {

struct DesignInfo; // registry entry; see design_registry.h

/** Schema entry for one design parameter. */
struct ParamDef
{
    enum class Type : u8 { U64, F64, Flag };

    std::string name;
    Type type = Type::U64;
    std::string description; ///< one line, includes the unit

    u64 defU64 = 0;
    double defF64 = 0.0;
    u64 minU64 = 0;
    u64 maxU64 = ~u64(0);
    double minF64 = 0.0;
    double maxF64 = 1e308;
    bool powerOfTwo = false;
    /** Accepted as a bare value ("ideal:256"); at most one per design. */
    bool positional = false;
};

/** One typed parameter value. */
struct ParamValue
{
    ParamDef::Type type = ParamDef::Type::U64;
    u64 u = 0;
    double f = 0.0;
    bool b = false;

    bool operator==(const ParamValue &) const = default;
};

struct DesignSpecParseResult;

class DesignSpec
{
  public:
    /** Outcome of parsing: a spec, or a precise error. */
    using ParseResult = DesignSpecParseResult;

    /** Parse and validate @p text against the registered schema. */
    static ParseResult parse(std::string_view text);

    /** Parse @p text; h2_fatal (exit, not crash) on any error. */
    static DesignSpec parseOrFatal(std::string_view text);

    /** Registry entry this spec was validated against. */
    const DesignInfo &info() const { return *def; }

    /**
     * Canonical textual form: kind name, then explicitly-set
     * non-default options in schema order. Round-trips through
     * parse() and is the memoization key used by Runner/SweepRunner.
     */
    std::string toString() const;

    /** True iff @p name was explicitly set (to a non-default value). */
    bool isSet(const std::string &name) const;

    /** Value of a U64 parameter (explicit value or schema default). */
    u64 u64Param(const std::string &name) const;
    /** Value of an F64 parameter (explicit value or schema default). */
    double f64Param(const std::string &name) const;
    /** Value of a flag (true iff explicitly set). */
    bool flag(const std::string &name) const;

    /** Canonical equality: same kind, same non-default parameters. */
    bool operator==(const DesignSpec &other) const;

  private:
    friend struct DesignInfo;
    explicit DesignSpec(const DesignInfo &info)
        : def(&info)
    {
    }

    const ParamDef *findParam(const std::string &name) const;

    const DesignInfo *def; ///< registry-owned, immutable after init
    /** Explicitly-set values differing from the schema default. */
    std::map<std::string, ParamValue> values;
};

/** Outcome of DesignSpec::parse: a spec, or a precise error. */
struct DesignSpecParseResult
{
    std::optional<DesignSpec> spec;
    std::string error; ///< empty iff spec is set

    bool ok() const { return spec.has_value(); }
};

/**
 * Canonical form of a textual spec (parseOrFatal + toString); the
 * shared memoization key so "dfc" and "dfc:1024" cache as one run.
 */
std::string canonicalDesignSpec(const std::string &spec);

} // namespace h2::sim
