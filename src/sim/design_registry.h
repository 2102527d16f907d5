/**
 * @file
 * The self-registering design registry.
 *
 * Every memory organization registers itself here from its own
 * translation unit (see the H2_REGISTER_DESIGN block at the bottom of
 * each design source under src/baselines and src/core/dcmc.cc): a
 * factory, a typed
 * parameter schema, and a one-line description. Everything that used
 * to be hand-maintained in three places — makeDesign's dispatch, the
 * evaluated-design lineup, and the CLI grammar help — is generated
 * from the entries.
 *
 * Registration happens during static initialization; the registry is
 * read-only afterwards, so concurrent lookups from sweep workers need
 * no locking.
 */

#pragma once

#include <map>
#include <memory>
#include <vector>

#include "mem/hybrid_memory.h"
#include "sim/design_spec.h"

namespace h2::sim {

/** Everything the registry knows about one design. */
struct DesignInfo
{
    using Factory = std::unique_ptr<mem::HybridMemory> (*)(
        const DesignSpec &, const mem::MemSystemParams &,
        const mem::LlcView &);
    /** Cross-parameter validation; returns "" or a reason. */
    using CrossCheck = std::string (*)(const DesignSpec &);

    std::string name;        ///< grammar head, e.g. "dfc"
    std::string description; ///< one line, for --list-designs
    std::vector<ParamDef> params;
    Factory factory = nullptr;
    CrossCheck crossCheck = nullptr;
    /** Position in the paper's Figure 12-18 lineup; -1 = not in it. */
    int figure12Order = -1;

    /** Build a spec of this design with all parameters at defaults. */
    DesignSpec defaultSpec() const { return DesignSpec(*this); }
};

class DesignRegistry
{
  public:
    static DesignRegistry &instance();

    /** Register @p info; fatal on a duplicate name. */
    void add(DesignInfo info);

    /** Entry for grammar head @p name; nullptr if unknown. */
    const DesignInfo *find(std::string_view name) const;

    /** All entries in name order (deterministic, link-order free). */
    std::vector<const DesignInfo *> all() const;

    /**
     * The design-spec grammar rendered from the registered schemas:
     * one block per design with its options, defaults and ranges.
     * Used by `h2sim --help`/`--list-designs` and the README docs.
     */
    std::string grammarHelp() const;

  private:
    DesignRegistry() = default;
    std::map<std::string, DesignInfo, std::less<>> byName;
};

/** Static-init helper behind H2_REGISTER_DESIGN. */
struct DesignRegistrar
{
    explicit DesignRegistrar(DesignInfo info);
};

/**
 * Register a design from its own translation unit:
 *
 *   H2_REGISTER_DESIGN(dfc, [] { DesignInfo d; ...; return d; }())
 *
 * The registrar runs at static initialization. h2core is an OBJECT
 * library precisely so these TUs cannot be dropped by the linker.
 */
#define H2_REGISTER_DESIGN(ident, ...) \
    namespace { \
    const ::h2::sim::DesignRegistrar h2_design_registrar_##ident{ \
        __VA_ARGS__}; \
    }

} // namespace h2::sim
