#include "sim/design_registry.h"

#include <sstream>

#include "common/log.h"

namespace h2::sim {

DesignRegistry &
DesignRegistry::instance()
{
    // Meyers singleton: safe against static-init order across the
    // per-design registrar TUs.
    static DesignRegistry registry;
    return registry;
}

void
DesignRegistry::add(DesignInfo info)
{
    h2_assert(info.factory != nullptr, "design '", info.name,
              "' registered without a factory");
    int positionals = 0;
    for (const auto &p : info.params)
        positionals += p.positional ? 1 : 0;
    h2_assert(positionals <= 1, "design '", info.name,
              "' declares more than one positional parameter");
    auto [it, inserted] = byName.emplace(info.name, std::move(info));
    h2_assert(inserted, "design '", it->first, "' registered twice");
}

const DesignInfo *
DesignRegistry::find(std::string_view name) const
{
    auto it = byName.find(name);
    return it == byName.end() ? nullptr : &it->second;
}

std::vector<const DesignInfo *>
DesignRegistry::all() const
{
    std::vector<const DesignInfo *> out;
    out.reserve(byName.size());
    for (const auto &[name, info] : byName)
        out.push_back(&info);
    return out;
}

std::string
DesignRegistry::grammarHelp() const
{
    std::ostringstream os;
    for (const DesignInfo *d : all()) {
        // Usage line: "hybrid2[:cache=<n>,...,cacheonly,...]"
        os << "  " << d->name;
        if (!d->params.empty()) {
            os << "[:";
            bool first = true;
            for (const auto &p : d->params) {
                if (!first)
                    os << ",";
                first = false;
                if (p.type == ParamDef::Type::Flag)
                    os << p.name;
                else
                    os << p.name << "=<n>";
            }
            os << "]";
        }
        os << "\n      " << d->description << "\n";
        for (const auto &p : d->params) {
            os << "      " << p.name;
            switch (p.type) {
            case ParamDef::Type::Flag:
                os << "  (flag) " << p.description;
                break;
            case ParamDef::Type::U64:
                os << "=<n>  " << p.description << " [" << p.defU64
                   << "]";
                if (p.powerOfTwo)
                    os << " (power of two)";
                if (p.minU64 != 0 || p.maxU64 != ~u64(0))
                    os << " (" << p.minU64 << ".." << p.maxU64 << ")";
                if (p.positional)
                    os << " (also positional: " << d->name << ":<n>)";
                break;
            case ParamDef::Type::F64:
                os << "=<x>  " << p.description << " [" << p.defF64
                   << "]";
                break;
            }
            os << "\n";
        }
    }
    return os.str();
}

DesignRegistrar::DesignRegistrar(DesignInfo info)
{
    DesignRegistry::instance().add(std::move(info));
}

} // namespace h2::sim
