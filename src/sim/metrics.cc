#include "sim/metrics.h"

#include <sstream>
#include <type_traits>

#include "common/units.h"

namespace h2::sim {

std::string
Metrics::toString() const
{
    std::ostringstream os;
    os << workload << " on " << design << ":\n"
       << "  instructions : " << instructions << "\n"
       << "  time         : " << formatTime(timePs)
       << " (" << cycles << " cycles, IPC " << ipc << ")\n"
       << "  LLC misses   : " << llcMisses << " (MPKI " << mpki << ")\n"
       << "  mem requests : " << memRequests << " ("
       << servedFromNm * 100.0 << "% from NM)\n"
       << "  NM traffic   : " << formatBytes(nmTrafficBytes) << "\n"
       << "  FM traffic   : " << formatBytes(fmTrafficBytes) << "\n"
       << "  dyn. energy  : " << dynamicEnergyPj / 1e6 << " uJ\n"
       << "  flat capacity: " << formatBytes(flatCapacityBytes) << "\n";
    return os.str();
}

void
Metrics::writeJson(JsonWriter &w) const
{
    w.beginObject()
        .kv("workload", workload)
        .kv("design", design)
        .kv("instructions", instructions)
        .kv("time_ps", timePs)
        .kv("cycles", cycles)
        .kv("ipc", ipc)
        .kv("mem_accesses", memAccesses)
        .kv("llc_misses", llcMisses)
        .kv("mpki", mpki)
        .kv("mem_requests", memRequests)
        .kv("served_from_nm", servedFromNm)
        .kv("nm_traffic_bytes", nmTrafficBytes)
        .kv("fm_traffic_bytes", fmTrafficBytes)
        .kv("dynamic_energy_pj", dynamicEnergyPj)
        .kv("flat_capacity_bytes", flatCapacityBytes)
        .kv("footprint_bytes", footprintBytes);
    w.key("detail").beginObject();
    for (const auto &[name, value] : detail.entries())
        w.kv(name, value);
    w.endObject().endObject();
}

std::optional<Metrics>
Metrics::fromJson(const JsonValue &v, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return std::nullopt;
    };

    if (!v.isObject())
        return fail("metrics record is not a JSON object");

    Metrics m;
    std::string typeError;
    auto str = [&](const char *key, std::string &out) {
        if (const JsonValue *f = v.find(key)) {
            if (!f->isString())
                typeError = std::string(key) + " is not a string";
            else
                out = f->asString();
        }
    };
    auto num = [&](const char *key, auto &out) {
        if (const JsonValue *f = v.find(key)) {
            if (!f->isNumber())
                typeError = std::string(key) + " is not a number";
            else if constexpr (std::is_floating_point_v<
                                   std::remove_reference_t<decltype(out)>>)
                out = f->asDouble();
            else
                out = f->asU64();
        }
    };

    str("workload", m.workload);
    str("design", m.design);
    num("instructions", m.instructions);
    num("time_ps", m.timePs);
    num("cycles", m.cycles);
    num("ipc", m.ipc);
    num("mem_accesses", m.memAccesses);
    num("llc_misses", m.llcMisses);
    num("mpki", m.mpki);
    num("mem_requests", m.memRequests);
    num("served_from_nm", m.servedFromNm);
    num("nm_traffic_bytes", m.nmTrafficBytes);
    num("fm_traffic_bytes", m.fmTrafficBytes);
    num("dynamic_energy_pj", m.dynamicEnergyPj);
    num("flat_capacity_bytes", m.flatCapacityBytes);
    num("footprint_bytes", m.footprintBytes);
    if (const JsonValue *detail = v.find("detail")) {
        if (!detail->isObject())
            typeError = "detail is not an object";
        else
            for (const auto &[name, stat] : detail->members) {
                if (!stat.isNumber()) {
                    typeError = "detail." + name + " is not a number";
                    break;
                }
                m.detail.add(name, stat.asDouble());
            }
    }
    if (!typeError.empty())
        return fail("metrics record: " + typeError);
    return m;
}

std::string
Metrics::toJson() const
{
    JsonWriter w;
    writeJson(w);
    return w.str();
}

std::string
Metrics::csvHeader()
{
    return "workload,design,instructions,time_ps,cycles,ipc,"
           "mem_accesses,llc_misses,mpki,mem_requests,served_from_nm,"
           "nm_traffic_bytes,fm_traffic_bytes,dynamic_energy_pj,"
           "flat_capacity_bytes,footprint_bytes";
}

std::string
csvQuote(const std::string &field)
{
    std::string out = "\"";
    for (char c : field) {
        out += c;
        if (c == '"')
            out += c;
    }
    out += '"';
    return out;
}

std::string
Metrics::toCsvRow() const
{
    std::ostringstream os;
    // Names may one day contain commas; quote the two string fields.
    os << csvQuote(workload) << ',' << csvQuote(design) << ','
       << instructions << ','
       << timePs << ',' << cycles << ','
       << JsonWriter::formatDouble(ipc) << ',' << memAccesses << ','
       << llcMisses << ',' << JsonWriter::formatDouble(mpki) << ','
       << memRequests << ',' << JsonWriter::formatDouble(servedFromNm)
       << ',' << nmTrafficBytes << ',' << fmTrafficBytes << ','
       << JsonWriter::formatDouble(dynamicEnergyPj) << ','
       << flatCapacityBytes << ',' << footprintBytes;
    return os.str();
}

} // namespace h2::sim
